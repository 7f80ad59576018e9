//! Error type for the deployment substrate.

use core::fmt;

use diffuse_model::ProcessId;

/// Errors produced by codecs, transports and the node runtime.
#[derive(Debug)]
#[non_exhaustive]
pub enum NetError {
    /// The frame ended before the announced content.
    Truncated,
    /// Unknown message tag on the wire.
    BadTag(u8),
    /// Unsupported wire-format version.
    BadVersion(u8),
    /// Structurally invalid content (with a reason).
    Invalid(&'static str),
    /// The destination process has no known address/channel.
    UnknownPeer(ProcessId),
    /// The encoded frame exceeds the transport's maximum (e.g. one UDP
    /// datagram).
    FrameTooLarge {
        /// Encoded size in bytes.
        size: usize,
        /// Transport limit in bytes.
        limit: usize,
    },
    /// The transport is closed.
    Closed,
    /// Underlying socket error.
    Io(std::io::Error),
}

impl NetError {
    /// True for socket-level errors that the paper's link model treats
    /// as **message loss**, not failure: the datagram (or the chance to
    /// receive one) is gone, but the socket remains usable.
    ///
    /// Covers ICMP port-unreachable surfacing as `ECONNREFUSED` /
    /// `ECONNRESET` (a crashed or not-yet-bound peer), `EAGAIN` /
    /// `EWOULDBLOCK` and timeouts (kernel buffer pressure), `EINTR`,
    /// and `EPERM` on send (a firewall dropping the datagram — Linux
    /// reports conntrack/iptables drops this way). Callers on a hot
    /// path should count these as lost and carry on; everything else
    /// (bad frame sizes, unknown peers, closed transports, hard IO
    /// errors) stays an error.
    pub fn is_transient(&self) -> bool {
        use std::io::ErrorKind;
        match self {
            NetError::Io(e) => matches!(
                e.kind(),
                ErrorKind::ConnectionRefused
                    | ErrorKind::ConnectionReset
                    | ErrorKind::ConnectionAborted
                    | ErrorKind::WouldBlock
                    | ErrorKind::TimedOut
                    | ErrorKind::Interrupted
                    | ErrorKind::PermissionDenied
            ),
            _ => false,
        }
    }
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Truncated => write!(f, "frame ended before the announced content"),
            NetError::BadTag(t) => write!(f, "unknown message tag {t}"),
            NetError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            NetError::Invalid(reason) => write!(f, "invalid frame content: {reason}"),
            NetError::UnknownPeer(p) => write!(f, "no address known for {p}"),
            NetError::FrameTooLarge { size, limit } => {
                write!(
                    f,
                    "frame of {size} bytes exceeds the transport limit of {limit}"
                )
            }
            NetError::Closed => write!(f, "transport is closed"),
            NetError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(NetError::BadTag(9).to_string().contains('9'));
        assert!(NetError::FrameTooLarge {
            size: 70000,
            limit: 65507
        }
        .to_string()
        .contains("65507"));
    }

    #[test]
    fn io_errors_chain() {
        let err = NetError::from(std::io::Error::other("boom"));
        assert!(std::error::Error::source(&err).is_some());
    }

    #[test]
    fn transient_classification() {
        use std::io::ErrorKind;
        let transient = [
            ErrorKind::ConnectionRefused,
            ErrorKind::ConnectionReset,
            ErrorKind::ConnectionAborted,
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
            ErrorKind::Interrupted,
            ErrorKind::PermissionDenied,
        ];
        for kind in transient {
            assert!(
                NetError::from(std::io::Error::from(kind)).is_transient(),
                "{kind:?} should be transient"
            );
        }
        let hard = [
            ErrorKind::NotFound,
            ErrorKind::AddrInUse,
            ErrorKind::InvalidInput,
            ErrorKind::BrokenPipe,
        ];
        for kind in hard {
            assert!(
                !NetError::from(std::io::Error::from(kind)).is_transient(),
                "{kind:?} should be hard"
            );
        }
    }

    #[test]
    fn non_io_errors_are_never_transient() {
        assert!(!NetError::Truncated.is_transient());
        assert!(!NetError::BadTag(7).is_transient());
        assert!(!NetError::Closed.is_transient());
        assert!(!NetError::UnknownPeer(ProcessId::new(3)).is_transient());
        assert!(!NetError::FrameTooLarge {
            size: 70_000,
            limit: 65_000
        }
        .is_transient());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<NetError>();
    }
}
