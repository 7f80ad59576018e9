//! Failure configuration `C`.

use std::collections::BTreeMap;

use crate::{LinkId, Probability, ProcessId, Topology};

/// A failure configuration `C = (P_1 … P_n, L_1 … L_m)`.
///
/// For every process `p_i` the configuration stores its crash probability
/// `P_i` (the fraction of crashed steps), and for every link `l_x` its loss
/// probability `L_x` (the fraction of lost messages). Probabilities for
/// unknown processes or links default to zero — i.e. components are assumed
/// reliable until declared otherwise, matching how the paper initializes
/// knowledge before any evidence arrives.
///
/// The central derived quantity is the *link reliability*
/// `(1 - P_u) · (1 - L_{u,v}) · (1 - P_v)` used both to build Maximum
/// Reliability Trees (Appendix B, line 6) and as `1 - λ_j` in the `reach`
/// function (Eq. 1).
///
/// # Example
///
/// ```
/// use diffuse_model::{Configuration, Probability, ProcessId, Topology};
///
/// # fn main() -> Result<(), diffuse_model::ModelError> {
/// let mut g = Topology::new();
/// let (a, b) = (ProcessId::new(0), ProcessId::new(1));
/// let link = g.add_link(a, b)?;
///
/// let mut c = Configuration::new();
/// c.set_crash(a, Probability::new(0.1)?);
/// c.set_loss(link, Probability::new(0.2)?);
///
/// // (1 - 0.1) * (1 - 0.2) * (1 - 0.0)
/// assert!((c.link_reliability(a, b).value() - 0.72).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Configuration {
    crash: BTreeMap<ProcessId, Probability>,
    loss: BTreeMap<LinkId, Probability>,
}

impl Configuration {
    /// Creates an empty configuration: every process and link is assumed
    /// perfectly reliable.
    pub fn new() -> Self {
        Configuration::default()
    }

    /// Creates the uniform configuration used throughout the paper's
    /// evaluation (Section 5): every process in `topology` crashes with
    /// probability `p` and every link loses messages with probability `l`.
    pub fn uniform(topology: &Topology, p: Probability, l: Probability) -> Self {
        // Both walks ascend, so each map is built in bulk, not by
        // one-at-a-time inserts.
        Configuration {
            crash: topology.processes().map(|process| (process, p)).collect(),
            loss: topology.links().map(|link| (link, l)).collect(),
        }
    }

    /// Sets the crash probability `P_i` of a process, returning the
    /// previous value if any.
    pub fn set_crash(&mut self, p: ProcessId, probability: Probability) -> Option<Probability> {
        self.crash.insert(p, probability)
    }

    /// Sets the loss probability `L_x` of a link, returning the previous
    /// value if any.
    pub fn set_loss(&mut self, link: LinkId, probability: Probability) -> Option<Probability> {
        self.loss.insert(link, probability)
    }

    /// Crash probability `P_i`; zero for unknown processes.
    pub fn crash(&self, p: ProcessId) -> Probability {
        self.crash.get(&p).copied().unwrap_or(Probability::ZERO)
    }

    /// Loss probability `L_x`; zero for unknown links.
    pub fn loss(&self, link: LinkId) -> Probability {
        self.loss.get(&link).copied().unwrap_or(Probability::ZERO)
    }

    /// Reliability of the path segment `u → v`:
    /// `(1 - P_u) · (1 - L_{u,v}) · (1 - P_v)`.
    ///
    /// This is the edge weight of the Maximum Reliability Tree and the
    /// complement of `λ` in the reach function.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (no self-loops exist in the model).
    pub fn link_reliability(&self, u: ProcessId, v: ProcessId) -> Probability {
        let link = LinkId::new(u, v).expect("link reliability of a self-loop is undefined");
        self.crash(u).complement() * self.loss(link).complement() * self.crash(v).complement()
    }

    /// The failure probability `λ = 1 - (1 - P_u)(1 - L_{u,v})(1 - P_v)` of
    /// a single transmission over `u → v` (Eq. 1).
    pub fn lambda(&self, u: ProcessId, v: ProcessId) -> Probability {
        self.link_reliability(u, v).complement()
    }

    /// Iterates over all explicitly configured crash probabilities.
    pub fn crash_entries(&self) -> impl Iterator<Item = (ProcessId, Probability)> + '_ {
        self.crash.iter().map(|(p, pr)| (*p, *pr))
    }

    /// Iterates over all explicitly configured loss probabilities.
    pub fn loss_entries(&self) -> impl Iterator<Item = (LinkId, Probability)> + '_ {
        self.loss.iter().map(|(l, pr)| (*l, *pr))
    }

    /// Number of explicitly configured links.
    pub fn loss_count(&self) -> usize {
        self.loss.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId::new(i)
    }

    fn link(a: u32, b: u32) -> LinkId {
        LinkId::new(p(a), p(b)).unwrap()
    }

    #[test]
    fn defaults_are_perfectly_reliable() {
        let c = Configuration::new();
        assert_eq!(c.crash(p(0)), Probability::ZERO);
        assert_eq!(c.loss(link(0, 1)), Probability::ZERO);
        assert_eq!(c.link_reliability(p(0), p(1)), Probability::ONE);
        assert_eq!(c.lambda(p(0), p(1)), Probability::ZERO);
    }

    #[test]
    fn uniform_covers_whole_topology() {
        let mut g = Topology::new();
        g.add_link(p(0), p(1)).unwrap();
        g.add_link(p(1), p(2)).unwrap();
        let c = Configuration::uniform(
            &g,
            Probability::new(0.01).unwrap(),
            Probability::new(0.05).unwrap(),
        );
        assert_eq!(c.crash_entries().count(), 3);
        assert_eq!(c.loss_count(), 2);
        assert!((c.crash(p(2)).value() - 0.01).abs() < 1e-12);
        assert!((c.loss(link(0, 1)).value() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn link_reliability_multiplies_three_factors() {
        let mut c = Configuration::new();
        c.set_crash(p(0), Probability::new(0.1).unwrap());
        c.set_crash(p(1), Probability::new(0.2).unwrap());
        c.set_loss(link(0, 1), Probability::new(0.3).unwrap());
        let expected = 0.9 * 0.7 * 0.8;
        assert!((c.link_reliability(p(0), p(1)).value() - expected).abs() < 1e-12);
        assert!((c.lambda(p(0), p(1)).value() - (1.0 - expected)).abs() < 1e-12);
        // Symmetric in the endpoints.
        assert_eq!(
            c.link_reliability(p(0), p(1)),
            c.link_reliability(p(1), p(0))
        );
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn link_reliability_panics_on_self_loop() {
        let c = Configuration::new();
        let _ = c.link_reliability(p(1), p(1));
    }

    #[test]
    fn set_returns_previous_value() {
        let mut c = Configuration::new();
        assert_eq!(c.set_crash(p(0), Probability::new(0.1).unwrap()), None);
        assert_eq!(
            c.set_crash(p(0), Probability::new(0.2).unwrap()),
            Some(Probability::new(0.1).unwrap())
        );
    }
}
