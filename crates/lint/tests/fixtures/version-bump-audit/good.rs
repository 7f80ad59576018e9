// lint-fixture: crates/bayes/src/estimate.rs
//! Every `&mut self` path on Estimate moves the version stamp, and
//! Offer is read-only.

pub struct Offer {
    value: u32,
}

impl Offer {
    pub fn value(&self) -> u32 {
        self.value
    }
}

impl Clone for Offer {
    fn clone(&self) -> Self {
        Offer { value: self.value }
    }
}

pub struct Estimate {
    value: u32,
    version: u64,
}

impl Estimate {
    pub fn value(&self) -> u32 {
        self.value
    }

    pub fn offer(&self) -> Offer {
        Offer { value: self.value }
    }

    pub fn set_value(&mut self, value: u32) {
        if self.value != value {
            self.value = value;
            self.version += 1;
        }
    }

    pub fn touch(&mut self) {
        self.version += 1;
    }
}
