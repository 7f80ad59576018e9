// lint-fixture: crates/bayes/src/estimate.rs
//! An Estimate with a mutation path that skips the version stamp, and
//! an Offer (a shared frame entry) with a mutation path at all.

pub struct Offer {
    value: u32,
}

impl Offer {
    pub fn value(&self) -> u32 {
        self.value
    }

    pub fn set_value(&mut self, value: u32) {
        self.value = value;
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

    pub fn set_value(&mut self, value: u32) {
        self.value = value;
    }

    pub fn touch(&mut self) {
        self.version += 1;
    }
}
