//! Undisciplined counters: each block declares a `ghost` that nothing ever
//! bumps, so it reads zero forever — in the plain struct and in the
//! `counters!` block (whose macro reports it by construction).

pub struct Stats {
    pub sent: u64,
    pub ghost: u64,
}

impl Stats {
    pub fn record_send(&mut self) {
        self.sent += 1;
    }
}

counters! {
    /// Live block.
    pub struct Declared {
        /// Frames sent.
        sent,
        /// Never bumped.
        ghost,
    }
    /// Plain copy.
    pub snapshot DeclaredSnapshot {}
}

impl Declared {
    pub fn record_send(&self) {
        self.sent.fetch_add(1, Ordering::Relaxed);
    }
}
