//! Disciplined counters: every field of the plain struct and every counter
//! of the `counters!` block is updated on the production path (the
//! snapshot member `label` is not a counter and needs no update).

pub struct Stats {
    pub sent: u64,
    pub dropped: u64,
}

impl Stats {
    pub fn record_send(&mut self, delivered: bool) {
        self.sent += 1;
        if !delivered {
            self.dropped += 1;
        }
    }
}

counters! {
    /// Live block.
    pub struct Declared {
        /// Frames sent.
        sent,
        /// Frames dropped.
        dropped
    }
    /// Plain copy.
    pub snapshot DeclaredSnapshot {
        /// Overlaid by the caller.
        pub label: Option<u8>,
    }
}

impl Declared {
    pub fn record_send(&self, delivered: bool) {
        self.sent.fetch_add(1, Ordering::Relaxed);
        if !delivered {
            bump(&self.dropped);
        }
    }
}
