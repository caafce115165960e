//! A lossy-link channel model for the wide-area wireless uplink.
//!
//! The paper's cost model is the GSM/GPRS uplink, and a real mobile uplink
//! does more than delay messages: it *loses* them, *duplicates* them (link-
//! layer retransmissions whose ack got lost), *jitters* their delivery and
//! thereby *reorders* them. [`DegradedChannel`] layers those impairments on
//! the accounted `MessageChannel`: each encoded frame's fate is drawn from
//! a seeded RNG, surviving copies travel through the inner channel with
//! per-frame extra delay, and every impairment is tallied per cause in
//! [`LinkStats`].
//!
//! ## Deterministic, nested fates
//!
//! Every send draws exactly **four** uniforms (drop, duplicate, reorder,
//! jitter) regardless of the configuration, so two channels with the same
//! seed see identical draw sequences even when their impairment rates
//! differ. Fate decisions are threshold tests (`draw < rate`), which makes
//! sweeps monotone by construction: the frames dropped at loss rate `p₁` are
//! a subset of those dropped at `p₂ > p₁`. The loss-rate sweep in
//! [`crate::lossy`] leans on exactly this property.

use crate::channel::{MessageChannel, WirePayload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Extra delay a duplicated copy suffers on top of the original's: a stand-in
/// for the link-layer retransmission timer that produced the duplicate.
const DUPLICATE_LAG_S: f64 = 2.0;

/// Impairment configuration of a degraded link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Base one-way latency, seconds.
    pub latency_s: f64,
    /// Uniform per-frame extra delay in `[0, jitter_s)`, seconds.
    pub jitter_s: f64,
    /// Probability a frame is lost outright.
    pub loss: f64,
    /// Probability a frame is delivered twice (spurious retransmission).
    pub duplicate: f64,
    /// Probability a frame is held back long enough to be overtaken by its
    /// successors (an extra `2 · (latency + jitter)` delay).
    pub reorder: f64,
    /// RNG seed deciding every frame's fate.
    pub seed: u64,
}

impl LinkConfig {
    /// A GPRS-like default: 1.5 s latency, 1 s jitter, occasional duplicates
    /// and reorderings, no loss (set [`LinkConfig::loss`] per sweep point).
    pub fn gprs(seed: u64) -> Self {
        LinkConfig {
            latency_s: 1.5,
            jitter_s: 1.0,
            loss: 0.0,
            duplicate: 0.02,
            reorder: 0.02,
            seed,
        }
    }

    fn validate(&self) {
        assert!(self.latency_s >= 0.0, "latency must be non-negative");
        assert!(self.jitter_s >= 0.0, "jitter must be non-negative");
        for (name, p) in
            [("loss", self.loss), ("duplicate", self.duplicate), ("reorder", self.reorder)]
        {
            assert!((0.0..=1.0).contains(&p), "{name} must be a probability, got {p}");
        }
    }
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig::gprs(0xD15C0)
    }
}

/// Per-cause impairment statistics of a degraded link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkStats {
    /// Frames handed to the channel.
    pub frames_sent: u64,
    /// Frames lost outright (never delivered).
    pub frames_dropped: u64,
    /// Frames transmitted twice (one extra copy each).
    pub frames_duplicated: u64,
    /// Frames held back by the reorder impairment.
    pub frames_reordered: u64,
    /// Frame copies delivered to the receiver (duplicates count twice).
    pub frames_delivered: u64,
    /// Delivered copies that arrived after a frame sent later than them.
    pub delivered_out_of_order: u64,
    /// Payload bytes transmitted — every copy put on the air is charged,
    /// including copies that are then lost and the extra duplicate copies:
    /// the radio spends the energy and the operator bills the bytes whether
    /// or not the server benefits.
    pub payload_bytes: u64,
}

/// A frame copy travelling through the inner channel, tagged with its send
/// order so out-of-order deliveries are observable.
#[derive(Debug, Clone)]
struct Tagged {
    tag: u64,
    bytes: Vec<u8>,
}

impl WirePayload for Tagged {
    fn wire_len(&self) -> usize {
        self.bytes.len()
    }
}

/// A source→server link that drops, duplicates, jitters and reorders encoded
/// frames under a seeded RNG, layered on the accounted `MessageChannel`.
#[derive(Debug, Clone)]
pub struct DegradedChannel {
    config: LinkConfig,
    rng: StdRng,
    inner: MessageChannel<Tagged>,
    next_tag: u64,
    max_delivered_tag: Option<u64>,
    stats: LinkStats,
}

impl DegradedChannel {
    /// Creates a link with the given impairment configuration.
    pub fn new(config: LinkConfig) -> Self {
        config.validate();
        DegradedChannel {
            config,
            rng: StdRng::seed_from_u64(config.seed),
            inner: MessageChannel::new(config.latency_s),
            next_tag: 0,
            max_delivered_tag: None,
            stats: LinkStats::default(),
        }
    }

    /// Sends one encoded frame at time `sent_at`; the RNG decides its fate.
    pub fn send(&mut self, sent_at: f64, frame_bytes: Vec<u8>) {
        // Exactly four draws per frame, whatever the configuration, so equal
        // seeds give aligned fates across impairment sweeps (module docs).
        let drop_draw: f64 = self.rng.gen();
        let duplicate_draw: f64 = self.rng.gen();
        let reorder_draw: f64 = self.rng.gen();
        let jitter_draw: f64 = self.rng.gen();

        self.stats.frames_sent += 1;
        self.stats.payload_bytes += frame_bytes.len() as u64;
        if drop_draw < self.config.loss {
            self.stats.frames_dropped += 1;
            return;
        }
        let mut extra = jitter_draw * self.config.jitter_s;
        if reorder_draw < self.config.reorder {
            self.stats.frames_reordered += 1;
            extra += 2.0 * (self.config.latency_s + self.config.jitter_s);
        }
        let tag = self.next_tag;
        self.next_tag += 1;
        if duplicate_draw < self.config.duplicate {
            self.stats.frames_duplicated += 1;
            self.stats.payload_bytes += frame_bytes.len() as u64;
            self.inner.send_delayed(
                sent_at,
                extra + DUPLICATE_LAG_S,
                Tagged { tag, bytes: frame_bytes.clone() },
            );
        }
        self.inner.send_delayed(sent_at, extra, Tagged { tag, bytes: frame_bytes });
    }

    /// Sends one frame outside the impairment model: base latency only, no
    /// fate draws consumed. Models traffic on the reliable control channel
    /// (e.g. the registration exchange that precedes data transfer) — the
    /// lossy sweep uses it for the initial update so every loss rate starts
    /// from the same known state.
    pub(crate) fn send_reliable(&mut self, sent_at: f64, frame_bytes: Vec<u8>) {
        self.stats.frames_sent += 1;
        self.stats.payload_bytes += frame_bytes.len() as u64;
        let tag = self.next_tag;
        self.next_tag += 1;
        self.inner.send_delayed(sent_at, 0.0, Tagged { tag, bytes: frame_bytes });
    }

    /// Delivers every surviving frame copy whose arrival time is ≤ `now`, in
    /// arrival order.
    pub fn deliver_until(&mut self, now: f64) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for message in self.inner.deliver_until(now) {
            self.stats.frames_delivered += 1;
            match self.max_delivered_tag {
                Some(max) if message.tag < max => self.stats.delivered_out_of_order += 1,
                _ => self.max_delivered_tag = Some(message.tag),
            }
            out.push(message.bytes);
        }
        out
    }

    /// Per-cause impairment statistics so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_bytes(n: u8) -> Vec<u8> {
        vec![n; 20]
    }

    /// A perfect link: zero latency, no impairments.
    fn ideal() -> LinkConfig {
        LinkConfig {
            latency_s: 0.0,
            jitter_s: 0.0,
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            seed: 0,
        }
    }

    #[test]
    fn ideal_link_delivers_everything_in_order() {
        let mut c = DegradedChannel::new(ideal());
        for i in 0..10u8 {
            c.send(i as f64, frame_bytes(i));
        }
        let delivered = c.deliver_until(100.0);
        assert_eq!(delivered.len(), 10);
        assert!(delivered.iter().enumerate().all(|(i, b)| b[0] == i as u8));
        let s = c.stats();
        assert_eq!(s.frames_sent, 10);
        assert_eq!(s.frames_dropped + s.frames_duplicated + s.frames_reordered, 0);
        assert_eq!(s.delivered_out_of_order, 0);
        assert_eq!(s.payload_bytes, 200);
    }

    #[test]
    fn full_loss_drops_everything_but_still_charges_the_bytes() {
        let mut c = DegradedChannel::new(LinkConfig { loss: 1.0, ..ideal() });
        for i in 0..8u8 {
            c.send(i as f64, frame_bytes(i));
        }
        assert!(c.deliver_until(1_000.0).is_empty());
        let s = c.stats();
        assert_eq!(s.frames_dropped, 8);
        assert_eq!(s.frames_delivered, 0);
        assert_eq!(s.payload_bytes, 160, "lost frames still cost airtime");
    }

    #[test]
    fn duplicates_deliver_twice_and_cost_twice() {
        let mut c = DegradedChannel::new(LinkConfig { duplicate: 1.0, ..ideal() });
        c.send(0.0, frame_bytes(7));
        let delivered = c.deliver_until(10.0);
        assert_eq!(delivered.len(), 2);
        assert!(delivered.iter().all(|b| b[0] == 7));
        let s = c.stats();
        assert_eq!(s.frames_duplicated, 1);
        assert_eq!(s.frames_delivered, 2);
        assert_eq!(s.payload_bytes, 40);
        // The duplicate of one frame is not an out-of-order delivery.
        assert_eq!(s.delivered_out_of_order, 0);
    }

    #[test]
    fn reordered_frames_are_overtaken_and_detected() {
        // Deterministic construction: frame 0 is reordered (held 2 s extra),
        // then the rate is zeroed so frame 1 is clean and overtakes it.
        let mut c = DegradedChannel::new(LinkConfig { latency_s: 1.0, reorder: 1.0, ..ideal() });
        c.send(0.0, frame_bytes(0));
        c.config.reorder = 0.0;
        c.send(0.1, frame_bytes(1));
        let delivered = c.deliver_until(100.0);
        assert_eq!(delivered.len(), 2);
        assert_eq!(delivered[0][0], 1, "the clean frame arrives first");
        assert_eq!(delivered[1][0], 0);
        let s = c.stats();
        assert_eq!(s.frames_reordered, 1);
        assert_eq!(s.delivered_out_of_order, 1);
    }

    #[test]
    fn loss_fates_are_nested_across_rates() {
        // Same seed, increasing loss: the surviving set shrinks monotonically
        // and every survivor at the higher rate also survived the lower one.
        let survivors = |loss: f64| -> Vec<u8> {
            let mut c = DegradedChannel::new(LinkConfig { loss, seed: 42, ..ideal() });
            for i in 0..100u8 {
                c.send(i as f64, frame_bytes(i));
            }
            c.deliver_until(10_000.0).iter().map(|b| b[0]).collect()
        };
        let mut previous = survivors(0.0);
        assert_eq!(previous.len(), 100);
        for loss in [0.1, 0.3, 0.5, 0.8] {
            let current = survivors(loss);
            assert!(current.len() <= previous.len(), "loss {loss} delivered more than less loss");
            assert!(
                current.iter().all(|f| previous.contains(f)),
                "survivors at loss {loss} must be a subset of the previous set"
            );
            previous = current;
        }
    }

    #[test]
    fn reliable_sends_bypass_impairments_and_rng() {
        let mut lossy = DegradedChannel::new(LinkConfig { loss: 1.0, seed: 9, ..ideal() });
        lossy.send_reliable(0.0, frame_bytes(1));
        assert_eq!(lossy.deliver_until(10.0).len(), 1, "reliable frames cannot be lost");
        // The reliable send consumed no draws: the next lossy frame's fate
        // matches a channel that never sent the reliable frame.
        let mut reference = DegradedChannel::new(LinkConfig { loss: 0.5, seed: 9, ..ideal() });
        let mut with_reliable = DegradedChannel::new(LinkConfig { loss: 0.5, seed: 9, ..ideal() });
        with_reliable.send_reliable(0.0, frame_bytes(0));
        for i in 0..50u8 {
            reference.send(i as f64, frame_bytes(i));
            with_reliable.send(i as f64, frame_bytes(i));
        }
        let r: Vec<u8> = reference.deliver_until(1_000.0).iter().map(|b| b[0]).collect();
        let mut w: Vec<u8> = with_reliable.deliver_until(1_000.0).iter().map(|b| b[0]).collect();
        assert_eq!(w.remove(0), 0, "the reliable frame is delivered first");
        assert_eq!(r, w, "identical fates for the lossy frames");
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_probabilities_are_rejected() {
        let _ = DegradedChannel::new(LinkConfig { loss: 1.5, ..ideal() });
    }
}
