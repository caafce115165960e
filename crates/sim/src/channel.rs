//! The message channel between source and server.
//!
//! The paper's motivation is the cost of wide-area wireless messages, so the
//! simulator accounts for every payload shipped: message count, payload
//! bytes, and (optionally) a fixed delivery latency so that the server
//! applies an update slightly after the source sent it — the situation a
//! GSM/GPRS uplink creates in practice.
//!
//! The channel is generic over what it carries (`WirePayload`): protocol
//! runs ship [`Update`]s directly, while the lossy-link model
//! ([`crate::degraded`]) ships copies of encoded frame bytes tagged with
//! their send order, so reordering is observable. Deliveries come out
//! in *arrival-time* order — with a fixed latency that equals send order, but
//! `MessageChannel::send_delayed` lets a caller add per-message delay
//! (jitter), in which case later sends can overtake earlier ones exactly as
//! on a real packet link.

use mbdr_core::Update;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Accumulated traffic statistics of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub(crate) struct ChannelStats {
    /// Number of messages sent.
    pub messages: u64,
    /// Total payload bytes sent.
    pub payload_bytes: u64,
}

/// Anything the channel can carry and charge for: the payload knows the wire
/// bytes it occupies.
pub(crate) trait WirePayload {
    /// Bytes this payload occupies on the wire.
    fn wire_len(&self) -> usize;
}

impl WirePayload for Update {
    fn wire_len(&self) -> usize {
        self.encoded_len()
    }
}

/// One queued message (min-heap by arrival time, ties broken by send order).
#[derive(Debug, Clone)]
struct InFlight<T> {
    arrival: f64,
    sent_index: u64,
    payload: T,
}

impl<T> PartialEq for InFlight<T> {
    fn eq(&self, other: &Self) -> bool {
        self.arrival.total_cmp(&other.arrival).is_eq() && self.sent_index == other.sent_index
    }
}

impl<T> Eq for InFlight<T> {}

impl<T> Ord for InFlight<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.arrival.total_cmp(&other.arrival).then(self.sent_index.cmp(&other.sent_index))
    }
}

impl<T> PartialOrd for InFlight<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A unidirectional source→server channel with per-message accounting, a
/// fixed base latency and optional per-message extra delay.
#[derive(Debug, Clone)]
pub(crate) struct MessageChannel<T = Update> {
    latency: f64,
    next_index: u64,
    in_flight: BinaryHeap<Reverse<InFlight<T>>>,
    stats: ChannelStats,
}

impl<T: WirePayload> MessageChannel<T> {
    /// Creates a channel with the given one-way latency in seconds.
    pub(crate) fn new(latency: f64) -> Self {
        assert!(latency >= 0.0);
        MessageChannel {
            latency,
            next_index: 0,
            in_flight: BinaryHeap::new(),
            stats: ChannelStats::default(),
        }
    }

    /// Sends a payload at time `sent_at`.
    pub(crate) fn send(&mut self, sent_at: f64, payload: T) {
        self.send_delayed(sent_at, 0.0, payload);
    }

    /// Sends a payload at time `sent_at` with `extra_delay` seconds added on
    /// top of the base latency (per-message jitter). Messages with enough
    /// extra delay arrive after — and are delivered after — later sends.
    pub(crate) fn send_delayed(&mut self, sent_at: f64, extra_delay: f64, payload: T) {
        assert!(extra_delay >= 0.0);
        self.stats.messages += 1;
        self.stats.payload_bytes += payload.wire_len() as u64;
        let message = InFlight {
            arrival: sent_at + self.latency + extra_delay,
            sent_index: self.next_index,
            payload,
        };
        self.next_index += 1;
        self.in_flight.push(Reverse(message));
    }

    /// Delivers every payload whose arrival time is ≤ `now`, in arrival
    /// order (send order breaks ties).
    pub(crate) fn deliver_until(&mut self, now: f64) -> Vec<T> {
        let mut out = Vec::new();
        while let Some(Reverse(front)) = self.in_flight.peek() {
            if front.arrival <= now + 1e-9 {
                let Reverse(message) = self.in_flight.pop().expect("peeked");
                out.push(message.payload);
            } else {
                break;
            }
        }
        out
    }

    /// Traffic statistics so far.
    pub(crate) fn stats(&self) -> ChannelStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbdr_core::{ObjectState, UpdateKind};
    use mbdr_geo::Point;

    fn update(seq: u64) -> Update {
        Update {
            sequence: seq,
            state: ObjectState::basic(Point::new(1.0, 2.0), 3.0, 0.0, seq as f64),
            kind: UpdateKind::DeviationBound,
        }
    }

    #[test]
    fn instantaneous_channel_delivers_immediately() {
        let mut c = MessageChannel::new(0.0);
        c.send(10.0, update(0));
        assert_eq!(c.deliver_until(10.0).len(), 1);
        assert_eq!(c.in_flight.len(), 0);
        assert_eq!(c.stats().messages, 1);
        assert!(c.stats().payload_bytes > 0);
    }

    #[test]
    fn latency_delays_delivery() {
        let mut c = MessageChannel::new(2.5);
        c.send(10.0, update(0));
        assert!(c.deliver_until(11.0).is_empty());
        assert_eq!(c.in_flight.len(), 1);
        let delivered = c.deliver_until(12.6);
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].sequence, 0);
    }

    #[test]
    fn delivery_preserves_order_and_counts_everything() {
        let mut c = MessageChannel::new(1.0);
        c.send(0.0, update(0));
        c.send(1.0, update(1));
        c.send(2.0, update(2));
        let first = c.deliver_until(2.0);
        assert_eq!(first.iter().map(|u| u.sequence).collect::<Vec<_>>(), vec![0, 1]);
        let second = c.deliver_until(10.0);
        assert_eq!(second.iter().map(|u| u.sequence).collect::<Vec<_>>(), vec![2]);
        assert_eq!(c.stats().messages, 3);
    }

    #[test]
    fn extra_delay_lets_later_sends_overtake() {
        let mut c = MessageChannel::new(1.0);
        c.send_delayed(0.0, 5.0, update(0)); // arrives at t = 6
        c.send(0.5, update(1)); // arrives at t = 1.5
        let early = c.deliver_until(2.0);
        assert_eq!(early.iter().map(|u| u.sequence).collect::<Vec<_>>(), vec![1]);
        let late = c.deliver_until(10.0);
        assert_eq!(late.iter().map(|u| u.sequence).collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn equal_arrivals_deliver_in_send_order() {
        let mut c = MessageChannel::new(1.0);
        c.send_delayed(0.0, 1.0, update(0)); // arrives at t = 2
        c.send(1.0, update(1)); // arrives at t = 2 as well
        let both = c.deliver_until(2.0);
        assert_eq!(both.iter().map(|u| u.sequence).collect::<Vec<_>>(), vec![0, 1]);
    }
}
