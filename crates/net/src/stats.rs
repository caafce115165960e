//! Observable counters of a running [`crate::NetServer`].
//!
//! The same discipline as the simulator's `LinkStats`: every event on the
//! serving path is tallied per cause, so tests (and operators) can assert
//! exactly what a connection did — how many frames arrived, how many updates
//! they applied, and why a connection ended (clean close vs. protocol
//! violation).

use mbdr_journal::JournalStatsSnapshot;
use mbdr_locserver::{DurabilityStatsSnapshot, RecoveryReport};
use std::sync::atomic::{AtomicU64, Ordering};

mbdr_journal::counters! {
    /// Shared atomic counters the server threads bump as they work.
    pub struct ServerStats {
        /// Connections the accept loop received (including ones later refused
        /// at admission or registration).
        connections_accepted,
        /// Connections the peer closed cleanly at a message boundary.
        connections_closed,
        /// Connections the server dropped (decode error, oversized message or
        /// socket failure).
        connections_dropped,
        /// Ingest frames received (valid envelopes; payload validity is counted
        /// at apply time).
        frames_received,
        /// Updates the ingest workers applied to registered objects.
        updates_applied,
        /// Ingest frame payloads that failed to decode at apply time.
        frame_decode_errors,
        /// Request envelopes that failed to decode.
        request_decode_errors,
        /// Messages refused because their length prefix exceeded the cap.
        oversized_messages,
        /// Rect / nearest / zone-poll queries answered (flush barriers are
        /// accounted per connection via `FlushDone`, not here, so this
        /// reconciles exactly with client-side query counts).
        queries_answered,
        /// Zone enter/leave events sent to subscribers.
        zone_events_emitted,
        /// Bytes read off accepted sockets (length prefixes included).
        bytes_received,
        /// Bytes written to accepted sockets (length prefixes included).
        bytes_sent,
        /// Connections evicted as slow clients: their bounded outbound buffer
        /// overflowed, or they sat write-blocked past the configured budget.
        /// Every eviction is also counted under `connections_dropped`.
        evicted_slow,
        /// Times a connection's ingest frame was parked because its worker
        /// queue was full (read-interest backoff; one park per stall, retries
        /// are not recounted).
        backpressure_stalls,
        /// Connection readiness events the reactors processed (waker events
        /// excluded). Scheduling-dependent: a diagnostic, not an invariant.
        readiness_wakeups,
        /// Readiness events that produced no progress (no bytes moved, no state
        /// advanced). Scheduling-dependent: a diagnostic, not an invariant.
        spurious_wakeups,
        /// Connections refused because they could not be registered: the
        /// admission cap was reached or the poller rejected the socket — the
        /// reactor-era descendant of "the reader thread failed to spawn".
        register_failures,
    }
    /// A point-in-time copy of the server's counters. The journal, durability
    /// and recovery members live on the journal / service / bind-time report,
    /// not on [`ServerStats`]: `NetServer::stats` overlays them.
    pub snapshot ServerStatsSnapshot {
        /// Write-ahead journal counters (all zero unless the server was started
        /// with [`crate::NetServer::bind_durable`]); see
        /// [`mbdr_journal::JournalStatsSnapshot`].
        pub journal: JournalStatsSnapshot,
        /// Durability state machine counters of the fronted service (state,
        /// degraded-window frame count, transition and probe counts); see
        /// [`mbdr_locserver::DurabilityStatsSnapshot`].
        pub durability: DurabilityStatsSnapshot,
        /// What crash recovery rebuilt at bind time (all zero unless the server
        /// was started with [`crate::NetServer::bind_durable`]); see
        /// [`mbdr_locserver::RecoveryReport`], satellite of the degraded-mode
        /// observability surface: `truncated_bytes` and the replay counters are
        /// reachable from one stats call instead of a held journal handle.
        pub recovery: RecoveryReport,
    }
}

impl ServerStats {
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        Self::add(counter, 1);
    }
}
