//! Counter blocks, declared once.
//!
//! [`counters!`](crate::counters) turns one list of documented counter names
//! into the live block of relaxed `AtomicU64`s the hot paths bump, its
//! plain-value snapshot, `snapshot()` between the two and a `fields()`
//! name/value list. A reporter that walks `fields()` cannot miss a counter;
//! the other half (every declared counter is bumped) is held by tests that
//! assert each counter's exact value on the path that bumps it. The macro
//! lives in the lowest crate that owns counters; `mbdr-locserver` and
//! `mbdr-net` declare theirs through it. [`JournalStats`] is the journal's
//! own block.

/// Declares a counter block: `struct` is the live atomic block (fields
/// `pub(crate)` in the declaring crate), `snapshot` its plain-value copy.
/// Fields listed under `snapshot` are extra, non-counter members of the copy;
/// `snapshot()` leaves them at their `Default` for the caller to overlay.
#[macro_export]
macro_rules! counters {
    (
        $(#[$live_meta:meta])*
        $live_vis:vis struct $live:ident {
            $( $(#[$doc:meta])* $counter:ident ),* $(,)?
        }
        $(#[$snap_meta:meta])*
        $snap_vis:vis snapshot $snap:ident {
            $( $(#[$extra_doc:meta])* $extra_vis:vis $extra:ident : $extra_ty:ty ),* $(,)?
        }
    ) => {
        $(#[$live_meta])*
        #[derive(Debug, Default)]
        $live_vis struct $live {
            $( $(#[$doc])* pub(crate) $counter: ::std::sync::atomic::AtomicU64, )*
        }

        impl $live {
            /// Copies every counter into its plain-value snapshot (each is
            /// read atomically; the set is not a single snapshot, which only
            /// matters mid-traffic).
            #[allow(
                clippy::needless_update,
                reason = "a snapshot without extra fields leaves `..Default::default()` nothing to fill"
            )]
            pub(crate) fn snapshot(&self) -> $snap {
                $snap {
                    $( $counter: self.$counter.load(::std::sync::atomic::Ordering::Relaxed), )*
                    ..Default::default()
                }
            }
        }

        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        $snap_vis struct $snap {
            $( $(#[$doc])* pub $counter: u64, )*
            $( $(#[$extra_doc])* $extra_vis $extra: $extra_ty, )*
        }

        impl $snap {
            /// Every counter as a `(name, value)` pair, in declaration order.
            pub fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (stringify!($counter), self.$counter) ),*].into_iter()
            }
        }
    };
}

counters! {
    /// Live monotonic counters for one journal instance, updated with relaxed
    /// atomics from the append/recovery paths in `journal.rs`.
    pub(crate) struct JournalStats {
        /// Frame records durably appended to the active segment.
        appends,
        /// Number of `fsync`/`fdatasync` calls issued on segment or snapshot files.
        fsyncs,
        /// Frame records streamed out of retained segments during recovery replay.
        recovered_frames,
        /// Bytes discarded by torn-tail repair at open (truncated partial records
        /// plus any unreachable later segments).
        truncated_bytes,
        /// Snapshots successfully installed (written, fsynced, renamed into place).
        snapshots,
        /// Append or snapshot attempts that failed with an I/O error and were
        /// dropped by the infallible `record_frame` wrapper.
        append_errors,
    }
    /// Point-in-time copy of `JournalStats` (also surfaced through
    /// `mbdr-net`'s `ServerStatsSnapshot`).
    pub snapshot JournalStatsSnapshot {}
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::Ordering;

    counters! {
        struct Live { first, second, third }
        snapshot Copied {
            /// A non-counter member the caller overlays.
            label: Option<&'static str>,
        }
    }

    #[test]
    fn fields_lists_every_declared_counter_once_in_declaration_order() {
        let live = Live::default();
        live.first.store(1, Ordering::Relaxed);
        live.second.store(2, Ordering::Relaxed);
        live.third.fetch_add(3, Ordering::Relaxed);
        let snapshot = live.snapshot();
        assert_eq!((snapshot.first, snapshot.second, snapshot.third), (1, 2, 3));
        assert_eq!(
            snapshot.fields().collect::<Vec<_>>(),
            [("first", 1), ("second", 2), ("third", 3)]
        );
        assert_eq!(snapshot.label, None, "extras default and stay out of fields()");
        assert_eq!(Live::default().snapshot(), Copied::default());
    }
}
