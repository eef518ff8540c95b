//! Counter tables: every counter group of the workspace is declared once,
//! as rows of [`counter_table!`](crate::counter_table).

/// Declare a group of `u64` counters from one table of rows.
///
/// A row is a doc comment, the field, an optional recorder, and the name
/// the registry exports it under (a counter, or `as gauge`; a row without
/// a name is not exported). A group whose atomics live in one holder
/// declares it after the snapshot, with its hand-written fields, and lists
/// in `read { … }` the rows its `snapshot` is handed instead of counting:
///
/// ```text
/// counter_table! {
///     /// Doc of the snapshot.
///     pub struct CacheSnapshot;
///     /// Doc of the holder.
///     pub struct CacheStats { /* hand-written fields */ }
///     read {
///         /// Bytes held (read from the cache's shards).
///         usage => "cache_usage_bytes" as gauge,
///     }
///     /// Lookups served.
///     hits / record_hit => "cache_hits_total",
/// }
/// ```
///
/// The holder gets one `AtomicU64` per row, in row order, ahead of its own
/// fields; a getter per row; a `pub(crate)` recorder (`fetch_add`,
/// `Relaxed`) where the row names one; and `snapshot(read rows…)`. The
/// `Copy` snapshot struct gets one `pub` field per row, `accumulate`, a
/// saturating `delta`, `registry_counters()` and `export` (both in row
/// order), and the test-only `numbered()`, whose n-th row holds `n`.
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$smeta:meta])* $svis:vis struct $snap:ident;
        $(#[$hmeta:meta])* $hvis:vis struct $holder:ident { $($extra:tt)* }
        $(read {
            $($(#[$rdoc:meta])+ $read:ident $(=> $rname:literal $(as $rkind:ident)?)?),* $(,)?
        })?
        $($(#[$doc:meta])+ $field:ident $(/ $record:ident)? $(=> $name:literal)?),* $(,)?
    ) => {
        $crate::counter_table! {
            $(#[$smeta])* $svis struct $snap;
            $($($(#[$rdoc])+ $read $(=> $rname $(as $rkind)?)?,)*)?
            $($(#[$doc])+ $field $(=> $name)?,)*
        }

        $(#[$hmeta])*
        #[derive(Debug, Default)]
        $hvis struct $holder {
            $($field: ::std::sync::atomic::AtomicU64,)*
            $($extra)*
        }

        impl $holder {
            $(
                $(
                    /// Add `n` to the counter.
                    pub(crate) fn $record(&self, n: u64) {
                        self.$field.fetch_add(n, ::std::sync::atomic::Ordering::Relaxed);
                    }
                )?

                $(#[$doc])+
                pub fn $field(&self) -> u64 {
                    self.$field.load(::std::sync::atomic::Ordering::Relaxed)
                }
            )*

            /// Copy every counter, with the values of the rows read elsewhere.
            pub fn snapshot(&self, $($($read: u64),*)?) -> $snap {
                $snap { $($($read,)*)? $($field: self.$field(),)* }
            }
        }
    };
    (@export $reg:ident, $name:literal, $value:expr) => {
        $reg.counter($name, &[], $value)
    };
    (@export $reg:ident, $name:literal, $value:expr, gauge) => {
        $reg.gauge($name, &[], $value as f64)
    };
    (
        $(#[$smeta:meta])* $svis:vis struct $snap:ident;
        $($(#[$doc:meta])+ $field:ident $(=> $name:literal $(as $kind:ident)?)?),* $(,)?
    ) => {
        $(#[$smeta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $svis struct $snap {
            $($(#[$doc])+ pub $field: u64,)*
        }

        impl $snap {
            /// Add every counter of `other` into `self`.
            pub fn accumulate(&mut self, other: &$snap) {
                $(self.$field += other.$field;)*
            }

            /// Counter-wise difference `self - earlier` (saturating).
            pub fn delta(&self, earlier: &$snap) -> $snap {
                $snap { $($field: self.$field.saturating_sub(earlier.$field),)* }
            }

            /// Every exported row as `(registry name, value)`, in table order.
            pub fn registry_counters(&self) -> Vec<(&'static str, u64)> {
                vec![$($(($name, self.$field),)?)*]
            }

            /// Append every exported row to `reg`, in table order: a counter,
            /// or a gauge where its row says so.
            #[allow(unused_variables)]
            pub fn export(&self, reg: &mut $crate::metrics::MetricsRegistry) {
                $($($crate::counter_table!(@export reg, $name, self.$field $(, $kind)?);)?)*
            }

            /// A snapshot whose n-th declared counter holds `n` (from 1).
            #[cfg(test)]
            pub fn numbered() -> $snap {
                let mut n = 0;
                $snap { $($field: { n += 1; n },)* }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::metrics::MetricsRegistry;

    crate::counter_table! {
        /// What the reader did, at an instant.
        pub struct ReaderSnapshot;
        /// What the reader did.
        pub struct ReaderStats {
            /// A hand-written field beside the atomics.
            name: String,
        }
        read {
            /// Bytes buffered (read from the buffer, not counted).
            buffered => "reader_buffered_bytes" as gauge,
        }
        /// Reads issued.
        reads / record_read => "reader_reads_total",
        /// Bytes those reads returned (not exported).
        bytes,
    }

    crate::counter_table! {
        /// A group read from elsewhere.
        pub struct ReadOnly;
        /// Hits.
        hits => "read_only_hits_total",
    }

    #[test]
    fn a_table_generates_its_holder_snapshot_and_export() {
        let stats = ReaderStats::default();
        assert!(stats.name.is_empty());
        stats.record_read(2);
        stats
            .bytes
            .fetch_add(10, std::sync::atomic::Ordering::Relaxed);
        assert_eq!((stats.reads(), stats.bytes()), (2, 10));
        let snap = stats.snapshot(4096);
        assert_eq!((snap.buffered, snap.reads, snap.bytes), (4096, 2, 10));
        assert_eq!(
            snap.registry_counters(),
            [("reader_buffered_bytes", 4096), ("reader_reads_total", 2)]
        );
        let mut reg = MetricsRegistry::new();
        snap.export(&mut reg);
        let only = ReadOnly::numbered();
        let mut two = only;
        two.accumulate(&only);
        assert_eq!(two.delta(&only), only);
        assert_eq!(two.registry_counters(), [("read_only_hits_total", 2)]);
        two.export(&mut reg);
        assert_eq!(
            reg.to_prometheus_text(),
            "# TYPE reader_buffered_bytes gauge\nreader_buffered_bytes 4096\n\
             # TYPE reader_reads_total counter\nreader_reads_total 2\n\
             # TYPE read_only_hits_total counter\nread_only_hits_total 2\n"
        );

        let mut sum = ReaderSnapshot::numbered();
        assert_eq!((sum.buffered, sum.reads, sum.bytes), (1, 2, 3));
        sum.accumulate(&ReaderSnapshot::numbered());
        assert_eq!((sum.buffered, sum.reads, sum.bytes), (2, 4, 6));
        assert_eq!(
            ReaderSnapshot::numbered().delta(&sum),
            ReaderSnapshot::default(),
            "saturates"
        );
        assert_eq!(
            sum.delta(&ReaderSnapshot::numbered()),
            ReaderSnapshot::numbered()
        );
    }
}
