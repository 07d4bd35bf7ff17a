//! Integration tests for the stats layer: atomicity of concurrent updates.

use dm_obs::StatsRegistry;
use proptest::prelude::*;
use std::sync::Arc;

proptest! {
    /// Concurrent increments never lose updates: the final counter value is
    /// exactly the sum of what every thread added, regardless of how the
    /// work is sliced across threads.
    #[test]
    fn concurrent_counter_increments_sum_exactly(
        threads in 1usize..8,
        per_thread in 1u64..200,
        step in 1u64..5,
    ) {
        let reg = Arc::new(StatsRegistry::new());
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let c = reg.counter("t.concurrent");
                std::thread::spawn(move || {
                    for _ in 0..per_thread {
                        c.add(step);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        prop_assert_eq!(
            reg.report().counter("t.concurrent"),
            Some(threads as u64 * per_thread * step)
        );
    }

    /// Gauge peak under concurrency is the true maximum of all set values.
    #[test]
    fn concurrent_gauge_peak_is_global_max(values in proptest::collection::vec(0u64..10_000, 1..40)) {
        let reg = Arc::new(StatsRegistry::new());
        let handles: Vec<_> = values
            .iter()
            .map(|&v| {
                let g = reg.gauge("t.peak");
                std::thread::spawn(move || g.set(v))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let (_, peak) = reg.report().gauge("t.peak").unwrap();
        prop_assert_eq!(peak, values.iter().copied().max().unwrap());
    }
}
