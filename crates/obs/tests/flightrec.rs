//! Concurrency property test for the flight recorder: many writer threads
//! deposit records while a reader snapshots continuously. The recent ring
//! must never exceed its capacity, snapshots must never tear (every record
//! a reader observes is exactly what some writer deposited), and the JSON
//! views must parse at every instant.

use dm_obs::flightrec::{FlightRecorder, Phase, RequestRecord, SLOW_RING_CAP};
use dm_obs::json;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

/// Build a record whose every field is a fixed function of its id — the
/// writer-side invariant a torn snapshot would violate.
fn make_record(fr: &FlightRecorder) -> RequestRecord {
    let id = fr.next_id();
    let mut rec = RequestRecord::new(id, &format!("tenant-{}", id % 5));
    for p in Phase::ALL {
        rec.phase_ns[p.index()] = (id + 1) * (p.index() as u64 + 1);
    }
    rec.total_ns = rec.phase_sum_ns();
    rec.plan_key = format!("plan-{id}");
    rec
}

/// Check the [`make_record`] invariant on a record observed by a reader.
fn assert_untorn(rec: &RequestRecord) {
    for p in Phase::ALL {
        assert_eq!(
            rec.phase_ns[p.index()],
            (rec.id + 1) * (p.index() as u64 + 1),
            "torn phase slot {} on record {}",
            p.name(),
            rec.id
        );
    }
    assert_eq!(rec.total_ns, rec.phase_sum_ns(), "torn total on record {}", rec.id);
    assert_eq!(rec.plan_key, format!("plan-{}", rec.id), "torn plan key on record {}", rec.id);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// N writers race `per_writer` records each against a continuously
    /// snapshotting reader. A zero slow threshold marks every record slow,
    /// so the slow ring's eviction path races too.
    #[test]
    fn concurrent_writers_never_tear_or_overflow(
        writers in 2usize..6,
        per_writer in 10usize..60,
        capacity in 8usize..64,
    ) {
        let fr = FlightRecorder::new(capacity, Some(Duration::ZERO));
        let done = AtomicBool::new(false);
        // The writers start once the reader has its first snapshot in, so a
        // reader scheduled late still races them instead of missing them.
        let start = Barrier::new(writers + 1);
        std::thread::scope(|s| {
            let reader = s.spawn(|| {
                let mut rounds = 0u32;
                while !done.load(Ordering::Acquire) {
                    let snap = fr.recent(usize::MAX);
                    assert!(
                        snap.len() <= fr.capacity(),
                        "recent ring exceeded capacity: {} > {}",
                        snap.len(),
                        fr.capacity()
                    );
                    for pair in snap.windows(2) {
                        assert!(pair[0].id > pair[1].id, "recent() not newest-first");
                    }
                    for rec in &snap {
                        assert_untorn(rec);
                    }
                    let slow = fr.slow_records();
                    assert!(slow.len() <= SLOW_RING_CAP, "slow ring exceeded its cap");
                    for pair in slow.windows(2) {
                        assert!(pair[0].total_ns >= pair[1].total_ns, "slow() not worst-first");
                    }
                    for rec in &slow {
                        assert_untorn(rec);
                    }
                    json::parse(&fr.requests_json(16)).expect("requests_json parses mid-churn");
                    json::parse(&fr.slow_json()).expect("slow_json parses mid-churn");
                    rounds += 1;
                    if rounds == 1 {
                        start.wait();
                    }
                }
                rounds
            });
            let handles: Vec<_> = (0..writers)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        for _ in 0..per_writer {
                            let rec = make_record(&fr);
                            let stored = fr.record(rec);
                            assert_untorn(&stored);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("writer panicked");
            }
            done.store(true, Ordering::Release);
            let rounds = reader.join().expect("reader panicked");
            assert!(rounds > 0, "reader never got a snapshot in");
        });

        // Quiescent state: everything that survived churn is intact, the
        // ring is bounded, and the newest id is still reachable.
        let total = (writers * per_writer) as u64;
        let snap = fr.recent(usize::MAX);
        prop_assert!(!snap.is_empty());
        prop_assert!(snap.len() <= fr.capacity());
        prop_assert_eq!(snap[0].id, total, "newest record survives");
        let found = fr.get(total).expect("newest record retrievable by id");
        assert_untorn(&found);
    }
}
