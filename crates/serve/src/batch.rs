//! Micro-batching: coalesce concurrent scoring requests into one gemm.
//!
//! Scoring a single vector against a model matrix (`W %*% x`) is a gemv —
//! memory-bound and tiny. When many tenants score against the *same
//! cached plan* at once, stacking their vectors into the columns of one
//! `n x k` matrix turns k gemv calls into a single gemm that reuses `W`
//! across columns. The server trades a bounded latency deadline for that
//! throughput: the first eligible request becomes the **leader** of a
//! group and waits up to the deadline (or until the group is full) for
//! **followers**, then executes once and hands each participant its
//! column.
//!
//! Correctness guarantees, stated precisely:
//!
//! * **Isolation**: a group is only joinable when *everything except the
//!   batched vector* is identical. The group key is a hash of (plan key,
//!   shared-input bytes), and joining additionally verifies the full
//!   `guard` bytes against the leader's — a hash collision downgrades the
//!   request to solo execution instead of silently mixing models.
//! * **Column independence**: participant `j` receives exactly column `j`
//!   of the stacked product — no cross-column mixing, and the split is a
//!   pure copy (bit-exact). Each element of that column runs the chain the
//!   solo product against the participant's vector runs (gemv is gemm's
//!   one-column case, spmv is spmm_dense's), so a batched result is
//!   bit-identical to the solo result of the same request.
//!
//! The batcher itself is engine-agnostic: it coalesces `Vec<f64>` columns
//! and distributes `Vec<f64>` results; the server owns eligibility
//! analysis and the actual execution.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

type ColResult = Result<Vec<f64>, String>;

struct Group {
    guard: Vec<u8>,
    columns: Vec<Vec<f64>>,
    senders: Vec<Sender<ColResult>>,
}

#[derive(Default)]
struct State {
    groups: HashMap<u64, Group>,
}

/// How a request entered (or did not enter) a batch group. See the
/// [module docs](self) for the leader/follower protocol.
pub enum Joined {
    /// First in: caller must [`collect`](Batcher::collect) the group,
    /// execute it, and [`BatchJob::complete`] it. The receiver yields the
    /// caller's own column afterwards.
    Leader(LeaderToken, Receiver<ColResult>),
    /// Joined an open group: block on the receiver for the result column.
    Follower(Receiver<ColResult>),
    /// Could not join (group full, or guard-byte mismatch on a hash
    /// collision): caller executes individually.
    Solo(Vec<f64>),
}

/// Capability to collect a group this caller leads.
pub struct LeaderToken {
    key: u64,
    deadline_at: Instant,
}

/// A closed group ready to execute: the stacked columns plus the result
/// channels of every participant (leader included).
pub struct BatchJob {
    /// The participants' vectors, in join order (index 0 is the leader).
    pub columns: Vec<Vec<f64>>,
    senders: Vec<Sender<ColResult>>,
}

impl BatchJob {
    /// Number of coalesced requests.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True when the group held only the leader (no coalescing happened).
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Distribute the batched execution's outcome: `Ok(result_columns)`
    /// sends participant `j` its column `j`; `Err` propagates the error to
    /// every participant.
    ///
    /// # Panics
    /// Panics if `Ok` carries a different number of columns than the group
    /// has participants — that is a server bug, not a client error.
    pub fn complete(self, outcome: Result<Vec<Vec<f64>>, String>) {
        match outcome {
            Ok(cols) => {
                assert_eq!(cols.len(), self.senders.len(), "result/participant mismatch");
                for (tx, col) in self.senders.into_iter().zip(cols) {
                    let _ = tx.send(Ok(col)); // receiver gone = client hung up; fine
                }
            }
            Err(e) => {
                for tx in self.senders {
                    let _ = tx.send(Err(e.clone()));
                }
            }
        }
    }
}

/// The group-commit coordinator: one per server.
pub struct Batcher {
    deadline: Duration,
    max: usize,
    state: Mutex<State>,
    arrived: Condvar,
}

impl Batcher {
    /// A batcher holding leaders for `deadline` and capping groups at
    /// `max` requests. `max <= 1` disables coalescing ([`join`](Self::join)
    /// always returns [`Joined::Solo`]).
    pub fn new(deadline: Duration, max: usize) -> Self {
        Batcher { deadline, max, state: Mutex::new(State::default()), arrived: Condvar::new() }
    }

    /// Whether coalescing is enabled at all.
    pub fn enabled(&self) -> bool {
        self.max > 1
    }

    /// The configured group deadline.
    pub fn deadline(&self) -> Duration {
        self.deadline
    }

    /// Enter the group identified by `key`. `guard` must encode everything
    /// that has to be identical across the group (plan key + shared input
    /// bytes); `column` is this request's batched vector.
    pub fn join(&self, key: u64, guard: &[u8], column: Vec<f64>) -> Joined {
        if !self.enabled() {
            return Joined::Solo(column);
        }
        let mut st = self.state.lock().expect("batcher poisoned");
        match st.groups.get_mut(&key) {
            None => {
                let (tx, rx) = channel();
                st.groups.insert(
                    key,
                    Group { guard: guard.to_vec(), columns: vec![column], senders: vec![tx] },
                );
                Joined::Leader(LeaderToken { key, deadline_at: Instant::now() + self.deadline }, rx)
            }
            Some(g) => {
                if g.guard != guard || g.columns.len() >= self.max {
                    return Joined::Solo(column);
                }
                let (tx, rx) = channel();
                g.columns.push(column);
                g.senders.push(tx);
                self.arrived.notify_all();
                Joined::Follower(rx)
            }
        }
    }

    /// Close the led group: block until the deadline passes or the group
    /// fills, then remove it and return the job to execute.
    pub fn collect(&self, token: LeaderToken) -> BatchJob {
        let mut st = self.state.lock().expect("batcher poisoned");
        loop {
            let full =
                st.groups.get(&token.key).map(|g| g.columns.len() >= self.max).unwrap_or(true);
            let now = Instant::now();
            if full || now >= token.deadline_at {
                break;
            }
            let (guard, _) =
                self.arrived.wait_timeout(st, token.deadline_at - now).expect("batcher poisoned");
            st = guard;
        }
        let g = st.groups.remove(&token.key).expect("leader's group vanished");
        BatchJob { columns: g.columns, senders: g.senders }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn exec_double(job: BatchJob) {
        let out = job.columns.iter().map(|c| c.iter().map(|v| v * 2.0).collect()).collect();
        job.complete(Ok(out));
    }

    #[test]
    fn solo_when_disabled() {
        let b = Batcher::new(Duration::from_millis(50), 1);
        assert!(!b.enabled());
        match b.join(1, b"g", vec![1.0]) {
            Joined::Solo(col) => assert_eq!(col, vec![1.0]),
            _ => panic!("disabled batcher must return Solo"),
        }
    }

    #[test]
    fn leader_collects_followers_and_distributes_columns() {
        let b = Arc::new(Batcher::new(Duration::from_secs(5), 4));
        let Joined::Leader(tok, leader_rx) = b.join(7, b"g", vec![1.0]) else {
            panic!("first join must lead")
        };
        let mut followers = Vec::new();
        for i in 0..3u32 {
            let b = Arc::clone(&b);
            followers.push(std::thread::spawn(move || {
                match b.join(7, b"g", vec![f64::from(i) + 2.0]) {
                    Joined::Follower(rx) => rx.recv().unwrap().unwrap(),
                    _ => panic!("must follow"),
                }
            }));
        }
        let job = b.collect(tok); // fills to max=4, returns before deadline
        assert_eq!(job.len(), 4);
        exec_double(job);
        assert_eq!(leader_rx.recv().unwrap().unwrap(), vec![2.0]);
        let mut got: Vec<Vec<f64>> = followers.into_iter().map(|f| f.join().unwrap()).collect();
        got.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
        assert_eq!(got, vec![vec![4.0], vec![6.0], vec![8.0]]);
    }

    #[test]
    fn deadline_flushes_a_lonely_leader() {
        let b = Batcher::new(Duration::from_millis(20), 8);
        let Joined::Leader(tok, rx) = b.join(1, b"g", vec![3.0]) else { panic!() };
        let start = Instant::now();
        let job = b.collect(tok);
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(job.len(), 1);
        exec_double(job);
        assert_eq!(rx.recv().unwrap().unwrap(), vec![6.0]);
    }

    #[test]
    fn guard_mismatch_downgrades_to_solo() {
        let b = Batcher::new(Duration::from_secs(5), 4);
        let Joined::Leader(tok, _rx) = b.join(7, b"model-a", vec![1.0]) else { panic!() };
        // Same key (hash collision), different guard bytes: must NOT join.
        match b.join(7, b"model-b", vec![9.0]) {
            Joined::Solo(col) => assert_eq!(col, vec![9.0]),
            _ => panic!("guard mismatch must downgrade to solo"),
        }
        b.collect(tok).complete(Ok(vec![vec![0.0]]));
    }

    #[test]
    fn errors_propagate_to_every_participant() {
        let b = Arc::new(Batcher::new(Duration::from_secs(5), 2));
        let Joined::Leader(tok, rx) = b.join(1, b"g", vec![1.0]) else { panic!() };
        let b2 = Arc::clone(&b);
        let f = std::thread::spawn(move || match b2.join(1, b"g", vec![2.0]) {
            Joined::Follower(rx) => rx.recv().unwrap(),
            _ => panic!(),
        });
        let job = b.collect(tok);
        job.complete(Err("boom".to_owned()));
        assert_eq!(rx.recv().unwrap().unwrap_err(), "boom");
        assert_eq!(f.join().unwrap().unwrap_err(), "boom");
    }

    #[test]
    fn full_group_turns_late_joiners_solo() {
        let b = Arc::new(Batcher::new(Duration::from_secs(5), 2));
        let Joined::Leader(tok, _rx) = b.join(1, b"g", vec![1.0]) else { panic!() };
        let b2 = Arc::clone(&b);
        let f = std::thread::spawn(move || match b2.join(1, b"g", vec![2.0]) {
            Joined::Follower(rx) => rx.recv().unwrap(),
            _ => panic!(),
        });
        // Wait until the follower is in, then a third join must go solo.
        loop {
            let full = {
                let st = b.state.lock().unwrap();
                st.groups.get(&1).map(|g| g.columns.len() >= 2).unwrap_or(false)
            };
            if full {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        match b.join(1, b"g", vec![3.0]) {
            Joined::Solo(_) => {}
            _ => panic!("full group must not accept more"),
        }
        b.collect(tok).complete(Ok(vec![vec![10.0], vec![20.0]]));
        assert_eq!(f.join().unwrap().unwrap(), vec![20.0]);
    }
}
