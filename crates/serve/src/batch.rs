//! Micro-batching: concurrent scorings of one model become one stacked
//! product.
//!
//! Scoring a single vector against a model matrix (`W %*% x`) is a gemv —
//! memory-bound and tiny. When several requests score against the same
//! model at once, stacking their vectors into the columns of one `n x k`
//! matrix turns k gemv calls into a single gemm that reads `W` once. The
//! server decides this before admission, trading a bounded latency
//! deadline for that throughput: the first request of a group is its
//! **leader** and waits up to the deadline (or until the group is full) for
//! **followers**. It then plans the program again at the stacked size, is
//! admitted at that plan's certified peak, executes it once and hands each
//! member its column. A follower is never admitted; it waits for its
//! column.
//!
//! Correctness guarantees, stated precisely:
//!
//! * **Isolation**: a request joins a group only when *everything except the
//!   batched vector* is identical. Its [`GroupKey`] — plan key, vector
//!   length, and the shape and decode-time non-zero count of each shared
//!   input — must equal
//!   the group's, and then its shared inputs must equal the group's bit for
//!   bit. The group holds the leader's shared inputs as the leader's own
//!   [`Env`], the one its execution binds, and a joiner compares its
//!   environment against it ([`Env::same_bits`]): nothing is copied or
//!   hashed to join. A joiner that matches no open group, or only full
//!   ones, leads a new group, so requests against different models batch
//!   side by side.
//! * **Column independence**: participant `j` receives exactly column `j`
//!   of the stacked product — no cross-column mixing, and the split is a
//!   pure copy (bit-exact). Each element of that column runs the chain the
//!   solo product against the participant's vector runs (gemv is gemm's
//!   one-column case, spmv is spmm_dense's), so a batched result is
//!   bit-identical to the solo result of the same request.
//!
//! The batcher coalesces columns and distributes result columns; the
//! server owns eligibility, planning and execution.

use dm_lang::cache::PlanKey;
use dm_lang::exec::Env;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// One participant's answer: its column of the product, or the group's
/// error.
pub type ColResult = Result<Vec<f64>, String>;

/// What a request must share with a group before its inputs are compared:
/// the plan key, the batched vector's length, and the rows, columns and
/// decode-time non-zero count of each shared input, in name order.
pub type GroupKey = (PlanKey, usize, Vec<[usize; 3]>);

struct Group {
    id: u64,
    key: GroupKey,
    env: Env,
    columns: Vec<Vec<f64>>,
    senders: Vec<Sender<ColResult>>,
}

#[derive(Default)]
struct State {
    next_id: u64,
    open: Vec<Group>,
}

/// How a request entered a batch group. See the [module docs](self) for
/// the leader/follower protocol.
pub enum Joined {
    /// First in: caller must [`collect`](Batcher::collect) the group,
    /// execute it, and [`BatchJob::complete`] it. The receiver yields the
    /// caller's own column afterwards.
    Leader(LeaderToken, Receiver<ColResult>),
    /// Joined an open group: block on the receiver for the result column.
    Follower(Receiver<ColResult>),
}

/// Capability to collect a group this caller leads.
pub struct LeaderToken {
    id: u64,
    deadline_at: Instant,
}

/// A closed group ready to execute: the leader's shared inputs, the
/// stacked columns, and the result channels of every participant (leader
/// included).
pub struct BatchJob {
    /// The leader's environment: every input but the batched one.
    pub env: Env,
    /// The participants' vectors, in join order (index 0 is the leader).
    pub columns: Vec<Vec<f64>>,
    senders: Vec<Sender<ColResult>>,
}

impl BatchJob {
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
    /// `max` requests. `max <= 1` disables coalescing: the server then
    /// never joins.
    pub fn new(deadline: Duration, max: usize) -> Self {
        Batcher { deadline, max, state: Mutex::new(State::default()), arrived: Condvar::new() }
    }

    /// Whether coalescing is enabled at all.
    pub fn enabled(&self) -> bool {
        self.max > 1
    }

    /// Join the first open group, not yet full, whose key is `key` and
    /// whose shared inputs equal `env` bit for bit, or lead a new one with
    /// `env` as its shared inputs. `column` is this request's batched
    /// vector. A follower's `env` is dropped once it compared equal.
    pub fn join(&self, key: GroupKey, env: Env, column: Vec<f64>) -> Joined {
        let (tx, rx) = channel();
        let mut st = self.state.lock().expect("batcher poisoned");
        let max = self.max;
        let open = st
            .open
            .iter_mut()
            .find(|g| g.columns.len() < max && g.key == key && g.env.same_bits(&env));
        if let Some(g) = open {
            g.columns.push(column);
            g.senders.push(tx);
            self.arrived.notify_all();
            // `env` equals the group's: free it after the lock, not under it.
            drop(st);
            return Joined::Follower(rx);
        }
        st.next_id += 1;
        let id = st.next_id;
        st.open.push(Group { id, key, env, columns: vec![column], senders: vec![tx] });
        Joined::Leader(LeaderToken { id, deadline_at: Instant::now() + self.deadline }, rx)
    }

    /// Close the led group: block until the deadline passes or the group
    /// fills, then remove it and return the job to execute.
    pub fn collect(&self, token: LeaderToken) -> BatchJob {
        let mut st = self.state.lock().expect("batcher poisoned");
        loop {
            let at =
                st.open.iter().position(|g| g.id == token.id).expect("leader's group vanished");
            let now = Instant::now();
            if st.open[at].columns.len() >= self.max || now >= token.deadline_at {
                let g = st.open.swap_remove(at);
                return BatchJob { env: g.env, columns: g.columns, senders: g.senders };
            }
            st =
                self.arrived.wait_timeout(st, token.deadline_at - now).expect("batcher poisoned").0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dm_matrix::{Dense, Matrix};
    use std::sync::Arc;

    fn key() -> GroupKey {
        (PlanKey::new(7, Vec::new()), 1, vec![[1, 1, 1]])
    }

    /// A shared input `W` holding the one value `w`.
    fn env(w: f64) -> Env {
        let mut env = Env::new();
        env.bind("W", Matrix::Dense(Dense::from_vec(1, 1, vec![w]).unwrap()));
        env
    }

    fn exec_double(job: BatchJob) {
        let out = job.columns.iter().map(|c| c.iter().map(|v| v * 2.0).collect()).collect();
        job.complete(Ok(out));
    }

    #[test]
    fn max_of_one_disables_coalescing() {
        assert!(!Batcher::new(Duration::from_millis(50), 1).enabled());
        assert!(Batcher::new(Duration::from_millis(50), 2).enabled());
    }

    #[test]
    fn leader_collects_followers_and_distributes_columns() {
        let b = Arc::new(Batcher::new(Duration::from_secs(5), 4));
        let Joined::Leader(tok, leader_rx) = b.join(key(), env(1.5), vec![1.0]) else {
            panic!("first join must lead")
        };
        let mut followers = Vec::new();
        for i in 0..3u32 {
            let b = Arc::clone(&b);
            followers.push(std::thread::spawn(move || {
                match b.join(key(), env(1.5), vec![f64::from(i) + 2.0]) {
                    Joined::Follower(rx) => rx.recv().unwrap().unwrap(),
                    _ => panic!("must follow"),
                }
            }));
        }
        let job = b.collect(tok); // fills to max=4, returns before deadline
        assert_eq!(job.columns.len(), 4);
        assert!(job.env.same_bits(&env(1.5)), "the job carries the leader's inputs");
        exec_double(job);
        assert_eq!(leader_rx.recv().unwrap().unwrap(), vec![2.0]);
        let mut got: Vec<Vec<f64>> = followers.into_iter().map(|f| f.join().unwrap()).collect();
        got.sort_by(|a, b| a[0].partial_cmp(&b[0]).unwrap());
        assert_eq!(got, vec![vec![4.0], vec![6.0], vec![8.0]]);
    }

    #[test]
    fn deadline_flushes_a_lonely_leader() {
        let b = Batcher::new(Duration::from_millis(20), 8);
        let Joined::Leader(tok, rx) = b.join(key(), env(0.0), vec![3.0]) else { panic!() };
        let start = Instant::now();
        let job = b.collect(tok);
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(job.columns.len(), 1);
        exec_double(job);
        assert_eq!(rx.recv().unwrap().unwrap(), vec![6.0]);
    }

    /// Shared inputs one bit apart — a signed zero, or two `NaN`s with
    /// different payloads — never share a group, nor do equal inputs under
    /// another key: each such joiner leads a group of its own, and the
    /// groups run side by side.
    #[test]
    fn inputs_one_bit_apart_never_share_a_group() {
        let b = Batcher::new(Duration::from_millis(1), 8);
        let (nan_a, nan_b) =
            (f64::from_bits(0x7ff8_0000_0000_0001), f64::from_bits(0x7ff8_0000_0000_0002));
        let other_key = (PlanKey::new(8, Vec::new()), 1, vec![[1, 1, 1]]);
        let mut tokens = Vec::new();
        for (key, w) in
            [(key(), 0.0), (key(), -0.0), (key(), nan_a), (key(), nan_b), (other_key, 0.0)]
        {
            match b.join(key, env(w), vec![w]) {
                Joined::Leader(tok, _) => tokens.push(tok),
                Joined::Follower(_) => panic!("{w:?} joined a group it differs from"),
            }
        }
        // Bit-equal inputs under the same key do join.
        let Joined::Follower(_) = b.join(key(), env(nan_b), vec![9.0]) else {
            panic!("equal inputs must follow")
        };
        let sizes: Vec<usize> =
            tokens.into_iter().map(|tok| b.collect(tok).columns.len()).collect();
        assert_eq!(sizes, [1, 1, 1, 2, 1]);
    }

    #[test]
    fn errors_propagate_to_every_participant() {
        let b = Arc::new(Batcher::new(Duration::from_secs(5), 2));
        let Joined::Leader(tok, rx) = b.join(key(), env(1.0), vec![1.0]) else { panic!() };
        let b2 = Arc::clone(&b);
        let f = std::thread::spawn(move || match b2.join(key(), env(1.0), vec![2.0]) {
            Joined::Follower(rx) => rx.recv().unwrap(),
            _ => panic!(),
        });
        let job = b.collect(tok);
        job.complete(Err("boom".to_owned()));
        assert_eq!(rx.recv().unwrap().unwrap_err(), "boom");
        assert_eq!(f.join().unwrap().unwrap_err(), "boom");
    }

    #[test]
    fn a_late_joiner_of_a_full_group_leads_the_next() {
        let b = Batcher::new(Duration::from_millis(10), 2);
        let Joined::Leader(first, _rx) = b.join(key(), env(1.0), vec![1.0]) else { panic!() };
        let Joined::Follower(rx) = b.join(key(), env(1.0), vec![2.0]) else { panic!() };
        // The first group is full: a third equal request leads a new one.
        let Joined::Leader(second, _) = b.join(key(), env(1.0), vec![3.0]) else {
            panic!("a full group must not accept more")
        };
        b.collect(first).complete(Ok(vec![vec![10.0], vec![20.0]]));
        assert_eq!(rx.recv().unwrap().unwrap(), vec![20.0]);
        let job = b.collect(second);
        assert_eq!(job.columns, vec![vec![3.0]]);
    }
}
