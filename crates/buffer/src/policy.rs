//! Eviction policies over page keys.
//!
//! The pool reports page lifecycle events (`admit`, `touch`, `remove`) and
//! asks the policy for a `victim` among evictable pages. Policies are
//! deliberately unaware of pinning — the pool passes an `evictable` predicate.

use crate::pool::PageKey;
use std::collections::VecDeque;
use std::fmt;

/// Which eviction policy a pool uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Least recently used.
    Lru,
    /// First in, first out (insertion order, access-agnostic).
    Fifo,
    /// Clock (second chance): cheap LRU approximation.
    Clock,
    /// Least frequently used, with admission-order tie breaking.
    Lfu,
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Fifo => "fifo",
            PolicyKind::Clock => "clock",
            PolicyKind::Lfu => "lfu",
        })
    }
}

/// Common interface for eviction policies.
pub trait Policy: Send {
    /// A page entered the pool.
    fn admit(&mut self, key: PageKey);
    /// A page was accessed.
    fn touch(&mut self, key: PageKey);
    /// A page left the pool (evicted or explicitly dropped).
    fn remove(&mut self, key: PageKey);
    /// Choose a victim among pages for which `evictable` returns true.
    fn victim(&mut self, evictable: &dyn Fn(PageKey) -> bool) -> Option<PageKey>;
    /// Every page the policy currently tracks, in no particular order. Used
    /// by [`crate::audit`] to cross-check policy state against the frame
    /// table: the two must always hold exactly the same key set.
    fn keys(&self) -> Vec<PageKey>;
}

/// Build a policy by kind.
pub fn make_policy(kind: PolicyKind) -> Box<dyn Policy> {
    match kind {
        PolicyKind::Lru => Box::new(LruPolicy::default()),
        PolicyKind::Fifo => Box::new(FifoPolicy::default()),
        PolicyKind::Clock => Box::new(ClockPolicy::default()),
        PolicyKind::Lfu => Box::new(LfuPolicy::default()),
    }
}

/// LFU: evict the page with the fewest accesses since admission; ties break
/// toward the earliest-admitted page. Frequency counters die with the page
/// (no ghost history), which is the classic in-memory variant.
#[derive(Debug, Default)]
pub struct LfuPolicy {
    /// `(key, frequency, admission_sequence)` per resident page.
    entries: Vec<(PageKey, u64, u64)>,
    next_seq: u64,
}

impl Policy for LfuPolicy {
    fn admit(&mut self, key: PageKey) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push((key, 0, seq));
    }

    fn touch(&mut self, key: PageKey) {
        if let Some(e) = self.entries.iter_mut().find(|(k, _, _)| *k == key) {
            e.1 += 1;
        }
    }

    fn remove(&mut self, key: PageKey) {
        if let Some(pos) = self.entries.iter().position(|(k, _, _)| *k == key) {
            self.entries.remove(pos);
        }
    }

    fn victim(&mut self, evictable: &dyn Fn(PageKey) -> bool) -> Option<PageKey> {
        self.entries
            .iter()
            .filter(|(k, _, _)| evictable(*k))
            .min_by_key(|(_, freq, seq)| (*freq, *seq))
            .map(|(k, _, _)| *k)
    }

    fn keys(&self) -> Vec<PageKey> {
        self.entries.iter().map(|(k, _, _)| *k).collect()
    }
}

/// Exact LRU via a recency-ordered list (front = coldest).
///
/// `touch`/`remove` are O(n) over resident pages; pool sizes here are small
/// (hundreds of frames), so clarity wins over an intrusive linked list.
#[derive(Debug, Default)]
pub struct LruPolicy {
    order: VecDeque<PageKey>,
}

impl Policy for LruPolicy {
    fn admit(&mut self, key: PageKey) {
        self.order.push_back(key);
    }

    fn touch(&mut self, key: PageKey) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
            self.order.push_back(key);
        }
    }

    fn remove(&mut self, key: PageKey) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        }
    }

    fn victim(&mut self, evictable: &dyn Fn(PageKey) -> bool) -> Option<PageKey> {
        self.order.iter().copied().find(|&k| evictable(k))
    }

    fn keys(&self) -> Vec<PageKey> {
        self.order.iter().copied().collect()
    }
}

/// FIFO: evict in admission order regardless of accesses.
#[derive(Debug, Default)]
pub struct FifoPolicy {
    order: VecDeque<PageKey>,
}

impl Policy for FifoPolicy {
    fn admit(&mut self, key: PageKey) {
        self.order.push_back(key);
    }

    fn touch(&mut self, _key: PageKey) {}

    fn remove(&mut self, key: PageKey) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        }
    }

    fn victim(&mut self, evictable: &dyn Fn(PageKey) -> bool) -> Option<PageKey> {
        self.order.iter().copied().find(|&k| evictable(k))
    }

    fn keys(&self) -> Vec<PageKey> {
        self.order.iter().copied().collect()
    }
}

/// Clock / second chance: a circular sweep clearing reference bits.
#[derive(Debug, Default)]
pub struct ClockPolicy {
    ring: Vec<(PageKey, bool)>,
    hand: usize,
}

impl Policy for ClockPolicy {
    fn admit(&mut self, key: PageKey) {
        self.ring.push((key, true));
    }

    fn touch(&mut self, key: PageKey) {
        if let Some(e) = self.ring.iter_mut().find(|(k, _)| *k == key) {
            e.1 = true;
        }
    }

    fn remove(&mut self, key: PageKey) {
        if let Some(pos) = self.ring.iter().position(|(k, _)| *k == key) {
            self.ring.remove(pos);
            if self.hand > pos {
                self.hand -= 1;
            }
            if !self.ring.is_empty() {
                self.hand %= self.ring.len();
            } else {
                self.hand = 0;
            }
        }
    }

    fn victim(&mut self, evictable: &dyn Fn(PageKey) -> bool) -> Option<PageKey> {
        if self.ring.is_empty() {
            return None;
        }
        // Two full sweeps suffice: the first clears reference bits, the second
        // must find an unreferenced evictable page if one exists.
        for _ in 0..2 * self.ring.len() {
            let idx = self.hand % self.ring.len();
            let (key, referenced) = self.ring[idx];
            if !evictable(key) {
                self.hand = (idx + 1) % self.ring.len();
                continue;
            }
            if referenced {
                self.ring[idx].1 = false;
                self.hand = (idx + 1) % self.ring.len();
            } else {
                self.hand = (idx + 1) % self.ring.len();
                return Some(key);
            }
        }
        // Every evictable page kept its reference bit set across sweeps
        // (possible only when non-evictable pages interleave oddly): fall
        // back to the first evictable page.
        self.ring.iter().map(|&(k, _)| k).find(|&k| evictable(k))
    }

    fn keys(&self) -> Vec<PageKey> {
        self.ring.iter().map(|&(k, _)| k).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u64) -> PageKey {
        PageKey::new(0, i as u32)
    }

    #[test]
    fn lru_evicts_coldest() {
        let mut p = LruPolicy::default();
        p.admit(k(1));
        p.admit(k(2));
        p.admit(k(3));
        p.touch(k(1)); // 1 becomes hottest
        assert_eq!(p.victim(&|_| true), Some(k(2)));
        p.remove(k(2));
        assert_eq!(p.victim(&|_| true), Some(k(3)));
    }

    #[test]
    fn lru_respects_evictable_predicate() {
        let mut p = LruPolicy::default();
        p.admit(k(1));
        p.admit(k(2));
        assert_eq!(p.victim(&|key| key != k(1)), Some(k(2)));
        assert_eq!(p.victim(&|_| false), None);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut p = FifoPolicy::default();
        p.admit(k(1));
        p.admit(k(2));
        p.touch(k(1));
        p.touch(k(1));
        assert_eq!(p.victim(&|_| true), Some(k(1)), "FIFO evicts oldest regardless of access");
    }

    #[test]
    fn clock_gives_second_chance() {
        let mut p = ClockPolicy::default();
        p.admit(k(1));
        p.admit(k(2));
        p.admit(k(3));
        // All referenced: first sweep clears bits, victim is the first page.
        assert_eq!(p.victim(&|_| true), Some(k(1)));
        // Touch 2; next victim should skip it on the first pass.
        p.remove(k(1));
        p.touch(k(2));
        p.touch(k(3));
        let v = p.victim(&|_| true).unwrap();
        assert!(v == k(2) || v == k(3));
    }

    #[test]
    fn clock_remove_keeps_hand_valid() {
        let mut p = ClockPolicy::default();
        for i in 0..5 {
            p.admit(k(i));
        }
        let _ = p.victim(&|_| true);
        p.remove(k(4));
        p.remove(k(0));
        p.remove(k(1));
        p.remove(k(2));
        p.remove(k(3));
        assert_eq!(p.victim(&|_| true), None);
        // Re-admission after emptying works.
        p.admit(k(9));
        assert_eq!(p.victim(&|_| true), Some(k(9)));
    }

    #[test]
    fn clock_skips_unevictable() {
        let mut p = ClockPolicy::default();
        p.admit(k(1));
        p.admit(k(2));
        let v = p.victim(&|key| key == k(2));
        assert_eq!(v, Some(k(2)));
    }

    #[test]
    fn lfu_evicts_least_frequent() {
        let mut p = LfuPolicy::default();
        p.admit(k(1));
        p.admit(k(2));
        p.admit(k(3));
        p.touch(k(1));
        p.touch(k(1));
        p.touch(k(3));
        // Frequencies: 1 -> 2, 2 -> 0, 3 -> 1.
        assert_eq!(p.victim(&|_| true), Some(k(2)));
        p.remove(k(2));
        assert_eq!(p.victim(&|_| true), Some(k(3)));
    }

    #[test]
    fn lfu_ties_break_by_admission_order() {
        let mut p = LfuPolicy::default();
        p.admit(k(5));
        p.admit(k(6));
        assert_eq!(p.victim(&|_| true), Some(k(5)), "earliest-admitted loses ties");
    }

    #[test]
    fn lfu_respects_evictable_predicate() {
        let mut p = LfuPolicy::default();
        p.admit(k(1));
        p.admit(k(2));
        assert_eq!(p.victim(&|key| key != k(1)), Some(k(2)));
        assert_eq!(p.victim(&|_| false), None);
    }

    #[test]
    fn policies_handle_unknown_keys() {
        for kind in [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Clock, PolicyKind::Lfu] {
            let mut p = make_policy(kind);
            p.touch(k(99));
            p.remove(k(99));
            assert_eq!(p.victim(&|_| true), None);
        }
    }
}
