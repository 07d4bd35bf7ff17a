//! Memory budgets driving out-of-core kernel selection.
//!
//! A [`MemoryBudget`] caps the bytes the executor may hold resident for one
//! kernel's working set. When the size propagator estimates that an operand
//! or an intermediate of a blockable operator exceeds the budget, physical
//! selection switches that node to
//! [`Kernel::Blocked`](crate::physical::Kernel::Blocked) and the executor
//! streams its tiles through a `dm_buffer` pool instead of materializing
//! everything at once.
//!
//! The budget comes from one of two places, in precedence order:
//!
//! 1. An explicit API value — [`MemoryBudget::bytes`] passed to
//!    [`CompiledProgram::new`](crate::cache::CompiledProgram::new) as
//!    [`PlanOptions::budget`](crate::physical::PlanOptions::budget) or to
//!    [`Executor::with_memory_budget`](crate::exec::Executor::with_memory_budget).
//! 2. The `DMML_MEM_BUDGET` environment variable (read by
//!    [`MemoryBudget::from_env`] and
//!    [`PlanOptions::from_env`](crate::physical::PlanOptions::from_env)),
//!    accepting a byte count with an optional binary suffix: `67108864`,
//!    `64m`, `1g`, `512k`.
//!
//! With neither set, execution is unbounded and nothing goes out-of-core.
//!
//! ```
//! use dm_lang::memory::MemoryBudget;
//!
//! assert_eq!(MemoryBudget::bytes(1 << 20).get(), Some(1 << 20));
//! assert!(MemoryBudget::unbounded().get().is_none());
//! assert_eq!(MemoryBudget::parse("64m"), Some(64 << 20));
//! assert_eq!(MemoryBudget::parse("512K"), Some(512 << 10));
//! assert_eq!(MemoryBudget::parse("nonsense"), None);
//! ```

use dm_buffer::policy::PolicyKind;
use dm_buffer::storage::{FileStore, MemStore, Storage};
use dm_buffer::{BufferPool, SharedBufferPool};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Environment variable naming the default memory budget, e.g. `64m`.
/// An explicit API budget always takes precedence over the variable.
pub const MEM_BUDGET_ENV: &str = "DMML_MEM_BUDGET";

/// Fraction of the budget (as a divisor) the executor grants its spill pool:
/// the pool gets half, the other half is headroom for the materialized
/// values the liveness certifier (see [`crate::liveness`]) proves must be
/// resident alongside the streaming kernel. Keeping the split here, next to
/// the budget type, ties the executor and the certifier to the same number.
pub fn spill_pool_capacity(budget: usize) -> usize {
    (budget / 2).max(1)
}

/// The spill pool blocked kernels stream through under `budget`: an LRU
/// pool of [`spill_pool_capacity`] bytes over a [`FileStore`] in a fresh
/// temp directory, `dmml_spill_<pid>_<seq>`, or over a [`MemStore`] when
/// that directory cannot be made. The directory goes away with the pool.
///
/// An [`Executor`](crate::exec::Executor) builds one on its first blocked
/// node; the scoring server builds one at start and shares it between its
/// executors ([`Executor::with_spill_pool`](crate::exec::Executor::with_spill_pool)).
/// The pool names every block store built on it, so sharing needs nothing
/// more.
pub fn spill_pool(budget: usize) -> SharedBufferPool<Box<dyn Storage>> {
    static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dmml_spill_{}_{seq}", std::process::id()));
    let storage: Box<dyn Storage> = match FileStore::new(dir) {
        Ok(fs) => Box::new(fs),
        Err(_) => Box::new(MemStore::default()),
    };
    SharedBufferPool::new(BufferPool::new(spill_pool_capacity(budget), PolicyKind::Lru, storage))
}

/// Panel-height divisor the executor passes to
/// [`panel_rows_for`](dm_buffer::panel_rows_for) for blocked kernels: one
/// panel is ~1/16 of the *budget*, i.e. 1/8 of the spill pool's capacity
/// ([`spill_pool_capacity`]), so several panels (two operands, an output,
/// and per-worker pins) coexist in the pool without thrashing.
pub const OOC_PANEL_DENOM: usize = 16;

/// A byte cap on the executor's resident working set per blocked kernel, or
/// unbounded (the default: everything stays in memory).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryBudget {
    bytes: Option<usize>,
}

impl MemoryBudget {
    /// No cap: all kernels run in memory (the default).
    pub fn unbounded() -> Self {
        Self::default()
    }

    /// A cap of `n` bytes.
    pub fn bytes(n: usize) -> Self {
        MemoryBudget { bytes: Some(n) }
    }

    /// Read [`MEM_BUDGET_ENV`]; unset or unparsable values mean unbounded.
    pub fn from_env() -> Self {
        match std::env::var(MEM_BUDGET_ENV).ok().as_deref().and_then(Self::parse) {
            Some(n) => Self::bytes(n),
            None => Self::unbounded(),
        }
    }

    /// Parse a byte count with an optional binary suffix (`k`, `m`, `g`,
    /// case-insensitive): `"1048576"`, `"64m"`, `"512K"`. Returns `None` for
    /// anything else (including overflow).
    pub fn parse(s: &str) -> Option<usize> {
        let t = s.trim();
        let (digits, mult): (&str, usize) = match t.chars().last()? {
            c if c.eq_ignore_ascii_case(&'k') => (&t[..t.len() - 1], 1 << 10),
            c if c.eq_ignore_ascii_case(&'m') => (&t[..t.len() - 1], 1 << 20),
            c if c.eq_ignore_ascii_case(&'g') => (&t[..t.len() - 1], 1 << 30),
            _ => (t, 1),
        };
        digits.trim().parse::<usize>().ok()?.checked_mul(mult)
    }

    /// The cap in bytes, or `None` when unbounded.
    pub fn get(&self) -> Option<usize> {
        self.bytes
    }

    /// True when no cap is set.
    pub fn is_unbounded(&self) -> bool {
        self.bytes.is_none()
    }
}

impl fmt::Display for MemoryBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.bytes {
            Some(n) => write!(f, "{n} B"),
            None => f.write_str("unbounded"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_and_suffixed() {
        assert_eq!(MemoryBudget::parse("0"), Some(0));
        assert_eq!(MemoryBudget::parse("4096"), Some(4096));
        assert_eq!(MemoryBudget::parse(" 16k "), Some(16 << 10));
        assert_eq!(MemoryBudget::parse("3M"), Some(3 << 20));
        assert_eq!(MemoryBudget::parse("2g"), Some(2 << 30));
        assert_eq!(MemoryBudget::parse("2 g"), Some(2 << 30));
    }

    #[test]
    fn rejects_garbage_and_overflow() {
        assert_eq!(MemoryBudget::parse(""), None);
        assert_eq!(MemoryBudget::parse("k"), None);
        assert_eq!(MemoryBudget::parse("lots"), None);
        assert_eq!(MemoryBudget::parse("-5"), None);
        assert_eq!(MemoryBudget::parse("1.5g"), None);
        assert_eq!(MemoryBudget::parse(&format!("{}g", usize::MAX)), None);
    }

    #[test]
    fn display_and_accessors() {
        assert_eq!(MemoryBudget::bytes(64).to_string(), "64 B");
        assert_eq!(MemoryBudget::unbounded().to_string(), "unbounded");
        assert!(MemoryBudget::unbounded().is_unbounded());
        assert!(!MemoryBudget::bytes(1).is_unbounded());
    }
}
