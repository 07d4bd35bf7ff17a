//! Persistent per-kernel throughput profiles: the observe half of the
//! observe→calibrate→re-cost loop.
//!
//! Every profiled execution produces `(op, kernel family, flops, ns)`
//! samples. This module folds them into per-`(op, kernel, size-class)`
//! throughput statistics — GFLOP/s with Welford mean/variance, size classes
//! as log₂ buckets of the flop count so a 2048³ gemm and a 64³ gemm
//! calibrate independently — and persists them to a versioned, checksummed
//! file under `DMML_PROFILE_DIR`. Saves merge with whatever is already on
//! disk, so profiles accumulate across runs and processes; loads validate
//! the version header and checksum and fail loudly (never panic), letting
//! consumers degrade to their static cost model.
//!
//! ```
//! use dm_obs::profile::ProfileStore;
//!
//! let mut store = ProfileStore::new();
//! // 2e9 flops in ~1e9 ns = ~2 GFLOP/s, three samples in one size class.
//! store.record("matmul", "parallel", 2_000_000_000, 1_000_000_000);
//! store.record("matmul", "parallel", 2_000_000_000, 1_100_000_000);
//! store.record("matmul", "parallel", 2_000_000_000, 900_000_000);
//! let g = store.gflops("matmul", "parallel", 2_000_000_000).unwrap();
//! assert!((g - 2.0).abs() < 0.3);
//! ```

use crate::fnv::fnv1a;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Environment variable naming the directory kernel profiles persist to.
pub const PROFILE_DIR_ENV: &str = "DMML_PROFILE_DIR";

/// File name of the profile store inside the profile directory. The `v1`
/// suffix matches [`FORMAT_VERSION`]; a future incompatible format bumps
/// both, so old and new binaries never fight over one file.
pub const PROFILE_FILE: &str = "kernel_profiles.v1.tsv";

/// Version tag written in the file header and required on load.
pub const FORMAT_VERSION: u32 = 1;

/// Minimum samples in a size class before consumers should trust its
/// calibrated throughput over a static estimate.
pub const MIN_SAMPLES: u64 = 3;

/// The directory named by [`PROFILE_DIR_ENV`], if set and non-empty.
pub fn env_profile_dir() -> Option<PathBuf> {
    match std::env::var(PROFILE_DIR_ENV) {
        Ok(d) if !d.trim().is_empty() => Some(PathBuf::from(d)),
        _ => None,
    }
}

/// Log₂ size class of a flop count: samples bucket by order of magnitude, so
/// throughput at cache-resident sizes never averages with throughput at
/// memory-bound sizes. Class 0 covers 0–1 flops, class `k` covers
/// `[2^k, 2^(k+1))`.
pub fn size_class(flops: u64) -> u32 {
    63 - flops.max(1).leading_zeros()
}

/// Welford online mean/variance accumulator, mergeable across runs via the
/// Chan et al. parallel update.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Fold another accumulator in (exact same result as pushing its samples).
    pub fn merge(&mut self, other: &Welford) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let (na, nb) = (self.count as f64, other.count as f64);
        let delta = other.mean - self.mean;
        let n = na + nb;
        self.mean += delta * nb / n;
        self.m2 += other.m2 + delta * delta * na * nb / n;
        self.count += other.count;
    }

    /// Samples folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 below two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Key of one profile entry: operator mnemonic, kernel family, flop size
/// class.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ProfileKey {
    /// Operator mnemonic (`"matmul"`, `"crossprod"`, `"ewise +"`).
    pub op: String,
    /// Kernel family that executed it (`"dense"`, `"parallel"`, `"fused"`,
    /// `"sparse"`, `"blocked"`).
    pub kernel: String,
    /// [`size_class`] of the flop count.
    pub size_class: u32,
}

/// Why a profile file failed to load. Every variant is a recoverable
/// condition: consumers fall back to their static cost model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProfileError {
    /// Filesystem error reading or writing the store.
    Io(String),
    /// The file ends before the checksum-covered body it declares.
    Truncated,
    /// The body hash does not match the header checksum.
    ChecksumMismatch {
        /// Checksum the header declared.
        expected: u64,
        /// Checksum of the actual body.
        found: u64,
    },
    /// The file was written by an incompatible format version.
    VersionSkew {
        /// Version found in the header.
        found: String,
    },
    /// A body line does not parse.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
    },
}

impl fmt::Display for ProfileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileError::Io(e) => write!(f, "profile store I/O error: {e}"),
            ProfileError::Truncated => write!(f, "profile store truncated"),
            ProfileError::ChecksumMismatch { expected, found } => write!(
                f,
                "profile store checksum mismatch (header {expected:#018x}, body {found:#018x})"
            ),
            ProfileError::VersionSkew { found } => {
                write!(f, "profile store version skew (found {found:?}, want v{FORMAT_VERSION})")
            }
            ProfileError::Malformed { line } => {
                write!(f, "profile store malformed at line {line}")
            }
        }
    }
}

impl std::error::Error for ProfileError {}

/// Accumulated throughput profiles per `(op, kernel, size class)`.
///
/// Throughput is stored in GFLOP/s (`flops / ns` — the units cancel to
/// exactly that). [`record`](Self::record) folds a sample, [`merge`](Self::merge)
/// combines stores, [`save`](Self::save) merges with the on-disk state so
/// concurrent histories accumulate instead of overwriting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileStore {
    entries: BTreeMap<ProfileKey, Welford>,
}

impl ProfileStore {
    /// Empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no sample was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of `(op, kernel, size class)` entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Fold in one observed execution: `flops` of work in `ns` wall time.
    /// Zero-flop and zero-time samples are ignored — they carry no
    /// throughput information.
    pub fn record(&mut self, op: &str, kernel: &str, flops: u64, ns: u64) {
        if flops == 0 || ns == 0 {
            return;
        }
        let key = ProfileKey {
            op: op.to_owned(),
            kernel: kernel.to_owned(),
            size_class: size_class(flops),
        };
        self.entries.entry(key).or_default().push(flops as f64 / ns as f64);
    }

    /// Fold every entry of `other` into `self`.
    pub fn merge(&mut self, other: &ProfileStore) {
        for (k, w) in &other.entries {
            self.entries.entry(k.clone()).or_default().merge(w);
        }
    }

    /// Iterate entries in key order.
    pub fn entries(&self) -> impl Iterator<Item = (&ProfileKey, &Welford)> {
        self.entries.iter()
    }

    /// The raw accumulator for an exact `(op, kernel, size class)`.
    pub fn entry(&self, op: &str, kernel: &str, class: u32) -> Option<&Welford> {
        // Borrowed lookup without allocating a key: BTreeMap requires an
        // owned ProfileKey for `get`, so scan is avoided via a range over an
        // ad-hoc key. Profiles are small (dozens of entries); a clone-free
        // exact get is still worth the construction of one key.
        self.entries.get(&ProfileKey {
            op: op.to_owned(),
            kernel: kernel.to_owned(),
            size_class: class,
        })
    }

    /// Calibrated throughput in GFLOP/s for running `op` on `kernel` at
    /// `flops` of work, or `None` when fewer than [`MIN_SAMPLES`] samples
    /// exist. The exact size class is preferred; with no trustworthy entry
    /// there, the nearest class within ±2 octaves answers instead — close
    /// enough that throughput is comparable, far enough to bridge
    /// measurement gaps.
    pub fn gflops(&self, op: &str, kernel: &str, flops: u64) -> Option<f64> {
        let want = size_class(flops);
        let mut best: Option<(u32, f64)> = None;
        for (k, w) in &self.entries {
            if k.op != op || k.kernel != kernel || w.count < MIN_SAMPLES {
                continue;
            }
            let dist = k.size_class.abs_diff(want);
            if dist > 2 {
                continue;
            }
            if best.is_none_or(|(bd, _)| dist < bd) {
                best = Some((dist, w.mean()));
            }
        }
        best.map(|(_, g)| g)
    }

    /// Serialize to the on-disk text format: a version header, an FNV-1a
    /// checksum line covering the body, then one tab-separated line per
    /// entry.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut body = String::new();
        for (k, w) in &self.entries {
            let _ = writeln!(
                body,
                "{}\t{}\t{}\t{}\t{:.17e}\t{:.17e}",
                k.op, k.kernel, k.size_class, w.count, w.mean, w.m2
            );
        }
        let mut out = format!("DMML-PROFILE v{FORMAT_VERSION}\n");
        let _ = writeln!(out, "checksum {:016x}", fnv1a(body.as_bytes()));
        out.push_str(&body);
        out.into_bytes()
    }

    /// Parse the on-disk format, validating version and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ProfileError> {
        let text = std::str::from_utf8(bytes).map_err(|_| ProfileError::Truncated)?;
        let mut lines = text.split_inclusive('\n');
        let header = lines.next().ok_or(ProfileError::Truncated)?;
        // A header without its newline was cut mid-write.
        if !header.ends_with('\n') {
            return Err(ProfileError::Truncated);
        }
        let header = header.trim_end();
        match header.strip_prefix("DMML-PROFILE ") {
            Some(v) if v == format!("v{FORMAT_VERSION}") => {}
            Some(v) => return Err(ProfileError::VersionSkew { found: v.to_owned() }),
            None => return Err(ProfileError::VersionSkew { found: header.to_owned() }),
        }
        let checksum_line = lines.next().ok_or(ProfileError::Truncated)?;
        if !checksum_line.ends_with('\n') {
            return Err(ProfileError::Truncated);
        }
        let expected = checksum_line
            .trim_end()
            .strip_prefix("checksum ")
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or(ProfileError::Truncated)?;
        let body: String = lines.collect();
        // A body that does not end in a newline lost its tail mid-write.
        if !body.is_empty() && !body.ends_with('\n') {
            return Err(ProfileError::Truncated);
        }
        let found = fnv1a(body.as_bytes());
        if found != expected {
            return Err(ProfileError::ChecksumMismatch { expected, found });
        }
        let mut entries = BTreeMap::new();
        for (i, line) in body.lines().enumerate() {
            let mut parts = line.split('\t');
            let malformed = || ProfileError::Malformed { line: i + 3 };
            let op = parts.next().ok_or_else(malformed)?.to_owned();
            let kernel = parts.next().ok_or_else(malformed)?.to_owned();
            let class: u32 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(malformed)?;
            let count: u64 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(malformed)?;
            let mean: f64 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(malformed)?;
            let m2: f64 = parts.next().and_then(|s| s.parse().ok()).ok_or_else(malformed)?;
            if parts.next().is_some() || !mean.is_finite() || !m2.is_finite() {
                return Err(malformed());
            }
            entries
                .insert(ProfileKey { op, kernel, size_class: class }, Welford { count, mean, m2 });
        }
        Ok(ProfileStore { entries })
    }

    /// Load the store from `dir`. A missing file loads as an empty store
    /// (first run); any other failure — truncation, checksum mismatch,
    /// version skew — is an error the caller should log and degrade from.
    pub fn load(dir: &Path) -> Result<Self, ProfileError> {
        let path = dir.join(PROFILE_FILE);
        match std::fs::read(&path) {
            Ok(bytes) => Self::from_bytes(&bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Self::new()),
            Err(e) => Err(ProfileError::Io(format!("{}: {e}", path.display()))),
        }
    }

    /// Persist to `dir`, merging with the store already there so profiles
    /// accumulate across runs. An unreadable (corrupt) existing file is
    /// replaced by this store's contents rather than poisoning the save.
    /// The write goes through a temp file + rename, so a crash mid-save
    /// leaves the previous file intact.
    pub fn save(&self, dir: &Path) -> Result<(), ProfileError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ProfileError::Io(format!("{}: {e}", dir.display())))?;
        let mut merged = match Self::load(dir) {
            Ok(existing) => existing,
            Err(_) => Self::new(), // corrupt on-disk state: start over
        };
        merged.merge(self);
        let path = dir.join(PROFILE_FILE);
        let tmp = dir.join(format!("{PROFILE_FILE}.tmp.{}", std::process::id()));
        std::fs::write(&tmp, merged.to_bytes())
            .map_err(|e| ProfileError::Io(format!("{}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path)
            .map_err(|e| ProfileError::Io(format!("{}: {e}", path.display())))
    }
}

impl fmt::Display for ProfileStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return writeln!(f, "(empty kernel profile)");
        }
        writeln!(f, "kernel profiles (op, kernel, 2^class flops: GFLOP/s ± sd over n):")?;
        for (k, w) in &self.entries {
            writeln!(
                f,
                "  {:<12} {:<9} 2^{:<3} {:>8.3} ± {:.3} over {}",
                k.op,
                k.kernel,
                k.size_class,
                w.mean(),
                w.stddev(),
                w.count
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let d =
            std::env::temp_dir().join(format!("dmml_profile_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn size_classes_are_log2_buckets() {
        assert_eq!(size_class(0), 0);
        assert_eq!(size_class(1), 0);
        assert_eq!(size_class(2), 1);
        assert_eq!(size_class(3), 1);
        assert_eq!(size_class(1024), 10);
        assert_eq!(size_class(2047), 10);
        assert_eq!(size_class(2048), 11);
        assert_eq!(size_class(u64::MAX), 63);
    }

    #[test]
    fn welford_matches_naive_moments() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        let mean: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let var: f64 = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        assert!((w.variance() - var).abs() < 1e-12);
        // Merge of two halves equals the whole.
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..2] {
            a.push(x);
        }
        for &x in &xs[2..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), w.count());
        assert!((a.mean() - w.mean()).abs() < 1e-12);
        assert!((a.variance() - w.variance()).abs() < 1e-12);
        // Empty is a merge identity on both sides.
        let mut e = Welford::new();
        e.merge(&a);
        assert!((e.mean() - a.mean()).abs() < 1e-12);
        a.merge(&Welford::new());
        assert!((e.mean() - a.mean()).abs() < 1e-12);
    }

    #[test]
    fn round_trips_through_bytes() {
        let mut s = ProfileStore::new();
        s.record("matmul", "dense", 1 << 20, 1_000_000);
        s.record("matmul", "dense", 1 << 20, 1_100_000);
        s.record("ewise +", "parallel", 1 << 24, 9_000_000);
        let back = ProfileStore::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn checksum_line_is_pinned() {
        // A file as earlier builds wrote it: it must keep validating, and the
        // same entries must serialize to the same bytes.
        let file = "DMML-PROFILE v1\nchecksum 4e17acc8b08905d2\n\
                    gemm\tdense\t20\t1\t1.04857600000000002e3\t0.00000000000000000e0\n\
                    gemv\tsparse\t12\t1\t1.63840000000000003e1\t0.00000000000000000e0\n";
        let mut s = ProfileStore::new();
        s.record("gemm", "dense", 1 << 20, 1000);
        s.record("gemv", "sparse", 4096, 250);
        assert_eq!(String::from_utf8(s.to_bytes()).unwrap(), file);
        assert_eq!(ProfileStore::from_bytes(file.as_bytes()).unwrap(), s);
    }

    #[test]
    fn save_merges_across_runs() {
        let dir = tempdir("merge");
        let mut run1 = ProfileStore::new();
        run1.record("matmul", "dense", 1 << 20, 1_000_000);
        run1.save(&dir).unwrap();
        let mut run2 = ProfileStore::new();
        run2.record("matmul", "dense", 1 << 20, 1_000_000);
        run2.record("matmul", "dense", 1 << 20, 1_000_000);
        run2.save(&dir).unwrap();
        let merged = ProfileStore::load(&dir).unwrap();
        let w = merged.entry("matmul", "dense", size_class(1 << 20)).unwrap();
        assert_eq!(w.count(), 3, "1 from run1 + 2 from run2");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gflops_enforces_min_samples_and_nearby_classes() {
        let mut s = ProfileStore::new();
        // Two samples: below MIN_SAMPLES, not trusted.
        s.record("matmul", "dense", 1 << 20, 1_000_000);
        s.record("matmul", "dense", 1 << 20, 1_000_000);
        assert_eq!(s.gflops("matmul", "dense", 1 << 20), None);
        s.record("matmul", "dense", 1 << 20, 1_000_000);
        let g = s.gflops("matmul", "dense", 1 << 20).unwrap();
        assert!((g - (1u64 << 20) as f64 / 1_000_000.0).abs() < 1e-9);
        // A neighboring size class (+1 octave) answers; a far one does not.
        assert!(s.gflops("matmul", "dense", 1 << 21).is_some());
        assert!(s.gflops("matmul", "dense", 1 << 30).is_none());
        // Other ops/kernels never answer.
        assert_eq!(s.gflops("crossprod", "dense", 1 << 20), None);
        assert_eq!(s.gflops("matmul", "parallel", 1 << 20), None);
    }

    #[test]
    fn load_of_missing_dir_is_empty_not_error() {
        let dir = std::env::temp_dir().join("dmml_profile_test_never_created");
        assert!(ProfileStore::load(&dir).unwrap().is_empty());
    }

    #[test]
    fn truncated_file_is_detected() {
        let mut s = ProfileStore::new();
        for _ in 0..4 {
            s.record("matmul", "dense", 1 << 20, 1_000_000);
        }
        let bytes = s.to_bytes();
        // Chop mid-body: the final line loses its newline.
        let cut = &bytes[..bytes.len() - 10];
        assert!(matches!(
            ProfileStore::from_bytes(cut),
            Err(ProfileError::Truncated | ProfileError::ChecksumMismatch { .. })
        ));
        // Chop inside the header.
        assert_eq!(ProfileStore::from_bytes(&bytes[..5]), Err(ProfileError::Truncated));
        // Empty file.
        assert_eq!(ProfileStore::from_bytes(b""), Err(ProfileError::Truncated));
    }

    #[test]
    fn checksum_mismatch_is_detected() {
        let mut s = ProfileStore::new();
        s.record("matmul", "dense", 1 << 20, 1_000_000);
        let mut bytes = s.to_bytes();
        // Flip a digit in the body (the count field).
        let pos = bytes.len() - 20;
        bytes[pos] = if bytes[pos] == b'1' { b'2' } else { b'1' };
        assert!(matches!(
            ProfileStore::from_bytes(&bytes),
            Err(ProfileError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn version_skew_is_detected() {
        let mut s = ProfileStore::new();
        s.record("matmul", "dense", 1 << 20, 1_000_000);
        let text = String::from_utf8(s.to_bytes()).unwrap();
        let skewed = text.replace("DMML-PROFILE v1", "DMML-PROFILE v999");
        match ProfileStore::from_bytes(skewed.as_bytes()) {
            Err(ProfileError::VersionSkew { found }) => assert_eq!(found, "v999"),
            other => panic!("expected version skew, got {other:?}"),
        }
    }

    #[test]
    fn save_over_corrupt_file_recovers() {
        let dir = tempdir("corrupt");
        std::fs::write(dir.join(PROFILE_FILE), b"garbage").unwrap();
        assert!(ProfileStore::load(&dir).is_err());
        let mut s = ProfileStore::new();
        s.record("matmul", "dense", 1 << 20, 1_000_000);
        s.save(&dir).unwrap();
        assert_eq!(ProfileStore::load(&dir).unwrap(), s);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn display_renders_entries() {
        let mut s = ProfileStore::new();
        assert!(s.to_string().contains("empty"));
        s.record("matmul", "parallel", 1 << 30, 500_000_000);
        let txt = s.to_string();
        assert!(txt.contains("matmul"), "{txt}");
        assert!(txt.contains("parallel"), "{txt}");
    }
}
