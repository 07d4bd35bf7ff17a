//! Sampling-based compression planning: per-column encoding choice and
//! greedy column co-coding.

use crate::estimate::{estimate_group, estimate_sizes, sample_rows, GroupStats};
use crate::matrix::CompressedMatrix;
use crate::Encoding;
use dm_matrix::Dense;
use dm_obs::{elapsed_ns, StatsRegistry};
use std::fmt::Write as _;
use std::time::Instant;

/// Tuning knobs for the compression planner.
#[derive(Debug, Clone, Copy)]
pub struct CompressionConfig {
    /// Fraction of rows sampled for estimation.
    pub sample_fraction: f64,
    /// Lower bound on the sample size.
    pub min_sample_rows: usize,
    /// Enable greedy co-coding of correlated columns.
    pub cocode: bool,
    /// A column group is kept compressed only if its estimated compressed
    /// size is below `max_ratio_to_keep * uncompressed_size`.
    pub max_ratio_to_keep: f64,
    /// RNG seed for the row sample (deterministic plans for reproducibility).
    pub seed: u64,
}

impl Default for CompressionConfig {
    fn default() -> Self {
        CompressionConfig {
            sample_fraction: 0.05,
            min_sample_rows: 256,
            cocode: true,
            max_ratio_to_keep: 1.0,
            seed: 0xD77,
        }
    }
}

/// The planned treatment of one column group.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedGroup {
    /// Columns of the group (co-coded together when more than one).
    pub cols: Vec<usize>,
    /// Chosen encoding.
    pub encoding: Encoding,
    /// Estimated compressed size in bytes.
    pub est_size: usize,
}

/// A complete compression plan for a matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionPlan {
    /// Per-group decisions; groups partition the column set.
    pub groups: Vec<PlannedGroup>,
    /// Number of rows sampled while planning.
    pub sample_size: usize,
}

fn plan_one(m: &Dense, cols: &[usize], sample: &[usize]) -> (Encoding, usize, GroupStats) {
    let stats = estimate_group(m, cols, sample);
    let sizes = estimate_sizes(&stats, cols.len());
    let (enc, sz) = sizes.best();
    (enc, sz, stats)
}

/// One accepted co-coding merge, as recorded by [`plan_traced`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeDecision {
    /// Columns of the left group before the merge.
    pub left: Vec<usize>,
    /// Columns of the right group before the merge.
    pub right: Vec<usize>,
    /// Sum of the two groups' separate estimated sizes.
    pub est_separate: usize,
    /// Estimated size of the merged group.
    pub est_merged: usize,
}

/// What the planner did: every accepted co-coding merge, every group demoted
/// to the UC fallback, and the planner's own wall time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanTrace {
    /// Accepted merges, in the order applied.
    pub merges: Vec<MergeDecision>,
    /// Column groups demoted to UC by the `max_ratio_to_keep` guard.
    pub demoted: Vec<Vec<usize>>,
    /// Wall time spent planning.
    pub wall_ns: u64,
}

impl PlanTrace {
    /// Push the trace into `rec` under the `compress.plan.*` sites.
    pub fn record(&self, rec: &StatsRegistry) {
        rec.add("compress.plan.merges", self.merges.len() as u64);
        rec.add("compress.plan.demotions", self.demoted.len() as u64);
        rec.record_histogram("compress.plan.wall", self.wall_ns);
    }
}

/// Produce a compression plan for `m`.
///
/// 1. Sample rows once.
/// 2. Estimate per-column stats and pick the best single-column encoding.
/// 3. If co-coding is enabled, greedily merge the pair of groups whose merged
///    estimated size is smallest relative to the sum of their separate sizes,
///    repeating until no merge helps.
/// 4. Demote groups whose best compressed size exceeds
///    [`CompressionConfig::max_ratio_to_keep`] of uncompressed to the UC fallback.
pub fn plan(m: &Dense, cfg: &CompressionConfig) -> CompressionPlan {
    plan_traced(m, cfg).0
}

/// [`plan`], plus a [`PlanTrace`] of the co-coding and demotion decisions the
/// planner took along the way.
pub fn plan_traced(m: &Dense, cfg: &CompressionConfig) -> (CompressionPlan, PlanTrace) {
    let t0 = Instant::now();
    let mut span = dm_obs::trace::Span::enter("compress.plan", "compress");
    span.arg("dims", format!("{}x{}", m.rows(), m.cols()));
    let mut trace = PlanTrace::default();
    let sample = sample_rows(m.rows(), cfg.sample_fraction, cfg.min_sample_rows, cfg.seed);
    span.arg("sample_rows", sample.len().to_string());

    // Step 1: singleton groups.
    let estimate = dm_obs::trace::Span::enter("compress.estimate", "compress");
    let mut groups: Vec<(Vec<usize>, Encoding, usize)> = (0..m.cols())
        .map(|c| {
            let cols = vec![c];
            let (enc, sz, _) = plan_one(m, &cols, &sample);
            (cols, enc, sz)
        })
        .collect();
    drop(estimate);

    // Step 2: greedy pairwise co-coding. Only dictionary encodings benefit
    // from co-coding; skip pairs whose best encoding is UC.
    if cfg.cocode {
        let cocode = dm_obs::trace::Span::enter("compress.cocode", "compress");
        loop {
            let mut best: Option<(usize, usize, Encoding, usize, f64)> = None;
            for i in 0..groups.len() {
                for j in (i + 1)..groups.len() {
                    if groups[i].1 == Encoding::Uncompressed
                        || groups[j].1 == Encoding::Uncompressed
                    {
                        continue;
                    }
                    let mut merged: Vec<usize> = groups[i].0.clone();
                    merged.extend_from_slice(&groups[j].0);
                    merged.sort_unstable();
                    let (enc, sz, _) = plan_one(m, &merged, &sample);
                    let separate = groups[i].2 + groups[j].2;
                    let gain = separate as f64 - sz as f64;
                    if gain > 0.0 {
                        let better = match best {
                            None => true,
                            Some((.., g)) => gain > g,
                        };
                        if better {
                            best = Some((i, j, enc, sz, gain));
                        }
                    }
                }
            }
            match best {
                Some((i, j, enc, sz, _)) => {
                    let (right, _, right_sz) = groups.remove(j);
                    let (left, _, left_sz) = groups.remove(i);
                    trace.merges.push(MergeDecision {
                        left: left.clone(),
                        right: right.clone(),
                        est_separate: left_sz + right_sz,
                        est_merged: sz,
                    });
                    let mut merged = left;
                    merged.extend(right);
                    merged.sort_unstable();
                    groups.push((merged, enc, sz));
                }
                None => break,
            }
        }
        drop(cocode);
    }

    // Step 3: fallback demotion.
    let demote = dm_obs::trace::Span::enter("compress.demote", "compress");
    let planned = groups
        .into_iter()
        .map(|(cols, enc, sz)| {
            let uncompressed = m.rows() * cols.len() * 8;
            if enc == Encoding::Uncompressed
                || sz as f64 > cfg.max_ratio_to_keep * uncompressed as f64
            {
                // Only a compressible encoding rejected by the ratio guard is
                // a *demotion* decision worth tracing.
                if enc != Encoding::Uncompressed {
                    trace.demoted.push(cols.clone());
                }
                PlannedGroup { cols, encoding: Encoding::Uncompressed, est_size: uncompressed }
            } else {
                PlannedGroup { cols, encoding: enc, est_size: sz }
            }
        })
        .collect();
    drop(demote);

    trace.wall_ns = elapsed_ns(t0);
    drop(span);
    (CompressionPlan { groups: planned, sample_size: sample.len() }, trace)
}

/// Per-group estimated-vs-achieved report for a matrix compressed with
/// `plan` (the groups of [`CompressedMatrix::compress_with_plan`] align 1:1
/// with the plan's groups). Ratios are `uncompressed / compressed`, so bigger
/// is better; an `est/ach` pair far apart flags a sampling estimate that
/// misjudged the full column.
pub fn compression_report(plan: &CompressionPlan, cm: &CompressedMatrix) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "compression report: {} groups, sampled {} rows",
        plan.groups.len(),
        plan.sample_size
    );
    for (g, actual) in plan.groups.iter().zip(cm.groups()) {
        let uncompressed = (cm.rows() * g.cols.len() * 8) as f64;
        let est_ratio = uncompressed / g.est_size.max(1) as f64;
        let ach_ratio = uncompressed / actual.size_bytes().max(1) as f64;
        let _ = writeln!(
            out,
            "  cols {:?} {}: est {:.2}x achieved {:.2}x ({} B -> {} B)",
            g.cols,
            g.encoding,
            est_ratio,
            ach_ratio,
            uncompressed as usize,
            actual.size_bytes(),
        );
    }
    let total_ratio = cm.uncompressed_bytes() as f64 / cm.size_bytes().max(1) as f64;
    let _ = writeln!(out, "  overall: {total_ratio:.2}x");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_partitions_all_columns() {
        let m = Dense::from_fn(500, 4, |r, c| ((r + c) % 5) as f64);
        let p = plan(&m, &CompressionConfig::default());
        let mut cols: Vec<usize> = p.groups.iter().flat_map(|g| g.cols.clone()).collect();
        cols.sort_unstable();
        assert_eq!(cols, vec![0, 1, 2, 3]);
    }

    #[test]
    fn unique_column_falls_back_to_uncompressed() {
        let m = Dense::from_fn(2000, 1, |r, _| r as f64 * 1.37);
        let p = plan(&m, &CompressionConfig::default());
        assert_eq!(p.groups.len(), 1);
        assert_eq!(p.groups[0].encoding, Encoding::Uncompressed);
    }

    #[test]
    fn clustered_column_gets_rle() {
        let m = Dense::from_fn(4000, 1, |r, _| (r / 500) as f64);
        let p = plan(&m, &CompressionConfig::default());
        assert_eq!(p.groups[0].encoding, Encoding::Rle);
    }

    #[test]
    fn sparse_column_gets_offset_encoding() {
        let m = Dense::from_fn(4000, 1, |r, _| if r % 97 == 0 { 3.0 } else { 0.0 });
        let p = plan(&m, &CompressionConfig::default());
        assert!(matches!(p.groups[0].encoding, Encoding::Ole | Encoding::Rle));
        assert!(p.groups[0].est_size < 4000 * 8 / 10);
    }

    #[test]
    fn perfectly_correlated_columns_cocoded() {
        // Column 1 is a function of column 0: co-coding stores one dictionary
        // and one code stream instead of two.
        let m = Dense::from_fn(3000, 2, |r, c| {
            let base = (r % 6) as f64;
            if c == 0 {
                base
            } else {
                base * 10.0
            }
        });
        let p = plan(&m, &CompressionConfig::default());
        assert_eq!(p.groups.len(), 1, "correlated columns should merge: {:?}", p.groups);
        assert_eq!(p.groups[0].cols, vec![0, 1]);
    }

    #[test]
    fn independent_random_columns_not_cocoded() {
        // Two independent 50-value columns whose *pair* takes ~2500 distinct
        // combinations: merging squares the dictionary, so the planner must
        // keep them separate.
        let m =
            Dense::from_fn(
                3000,
                2,
                |r, c| {
                    if c == 0 {
                        (r % 50) as f64
                    } else {
                        ((r / 50) % 50) as f64
                    }
                },
            );
        let p = plan(&m, &CompressionConfig::default());
        assert_eq!(p.groups.len(), 2, "independent columns must stay separate: {:?}", p.groups);
    }

    #[test]
    fn cocode_flag_disables_merging() {
        let m = Dense::from_fn(1000, 2, |r, _| (r % 3) as f64);
        let cfg = CompressionConfig { cocode: false, ..CompressionConfig::default() };
        let p = plan(&m, &cfg);
        assert_eq!(p.groups.len(), 2);
    }

    #[test]
    fn traced_plan_records_merge_decisions() {
        let m = Dense::from_fn(3000, 2, |r, c| {
            let base = (r % 6) as f64;
            if c == 0 {
                base
            } else {
                base * 10.0
            }
        });
        let (p, trace) = plan_traced(&m, &CompressionConfig::default());
        assert_eq!(p.groups.len(), 1);
        assert_eq!(trace.merges.len(), 1);
        let merge = &trace.merges[0];
        assert_eq!((merge.left.as_slice(), merge.right.as_slice()), (&[0][..], &[1][..]));
        assert!(merge.est_merged < merge.est_separate);
        assert!(trace.wall_ns > 0);
    }

    #[test]
    fn traced_plan_records_demotions() {
        // Clustered column compresses, but a ratio guard of ~0 rejects it.
        let m = Dense::from_fn(4000, 1, |r, _| (r / 500) as f64);
        let cfg = CompressionConfig { max_ratio_to_keep: 1e-9, ..CompressionConfig::default() };
        let (p, trace) = plan_traced(&m, &cfg);
        assert_eq!(p.groups[0].encoding, Encoding::Uncompressed);
        assert_eq!(trace.demoted, vec![vec![0]]);
    }

    #[test]
    fn trace_records_into_registry() {
        let m = Dense::from_fn(1000, 2, |r, _| (r % 3) as f64);
        let (_, trace) = plan_traced(&m, &CompressionConfig::default());
        let reg = StatsRegistry::new();
        trace.record(&reg);
        let rep = reg.report();
        assert!(rep.counter("compress.plan.merges").is_some());
        assert_eq!(rep.histogram("compress.plan.wall").unwrap().count, 1);
    }

    #[test]
    fn report_compares_estimated_and_achieved_sizes() {
        let m = Dense::from_fn(2000, 2, |r, c| ((r / 100 + c) % 4) as f64);
        let (p, _) = plan_traced(&m, &CompressionConfig::default());
        let cm = CompressedMatrix::compress_with_plan(&m, &p);
        let txt = compression_report(&p, &cm);
        assert!(txt.contains("compression report"), "{txt}");
        assert!(txt.contains("est "), "{txt}");
        assert!(txt.contains("achieved "), "{txt}");
        assert!(txt.contains("overall:"), "{txt}");
        assert_eq!(txt.lines().count(), 2 + p.groups.len(), "{txt}");
    }

    #[test]
    fn plan_is_deterministic() {
        let m = Dense::from_fn(1500, 3, |r, c| ((r * (c + 2)) % 11) as f64);
        let cfg = CompressionConfig::default();
        assert_eq!(plan(&m, &cfg), plan(&m, &cfg));
    }
}
