//! Join avoidance: deciding when a key-foreign-key join adds no predictive
//! signal beyond the foreign key itself.
//!
//! In a KFK join, the foreign key functionally determines every joined
//! dimension feature, so a model over (fact features + FK as a categorical
//! feature) can represent anything a model over the joined features can. The
//! question is statistical, not representational: a high-cardinality FK can
//! overfit where the (lower-dimensional) joined features would not. The
//! decision rules here follow that analysis — avoid the join when there are
//! enough training rows *per dimension row* for the FK representation to be
//! safe.

use crate::schema::NormalizedMatrix;
use dm_compress::ColGroup;

/// Inputs to the join-avoidance decision for one dimension table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinProfile {
    /// Fact-table (training) rows, `n_S`.
    pub fact_rows: usize,
    /// Dimension-table rows, `n_R` (also the FK's domain size).
    pub dim_rows: usize,
    /// Number of features the join would bring in, `d_R`.
    pub dim_features: usize,
}

impl JoinProfile {
    /// Tuple ratio `n_S / n_R`: average training rows per FK value.
    pub fn tuple_ratio(&self) -> f64 {
        self.fact_rows as f64 / self.dim_rows.max(1) as f64
    }
}

/// Outcome of a join-avoidance rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Drop the join: keep only the FK (dummy-coded) on the fact side.
    AvoidJoin,
    /// Perform (or factorize) the join: the dimension features are needed.
    KeepJoin,
}

/// The conservative "rule of thumb": avoid the join when the tuple ratio is
/// at least `threshold` (the canonical setting is 20).
pub fn tuple_ratio_rule(p: &JoinProfile, threshold: f64) -> Decision {
    if p.tuple_ratio() >= threshold {
        Decision::AvoidJoin
    } else {
        Decision::KeepJoin
    }
}

/// The risk-based rule: compare binary-hypothesis-space capacities of the two
/// representations. The FK representation has roughly `n_R` degrees of
/// freedom; the joined representation has `d_R`. Avoiding the join is safe
/// when the *extra* capacity the FK brings is small relative to the training
/// set: `n_R - d_R <= n_S / rows_per_dof`.
///
/// `rows_per_dof` controls conservatism: higher demands more evidence per
/// extra degree of freedom (default 10).
pub fn risk_rule(p: &JoinProfile, rows_per_dof: f64) -> Decision {
    let extra_dof = p.dim_rows.saturating_sub(p.dim_features) as f64;
    if extra_dof * rows_per_dof <= p.fact_rows as f64 {
        Decision::AvoidJoin
    } else {
        Decision::KeepJoin
    }
}

/// Profile every dimension table of a normalized matrix (its DDC groups:
/// a table's rows are the dictionary's tuples). A table with no feature
/// columns has no group, so it gets no profile.
pub fn profile_tables(nm: &NormalizedMatrix) -> Vec<JoinProfile> {
    let profile = |g: &ColGroup| match g {
        ColGroup::Ddc { dict, .. } => Some(JoinProfile {
            fact_rows: nm.rows(),
            dim_rows: dict.num_tuples(),
            dim_features: dict.width(),
        }),
        _ => None,
    };
    nm.groups().iter().filter_map(profile).collect()
}

/// Replace a dimension table's features with a dummy-coded (one-hot) foreign
/// key: the "avoided join" representation used by experiment E9.
///
/// Returns an `n x n_R` indicator matrix.
pub fn fk_one_hot(fk: &[usize], dim_rows: usize) -> dm_matrix::Dense {
    let mut out = dm_matrix::Dense::zeros(fk.len(), dim_rows);
    for (r, &g) in fk.iter().enumerate() {
        out.set(r, g, 1.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::DimTable;
    use dm_matrix::Dense;

    #[test]
    fn tuple_ratio_math() {
        let p = JoinProfile { fact_rows: 1000, dim_rows: 50, dim_features: 4 };
        assert!((p.tuple_ratio() - 20.0).abs() < 1e-12);
        assert_eq!(tuple_ratio_rule(&p, 20.0), Decision::AvoidJoin);
        assert_eq!(tuple_ratio_rule(&p, 21.0), Decision::KeepJoin);
    }

    #[test]
    fn risk_rule_tracks_extra_capacity() {
        // FK domain barely larger than the features it replaces: safe.
        let small = JoinProfile { fact_rows: 100, dim_rows: 10, dim_features: 8 };
        assert_eq!(risk_rule(&small, 10.0), Decision::AvoidJoin);
        // Huge FK domain with few rows: unsafe.
        let big = JoinProfile { fact_rows: 100, dim_rows: 500, dim_features: 8 };
        assert_eq!(risk_rule(&big, 10.0), Decision::KeepJoin);
        // More training data flips the decision.
        let big_n = JoinProfile { fact_rows: 100_000, dim_rows: 500, dim_features: 8 };
        assert_eq!(risk_rule(&big_n, 10.0), Decision::AvoidJoin);
    }

    #[test]
    fn zero_dim_rows_does_not_divide_by_zero() {
        let p = JoinProfile { fact_rows: 10, dim_rows: 0, dim_features: 0 };
        assert!(p.tuple_ratio().is_finite());
    }

    #[test]
    fn profile_reads_normalized_matrix() {
        let s = Dense::from_fn(40, 1, |r, _| r as f64);
        let r1 = Dense::from_fn(4, 3, |g, c| (g + c) as f64);
        let fk = (0..40).map(|i| i % 4).collect();
        let nm = NormalizedMatrix::new(s, vec![DimTable::new(r1, fk).unwrap()]).unwrap();
        let profiles = profile_tables(&nm);
        assert_eq!(profiles.len(), 1);
        assert_eq!(profiles[0], JoinProfile { fact_rows: 40, dim_rows: 4, dim_features: 3 });
        assert!((profiles[0].tuple_ratio() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn one_hot_is_an_indicator() {
        let oh = fk_one_hot(&[1, 0, 2, 1], 3);
        assert_eq!(oh.shape(), (4, 3));
        for r in 0..4 {
            let row = oh.row(r);
            assert_eq!(row.iter().sum::<f64>(), 1.0, "exactly one indicator per row");
        }
        assert_eq!(oh.get(0, 1), 1.0);
        assert_eq!(oh.get(3, 1), 1.0);
    }

    #[test]
    fn fk_representation_subsumes_joined_features() {
        // Any linear model over joined features R has an equivalent linear
        // model over the one-hot FK: w_oh[g] = R[g] · w_R.
        let r = Dense::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let fk: Vec<usize> = vec![0, 1, 2, 1, 0];
        let w_r = [0.5, -1.5];
        // Joined prediction.
        let joined: Vec<f64> =
            fk.iter().map(|&g| r.row(g).iter().zip(&w_r).map(|(a, b)| a * b).sum()).collect();
        // One-hot prediction with induced weights.
        let w_oh: Vec<f64> =
            (0..3).map(|g| r.row(g).iter().zip(&w_r).map(|(a, b)| a * b).sum()).collect();
        let oh = fk_one_hot(&fk, 3);
        let via_oh = dm_matrix::ops::gemv(&oh, &w_oh);
        for (a, b) in joined.iter().zip(&via_oh) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
