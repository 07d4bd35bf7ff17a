//! Dictionaries of distinct value-tuples for co-coded column groups.

/// A dictionary of distinct value-tuples.
///
/// Each tuple holds one value per column of the owning group, stored flat:
/// tuple `t` occupies `values[t*width .. (t+1)*width]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dict {
    values: Vec<f64>,
    width: usize,
}

impl Dict {
    /// Build from flat tuple values.
    ///
    /// # Panics
    /// Panics if `width == 0` or `values.len()` is not a multiple of `width`.
    pub fn new(values: Vec<f64>, width: usize) -> Self {
        assert!(width > 0, "dictionary width must be positive");
        assert_eq!(values.len() % width, 0, "dictionary values not a multiple of width");
        Dict { values, width }
    }

    /// Number of columns per tuple.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of distinct tuples.
    #[inline]
    pub fn num_tuples(&self) -> usize {
        self.values.len() / self.width
    }

    /// Borrow tuple `t` as a slice of length [`Dict::width`].
    #[inline]
    pub fn tuple(&self, t: usize) -> &[f64] {
        &self.values[t * self.width..(t + 1) * self.width]
    }

    /// Flat values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Precompute, for each tuple, its product against the sub-vector
    /// `v_cols` (the gemv pre-aggregation step of CLA kernels): the dense
    /// gemv body over the tuples as rows, so each entry is the chain the
    /// dense gemv runs over a row holding that tuple.
    ///
    /// # Panics
    /// Panics if `v_cols.len() != self.width()`.
    pub fn preaggregate(&self, v_cols: &[f64]) -> Vec<f64> {
        assert_eq!(v_cols.len(), self.width, "preaggregate width mismatch");
        let mut out = vec![0.0; self.num_tuples()];
        dm_matrix::kernel::gemv(&self.values, self.width, v_cols, &mut out);
        out
    }

    /// Apply a scalar function to every dictionary value, returning a new
    /// dictionary — the CLA trick that makes scalar ops O(#distinct) instead
    /// of O(n).
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Dict {
        Dict { values: self.values.iter().map(|&v| f(v)).collect(), width: self.width }
    }

    /// Serialized size in bytes (8 bytes per value).
    pub fn size_bytes(&self) -> usize {
        self.values.len() * 8
    }
}

/// Interning builder: maps value-tuples to dense codes in first-seen order.
#[derive(Debug, Default)]
pub struct DictBuilder {
    width: usize,
    map: std::collections::HashMap<Vec<u64>, u32>,
    values: Vec<f64>,
}

impl DictBuilder {
    /// Create a builder for tuples of the given width.
    pub fn new(width: usize) -> Self {
        DictBuilder { width, map: std::collections::HashMap::new(), values: Vec::new() }
    }

    /// Intern a tuple, returning its code. Tuples are compared by exact bit
    /// pattern (`-0.0 != 0.0` is acceptable for compression purposes since it
    /// only costs an extra dictionary slot, never correctness).
    ///
    /// # Panics
    /// Panics if the tuple width disagrees with the builder.
    pub fn intern(&mut self, tuple: &[f64]) -> u32 {
        assert_eq!(tuple.len(), self.width, "tuple width mismatch");
        let key: Vec<u64> = tuple.iter().map(|v| v.to_bits()).collect();
        if let Some(&code) = self.map.get(&key) {
            return code;
        }
        let code = (self.values.len() / self.width) as u32;
        self.values.extend_from_slice(tuple);
        self.map.insert(key, code);
        code
    }

    /// Number of tuples interned so far.
    pub fn len(&self) -> usize {
        self.values.len() / self.width
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Finish into an immutable [`Dict`].
    pub fn build(self) -> Dict {
        Dict::new(self.values, self.width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_interns_in_first_seen_order() {
        let mut b = DictBuilder::new(2);
        assert_eq!(b.intern(&[1.0, 2.0]), 0);
        assert_eq!(b.intern(&[3.0, 4.0]), 1);
        assert_eq!(b.intern(&[1.0, 2.0]), 0);
        assert_eq!(b.len(), 2);
        let d = b.build();
        assert_eq!(d.num_tuples(), 2);
        assert_eq!(d.tuple(1), &[3.0, 4.0]);
    }

    #[test]
    fn preaggregate_dots_tuples() {
        let d = Dict::new(vec![1.0, 0.0, 2.0, 3.0], 2);
        let pre = d.preaggregate(&[10.0, 1.0]);
        assert_eq!(pre, vec![10.0, 23.0]);
    }

    #[test]
    fn preaggregate_has_the_dense_gemv_bits() {
        // Tuples of thirds, 11 wide (not a multiple of any unrolling) and
        // more than one block of interleaved rows: each entry is the
        // dense gemv's chain over that tuple as a row.
        let (width, n) = (11, 19);
        let third = |i: usize| ((i * 7) % 29) as f64 / 3.0 - 14.0 / 3.0;
        let values: Vec<f64> = (0..width * n).map(third).collect();
        let v: Vec<f64> = (0..width).map(|i| third(i * 5 + 1)).collect();
        let rows = dm_matrix::Dense::from_vec(n, width, values.clone()).unwrap();
        let want = dm_matrix::ops::gemv(&rows, &v);
        let got = Dict::new(values, width).preaggregate(&v);
        let bits = |x: &[f64]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn map_transforms_dictionary_only() {
        let d = Dict::new(vec![1.0, 2.0, 3.0], 1);
        let sq = d.map(|v| v * v);
        assert_eq!(sq.values(), &[1.0, 4.0, 9.0]);
        assert_eq!(sq.width(), 1);
    }

    #[test]
    fn size_accounting() {
        let d = Dict::new(vec![0.0; 6], 3);
        assert_eq!(d.size_bytes(), 48);
        assert_eq!(d.num_tuples(), 2);
    }

    #[test]
    #[should_panic(expected = "width must be positive")]
    fn zero_width_panics() {
        Dict::new(vec![], 0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn ragged_values_panic() {
        Dict::new(vec![1.0, 2.0, 3.0], 2);
    }

    #[test]
    fn negative_zero_costs_a_slot_but_stays_correct() {
        let mut b = DictBuilder::new(1);
        let c0 = b.intern(&[0.0]);
        let c1 = b.intern(&[-0.0]);
        assert_ne!(c0, c1);
        let d = b.build();
        assert_eq!(d.tuple(c0 as usize)[0], 0.0);
        assert_eq!(d.tuple(c1 as usize)[0], -0.0);
    }
}
