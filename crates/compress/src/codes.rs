//! Width-adaptive code arrays for DDC groups.
//!
//! Dictionary codes are stored in the narrowest unsigned width that fits the
//! dictionary (u8 / u16 / u32), so the "one code per row" cost of DDC is one
//! byte per row for dictionaries up to 256 tuples — matching the size model
//! the planner uses.

/// A sequence of dictionary codes stored at minimal width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeArray {
    /// Up to 256 distinct tuples.
    U8(Vec<u8>),
    /// Up to 65536 distinct tuples.
    U16(Vec<u16>),
    /// Larger dictionaries.
    U32(Vec<u32>),
}

impl CodeArray {
    /// Pack plain `u32` codes into the narrowest width that holds
    /// `num_tuples` distinct values.
    ///
    /// # Panics
    /// Panics if any code is `>= num_tuples` (codes must be dense).
    pub fn pack(codes: &[u32], num_tuples: usize) -> CodeArray {
        debug_assert!(
            codes.iter().all(|&c| (c as usize) < num_tuples.max(1)),
            "codes must index the dictionary"
        );
        if num_tuples <= u8::MAX as usize + 1 {
            CodeArray::U8(codes.iter().map(|&c| c as u8).collect())
        } else if num_tuples <= u16::MAX as usize + 1 {
            CodeArray::U16(codes.iter().map(|&c| c as u16).collect())
        } else {
            CodeArray::U32(codes.to_vec())
        }
    }

    /// Number of codes.
    pub fn len(&self) -> usize {
        match self {
            CodeArray::U8(v) => v.len(),
            CodeArray::U16(v) => v.len(),
            CodeArray::U32(v) => v.len(),
        }
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Code at position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        match self {
            CodeArray::U8(v) => u32::from(v[i]),
            CodeArray::U16(v) => u32::from(v[i]),
            CodeArray::U32(v) => v[i],
        }
    }

    /// Bytes per stored code.
    pub fn width_bytes(&self) -> usize {
        match self {
            CodeArray::U8(_) => 1,
            CodeArray::U16(_) => 2,
            CodeArray::U32(_) => 4,
        }
    }

    /// Total storage in bytes.
    pub fn size_bytes(&self) -> usize {
        self.len() * self.width_bytes()
    }

    /// Iterate codes as `u32`.
    pub fn iter(&self) -> CodeIter<'_> {
        CodeIter { arr: self, pos: 0 }
    }

    /// Dictionary-indexed gather-add: `out[i] += table[codes[rows.start + i]]`
    /// for each `i` in `0..rows.len()`.
    ///
    /// This is the DDC gemv inner loop. Matching on the code width **once**
    /// and walking a contiguous code slice (instead of calling [`get`] per
    /// row, which re-matches on the enum every element) gives LLVM a
    /// branch-free unit-stride gather it can unroll. Each output element
    /// receives exactly one add, so accumulation order is untouched.
    ///
    /// [`get`]: CodeArray::get
    #[inline]
    pub fn gather_add(&self, table: &[f64], rows: std::ops::Range<usize>, out: &mut [f64]) {
        debug_assert_eq!(out.len(), rows.len());
        match self {
            CodeArray::U8(v) => {
                for (o, &c) in out.iter_mut().zip(&v[rows]) {
                    *o += table[c as usize];
                }
            }
            CodeArray::U16(v) => {
                for (o, &c) in out.iter_mut().zip(&v[rows]) {
                    *o += table[c as usize];
                }
            }
            CodeArray::U32(v) => {
                for (o, &c) in out.iter_mut().zip(&v[rows]) {
                    *o += table[c as usize];
                }
            }
        }
    }

    /// Call `f(row, code)` for each row in `rows`, in row order, matching on
    /// the code width once as [`gather_add`](Self::gather_add) does.
    #[inline]
    pub(crate) fn for_each(&self, rows: std::ops::Range<usize>, mut f: impl FnMut(usize, usize)) {
        let start = rows.start;
        match self {
            CodeArray::U8(v) => {
                v[rows].iter().enumerate().for_each(|(i, &c)| f(start + i, c.into()))
            }
            CodeArray::U16(v) => {
                v[rows].iter().enumerate().for_each(|(i, &c)| f(start + i, c.into()))
            }
            CodeArray::U32(v) => {
                v[rows].iter().enumerate().for_each(|(i, &c)| f(start + i, c as usize))
            }
        }
    }
}

/// Iterator over a [`CodeArray`].
pub struct CodeIter<'a> {
    arr: &'a CodeArray,
    pos: usize,
}

impl Iterator for CodeIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        if self.pos >= self.arr.len() {
            return None;
        }
        let c = self.arr.get(self.pos);
        self.pos += 1;
        Some(c)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.arr.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for CodeIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packs_to_narrowest_width() {
        let codes: Vec<u32> = (0..100).map(|i| i % 5).collect();
        assert_eq!(CodeArray::pack(&codes, 5).width_bytes(), 1);
        assert_eq!(CodeArray::pack(&codes, 256).width_bytes(), 1);
        assert_eq!(CodeArray::pack(&codes, 257).width_bytes(), 2);
        assert_eq!(CodeArray::pack(&codes, 65_536).width_bytes(), 2);
        assert_eq!(CodeArray::pack(&codes, 65_537).width_bytes(), 4);
    }

    #[test]
    fn round_trips_values() {
        let codes: Vec<u32> = vec![0, 255, 3, 17];
        for tuples in [256usize, 300, 100_000] {
            let packed = CodeArray::pack(&codes, tuples);
            assert_eq!(packed.len(), 4);
            for (i, &c) in codes.iter().enumerate() {
                assert_eq!(packed.get(i), c);
            }
            let collected: Vec<u32> = packed.iter().collect();
            assert_eq!(collected, codes);
        }
    }

    #[test]
    fn size_accounting() {
        let codes: Vec<u32> = vec![0; 1000];
        assert_eq!(CodeArray::pack(&codes, 10).size_bytes(), 1000);
        assert_eq!(CodeArray::pack(&codes, 1000).size_bytes(), 2000);
        assert_eq!(CodeArray::pack(&codes, 100_000).size_bytes(), 4000);
    }

    #[test]
    fn iterator_exact_size() {
        let packed = CodeArray::pack(&[1, 2, 3], 10);
        let it = packed.iter();
        assert_eq!(it.len(), 3);
        assert!(!packed.is_empty());
    }
}
