//! Little-endian binary layouts: the one reader every binary format in the
//! workspace decodes with, and the dense-block layout that buffer-pool spill
//! pages and CLA's uncompressed column groups share:
//!
//! ```text
//! rows u64 | cols u64 | rows*cols f64 (row-major)
//! ```

use crate::Dense;

/// Reads little-endian fields front to back off a byte slice. Every read
/// returns `None` once too few bytes remain, so a cut input fails wherever
/// it was cut.
#[derive(Debug, Clone)]
pub struct LeReader<'a> {
    rest: &'a [u8],
}

impl<'a> LeReader<'a> {
    /// A reader at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        LeReader { rest: bytes }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The next `N` bytes.
    #[inline]
    pub fn array<const N: usize>(&mut self) -> Option<[u8; N]> {
        let (head, rest) = self.rest.split_first_chunk::<N>()?;
        self.rest = rest;
        Some(*head)
    }

    /// A `u8`.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        self.array().map(u8::from_le_bytes)
    }

    /// A little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Option<u16> {
        self.array().map(u16::from_le_bytes)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.array().map(u64::from_le_bytes)
    }

    /// A little-endian `u64` that must fit a `usize`.
    #[inline]
    pub fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }

    /// `n` items of `size` bytes each, read by `item`. The length is checked
    /// against what remains before anything is allocated, so a corrupt count
    /// cannot ask for more memory than the input could hold.
    pub fn items<T>(
        &mut self,
        n: usize,
        size: usize,
        mut item: impl FnMut(&mut Self) -> Option<T>,
    ) -> Option<Vec<T>> {
        if n.checked_mul(size)? > self.rest.len() {
            return None;
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(item(self)?);
        }
        Some(out)
    }

    /// `n` little-endian `f64` values.
    pub fn f64s(&mut self, n: usize) -> Option<Vec<f64>> {
        let bytes = n.checked_mul(8)?;
        if bytes > self.rest.len() {
            return None;
        }
        let (head, rest) = self.rest.split_at(bytes);
        self.rest = rest;
        Some(head.as_chunks::<8>().0.iter().map(|&c| f64::from_le_bytes(c)).collect())
    }
}

/// Append `m` in the dense-block layout.
pub fn put_dense(out: &mut Vec<u8>, m: &Dense) {
    out.reserve(16 + m.data().len() * 8);
    out.extend_from_slice(&(m.rows() as u64).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u64).to_le_bytes());
    for v in m.data() {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Read one block in the dense-block layout; `None` when the input is cut
/// short or the shape overflows.
pub fn read_dense(r: &mut LeReader<'_>) -> Option<Dense> {
    let rows = r.usize()?;
    let cols = r.usize()?;
    let data = r.f64s(rows.checked_mul(cols)?)?;
    Dense::from_vec(rows, cols, data).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_are_checked_before_allocating() {
        let mut r = LeReader::new(&[0; 16]);
        assert!(r.items(usize::MAX, 8, LeReader::u64).is_none());
        assert!(r.f64s(usize::MAX).is_none());
        assert!(r.f64s(3).is_none());
        assert_eq!(r.items(2, 8, LeReader::u64), Some(vec![0, 0]));
        assert_eq!(r.u8(), None, "a read past the end fails");
    }
}
