//! 64-bit FNV-1a, for plan-cache keys, batcher guard groups and profile-file
//! checksums: fast on short keys, and none of them needs to resist an
//! adversary.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a over byte chunks.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    /// The empty hash (the offset basis).
    fn default() -> Self {
        Fnv1a(OFFSET)
    }
}

impl Fnv1a {
    /// Feed bytes.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Feed a `u64` as its little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// The hash of everything fed so far.
    #[inline]
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// FNV-1a of one byte string.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}
