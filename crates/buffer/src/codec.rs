//! Spill pages: one dense block in [`dm_matrix::le`]'s dense-block layout,
//! `rows: u64 LE | cols: u64 LE | data: rows*cols f64 LE`, and nothing after.

use dm_matrix::le::{self, LeReader};
use dm_matrix::Dense;

/// Serialize a dense block.
pub fn encode_dense(m: &Dense) -> Vec<u8> {
    let mut page = Vec::new();
    le::put_dense(&mut page, m);
    page
}

/// Deserialize a dense block; `None` on malformed input.
pub fn decode_dense(bytes: &[u8]) -> Option<Dense> {
    let mut r = LeReader::new(bytes);
    let m = le::read_dense(&mut r)?;
    (r.remaining() == 0).then_some(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let m = Dense::from_fn(5, 7, |r, c| (r as f64) * 10.0 + c as f64 + 0.25);
        let enc = encode_dense(&m);
        assert_eq!(enc.len(), 16 + 35 * 8);
        let back = decode_dense(&enc).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn empty_matrix_round_trip() {
        let m = Dense::zeros(0, 3);
        let back = decode_dense(&encode_dense(&m)).unwrap();
        assert_eq!(back.shape(), (0, 3));
    }

    #[test]
    fn special_values_preserved() {
        let m = Dense::from_rows(&[&[f64::INFINITY, f64::NEG_INFINITY, -0.0]]);
        let back = decode_dense(&encode_dense(&m)).unwrap();
        assert_eq!(back.get(0, 0), f64::INFINITY);
        assert_eq!(back.get(0, 1), f64::NEG_INFINITY);
        assert_eq!(back.get(0, 2).to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn nan_preserved_bitwise() {
        let m = Dense::from_rows(&[&[f64::NAN]]);
        let back = decode_dense(&encode_dense(&m)).unwrap();
        assert_eq!(back.get(0, 0).to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn malformed_input_rejected() {
        assert!(decode_dense(b"short").is_none());
        // Header claims more data than present.
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u64.to_le_bytes());
        buf.extend_from_slice(&10u64.to_le_bytes());
        buf.extend_from_slice(&1.0f64.to_le_bytes());
        assert!(decode_dense(&buf).is_none());
        // Trailing garbage also rejected.
        let mut enc = encode_dense(&Dense::zeros(1, 1));
        enc.push(0xFF);
        assert!(decode_dense(&enc).is_none());
    }

    #[test]
    fn overflow_dimensions_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        buf.extend_from_slice(&u64::MAX.to_le_bytes());
        assert!(decode_dense(&buf).is_none());
    }
}
