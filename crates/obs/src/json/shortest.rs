//! The shortest decimal that reads back as a given `f64`, laid out the way
//! `Display` lays it out: Ryu (Adams, PLDI 2018). The powers of 5 it scales
//! by are expanded, when the crate compiles, from the small generated
//! tables in [`f64_tables`](super::f64_tables).
//!
//! The value `m2 * 2^e2` has a rounding interval `(mm, mp)` around it, the
//! interval's ends included when `m2` is even. Ryu scales `mm`, `mv` and
//! `mp` by one power of 10 (a 128-bit multiply against a 125-bit power of
//! 5), then drops decimal digits from all three while the interval's ends
//! still differ in the kept digits. `Display` rounds the last kept digit of
//! `mv` to nearest and an exact tie **upward**, where Ryu's reference
//! rounds a tie to even; with ties up only the last dropped digit decides,
//! so the bookkeeping of whether the digits below it were all zero is gone.

use super::f64_tables::{
    INV_POW5_LEN, POW5_BITS, POW5_INV_OFFSETS, POW5_INV_SPLIT2, POW5_LEN, POW5_OFFSETS,
    POW5_SPLIT2, POW5_TABLE,
};

const MANT_BITS: u32 = 52;
const BIAS: i32 = 1023;
/// The powers of 5 between two stored ones.
const STEP: u32 = POW5_TABLE.len() as u32;

/// `ceil(log2(5^e))` for `1 <= e <= 3528`; 1 for `e == 0`.
const fn pow5bits(e: u32) -> u32 {
    ((e * 1_217_359) >> 19) + 1
}

/// `floor(log10(2^e))` for `e <= 1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78_913) >> 18
}

/// `floor(log10(5^e))` for `e <= 2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732_923) >> 20
}

/// Whether `5^p` divides `v`.
fn multiple_of_pow5(mut v: u64, p: u32) -> bool {
    for _ in 0..p {
        if !v.is_multiple_of(5) {
            return false;
        }
        v /= 5;
    }
    true
}

/// The 2-bit correction of entry `i` in a packed offsets table.
const fn offset(table: &[u32], i: u32) -> u128 {
    ((table[i as usize / 16] >> (i % 16 * 2)) & 3) as u128
}

/// `5^i` in [`POW5_BITS`] bits, truncated: a stored power times an exact
/// smaller one, shifted back to width and corrected.
const fn pow5(i: u32) -> u128 {
    let base = i / STEP;
    let (lo, hi) = POW5_SPLIT2[base as usize];
    let k = i % STEP;
    if k == 0 {
        return (hi as u128) << 64 | lo as u128;
    }
    let m = POW5_TABLE[k as usize] as u128;
    let delta = pow5bits(i) - pow5bits(base * STEP);
    ((m * lo as u128) >> delta) + ((m * hi as u128) << (64 - delta)) + offset(&POW5_OFFSETS, i)
}

/// `2^(pow5bits(i) - 1 + POW5_BITS) / 5^i`, rounded up, the same way.
const fn inv_pow5(i: u32) -> u128 {
    let base = i.div_ceil(STEP);
    let (lo, hi) = POW5_INV_SPLIT2[base as usize];
    let k = base * STEP - i;
    if k == 0 {
        return (hi as u128) << 64 | lo as u128;
    }
    let m = POW5_TABLE[k as usize] as u128;
    let delta = pow5bits(base * STEP) - pow5bits(i);
    ((m * (lo - 1) as u128) >> delta)
        + ((m * hi as u128) << (64 - delta))
        + 1
        + offset(&POW5_INV_OFFSETS, i)
}

/// Every `5^i` and `5^-q` the printer scales by, expanded from the small
/// tables when the crate compiles.
static POW5: [u128; POW5_LEN] = {
    let mut t = [0; POW5_LEN];
    let mut i = 0;
    while i < POW5_LEN {
        t[i] = pow5(i as u32);
        i += 1;
    }
    t
};
static INV_POW5: [u128; INV_POW5_LEN] = {
    let mut t = [0; INV_POW5_LEN];
    let mut i = 0;
    while i < INV_POW5_LEN {
        t[i] = inv_pow5(i as u32);
        i += 1;
    }
    t
};

/// `(m * mul) >> j` for `m < 2^55`, `mul < 2^126` and `j >= 64`.
fn mul_shift(m: u64, mul: u128, j: u32) -> u64 {
    let lo = u128::from(m) * (mul as u64 as u128);
    let hi = u128::from(m) * (mul >> 64);
    (((lo >> 64) + hi) >> (j - 64)) as u64
}

/// The shortest `(digits, exp)` with `digits * 10^exp` inside the rounding
/// interval of the finite, non-zero value with these IEEE fields; of the
/// candidates that short the nearest, and of two equally near the larger.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANT_BITS as i32 - 2, ieee_mantissa)
    } else {
        (ieee_exponent as i32 - BIAS - MANT_BITS as i32 - 2, ieee_mantissa | 1 << MANT_BITS)
    };
    let accept_bounds = m2 % 2 == 0;
    // In units of 2^e2: the value and its interval's ends, the lower gap
    // half as wide at the bottom of a binade.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let (mm, mp) = (mv - 1 - mm_shift, mv + 2);

    // Scale by 10^-e10 so that a few digits remain to drop; `vm_zeros` says
    // the scaling dropped only zeros off `vm` (an included lower end).
    let mut vm_zeros = false;
    let (e10, mut vr, mut vp, mut vm);
    if e2 >= 0 {
        let q = log10_pow2(e2 as u32) - u32::from(e2 > 3);
        let (mul, j) = (INV_POW5[q as usize], POW5_BITS + pow5bits(q) - 1 + q - e2 as u32);
        (vr, vp, vm) = (mul_shift(mv, mul, j), mul_shift(mp, mul, j), mul_shift(mm, mul, j));
        e10 = q as i32;
        // Within 3 of each other, at most one of mm, mv and mp is a
        // multiple of 5, and only an end's exactness matters.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_zeros = multiple_of_pow5(mm, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2 as u32) - u32::from(-e2 > 1);
        let i = -e2 as u32 - q;
        let (mul, j) = (POW5[i as usize], q + POW5_BITS - pow5bits(i));
        (vr, vp, vm) = (mul_shift(mv, mul, j), mul_shift(mp, mul, j), mul_shift(mm, mul, j));
        e10 = q as i32 + e2;
        if q <= 1 {
            // mm has a trailing zero bit iff mm_shift is 1; mp always has.
            if accept_bounds {
                vm_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    let mut removed = 0;
    let output = if vm_zeros {
        // Rare: the lower end is exact and included, so dropping its
        // trailing zeros may still shorten the result.
        let mut last = 0;
        while vp / 10 > vm / 10 {
            vm_zeros &= vm % 10 == 0;
            last = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        if vm_zeros {
            while vm % 10 == 0 {
                last = vr % 10;
                (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
                removed += 1;
            }
        }
        vr + u64::from((vr == vm && !vm_zeros) || last >= 5)
    } else {
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

/// `"00" "01" .. "99"`.
const PAIRS: [u8; 200] = {
    let mut t = [0; 200];
    let mut i = 0;
    while i < 100 {
        t[2 * i] = b'0' + (i / 10) as u8;
        t[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    t
};

/// Write `n` in decimal at the end of `buf` and return where its digits
/// start: eight at a time in two independent halves, then by pairs.
fn write_digits(mut n: u64, buf: &mut [u8]) -> usize {
    let mut at = buf.len();
    let mut put = |at: usize, pair: u32| {
        let p = pair as usize * 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[p..p + 2]);
    };
    while n >= 100_000_000 {
        let low = (n % 100_000_000) as u32;
        n /= 100_000_000;
        let (hi4, lo4) = (low / 10_000, low % 10_000);
        put(at - 2, lo4 % 100);
        put(at - 4, lo4 / 100);
        put(at - 6, hi4 % 100);
        put(at - 8, hi4 / 100);
        at -= 8;
    }
    let mut n = n as u32;
    while n >= 100 {
        put(at - 2, n % 100);
        n /= 100;
        at -= 2;
    }
    if n >= 10 {
        put(at - 2, n);
        at - 2
    } else {
        buf[at - 1] = b'0' + n as u8;
        at - 1
    }
}

/// The longest zero run `Display` writes: the 323 after the point of
/// `5e-324`.
const ZEROS: &str = match std::str::from_utf8(&[b'0'; 323]) {
    Ok(zeros) => zeros,
    Err(_) => panic!("zeros are ASCII"),
};

fn ascii(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("digits, zeros and a point are ASCII")
}

/// Append finite `v` as `format!("{v}")` prints it: the shortest
/// round-trip digits in plain decimal, never an exponent (`1e-7` is
/// `0.0000001`, `1e300` a 1 and 300 zeros), and `-0` for negative zero.
pub(super) fn write_finite(out: &mut String, v: f64) {
    if v.is_sign_negative() {
        out.push('-');
    }
    if v == 0.0 {
        out.push('0');
        return;
    }
    let bits = v.to_bits();
    let (digits, exp) = shortest(bits & ((1 << MANT_BITS) - 1), (bits >> MANT_BITS) as u32 & 0x7ff);
    // The digits sit at the end of a run of zeros, so a point and the
    // zeros around them are mostly written already.
    let mut buf = [b'0'; 64];
    let start = write_digits(digits, &mut buf);
    let len = buf.len() - start;
    // Digits before the decimal point, and its distance from the first.
    let point = len as i32 + exp;
    let dist = point.unsigned_abs() as usize;
    if point <= 0 && dist + 2 <= start {
        // `0.`, `-point` zeros, the digits.
        buf[start - dist - 1] = b'.';
        out.push_str(ascii(&buf[start - dist - 2..]));
    } else if point > 0 && dist < len {
        // The first `point` digits move left one to make room for the point.
        buf.copy_within(start..start + dist, start - 1);
        buf[start - 1 + dist] = b'.';
        out.push_str(ascii(&buf[start - 1..]));
    } else if point > 0 && dist <= buf.len() {
        // The digits, then zeros up to the point.
        buf.copy_within(start.., 0);
        buf[len..dist].fill(b'0');
        out.push_str(ascii(&buf[..dist]));
    } else {
        // A zero run `buf` cannot hold: some values under 1e-45, all from
        // 1e64 up.
        let digits = ascii(&buf[start..]);
        if point <= 0 {
            out.push_str("0.");
            out.push_str(&ZEROS[..dist]);
            out.push_str(digits);
        } else {
            out.push_str(digits);
            out.push_str(&ZEROS[..dist - len]);
        }
    }
}
