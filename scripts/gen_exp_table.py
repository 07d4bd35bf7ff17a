#!/usr/bin/env python3
"""Generate the table and reduction constants of the in-tree f64 exp.

Writes crates/matrix/src/kernel/exp_table.rs to stdout. The kernel
(`dm_matrix::kernel::exp`, crates/matrix/src/kernel.rs) writes
x = k ln2/N + r with N = 2^TABLE_BITS and |r| <= ln2/(2N), then
exp(x) = 2^(k/N) exp(r). Row j of the table holds 2^(j/N) for j in 0..N
as two columns:

* the bits of H_j, 2^(j/N) rounded to f64, minus j << (52 - TABLE_BITS),
  so that adding k << (52 - TABLE_BITS) to row k mod N gives the bits of
  2^(k/N) rounded (the quotient k div N lands in the exponent field);
* the relative tail T_j = (2^(j/N) - H_j) / H_j, rounded to f64, so that
  2^(j/N) = H_j (1 + T_j) to about 2^-106.

The reduction splits ln2/N into a head with few enough significant bits
that k times it is exact for every k the kernel forms, and the rounded rest.

Every value is computed exactly from integers (2^(j/N) by repeated integer
square roots, ln 2 from its series) and rounded once by `float(Fraction)`.
Stdlib only. CI regenerates the file and diffs it against the committed one:

    python3 scripts/gen_exp_table.py | diff - crates/matrix/src/kernel/exp_table.rs
"""

import struct
from fractions import Fraction
from math import isqrt

TABLE_BITS = 7  # N = 128 rows
N = 1 << TABLE_BITS
PREC = 256  # fixed-point bits of the exact values before rounding
# |k| < 2^KBITS for every |x| < 1024, the kernel's largest reduced input:
# 1024 N / ln2 < 2^18.
KBITS = 18
HEAD_BITS = 53 - KBITS  # significant bits of the head of ln2/N


def bits(v):
    return struct.unpack("<Q", struct.pack("<d", v))[0]


def pow2_frac(j):
    """2^(j/N) as a Fraction, to PREC bits, by TABLE_BITS integer square roots."""
    v = 1 << (j + PREC * N)
    for _ in range(TABLE_BITS):
        v = isqrt(v)
    return Fraction(v, 1 << PREC)


def ln2_frac():
    """ln 2 = sum over i >= 1 of 1 / (i 2^i), to PREC bits (the tail after
    PREC + 16 terms is below 2^-PREC)."""
    one = 1 << (PREC + 16)
    total = sum(one // (i << i) for i in range(1, PREC + 17))
    return Fraction(total, one)


def head(v, sig):
    """v rounded to `sig` significant bits."""
    e = v.numerator.bit_length() - v.denominator.bit_length()
    scale = Fraction(2) ** (sig - 1 - e)
    return Fraction(round(v * scale)) / scale


def main():
    ln2_n = ln2_frac() / N
    hi = head(ln2_n, HEAD_BITS)
    # HEAD_BITS + KBITS = 53: k hi is exact for |k| < 2^KBITS.
    assert Fraction(float(hi)) == hi
    lo = float(ln2_n - hi)
    inv = float(1 / ln2_n)
    rows = []
    for j in range(N):
        exact = pow2_frac(j)
        h = float(exact)
        tail = float((exact - Fraction(h)) / Fraction(h))
        shifted = (bits(h) - (j << (52 - TABLE_BITS))) % (1 << 64)
        rows.append(f"    [{bits(tail):#018x}, {shifted:#018x}],")
    print("// Generated by scripts/gen_exp_table.py; do not edit by hand.")
    print()
    print("/// log2 of the table's row count N.")
    print(f"pub(super) const TABLE_BITS: u32 = {TABLE_BITS};")
    print("/// N / ln2, rounded.")
    print(f"pub(super) const INV_LN2_N: f64 = {inv!r};")
    print(f"/// ln2 / N rounded to {HEAD_BITS} significant bits: k times it is exact for |k| < 2^{KBITS}.")
    print(f"pub(super) const LN2_HI_N: f64 = {float(hi)!r};")
    print("/// ln2 / N minus `LN2_HI_N`, rounded.")
    print(f"pub(super) const LN2_LO_N: f64 = {lo!r};")
    print()
    print("/// Row j: the bits of the relative tail T_j, and the bits of H_j minus")
    print(f"/// j << {52 - TABLE_BITS}, where 2^(j/N) = H_j (1 + T_j).")
    print("#[rustfmt::skip]")
    print(f"pub(super) const EXP_TABLE: [[u64; 2]; {N}] = [")
    print("\n".join(rows))
    print("];")


if __name__ == "__main__":
    main()
