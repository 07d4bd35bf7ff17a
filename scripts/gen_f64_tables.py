#!/usr/bin/env python3
"""Generate the power-of-5 tables of the f64 shortest-decimal printer.

Writes crates/obs/src/json/f64_tables.rs to stdout. The printer
(crates/obs/src/json/shortest.rs) scales a binary value by 5^i or 5^-i,
each kept as a 125-bit fixed-point number. Only every 26th power is stored
(the `*_SPLIT2` tables); the printer multiplies one of those by an exact
5^k from `POW5_TABLE` (k < 26) and adds a 2-bit correction from the
`*_OFFSETS` tables, which this script derives by redoing that product and
comparing it with the exact value. This is Ryu's small-table variant
(Adams, PLDI 2018).

Stdlib only. CI regenerates the file and diffs it against the committed one:

    python3 scripts/gen_f64_tables.py | diff - crates/obs/src/json/f64_tables.rs
"""

BITS = 125  # fixed-point width of every 5^i and 5^-i
STEP = 26  # powers between two stored ones: 5^25 is the largest u64 power
MASK128 = (1 << 128) - 1

# IEEE-754 binary64.
MANT_BITS = 52
BIAS = 1023


def pow5bits(e):
    """ceil(log2(5^e)) for e >= 1, 1 for e == 0: the printer's formula."""
    return ((e * 1217359) >> 19) + 1


def log10_pow2(e):
    return (e * 78913) >> 18


def log10_pow5(e):
    return (e * 732923) >> 20


def pow5_fixed(i):
    """5^i scaled to BITS bits, truncated."""
    p = 5**i
    shift = p.bit_length() - BITS
    return p >> shift if shift >= 0 else p << -shift


def inv_pow5_fixed(i):
    """2^(bitlen(5^i) - 1 + BITS) / 5^i, rounded up."""
    p = 5**i
    return (1 << (p.bit_length() - 1 + BITS)) // p + 1


def ranges():
    """The largest 5^-q and 5^i the printer looks up over every exponent."""
    max_q, max_i = 0, 0
    for ieee_exp in range(1, 2047):  # exponent 0 scales like exponent 1
        e2 = ieee_exp - BIAS - MANT_BITS - 2
        if e2 >= 0:
            max_q = max(max_q, log10_pow2(e2) - (e2 > 3))
        else:
            q = log10_pow5(-e2) - (-e2 > 1)
            max_i = max(max_i, -e2 - q)
    return max_q, max_i


def split(v):
    assert 0 <= v < 1 << 128
    return v & ((1 << 64) - 1), v >> 64


def pow5_offsets(split2, max_i):
    """Per i: the exact 5^i minus the printer's product of a stored power."""
    out = []
    for i in range(max_i + 1):
        base = i // STEP
        off = i - base * STEP
        if off == 0:
            out.append(0)
            continue
        lo, hi = split(split2[base])
        m = 5**off
        delta = pow5bits(i) - pow5bits(base * STEP)
        got = ((m * lo) >> delta) + (((m * hi) << (64 - delta)) & MASK128)
        out.append(pow5_fixed(i) - (got & MASK128))
    return out


def inv_pow5_offsets(inv_split2, max_q):
    """Per q: the exact 5^-q minus the printer's product of a stored power."""
    out = []
    for i in range(max_q + 1):
        base = (i + STEP - 1) // STEP
        off = base * STEP - i
        if off == 0:
            out.append(0)
            continue
        lo, hi = split(inv_split2[base])
        assert lo >= 1
        m = 5**off
        delta = pow5bits(base * STEP) - pow5bits(i)
        got = ((m * (lo - 1)) >> delta) + (((m * hi) << (64 - delta)) & MASK128) + 1
        out.append(inv_pow5_fixed(i) - (got & MASK128))
    return out


def packed(offsets):
    """Two bits per entry, sixteen entries per u32, low bits first."""
    assert all(0 <= o <= 3 for o in offsets), offsets
    words = []
    for at in range(0, len(offsets), 16):
        words.append(sum(o << (2 * k) for k, o in enumerate(offsets[at : at + 16])))
    return words


def rust_table(name, ty, rows, doc):
    lines = [f"/// {doc}", "#[rustfmt::skip]", f"pub(super) const {name}: [{ty}; {len(rows)}] = ["]
    lines += [f"    {r}," for r in rows]
    lines.append("];")
    return "\n".join(lines)


def main():
    for e in range(1, 3529):
        assert pow5bits(e) == (5**e).bit_length()
    max_q, max_i = ranges()
    split2 = [pow5_fixed(b * STEP) for b in range(max_i // STEP + 1)]
    inv_split2 = [inv_pow5_fixed(b * STEP) for b in range((max_q + STEP - 1) // STEP + 1)]

    def pair(v):
        lo, hi = split(v)
        return f"({lo:#018x}, {hi:#018x})"

    tables = [
        rust_table(
            "POW5_TABLE", "u64", [f"{5**k:#018x}" for k in range(STEP)], f"5^k for k in 0..{STEP}."
        ),
        rust_table(
            "POW5_SPLIT2",
            "(u64, u64)",
            [pair(v) for v in split2],
            f"5^({STEP}b) in {BITS} bits, truncated, as (low, high) words.",
        ),
        rust_table(
            "POW5_OFFSETS",
            "u32",
            [f"{w:#010x}" for w in packed(pow5_offsets(split2, max_i))],
            f"Corrections of the products of `POW5_SPLIT2` for 5^0..=5^{max_i}.",
        ),
        rust_table(
            "POW5_INV_SPLIT2",
            "(u64, u64)",
            [pair(v) for v in inv_split2],
            f"2^(bitlen(5^({STEP}b)) - 1 + {BITS}) / 5^({STEP}b), rounded up, as (low, high) words.",
        ),
        rust_table(
            "POW5_INV_OFFSETS",
            "u32",
            [f"{w:#010x}" for w in packed(inv_pow5_offsets(inv_split2, max_q))],
            f"Corrections of the products of `POW5_INV_SPLIT2` for 5^-0..=5^-{max_q}.",
        ),
    ]
    print("// Generated by scripts/gen_f64_tables.py; do not edit by hand.")
    print()
    print("/// Fixed-point width of every tabled power of 5.")
    print(f"pub(super) const POW5_BITS: u32 = {BITS};")
    print("/// The powers the printer looks up: 5^0..5^POW5_LEN, 5^-0..5^-INV_POW5_LEN.")
    print(f"pub(super) const POW5_LEN: usize = {max_i + 1};")
    print(f"pub(super) const INV_POW5_LEN: usize = {max_q + 1};")
    print()
    print("\n\n".join(tables))


if __name__ == "__main__":
    main()
