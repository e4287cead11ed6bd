#!/usr/bin/env python3
"""Generate crates/obs/src/num/pow5.rs, the power-of-five tables of the
shortest round-trip f64 writer (Ryu, Adams, PLDI 2018).

Each entry is a 125-bit approximation split into (low, high) 64-bit words:

  POW5_INV_SPLIT[q] = floor(2^(bitlen(5^q) - 1 + 125) / 5^q) + 1   q < 342
  POW5_SPLIT[i]     = floor(5^i / 2^(bitlen(5^i) - 125))            i < 326

(the second shifts left when 5^i has fewer than 125 bits). 342 and 326
cover every exponent an f64 reaches. The Rust test
`num::tests::tables_match_their_definition` re-derives every entry with a
test-only bigint, so CI checks the checked-in file without Python.

Usage: scripts/gen_pow5.py   (from anywhere in the repo; rewrites the file)
"""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "crates", "obs", "src", "num", "pow5.rs")

BITS = 125
INV_LEN = 342
POS_LEN = 326


def inv_entry(q):
    p = 5**q
    return (1 << (p.bit_length() - 1 + BITS)) // p + 1


def pos_entry(i):
    p = 5**i
    shift = p.bit_length() - BITS
    return p >> shift if shift >= 0 else p << -shift


def table(name, doc, values):
    lines = [f"/// {line}".rstrip() for line in doc]
    lines.append("#[rustfmt::skip]")
    lines.append(f"pub(super) const {name}: [[u64; 2]; {len(values)}] = [")
    for v in values:
        assert 0 < v < 1 << 128
        lo, hi = v & (2**64 - 1), v >> 64
        lines.append(f"    [0x{lo:016x}, 0x{hi:016x}],")
    lines.append("];")
    return lines


def main():
    out = [
        "//! Power-of-five tables for the shortest round-trip f64 writer, as",
        "//! `[low, high]` words of 125-bit values. Generated by",
        "//! `scripts/gen_pow5.py`; do not edit. `num::tests` re-derives every",
        "//! entry.",
        "",
    ]
    out += table(
        "POW5_INV_SPLIT",
        ["`floor(2^(bitlen(5^q) - 1 + 125) / 5^q) + 1` for each `q`."],
        [inv_entry(q) for q in range(INV_LEN)],
    )
    out.append("")
    out += table(
        "POW5_SPLIT",
        ["The top 125 bits of `5^i` for each `i`."],
        [pos_entry(i) for i in range(POS_LEN)],
    )
    with open(OUT, "w", encoding="utf-8") as f:
        f.write("\n".join(out) + "\n")


if __name__ == "__main__":
    main()
