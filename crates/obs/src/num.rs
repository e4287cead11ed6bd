//! Number writers for the JSON output, without `core::fmt`.
//!
//! Integers are written two digits per step from a 200-byte table of digit
//! pairs. Floats are written as the shortest decimal that reads back to
//! the same `f64`, computed exactly by Ryū (Adams, "Ryū: fast
//! float-to-string conversion", PLDI 2018) from two 125-bit power-of-five
//! tables (`num/pow5.rs`, generated by `scripts/gen_pow5.py`). The text is
//! byte for byte what `format!("{v}")` writes plus a `.0` on whole numbers:
//! no exponent, `-0.0` for negative zero, and, where two shortest
//! candidates are equally close, the larger one, as std picks (reference
//! Ryū rounds such ties to even).

mod pow5;

use pow5::{POW5_INV_SPLIT, POW5_SPLIT};

/// The two ASCII digits of every value below 100, in order.
const DIGIT_PAIRS: &[u8] = concat!(
    "0001020304050607080910111213141516171819",
    "2021222324252627282930313233343536373839",
    "4041424344454647484950515253545556575859",
    "6061626364656667686970717273747576777879",
    "8081828384858687888990919293949596979899",
)
.as_bytes();

/// Append the decimal digits of `v`.
pub fn write_u64(out: &mut String, v: u64) {
    let mut buf = [0u8; 20];
    let start = digits(&mut buf, v);
    // Char by char: most integers written are a few digits long, where
    // this beats checking them as one `str`.
    out.extend(buf[start..].iter().map(|&b| char::from(b)));
}

/// Append the decimal digits of `v`, after a `-` when negative.
pub fn write_i64(out: &mut String, v: i64) {
    if v < 0 {
        out.push('-');
    }
    write_u64(out, v.unsigned_abs());
}

/// Append a finite `v` as its shortest round-trip decimal, with `.0` on
/// whole numbers.
pub(crate) fn write_f64(out: &mut String, v: f64) {
    let bits = v.to_bits();
    if bits >> 63 != 0 {
        out.push('-');
    }
    let mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let exponent = ((bits >> MANTISSA_BITS) & 0x7ff) as u32;
    if exponent == 0 && mantissa == 0 {
        out.push_str("0.0");
        return;
    }
    let (decimal, exp10) = shortest(mantissa, exponent);
    let mut buf = [0u8; 20];
    let start = digits(&mut buf, decimal);
    let digits = &buf[start..];
    // `v` is 0.d₁d₂… × 10^point.
    let point = digits.len() as i32 + exp10;
    if point <= 0 {
        out.push_str("0.");
        push_zeros(out, -point);
        push_ascii(out, digits);
    } else if (point as usize) < digits.len() {
        let (int, frac) = digits.split_at(point as usize);
        push_ascii(out, int);
        out.push('.');
        push_ascii(out, frac);
    } else {
        push_ascii(out, digits);
        push_zeros(out, point - digits.len() as i32);
        out.push_str(".0");
    }
}

/// Write the digits of `v` at the end of `buf`; returns where they start.
fn digits(buf: &mut [u8; 20], mut v: u64) -> usize {
    let mut pos = buf.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        pos -= 2;
        buf[pos..pos + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        pos -= 1;
        buf[pos] = b'0' + v as u8;
    }
    pos
}

fn push_ascii(out: &mut String, ascii: &[u8]) {
    // Only ASCII digits reach here, so the check always passes; a float's
    // digits are many, and one checked `str` copies them faster than
    // pushing each.
    if let Ok(s) = std::str::from_utf8(ascii) {
        out.push_str(s);
    }
}

fn push_zeros(out: &mut String, n: i32) {
    out.extend(std::iter::repeat('0').take(n as usize));
}

const MANTISSA_BITS: u32 = 52;
const BIAS: i32 = 1023;
/// Bits in every entry of both power-of-five tables.
const POW5_BITS: i32 = 125;

/// `ceil(log2(5^e))` for `e` in `1..=3528`, and 1 for `e == 0`: the bit
/// length of `5^e`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `e` in `0..=1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))` for `e` in `0..=2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

fn pow5_factor(mut v: u64) -> u32 {
    let mut count = 0;
    while v % 5 == 0 {
        v /= 5;
        count += 1;
    }
    count
}

fn multiple_of_pow5(v: u64, p: u32) -> bool {
    pow5_factor(v) >= p
}

fn multiple_of_pow2(v: u64, p: u32) -> bool {
    v & ((1 << p) - 1) == 0
}

/// `(m × mul) >> j` for a 125-bit `mul` and `j` in `64..128`.
fn mul_shift(m: u64, mul: &[u64; 2], j: i32) -> u64 {
    let low = u128::from(m) * u128::from(mul[0]);
    let high = u128::from(m) * u128::from(mul[1]);
    (((low >> 64) + high) >> (j - 64)) as u64
}

/// The shortest `(d, e)` with `d × 10^e` inside the rounding interval of
/// the positive f64 with these IEEE fields (not both zero), and of those
/// the nearest; a tie goes to the larger `d`. This is Ryū's `d2d`.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> (u64, i32) {
    // Two extra bits so the interval's bounds are integers below.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // An even mantissa rounds to itself from either bound, so both belong
    // to the interval.
    let accept_bounds = m2 % 2 == 0;

    // The interval is (mv - 1 - mm_shift, mv + 2) in units of 2^e2 / 4
    // (the lower gap is half as wide just above a power of two).
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);

    // Scale the three values by a power of ten so they become integers.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    let mut vr_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_BITS + pow5_bits(q as i32) - 1;
        let j = -e2 + q as i32 + k;
        let mul = &POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 21 {
            // At most one of mp, mv and mm is a multiple of 5.
            if mv % 5 == 0 {
                vr_is_trailing_zeros = multiple_of_pow5(mv, q);
            } else if accept_bounds {
                vm_is_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITS;
        let j = q as i32 - k;
        let mul = &POW5_SPLIT[i as usize];
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if q <= 1 {
            // mv = 4 × m2 has at least two trailing zero bits.
            vr_is_trailing_zeros = true;
            if accept_bounds {
                // mm = mv - 1 - mm_shift has one iff mm_shift is 1.
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                // mp = mv + 2 has at least one.
                vp -= 1;
            }
        } else if q < 63 {
            vr_is_trailing_zeros = multiple_of_pow2(mv, q);
        }
    }

    // Drop digits while the interval still holds a shorter number.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros || vr_is_trailing_zeros {
        // The rare case: a bound or the value itself may be exact.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm % 10 == 0;
            vr_is_trailing_zeros &= last_removed_digit == 0;
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm % 10 == 0 {
                vr_is_trailing_zeros &= last_removed_digit == 0;
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        // Round to nearest. When `vr` was exact and the removed digits are
        // exactly 5000…, the two candidates are equally close: std takes
        // the larger one, as here, where reference Ryū rounds to even.
        let tie = vr_is_trailing_zeros && last_removed_digit == 5;
        let outside = vr == vm && (!accept_bounds || !vm_is_trailing_zeros);
        vr + u64::from(outside || tie || last_removed_digit >= 5)
    } else {
        // The common case: neither the value nor its lower bound is exact,
        // so no tie is possible.
        let mut round_up = false;
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    (output, e10 + removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use std::fmt::Write as _;

    /// The float writer this module replaced, kept verbatim as the oracle:
    /// `core::fmt`'s shortest round-trip digits plus the `.0` rule.
    fn fmt_write_f64(out: &mut String, v: f64) {
        if !v.is_finite() {
            out.push_str("null");
            return;
        }
        let start = out.len();
        let _ = write!(out, "{v}");
        // `{}` drops the ".0" on whole floats; keep it so the value stays
        // typed as a float on the reader side.
        if !out[start..].contains(['.', 'e', 'E']) {
            out.push_str(".0");
        }
    }

    /// Compares the writers over `values`, returning the first mismatch.
    struct Oracle {
        got: String,
        want: String,
        checked: u64,
    }

    impl Oracle {
        fn new() -> Self {
            Self {
                got: String::new(),
                want: String::new(),
                checked: 0,
            }
        }

        fn check(&mut self, v: f64) {
            self.got.clear();
            self.want.clear();
            json::write_f64(&mut self.got, v);
            fmt_write_f64(&mut self.want, v);
            assert_eq!(self.got, self.want, "bits {:#018x}", v.to_bits());
            self.checked += 1;
        }

        /// `v` and the f64s one ulp either side of it.
        fn check_around(&mut self, v: f64) {
            let bits = v.to_bits();
            for b in [bits.wrapping_sub(1), bits, bits.wrapping_add(1)] {
                self.check(f64::from_bits(b));
            }
        }
    }

    /// SplitMix64: a seeded stream of bit patterns.
    struct Bits(u64);

    impl Bits {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in [0, 1) with a full 53-bit mantissa.
        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// A value shaped like a served score: a log-odds margin in
        /// (-16, 16), or a probability in [0, 1), at full precision.
        fn score_like(&mut self) -> f64 {
            match self.next() % 4 {
                0 => self.unit(),
                1 => (self.unit() - 0.5) * 32.0,
                2 => (self.unit() - 0.5) * 4.0,
                _ => 1.0 / (1.0 + (-(self.unit() - 0.5) * 20.0).exp()),
            }
        }

        /// An f64 a quarter, half or whole ulp off an integer in
        /// [2^50, 2^53): many of them tie between two shortest candidates.
        fn near_2_to_the_50s(&mut self) -> f64 {
            let e = 50 + self.next() % 3;
            let base = (1u64 << e) + self.next() % (1 << e);
            let ulp = (-((53 - e) as f64)).exp2();
            base as f64 + (self.next() % 4) as f64 * ulp
        }

        /// `k / 2^m`: exact binary fractions, whose decimal expansions end
        /// in 5 and so can tie.
        fn dyadic(&mut self) -> f64 {
            let k = self.next() % (1 << (1 + self.next() % 53));
            k as f64 * (-((self.next() % 80) as f64)).exp2()
        }

        fn subnormal(&mut self) -> f64 {
            f64::from_bits((self.next() & ((1 << 52) - 1)) | (self.next() & (1 << 63)))
        }
    }

    #[test]
    fn fixed_hard_cases_match_the_fmt_writer() {
        let mut oracle = Oracle::new();
        let cases = [
            0.0,
            -0.0,
            5e-324,
            -5e-324,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1e21,
            1e22,
            1e23,
            0.1,
            0.2,
            0.3,
            0.1 + 0.2,
            (-25f64).exp2(),
            50f64.exp2() + 0.25,
            53f64.exp2() + 1.0,
            1.0,
            -1.0,
            100.0,
            123456.0,
            1.5,
            9007199254740991.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in cases {
            oracle.check_around(v);
        }
        let mut out = String::new();
        for (v, text) in [
            ((-25f64).exp2(), "0.00000002980232238769531"),
            (50f64.exp2() + 0.25, "1125899906842624.3"),
            (-0.0, "-0.0"),
            (1e21, "1000000000000000000000.0"),
            (0.3, "0.3"),
            (f64::NAN, "null"),
        ] {
            out.clear();
            json::write_f64(&mut out, v);
            assert!(out.starts_with(text), "{out} for {v:e}");
        }
    }

    #[test]
    fn every_power_of_two_and_ten_matches_the_fmt_writer() {
        let mut oracle = Oracle::new();
        for e in -1074..=1023 {
            oracle.check_around(f64::from(e).exp2());
            oracle.check_around(-f64::from(e).exp2());
        }
        for k in -323..=308 {
            let v: f64 = format!("1e{k}").parse().expect("a power of ten");
            oracle.check_around(v);
        }
    }

    #[test]
    fn random_bits_and_score_like_values_match_the_fmt_writer() {
        let mut oracle = Oracle::new();
        let mut bits = Bits(0x5eed);
        for _ in 0..200_000 {
            oracle.check(f64::from_bits(bits.next()));
            oracle.check(bits.score_like());
        }
        for _ in 0..20_000 {
            oracle.check(bits.near_2_to_the_50s());
            oracle.check(bits.dyadic());
            oracle.check(bits.subnormal());
        }
        assert_eq!(oracle.checked, 460_000);
    }

    /// The release-mode sweep: `cargo test --release -p microbrowse-obs
    /// --lib num::tests::sweep -- --ignored`.
    #[test]
    #[ignore = "60 M values; run in release"]
    fn sweep() {
        let mut oracle = Oracle::new();
        let mut bits = Bits(0x5eed_2018);
        for _ in 0..10_000_000 {
            oracle.check(f64::from_bits(bits.next()));
            oracle.check(f64::from_bits(bits.next()));
            oracle.check(bits.score_like());
            oracle.check(bits.score_like());
            oracle.check(bits.near_2_to_the_50s());
            oracle.check(if bits.next() % 2 == 0 {
                bits.dyadic()
            } else {
                bits.subnormal()
            });
        }
        assert_eq!(oracle.checked, 60_000_000);
    }

    #[test]
    fn integers_match_the_fmt_writer() {
        let mut out = String::new();
        let mut check_u = |v: u64| {
            out.clear();
            write_u64(&mut out, v);
            assert_eq!(out, v.to_string());
        };
        (0..=10_000).for_each(&mut check_u);
        for k in 0..20 {
            let p = 10u64.pow(k);
            [p - 1, p, p + 1].into_iter().for_each(&mut check_u);
        }
        check_u(u64::MAX);
        check_u(u64::MAX - 1);
        let mut out = String::new();
        let mut check_i = |v: i64| {
            out.clear();
            write_i64(&mut out, v);
            assert_eq!(out, v.to_string());
        };
        (-10_000..=10_000).for_each(&mut check_i);
        for k in 0..19 {
            let p = 10i64.pow(k);
            [-p - 1, -p, -p + 1, p - 1, p, p + 1]
                .into_iter()
                .for_each(&mut check_i);
        }
        [i64::MIN, i64::MIN + 1, i64::MAX]
            .into_iter()
            .for_each(&mut check_i);
    }

    /// A natural number in little-endian 64-bit limbs: just enough
    /// arithmetic to re-derive the power-of-five tables.
    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Big(Vec<u64>);

    impl PartialOrd for Big {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    impl Ord for Big {
        /// Limbs carry no leading zeros, so the longer number is larger.
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            let (a, b) = (&self.0, &other.0);
            a.len()
                .cmp(&b.len())
                .then_with(|| a.iter().rev().cmp(b.iter().rev()))
        }
    }

    impl Big {
        fn new(limbs: Vec<u64>) -> Self {
            let mut limbs = limbs;
            while limbs.last() == Some(&0) {
                limbs.pop();
            }
            Big(limbs)
        }

        fn pow2(n: u32) -> Self {
            let mut limbs = vec![0; n as usize / 64 + 1];
            limbs[n as usize / 64] = 1 << (n % 64);
            Big::new(limbs)
        }

        fn bits(&self) -> u32 {
            self.0
                .last()
                .map_or(0, |top| 64 * self.0.len() as u32 - top.leading_zeros())
        }

        fn mul_small(&self, m: u64) -> Self {
            let mut carry = 0u128;
            let mut limbs: Vec<u64> = self
                .0
                .iter()
                .map(|&l| {
                    let p = u128::from(l) * u128::from(m) + carry;
                    carry = p >> 64;
                    p as u64
                })
                .collect();
            limbs.push(carry as u64);
            Big::new(limbs)
        }

        fn add(&self, other: &Big) -> Self {
            let n = self.0.len().max(other.0.len());
            let mut carry = 0u128;
            let mut limbs: Vec<u64> = (0..n)
                .map(|i| {
                    let limb = |b: &Big| u128::from(b.0.get(i).copied().unwrap_or(0));
                    let s = limb(self) + limb(other) + carry;
                    carry = s >> 64;
                    s as u64
                })
                .collect();
            limbs.push(carry as u64);
            Big::new(limbs)
        }

        /// `self × 2^n` for a non-negative `n`, `self / 2^-n` (floored)
        /// for a negative one.
        fn shift(&self, n: i32) -> Self {
            let bits = self.bits() as i32;
            let mut limbs = vec![0; ((bits + n).max(0) as usize) / 64 + 1];
            for b in 0..bits {
                if self.0[b as usize / 64] >> (b % 64) & 1 == 1 && b + n >= 0 {
                    limbs[(b + n) as usize / 64] |= 1 << ((b + n) % 64);
                }
            }
            Big::new(limbs)
        }

        fn from_words(w: [u64; 2]) -> Self {
            Big::new(w.to_vec())
        }

        /// `self × w` for a 128-bit `w` given as `[low, high]` words.
        fn mul_words(&self, w: [u64; 2]) -> Self {
            self.mul_small(w[0]).add(&self.mul_small(w[1]).shift(64))
        }
    }

    #[test]
    fn tables_match_their_definition() {
        let mut pow5 = Big::new(vec![1]);
        for q in 0..POW5_INV_SPLIT.len().max(POW5_SPLIT.len()) {
            let len = pow5.bits() as i32;
            if let Some(&entry) = POW5_SPLIT.get(q) {
                // The top 125 bits of 5^q.
                assert_eq!(
                    Big::from_words(entry),
                    pow5.shift(POW5_BITS - len),
                    "POW5_SPLIT[{q}]"
                );
            }
            if let Some(&entry) = POW5_INV_SPLIT.get(q) {
                // entry = floor(2^j / 5^q) + 1, that is
                // (entry - 1) × 5^q <= 2^j < entry × 5^q.
                let two_j = Big::pow2((len - 1 + POW5_BITS) as u32);
                let product = pow5.mul_words(entry);
                assert!(two_j < product, "POW5_INV_SPLIT[{q}] too small");
                assert!(product <= two_j.add(&pow5), "POW5_INV_SPLIT[{q}] too big");
            }
            pow5 = pow5.mul_small(5);
        }
    }
}
