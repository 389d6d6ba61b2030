//! Fixed-point arithmetic for the run-time optimizer.
//!
//! Paper Section 4.3: "a straightforward floating-point implementation
//! of Algorithm 1 may lead to long execution times due to the high cost
//! of computing the probabilistic functions, we use custom fixed-point
//! implementations of `rand` and `e^x` that trade off performance with
//! uniformity (`rand`) and precision (`e^x`) without significantly
//! compromising the quality of the final solution."
//!
//! [`Fx`] is a Q47.16 signed fixed-point value; [`fx_exp_neg`] computes
//! `e^{-x}` by binary decomposition against a table of `e^{-2^k}`
//! constants (shift-and-multiply, no division, no floats at run time);
//! [`Randi`] is the paper's `randi()` — a 32-bit xorshift uniform
//! generator with `randi(x, y)` range variant.

/// Fractional bits of the fixed-point representation.
pub const FRAC_BITS: u32 = 16;

/// The fixed-point scale (`2^16`).
pub const ONE: i64 = 1 << FRAC_BITS;

/// A Q47.16 signed fixed-point number.
///
/// # Examples
///
/// ```
/// use smartbalance::fixed::Fx;
///
/// let a = Fx::from_f64(1.5);
/// let b = Fx::from_f64(2.0);
/// assert!((a.mul(b).to_f64() - 3.0).abs() < 1e-4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Fx(pub i64);

impl Fx {
    /// The value 0.
    pub const ZERO: Fx = Fx(0);
    /// The value 1.
    pub const ONE: Fx = Fx(ONE);

    /// Converts from `f64` (saturating on overflow of the integer part).
    pub fn from_f64(v: f64) -> Fx {
        Fx((v * ONE as f64) as i64)
    }

    /// Converts to `f64`.
    pub fn to_f64(self) -> f64 {
        self.0 as f64 / ONE as f64
    }

    /// Fixed-point multiply (rounds toward zero).
    #[allow(clippy::should_implement_trait)]
    pub const fn mul(self, rhs: Fx) -> Fx {
        Fx(((self.0 as i128 * rhs.0 as i128) >> FRAC_BITS) as i64)
    }

    /// Saturating add.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Fx) -> Fx {
        Fx(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtract.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Fx) -> Fx {
        Fx(self.0.saturating_sub(rhs.0))
    }
}

/// `e^{-2^k}` for `k = -16 .. 4` would underflow quickly; we tabulate
/// `e^{-2^{k-16}}` in fixed point for the binary decomposition of the
/// Q16 fraction plus small integer part. Entry `k` is
/// `e^{-(1 << k) / 65536}` in Q16.
const EXP_TABLE: [i64; 21] = [
    65535, // e^-(1/65536)
    65534, 65532, 65528, 65520, 65504, 65472, 65408, 65280, 65025, 64519, 63519, 61565, 57835,
    51039, 39749, 24109, 8869, 1200, 22, 0,
];

/// Raw inputs at or above this (12 in Q16) give 0: `e^{-12} < 2^{-16}`.
const EXP_CUTOFF: i64 = 12 << FRAC_BITS;

/// Bits of `x` whose factors [`EXP_LOW`] folds into one lookup.
const EXP_LOW_BITS: usize = 10;

/// Bits below [`EXP_CUTOFF`]: `x < 12·2^16 < 2^20`.
const EXP_BITS: usize = 20;

/// `EXP_LOW[b]` is the product of `EXP_TABLE[k]` over the set bits `k`
/// of `b`, one truncating multiply per set bit in ascending order: the
/// decomposition [`fx_exp_neg`] evaluates, restricted to the low
/// [`EXP_LOW_BITS`] bits and run at compile time.
const EXP_LOW: [i64; 1 << EXP_LOW_BITS] = {
    let mut table = [0; 1 << EXP_LOW_BITS];
    let mut b = 0;
    while b < table.len() {
        let mut product = Fx::ONE;
        let mut k = 0;
        while k < EXP_LOW_BITS {
            if b & (1 << k) != 0 {
                product = product.mul(Fx(EXP_TABLE[k]));
            }
            k += 1;
        }
        table[b] = product.0;
        b += 1;
    }
    table
};

/// Computes `e^{-x}` in fixed point for `x >= 0`.
///
/// Decomposes `x = Σ 2^{k-16}` over its set bits and multiplies the
/// tabulated `e^{-2^{k-16}}` factors in ascending bit order, truncating
/// after each multiply, no floating point. The low 10 bits' product is
/// one lookup in a 1 024-entry table; the other 10 bits each take one
/// multiply by their factor or by `ONE`, which the truncating multiply
/// leaves exact, so the loop has no data-dependent branch. Returns 0
/// for `x` beyond the table's range (where `e^{-x} < 2^{-16}` anyway).
///
/// # Panics
///
/// Panics if `x` is negative.
///
/// # Examples
///
/// ```
/// use smartbalance::fixed::{fx_exp_neg, Fx};
///
/// let y = fx_exp_neg(Fx::from_f64(1.0));
/// assert!((y.to_f64() - (-1.0f64).exp()).abs() < 1e-3);
/// ```
pub fn fx_exp_neg(x: Fx) -> Fx {
    assert!(x.0 >= 0, "fx_exp_neg requires x >= 0, got {}", x.to_f64());
    if x.0 >= EXP_CUTOFF {
        return Fx::ZERO;
    }
    let bits = x.0 as u64;
    let mut result = EXP_LOW[(bits & ((1 << EXP_LOW_BITS) - 1)) as usize];
    let high = bits >> EXP_LOW_BITS;
    for (k, &factor) in EXP_TABLE[EXP_LOW_BITS..EXP_BITS].iter().enumerate() {
        let factor = if (high >> k) & 1 != 0 { factor } else { ONE };
        // Both operands lie in [0, ONE], so the product fits in i64 and
        // this is exactly `Fx::mul`'s truncating product.
        result = (result * factor) >> FRAC_BITS;
    }
    Fx(result)
}

/// The paper's `randi()`: a uniformly distributed integer generator.
/// "randi() generates an uniformly distributed integer number in the
/// interval [0, 2^32), while randi(x, y) generates a number in the
/// interval [x, y)."
///
/// xorshift32 — three shifts and xors per draw, the kind of generator a
/// kernel hot path can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Randi {
    state: u32,
}

impl Randi {
    /// Creates a generator; a zero seed is remapped (xorshift32 has a
    /// zero fixed point).
    pub fn new(seed: u32) -> Self {
        Randi {
            state: if seed == 0 { 0x2545_F491 } else { seed },
        }
    }

    /// Uniform in `[0, 2^32)`.
    pub fn randi(&mut self) -> u32 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        self.state = x;
        x
    }

    /// Uniform in `[x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if `x >= y`.
    pub fn randi_range(&mut self, x: i64, y: i64) -> i64 {
        assert!(x < y, "empty range [{x}, {y})");
        let span = (y - x) as u64;
        x + (u64::from(self.randi()) % span) as i64
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact assertions are the determinism contract
mod tests {
    use super::*;

    #[test]
    fn roundtrip_f64() {
        for v in [-3.25, 0.0, 0.5, 1.0, 123.0625] {
            assert!((Fx::from_f64(v).to_f64() - v).abs() < 1e-4);
        }
    }

    #[test]
    fn mul_matches_float() {
        let cases = [(1.5, 2.0), (0.25, 0.25), (-3.0, 0.5), (100.0, 0.01)];
        for (a, b) in cases {
            let got = Fx::from_f64(a).mul(Fx::from_f64(b)).to_f64();
            assert!((got - a * b).abs() < 1e-3, "{a} * {b} = {got}");
        }
    }

    #[test]
    fn exp_neg_accuracy() {
        // Relative error bound across the useful domain; the paper
        // accepts reduced precision, we verify it stays below 1 %.
        for i in 0..=110 {
            let x = i as f64 * 0.1;
            let want = (-x).exp();
            let got = fx_exp_neg(Fx::from_f64(x)).to_f64();
            if want > 1e-2 {
                // Headroom above Q16 truncation: ~1 % relative.
                assert!(
                    (got - want).abs() / want < 0.01,
                    "x={x}: got {got}, want {want}"
                );
            } else {
                // Deep tail: truncation dominates; absolute bound of a
                // few Q16 ULPs is the paper's accepted precision loss.
                assert!((got - want).abs() < 1e-3, "x={x}: got {got}, want {want}");
            }
        }
    }

    /// The bit-serial decomposition `fx_exp_neg` used to run: one
    /// branch per bit and an early exit on a zero product. The
    /// table-driven version must equal it on every input.
    fn bit_serial_exp_neg(x: Fx) -> Fx {
        if x.0 >= (12 << FRAC_BITS) {
            return Fx::ZERO;
        }
        let mut result = Fx::ONE;
        let bits = x.0 as u64;
        for (k, &factor) in EXP_TABLE.iter().enumerate() {
            if bits & (1 << k) != 0 {
                result = result.mul(Fx(factor));
                if result.0 == 0 {
                    return Fx::ZERO;
                }
            }
        }
        result
    }

    #[test]
    fn exp_neg_equals_the_bit_serial_loop_on_every_input() {
        for raw in 0..(14 << FRAC_BITS) {
            assert_eq!(
                fx_exp_neg(Fx(raw)),
                bit_serial_exp_neg(Fx(raw)),
                "x = {raw}"
            );
        }
    }

    #[test]
    fn exp_neg_boundaries() {
        assert_eq!(fx_exp_neg(Fx::ZERO), Fx::ONE);
        assert_eq!(fx_exp_neg(Fx::from_f64(50.0)), Fx::ZERO);
        assert_eq!(fx_exp_neg(Fx::from_f64(12.0)), Fx::ZERO);
    }

    #[test]
    #[should_panic(expected = "requires x >= 0")]
    fn exp_neg_rejects_negative() {
        fx_exp_neg(Fx::from_f64(-1.0));
    }

    #[test]
    fn exp_neg_monotone_decreasing() {
        let mut prev = i64::MAX;
        for i in 0..200 {
            let y = fx_exp_neg(Fx(i * 4096)).0;
            assert!(y <= prev);
            prev = y;
        }
    }

    #[test]
    fn fx_add_sub_saturate() {
        let max = Fx(i64::MAX);
        assert_eq!(max.add(Fx::ONE), Fx(i64::MAX), "add saturates");
        let min = Fx(i64::MIN);
        assert_eq!(min.sub(Fx::ONE), Fx(i64::MIN), "sub saturates");
        // Ordinary arithmetic is exact.
        assert_eq!(Fx::from_f64(2.5).add(Fx::from_f64(0.5)).to_f64(), 3.0);
        assert_eq!(Fx::from_f64(2.5).sub(Fx::from_f64(0.5)).to_f64(), 2.0);
    }

    #[test]
    fn fx_ordering_matches_f64() {
        let values = [-2.0, -0.5, 0.0, 0.25, 1.0, 3.5];
        for &a in &values {
            for &b in &values {
                assert_eq!(Fx::from_f64(a) < Fx::from_f64(b), a < b, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn randi_is_deterministic_and_uniformish() {
        let mut a = Randi::new(7);
        let mut b = Randi::new(7);
        for _ in 0..100 {
            assert_eq!(a.randi(), b.randi());
        }
        // Crude uniformity: bucket counts over [0, 16) within 20 %.
        let mut counts = [0u32; 16];
        let mut r = Randi::new(99);
        let n = 160_000;
        for _ in 0..n {
            counts[(r.randi() % 16) as usize] += 1;
        }
        for c in counts {
            let dev = (c as f64 - 10_000.0).abs() / 10_000.0;
            assert!(dev < 0.2, "bucket dev {dev}");
        }
    }

    #[test]
    fn randi_range_bounds() {
        let mut r = Randi::new(3);
        for _ in 0..1_000 {
            let v = r.randi_range(-5, 12);
            assert!((-5..12).contains(&v));
        }
        // Negative-to-negative and single-element ranges.
        for _ in 0..100 {
            assert_eq!(r.randi_range(4, 5), 4);
            let v = r.randi_range(-10, -2);
            assert!((-10..-2).contains(&v));
        }
    }

    #[test]
    fn zero_seed_remapped() {
        let mut r = Randi::new(0);
        assert_ne!(r.randi(), 0, "xorshift must not get stuck at zero");
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn randi_range_rejects_empty() {
        Randi::new(1).randi_range(5, 5);
    }
}
