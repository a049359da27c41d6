//! The workspace's one `exp`, `sigmoid` and `tanh` in `f32`. Every forward
//! evaluation of them goes through here: [`Graph::sigmoid`] and
//! [`Graph::tanh`] (training, the single-request reference path, evaluation
//! and threshold calibration), the fused cell steps in [`crate::layers`] and
//! the prediction head's output.
//!
//! # Error bounds
//!
//! Measured against libm evaluated in `f64` and rounded to `f32`, over all
//! 2³² `f32` inputs (an ignored test sweeps them; the default suite checks
//! every 4,099th bit pattern plus the edge cases):
//!
//! | function | bound |
//! |---|---|
//! | [`exp`] | ≤ 1 ulp on [−87, 88], where every result is normal |
//! | [`sigmoid`] | ≤ 2 ulp wherever the result is ≥ 1e-30; ≤ 1e-7 absolute everywhere |
//! | [`tanh`] | ≤ 2 ulp everywhere; ≤ 1e-7 absolute everywhere |
//!
//! Outside [−87, 88] `exp` is still libm-shaped: it rounds to 0 below
//! ≈ −103.97, is subnormal down to there and overflows to +∞ above ≈ 88.72.
//! A NaN in gives a NaN out, so a diverged training run stays visible.
//! `exp(−∞) = 0`, `exp(+∞) = +∞`, `sigmoid(±∞)` is 1 / 0, `tanh(±∞) = ±1`,
//! `tanh` keeps the sign of a zero, `sigmoid(±0) = 0.5` and `exp(±0) = 1`.
//! `sigmoid` stays in [0, 1] and `tanh` in [−1, 1], and all three are
//! monotone non-decreasing over every pair of adjacent `f32` inputs.
//!
//! # Method
//!
//! No libm, no `floor`, no fused multiply-add and no branches: each function
//! runs the same operations on every input, and what would be a branch is a
//! select, so a loop over a slice vectorises.
//!
//! * [`exp`]: Cody–Waite reduction `x = n·ln 2 + r`, `|r| ≤ ln 2 / 2`, with
//!   `ln 2` split into a 9-bit head (so `n · head` is exact) and a tail.
//!   `n` is rounded by adding 1.5·2²³, which leaves it in the low mantissa
//!   bits of the sum, where the scale `2ⁿ` is read from without a float to
//!   integer conversion. `e^r = 1 + r + r²·P(r)` with `P` a degree-5
//!   near-minimax fit. `2ⁿ` is applied as two normal powers of two,
//!   `2^⌊n/2⌋ · 2^(n − ⌊n/2⌋)`, so a result that overflows, is subnormal or
//!   underflows is rounded once, as libm's is. The input is clamped to
//!   [−104, 89] by selects that pass a NaN through.
//! * [`sigmoid`]: `1 / (1 + exp(−x))` as written. Every step is monotone,
//!   so the result is too; where `exp(−x)` overflows (`x` below ≈ −88.72)
//!   the quotient is 0, within 1.2e-38 of the true value. The two-branch
//!   form `e / (1 + e)` for `x < 0` rounds numerator and denominator
//!   separately and steps down by an ulp at about 2 × 10⁵ inputs.
//! * [`tanh`]: for `|x| < 0.625` the odd polynomial `|x| + |x|³·Q(x²)`
//!   (`Q` of degree 5), where `(1 − e) / (1 + e)` would cancel; above it
//!   `(1 − e) / (1 + e)` with `e = exp(−2|x|)`. Both are computed and one is
//!   selected; the sign is copied from `x`.
//!
//! # The same bits everywhere
//!
//! The scalar forms are `#[inline(always)]` bodies of plain arithmetic and
//! bit operations. The in-place slice forms run them through the same
//! dispatch as [`crate::kernel::gemm_acc`], in the widest of its portable,
//! AVX2 and AVX-512 instantiations the CPU has; with no FMA and no
//! reassociation each element gets the same sequence of operations in every
//! one, so scalar ≡ slice and every instantiation ≡ every other bit for bit.
//! That keeps the fused steps bit-identical to the graph.
//!
//! [`Graph::sigmoid`]: crate::graph::Graph::sigmoid
//! [`Graph::tanh`]: crate::graph::Graph::tanh

use crate::kernel::dispatch;

/// 1.5 · 2²³: adding it to a float of magnitude below 2²² rounds it to an
/// integer (ties to even) held in the sum's low mantissa bits.
const ROUND: f32 = 12_582_912.0;
/// The head of `ln 2`, 9 significant bits, so `n · LN2_HI` is exact.
const LN2_HI: f32 = 355.0 / 512.0;
/// `ln 2 − LN2_HI`.
const LN2_LO: f32 = -2.121_944_4e-4;
/// Below this `exp` rounds to 0 and above [`EXP_MAX`] it overflows, so
/// clamping there changes no result and keeps `n` in range.
const EXP_MIN: f32 = -104.0;
/// See [`EXP_MIN`].
const EXP_MAX: f32 = 89.0;
/// `P` of `e^r = 1 + r + r²·P(r)`, highest degree first.
const EXP_POLY: [f32; 6] = [
    1.989_098_1e-4,
    1.393_364_2e-3,
    8.333_310_5e-3,
    4.166_646_7e-2,
    1.666_666_7e-1,
    0.5,
];
/// Below this `tanh` takes its odd polynomial.
const TANH_POLY_BELOW: f32 = 0.625;
/// `Q` of `tanh(a) = a + a³·Q(a²)`, highest degree first.
const TANH_POLY: [f32; 6] = [
    2.292_744_8e-3,
    -8.343_945e-3,
    2.176_891_8e-2,
    -5.395_925_8e-2,
    1.333_330_4e-1,
    -3.333_333_4e-1,
];

/// `coeffs[0]·xᵏ + … + coeffs[k]` by Horner's rule.
#[inline(always)]
fn horner(x: f32, coeffs: &[f32]) -> f32 {
    coeffs[1..].iter().fold(coeffs[0], |acc, &c| acc * x + c)
}

/// `2ⁿ` for `−126 ≤ n ≤ 127`, built from its exponent bits.
#[inline(always)]
fn pow2(n: i32) -> f32 {
    f32::from_bits(((n + 127) as u32) << 23)
}

/// `eˣ`; see the module docs for the method and error bound.
#[inline(always)]
#[must_use]
pub fn exp(x: f32) -> f32 {
    // Every comparison with a NaN is false, so these selects pass it on.
    let x = if x < EXP_MIN { EXP_MIN } else { x };
    let x = if x > EXP_MAX { EXP_MAX } else { x };
    let rounded = x * std::f32::consts::LOG2_E + ROUND;
    let n = rounded - ROUND;
    let r = (x - n * LN2_HI) - n * LN2_LO;
    let e_r = (horner(r, &EXP_POLY) * (r * r) + r) + 1.0;
    let n = rounded.to_bits().wrapping_sub(ROUND.to_bits()) as i32;
    let half = n >> 1;
    e_r * pow2(half) * pow2(n - half)
}

/// The logistic sigmoid `1 / (1 + e⁻ˣ)`; see the module docs.
#[inline(always)]
#[must_use]
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + exp(-x))
}

/// The hyperbolic tangent; see the module docs.
#[inline(always)]
#[must_use]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let a2 = a * a;
    let near_zero = a + a * a2 * horner(a2, &TANH_POLY);
    let e = exp(-2.0 * a);
    let y = if a < TANH_POLY_BELOW {
        near_zero
    } else {
        (1.0 - e) / (1.0 + e)
    };
    y.copysign(x)
}

/// Replaces every element with its [`exp`].
pub fn exp_in_place(xs: &mut [f32]) {
    dispatch(
        #[inline(always)]
        |_| xs.iter_mut().for_each(|x| *x = exp(*x)),
    );
}

/// Replaces every element with its [`sigmoid`].
pub fn sigmoid_in_place(xs: &mut [f32]) {
    dispatch(
        #[inline(always)]
        |_| xs.iter_mut().for_each(|x| *x = sigmoid(*x)),
    );
}

/// Replaces every element with its [`tanh`].
pub fn tanh_in_place(xs: &mut [f32]) {
    dispatch(
        #[inline(always)]
        |_| xs.iter_mut().for_each(|x| *x = tanh(*x)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{dispatch_to, Isa};
    use std::hint::black_box;

    /// The bounds stated in the module docs.
    const EXP_ULP: u64 = 1;
    const SIGMOID_ULP: u64 = 2;
    const SIGMOID_ULP_ABOVE: f64 = 1e-30;
    const SIGMOID_ABS: f64 = 1e-7;
    const TANH_ULP: u64 = 2;
    const TANH_ABS: f64 = 1e-7;

    /// Signed zeros, infinities, NaN, the ends of `exp`'s stated range and
    /// of its clamp, and the polynomial / quotient switch of `tanh`.
    const EDGES: [f32; 17] = [
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        1e-45,
        -87.0,
        88.0,
        88.72,
        88.73,
        -103.9,
        -104.0,
        -104.5,
        TANH_POLY_BELOW,
        -TANH_POLY_BELOW,
    ];

    /// Distance in representable `f32`s between two results.
    fn ulps(a: f32, b: f32) -> u64 {
        let key = |v: f32| {
            let bits = v.to_bits();
            if bits >> 31 == 1 {
                -i64::from(bits & 0x7fff_ffff)
            } else {
                i64::from(bits)
            }
        };
        (key(a) - key(b)).unsigned_abs()
    }

    /// Asserts every bound and range in the module docs at each non-NaN
    /// input, and that each function is monotone between consecutive ones.
    fn check(inputs: impl Iterator<Item = f32>) {
        let mut prev: Option<f32> = None;
        for x in inputs.filter(|x| !x.is_nan()) {
            check_bounds(x);
            if let Some(p) = prev {
                let (lo, hi) = if p < x { (p, x) } else { (x, p) };
                for (f, name) in [
                    (exp as fn(f32) -> f32, "exp"),
                    (sigmoid, "sigmoid"),
                    (tanh, "tanh"),
                ] {
                    assert!(
                        f(lo) <= f(hi),
                        "{name} not monotone: f({lo:e}) = {:e} > f({hi:e}) = {:e}",
                        f(lo),
                        f(hi)
                    );
                }
            }
            prev = Some(x);
        }
    }

    fn check_bounds(x: f32) {
        let xd = f64::from(x);
        let got = exp(x);
        assert!(got >= 0.0, "exp({x:e}) = {got:e}");
        if (-87.0..=88.0).contains(&x) {
            let want = xd.exp();
            assert!(
                ulps(got, want as f32) <= EXP_ULP,
                "exp({x:e}) = {got:e}, libm {want:e}"
            );
        }
        let want = 1.0 / (1.0 + (-xd).exp());
        let got = sigmoid(x);
        assert!(
            (0.0..=1.0).contains(&got) && (f64::from(got) - want).abs() <= SIGMOID_ABS,
            "sigmoid({x:e}) = {got:e}, libm {want:e}"
        );
        if want >= SIGMOID_ULP_ABOVE {
            assert!(
                ulps(got, want as f32) <= SIGMOID_ULP,
                "sigmoid({x:e}) = {got:e}, libm {want:e}"
            );
        }
        let want = xd.tanh();
        let got = tanh(x);
        assert!(
            (-1.0..=1.0).contains(&got)
                && ulps(got, want as f32) <= TANH_ULP
                && (f64::from(got) - want).abs() <= TANH_ABS,
            "tanh({x:e}) = {got:e}, libm {want:e}"
        );
    }

    /// Every 4,099th bit pattern: the prime stride covers every exponent
    /// and both signs.
    fn strided() -> impl Iterator<Item = f32> {
        (0..=u32::MAX).step_by(4_099).map(f32::from_bits)
    }

    #[test]
    fn error_bounds_against_libm_on_a_strided_sweep() {
        check(strided().chain(EDGES));
    }

    #[test]
    #[ignore = "sweeps all 2^32 inputs; run with `cargo test --release -p pp-nn -- --ignored`"]
    fn error_bounds_against_libm_on_every_f32() {
        let threads = std::thread::available_parallelism().map_or(1, usize::from);
        let chunk = (1u64 << 32) / threads as u64 + 1;
        std::thread::scope(|scope| {
            for t in 0..threads as u64 {
                // Each chunk starts one pattern early, so the monotonicity
                // check also covers the pairs that straddle two chunks.
                let (start, end) = (
                    (t * chunk).saturating_sub(1),
                    ((t + 1) * chunk).min(1 << 32),
                );
                scope.spawn(move || {
                    check((start..end).map(|bits| f32::from_bits(bits as u32)));
                });
            }
        });
    }

    #[test]
    fn monotone_where_the_method_switches() {
        // Every input around tanh's polynomial / quotient switch, exp's
        // reduction boundaries (n ± 1/2)·ln 2, sigmoid's overflow of
        // exp(−x), and zero, on both signs.
        let half_ln2 = 0.5 * std::f32::consts::LN_2;
        for centre in [TANH_POLY_BELOW, half_ln2, 21.0 * half_ln2, 88.72, 0.0] {
            for bits in [centre.to_bits(), (-centre).to_bits()] {
                check((bits.saturating_sub(5_000)..bits + 5_000).map(f32::from_bits));
            }
        }
    }

    /// Equal bits, or both NaN (a NaN's payload may depend on operand
    /// order, which the bound does not cover).
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// `f` over `xs` in `isa`'s instantiation, the way the slice forms run
    /// it.
    #[inline(always)]
    fn in_place_on(isa: Isa, xs: &mut [f32], f: impl Fn(f32) -> f32) {
        dispatch_to(
            isa,
            #[inline(always)]
            |_| xs.iter_mut().for_each(|x| *x = f(*x)),
        );
    }

    /// Asserts that the scalar form of `f`, its slice form and every
    /// instantiation in `isas` give the same bits.
    fn check_forms(
        name: &str,
        f: impl Fn(f32) -> f32 + Copy,
        in_place: fn(&mut [f32]),
        isas: &[Isa],
        inputs: &[f32],
    ) {
        // One call at a time through a pointer: scalar code.
        let scalar: &dyn Fn(f32) -> f32 = black_box(&f);
        let want: Vec<f32> = inputs.iter().map(|&x| scalar(x)).collect();
        let mut dispatched = inputs.to_vec();
        in_place(&mut dispatched);
        let mut forms = vec![("dispatched".to_string(), dispatched)];
        for &isa in isas {
            let mut on = inputs.to_vec();
            in_place_on(isa, &mut on, f);
            forms.push((format!("{isa:?}"), on));
        }
        for (form, got) in &forms {
            for (i, &x) in inputs.iter().enumerate() {
                assert!(
                    same(got[i], want[i]),
                    "{name}({x:e}): scalar {:e}, {form} {:e}",
                    want[i],
                    got[i]
                );
            }
        }
    }

    #[test]
    fn scalar_portable_and_dispatched_forms_agree_bit_for_bit() {
        let isas = Isa::under_test("activations");
        let inputs: Vec<f32> = strided().chain(EDGES).collect();
        check_forms("exp", exp, exp_in_place, &isas, &inputs);
        check_forms("sigmoid", sigmoid, sigmoid_in_place, &isas, &inputs);
        check_forms("tanh", tanh, tanh_in_place, &isas, &inputs);
    }

    #[test]
    fn nan_infinities_and_signed_zeros() {
        for f in [exp, sigmoid, tanh] {
            assert!(f(f32::NAN).is_nan());
            assert!(f(-f32::NAN).is_nan());
        }
        let mut xs = [f32::NAN, 1.0];
        sigmoid_in_place(&mut xs);
        assert!(xs[0].is_nan(), "a NaN must survive the slice form too");
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert_eq!(exp(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(sigmoid(f32::INFINITY), 1.0);
        assert_eq!(sigmoid(f32::NEG_INFINITY).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(f32::INFINITY), 1.0);
        assert_eq!(tanh(f32::NEG_INFINITY), -1.0);
        for zero in [0.0f32, -0.0] {
            assert_eq!(exp(zero), 1.0);
            assert_eq!(sigmoid(zero), 0.5);
            assert_eq!(tanh(zero).to_bits(), zero.to_bits(), "tanh({zero:?})");
        }
    }
}
