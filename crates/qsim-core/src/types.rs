//! Scalar abstractions: the [`Float`] trait (implemented for `f32`/`f64`)
//! and the [`Cplx`] complex number used for state-vector amplitudes.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Numeric precision of a simulation, the axis swept in the paper's Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// 32-bit floats (qsim's default; 8 bytes per amplitude).
    Single,
    /// 64-bit floats (16 bytes per amplitude).
    Double,
}

serde::impl_serde_unit_enum!(Precision { Single, Double });

impl Precision {
    /// Size in bytes of one complex amplitude at this precision.
    pub const fn amplitude_bytes(self) -> usize {
        match self {
            Precision::Single => 8,
            Precision::Double => 16,
        }
    }

    /// Human-readable name used by the benchmark harnesses.
    pub const fn name(self) -> &'static str {
        match self {
            Precision::Single => "single",
            Precision::Double => "double",
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parse [`Precision::name`] back to the precision — shared by every CLI
/// surface and the service wire protocol.
impl std::str::FromStr for Precision {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "single" => Ok(Precision::Single),
            "double" => Ok(Precision::Double),
            other => Err(format!("unknown precision '{other}' (expected single | double)")),
        }
    }
}

/// Floating-point scalar used for amplitudes.
///
/// Every simulator algorithm in this workspace is generic over `Float` so a
/// single code path serves both precisions, exactly like qsim's templated
/// C++ (`float`/`double` instantiations selected at compile time). Sealed
/// to these two, whose all-zero bytes are `+0.0` ([`crate::amps`] relies on it).
pub trait Float:
    sealed::Sealed
    + Copy
    + Clone
    + PartialEq
    + PartialOrd
    + fmt::Debug
    + fmt::Display
    + Default
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + Sum
    + 'static
{
    const ZERO: Self;
    const ONE: Self;
    /// Which precision this scalar corresponds to.
    const PRECISION: Precision;

    fn from_f64(v: f64) -> Self;
    fn to_f64(self) -> f64;
    fn sqrt(self) -> Self;
    fn abs(self) -> Self;
    /// Machine-epsilon-scale tolerance appropriate for comparisons after a
    /// long chain of gate applications.
    fn tolerance() -> Self;
}

impl Float for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const PRECISION: Precision = Precision::Single;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v as f32
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self as f64
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }
    #[inline(always)]
    fn tolerance() -> Self {
        1e-4
    }
}

impl Float for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const PRECISION: Precision = Precision::Double;

    #[inline(always)]
    fn from_f64(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn to_f64(self) -> f64 {
        self
    }
    #[inline(always)]
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    #[inline(always)]
    fn abs(self) -> Self {
        f64::abs(self)
    }
    #[inline(always)]
    fn tolerance() -> Self {
        1e-10
    }
}

mod sealed {
    pub trait Sealed {}
    impl Sealed for f32 {}
    impl Sealed for f64 {}
}

/// Complex number with scalar type `F`.
///
/// Amplitudes are stored as an array of `Cplx<F>`; a complex multiply-add —
/// the inner loop of every gate kernel — costs 8 flops, the figure used by
/// the paper (and this repo's device model) for arithmetic-intensity
/// accounting.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Cplx<F> {
    pub re: F,
    pub im: F,
}

impl<F: Float> Cplx<F> {
    pub const fn new(re: F, im: F) -> Self {
        Cplx { re, im }
    }

    /// `0 + 0i`.
    #[inline(always)]
    pub fn zero() -> Self {
        Cplx { re: F::ZERO, im: F::ZERO }
    }

    /// `1 + 0i`.
    #[inline(always)]
    pub fn one() -> Self {
        Cplx { re: F::ONE, im: F::ZERO }
    }

    /// `0 + 1i`.
    #[inline(always)]
    pub fn i() -> Self {
        Cplx { re: F::ZERO, im: F::ONE }
    }

    /// Construct from `f64` parts (convenience for gate tables).
    #[inline(always)]
    pub fn from_f64(re: f64, im: f64) -> Self {
        Cplx { re: F::from_f64(re), im: F::from_f64(im) }
    }

    /// `e^{iθ}` for θ given in radians.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        Cplx::from_f64(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Cplx { re: self.re, im: -self.im }
    }

    /// Squared magnitude `|z|^2` — the measurement probability of the
    /// corresponding basis state when `z` is a normalized amplitude.
    #[inline(always)]
    pub fn norm_sqr(self) -> F {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude `|z|`.
    #[inline(always)]
    pub fn abs(self) -> F {
        self.norm_sqr().sqrt()
    }

    /// Multiply-accumulate: `self += a * b`. The kernel inner loop.
    #[inline(always)]
    pub fn mul_add_assign(&mut self, a: Cplx<F>, b: Cplx<F>) {
        self.re += a.re * b.re - a.im * b.im;
        self.im += a.re * b.im + a.im * b.re;
    }

    /// Scale by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: F) -> Self {
        Cplx { re: self.re * s, im: self.im * s }
    }

    /// Convert to `Cplx<f64>` for precision-independent comparisons.
    #[inline]
    pub fn to_f64(self) -> Cplx<f64> {
        Cplx { re: self.re.to_f64(), im: self.im.to_f64() }
    }

    /// Distance `|self - other|`.
    #[inline]
    pub fn dist(self, other: Self) -> F {
        (self - other).abs()
    }
}

impl<F: Float> Add for Cplx<F> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Cplx { re: self.re + rhs.re, im: self.im + rhs.im }
    }
}

impl<F: Float> Sub for Cplx<F> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Cplx { re: self.re - rhs.re, im: self.im - rhs.im }
    }
}

impl<F: Float> Mul for Cplx<F> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, rhs: Self) -> Self {
        Cplx { re: self.re * rhs.re - self.im * rhs.im, im: self.re * rhs.im + self.im * rhs.re }
    }
}

impl<F: Float> Neg for Cplx<F> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Cplx { re: -self.re, im: -self.im }
    }
}

impl<F: Float> AddAssign for Cplx<F> {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl<F: Float> SubAssign for Cplx<F> {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Self) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl<F: Float> MulAssign for Cplx<F> {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}

impl<F: Float> Sum for Cplx<F> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Cplx::zero(), |acc, z| acc + z)
    }
}

impl<F: Float> fmt::Display for Cplx<F> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im.to_f64() >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c64(re: f64, im: f64) -> Cplx<f64> {
        Cplx::new(re, im)
    }

    #[test]
    fn complex_add_sub() {
        let a = c64(1.0, 2.0);
        let b = c64(3.0, -4.0);
        assert_eq!(a + b, c64(4.0, -2.0));
        assert_eq!(a - b, c64(-2.0, 6.0));
    }

    #[test]
    fn complex_mul() {
        // (1+2i)(3-4i) = 3 - 4i + 6i - 8i^2 = 11 + 2i
        assert_eq!(c64(1.0, 2.0) * c64(3.0, -4.0), c64(11.0, 2.0));
    }

    #[test]
    fn complex_i_squares_to_minus_one() {
        let i = Cplx::<f64>::i();
        assert_eq!(i * i, -Cplx::one());
    }

    #[test]
    fn complex_conj_and_norm() {
        let z = c64(3.0, 4.0);
        assert_eq!(z.conj(), c64(3.0, -4.0));
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        // z * conj(z) = |z|^2
        assert_eq!(z * z.conj(), c64(25.0, 0.0));
    }

    #[test]
    fn complex_cis() {
        let z = Cplx::<f64>::cis(std::f64::consts::FRAC_PI_2);
        assert!((z.re).abs() < 1e-15);
        assert!((z.im - 1.0).abs() < 1e-15);
    }

    #[test]
    fn mul_add_assign_matches_mul() {
        let mut acc = c64(0.5, -0.5);
        let expected = acc + c64(1.0, 2.0) * c64(3.0, -4.0);
        acc.mul_add_assign(c64(1.0, 2.0), c64(3.0, -4.0));
        assert_eq!(acc, expected);
    }

    #[test]
    fn precision_metadata() {
        assert_eq!(<f32 as Float>::PRECISION, Precision::Single);
        assert_eq!(<f64 as Float>::PRECISION, Precision::Double);
        assert_eq!(Precision::Single.amplitude_bytes(), 8);
        assert_eq!(Precision::Double.amplitude_bytes(), 16);
    }

    #[test]
    fn float_roundtrip() {
        assert_eq!(<f32 as Float>::from_f64(0.5).to_f64(), 0.5);
        assert_eq!(<f64 as Float>::from_f64(0.5).to_f64(), 0.5);
    }

    #[test]
    fn sum_of_complexes() {
        let v = vec![c64(1.0, 1.0), c64(2.0, -1.0), c64(-0.5, 0.25)];
        let s: Cplx<f64> = v.into_iter().sum();
        assert_eq!(s, c64(2.5, 0.25));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", c64(1.0, 2.0)), "1+2i");
        assert_eq!(format!("{}", c64(1.0, -2.0)), "1-2i");
        assert_eq!(Precision::Single.to_string(), "single");
    }
}
