//! Minimal complex arithmetic used by the FFT correlation baseline.
//!
//! PIPER computes pose scores as 3-D correlations evaluated with forward FFT,
//! per-voxel modulation by the conjugate, and inverse FFT. This module provides the
//! complex type those transforms operate on; it is deliberately small (no transcendental
//! functions beyond `exp(i\theta)`) and `Copy` so grids of complex numbers stay flat.

use crate::Real;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i*im` in double precision.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: Real,
    /// Imaginary part.
    pub im: Real,
}

impl Complex {
    /// Zero.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: Real, im: Real) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn from_real(re: Real) -> Self {
        Complex { re, im: 0.0 }
    }

    /// `exp(i * theta)` — the unit phasor used to build FFT twiddle factors.
    #[inline]
    pub fn cis(theta: Real) -> Self {
        Complex { re: theta.cos(), im: theta.sin() }
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Complex {
        Complex::new(self.re, -self.im)
    }

    /// Squared magnitude.
    #[inline]
    pub fn norm_sq(self) -> Real {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude.
    #[inline]
    pub fn norm(self) -> Real {
        self.norm_sq().sqrt()
    }

    /// Scales by a real factor.
    #[inline]
    pub fn scale(self, s: Real) -> Complex {
        Complex::new(self.re * s, self.im * s)
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(self.re * rhs.re - self.im * rhs.im, self.re * rhs.im + self.im * rhs.re)
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<Real> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Real) -> Complex {
        self.scale(rhs)
    }
}

impl Div<Real> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: Real) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, c| acc + c)
    }
}

impl From<Real> for Complex {
    fn from(re: Real) -> Self {
        Complex::from_real(re)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx_eq;
    use std::f64::consts::PI;

    #[test]
    fn arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        // (1 + 2i)(3 - i) = 3 - i + 6i - 2i^2 = 5 + 5i
        assert_eq!(a * b, Complex::new(5.0, 5.0));
        assert_eq!(-a, Complex::new(-1.0, -2.0));
        assert_eq!(a * 2.0, Complex::new(2.0, 4.0));
        assert_eq!(a / 2.0, Complex::new(0.5, 1.0));
    }

    #[test]
    fn conjugate_and_norm() {
        let a = Complex::new(3.0, 4.0);
        assert_eq!(a.conj(), Complex::new(3.0, -4.0));
        assert!(approx_eq(a.norm(), 5.0, 1e-12));
        assert!(approx_eq(a.norm_sq(), 25.0, 1e-12));
        let prod = a * a.conj();
        assert!(approx_eq(prod.re, 25.0, 1e-12));
        assert!(approx_eq(prod.im, 0.0, 1e-12));
    }

    #[test]
    fn cis_unit_circle() {
        let q = Complex::cis(PI / 2.0);
        assert!(approx_eq(q.re, 0.0, 1e-12));
        assert!(approx_eq(q.im, 1.0, 1e-12));
        assert!(approx_eq(Complex::cis(0.3).norm(), 1.0, 1e-12));
        // cis(a) * cis(b) == cis(a + b)
        let lhs = Complex::cis(0.4) * Complex::cis(1.1);
        let rhs = Complex::cis(1.5);
        assert!(approx_eq(lhs.re, rhs.re, 1e-12));
        assert!(approx_eq(lhs.im, rhs.im, 1e-12));
    }

    #[test]
    fn sum_and_from() {
        let v = vec![Complex::ONE, Complex::I, Complex::new(2.0, 3.0)];
        let s: Complex = v.into_iter().sum();
        assert_eq!(s, Complex::new(3.0, 4.0));
        assert_eq!(Complex::from(2.5), Complex::new(2.5, 0.0));
    }

    #[test]
    fn compound_assign() {
        let mut a = Complex::new(1.0, 1.0);
        a += Complex::ONE;
        assert_eq!(a, Complex::new(2.0, 1.0));
        a -= Complex::I;
        assert_eq!(a, Complex::new(2.0, 0.0));
        a *= Complex::I;
        assert_eq!(a, Complex::new(0.0, 2.0));
    }
}
