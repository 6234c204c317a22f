use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` components.
///
/// Used by the AC small-signal solver, where every admittance stamp is of the
/// form `g + j*omega*c`.
///
/// # Examples
///
/// ```
/// use gcnrl_linalg::Complex;
///
/// let z = Complex::new(3.0, 4.0);
/// assert_eq!(z.abs(), 5.0);
/// assert_eq!(z.abs_sq(), 25.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };

    /// Creates a complex number from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a purely real complex number.
    pub fn real(re: f64) -> Self {
        Complex { re, im: 0.0 }
    }

    /// Magnitude (modulus).
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude; cheaper than [`Complex::abs`] when only ordering matters.
    pub fn abs_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Phase angle in radians, in `(-pi, pi]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplicative inverse.
    ///
    /// Returns an infinite value when `self` is zero, mirroring `1.0 / 0.0`.
    pub fn recip(self) -> Self {
        let d = self.abs_sq();
        Complex::new(self.re / d, -self.im / d)
    }

    /// Returns `true` if both components are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::real(re)
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        *self = *self + rhs;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Complex) {
        *self = *self - rhs;
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        Complex::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division via the reciprocal is the numerically standard form here.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.recip()
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_identities() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + b, Complex::new(-2.0, 2.5));
        assert_eq!(a - a, Complex::ZERO);
        assert_eq!(a * Complex::ONE, a);
        let j = Complex::new(0.0, 1.0);
        assert_eq!(j * j, Complex::new(-1.0, 0.0));
    }

    #[test]
    fn division_and_reciprocal() {
        let a = Complex::new(1.0, 2.0);
        let r = a / a;
        assert!((r.re - 1.0).abs() < 1e-14);
        assert!(r.im.abs() < 1e-14);
        let inv = a.recip();
        let prod = a * inv;
        assert!((prod.re - 1.0).abs() < 1e-14);
    }

    #[test]
    fn magnitude_and_phase() {
        let z = Complex::new(0.0, 2.0);
        assert_eq!(z.abs(), 2.0);
        assert!((z.arg() - std::f64::consts::FRAC_PI_2).abs() < 1e-14);
        assert_eq!(Complex::new(3.0, 4.0).abs_sq(), 25.0);
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, -1.0).to_string(), "1-1j");
        assert_eq!(Complex::new(1.0, 1.0).to_string(), "1+1j");
    }

    #[test]
    fn from_f64() {
        let z: Complex = 2.5.into();
        assert_eq!(z, Complex::new(2.5, 0.0));
    }
}
