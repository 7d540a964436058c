//! Exact rational arithmetic over `i128` numerator/denominator pairs.
//!
//! The simplex core and the coefficients of FWYB verification conditions are
//! tiny (±1, ±2, halves), so 128-bit components are ample; every operation is
//! checked and panics on overflow rather than silently wrapping, which keeps
//! the solver sound (an overflow would abort verification, never mis-verify).

use std::cmp::Ordering;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

/// An exact rational number `num / den` with `den > 0` and `gcd(num, den) = 1`.
///
/// # Example
/// ```
/// use ids_smt::Rat;
/// let half = Rat::new(1, 2);
/// let third = Rat::new(1, 3);
/// assert_eq!(half + third, Rat::new(5, 6));
/// assert!(half > third);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rat {
    num: i128,
    den: i128,
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    a = a.abs();
    b = b.abs();
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

impl Rat {
    /// The rational zero.
    pub const ZERO: Rat = Rat { num: 0, den: 1 };
    /// The rational one.
    pub const ONE: Rat = Rat { num: 1, den: 1 };

    /// Creates the rational `num / den`, normalizing sign and common factors.
    ///
    /// # Panics
    /// Panics if `den == 0`.
    pub fn new(num: i128, den: i128) -> Rat {
        assert!(den != 0, "rational with zero denominator");
        let mut num = num;
        let mut den = den;
        if den < 0 {
            num = -num;
            den = -den;
        }
        let g = gcd(num, den);
        if g > 1 {
            num /= g;
            den /= g;
        }
        Rat { num, den }
    }

    /// Creates the integer rational `n`.
    pub fn from_int(n: i128) -> Rat {
        Rat { num: n, den: 1 }
    }

    /// The numerator (after normalization; carries the sign).
    pub fn numer(&self) -> i128 {
        self.num
    }

    /// The denominator (always positive).
    pub fn denom(&self) -> i128 {
        self.den
    }

    /// Returns true if this rational is an integer.
    pub fn is_integer(&self) -> bool {
        self.den == 1
    }

    /// Returns true if this rational is zero.
    pub fn is_zero(&self) -> bool {
        self.num == 0
    }

    /// Returns true if this rational is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.num < 0
    }

    /// Returns true if this rational is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.num > 0
    }

    /// The largest integer `<= self`.
    pub fn floor(&self) -> i128 {
        self.num.div_euclid(self.den)
    }

    /// The smallest integer `>= self`.
    pub fn ceil(&self) -> i128 {
        -((-*self).floor())
    }

    /// The multiplicative inverse.
    ///
    /// # Panics
    /// Panics if `self` is zero.
    pub fn recip(&self) -> Rat {
        assert!(self.num != 0, "reciprocal of zero");
        Rat::new(self.den, self.num)
    }

    /// A lossy `f64` approximation, for *heuristic* comparisons only (pivot
    /// selection): exact rational arithmetic normalizes through gcd on every
    /// operation, far too expensive for a scan that only needs a ranking.
    pub fn to_f64(&self) -> f64 {
        self.num as f64 / self.den as f64
    }

    /// Absolute value.
    pub fn abs(&self) -> Rat {
        Rat {
            num: self.num.abs(),
            den: self.den,
        }
    }

    fn checked_mul_i(a: i128, b: i128) -> i128 {
        a.checked_mul(b).expect("rational overflow")
    }
}

impl Default for Rat {
    fn default() -> Self {
        Rat::ZERO
    }
}

impl From<i64> for Rat {
    fn from(n: i64) -> Rat {
        Rat::from_int(n as i128)
    }
}

impl Add for Rat {
    type Output = Rat;
    fn add(self, rhs: Rat) -> Rat {
        // Integers (the common case: coefficients and bounds of FWYB
        // constraints) need no cross-multiplication and no gcd.
        if self.den == 1 && rhs.den == 1 {
            let num = self.num.checked_add(rhs.num).expect("rational overflow");
            return Rat { num, den: 1 };
        }
        let n = Rat::checked_mul_i(self.num, rhs.den)
            .checked_add(Rat::checked_mul_i(rhs.num, self.den))
            .expect("rational overflow");
        Rat::new(n, Rat::checked_mul_i(self.den, rhs.den))
    }
}

impl AddAssign for Rat {
    fn add_assign(&mut self, rhs: Rat) {
        *self = *self + rhs;
    }
}

impl Sub for Rat {
    type Output = Rat;
    fn sub(self, rhs: Rat) -> Rat {
        self + (-rhs)
    }
}

impl Neg for Rat {
    type Output = Rat;
    fn neg(self) -> Rat {
        Rat {
            num: -self.num,
            den: self.den,
        }
    }
}

impl Mul for Rat {
    type Output = Rat;
    fn mul(self, rhs: Rat) -> Rat {
        if self.den == 1 && rhs.den == 1 {
            let num = Rat::checked_mul_i(self.num, rhs.num);
            return Rat { num, den: 1 };
        }
        // Cross-reduce first to keep components small.
        let g1 = gcd(self.num, rhs.den).max(1);
        let g2 = gcd(rhs.num, self.den).max(1);
        let num = Rat::checked_mul_i(self.num / g1, rhs.num / g2);
        let den = Rat::checked_mul_i(self.den / g2, rhs.den / g1);
        Rat::new(num, den)
    }
}

impl Div for Rat {
    type Output = Rat;
    #[allow(clippy::suspicious_arithmetic_impl)] // division as multiply-by-reciprocal
    fn div(self, rhs: Rat) -> Rat {
        self * rhs.recip()
    }
}

impl PartialOrd for Rat {
    fn partial_cmp(&self, other: &Rat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Rat {
    fn cmp(&self, other: &Rat) -> Ordering {
        if self.den == 1 && other.den == 1 {
            return self.num.cmp(&other.num);
        }
        let lhs = Rat::checked_mul_i(self.num, other.den);
        let rhs = Rat::checked_mul_i(other.num, self.den);
        lhs.cmp(&rhs)
    }
}

impl fmt::Debug for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Rat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.den == 1 {
            write!(f, "{}", self.num)
        } else {
            write!(f, "{}/{}", self.num, self.den)
        }
    }
}

/// A "delta rational" `r + k·δ` where `δ` is an infinitesimal, used by the
/// simplex core to handle strict inequalities exactly.
///
/// # Example
/// ```
/// use ids_smt::rational::{DeltaRat, Rat};
/// let just_above_zero = DeltaRat::new(Rat::ZERO, Rat::ONE);
/// assert!(just_above_zero > DeltaRat::from_rat(Rat::ZERO));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub struct DeltaRat {
    /// The standard (real) component.
    pub real: Rat,
    /// The coefficient of the infinitesimal δ.
    pub delta: Rat,
}

impl DeltaRat {
    /// The zero delta-rational.
    pub const ZERO: DeltaRat = DeltaRat {
        real: Rat::ZERO,
        delta: Rat::ZERO,
    };

    /// Creates `real + delta·δ`.
    pub fn new(real: Rat, delta: Rat) -> DeltaRat {
        DeltaRat { real, delta }
    }

    /// Embeds a rational with no infinitesimal part.
    pub fn from_rat(real: Rat) -> DeltaRat {
        DeltaRat {
            real,
            delta: Rat::ZERO,
        }
    }

    /// Scales by a rational factor.
    pub fn scale(&self, k: Rat) -> DeltaRat {
        DeltaRat {
            real: self.real * k,
            delta: self.delta * k,
        }
    }
}

impl Add for DeltaRat {
    type Output = DeltaRat;
    fn add(self, rhs: DeltaRat) -> DeltaRat {
        DeltaRat {
            real: self.real + rhs.real,
            delta: self.delta + rhs.delta,
        }
    }
}

impl Sub for DeltaRat {
    type Output = DeltaRat;
    fn sub(self, rhs: DeltaRat) -> DeltaRat {
        DeltaRat {
            real: self.real - rhs.real,
            delta: self.delta - rhs.delta,
        }
    }
}

impl Neg for DeltaRat {
    type Output = DeltaRat;
    fn neg(self) -> DeltaRat {
        DeltaRat {
            real: -self.real,
            delta: -self.delta,
        }
    }
}

impl PartialOrd for DeltaRat {
    fn partial_cmp(&self, other: &DeltaRat) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DeltaRat {
    fn cmp(&self, other: &DeltaRat) -> Ordering {
        self.real
            .cmp(&other.real)
            .then_with(|| self.delta.cmp(&other.delta))
    }
}

impl fmt::Display for DeltaRat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.delta.is_zero() {
            write!(f, "{}", self.real)
        } else {
            write!(f, "{} + {}δ", self.real, self.delta)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        assert_eq!(Rat::new(2, 4), Rat::new(1, 2));
        assert_eq!(Rat::new(-2, -4), Rat::new(1, 2));
        assert_eq!(Rat::new(2, -4), Rat::new(-1, 2));
        assert_eq!(Rat::new(0, 5), Rat::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = Rat::new(1, 3);
        let b = Rat::new(1, 6);
        assert_eq!(a + b, Rat::new(1, 2));
        assert_eq!(a - b, Rat::new(1, 6));
        assert_eq!(a * b, Rat::new(1, 18));
        assert_eq!(a / b, Rat::from_int(2));
        assert_eq!(-a, Rat::new(-1, 3));
    }

    #[test]
    fn ordering() {
        assert!(Rat::new(1, 3) < Rat::new(1, 2));
        assert!(Rat::new(-1, 2) < Rat::ZERO);
        assert!(Rat::from_int(7) > Rat::new(13, 2));
    }

    #[test]
    fn floor_ceil() {
        assert_eq!(Rat::new(7, 2).floor(), 3);
        assert_eq!(Rat::new(7, 2).ceil(), 4);
        assert_eq!(Rat::new(-7, 2).floor(), -4);
        assert_eq!(Rat::new(-7, 2).ceil(), -3);
        assert_eq!(Rat::from_int(5).floor(), 5);
        assert_eq!(Rat::from_int(5).ceil(), 5);
    }

    #[test]
    fn delta_ordering() {
        let zero = DeltaRat::from_rat(Rat::ZERO);
        let eps = DeltaRat::new(Rat::ZERO, Rat::ONE);
        let one = DeltaRat::from_rat(Rat::ONE);
        assert!(zero < eps);
        assert!(eps < one);
        assert_eq!(eps + eps, DeltaRat::new(Rat::ZERO, Rat::from_int(2)));
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn integer_addition_overflow_panics() {
        let _ = Rat::from_int(i128::MAX) + Rat::ONE;
    }

    #[test]
    #[should_panic(expected = "rational overflow")]
    fn integer_multiplication_overflow_panics() {
        let _ = Rat::from_int(i128::MAX) * Rat::from_int(2);
    }

    #[test]
    fn display() {
        assert_eq!(Rat::new(3, 4).to_string(), "3/4");
        assert_eq!(Rat::from_int(-2).to_string(), "-2");
    }
}
