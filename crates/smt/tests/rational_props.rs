//! Property tests for the exact rational arithmetic (`rational.rs`) that the
//! simplex core is built on: field axioms, normalization, ordering, and the
//! floor/ceil used by integer branch-and-bound.

use ids_smt::rational::DeltaRat;
use ids_smt::Rat;
use proptest::prelude::*;

/// Numerator/denominator pairs kept small enough that products of three
/// rationals stay far away from `i128` overflow.
fn rat() -> impl Strategy<Value = Rat> {
    (-200i64..200, 1i64..40).prop_map(|(n, d)| Rat::new(n as i128, d as i128))
}

/// Rationals that are integers about half the time, so that both operands
/// of a binary operation often take `Rat`'s integer fast paths, and mixed
/// pairs take the general ones.
fn often_integer() -> impl Strategy<Value = Rat> {
    (-200i64..200, 1i64..40, 0u8..2).prop_map(|(n, d, whole)| {
        let d = if whole == 0 { 1 } else { d };
        Rat::new(n as i128, d as i128)
    })
}

fn nonzero_rat() -> impl Strategy<Value = Rat> {
    (1i64..200, 1i64..40, 0u8..2).prop_map(|(n, d, sign)| {
        let n = if sign == 0 { n } else { -n };
        Rat::new(n as i128, d as i128)
    })
}

proptest! {
    /// `+`, `−`, `×` and the order agree with their cross-multiplication
    /// definitions, whichever path (integer or general) the operands take.
    #[test]
    fn operations_match_cross_multiplication(a in often_integer(), b in often_integer()) {
        let (an, ad, bn, bd) = (a.numer(), a.denom(), b.numer(), b.denom());
        prop_assert_eq!(a + b, Rat::new(an * bd + bn * ad, ad * bd));
        prop_assert_eq!(a - b, Rat::new(an * bd - bn * ad, ad * bd));
        prop_assert_eq!(a * b, Rat::new(an * bn, ad * bd));
        prop_assert_eq!(a.cmp(&b), (an * bd).cmp(&(bn * ad)));
    }

    #[test]
    fn addition_commutes(a in rat(), b in rat()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn addition_associates(a in rat(), b in rat(), c in rat()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn multiplication_commutes(a in rat(), b in rat()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn multiplication_distributes_over_addition(a in rat(), b in rat(), c in rat()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn negation_is_additive_inverse(a in rat()) {
        prop_assert_eq!(a + (-a), Rat::from_int(0));
        prop_assert!((a + (-a)).is_zero());
    }

    #[test]
    fn subtraction_is_addition_of_negation(a in rat(), b in rat()) {
        prop_assert_eq!(a - b, a + (-b));
    }

    #[test]
    fn division_inverts_multiplication(a in rat(), b in nonzero_rat()) {
        prop_assert_eq!((a * b) / b, a);
        prop_assert_eq!((a / b) * b, a);
    }

    #[test]
    fn reciprocal_is_involutive(a in nonzero_rat()) {
        prop_assert_eq!(a.recip().recip(), a);
        prop_assert_eq!(a * a.recip(), Rat::from_int(1));
    }

    /// `Rat::new` normalizes: scaling numerator and denominator by a common
    /// factor yields the identical (structurally equal) value.
    #[test]
    fn construction_normalizes(a in rat(), k in 1i64..20) {
        let scaled = Rat::new(a.numer() * k as i128, a.denom() * k as i128);
        prop_assert_eq!(scaled, a);
        prop_assert_eq!((scaled.numer(), scaled.denom()), (a.numer(), a.denom()));
    }

    /// The total order agrees with the sign of the difference.
    #[test]
    fn ordering_agrees_with_subtraction(a in rat(), b in rat()) {
        prop_assert_eq!(a < b, (a - b).is_negative());
        prop_assert_eq!(a == b, (a - b).is_zero());
    }

    /// `floor(x) <= x <= ceil(x)`, with equality exactly on integers — the
    /// contract branch-and-bound relies on when cutting on a fractional basic
    /// variable.
    #[test]
    fn floor_and_ceil_bracket(a in rat()) {
        let f = Rat::from_int(a.floor());
        let c = Rat::from_int(a.ceil());
        prop_assert!(f <= a && a <= c);
        if a.is_integer() {
            prop_assert_eq!(f, a);
            prop_assert_eq!(c, a);
        } else {
            prop_assert_eq!(c - f, Rat::from_int(1));
        }
    }

    #[test]
    fn absolute_value_is_non_negative(a in rat()) {
        prop_assert!(!a.abs().is_negative());
        prop_assert_eq!(a.abs(), (-a).abs());
    }

    /// Delta-rationals order lexicographically: the infinitesimal only breaks
    /// ties of the real part (this is what makes strict bounds `x < c`
    /// representable as `x <= c - delta`).
    #[test]
    fn delta_rationals_order_lexicographically(a in rat(), b in rat(), d1 in rat(), d2 in rat()) {
        let x = DeltaRat::new(a, d1);
        let y = DeltaRat::new(b, d2);
        if a != b {
            prop_assert_eq!(x < y, a < b);
        } else {
            prop_assert_eq!(x < y, d1 < d2);
        }
    }

    #[test]
    fn delta_rational_addition_is_componentwise(a in rat(), b in rat(), d1 in rat(), d2 in rat()) {
        let sum = DeltaRat::new(a, d1) + DeltaRat::new(b, d2);
        prop_assert_eq!(sum, DeltaRat::new(a + b, d1 + d2));
    }
}
