//! Minimal complex-number and small-matrix kernel shared by the whole stack.
//!
//! The simulator ([`qxsim`](https://docs.rs/qxsim)), the compiler and the QEC
//! layer all need exact gate semantics. Rather than pulling in an external
//! linear-algebra dependency, the stack uses this self-contained kernel: a
//! `Copy` complex type ([`C64`]) and fixed-size unitaries for one- and
//! two-qubit gates plus a general heap-allocated square matrix for larger
//! operators.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// Tolerance used by the approximate comparisons in this module.
pub const EPSILON: f64 = 1e-10;

/// A complex number with `f64` components.
///
/// # Example
///
/// ```
/// use cqasm::math::C64;
///
/// let i = C64::I;
/// assert_eq!(i * i, C64::new(-1.0, 0.0));
/// ```
///
/// The layout is fixed (`#[repr(C)]`, asserted below): a `[C64]` is a
/// `[f64]` of interleaved `re, im` pairs, which the simulator's vector
/// kernels load directly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct C64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

const _: () = {
    assert!(std::mem::size_of::<C64>() == 16);
    assert!(std::mem::align_of::<C64>() == std::mem::align_of::<f64>());
    assert!(std::mem::offset_of!(C64, re) == 0);
    assert!(std::mem::offset_of!(C64, im) == 8);
};

impl C64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: C64 = C64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: C64 = C64 { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: C64 = C64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        C64 { re, im }
    }

    /// Creates a purely real complex number.
    #[inline]
    pub const fn real(re: f64) -> Self {
        C64 { re, im: 0.0 }
    }

    /// Creates the complex number `e^{i theta}` on the unit circle.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        C64::new(theta.cos(), theta.sin())
    }

    /// Complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        C64::new(self.re, -self.im)
    }

    /// Squared modulus `|z|^2` (the Born-rule probability weight).
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// Argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by the imaginary unit (cheaper than a full complex multiply).
    #[inline]
    pub fn mul_i(self) -> Self {
        C64::new(-self.im, self.re)
    }

    /// Approximate equality within [`EPSILON`].
    #[inline]
    pub fn approx_eq(self, other: C64) -> bool {
        (self.re - other.re).abs() < EPSILON && (self.im - other.im).abs() < EPSILON
    }
}

impl Add for C64 {
    type Output = C64;
    #[inline]
    fn add(self, rhs: C64) -> C64 {
        C64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for C64 {
    #[inline]
    fn add_assign(&mut self, rhs: C64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for C64 {
    type Output = C64;
    #[inline]
    fn sub(self, rhs: C64) -> C64 {
        C64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for C64 {
    #[inline]
    fn sub_assign(&mut self, rhs: C64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: C64) -> C64 {
        C64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for C64 {
    #[inline]
    fn mul_assign(&mut self, rhs: C64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for C64 {
    type Output = C64;
    #[inline]
    fn mul(self, rhs: f64) -> C64 {
        C64::new(self.re * rhs, self.im * rhs)
    }
}

impl Div for C64 {
    type Output = C64;
    #[inline]
    fn div(self, rhs: C64) -> C64 {
        let d = rhs.norm_sqr();
        C64::new(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for C64 {
    type Output = C64;
    #[inline]
    fn neg(self) -> C64 {
        C64::new(-self.re, -self.im)
    }
}

impl From<f64> for C64 {
    fn from(re: f64) -> Self {
        C64::real(re)
    }
}

impl fmt::Display for C64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

/// A 2x2 complex matrix: the unitary of a single-qubit gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat2(pub [[C64; 2]; 2]);

/// A 4x4 complex matrix: the unitary of a two-qubit gate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mat4(pub [[C64; 4]; 4]);

impl Mat2 {
    /// The 2x2 identity matrix.
    pub fn identity() -> Self {
        Mat2([[C64::ONE, C64::ZERO], [C64::ZERO, C64::ONE]])
    }

    /// Matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Mat2) -> Mat2 {
        let mut out = [[C64::ZERO; 2]; 2];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                for k in 0..2 {
                    *cell += self.0[i][k] * rhs.0[k][j];
                }
            }
        }
        Mat2(out)
    }

    /// Conjugate transpose (the inverse for unitary matrices).
    pub fn dagger(&self) -> Mat2 {
        let m = &self.0;
        Mat2([
            [m[0][0].conj(), m[1][0].conj()],
            [m[0][1].conj(), m[1][1].conj()],
        ])
    }

    /// Whether `self * self.dagger() == I` within [`EPSILON`].
    pub fn is_unitary(&self) -> bool {
        let p = self.matmul(&self.dagger());
        p.approx_eq(&Mat2::identity())
    }

    /// Element-wise approximate equality within [`EPSILON`].
    pub fn approx_eq(&self, other: &Mat2) -> bool {
        self.0
            .iter()
            .flatten()
            .zip(other.0.iter().flatten())
            .all(|(a, b)| a.approx_eq(*b))
    }

    /// Approximate equality up to a global phase factor.
    ///
    /// Two unitaries that differ only by `e^{i phi}` implement the same
    /// physical operation; this comparison is the physically meaningful one.
    pub fn approx_eq_up_to_phase(&self, other: &Mat2) -> bool {
        // Find the first element of `other` with non-negligible magnitude and
        // derive the relative phase from it.
        for i in 0..2 {
            for j in 0..2 {
                if other.0[i][j].abs() > EPSILON {
                    if self.0[i][j].abs() < EPSILON {
                        return false;
                    }
                    let phase = self.0[i][j] / other.0[i][j];
                    if (phase.abs() - 1.0).abs() > 1e-8 {
                        return false;
                    }
                    let scaled = Mat2([
                        [other.0[0][0] * phase, other.0[0][1] * phase],
                        [other.0[1][0] * phase, other.0[1][1] * phase],
                    ]);
                    return self.approx_eq(&scaled);
                }
            }
        }
        false
    }
}

impl Mat4 {
    /// The 4x4 identity matrix.
    pub fn identity() -> Self {
        let mut m = [[C64::ZERO; 4]; 4];
        for (i, row) in m.iter_mut().enumerate() {
            row[i] = C64::ONE;
        }
        Mat4(m)
    }

    /// Matrix product `self * rhs`.
    pub fn matmul(&self, rhs: &Mat4) -> Mat4 {
        let mut out = [[C64::ZERO; 4]; 4];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                for k in 0..4 {
                    *cell += self.0[i][k] * rhs.0[k][j];
                }
            }
        }
        Mat4(out)
    }

    /// Conjugate transpose (the inverse for unitary matrices).
    pub fn dagger(&self) -> Mat4 {
        let mut out = [[C64::ZERO; 4]; 4];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = self.0[j][i].conj();
            }
        }
        Mat4(out)
    }

    /// Whether `self * self.dagger() == I` within [`EPSILON`].
    pub fn is_unitary(&self) -> bool {
        let p = self.matmul(&self.dagger());
        p.approx_eq(&Mat4::identity())
    }

    /// Element-wise approximate equality within [`EPSILON`].
    pub fn approx_eq(&self, other: &Mat4) -> bool {
        self.0
            .iter()
            .flatten()
            .zip(other.0.iter().flatten())
            .all(|(a, b)| a.approx_eq(*b))
    }

    /// Kronecker product of two single-qubit unitaries, `a (x) b`.
    ///
    /// The first factor acts on the more significant qubit of the pair.
    pub fn kron(a: &Mat2, b: &Mat2) -> Mat4 {
        let mut out = [[C64::ZERO; 4]; 4];
        for i in 0..2 {
            for j in 0..2 {
                for k in 0..2 {
                    for l in 0..2 {
                        out[i * 2 + k][j * 2 + l] = a.0[i][j] * b.0[k][l];
                    }
                }
            }
        }
        Mat4(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_1_SQRT_2;

    #[test]
    fn complex_arithmetic() {
        let a = C64::new(1.0, 2.0);
        let b = C64::new(3.0, -1.0);
        assert_eq!(a + b, C64::new(4.0, 1.0));
        assert_eq!(a - b, C64::new(-2.0, 3.0));
        assert_eq!(a * b, C64::new(5.0, 5.0));
        assert!(((a / b) * b).approx_eq(a));
        assert_eq!(-a, C64::new(-1.0, -2.0));
    }

    #[test]
    fn complex_polar() {
        let z = C64::cis(std::f64::consts::FRAC_PI_4);
        assert!((z.abs() - 1.0).abs() < EPSILON);
        assert!((z.arg() - std::f64::consts::FRAC_PI_4).abs() < EPSILON);
    }

    #[test]
    fn mul_i_matches_full_multiply() {
        let z = C64::new(0.3, -0.7);
        assert!(z.mul_i().approx_eq(z * C64::I));
    }

    #[test]
    fn conj_and_norm() {
        let z = C64::new(3.0, 4.0);
        assert_eq!(z.conj(), C64::new(3.0, -4.0));
        assert!((z.norm_sqr() - 25.0).abs() < EPSILON);
        assert!((z.abs() - 5.0).abs() < EPSILON);
    }

    #[test]
    fn hadamard_is_unitary_and_self_inverse() {
        let s = C64::real(FRAC_1_SQRT_2);
        let h = Mat2([[s, s], [s, -s]]);
        assert!(h.is_unitary());
        assert!(h.matmul(&h).approx_eq(&Mat2::identity()));
    }

    #[test]
    fn dagger_of_phase_gate() {
        let s = Mat2([[C64::ONE, C64::ZERO], [C64::ZERO, C64::I]]);
        let sdag = s.dagger();
        assert!(s.matmul(&sdag).approx_eq(&Mat2::identity()));
        assert_eq!(sdag.0[1][1], C64::new(0.0, -1.0));
    }

    #[test]
    fn kron_of_identities_is_identity() {
        let id = Mat2::identity();
        assert!(Mat4::kron(&id, &id).approx_eq(&Mat4::identity()));
    }

    #[test]
    fn kron_structure() {
        let x = Mat2([[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]);
        let id = Mat2::identity();
        let m = Mat4::kron(&x, &id);
        // X on the high qubit: |0a> <-> |1a|.
        assert_eq!(m.0[0][2], C64::ONE);
        assert_eq!(m.0[2][0], C64::ONE);
        assert_eq!(m.0[1][3], C64::ONE);
        assert_eq!(m.0[0][0], C64::ZERO);
        assert!(m.is_unitary());
    }

    #[test]
    fn phase_equivalence() {
        let s = C64::real(FRAC_1_SQRT_2);
        let h = Mat2([[s, s], [s, -s]]);
        let phase = C64::cis(1.234);
        let h_phased = Mat2([
            [h.0[0][0] * phase, h.0[0][1] * phase],
            [h.0[1][0] * phase, h.0[1][1] * phase],
        ]);
        assert!(h.approx_eq_up_to_phase(&h_phased));
        let x = Mat2([[C64::ZERO, C64::ONE], [C64::ONE, C64::ZERO]]);
        assert!(!h.approx_eq_up_to_phase(&x));
    }
}
