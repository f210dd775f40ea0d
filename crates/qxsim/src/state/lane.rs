//! Two-amplitude lanes: the unit every dense kernel's range loop is written
//! over, with one implementation per instruction set.
//!
//! A lane holds the same local amplitude of two orbits side by side, so an
//! orbit kernel's arithmetic is the scalar expression applied to two orbits
//! at once. [`Portable`] is that scalar `C64` expression. [`Avx2`] keeps
//! both amplitudes in one `__m256d` and computes, per amplitude, exactly
//! the same IEEE operations in the same order: a complex product is two
//! multiplies and one `addsub` (no FMA, whose single rounding would change
//! the low bits), and sums are added in the portable order. Both paths
//! therefore give bit-identical states on every host.

use cqasm::math::C64;

/// The instruction set a kernel call runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelIsa {
    /// The scalar `C64` expression; available everywhere.
    Portable,
    /// 256-bit AVX2 lanes, two amplitudes per register (x86-64 only).
    Avx2,
}

impl KernelIsa {
    /// The fastest instruction set this host supports, detected once.
    pub fn host() -> KernelIsa {
        #[cfg(target_arch = "x86_64")]
        {
            use std::sync::OnceLock;
            static HOST: OnceLock<KernelIsa> = OnceLock::new();
            *HOST.get_or_init(|| {
                if std::arch::is_x86_feature_detected!("avx2") {
                    KernelIsa::Avx2
                } else {
                    KernelIsa::Portable
                }
            })
        }
        #[cfg(not(target_arch = "x86_64"))]
        KernelIsa::Portable
    }

    /// `self` if this host can run it, else [`KernelIsa::Portable`].
    pub(crate) fn usable(self) -> KernelIsa {
        if self == KernelIsa::Avx2 && KernelIsa::host() == KernelIsa::Avx2 {
            KernelIsa::Avx2
        } else {
            KernelIsa::Portable
        }
    }

    /// The name benchmarks record (`"portable"` or `"avx2"`).
    pub fn name(self) -> &'static str {
        match self {
            KernelIsa::Portable => "portable",
            KernelIsa::Avx2 => "avx2",
        }
    }
}

/// Two complex amplitudes processed together.
///
/// Every method is `unsafe`: an implementation may use instructions the
/// host must support (the caller dispatches through [`KernelIsa::usable`]),
/// and the memory methods read or write through raw pointers.
pub(crate) trait Lane: Copy {
    /// `[*p0, *p1]`.
    ///
    /// # Safety
    ///
    /// Both pointers must be valid for reads, and the lane's ISA available.
    unsafe fn gather(p0: *const C64, p1: *const C64) -> Self;

    /// `*p0 = self[0]; *p1 = self[1]` (the same value twice if `p0 == p1`).
    ///
    /// # Safety
    ///
    /// Both pointers must be valid for writes, and the lane's ISA available.
    unsafe fn scatter(self, p0: *mut C64, p1: *mut C64);

    /// `[*p, *p.add(1)]`.
    ///
    /// # Safety
    ///
    /// As [`Lane::gather`] for `p` and `p.add(1)`.
    #[inline(always)]
    unsafe fn load(p: *const C64) -> Self {
        Self::gather(p, p.add(1))
    }

    /// `*p = self[0]; *p.add(1) = self[1]`.
    ///
    /// # Safety
    ///
    /// As [`Lane::scatter`] for `p` and `p.add(1)`.
    #[inline(always)]
    unsafe fn store(self, p: *mut C64) {
        self.scatter(p, p.add(1))
    }

    /// A complex constant prepared for repeated products ([`Lane::scale`]).
    type Coef: Copy;

    /// Prepares `c` for [`Lane::scale`].
    ///
    /// # Safety
    ///
    /// The lane's ISA must be available.
    unsafe fn coef(c: C64) -> Self::Coef;

    /// The elementwise product `c * self[i]`, with the rounding of
    /// [`C64`]'s `Mul`.
    ///
    /// # Safety
    ///
    /// The lane's ISA must be available.
    unsafe fn scale(self, c: Self::Coef) -> Self;

    /// `[0, 0]`.
    ///
    /// # Safety
    ///
    /// The lane's ISA must be available.
    unsafe fn zero() -> Self;

    /// The elementwise complex product `self[i] * rhs[i]`, with the
    /// rounding of [`C64`]'s `Mul`.
    ///
    /// # Safety
    ///
    /// The lane's ISA must be available.
    unsafe fn cmul(self, rhs: Self) -> Self;

    /// The elementwise sum `self[i] + rhs[i]`.
    ///
    /// # Safety
    ///
    /// The lane's ISA must be available.
    unsafe fn add(self, rhs: Self) -> Self;
}

/// The scalar lane: today's `C64` expression, two amplitudes at a time.
#[derive(Clone, Copy)]
pub(crate) struct Portable(C64, C64);

impl Lane for Portable {
    #[inline(always)]
    unsafe fn gather(p0: *const C64, p1: *const C64) -> Self {
        Portable(*p0, *p1)
    }

    #[inline(always)]
    unsafe fn scatter(self, p0: *mut C64, p1: *mut C64) {
        *p0 = self.0;
        *p1 = self.1;
    }

    type Coef = C64;

    #[inline(always)]
    unsafe fn coef(c: C64) -> C64 {
        c
    }

    #[inline(always)]
    unsafe fn scale(self, c: C64) -> Self {
        Portable(c * self.0, c * self.1)
    }

    #[inline(always)]
    unsafe fn zero() -> Self {
        Portable(C64::ZERO, C64::ZERO)
    }

    #[inline(always)]
    unsafe fn cmul(self, rhs: Self) -> Self {
        Portable(self.0 * rhs.0, self.1 * rhs.1)
    }

    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        Portable(self.0 + rhs.0, self.1 + rhs.1)
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) use avx2::Avx2;

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::Lane;
    use cqasm::math::C64;
    use std::arch::x86_64::*;

    /// Two amplitudes as `[re0, im0, re1, im1]` in one AVX register. The
    /// `[C64]` ↔ `[f64]` reinterpretation relies on `C64`'s `#[repr(C)]`
    /// layout (asserted in `cqasm::math`).
    #[derive(Clone, Copy)]
    pub(crate) struct Avx2(__m256d);

    impl Lane for Avx2 {
        #[inline(always)]
        unsafe fn gather(p0: *const C64, p1: *const C64) -> Self {
            Avx2(_mm256_loadu2_m128d(p1.cast(), p0.cast()))
        }

        #[inline(always)]
        unsafe fn scatter(self, p0: *mut C64, p1: *mut C64) {
            _mm256_storeu2_m128d(p1.cast(), p0.cast(), self.0)
        }

        #[inline(always)]
        unsafe fn load(p: *const C64) -> Self {
            Avx2(_mm256_loadu_pd(p.cast()))
        }

        #[inline(always)]
        unsafe fn store(self, p: *mut C64) {
            _mm256_storeu_pd(p.cast(), self.0)
        }

        /// `c.re` and `c.im`, each in all four slots.
        type Coef = (__m256d, __m256d);

        #[inline(always)]
        unsafe fn coef(c: C64) -> Self::Coef {
            (_mm256_set1_pd(c.re), _mm256_set1_pd(c.im))
        }

        /// `[c.re*a.re - c.im*a.im, c.re*a.im + c.im*a.re]` per amplitude
        /// `a`: one shuffle, two multiplies and one `addsub`.
        #[inline(always)]
        unsafe fn scale(self, (re, im): Self::Coef) -> Self {
            let swapped = _mm256_permute_pd::<0b0101>(self.0);
            Avx2(_mm256_addsub_pd(
                _mm256_mul_pd(re, self.0),
                _mm256_mul_pd(im, swapped),
            ))
        }

        #[inline(always)]
        unsafe fn zero() -> Self {
            Avx2(_mm256_setzero_pd())
        }

        /// `[x.re*y.re - x.im*y.im, x.re*y.im + x.im*y.re]` per amplitude:
        /// the two products of each component are rounded separately and
        /// then combined by one `addsub`, exactly as `C64`'s `Mul`.
        #[inline(always)]
        unsafe fn cmul(self, rhs: Self) -> Self {
            let x_re = _mm256_movedup_pd(self.0);
            let x_im = _mm256_permute_pd::<0b1111>(self.0);
            let y_swapped = _mm256_permute_pd::<0b0101>(rhs.0);
            Avx2(_mm256_addsub_pd(
                _mm256_mul_pd(x_re, rhs.0),
                _mm256_mul_pd(x_im, y_swapped),
            ))
        }

        #[inline(always)]
        unsafe fn add(self, rhs: Self) -> Self {
            Avx2(_mm256_add_pd(self.0, rhs.0))
        }
    }
}
