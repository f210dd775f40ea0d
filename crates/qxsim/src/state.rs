//! Dense state-vector representation and gate application kernels.
//!
//! The state of `n` qubits is a vector of `2^n` complex amplitudes. Basis
//! index bit `i` is the state of qubit `i` (qubit 0 is the least significant
//! bit). This is the engine behind the QX simulator of the paper: it scales
//! to however many qubits fit in host memory (the paper quotes ~35 fully
//! entangled qubits on a laptop for the C++ engine; the memory wall is
//! identical here since the representation is the same).
//!
//! Gate application enumerates each gate's *orbits* directly: a `k`-qubit
//! gate partitions the `2^n` basis states into `2^(n-k)` independent orbits
//! of `2^k` amplitudes, and the kernels iterate over orbit indices and
//! expand them to basis indices with bit insertion ([`insert_bit`]) instead
//! of scanning all `2^n` indices and skipping non-orbit entries. Structured
//! gates (diagonal, anti-diagonal, CNOT/CZ/SWAP, controlled phase) dispatch
//! to specialised kernels via [`cqasm::KernelClass`]; everything else falls
//! back to the generic dense matrix kernels. Large registers are chunked
//! across threads (see [`par`]). The original scan-and-skip kernels are
//! preserved in [`reference`] as ground truth for property tests and as the
//! benchmark baseline.

use cqasm::math::{Mat2, Mat4, C64, EPSILON};
use cqasm::{BlockUnitary, FusedDiagonal, KernelClass};
use rand::Rng;

/// Analytic default for the minimum register size (in qubits) at which the
/// dense 1q/2q kernels are split across threads. Below this the per-thread
/// spawn overhead exceeds the arithmetic saved; at `2^18` amplitudes (4 MiB
/// of state) the split starts to pay on multi-core hosts. The effective
/// threshold is [`par_min_qubits`], tunable via `QCA_PAR_MIN_QUBITS`.
pub const PAR_MIN_QUBITS: usize = 18;

/// Parses a `QCA_PAR_MIN_QUBITS` value. Accepts `0..=63`; anything else
/// (empty, non-numeric, out of range) falls back to the analytic default
/// [`PAR_MIN_QUBITS`]. Pure, so the env-var plumbing is testable without
/// mutating the process environment.
pub fn parse_par_min_qubits(value: Option<&str>) -> usize {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n < 64)
        .unwrap_or(PAR_MIN_QUBITS)
}

/// The effective threads-on threshold: `QCA_PAR_MIN_QUBITS` from the
/// environment if set to a valid qubit count, else the analytic default
/// [`PAR_MIN_QUBITS`]. Read once per process (see DESIGN.md "Observability"
/// for the empirical tuning procedure built on the telemetry counters).
pub fn par_min_qubits() -> usize {
    use std::sync::OnceLock;
    static THRESHOLD: OnceLock<usize> = OnceLock::new();
    *THRESHOLD
        .get_or_init(|| parse_par_min_qubits(std::env::var("QCA_PAR_MIN_QUBITS").ok().as_deref()))
}

/// The host's available parallelism, probed once: the default thread budget
/// of a [`StateVector`] and the cap on a run's thread budget.
pub(crate) fn auto_threads() -> usize {
    use std::sync::OnceLock;
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Expands a compressed index by inserting a `0` bit at `pos`: bits below
/// `pos` stay, bits at and above shift up by one. Maps orbit index to the
/// orbit's base state.
#[inline(always)]
fn insert_bit(k: usize, pos: usize) -> usize {
    ((k >> pos) << (pos + 1)) | (k & ((1usize << pos) - 1))
}

/// Expands a compressed index by inserting `0` bits at the two *sorted*
/// positions `p0 < p1` (final bit positions in the expanded index).
#[inline(always)]
fn insert_two_bits(k: usize, p0: usize, p1: usize) -> usize {
    debug_assert!(p0 < p1);
    insert_bit(insert_bit(k, p0), p1)
}

/// A pure quantum state of `n` qubits as a dense amplitude vector.
///
/// # Example
///
/// ```
/// use qxsim::StateVector;
/// use cqasm::GateKind;
///
/// let mut psi = StateVector::zero_state(2);
/// psi.apply_gate(&GateKind::H, &[0]);
/// psi.apply_gate(&GateKind::Cnot, &[0, 1]);
/// // Bell state: |00> and |11> each with probability 1/2.
/// assert!((psi.probability_of(0b00) - 0.5).abs() < 1e-12);
/// assert!((psi.probability_of(0b11) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct StateVector {
    n: usize,
    amps: Vec<C64>,
    /// Threads the dense kernels may split over (see
    /// [`StateVector::with_threads`]). Not part of the state's value.
    threads: usize,
}

impl PartialEq for StateVector {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.amps == other.amps
    }
}

impl StateVector {
    /// Creates the all-zeros state `|0...0>`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is so large that `2^n` amplitudes cannot be allocated
    /// as a `Vec` (practically, `n > ~30` on common machines will abort on
    /// allocation failure).
    pub fn zero_state(n: usize) -> Self {
        assert!(n < 64, "qubit count {n} out of supported range");
        let mut amps = vec![C64::ZERO; 1usize << n];
        amps[0] = C64::ONE;
        StateVector::from_parts(n, amps)
    }

    /// Creates a computational basis state `|basis>`.
    ///
    /// # Panics
    ///
    /// Panics if `basis >= 2^n`.
    pub fn basis_state(n: usize, basis: u64) -> Self {
        let mut s = StateVector::zero_state(n);
        assert!((basis as usize) < s.amps.len(), "basis index out of range");
        s.amps[0] = C64::ZERO;
        s.amps[basis as usize] = C64::ONE;
        s
    }

    /// Creates a state from explicit amplitudes (normalising them).
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two or the vector is all-zero.
    pub fn from_amplitudes(amps: Vec<C64>) -> Self {
        assert!(
            amps.len().is_power_of_two(),
            "length must be a power of two"
        );
        let n = amps.len().trailing_zeros() as usize;
        let mut s = StateVector::from_parts(n, amps);
        let norm = s.norm();
        assert!(norm > EPSILON, "cannot normalise the zero vector");
        let inv = 1.0 / norm;
        for a in &mut s.amps {
            *a = *a * inv;
        }
        s
    }

    /// Wraps explicit amplitudes *without* normalising. For callers that
    /// have already produced a normalised (or deliberately unnormalised)
    /// vector — e.g. differential oracles replaying the executor's exact
    /// collapse arithmetic — where [`StateVector::from_amplitudes`]'s
    /// renormalisation would perturb the bit pattern.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two.
    pub fn from_raw(amps: Vec<C64>) -> Self {
        assert!(
            amps.len().is_power_of_two(),
            "length must be a power of two"
        );
        let n = amps.len().trailing_zeros() as usize;
        StateVector::from_parts(n, amps)
    }

    fn from_parts(n: usize, amps: Vec<C64>) -> Self {
        StateVector {
            n,
            amps,
            threads: auto_threads(),
        }
    }

    /// Caps the threads the dense kernels split this state's sweeps over
    /// (at least 1). A new state may use every core of the host
    /// ([`auto_threads`]); an executor that already runs work in parallel
    /// grants each of its states only its share, so kernel threads never
    /// nest inside other threads. Results are bit-identical for any count.
    pub(crate) fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Threads a dense sweep splits over: the state's budget from
    /// [`par_min_qubits`] qubits up, one below.
    fn sweep_threads(&self) -> usize {
        if self.n >= par_min_qubits() {
            self.threads
        } else {
            1
        }
    }

    /// Number of qubits.
    #[inline]
    pub fn qubit_count(&self) -> usize {
        self.n
    }

    /// Read-only view of the amplitudes.
    #[inline]
    pub fn amplitudes(&self) -> &[C64] {
        &self.amps
    }

    /// Euclidean norm of the amplitude vector (1 for a valid state).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Probability of observing the full basis string `basis`.
    #[inline]
    pub fn probability_of(&self, basis: u64) -> f64 {
        self.amps[basis as usize].norm_sqr()
    }

    /// Probability that qubit `q` measures as 1.
    ///
    /// Walks only the `2^(n-1)` amplitudes with bit `q` set, in strided
    /// blocks, instead of filtering all `2^n` indices.
    pub fn probability_one(&self, q: usize) -> f64 {
        let stride = 1usize << q;
        let mut sum = 0.0f64;
        let mut base = stride;
        while base < self.amps.len() {
            for a in &self.amps[base..base + stride] {
                sum += a.norm_sqr();
            }
            base += stride << 1;
        }
        sum
    }

    /// Expectation value of Pauli-Z on qubit `q` (`+1` for |0>, `-1` for |1>).
    pub fn expectation_z(&self, q: usize) -> f64 {
        1.0 - 2.0 * self.probability_one(q)
    }

    /// Expectation of an arbitrary diagonal observable: sums
    /// `|amp(b)|^2 * f(b)` over all basis states `b`.
    ///
    /// This is how the QAOA layer evaluates cost Hamiltonians exactly
    /// instead of by sampling.
    pub fn expectation_diagonal<F: Fn(u64) -> f64>(&self, f: F) -> f64 {
        self.amps
            .iter()
            .enumerate()
            .map(|(i, a)| a.norm_sqr() * f(i as u64))
            .sum()
    }

    /// `|<self|other>|^2`, the state fidelity between two pure states.
    ///
    /// # Panics
    ///
    /// Panics if the qubit counts differ.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        assert_eq!(self.n, other.n, "fidelity requires equal qubit counts");
        let mut ip = C64::ZERO;
        for (a, b) in self.amps.iter().zip(&other.amps) {
            ip += a.conj() * *b;
        }
        ip.norm_sqr()
    }

    /// Applies a single-qubit unitary to qubit `q`.
    ///
    /// Registers of [`par_min_qubits`] or more qubits are chunked across
    /// the state's thread budget (see [`par`]); the result is bit-identical
    /// either way since every amplitude pair is updated independently.
    pub fn apply_1q(&mut self, m: &Mat2, q: usize) {
        debug_assert!(q < self.n);
        let threads = self.sweep_threads();
        if threads > 1 {
            par::apply_1q_threaded(self, m, q, threads);
        } else {
            let pairs = self.amps.len() >> 1;
            self.apply_1q_range(m, q, 0, pairs);
        }
    }

    /// Applies `m` to the amplitude pairs with pair index in `lo..hi`.
    /// Pair index `p` expands to the basis pair `(insert_bit(p, q),
    /// insert_bit(p, q) | 1 << q)`.
    ///
    /// Consecutive pair indices within a `2^q`-aligned block map to
    /// consecutive basis indices, so the range is walked block-by-block
    /// with a contiguous inner loop (one `insert_bit` per block, not per
    /// pair) to keep the traversal as cheap as the classic strided form.
    fn apply_1q_range(&mut self, m: &Mat2, q: usize, lo: usize, hi: usize) {
        let bit = 1usize << q;
        let [[m00, m01], [m10, m11]] = m.0;
        let mut p = lo;
        while p < hi {
            let run = (bit - (p & (bit - 1))).min(hi - p);
            let i0 = insert_bit(p, q);
            for j in 0..run {
                let a0 = self.amps[i0 + j];
                let a1 = self.amps[i0 + j + bit];
                self.amps[i0 + j] = m00 * a0 + m01 * a1;
                self.amps[i0 + j + bit] = m10 * a0 + m11 * a1;
            }
            p += run;
        }
    }

    /// Applies a two-qubit unitary. The matrix is in the basis
    /// `|q_hi q_lo>` where `q_hi` is the **first** operand (matching
    /// [`cqasm::GateUnitary::Two`]).
    ///
    /// Enumerates the `2^(n-2)` four-element orbits directly (no scan over
    /// non-orbit indices) and chunks them across threads for large
    /// registers, like [`StateVector::apply_1q`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds if operands alias or are out of range.
    pub fn apply_2q(&mut self, m: &Mat4, q_hi: usize, q_lo: usize) {
        debug_assert!(q_hi != q_lo && q_hi < self.n && q_lo < self.n);
        let threads = self.sweep_threads();
        if threads > 1 {
            par::apply_2q_threaded(self, m, q_hi, q_lo, threads);
        } else {
            let orbits = self.amps.len() >> 2;
            self.apply_2q_range(m, q_hi, q_lo, 0, orbits);
        }
    }

    /// Applies `m` to the four-element orbits with orbit index in `lo..hi`.
    fn apply_2q_range(&mut self, m: &Mat4, q_hi: usize, q_lo: usize, lo: usize, hi: usize) {
        let bh = 1usize << q_hi;
        let bl = 1usize << q_lo;
        let (p0, p1) = if q_hi < q_lo {
            (q_hi, q_lo)
        } else {
            (q_lo, q_hi)
        };
        let mm = &m.0;
        for k in lo..hi {
            let i00 = insert_two_bits(k, p0, p1);
            let i01 = i00 | bl;
            let i10 = i00 | bh;
            let i11 = i00 | bh | bl;
            let a0 = self.amps[i00];
            let a1 = self.amps[i01];
            let a2 = self.amps[i10];
            let a3 = self.amps[i11];
            self.amps[i00] = mm[0][0] * a0 + mm[0][1] * a1 + mm[0][2] * a2 + mm[0][3] * a3;
            self.amps[i01] = mm[1][0] * a0 + mm[1][1] * a1 + mm[1][2] * a2 + mm[1][3] * a3;
            self.amps[i10] = mm[2][0] * a0 + mm[2][1] * a1 + mm[2][2] * a2 + mm[2][3] * a3;
            self.amps[i11] = mm[3][0] * a0 + mm[3][1] * a1 + mm[3][2] * a2 + mm[3][3] * a3;
        }
    }

    /// Applies a single-qubit unitary to `target` conditioned on every qubit
    /// in `controls` being `|1>`. Used for Toffoli and the multi-controlled
    /// oracles of Grover search.
    ///
    /// Enumerates only the `2^(n - controls - 1)` amplitude pairs where all
    /// control bits are set, by inserting the fixed control/target bits into
    /// a compressed counter.
    pub fn apply_controlled_1q(&mut self, m: &Mat2, controls: &[usize], target: usize) {
        debug_assert!(!controls.contains(&target));
        // Fixed bits of the orbit base, sorted by position: each control is
        // pinned to 1, the target to 0.
        let mut fixed: Vec<(usize, usize)> = controls.iter().map(|&c| (c, 1)).collect();
        fixed.push((target, 0));
        fixed.sort_unstable();
        let pairs = self.amps.len() >> fixed.len();
        let threads = self.sweep_threads();
        if threads > 1 {
            par::apply_controlled_1q_threaded(self, m, controls, target, threads);
        } else {
            self.apply_controlled_1q_range(m, &fixed, target, 0, pairs);
        }
    }

    /// Applies `m` to the fixed-bit orbit pairs with pair index in `lo..hi`:
    /// pair index `k` expands to the basis pair by inserting every
    /// `(position, value)` of `fixed` (controls pinned to 1, target to 0),
    /// then setting the target bit for the second element.
    fn apply_controlled_1q_range(
        &mut self,
        m: &Mat2,
        fixed: &[(usize, usize)],
        target: usize,
        lo: usize,
        hi: usize,
    ) {
        let tbit = 1usize << target;
        let [[m00, m01], [m10, m11]] = m.0;
        for k in lo..hi {
            let mut i0 = k;
            for &(pos, val) in fixed {
                i0 = ((i0 >> pos) << (pos + 1)) | (val << pos) | (i0 & ((1usize << pos) - 1));
            }
            let i1 = i0 | tbit;
            let a0 = self.amps[i0];
            let a1 = self.amps[i1];
            self.amps[i0] = m00 * a0 + m01 * a1;
            self.amps[i1] = m10 * a0 + m11 * a1;
        }
    }

    /// Applies a fused diagonal operator over the given support qubits:
    /// each amplitude is scaled by the table entry its support bits select
    /// (one sweep over all `2^n` amplitudes, no matter how many gates were
    /// fused into the table).
    ///
    /// Registers at or above [`par_min_qubits`] are chunked across threads;
    /// the result is bit-identical since every amplitude is independent.
    pub fn apply_fused_diag(&mut self, diag: &FusedDiagonal, qubits: &[usize]) {
        debug_assert_eq!(diag.entries.len(), 1usize << qubits.len());
        let threads = self.sweep_threads();
        if threads > 1 {
            par::apply_fused_diag_threaded(self, diag, qubits, threads);
        } else {
            let len = self.amps.len();
            self.apply_fused_diag_range(&diag.entries, qubits, 0, len);
        }
    }

    /// Scales the amplitudes with basis index in `lo..hi` by their fused
    /// diagonal entry.
    ///
    /// The pattern gather (bit `j` of the table index = the state of
    /// `qubits[j]`) is split at bit `m`: contributions from basis bits
    /// below `m` are tabulated once, contributions from the bits at or
    /// above `m` only change every `2^m` indices, so the hot loop is one
    /// table load, an OR and a complex multiply per amplitude.
    fn apply_fused_diag_range(&mut self, entries: &[C64], qubits: &[usize], lo: usize, hi: usize) {
        const LOW_BITS_MAX: usize = 11;
        let m = self.n.min(LOW_BITS_MAX);
        let low_len = 1usize << m;
        // Support is capped at MAX_FUSED_DIAG_QUBITS = 12, so patterns fit u16.
        let mut low_table = vec![0u16; low_len];
        for (low_bits, slot) in low_table.iter_mut().enumerate() {
            let mut pat = 0usize;
            for (j, &q) in qubits.iter().enumerate() {
                if q < m {
                    pat |= ((low_bits >> q) & 1) << j;
                }
            }
            *slot = pat as u16;
        }
        let mut i = lo;
        while i < hi {
            let mut high_pat = 0usize;
            for (j, &q) in qubits.iter().enumerate() {
                if q >= m {
                    high_pat |= ((i >> q) & 1) << j;
                }
            }
            let run_end = hi.min((i | (low_len - 1)) + 1);
            for idx in i..run_end {
                let pat = high_pat | low_table[idx & (low_len - 1)] as usize;
                self.amps[idx] *= entries[pat];
            }
            i = run_end;
        }
    }

    /// Applies a fused dense block over `k <= 3` support qubits in one
    /// cache-blocked orbit pass: each of the `2^(n-k)` orbits gathers its
    /// `2^k` amplitudes, multiplies by the block matrix, and scatters back.
    /// The block's index convention is LSB-first over `qubits` (bit `j` of
    /// a row/column index = the state of `qubits[j]`).
    ///
    /// Registers at or above [`par_min_qubits`] are chunked across threads
    /// by orbit range; the result is bit-identical to the serial pass.
    ///
    /// # Panics
    ///
    /// Panics if `block.k != qubits.len()` or `block.k > 3`.
    pub fn apply_block(&mut self, block: &BlockUnitary, qubits: &[usize]) {
        assert_eq!(block.k, qubits.len(), "block operand count mismatch");
        assert!(block.k <= 3, "fused blocks are limited to 3 qubits");
        let orbits = self.amps.len() >> block.k;
        let threads = self.sweep_threads();
        if threads > 1 {
            par::apply_block_threaded(self, block, qubits, threads);
        } else {
            self.apply_block_range(block, qubits, 0, orbits);
        }
    }

    /// Applies the block to the orbits with orbit index in `lo..hi`,
    /// monomorphised over the block width so the matvec unrolls.
    fn apply_block_range(&mut self, block: &BlockUnitary, qubits: &[usize], lo: usize, hi: usize) {
        match block.k {
            1 => self.block_orbits::<1, 2>(block, qubits, lo, hi),
            2 => self.block_orbits::<2, 4>(block, qubits, lo, hi),
            _ => self.block_orbits::<3, 8>(block, qubits, lo, hi),
        }
    }

    /// The dense `DIM x DIM` orbit pass (`DIM = 2^K`): gather, matvec,
    /// scatter.
    fn block_orbits<const K: usize, const DIM: usize>(
        &mut self,
        block: &BlockUnitary,
        qubits: &[usize],
        lo: usize,
        hi: usize,
    ) {
        debug_assert_eq!(block.k, K);
        debug_assert_eq!(1usize << K, DIM);
        let mut sorted = [0usize; K];
        sorted.copy_from_slice(qubits);
        sorted.sort_unstable();
        // offsets[l]: the basis offset of local index l from the orbit base
        // (the OR of operand bit j for every set bit j of l).
        let mut offsets = [0usize; DIM];
        for (l, off) in offsets.iter_mut().enumerate() {
            for (j, &q) in qubits.iter().enumerate() {
                if (l >> j) & 1 == 1 {
                    *off |= 1usize << q;
                }
            }
        }
        let mut m = [C64::ZERO; 64];
        m[..DIM * DIM].copy_from_slice(&block.m);
        let mut a = [C64::ZERO; DIM];
        let amps = self.amps.as_mut_slice();
        for k in lo..hi {
            let mut base = k;
            for &p in &sorted {
                base = insert_bit(base, p);
            }
            debug_assert!(base | offsets[DIM - 1] < amps.len());
            // SAFETY: `base` has zeros in every support-bit position and
            // `base | offsets[DIM - 1]` (all support bits set) is the
            // largest index of the orbit, below `amps.len()` for any
            // in-range orbit index.
            unsafe {
                for (l, slot) in a.iter_mut().enumerate() {
                    *slot = *amps.get_unchecked(base | offsets[l]);
                }
                for r in 0..DIM {
                    let mut acc = C64::ZERO;
                    for (c, amp) in a.iter().enumerate() {
                        acc += m[r * DIM + c] * *amp;
                    }
                    *amps.get_unchecked_mut(base | offsets[r]) = acc;
                }
            }
        }
    }

    /// Applies a layer of independent single-qubit unitaries — factor `j`
    /// acts on `qubits[j]` — in one factored orbit pass: each `2^k` orbit
    /// is loaded once, each factor rotates its amplitude pairs in
    /// registers, and the orbit is stored once. Same arithmetic as
    /// applying the gates separately, but one memory sweep instead of one
    /// per gate.
    ///
    /// Registers at or above [`par_min_qubits`] are chunked across threads
    /// by orbit range; the result is bit-identical to the serial pass.
    ///
    /// # Panics
    ///
    /// Panics if `mats.len() != qubits.len()` or the layer spans more than
    /// 3 qubits.
    pub fn apply_1q_layer(&mut self, mats: &[Mat2], qubits: &[usize]) {
        assert_eq!(mats.len(), qubits.len(), "layer factor count mismatch");
        assert!(
            !qubits.is_empty() && qubits.len() <= MAX_1Q_LAYER_QUBITS,
            "fused 1q layers are limited to {MAX_1Q_LAYER_QUBITS} qubits"
        );
        let orbits = self.amps.len() >> qubits.len();
        let threads = self.sweep_threads();
        if threads > 1 {
            par::apply_1q_layer_threaded(self, mats, qubits, threads);
        } else {
            let (sorted, offsets) = layer_tables(qubits);
            // SAFETY: `&mut self` gives exclusive access to the full
            // amplitude storage, and `0..orbits` covers exactly the
            // in-bounds orbits.
            unsafe {
                layer_pass_raw(self.amps.as_mut_ptr(), mats, &sorted, &offsets, 0, orbits);
            }
        }
    }

    /// Applies the diagonal unitary `diag(c0, c1)` to qubit `q` (Z, S, T,
    /// Rz, ...): every amplitude is scaled, none move.
    pub fn apply_diagonal_1q(&mut self, c0: C64, c1: C64, q: usize) {
        debug_assert!(q < self.n);
        let stride = 1usize << q;
        let mut base = 0usize;
        while base < self.amps.len() {
            for a in &mut self.amps[base..base + stride] {
                *a *= c0;
            }
            for a in &mut self.amps[base + stride..base + (stride << 1)] {
                *a *= c1;
            }
            base += stride << 1;
        }
    }

    /// Applies the anti-diagonal unitary `[[0, c0], [c1, 0]]` to qubit `q`:
    /// each amplitude pair swaps, scaled by `c0` (new `|0>` row) and `c1`
    /// (new `|1>` row). X is `c0 = c1 = 1`; Y is `c0 = -i`, `c1 = i`.
    pub fn apply_antidiagonal_1q(&mut self, c0: C64, c1: C64, q: usize) {
        debug_assert!(q < self.n);
        let bit = 1usize << q;
        for p in 0..self.amps.len() >> 1 {
            let i0 = insert_bit(p, q);
            let i1 = i0 | bit;
            let a0 = self.amps[i0];
            let a1 = self.amps[i1];
            self.amps[i0] = c0 * a1;
            self.amps[i1] = c1 * a0;
        }
    }

    /// Applies CNOT as a pure index permutation: swaps each amplitude pair
    /// whose control bit is set.
    pub fn apply_cnot(&mut self, control: usize, target: usize) {
        debug_assert!(control != target && control < self.n && target < self.n);
        let cbit = 1usize << control;
        let tbit = 1usize << target;
        let (p0, p1) = if control < target {
            (control, target)
        } else {
            (target, control)
        };
        for k in 0..self.amps.len() >> 2 {
            let i10 = insert_two_bits(k, p0, p1) | cbit;
            self.amps.swap(i10, i10 | tbit);
        }
    }

    /// Applies CZ: negates the amplitudes with both qubit bits set.
    pub fn apply_cz(&mut self, a: usize, b: usize) {
        self.apply_controlled_phase(-C64::ONE, a, b);
    }

    /// Applies a controlled phase (CZ, `cr`, `crk`): multiplies the
    /// amplitudes with both qubit bits set by `phase`.
    pub fn apply_controlled_phase(&mut self, phase: C64, a: usize, b: usize) {
        debug_assert!(a != b && a < self.n && b < self.n);
        let both = (1usize << a) | (1usize << b);
        let (p0, p1) = if a < b { (a, b) } else { (b, a) };
        for k in 0..self.amps.len() >> 2 {
            let i11 = insert_two_bits(k, p0, p1) | both;
            self.amps[i11] *= phase;
        }
    }

    /// Applies SWAP as a pure index permutation: exchanges the `|01>` and
    /// `|10>` amplitudes of each orbit.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        debug_assert!(a != b && a < self.n && b < self.n);
        let ba = 1usize << a;
        let bb = 1usize << b;
        let (p0, p1) = if a < b { (a, b) } else { (b, a) };
        for k in 0..self.amps.len() >> 2 {
            let i00 = insert_two_bits(k, p0, p1);
            self.amps.swap(i00 | ba, i00 | bb);
        }
    }

    /// Applies a pre-classified kernel (see [`cqasm::GateKind::kernel`]) to
    /// the given operands. This is the dispatch point the compiled shot
    /// plans use: classification happens once per program, not per shot.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if operand indices are out of range or the
    /// operand count does not match the kernel's arity.
    pub fn apply_kernel(&mut self, kernel: &KernelClass, qubits: &[usize]) {
        match kernel {
            KernelClass::Identity => {}
            KernelClass::Diagonal1q(c0, c1) => self.apply_diagonal_1q(*c0, *c1, qubits[0]),
            KernelClass::AntiDiagonal1q(c0, c1) => self.apply_antidiagonal_1q(*c0, *c1, qubits[0]),
            KernelClass::General1q(m) => self.apply_1q(m, qubits[0]),
            KernelClass::Cnot => self.apply_cnot(qubits[0], qubits[1]),
            KernelClass::Cz => self.apply_cz(qubits[0], qubits[1]),
            KernelClass::Swap => self.apply_swap(qubits[0], qubits[1]),
            KernelClass::ControlledPhase(p) => {
                self.apply_controlled_phase(*p, qubits[0], qubits[1])
            }
            KernelClass::General2q(m) => self.apply_2q(m, qubits[0], qubits[1]),
            KernelClass::ControlledControlled(m) => {
                self.apply_controlled_1q(m, &qubits[..2], qubits[2])
            }
            KernelClass::Fused1q(m) => self.apply_1q(m, qubits[0]),
            KernelClass::FusedDiag(d) => self.apply_fused_diag(d, qubits),
            KernelClass::FusedBlock(b) => self.apply_block(b, qubits),
            KernelClass::Fused1qLayer(mats) => self.apply_1q_layer(mats, qubits),
        }
    }

    /// Multiplies the amplitude of every basis state selected by `pred` by
    /// `phase`. This is the diagonal-oracle primitive (e.g. Grover's
    /// phase-flip oracle with `phase = -1`).
    pub fn apply_phase_if<F: Fn(u64) -> bool>(&mut self, phase: C64, pred: F) {
        for (i, a) in self.amps.iter_mut().enumerate() {
            if pred(i as u64) {
                *a *= phase;
            }
        }
    }

    /// Applies the diagonal unitary `e^{-i f(b)}` basis state by basis
    /// state. This implements `exp(-i gamma H_C)` for a diagonal cost
    /// Hamiltonian — the QAOA phase-separation layer.
    pub fn apply_diagonal_phase<F: Fn(u64) -> f64>(&mut self, f: F) {
        for (i, a) in self.amps.iter_mut().enumerate() {
            *a *= C64::cis(-f(i as u64));
        }
    }

    /// Applies a classical permutation unitary: `|b> -> |f(b)>`.
    ///
    /// This is how reversible classical arithmetic (e.g. the modular
    /// multiplication inside Shor's order finding) is executed without
    /// synthesising its full gate network.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not a bijection on the basis set.
    pub fn apply_permutation<F: Fn(u64) -> u64>(&mut self, f: F) {
        let len = self.amps.len();
        let mut new = vec![C64::ZERO; len];
        let mut hit = vec![false; len];
        for (b, a) in self.amps.iter().enumerate() {
            let t = f(b as u64) as usize;
            assert!(t < len, "permutation target out of range");
            assert!(!hit[t], "permutation is not a bijection (collision at {t})");
            hit[t] = true;
            new[t] = *a;
        }
        self.amps = new;
    }

    /// Applies a gate from the cQASM library to the given operands.
    ///
    /// # Panics
    ///
    /// Panics if the operand count does not match the gate arity or indices
    /// are out of range.
    pub fn apply_gate(&mut self, kind: &cqasm::GateKind, qubits: &[usize]) {
        assert_eq!(qubits.len(), kind.arity(), "operand count mismatch");
        for &q in qubits {
            assert!(q < self.n, "qubit index {q} out of range");
        }
        self.apply_kernel(&kind.kernel(), qubits);
    }

    /// Projectively measures qubit `q` in the Z basis, collapsing the state.
    /// Returns the outcome bit.
    pub fn measure<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> bool {
        let p1 = self.probability_one(q);
        let outcome = rng.gen_bool(p1.clamp(0.0, 1.0));
        self.collapse(q, outcome);
        outcome
    }

    /// Forces qubit `q` into the given classical value, renormalising.
    /// (Projective collapse without randomness; used by `prep_z` and by
    /// deterministic replay in tests.)
    pub fn collapse(&mut self, q: usize, value: bool) {
        let mask = 1usize << q;
        let mut kept = 0.0f64;
        for (i, a) in self.amps.iter_mut().enumerate() {
            if ((i & mask) != 0) != value {
                *a = C64::ZERO;
            } else {
                kept += a.norm_sqr();
            }
        }
        if kept > EPSILON {
            let inv = 1.0 / kept.sqrt();
            for a in &mut self.amps {
                *a = *a * inv;
            }
        }
    }

    /// Resets qubit `q` to `|0>`: measures it and applies X if the outcome
    /// was 1. This is the semantics of `prep_z` on a running register.
    pub fn reset<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) {
        if self.measure(q, rng) {
            let x = match cqasm::GateKind::X.unitary() {
                cqasm::GateUnitary::One(m) => m,
                _ => unreachable!(),
            };
            self.apply_1q(&x, q);
        }
    }

    /// The running sum of basis-state probabilities: entry `i` is
    /// `sum_{j <= i} |amp(j)|^2` (the last entry is ~1). Build this once on
    /// a frozen state and draw any number of samples from it with
    /// [`StateVector::sample_from_cumulative`] in `O(log 2^n)` each — the
    /// noise-free multi-shot fast path of the executor.
    pub fn cumulative_probabilities(&self) -> Vec<f64> {
        let mut cum = Vec::with_capacity(self.amps.len());
        let mut acc = 0.0f64;
        for a in &self.amps {
            acc += a.norm_sqr();
            cum.push(acc);
        }
        cum
    }

    /// Maps a uniform draw `r` in `[0, 1)` to a basis index by binary search
    /// on a cumulative table from
    /// [`StateVector::cumulative_probabilities`]: the first index `i` with
    /// `r < cum[i]`. Equivalent to (and bit-compatible with) a linear scan
    /// accumulating left to right.
    pub fn sample_from_cumulative(cum: &[f64], r: f64) -> u64 {
        cum.partition_point(|&c| c <= r).min(cum.len() - 1) as u64
    }

    /// Samples a full measurement of all qubits *without* collapsing the
    /// state (used for multi-shot histogram estimation on a frozen state).
    pub fn sample_all<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let r: f64 = rng.gen();
        Self::sample_from_cumulative(&self.cumulative_probabilities(), r)
    }

    /// Measures all qubits, collapsing to a single basis state. Returns the
    /// observed basis index.
    pub fn measure_all<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let outcome = self.sample_all(rng);
        for (i, a) in self.amps.iter_mut().enumerate() {
            *a = if i as u64 == outcome {
                C64::ONE
            } else {
                C64::ZERO
            };
        }
        outcome
    }
}

/// The widest fused 1q layer the factored orbit pass accepts. Measured
/// sweet spot: wider layers cut memory passes but each extra factor
/// doubles the gather footprint per orbit, and past `2^4` amplitudes the
/// strided gather (page-sized strides for high qubits) costs more than
/// the passes it saves. The kernel itself handles widths up to 8 (see
/// [`layer_pass_raw`]) so this cap can be retuned without code changes.
pub const MAX_1Q_LAYER_QUBITS: usize = 4;

/// Precomputes the sorted support and the orbit-local offset table for a
/// 1q layer: `offsets[l]` is the basis offset of local index `l` from the
/// orbit base (the OR of operand bit `j` for every set bit `j` of `l`).
fn layer_tables(qubits: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut sorted: Vec<usize> = qubits.to_vec();
    sorted.sort_unstable();
    let dim = 1usize << qubits.len();
    let mut offsets = vec![0usize; dim];
    for (l, off) in offsets.iter_mut().enumerate() {
        for (j, &q) in qubits.iter().enumerate() {
            if (l >> j) & 1 == 1 {
                *off |= 1usize << q;
            }
        }
    }
    (sorted, offsets)
}

/// The factored 1q-layer orbit pass over raw amplitude storage: each orbit
/// in `lo..hi` is gathered into an L1-resident buffer, every factor
/// rotates its amplitude pairs in the buffer (branchless strided walk),
/// and the orbit is scattered back — the same arithmetic as applying the
/// gates separately, in one memory sweep.
///
/// # Safety
///
/// `amps` must point to storage containing every basis index `base |
/// offsets[l]` reachable from an orbit index in `lo..hi`, and the caller
/// must have exclusive access to those indices (disjoint orbit ranges on
/// disjoint workers are fine).
unsafe fn layer_pass_raw(
    amps: *mut C64,
    mats: &[Mat2],
    sorted: &[usize],
    offsets: &[usize],
    lo: usize,
    hi: usize,
) {
    // Monomorphize per width so the factor loop unrolls into fixed-stride
    // passes the compiler can vectorize.
    match mats.len() {
        1 => layer_orbits::<1, 2>(amps, mats, sorted, offsets, lo, hi),
        2 => layer_orbits::<2, 4>(amps, mats, sorted, offsets, lo, hi),
        3 => layer_orbits::<3, 8>(amps, mats, sorted, offsets, lo, hi),
        4 => layer_orbits::<4, 16>(amps, mats, sorted, offsets, lo, hi),
        5 => layer_orbits::<5, 32>(amps, mats, sorted, offsets, lo, hi),
        6 => layer_orbits::<6, 64>(amps, mats, sorted, offsets, lo, hi),
        7 => layer_orbits::<7, 128>(amps, mats, sorted, offsets, lo, hi),
        8 => layer_orbits::<8, 256>(amps, mats, sorted, offsets, lo, hi),
        k => unreachable!("fused 1q layer width {k} exceeds {MAX_1Q_LAYER_QUBITS}"),
    }
}

/// The width-`K` instantiation of the layer pass (`DIM` must be `2^K`).
///
/// # Safety
///
/// Same contract as [`layer_pass_raw`], plus `mats`/`sorted` must hold
/// exactly `K` entries and `offsets` exactly `DIM`.
unsafe fn layer_orbits<const K: usize, const DIM: usize>(
    amps: *mut C64,
    mats: &[Mat2],
    sorted: &[usize],
    offsets: &[usize],
    lo: usize,
    hi: usize,
) {
    let mut m = [[[C64::ZERO; 2]; 2]; K];
    for (slot, mat) in m.iter_mut().zip(mats) {
        *slot = mat.0;
    }
    let mut sp = [0usize; K];
    sp.copy_from_slice(&sorted[..K]);
    let mut off = [0usize; DIM];
    off.copy_from_slice(&offsets[..DIM]);
    let mut buf = [C64::ZERO; DIM];
    for orbit in lo..hi {
        let mut base = orbit;
        for &p in sp.iter() {
            base = insert_bit(base, p);
        }
        for l in 0..DIM {
            *buf.get_unchecked_mut(l) = *amps.add(base | *off.get_unchecked(l));
        }
        for (j, [[m00, m01], [m10, m11]]) in m.into_iter().enumerate() {
            let bit = 1usize << j;
            let mut b = 0usize;
            while b < DIM {
                for l in b..b + bit {
                    let x = *buf.get_unchecked(l);
                    let y = *buf.get_unchecked(l | bit);
                    *buf.get_unchecked_mut(l) = m00 * x + m01 * y;
                    *buf.get_unchecked_mut(l | bit) = m10 * x + m11 * y;
                }
                b += bit << 1;
            }
        }
        for l in 0..DIM {
            *amps.add(base | *off.get_unchecked(l)) = *buf.get_unchecked(l);
        }
    }
}

/// Chunk-parallel dense kernels over `std::thread::scope`.
///
/// Each worker owns a disjoint range of *orbit indices*; since the orbit
/// index ↔ basis indices mapping is a bijection, no two workers ever touch
/// the same amplitude, and because every orbit's update is the same
/// floating-point expression regardless of which thread runs it, the result
/// is bit-identical to the serial kernels for any thread count.
///
/// (The project vendors no `rayon`; scoped threads give the same chunked
/// fork-join shape with zero dependencies.)
pub mod par {
    use super::{insert_bit, insert_two_bits, StateVector};
    use cqasm::math::{Mat2, Mat4, C64};
    use cqasm::{BlockUnitary, FusedDiagonal};

    /// A raw amplitude pointer that may cross thread boundaries. Safety is
    /// argued at each use site: workers write disjoint index sets.
    struct AmpsPtr(*mut cqasm::math::C64);
    unsafe impl Send for AmpsPtr {}
    unsafe impl Sync for AmpsPtr {}

    /// [`StateVector::apply_1q`] with the amplitude pairs split across
    /// `threads` workers. Exposed so tests can force a thread count on
    /// registers below the automatic threshold.
    pub fn apply_1q_threaded(state: &mut StateVector, m: &Mat2, q: usize, threads: usize) {
        let pairs = state.amps.len() >> 1;
        let threads = threads.clamp(1, pairs.max(1));
        if threads <= 1 {
            state.apply_1q_range(m, q, 0, pairs);
            return;
        }
        let bit = 1usize << q;
        let [[m00, m01], [m10, m11]] = m.0;
        let amps = AmpsPtr(state.amps.as_mut_ptr());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let lo = pairs * t / threads;
                let hi = pairs * (t + 1) / threads;
                let amps = &amps;
                scope.spawn(move || {
                    let base = amps.0;
                    for p in lo..hi {
                        let i0 = insert_bit(p, q);
                        let i1 = i0 | bit;
                        // SAFETY: `p -> (i0, i1)` is injective with disjoint
                        // images across pair indices, and the `lo..hi`
                        // ranges partition `0..pairs`, so no other worker
                        // reads or writes these two amplitudes.
                        unsafe {
                            let a0 = *base.add(i0);
                            let a1 = *base.add(i1);
                            *base.add(i0) = m00 * a0 + m01 * a1;
                            *base.add(i1) = m10 * a0 + m11 * a1;
                        }
                    }
                });
            }
        });
    }

    /// [`StateVector::apply_2q`] with the four-element orbits split across
    /// `threads` workers. Exposed so tests can force a thread count on
    /// registers below the automatic threshold.
    pub fn apply_2q_threaded(
        state: &mut StateVector,
        m: &Mat4,
        q_hi: usize,
        q_lo: usize,
        threads: usize,
    ) {
        let orbits = state.amps.len() >> 2;
        let threads = threads.clamp(1, orbits.max(1));
        if threads <= 1 {
            state.apply_2q_range(m, q_hi, q_lo, 0, orbits);
            return;
        }
        let bh = 1usize << q_hi;
        let bl = 1usize << q_lo;
        let (p0, p1) = if q_hi < q_lo {
            (q_hi, q_lo)
        } else {
            (q_lo, q_hi)
        };
        let mm = m.0;
        let amps = AmpsPtr(state.amps.as_mut_ptr());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let lo = orbits * t / threads;
                let hi = orbits * (t + 1) / threads;
                let amps = &amps;
                scope.spawn(move || {
                    let base = amps.0;
                    for k in lo..hi {
                        let i00 = insert_two_bits(k, p0, p1);
                        let i01 = i00 | bl;
                        let i10 = i00 | bh;
                        let i11 = i00 | bh | bl;
                        // SAFETY: orbit index `k` maps to four basis indices
                        // disjoint from every other orbit's, and the
                        // `lo..hi` ranges partition `0..orbits`.
                        unsafe {
                            let a0 = *base.add(i00);
                            let a1 = *base.add(i01);
                            let a2 = *base.add(i10);
                            let a3 = *base.add(i11);
                            *base.add(i00) =
                                mm[0][0] * a0 + mm[0][1] * a1 + mm[0][2] * a2 + mm[0][3] * a3;
                            *base.add(i01) =
                                mm[1][0] * a0 + mm[1][1] * a1 + mm[1][2] * a2 + mm[1][3] * a3;
                            *base.add(i10) =
                                mm[2][0] * a0 + mm[2][1] * a1 + mm[2][2] * a2 + mm[2][3] * a3;
                            *base.add(i11) =
                                mm[3][0] * a0 + mm[3][1] * a1 + mm[3][2] * a2 + mm[3][3] * a3;
                        }
                    }
                });
            }
        });
    }

    /// [`StateVector::apply_controlled_1q`] with the fixed-bit orbit pairs
    /// split across `threads` workers. Exposed so tests can force a thread
    /// count on registers below the automatic threshold.
    pub fn apply_controlled_1q_threaded(
        state: &mut StateVector,
        m: &Mat2,
        controls: &[usize],
        target: usize,
        threads: usize,
    ) {
        let mut fixed: Vec<(usize, usize)> = controls.iter().map(|&c| (c, 1)).collect();
        fixed.push((target, 0));
        fixed.sort_unstable();
        let pairs = state.amps.len() >> fixed.len();
        let threads = threads.clamp(1, pairs.max(1));
        if threads <= 1 {
            state.apply_controlled_1q_range(m, &fixed, target, 0, pairs);
            return;
        }
        let tbit = 1usize << target;
        let [[m00, m01], [m10, m11]] = m.0;
        let fixed = &fixed;
        let amps = AmpsPtr(state.amps.as_mut_ptr());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let lo = pairs * t / threads;
                let hi = pairs * (t + 1) / threads;
                let amps = &amps;
                scope.spawn(move || {
                    let base = amps.0;
                    for k in lo..hi {
                        let mut i0 = k;
                        for &(pos, val) in fixed {
                            i0 = ((i0 >> pos) << (pos + 1))
                                | (val << pos)
                                | (i0 & ((1usize << pos) - 1));
                        }
                        let i1 = i0 | tbit;
                        // SAFETY: the fixed-bit expansion is injective with
                        // disjoint `(i0, i1)` images across pair indices,
                        // and `lo..hi` ranges partition `0..pairs`.
                        unsafe {
                            let a0 = *base.add(i0);
                            let a1 = *base.add(i1);
                            *base.add(i0) = m00 * a0 + m01 * a1;
                            *base.add(i1) = m10 * a0 + m11 * a1;
                        }
                    }
                });
            }
        });
    }

    /// [`StateVector::apply_fused_diag`] with the amplitude range split
    /// across `threads` workers. Exposed so tests can force a thread count
    /// on registers below the automatic threshold.
    pub fn apply_fused_diag_threaded(
        state: &mut StateVector,
        diag: &FusedDiagonal,
        qubits: &[usize],
        threads: usize,
    ) {
        let len = state.amps.len();
        let threads = threads.clamp(1, len.max(1));
        if threads <= 1 {
            state.apply_fused_diag_range(&diag.entries, qubits, 0, len);
            return;
        }
        let entries = &diag.entries;
        // Same low-bits pattern table as the serial pass (see
        // `apply_fused_diag_range`), built once and shared by the workers.
        const LOW_BITS_MAX: usize = 11;
        let split = state.n.min(LOW_BITS_MAX);
        let low_len = 1usize << split;
        let mut low_table = vec![0u16; low_len];
        for (low_bits, slot) in low_table.iter_mut().enumerate() {
            let mut pat = 0usize;
            for (j, &q) in qubits.iter().enumerate() {
                if q < split {
                    pat |= ((low_bits >> q) & 1) << j;
                }
            }
            *slot = pat as u16;
        }
        let low_table = &low_table;
        let amps = AmpsPtr(state.amps.as_mut_ptr());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let lo = len * t / threads;
                let hi = len * (t + 1) / threads;
                let amps = &amps;
                scope.spawn(move || {
                    let base = amps.0;
                    let mut i = lo;
                    while i < hi {
                        let mut high_pat = 0usize;
                        for (j, &q) in qubits.iter().enumerate() {
                            if q >= split {
                                high_pat |= ((i >> q) & 1) << j;
                            }
                        }
                        let run_end = hi.min((i | (low_len - 1)) + 1);
                        for idx in i..run_end {
                            let pat = high_pat | low_table[idx & (low_len - 1)] as usize;
                            // SAFETY: each worker touches only its own
                            // `lo..hi` amplitude range; the ranges
                            // partition `0..len`.
                            unsafe {
                                *base.add(idx) *= entries[pat];
                            }
                        }
                        i = run_end;
                    }
                });
            }
        });
    }

    /// [`StateVector::apply_block`] with the `2^k`-element orbits split
    /// across `threads` workers. Exposed so tests can force a thread count
    /// on registers below the automatic threshold.
    pub fn apply_block_threaded(
        state: &mut StateVector,
        block: &BlockUnitary,
        qubits: &[usize],
        threads: usize,
    ) {
        let orbits = state.amps.len() >> block.k;
        let threads = threads.clamp(1, orbits.max(1));
        if threads <= 1 {
            state.apply_block_range(block, qubits, 0, orbits);
            return;
        }
        let dim = block.dim();
        let mut sorted: Vec<usize> = qubits.to_vec();
        sorted.sort_unstable();
        let mut offsets = [0usize; 8];
        for (l, off) in offsets.iter_mut().enumerate().take(dim) {
            for (j, &q) in qubits.iter().enumerate() {
                if (l >> j) & 1 == 1 {
                    *off |= 1usize << q;
                }
            }
        }
        let sorted = &sorted;
        let m = &block.m;
        let amps = AmpsPtr(state.amps.as_mut_ptr());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let lo = orbits * t / threads;
                let hi = orbits * (t + 1) / threads;
                let amps = &amps;
                scope.spawn(move || {
                    let base_ptr = amps.0;
                    let mut a = [C64::ZERO; 8];
                    for k in lo..hi {
                        let mut base = k;
                        for &p in sorted {
                            base = insert_bit(base, p);
                        }
                        // SAFETY: orbit index `k` maps to `2^k` basis
                        // indices disjoint from every other orbit's, and
                        // the `lo..hi` ranges partition `0..orbits`.
                        unsafe {
                            for (l, slot) in a.iter_mut().enumerate().take(dim) {
                                *slot = *base_ptr.add(base | offsets[l]);
                            }
                            for r in 0..dim {
                                let mut acc = C64::ZERO;
                                for (c, amp) in a.iter().enumerate().take(dim) {
                                    acc += m[r * dim + c] * *amp;
                                }
                                *base_ptr.add(base | offsets[r]) = acc;
                            }
                        }
                    }
                });
            }
        });
    }

    /// [`StateVector::apply_1q_layer`] with the `2^k`-element orbits split
    /// across `threads` workers. Exposed so tests can force a thread count
    /// on registers below the automatic threshold.
    pub fn apply_1q_layer_threaded(
        state: &mut StateVector,
        mats: &[Mat2],
        qubits: &[usize],
        threads: usize,
    ) {
        let orbits = state.amps.len() >> qubits.len();
        let threads = threads.clamp(1, orbits.max(1));
        let (sorted, offsets) = super::layer_tables(qubits);
        if threads <= 1 {
            // SAFETY: exclusive `&mut` access, full in-bounds orbit range.
            unsafe {
                super::layer_pass_raw(state.amps.as_mut_ptr(), mats, &sorted, &offsets, 0, orbits);
            }
            return;
        }
        let sorted = &sorted;
        let offsets = &offsets;
        let amps = AmpsPtr(state.amps.as_mut_ptr());
        std::thread::scope(|scope| {
            for t in 0..threads {
                let lo = orbits * t / threads;
                let hi = orbits * (t + 1) / threads;
                let amps = &amps;
                scope.spawn(move || {
                    // SAFETY: orbit indices map to disjoint basis-index
                    // sets; the orbit ranges partition `0..orbits`.
                    unsafe {
                        super::layer_pass_raw(amps.0, mats, sorted, offsets, lo, hi);
                    }
                });
            }
        });
    }
}

/// The original scan-and-skip kernels, kept verbatim as executable ground
/// truth: the property tests check every specialised kernel against these,
/// and the benchmark suite reports speedups relative to them.
pub mod reference {
    use super::StateVector;
    use cqasm::math::{Mat2, Mat4, C64};
    use rand::Rng;

    /// Baseline strided single-qubit kernel.
    pub fn apply_1q(state: &mut StateVector, m: &Mat2, q: usize) {
        let stride = 1usize << q;
        let [[m00, m01], [m10, m11]] = m.0;
        let mut base = 0usize;
        while base < state.amps.len() {
            for off in base..base + stride {
                let i0 = off;
                let i1 = off + stride;
                let a0 = state.amps[i0];
                let a1 = state.amps[i1];
                state.amps[i0] = m00 * a0 + m01 * a1;
                state.amps[i1] = m10 * a0 + m11 * a1;
            }
            base += stride << 1;
        }
    }

    /// Baseline two-qubit kernel: scans all `2^n` indices, skipping the
    /// three quarters that are not an orbit base.
    pub fn apply_2q(state: &mut StateVector, m: &Mat4, q_hi: usize, q_lo: usize) {
        let bh = 1usize << q_hi;
        let bl = 1usize << q_lo;
        for i in 0..state.amps.len() {
            if i & bh != 0 || i & bl != 0 {
                continue;
            }
            let i00 = i;
            let i01 = i | bl;
            let i10 = i | bh;
            let i11 = i | bh | bl;
            let a = [
                state.amps[i00],
                state.amps[i01],
                state.amps[i10],
                state.amps[i11],
            ];
            for (row, idx) in [(0, i00), (1, i01), (2, i10), (3, i11)] {
                let mut acc = C64::ZERO;
                for (col, amp) in a.iter().enumerate() {
                    acc += m.0[row][col] * *amp;
                }
                state.amps[idx] = acc;
            }
        }
    }

    /// Baseline multi-controlled kernel: scans all `2^n` indices, skipping
    /// those whose control bits are not all set.
    pub fn apply_controlled_1q(
        state: &mut StateVector,
        m: &Mat2,
        controls: &[usize],
        target: usize,
    ) {
        let ctrl_mask: usize = controls.iter().map(|c| 1usize << c).sum();
        let tbit = 1usize << target;
        let [[m00, m01], [m10, m11]] = m.0;
        for i in 0..state.amps.len() {
            if i & tbit != 0 {
                continue;
            }
            if i & ctrl_mask != ctrl_mask {
                continue;
            }
            let i0 = i;
            let i1 = i | tbit;
            let a0 = state.amps[i0];
            let a1 = state.amps[i1];
            state.amps[i0] = m00 * a0 + m01 * a1;
            state.amps[i1] = m10 * a0 + m11 * a1;
        }
    }

    /// Baseline gate dispatch straight through the dense unitary, with no
    /// kernel specialisation.
    pub fn apply_gate(state: &mut StateVector, kind: &cqasm::GateKind, qubits: &[usize]) {
        assert_eq!(qubits.len(), kind.arity(), "operand count mismatch");
        match kind.unitary() {
            cqasm::GateUnitary::One(m) => apply_1q(state, &m, qubits[0]),
            cqasm::GateUnitary::Two(m) => apply_2q(state, &m, qubits[0], qubits[1]),
            cqasm::GateUnitary::ControlledControlled(m) => {
                apply_controlled_1q(state, &m, &qubits[..2], qubits[2])
            }
        }
    }

    /// Baseline marginal probability: filters all `2^n` indices.
    pub fn probability_one(state: &StateVector, q: usize) -> f64 {
        let mask = 1usize << q;
        state
            .amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & mask != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Baseline sampling: linear scan of the running probability sum.
    pub fn sample_all<R: Rng + ?Sized>(state: &StateVector, rng: &mut R) -> u64 {
        let r: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, a) in state.amps.iter().enumerate() {
            acc += a.norm_sqr();
            if r < acc {
                return i as u64;
            }
        }
        (state.amps.len() - 1) as u64
    }
}

#[cfg(test)]
mod par_min_qubits_tests {
    use super::*;

    #[test]
    fn valid_overrides_are_honoured() {
        assert_eq!(parse_par_min_qubits(Some("12")), 12);
        assert_eq!(parse_par_min_qubits(Some(" 0 ")), 0);
        assert_eq!(parse_par_min_qubits(Some("63")), 63);
    }

    #[test]
    fn invalid_values_fall_back_to_the_analytic_default() {
        assert_eq!(parse_par_min_qubits(None), PAR_MIN_QUBITS);
        assert_eq!(parse_par_min_qubits(Some("")), PAR_MIN_QUBITS);
        assert_eq!(parse_par_min_qubits(Some("lots")), PAR_MIN_QUBITS);
        assert_eq!(parse_par_min_qubits(Some("-3")), PAR_MIN_QUBITS);
        assert_eq!(parse_par_min_qubits(Some("64")), PAR_MIN_QUBITS);
        assert_eq!(parse_par_min_qubits(Some("18.5")), PAR_MIN_QUBITS);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqasm::GateKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn zero_state_probabilities() {
        let s = StateVector::zero_state(3);
        assert!((s.probability_of(0) - 1.0).abs() < 1e-12);
        assert!((s.norm() - 1.0).abs() < 1e-12);
        assert_eq!(s.qubit_count(), 3);
    }

    #[test]
    fn basis_state_construction() {
        let s = StateVector::basis_state(3, 0b101);
        assert!((s.probability_of(0b101) - 1.0).abs() < 1e-12);
        assert!((s.probability_one(0) - 1.0).abs() < 1e-12);
        assert!(s.probability_one(1) < 1e-12);
        assert!((s.probability_one(2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn hadamard_creates_uniform_superposition() {
        let mut s = StateVector::zero_state(1);
        s.apply_gate(&GateKind::H, &[0]);
        assert!((s.probability_of(0) - 0.5).abs() < 1e-12);
        assert!((s.probability_of(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn ghz_state() {
        let mut s = StateVector::zero_state(4);
        s.apply_gate(&GateKind::H, &[0]);
        for q in 0..3 {
            s.apply_gate(&GateKind::Cnot, &[q, q + 1]);
        }
        assert!((s.probability_of(0b0000) - 0.5).abs() < 1e-12);
        assert!((s.probability_of(0b1111) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cnot_operand_order() {
        // control = q1 (value 1), target = q0.
        let mut s = StateVector::basis_state(2, 0b10);
        s.apply_gate(&GateKind::Cnot, &[1, 0]);
        assert!((s.probability_of(0b11) - 1.0).abs() < 1e-12);
        // control = q0 (value 0): nothing happens.
        let mut s = StateVector::basis_state(2, 0b10);
        s.apply_gate(&GateKind::Cnot, &[0, 1]);
        assert!((s.probability_of(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn toffoli_truth_table() {
        for c1 in 0..2u64 {
            for c2 in 0..2u64 {
                for t in 0..2u64 {
                    let basis = c1 | (c2 << 1) | (t << 2);
                    let mut s = StateVector::basis_state(3, basis);
                    s.apply_gate(&GateKind::Toffoli, &[0, 1, 2]);
                    let expect_t = if c1 == 1 && c2 == 1 { t ^ 1 } else { t };
                    let expect = c1 | (c2 << 1) | (expect_t << 2);
                    assert!(
                        (s.probability_of(expect) - 1.0).abs() < 1e-12,
                        "toffoli failed for basis {basis:03b}"
                    );
                }
            }
        }
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut s = StateVector::basis_state(2, 0b01);
        s.apply_gate(&GateKind::Swap, &[0, 1]);
        assert!((s.probability_of(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn gates_preserve_norm() {
        let mut s = StateVector::zero_state(3);
        let seq: &[(GateKind, &[usize])] = &[
            (GateKind::H, &[0]),
            (GateKind::T, &[0]),
            (GateKind::Cnot, &[0, 1]),
            (GateKind::Rz(0.7), &[1]),
            (GateKind::Ry(1.1), &[2]),
            (GateKind::Toffoli, &[0, 1, 2]),
            (GateKind::Swap, &[0, 2]),
        ];
        for (g, qs) in seq {
            s.apply_gate(g, qs);
            assert!((s.norm() - 1.0).abs() < 1e-10, "norm drifted after {g}");
        }
    }

    #[test]
    fn measure_collapses() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(&GateKind::H, &[0]);
        s.apply_gate(&GateKind::Cnot, &[0, 1]);
        let mut r = rng();
        let m0 = s.measure(0, &mut r);
        // After measuring one half of a Bell pair, the other is determined.
        let p1 = s.probability_one(1);
        if m0 {
            assert!((p1 - 1.0).abs() < 1e-12);
        } else {
            assert!(p1 < 1e-12);
        }
        assert!((s.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn measure_all_statistics() {
        let mut r = rng();
        let mut ones = 0;
        for _ in 0..1000 {
            let mut s = StateVector::zero_state(1);
            s.apply_gate(&GateKind::H, &[0]);
            if s.measure_all(&mut r) == 1 {
                ones += 1;
            }
        }
        assert!((400..600).contains(&ones), "got {ones} ones out of 1000");
    }

    #[test]
    fn reset_always_gives_zero() {
        let mut r = rng();
        for _ in 0..20 {
            let mut s = StateVector::zero_state(1);
            s.apply_gate(&GateKind::H, &[0]);
            s.reset(0, &mut r);
            assert!((s.probability_of(0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn fidelity_of_identical_and_orthogonal() {
        let a = StateVector::basis_state(2, 0);
        let b = StateVector::basis_state(2, 3);
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-12);
        assert!(a.fidelity(&b) < 1e-12);
    }

    #[test]
    fn expectation_z_values() {
        let s = StateVector::basis_state(1, 0);
        assert!((s.expectation_z(0) - 1.0).abs() < 1e-12);
        let s = StateVector::basis_state(1, 1);
        assert!((s.expectation_z(0) + 1.0).abs() < 1e-12);
        let mut s = StateVector::zero_state(1);
        s.apply_gate(&GateKind::H, &[0]);
        assert!(s.expectation_z(0).abs() < 1e-12);
    }

    #[test]
    fn expectation_diagonal_counts_ones() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(&GateKind::H, &[0]);
        s.apply_gate(&GateKind::H, &[1]);
        let avg_ones = s.expectation_diagonal(|b| b.count_ones() as f64);
        assert!((avg_ones - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_oracle_flips_marked_state() {
        let mut s = StateVector::zero_state(2);
        s.apply_gate(&GateKind::H, &[0]);
        s.apply_gate(&GateKind::H, &[1]);
        s.apply_phase_if(C64::real(-1.0), |b| b == 0b11);
        assert!(s.amplitudes()[3].re < 0.0);
        assert!(s.amplitudes()[0].re > 0.0);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn controlled_1q_matches_cnot() {
        let x = match GateKind::X.unitary() {
            cqasm::GateUnitary::One(m) => m,
            _ => unreachable!(),
        };
        for basis in 0..4u64 {
            let mut a = StateVector::basis_state(2, basis);
            let mut b = a.clone();
            a.apply_gate(&GateKind::Cnot, &[0, 1]);
            b.apply_controlled_1q(&x, &[0], 1);
            assert!((a.fidelity(&b) - 1.0).abs() < 1e-12, "basis {basis}");
        }
    }

    #[test]
    fn from_amplitudes_normalises() {
        let s = StateVector::from_amplitudes(vec![C64::real(3.0), C64::real(4.0)]);
        assert!((s.norm() - 1.0).abs() < 1e-12);
        assert!((s.probability_of(0) - 0.36).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn from_amplitudes_rejects_bad_length() {
        let _ = StateVector::from_amplitudes(vec![C64::ONE; 3]);
    }

    /// A dense random state for kernel-equivalence checks.
    fn random_state(n: usize, seed: u64) -> StateVector {
        let mut r = StdRng::seed_from_u64(seed);
        let amps: Vec<C64> = (0..1usize << n)
            .map(|_| C64::new(r.gen::<f64>() - 0.5, r.gen::<f64>() - 0.5))
            .collect();
        StateVector::from_amplitudes(amps)
    }

    fn assert_states_close(a: &StateVector, b: &StateVector, what: &str) {
        for (i, (x, y)) in a.amplitudes().iter().zip(b.amplitudes()).enumerate() {
            assert!(
                (*x - *y).norm_sqr() < 1e-20,
                "{what}: amplitude {i} differs: {x:?} vs {y:?}"
            );
        }
    }

    #[test]
    fn orbit_kernels_match_reference_on_random_states() {
        let n = 6;
        let gates: &[(GateKind, &[usize])] = &[
            (GateKind::H, &[3]),
            (GateKind::X, &[0]),
            (GateKind::Y, &[5]),
            (GateKind::Z, &[2]),
            (GateKind::T, &[4]),
            (GateKind::Rz(0.81), &[1]),
            (GateKind::Rx(-1.3), &[2]),
            (GateKind::Cnot, &[4, 1]),
            (GateKind::Cnot, &[1, 4]),
            (GateKind::Cz, &[0, 5]),
            (GateKind::Swap, &[3, 0]),
            (GateKind::Cr(0.4), &[5, 2]),
            (GateKind::CRk(3), &[2, 5]),
            (GateKind::Toffoli, &[5, 0, 3]),
        ];
        for (seed, (g, qs)) in gates.iter().enumerate() {
            let mut fast = random_state(n, seed as u64);
            let mut slow = fast.clone();
            fast.apply_gate(g, qs);
            reference::apply_gate(&mut slow, g, qs);
            assert_states_close(&fast, &slow, &format!("{g} on {qs:?}"));
        }
    }

    #[test]
    fn threaded_kernels_are_bit_identical_to_serial() {
        // Force the threaded path on a small register (the automatic
        // dispatch would stay serial below PAR_MIN_QUBITS) and require
        // exact equality: the per-amplitude arithmetic is identical.
        let h = match GateKind::H.unitary() {
            cqasm::GateUnitary::One(m) => m,
            _ => unreachable!(),
        };
        let cnot = match GateKind::Cnot.unitary() {
            cqasm::GateUnitary::Two(m) => m,
            _ => unreachable!(),
        };
        for threads in [2, 3, 8] {
            let mut a = random_state(7, 99);
            let mut b = a.clone();
            a.apply_1q(&h, 4);
            par::apply_1q_threaded(&mut b, &h, 4, threads);
            assert_eq!(a, b, "1q, {threads} threads");

            let mut a = random_state(7, 100);
            let mut b = a.clone();
            a.apply_2q(&cnot, 6, 2);
            par::apply_2q_threaded(&mut b, &cnot, 6, 2, threads);
            assert_eq!(a, b, "2q, {threads} threads");
        }
    }

    #[test]
    fn fused_diag_matches_sequential_diagonal_gates() {
        // t q2; rz q0; cz q0,q2; crk q2,q0 fused into one diagonal table
        // must match the sequential gates exactly in structure (entrywise
        // products commute with the sweep order).
        let mut seq = random_state(5, 7);
        let mut fused = seq.clone();
        seq.apply_gate(&GateKind::T, &[2]);
        seq.apply_gate(&GateKind::Rz(0.43), &[0]);
        seq.apply_gate(&GateKind::Cz, &[0, 2]);
        seq.apply_gate(&GateKind::CRk(2), &[2, 0]);

        // Build the table by hand over support [0, 2] (bit 0 = q0).
        let (t0, t1) = match GateKind::T.kernel() {
            KernelClass::Diagonal1q(a, b) => (a, b),
            other => panic!("unexpected {other:?}"),
        };
        let (r0, r1) = match GateKind::Rz(0.43).kernel() {
            KernelClass::Diagonal1q(a, b) => (a, b),
            other => panic!("unexpected {other:?}"),
        };
        let crk = match GateKind::CRk(2).kernel() {
            KernelClass::ControlledPhase(p) => p,
            other => panic!("unexpected {other:?}"),
        };
        let mut entries = vec![C64::ONE; 4];
        for (p, e) in entries.iter_mut().enumerate() {
            *e *= if p >> 1 & 1 == 1 { t1 } else { t0 };
            *e *= if p & 1 == 1 { r1 } else { r0 };
            if p == 3 {
                *e *= -C64::ONE * crk;
            }
        }
        fused.apply_fused_diag(&FusedDiagonal { entries }, &[0, 2]);
        assert_states_close(&seq, &fused, "fused diagonal");
    }

    #[test]
    fn fused_block_applies_lsb_first_convention() {
        // A block that is CNOT with control = local bit 0 = qubits[0].
        let mut m = vec![C64::ZERO; 16];
        // |c t> with c = bit 0: 00->00, 01(c=1)->11, 10->10, 11->01.
        m[0] = C64::ONE; // col 0 -> row 0
        m[3 * 4 + 1] = C64::ONE; // col 1 -> row 3
        m[2 * 4 + 2] = C64::ONE; // col 2 -> row 2
        m[4 + 3] = C64::ONE; // col 3 -> row 1
        let block = BlockUnitary { k: 2, m };
        for basis in 0..8u64 {
            let mut a = StateVector::basis_state(3, basis);
            let mut b = a.clone();
            a.apply_gate(&GateKind::Cnot, &[2, 1]);
            b.apply_block(&block, &[2, 1]);
            assert_states_close(&a, &b, &format!("block cnot, basis {basis}"));
        }
    }

    #[test]
    fn threaded_fused_kernels_are_bit_identical_to_serial() {
        let tof = match GateKind::Toffoli.kernel() {
            KernelClass::ControlledControlled(m) => m,
            other => panic!("unexpected {other:?}"),
        };
        let diag = FusedDiagonal {
            entries: vec![
                C64::ONE,
                C64::I,
                C64::cis(0.3),
                -C64::ONE,
                C64::cis(-1.1),
                C64::ONE,
                C64::I,
                C64::cis(2.0),
            ],
        };
        let block = {
            // Any unitary works for the identity-of-arithmetic check; build
            // one from columns of gate applications on basis states.
            let mut m = vec![C64::ZERO; 64];
            for c in 0..8 {
                let mut col = StateVector::basis_state(3, c as u64);
                col.apply_gate(&GateKind::H, &[0]);
                col.apply_gate(&GateKind::Cnot, &[0, 1]);
                col.apply_gate(&GateKind::T, &[2]);
                for (r, a) in col.amplitudes().iter().enumerate() {
                    m[r * 8 + c] = *a;
                }
            }
            BlockUnitary { k: 3, m }
        };
        for threads in [2, 3, 8] {
            let mut a = random_state(7, 101);
            let mut b = a.clone();
            a.apply_controlled_1q(&tof, &[1, 5], 3);
            par::apply_controlled_1q_threaded(&mut b, &tof, &[1, 5], 3, threads);
            assert_eq!(a, b, "controlled 1q, {threads} threads");

            let mut a = random_state(7, 102);
            let mut b = a.clone();
            a.apply_fused_diag(&diag, &[2, 4, 6]);
            par::apply_fused_diag_threaded(&mut b, &diag, &[2, 4, 6], threads);
            assert_eq!(a, b, "fused diag, {threads} threads");

            let mut a = random_state(7, 103);
            let mut b = a.clone();
            a.apply_block(&block, &[5, 0, 3]);
            par::apply_block_threaded(&mut b, &block, &[5, 0, 3], threads);
            assert_eq!(a, b, "fused block, {threads} threads");
        }
    }

    #[test]
    fn probability_one_matches_reference() {
        let s = random_state(6, 17);
        for q in 0..6 {
            let fast = s.probability_one(q);
            let slow = reference::probability_one(&s, q);
            assert!((fast - slow).abs() < 1e-12, "qubit {q}: {fast} vs {slow}");
        }
    }

    #[test]
    fn binary_search_sampling_matches_linear_scan() {
        let mut s = StateVector::zero_state(5);
        for q in 0..5 {
            s.apply_gate(&GateKind::H, &[q]);
            s.apply_gate(&GateKind::T, &[q]);
        }
        let mut r1 = rng();
        let mut r2 = rng();
        for _ in 0..200 {
            assert_eq!(s.sample_all(&mut r1), reference::sample_all(&s, &mut r2));
        }
    }

    #[test]
    fn cumulative_table_handles_edge_draws() {
        let s = StateVector::basis_state(2, 0b10);
        let cum = s.cumulative_probabilities();
        assert_eq!(StateVector::sample_from_cumulative(&cum, 0.0), 0b10);
        // Draws at or beyond the total mass clamp to the last basis state
        // with any probability (here exactly the last nonzero entry works
        // out to the final index by the partition rule).
        assert_eq!(StateVector::sample_from_cumulative(&cum, 0.999999), 0b10);
    }

    #[test]
    fn bit_insertion_expands_correctly() {
        assert_eq!(insert_bit(0b101, 1), 0b1001);
        assert_eq!(insert_bit(0b101, 0), 0b1010);
        assert_eq!(insert_two_bits(0b11, 0, 2), 0b1010);
        // Every expanded index has the inserted bits clear and the mapping
        // is injective.
        let mut seen = std::collections::HashSet::new();
        for k in 0..16usize {
            let i = insert_two_bits(k, 1, 3);
            assert_eq!(i & 0b1010, 0, "k={k} -> {i:b}");
            assert!(seen.insert(i));
        }
    }
}
