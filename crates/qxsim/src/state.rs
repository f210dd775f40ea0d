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
//! back to the generic dense matrix kernels.
//!
//! Every dense kernel's range loop is written once, over a two-amplitude
//! lane type (the `lane` module), and compiled twice: portable scalar code
//! and AVX2 (picked once per call where the host has it). Both compute the
//! same IEEE expression per amplitude, so the result is bit-identical on
//! every host. Serial and threaded sweeps run the same range loop: a large
//! register's work units are split into contiguous ranges across threads.
//! The original scan-and-skip kernels are preserved in [`reference`] as
//! ground truth for property tests and as the benchmark baseline.

mod lane;

#[cfg(test)]
mod isa_tests;

pub use lane::KernelIsa;

#[cfg(target_arch = "x86_64")]
use lane::Avx2;
use lane::{Lane, Portable};

use cqasm::math::{Mat2, Mat4, C64, EPSILON};
use cqasm::{BlockUnitary, FusedDiagonal, KernelClass};
use rand::Rng;

/// Analytic default for the minimum register size (in qubits) at which the
/// dense kernels are split across threads. Below this the per-thread
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
    /// Registers of [`par_min_qubits`] or more qubits are split across the
    /// state's thread budget; the result is bit-identical either way since
    /// every amplitude pair is updated independently.
    pub fn apply_1q(&mut self, m: &Mat2, q: usize) {
        self.apply_kernel(&KernelClass::General1q(*m), &[q]);
    }

    /// Applies a two-qubit unitary. The matrix is in the basis
    /// `|q_hi q_lo>` where `q_hi` is the **first** operand (matching
    /// [`cqasm::GateUnitary::Two`]).
    ///
    /// Enumerates the `2^(n-2)` four-element orbits directly (no scan over
    /// non-orbit indices), split across threads like
    /// [`StateVector::apply_1q`].
    ///
    /// # Panics
    ///
    /// Panics if operands alias or are out of range.
    pub fn apply_2q(&mut self, m: &Mat4, q_hi: usize, q_lo: usize) {
        self.apply_kernel(&KernelClass::General2q(*m), &[q_hi, q_lo]);
    }

    /// Applies a single-qubit unitary to `target` conditioned on every qubit
    /// in `controls` being `|1>`. Used for Toffoli and the multi-controlled
    /// oracles of Grover search.
    ///
    /// Enumerates only the `2^(n - controls - 1)` amplitude pairs where all
    /// control bits are set.
    ///
    /// # Panics
    ///
    /// Panics if an operand repeats or is out of range.
    pub fn apply_controlled_1q(&mut self, m: &Mat2, controls: &[usize], target: usize) {
        let sweep = Sweep::controlled(self.n, m, controls, target);
        self.run(&sweep);
    }

    /// Applies a fused diagonal operator over the given support qubits:
    /// each amplitude is scaled by the table entry its support bits select
    /// (one sweep over all `2^n` amplitudes, no matter how many gates were
    /// fused into the table).
    ///
    /// # Panics
    ///
    /// Panics if `diag` does not have `2^qubits.len()` entries, or a
    /// support qubit repeats or is out of range.
    pub fn apply_fused_diag(&mut self, diag: &FusedDiagonal, qubits: &[usize]) {
        let sweep = Sweep::fused_diag(self.n, &diag.entries, qubits);
        self.run(&sweep);
    }

    /// Applies a fused dense block over `k <= 3` support qubits in one
    /// cache-blocked orbit pass: each of the `2^(n-k)` orbits gathers its
    /// `2^k` amplitudes, multiplies by the block matrix, and scatters back.
    /// The block's index convention is LSB-first over `qubits` (bit `j` of
    /// a row/column index = the state of `qubits[j]`).
    ///
    /// # Panics
    ///
    /// Panics if `block.k != qubits.len()` or `block.k` is not 1 to 3.
    pub fn apply_block(&mut self, block: &BlockUnitary, qubits: &[usize]) {
        let sweep = Sweep::block(self.n, block, qubits);
        self.run(&sweep);
    }

    /// Applies a layer of independent single-qubit unitaries — factor `j`
    /// acts on `qubits[j]` — in one factored orbit pass: each `2^k` orbit
    /// is loaded once, each factor rotates its amplitude pairs in
    /// registers, and the orbit is stored once. Same arithmetic as
    /// applying the gates separately, but one memory sweep instead of one
    /// per gate.
    ///
    /// # Panics
    ///
    /// Panics if `mats.len() != qubits.len()` or the layer spans more than
    /// [`MAX_1Q_LAYER_QUBITS`] qubits.
    pub fn apply_1q_layer(&mut self, mats: &[Mat2], qubits: &[usize]) {
        let sweep = Sweep::layer(self.n, mats, qubits);
        self.run(&sweep);
    }

    /// Applies the diagonal unitary `diag(c0, c1)` to qubit `q` (Z, S, T,
    /// Rz, ...): every amplitude is scaled, none move.
    pub fn apply_diagonal_1q(&mut self, c0: C64, c1: C64, q: usize) {
        self.apply_kernel(&KernelClass::Diagonal1q(c0, c1), &[q]);
    }

    /// Applies the anti-diagonal unitary `[[0, c0], [c1, 0]]` to qubit `q`:
    /// each amplitude pair swaps, scaled by `c0` (new `|0>` row) and `c1`
    /// (new `|1>` row). X is `c0 = c1 = 1`; Y is `c0 = -i`, `c1 = i`.
    pub fn apply_antidiagonal_1q(&mut self, c0: C64, c1: C64, q: usize) {
        self.apply_kernel(&KernelClass::AntiDiagonal1q(c0, c1), &[q]);
    }

    /// Applies CNOT as a pure index permutation: swaps each amplitude pair
    /// whose control bit is set.
    pub fn apply_cnot(&mut self, control: usize, target: usize) {
        self.apply_kernel(&KernelClass::Cnot, &[control, target]);
    }

    /// Applies CZ: negates the amplitudes with both qubit bits set.
    pub fn apply_cz(&mut self, a: usize, b: usize) {
        self.apply_kernel(&KernelClass::Cz, &[a, b]);
    }

    /// Applies a controlled phase (CZ, `cr`, `crk`): multiplies the
    /// amplitudes with both qubit bits set by `phase`.
    pub fn apply_controlled_phase(&mut self, phase: C64, a: usize, b: usize) {
        self.apply_kernel(&KernelClass::ControlledPhase(phase), &[a, b]);
    }

    /// Applies SWAP as a pure index permutation: exchanges the `|01>` and
    /// `|10>` amplitudes of each orbit.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        self.apply_kernel(&KernelClass::Swap, &[a, b]);
    }

    /// Applies a pre-classified kernel (see [`cqasm::GateKind::kernel`]) to
    /// the given operands. This is the dispatch point the compiled shot
    /// plans use: classification happens once per program, not per shot.
    ///
    /// The kernel runs on the host's fastest instruction set
    /// ([`KernelIsa::host`]) and, from [`par_min_qubits`] qubits up, over
    /// the state's thread budget. Every choice gives bit-identical
    /// amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if an operand repeats or is out of range, or the operand
    /// count does not match the kernel's arity.
    pub fn apply_kernel(&mut self, kernel: &KernelClass, qubits: &[usize]) {
        self.apply_kernel_with(kernel, qubits, kernel_isa(), self.sweep_threads());
    }

    /// [`StateVector::apply_kernel`] on the instruction set `isa` (the
    /// portable path where the host lacks it), split over `threads`
    /// threads whatever the register size. Benchmarks and tests use it to
    /// compare the paths; the amplitudes are bit-identical for every
    /// choice.
    pub fn apply_kernel_with(
        &mut self,
        kernel: &KernelClass,
        qubits: &[usize],
        isa: KernelIsa,
        threads: usize,
    ) {
        if let Some(sweep) = Sweep::of(self.n, kernel, qubits) {
            self.run_with(&sweep, isa, threads);
        }
    }

    /// Runs a kernel on the host's instruction set over the state's
    /// thread budget.
    fn run(&mut self, sweep: &Sweep) {
        self.run_with(sweep, kernel_isa(), self.sweep_threads());
    }

    /// Runs every work unit of a kernel, split into `threads` contiguous
    /// unit ranges.
    fn run_with(&mut self, sweep: &Sweep, isa: KernelIsa, threads: usize) {
        assert_eq!(sweep.n, self.n, "kernel built for another register");
        let isa = isa.usable();
        let amps = AmpsPtr(self.amps.as_mut_ptr());
        split(threads, sweep.units(), |lo, hi| {
            // SAFETY: the sweep was built for this register's `n` (asserted
            // above) and its constructor checked that every index it
            // touches lies below `2^n = amps.len()`; `split` hands out
            // disjoint unit ranges and distinct units touch distinct
            // amplitudes; `usable` only picks an instruction set the host
            // has.
            unsafe { sweep.range_on(isa, amps.get(), lo, hi) }
        });
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
/// the passes it saves.
pub const MAX_1Q_LAYER_QUBITS: usize = 4;

/// The most amplitudes an orbit kernel updates per orbit: a full
/// [`MAX_1Q_LAYER_QUBITS`] layer (fused blocks need at most 8).
const MAX_ORBIT_DIM: usize = 1 << MAX_1Q_LAYER_QUBITS;

/// The instruction set kernel calls dispatch to: the host's, unless a test
/// forced this thread onto the portable path (`isa_tests::portable_only`).
fn kernel_isa() -> KernelIsa {
    #[cfg(test)]
    if isa_tests::PORTABLE_ONLY.with(std::cell::Cell::get) {
        return KernelIsa::Portable;
    }
    KernelIsa::host()
}

/// Runs `f(lo, hi)` over `0..units` cut into `threads` contiguous ranges:
/// the first on the calling thread, each other on a scoped thread.
fn split(threads: usize, units: usize, f: impl Fn(usize, usize) + Sync) {
    let threads = threads.clamp(1, units.max(1));
    if threads == 1 {
        return f(0, units);
    }
    let f = &f;
    std::thread::scope(|scope| {
        for t in 1..threads {
            scope.spawn(move || f(units * t / threads, units * (t + 1) / threads));
        }
        f(0, units / threads);
    });
}

/// The amplitude storage as a pointer a kernel's threads share.
struct AmpsPtr(*mut C64);

// SAFETY: the pointer is dereferenced only inside `StateVector::run_with`,
// which holds the `&mut StateVector` it came from for the whole thread
// scope, and each thread touches only the amplitudes of its own unit range;
// those sets are disjoint, so no amplitude is accessed from two threads.
unsafe impl Sync for AmpsPtr {}

impl AmpsPtr {
    /// The pointer (a method, so closures capture the `Sync` wrapper rather
    /// than the bare pointer field).
    fn get(&self) -> *mut C64 {
        self.0
    }
}

/// The bit mask of a kernel's operand qubits.
///
/// # Panics
///
/// Panics if a qubit is out of range or repeated: every pointer a kernel
/// forms relies on this check.
fn support_mask(n: usize, qubits: &[usize]) -> usize {
    qubits.iter().fold(0usize, |mask, &q| {
        assert!(
            q < n && mask >> q & 1 == 0,
            "qubit operands must be distinct and below {n}"
        );
        mask | 1 << q
    })
}

/// Inserts a `0` bit at every set position of `mask`, lowest first: maps
/// an orbit index to its orbit's base state.
#[inline(always)]
fn deposit(mut k: usize, mut mask: usize) -> usize {
    while mask != 0 {
        k = insert_bit(k, mask.trailing_zeros() as usize);
        mask &= mask - 1;
    }
    k
}

/// One dense kernel call, ready to run over any range of its work units.
/// Serial and threaded runs call the same [`Sweep::range`].
struct Sweep<'a> {
    /// Qubit count of the register the kernel was built for.
    n: usize,
    body: Body<'a>,
}

enum Body<'a> {
    Orbits(Orbits, OrbitOp<'a>),
    FusedDiag(DiagTable<'a>),
}

/// What an orbit kernel does to each orbit's amplitudes.
enum OrbitOp<'a> {
    /// `[m00 a0 + m01 a1, m10 a0 + m11 a1]`.
    Rotate(Mat2),
    /// `[a0 c0, a1 c1]`.
    Scale(C64, C64),
    /// `[c0 a1, c1 a0]`.
    AntiDiag(C64, C64),
    /// `[a1, a0]`.
    Exchange,
    /// `[a0 p]`.
    Phase(C64),
    /// The 4x4 matvec over `[a00, a01, a10, a11]`.
    Dense2q(&'a Mat4),
    /// The `2^k x 2^k` block matvec.
    Block(&'a [C64]),
    /// One pair rotation per factor, factor `j` on local bit `j`.
    Layer(&'a [Mat2]),
}

impl<'a> Sweep<'a> {
    /// The sweep of a classified kernel, or `None` for the identity.
    fn of(n: usize, kernel: &'a KernelClass, q: &'a [usize]) -> Option<Sweep<'a>> {
        let bit = |i: usize| 1usize << q[i];
        let orbits = |op| Body::Orbits(Orbits::dense(n, &q[..1]), op);
        let pair = |offsets: &[usize], op| Body::Orbits(Orbits::new(n, &q[..2], offsets), op);
        let body = match kernel {
            KernelClass::Identity => return None,
            KernelClass::Diagonal1q(c0, c1) => orbits(OrbitOp::Scale(*c0, *c1)),
            KernelClass::AntiDiagonal1q(c0, c1) => orbits(OrbitOp::AntiDiag(*c0, *c1)),
            KernelClass::General1q(m) | KernelClass::Fused1q(m) => orbits(OrbitOp::Rotate(*m)),
            KernelClass::Cnot => pair(&[bit(0), bit(0) | bit(1)], OrbitOp::Exchange),
            KernelClass::Swap => pair(&[bit(0), bit(1)], OrbitOp::Exchange),
            KernelClass::Cz => pair(&[bit(0) | bit(1)], OrbitOp::Phase(-C64::ONE)),
            KernelClass::ControlledPhase(p) => pair(&[bit(0) | bit(1)], OrbitOp::Phase(*p)),
            // Local index bit 0 is the second operand (`q_lo`).
            KernelClass::General2q(m) => {
                Body::Orbits(Orbits::dense(n, &[q[1], q[0]]), OrbitOp::Dense2q(m))
            }
            KernelClass::ControlledControlled(m) => {
                return Some(Sweep::controlled(n, m, &q[..2], q[2]))
            }
            KernelClass::FusedDiag(d) => return Some(Sweep::fused_diag(n, &d.entries, q)),
            KernelClass::FusedBlock(b) => return Some(Sweep::block(n, b, q)),
            KernelClass::Fused1qLayer(mats) => return Some(Sweep::layer(n, mats, q)),
        };
        Some(Sweep { n, body })
    }

    /// `m` on `target` where every control is 1: the orbit pins the
    /// controls to 1 and pairs the target's two values.
    fn controlled(n: usize, m: &Mat2, controls: &[usize], target: usize) -> Sweep<'a> {
        let ones: usize = controls.iter().map(|&c| 1usize << c).sum();
        let mut bits = controls.to_vec();
        bits.push(target);
        let orbits = Orbits::new(n, &bits, &[ones, ones | 1usize << target]);
        let body = Body::Orbits(orbits, OrbitOp::Rotate(*m));
        Sweep { n, body }
    }

    fn fused_diag(n: usize, entries: &'a [C64], qubits: &'a [usize]) -> Sweep<'a> {
        let body = Body::FusedDiag(DiagTable::new(n, entries, qubits));
        Sweep { n, body }
    }

    fn block(n: usize, block: &'a BlockUnitary, qubits: &[usize]) -> Sweep<'a> {
        assert_eq!(block.k, qubits.len(), "block operand count mismatch");
        assert!(
            (1..=3).contains(&block.k),
            "fused blocks span 1 to 3 qubits"
        );
        assert_eq!(block.m.len(), block.dim() * block.dim(), "block size");
        let body = Body::Orbits(Orbits::dense(n, qubits), OrbitOp::Block(&block.m));
        Sweep { n, body }
    }

    fn layer(n: usize, mats: &'a [Mat2], qubits: &[usize]) -> Sweep<'a> {
        assert_eq!(mats.len(), qubits.len(), "layer factor count mismatch");
        assert!(
            !qubits.is_empty() && qubits.len() <= MAX_1Q_LAYER_QUBITS,
            "fused 1q layers are limited to {MAX_1Q_LAYER_QUBITS} qubits"
        );
        let body = Body::Orbits(Orbits::dense(n, qubits), OrbitOp::Layer(mats));
        Sweep { n, body }
    }

    /// Work units: orbit pairs, or amplitude pairs for a fused diagonal.
    fn units(&self) -> usize {
        match &self.body {
            Body::Orbits(o, _) => (1usize << (self.n - o.mask.count_ones() as usize)).div_ceil(2),
            Body::FusedDiag(_) => 1usize << (self.n - 1),
        }
    }

    /// Runs units `lo..hi` on `isa`, dispatching once per range.
    ///
    /// # Safety
    ///
    /// As [`Sweep::range`]; `isa` must be available on this host.
    unsafe fn range_on(&self, isa: KernelIsa, amps: *mut C64, lo: usize, hi: usize) {
        match isa {
            #[cfg(target_arch = "x86_64")]
            KernelIsa::Avx2 => avx2_range(self, amps, lo, hi),
            _ => self.range::<Portable>(amps, lo, hi),
        }
    }

    /// The kernel's range loop, written once over the lane type.
    ///
    /// # Safety
    ///
    /// `amps` must point to the `2^n` amplitudes of the register the sweep
    /// was built for, with exclusive access to those units `lo..hi <=
    /// units()` touch, and `L`'s instruction set must be available.
    #[inline(always)]
    unsafe fn range<L: Lane>(&self, amps: *mut C64, lo: usize, hi: usize) {
        let (o, op) = match &self.body {
            Body::FusedDiag(d) => return d.range::<L>(amps, lo, hi),
            Body::Orbits(o, op) => (o, op),
        };
        // The per-orbit updates below are closures; `#[inline(always)]`
        // keeps them inside the caller, which for AVX2 is the one function
        // compiled with the feature enabled.
        match *op {
            OrbitOp::Rotate(ref m) => {
                let [[m00, m01], [m10, m11]] = coef_mat2::<L>(m);
                o.sweep(
                    amps,
                    lo,
                    hi,
                    #[inline(always)]
                    |[a0, a1]: [L; 2]| {
                        [
                            a0.scale(m00).add(a1.scale(m01)),
                            a0.scale(m10).add(a1.scale(m11)),
                        ]
                    },
                )
            }
            OrbitOp::Scale(c0, c1) => {
                let (c0, c1) = (L::coef(c0), L::coef(c1));
                o.sweep(
                    amps,
                    lo,
                    hi,
                    #[inline(always)]
                    |[a0, a1]: [L; 2]| [a0.scale(c0), a1.scale(c1)],
                )
            }
            OrbitOp::AntiDiag(c0, c1) => {
                let (c0, c1) = (L::coef(c0), L::coef(c1));
                o.sweep(
                    amps,
                    lo,
                    hi,
                    #[inline(always)]
                    |[a0, a1]: [L; 2]| [a1.scale(c0), a0.scale(c1)],
                )
            }
            OrbitOp::Exchange => o.sweep(
                amps,
                lo,
                hi,
                #[inline(always)]
                |[a0, a1]: [L; 2]| [a1, a0],
            ),
            OrbitOp::Phase(p) => {
                let p = L::coef(p);
                o.sweep(
                    amps,
                    lo,
                    hi,
                    #[inline(always)]
                    |[a]: [L; 1]| [a.scale(p)],
                )
            }
            OrbitOp::Dense2q(m) => {
                let mut r = [[L::coef(C64::ZERO); 4]; 4];
                for i in 0..16 {
                    r[i / 4][i % 4] = L::coef(m.0[i / 4][i % 4]);
                }
                o.sweep(
                    amps,
                    lo,
                    hi,
                    #[inline(always)]
                    |a: [L; 4]| {
                        let mut out = a;
                        for (o, m) in out.iter_mut().zip(&r) {
                            let s = a[0].scale(m[0]).add(a[1].scale(m[1]));
                            *o = s.add(a[2].scale(m[2])).add(a[3].scale(m[3]));
                        }
                        out
                    },
                )
            }
            OrbitOp::Block(m) => match o.dim {
                2 => block_pass::<L, 2>(o, m, amps, lo, hi),
                4 => block_pass::<L, 4>(o, m, amps, lo, hi),
                _ => block_pass::<L, 8>(o, m, amps, lo, hi),
            },
            OrbitOp::Layer(mats) => match mats.len() {
                1 => layer_pass::<L, 1, 2>(o, mats, amps, lo, hi),
                2 => layer_pass::<L, 2, 4>(o, mats, amps, lo, hi),
                3 => layer_pass::<L, 3, 8>(o, mats, amps, lo, hi),
                _ => layer_pass::<L, 4, 16>(o, mats, amps, lo, hi),
            },
        }
    }
}

/// [`Sweep::range`] compiled for AVX2.
///
/// # Safety
///
/// As [`Sweep::range`], on a host with AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn avx2_range(sweep: &Sweep, amps: *mut C64, lo: usize, hi: usize) {
    sweep.range::<Avx2>(amps, lo, hi)
}

/// Where an orbit kernel's amplitudes sit. The orbit index enumerates the
/// basis bits outside `mask`; local amplitude `l` of the orbit with base
/// `b` (every `mask` bit clear) sits at `b | offsets[l]`.
struct Orbits {
    mask: usize,
    offsets: [usize; MAX_ORBIT_DIM],
    /// Amplitudes per orbit.
    dim: usize,
    /// Basis offset from orbit `2u` to orbit `2u + 1`, the lowest bit
    /// outside `mask`; 0 when there is one orbit (a pair is then that
    /// orbit twice).
    pair: usize,
}

impl Orbits {
    /// Orbits that skip the basis bits `bits`.
    ///
    /// # Panics
    ///
    /// Panics if a bit is out of range or repeated, or an offset sets a
    /// bit outside `bits`.
    fn new(n: usize, bits: &[usize], offsets: &[usize]) -> Orbits {
        let mask = support_mask(n, bits);
        assert!(offsets.len() <= MAX_ORBIT_DIM && offsets.iter().all(|&o| o & !mask == 0));
        let mut table = [0usize; MAX_ORBIT_DIM];
        table[..offsets.len()].copy_from_slice(offsets);
        Orbits {
            mask,
            offsets: table,
            dim: offsets.len(),
            pair: if bits.len() < n {
                !mask & (mask + 1)
            } else {
                0
            },
        }
    }

    /// The `2^k`-amplitude orbits of the support qubits: local index bit
    /// `j` is the state of `support[j]`.
    fn dense(n: usize, support: &[usize]) -> Orbits {
        assert!(
            support.len() <= MAX_1Q_LAYER_QUBITS,
            "orbit support too wide"
        );
        let dim = 1usize << support.len();
        let mut offsets = [0usize; MAX_ORBIT_DIM];
        for (l, off) in offsets[..dim].iter_mut().enumerate() {
            for (j, &q) in support.iter().enumerate() {
                if l >> j & 1 == 1 {
                    *off |= 1usize << q;
                }
            }
        }
        Orbits::new(n, support, &offsets[..dim])
    }

    /// Applies `op` to the orbit pairs in `lo..hi`. Pair `u` is orbits `2u`
    /// and `2u + 1`, whose same-index amplitudes share one lane; they are
    /// adjacent in memory unless a support qubit is qubit 0, when the pair
    /// straddles the lowest free bit instead.
    ///
    /// # Safety
    ///
    /// As [`Sweep::range`], with `D == self.dim`.
    #[inline(always)]
    unsafe fn sweep<L: Lane, const D: usize>(
        &self,
        amps: *mut C64,
        lo: usize,
        hi: usize,
        op: impl Fn([L; D]) -> [L; D],
    ) {
        if self.pair == 1 {
            self.walk::<L, D, true>(amps, lo, hi, op)
        } else {
            self.walk::<L, D, false>(amps, lo, hi, op)
        }
    }

    /// [`Orbits::sweep`] with the pair's amplitudes `ADJACENT` in memory
    /// (one full-width load and store per lane) or not.
    ///
    /// # Safety
    ///
    /// As [`Orbits::sweep`], with `ADJACENT == (self.pair == 1)`.
    #[inline(always)]
    unsafe fn walk<L: Lane, const D: usize, const ADJACENT: bool>(
        &self,
        amps: *mut C64,
        lo: usize,
        hi: usize,
        op: impl Fn([L; D]) -> [L; D],
    ) {
        debug_assert_eq!(D, self.dim);
        let mut off = [0usize; D];
        off.copy_from_slice(&self.offsets[..D]);
        let mask = self.mask;
        let mut base = deposit(2 * lo, mask);
        for _ in lo..hi {
            let pair = base | self.pair;
            let mut a = [L::zero(); D];
            for l in 0..D {
                a[l] = if ADJACENT {
                    L::load(amps.add(base | off[l]))
                } else {
                    L::gather(amps.add(base | off[l]), amps.add(pair | off[l]))
                };
            }
            let b = op(a);
            for l in 0..D {
                if ADJACENT {
                    b[l].store(amps.add(base | off[l]));
                } else {
                    b[l].scatter(amps.add(base | off[l]), amps.add(pair | off[l]));
                }
            }
            // The next orbit base: increment the bits outside `mask`.
            base = ((pair | mask) + 1) & !mask;
        }
    }
}

/// The entries of a 2x2 matrix, prepared for [`Lane::scale`].
///
/// # Safety
///
/// `L`'s instruction set must be available.
#[inline(always)]
unsafe fn coef_mat2<L: Lane>(m: &Mat2) -> [[L::Coef; 2]; 2] {
    let [[m00, m01], [m10, m11]] = m.0;
    [[L::coef(m00), L::coef(m01)], [L::coef(m10), L::coef(m11)]]
}

/// The dense `D x D` block pass: each output is `0 + m[r][0] a0 + ...`,
/// accumulated left to right.
///
/// # Safety
///
/// As [`Orbits::sweep`]; `m` holds `D * D` entries.
#[inline(always)]
unsafe fn block_pass<L: Lane, const D: usize>(
    o: &Orbits,
    m: &[C64],
    amps: *mut C64,
    lo: usize,
    hi: usize,
) {
    let zero = L::zero();
    let mut lanes = [[L::coef(C64::ZERO); D]; D];
    for r in 0..D {
        for c in 0..D {
            lanes[r][c] = L::coef(m[r * D + c]);
        }
    }
    o.sweep(
        amps,
        lo,
        hi,
        #[inline(always)]
        |a: [L; D]| {
            let mut out = [zero; D];
            for r in 0..D {
                for c in 0..D {
                    out[r] = out[r].add(a[c].scale(lanes[r][c]));
                }
            }
            out
        },
    )
}

/// The factored 1q-layer pass over `K` factors: factor `j` rotates the
/// amplitude pairs split by local bit `j`, in factor order.
///
/// # Safety
///
/// As [`Orbits::sweep`]; `mats` holds `K` factors and `D == 2^K`.
#[inline(always)]
unsafe fn layer_pass<L: Lane, const K: usize, const D: usize>(
    o: &Orbits,
    mats: &[Mat2],
    amps: *mut C64,
    lo: usize,
    hi: usize,
) {
    let mut m = [[[L::coef(C64::ZERO); 2]; 2]; K];
    for j in 0..K {
        m[j] = coef_mat2::<L>(&mats[j]);
    }
    o.sweep(
        amps,
        lo,
        hi,
        #[inline(always)]
        |mut a: [L; D]| {
            for (j, &[[m00, m01], [m10, m11]]) in m.iter().enumerate() {
                let bit = 1usize << j;
                for l in 0..D {
                    if l & bit == 0 {
                        let (x, y) = (a[l], a[l | bit]);
                        a[l] = x.scale(m00).add(y.scale(m01));
                        a[l | bit] = x.scale(m10).add(y.scale(m11));
                    }
                }
            }
            a
        },
    )
}

/// A fused diagonal's sweep: amplitude `i` is scaled by
/// `entries[pattern(i)]`, where bit `j` of the pattern is the state of
/// `qubits[j]`. The contributions of the basis bits below `low` come from
/// a table built once per call; the bits at or above it only change every
/// `2^low` amplitudes, so the hot loop is a table load, an OR and a
/// complex multiply per amplitude. Work unit `u` is amplitudes `2u, 2u+1`.
///
/// When every entry with some support bit clear is exactly 1 (a ladder of
/// controlled phases sharing a control, as in the QFT), the amplitudes
/// with that bit clear are skipped: multiplying by exactly 1 returns the
/// amplitude itself (up to the sign of an exact zero), so only the
/// memory traffic changes.
struct DiagTable<'a> {
    entries: &'a [C64],
    qubits: &'a [usize],
    low: usize,
    table: Vec<u16>,
    /// Whether amplitudes `2u` and `2u + 1` always share an entry (qubit 0
    /// is outside the support).
    shared: bool,
    /// A support bit (of qubit 2 or higher) whose clear half of the table
    /// is exactly 1: amplitudes with that bit clear are left as they are.
    skip: usize,
}

impl<'a> DiagTable<'a> {
    /// # Panics
    ///
    /// Panics if the support is empty, wider than 16 qubits, has a
    /// repeated or out-of-range qubit, or does not match `entries`.
    fn new(n: usize, entries: &'a [C64], qubits: &'a [usize]) -> DiagTable<'a> {
        const LOW_BITS_MAX: usize = 11;
        assert!(
            (1..=16).contains(&qubits.len()) && entries.len() == 1 << qubits.len(),
            "a fused diagonal needs 2^k entries over 1..=16 support qubits"
        );
        support_mask(n, qubits);
        let low = n.min(LOW_BITS_MAX);
        let mut bit_pattern = [0u16; LOW_BITS_MAX];
        for (j, &q) in qubits.iter().enumerate() {
            if q < low {
                bit_pattern[q] = 1 << j;
            }
        }
        let mut table = vec![0u16; 1 << low];
        for i in 1..table.len() {
            table[i] = table[i & (i - 1)] | bit_pattern[i.trailing_zeros() as usize];
        }
        let identity_when_clear = |j: usize| {
            (0..entries.len())
                .filter(|p| p >> j & 1 == 0)
                .all(|p| entries[p] == C64::ONE)
        };
        let skip = (0..qubits.len())
            .filter(|&j| qubits[j] >= 2 && identity_when_clear(j))
            .map(|j| 1usize << qubits[j])
            .max()
            .unwrap_or(0);
        DiagTable {
            entries,
            qubits,
            low,
            table,
            shared: !qubits.contains(&0),
            skip,
        }
    }

    /// # Safety
    ///
    /// As [`Sweep::range`].
    #[inline(always)]
    unsafe fn range<L: Lane>(&self, amps: *mut C64, lo: usize, hi: usize) {
        let low_mask = (1usize << self.low) - 1;
        let entries = self.entries.as_ptr();
        let table = self.table.as_ptr();
        let skip = self.skip;
        let (mut i, end) = (2 * lo, 2 * hi);
        while i < end {
            let mut run_end = end.min((i | low_mask) + 1);
            if skip != 0 {
                if i & skip == 0 {
                    i = (i | skip) & !(skip - 1);
                    continue;
                }
                run_end = run_end.min((i | (skip - 1)) + 1);
            }
            let mut high = 0usize;
            for (j, &q) in self.qubits.iter().enumerate() {
                if q >= self.low {
                    high |= ((i >> q) & 1) << j;
                }
            }
            while i < run_end {
                // `i` is even and `low >= 1`, so `i + 1` shares `high`.
                let e0 = entries.add(high | *table.add(i & low_mask) as usize);
                let a = L::load(amps.add(i));
                let out = if self.shared {
                    a.scale(L::coef(*e0))
                } else {
                    let e1 = entries.add(high | *table.add((i + 1) & low_mask) as usize);
                    a.cmul(L::gather(e0, e1))
                };
                out.store(amps.add(i));
                i += 2;
            }
        }
    }
}

/// Thread-forced entry points, so tests can split registers below the
/// automatic threshold.
pub mod par {
    use super::{kernel_isa, StateVector};
    use cqasm::math::{Mat2, Mat4};
    use cqasm::KernelClass;

    /// [`StateVector::apply_1q`] split across `threads` threads.
    pub fn apply_1q_threaded(state: &mut StateVector, m: &Mat2, q: usize, threads: usize) {
        state.apply_kernel_with(&KernelClass::General1q(*m), &[q], kernel_isa(), threads);
    }

    /// [`StateVector::apply_2q`] split across `threads` threads.
    pub fn apply_2q_threaded(
        state: &mut StateVector,
        m: &Mat4,
        q_hi: usize,
        q_lo: usize,
        threads: usize,
    ) {
        let kernel = KernelClass::General2q(*m);
        state.apply_kernel_with(&kernel, &[q_hi, q_lo], kernel_isa(), threads);
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
            let isa = KernelIsa::host();
            a.apply_controlled_1q(&tof, &[1, 5], 3);
            let kernel = KernelClass::ControlledControlled(tof);
            b.apply_kernel_with(&kernel, &[1, 5, 3], isa, threads);
            assert_eq!(a, b, "controlled 1q, {threads} threads");

            let mut a = random_state(7, 102);
            let mut b = a.clone();
            a.apply_fused_diag(&diag, &[2, 4, 6]);
            let kernel = KernelClass::FusedDiag(diag.clone());
            b.apply_kernel_with(&kernel, &[2, 4, 6], isa, threads);
            assert_eq!(a, b, "fused diag, {threads} threads");

            let mut a = random_state(7, 103);
            let mut b = a.clone();
            a.apply_block(&block, &[5, 0, 3]);
            let kernel = KernelClass::FusedBlock(block.clone());
            b.apply_kernel_with(&kernel, &[5, 0, 3], isa, threads);
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
        assert_eq!(deposit(0b11, 0b101), 0b1010);
        // Every expanded index has the inserted bits clear and the mapping
        // is injective.
        let mut seen = std::collections::HashSet::new();
        for k in 0..16usize {
            let i = deposit(k, 0b1010);
            assert_eq!(i & 0b1010, 0, "k={k} -> {i:b}");
            assert!(seen.insert(i));
        }
    }
}
