//! Compiled shot plans: a validated [`Program`] lowered once into a flat
//! operation list the executor can replay per shot with zero per-shot
//! analysis.
//!
//! Interpreting a [`Program`] directly costs per shot: re-flattening the
//! iterated subcircuits, re-deriving every gate's unitary through
//! [`cqasm::GateKind::unitary`], unpacking operand wrappers, and scanning
//! `involved.contains(&q)` for every qubit of every instruction to find the
//! idle set. A [`CompiledProgram`] pays all of that once: gates are
//! classified into [`KernelClass`] kernels, operands are unpacked to raw
//! indices, and the idle set of each top-level instruction is a precomputed
//! bitmask. Multi-thousand-shot runs then touch nothing but the amplitude
//! vector and the RNG.
//!
//! Compilation also detects the *terminal sampling* shapes — a noise-free
//! program whose only non-unitary operations are a final `measure_all` or
//! a final run of per-qubit `measure`s — for which the executor evolves
//! the state once and draws every shot from the frozen final state (see
//! [`crate::StateVector::cumulative_probabilities`] and the executor's
//! conditional-outcome cascade).

use crate::executor::ExecuteError;
use crate::qubit_model::QubitModel;
use crate::state::StateVector;
use cqasm::math::{Mat2, C64};
use cqasm::{BlockUnitary, FusedDiagonal, Instruction, KernelClass, Program};
use std::sync::Arc;

/// The largest program the state-vector engine accepts. A 30-qubit state
/// is 2^30 amplitudes (16 GiB of `Complex64`); beyond that the allocation
/// itself is the failure, so compilation rejects the program with a typed
/// [`ExecuteError::TooManyQubits`] instead of aborting inside the kernel.
pub const MAX_SIM_QUBITS: usize = 30;

/// The largest program the stabilizer engines accept. Tableau state is
/// `O(n^2)` bits (a 2048-qubit tableau is ~1 MiB), so the ceiling is set
/// by per-shot `O(n^2)` measurement cost rather than memory; 2048 keeps
/// worst-case shots well under a millisecond-scale budget.
pub const MAX_STAB_QUBITS: usize = 2048;

/// A gate lowered for direct kernel dispatch: the classified kernel plus
/// unpacked operand indices.
#[derive(Debug, Clone, PartialEq)]
pub struct PlannedGate {
    /// The specialised (or generic) kernel to apply.
    pub kernel: KernelClass,
    /// Raw operand indices, in gate order (control first for CNOT).
    pub qubits: Vec<usize>,
    /// Operand count, cached for noise-channel selection.
    pub arity: usize,
}

/// One operation of a compiled program.
#[derive(Debug, Clone, PartialEq)]
pub enum PlannedOp {
    /// Reset a qubit to `|0>` (projective measure + conditional flip).
    PrepZ(usize),
    /// Apply a gate unconditionally.
    Gate(PlannedGate),
    /// Apply a gate iff the classical bit is one.
    Cond(usize, PlannedGate),
    /// Measure one qubit into its implicit bit.
    Measure(usize),
    /// Measure every qubit.
    MeasureAll,
    /// Apply the idle channel once to every qubit in the mask (bit `q` set
    /// means qubit `q` idles). Emitted only when the model has an idle
    /// channel, for the qubits *not* involved in a top-level instruction.
    Idle(u64),
    /// Explicit `wait`: idle every qubit for the given number of cycles.
    /// Emitted only when the model has an idle channel.
    Wait(u64),
}

/// Which simulation class a compiled plan belongs to, from most to least
/// specialised. The dispatcher routes each plan to the cheapest engine
/// that is provably exact for its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitClass {
    /// Noise-free, feedback-free Clifford circuit: a unitary Clifford
    /// prefix closed by one `measure_all` (on at most 64 qubits), or
    /// Clifford gates and per-qubit `measure`s in any interleaving — no
    /// conditionals, no resets, so outcomes never feed back into the
    /// circuit. Eligible for the bit-packed Pauli-frame sampler (one
    /// symbolic reference tableau run, then word-parallel shots).
    CliffordTerminal,
    /// Noise-free circuit built entirely from Clifford gates, `prep_z`,
    /// measurements and classically-conditioned Clifford corrections, in
    /// any order. Eligible for the per-shot CHP tableau executor.
    Clifford,
    /// Everything else: non-Clifford gates, noise channels, or
    /// measurements that do not fit the 64-bit measurement register.
    /// Served by the state-vector (or density-matrix) engine.
    General,
}

impl CircuitClass {
    /// Stable lowercase name for telemetry labels and reports.
    pub fn name(&self) -> &'static str {
        match self {
            CircuitClass::CliffordTerminal => "clifford_terminal",
            CircuitClass::Clifford => "clifford",
            CircuitClass::General => "general",
        }
    }
}

/// A Clifford gate lowered for tableau dispatch: the generator plus raw
/// operand indices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliffordGate {
    /// Hadamard.
    H(usize),
    /// Phase gate `diag(1, i)`.
    S(usize),
    /// Inverse phase gate.
    Sdag(usize),
    /// Pauli-X.
    X(usize),
    /// Pauli-Y.
    Y(usize),
    /// Pauli-Z.
    Z(usize),
    /// `Rx(pi/2)` up to global phase.
    X90(usize),
    /// `Ry(pi/2)` up to global phase.
    Y90(usize),
    /// `Rx(-pi/2)` up to global phase.
    Mx90(usize),
    /// `Ry(-pi/2)` up to global phase.
    My90(usize),
    /// Controlled-X (control, target).
    Cnot(usize, usize),
    /// Controlled-Z.
    Cz(usize, usize),
    /// Qubit exchange.
    Swap(usize, usize),
}

/// One operation of the stabilizer lowering of a plan. Parallel to
/// [`PlannedOp`] but restricted to what the tableau engines execute;
/// built pre-fusion (fused kernels have no Clifford identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StabOp {
    /// Reset a qubit to `|0>`.
    PrepZ(usize),
    /// Apply a Clifford gate.
    Gate(CliffordGate),
    /// Apply a Clifford gate iff the classical bit is one.
    Cond(usize, CliffordGate),
    /// Measure one qubit into its implicit bit (`q < 64`).
    Measure(usize),
    /// Measure every qubit (`n <= 64`).
    MeasureAll,
}

/// The measurement shape that closes a plan, when the plan ends in
/// measurements with nothing after them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TerminalMeasure {
    /// One final `measure_all`.
    All,
    /// A final run of per-qubit `measure` instructions; the qubit indices
    /// are in program order (a qubit may appear more than once).
    Run(Vec<usize>),
}

/// The longest per-qubit terminal measure run the sampling fast path
/// accepts: the realised outcome prefix is packed into a `u64`, so runs up
/// to 64 measures qualify. The conditional-outcome cascade memoises one
/// probability per realised prefix and prunes its cache on demand (see the
/// executor's `MeasureCascade`), so long runs no longer risk unbounded
/// memory; programs measuring a qubit more than 64 times fall back to full
/// per-shot interpretation.
pub const MAX_MEASURE_RUN_SAMPLING: usize = 64;

/// The widest support (in qubits) a fused diagonal batch may span: the
/// entry table is `2^support` complex numbers, so 12 caps it at 64 KiB —
/// comfortably cache-resident. Wider diagonal chains are split greedily.
pub const MAX_FUSED_DIAG_QUBITS: usize = 12;

/// The widest support a fused dense block may span (`8x8` matrices); gate
/// clusters on more qubits stay unfused.
pub const MAX_FUSED_BLOCK_QUBITS: usize = 3;

/// Below this register size the state fits in cache and per-kernel
/// dispatch overhead dominates, so block clustering fuses eagerly. At or
/// above it each kernel is a bandwidth/arithmetic-bound sweep over the
/// amplitudes, and a dense block must beat the [`kernel_cost`] estimate of
/// the gates it replaces.
pub const BLOCK_EAGER_MAX_QUBITS: usize = 14;

/// Knobs controlling plan compilation. The default enables gate fusion;
/// benchmarks and differential tests disable it to compare against the
/// unfused plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanOptions {
    /// Whether the fusion stage runs (it is also suppressed automatically
    /// whenever the model attaches error channels to gates).
    pub fusion: bool,
}

impl Default for PlanOptions {
    fn default() -> Self {
        PlanOptions { fusion: true }
    }
}

/// What the fusion stage did to a plan, for telemetry and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FusionStats {
    /// Gates entering the fusion stage (0 when fusion did not run).
    pub gates_before: u64,
    /// Gates remaining after fusion.
    pub gates_after: u64,
    /// Runs of adjacent same-qubit 1q gates collapsed into one 2x2.
    pub fused_1q_runs: u64,
    /// Batches of consecutive diagonal gates collapsed into one table.
    pub fused_diag_batches: u64,
    /// Clusters collapsed into dense blocks (including blocks that composed
    /// to the exact identity and were dropped outright).
    pub fused_blocks: u64,
    /// Layers of independent 1q gates on distinct qubits folded into one
    /// factored sweep.
    pub fused_1q_layers: u64,
}

/// A [`Program`] lowered against a [`QubitModel`], ready for repeated
/// execution. Built by [`crate::Simulator::compile`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledProgram {
    n: usize,
    /// Shared, so that cloning a plan (a run keeping it for its per-shot
    /// replays) copies no operations. An `Arc<Vec>` takes over the lowered
    /// buffer where an `Arc<[_]>` would copy it into a new allocation.
    ops: Arc<Vec<PlannedOp>>,
    terminal: Option<TerminalMeasure>,
    sampling: bool,
    stats: FusionStats,
    class: CircuitClass,
    stab_ops: Option<Arc<Vec<StabOp>>>,
}

impl CompiledProgram {
    /// Validates and lowers `program` for execution under `model` with the
    /// default [`PlanOptions`] (fusion on).
    ///
    /// # Errors
    ///
    /// Returns [`ExecuteError::Invalid`] if the program fails semantic
    /// validation, or [`ExecuteError::TooManyQubits`] if it addresses more
    /// than [`MAX_SIM_QUBITS`] qubits.
    pub fn compile(program: &Program, model: &QubitModel) -> Result<Self, ExecuteError> {
        Self::compile_with(program, model, PlanOptions::default())
    }

    /// [`CompiledProgram::compile`] with explicit [`PlanOptions`].
    ///
    /// # Errors
    ///
    /// Same as [`CompiledProgram::compile`].
    pub fn compile_with(
        program: &Program,
        model: &QubitModel,
        options: PlanOptions,
    ) -> Result<Self, ExecuteError> {
        program
            .validate()
            .map_err(|e| ExecuteError::Invalid(e.to_string()))?;
        let n = program.qubit_count();
        let idle_active = !model.idle_channel().is_none();
        let noise_free = model.gate_channel(1).is_none()
            && model.gate_channel(2).is_none()
            && !idle_active
            && model.readout_error() == 0.0;
        // Classify before enforcing the state-vector qubit ceiling: a
        // Clifford plan is servable by the tableau engines far past it.
        let stab_ops = if noise_free {
            build_stab_ops(program, n)
        } else {
            None
        };
        let class = match &stab_ops {
            Some(sops) if stab_terminal_shape(sops) => CircuitClass::CliffordTerminal,
            Some(_) => CircuitClass::Clifford,
            None => CircuitClass::General,
        };
        if class == CircuitClass::General && n > MAX_SIM_QUBITS {
            return Err(ExecuteError::TooManyQubits {
                needed: n,
                max: MAX_SIM_QUBITS,
            });
        }
        if n > MAX_STAB_QUBITS {
            return Err(ExecuteError::TooManyQubits {
                needed: n,
                max: MAX_STAB_QUBITS,
            });
        }
        let all_mask: u64 = if n >= 64 { u64::MAX } else { (1u64 << n) - 1 };
        let mut ops = Vec::new();
        for ins in program.flat_instructions() {
            lower(ins, &mut ops, idle_active);
            // Schedule-aware idling, matching the interpreter: while a
            // top-level instruction occupies its operands, every uninvolved
            // qubit decoheres for one step. `wait` idles everything itself;
            // `display` takes no time.
            if idle_active && !matches!(ins, Instruction::Wait(_) | Instruction::Display) {
                let involved: u64 = match ins {
                    Instruction::MeasureAll => all_mask,
                    other => other
                        .qubits()
                        .iter()
                        .fold(0u64, |m, q| m | (1u64 << q.index())),
                };
                let idle_mask = all_mask & !involved;
                if idle_mask != 0 {
                    ops.push(PlannedOp::Idle(idle_mask));
                }
            }
        }
        // Fusion composes gates into single kernels, which is only exact
        // when no error channel (and its RNG draws) attaches to individual
        // gates. Idle channels are fine: `Idle`/`Wait` ops break fusion
        // segments, so idling happens at exactly the same points either way.
        let mut stats = FusionStats::default();
        if options.fusion && model.gate_channel(1).is_none() && model.gate_channel(2).is_none() {
            ops = fuse_ops(n, ops, &mut stats);
        }
        let terminal = classify_terminal(&ops);
        let sampling = noise_free
            && match &terminal {
                Some(TerminalMeasure::All) => ops[..ops.len() - 1]
                    .iter()
                    .all(|op| matches!(op, PlannedOp::Gate(_))),
                Some(TerminalMeasure::Run(qs)) => {
                    qs.len() <= MAX_MEASURE_RUN_SAMPLING
                        && ops[..ops.len() - qs.len()]
                            .iter()
                            .all(|op| matches!(op, PlannedOp::Gate(_)))
                }
                None => false,
            };
        Ok(CompiledProgram {
            n,
            ops: Arc::new(ops),
            terminal,
            sampling,
            stats,
            class,
            stab_ops: stab_ops.map(Arc::new),
        })
    }

    /// Which simulation class the plan belongs to (see [`CircuitClass`]).
    pub fn circuit_class(&self) -> CircuitClass {
        self.class
    }

    /// The stabilizer lowering of the plan, present exactly when
    /// [`CompiledProgram::circuit_class`] is not [`CircuitClass::General`].
    pub fn stab_ops(&self) -> Option<&[StabOp]> {
        self.stab_ops.as_deref().map(Vec::as_slice)
    }

    /// Number of qubits the plan executes on.
    pub fn qubit_count(&self) -> usize {
        self.n
    }

    /// What the fusion stage did (all zeros when fusion was disabled or
    /// suppressed by per-gate noise channels).
    pub fn fusion_stats(&self) -> FusionStats {
        self.stats
    }

    /// The lowered operation sequence.
    pub fn ops(&self) -> &[PlannedOp] {
        &self.ops
    }

    /// Whether the plan qualifies for the multi-shot sampling fast path:
    /// a noise-free unitary prefix followed either by a single terminal
    /// `measure_all` or by a terminal run of per-qubit `measure`
    /// instructions (at most [`MAX_MEASURE_RUN_SAMPLING`] of them). Such a
    /// plan is evolved once and all shots are drawn from the frozen final
    /// state, which is statistically *and* bit-for-bit identical to
    /// re-simulating every shot.
    pub fn terminal_sampling(&self) -> bool {
        self.sampling
    }

    /// The terminal measurement the sampling fast path would execute, or
    /// `None` when the plan does not qualify (see
    /// [`CompiledProgram::terminal_sampling`]).
    pub fn sampling_measures(&self) -> Option<&TerminalMeasure> {
        if self.sampling {
            self.terminal.as_ref()
        } else {
            None
        }
    }

    /// The measurement shape closing the plan, independent of noise: the
    /// last operation(s) are a `measure_all` or a run of per-qubit
    /// `measure`s with nothing after them. Unlike
    /// [`CompiledProgram::sampling_measures`] this ignores the qubit model,
    /// so exact-channel executors (the density-matrix engine) can use it on
    /// noisy plans too.
    pub fn terminal_measurement(&self) -> Option<&TerminalMeasure> {
        self.terminal.as_ref()
    }
}

/// Classifies the measurement suffix of a lowered op sequence: a final
/// `measure_all`, or the maximal trailing run of per-qubit `measure`s.
fn classify_terminal(ops: &[PlannedOp]) -> Option<TerminalMeasure> {
    match ops.last()? {
        PlannedOp::MeasureAll => Some(TerminalMeasure::All),
        PlannedOp::Measure(_) => {
            let start = ops
                .iter()
                .rposition(|op| !matches!(op, PlannedOp::Measure(_)))
                .map_or(0, |i| i + 1);
            let qs: Vec<usize> = ops[start..]
                .iter()
                .filter_map(|op| match op {
                    PlannedOp::Measure(q) => Some(*q),
                    _ => None,
                })
                .collect();
            Some(TerminalMeasure::Run(qs))
        }
        _ => None,
    }
}

/// Lowers `program` into stabilizer ops, or `None` when any instruction
/// falls outside the executable Clifford fragment: a non-Clifford gate, a
/// measured or condition bit at index 64 or above (the measurement
/// register is a `u64`), or a `measure_all` past 64 qubits. The
/// [`MAX_STAB_QUBITS`] width cap is enforced by the compiler, not here,
/// so oversized Clifford programs still classify as Clifford and get an
/// error naming the stabilizer ceiling.
fn build_stab_ops(program: &Program, n: usize) -> Option<Vec<StabOp>> {
    let mut ops = Vec::new();
    for ins in program.flat_instructions() {
        if !lower_stab(ins, n, &mut ops) {
            return None;
        }
    }
    Some(ops)
}

fn lower_stab(ins: &Instruction, n: usize, ops: &mut Vec<StabOp>) -> bool {
    match ins {
        Instruction::PrepZ(q) => ops.push(StabOp::PrepZ(q.index())),
        Instruction::Gate(g) => match clifford_gate(g) {
            Ok(Some(cg)) => ops.push(StabOp::Gate(cg)),
            Ok(None) => {} // identity
            Err(()) => return false,
        },
        Instruction::Cond(bit, g) => {
            if bit.index() >= 64 {
                return false;
            }
            match clifford_gate(g) {
                Ok(Some(cg)) => ops.push(StabOp::Cond(bit.index(), cg)),
                Ok(None) => {}
                Err(()) => return false,
            }
        }
        Instruction::Measure(q) => {
            if q.index() >= 64 {
                return false;
            }
            ops.push(StabOp::Measure(q.index()));
        }
        Instruction::MeasureAll => {
            if n > 64 {
                return false;
            }
            ops.push(StabOp::MeasureAll);
        }
        Instruction::Bundle(instrs) => {
            for inner in instrs {
                if !lower_stab(inner, n, ops) {
                    return false;
                }
            }
        }
        // Only meaningful under an idle channel, which already forces the
        // plan out of the stabilizer classes; a no-op on noise-free state.
        Instruction::Wait(_) => {}
        Instruction::Display => {}
    }
    true
}

/// Maps a gate application to its Clifford generator: `Ok(None)` for the
/// identity, `Err(())` when the gate is outside the Clifford group.
fn clifford_gate(g: &cqasm::GateApp) -> Result<Option<CliffordGate>, ()> {
    use cqasm::GateKind::*;
    let q = |i: usize| g.qubits[i].index();
    Ok(Some(match g.kind {
        I => return Ok(None),
        H => CliffordGate::H(q(0)),
        S => CliffordGate::S(q(0)),
        Sdag => CliffordGate::Sdag(q(0)),
        X => CliffordGate::X(q(0)),
        Y => CliffordGate::Y(q(0)),
        Z => CliffordGate::Z(q(0)),
        X90 => CliffordGate::X90(q(0)),
        Y90 => CliffordGate::Y90(q(0)),
        Mx90 => CliffordGate::Mx90(q(0)),
        My90 => CliffordGate::My90(q(0)),
        Cnot => CliffordGate::Cnot(q(0), q(1)),
        Cz => CliffordGate::Cz(q(0), q(1)),
        Swap => CliffordGate::Swap(q(0), q(1)),
        _ => return Err(()),
    }))
}

/// Whether a stabilizer lowering has the feedback-free shape the
/// Pauli-frame sampler handles: either a unitary Clifford prefix closed by
/// one `measure_all`, or gates and per-qubit `measure`s interleaved freely
/// (at least one measure) with no conditionals or resets. Measures may
/// land mid-sequence — the scheduler hoists each `measure` next to its
/// qubit's last gate — but with no feedback the outcomes are still
/// expressible as one symbolic layout over the whole program.
fn stab_terminal_shape(ops: &[StabOp]) -> bool {
    match ops.last() {
        Some(StabOp::MeasureAll) => ops[..ops.len() - 1]
            .iter()
            .all(|op| matches!(op, StabOp::Gate(_))),
        Some(_) => {
            ops.iter()
                .all(|op| matches!(op, StabOp::Gate(_) | StabOp::Measure(_)))
                && ops.iter().any(|op| matches!(op, StabOp::Measure(_)))
        }
        None => false,
    }
}

fn lower(ins: &Instruction, ops: &mut Vec<PlannedOp>, idle_active: bool) {
    match ins {
        Instruction::PrepZ(q) => ops.push(PlannedOp::PrepZ(q.index())),
        Instruction::Gate(g) => ops.push(PlannedOp::Gate(plan_gate(g))),
        Instruction::Cond(bit, g) => ops.push(PlannedOp::Cond(bit.index(), plan_gate(g))),
        Instruction::Measure(q) => ops.push(PlannedOp::Measure(q.index())),
        Instruction::MeasureAll => ops.push(PlannedOp::MeasureAll),
        Instruction::Bundle(instrs) => {
            // Members execute sequentially; the bundle idles uninvolved
            // qubits once, at the top level.
            for inner in instrs {
                lower(inner, ops, idle_active);
            }
        }
        Instruction::Wait(cycles) => {
            if idle_active {
                ops.push(PlannedOp::Wait(*cycles));
            }
        }
        Instruction::Display => {}
    }
}

fn plan_gate(g: &cqasm::GateApp) -> PlannedGate {
    let qubits: Vec<usize> = g.qubits.iter().map(|q| q.index()).collect();
    PlannedGate {
        kernel: g.kind.kernel(),
        arity: qubits.len(),
        qubits,
    }
}

// --- Gate fusion --------------------------------------------------------
//
// Fusion rewrites maximal runs of consecutive `Gate` ops (a *segment*;
// anything else — `Measure`, `Cond`, `PrepZ`, `Idle`, `Wait` — breaks the
// segment) through three passes:
//
//  1. adjacent 1q gates on the same qubit compose into one 2x2;
//  2. consecutive diagonal gates batch into one strided diagonal table;
//  3. clusters of gates sharing <= MAX_FUSED_BLOCK_QUBITS qubits compose
//     into one dense block applied per orbit.
//
// Every rewrite is exact matrix composition over the same constants the
// unfused kernels would use — no tolerance, no approximation — so a fused
// plan is semantically identical to the original (amplitudes may differ in
// the last ulp because `(M2 M1) v` associates differently than
// `M2 (M1 v)`; the conformance campaign pins the observable histograms).

/// Runs the fusion passes over a lowered op list.
fn fuse_ops(n: usize, ops: Vec<PlannedOp>, stats: &mut FusionStats) -> Vec<PlannedOp> {
    let mut out = Vec::with_capacity(ops.len());
    let mut segment: Vec<PlannedGate> = Vec::new();
    for op in ops {
        match op {
            PlannedOp::Gate(g) => segment.push(g),
            other => {
                flush_segment(n, &mut segment, &mut out, stats);
                out.push(other);
            }
        }
    }
    flush_segment(n, &mut segment, &mut out, stats);
    out
}

fn flush_segment(
    n: usize,
    segment: &mut Vec<PlannedGate>,
    out: &mut Vec<PlannedOp>,
    stats: &mut FusionStats,
) {
    if segment.is_empty() {
        return;
    }
    stats.gates_before += segment.len() as u64;
    let run = collapse_1q_runs(std::mem::take(segment), stats);
    let run = batch_diagonals(n, run, stats);
    let run = cluster_blocks(n, run, stats);
    let run = layer_1q_runs(run, stats);
    stats.gates_after += run.len() as u64;
    out.extend(run.into_iter().map(PlannedOp::Gate));
}

/// The dense 2x2 of a single-qubit kernel, if the kernel is single-qubit.
fn kernel_mat2(kernel: &KernelClass) -> Option<Mat2> {
    match kernel {
        KernelClass::Identity => Some(Mat2::identity()),
        KernelClass::Diagonal1q(c0, c1) => Some(Mat2([[*c0, C64::ZERO], [C64::ZERO, *c1]])),
        KernelClass::AntiDiagonal1q(c0, c1) => Some(Mat2([[C64::ZERO, *c0], [*c1, C64::ZERO]])),
        KernelClass::General1q(m) | KernelClass::Fused1q(m) => Some(*m),
        _ => None,
    }
}

/// Classifies a composed 2x2 back into the cheapest exact kernel: diagonal
/// and anti-diagonal structure is detected by exact-zero entries (matrix
/// products of structured gates produce exact zeros, not small residues).
fn classify_mat2(m: Mat2) -> KernelClass {
    let [[m00, m01], [m10, m11]] = m.0;
    if m01 == C64::ZERO && m10 == C64::ZERO {
        KernelClass::Diagonal1q(m00, m11)
    } else if m00 == C64::ZERO && m11 == C64::ZERO {
        KernelClass::AntiDiagonal1q(m01, m10)
    } else {
        KernelClass::Fused1q(m)
    }
}

/// Pass 1: collapse each run of directly adjacent 1q gates on the same
/// qubit into one composed 2x2 (interleaved runs on *different* qubits are
/// left to pass 3, which handles them without reordering).
fn collapse_1q_runs(gates: Vec<PlannedGate>, stats: &mut FusionStats) -> Vec<PlannedGate> {
    struct Run {
        q: usize,
        m: Mat2,
        count: usize,
        first: PlannedGate,
    }
    let mut out = Vec::with_capacity(gates.len());
    let mut run: Option<Run> = None;
    let flush = |run: &mut Option<Run>, out: &mut Vec<PlannedGate>, stats: &mut FusionStats| {
        if let Some(r) = run.take() {
            if r.count == 1 {
                out.push(r.first);
            } else {
                stats.fused_1q_runs += 1;
                out.push(PlannedGate {
                    kernel: classify_mat2(r.m),
                    qubits: vec![r.q],
                    arity: 1,
                });
            }
        }
    };
    for g in gates {
        match kernel_mat2(&g.kernel) {
            Some(m2) => {
                let q = g.qubits[0];
                match &mut run {
                    Some(r) if r.q == q => {
                        r.m = m2.matmul(&r.m);
                        r.count += 1;
                    }
                    _ => {
                        flush(&mut run, &mut out, stats);
                        run = Some(Run {
                            q,
                            m: m2,
                            count: 1,
                            first: g,
                        });
                    }
                }
            }
            None => {
                flush(&mut run, &mut out, stats);
                out.push(g);
            }
        }
    }
    flush(&mut run, &mut out, stats);
    out
}

/// Whether a kernel is diagonal in the computational basis (batchable by
/// pass 2).
fn is_diag_kernel(kernel: &KernelClass) -> bool {
    matches!(
        kernel,
        KernelClass::Identity
            | KernelClass::Diagonal1q(..)
            | KernelClass::Cz
            | KernelClass::ControlledPhase(_)
            | KernelClass::FusedDiag(_)
    )
}

/// Multiplies `entries` (indexed by support-bit pattern) by gate `g`'s
/// diagonal action, where `pos[j]` is the support position of `g.qubits[j]`.
fn fold_diag_gate(entries: &mut [C64], g: &PlannedGate, pos: &[usize]) {
    match &g.kernel {
        KernelClass::Identity => {}
        KernelClass::Diagonal1q(c0, c1) => {
            let j = pos[0];
            for (p, e) in entries.iter_mut().enumerate() {
                *e *= if (p >> j) & 1 == 1 { *c1 } else { *c0 };
            }
        }
        KernelClass::Cz => {
            let mask = (1usize << pos[0]) | (1usize << pos[1]);
            for (p, e) in entries.iter_mut().enumerate() {
                if p & mask == mask {
                    *e = -*e;
                }
            }
        }
        KernelClass::ControlledPhase(ph) => {
            let mask = (1usize << pos[0]) | (1usize << pos[1]);
            for (p, e) in entries.iter_mut().enumerate() {
                if p & mask == mask {
                    *e *= *ph;
                }
            }
        }
        KernelClass::FusedDiag(d) => {
            for (p, e) in entries.iter_mut().enumerate() {
                let mut sub = 0usize;
                for (j, &jp) in pos.iter().enumerate() {
                    sub |= ((p >> jp) & 1) << j;
                }
                *e *= d.entries[sub];
            }
        }
        other => unreachable!("non-diagonal kernel {other:?} in diagonal batch"),
    }
}

/// Pass 2: batch maximal runs of consecutive diagonal gates into one
/// [`KernelClass::FusedDiag`] table over the sorted union support. Splits
/// greedily when the union would exceed [`MAX_FUSED_DIAG_QUBITS`].
fn batch_diagonals(n: usize, gates: Vec<PlannedGate>, stats: &mut FusionStats) -> Vec<PlannedGate> {
    let mut out = Vec::with_capacity(gates.len());
    let mut group: Vec<PlannedGate> = Vec::new();
    let mut support: Vec<usize> = Vec::new();
    let flush = |group: &mut Vec<PlannedGate>,
                 support: &mut Vec<usize>,
                 out: &mut Vec<PlannedGate>,
                 stats: &mut FusionStats| {
        match group.len() {
            0 => {}
            1 => out.extend(group.pop()),
            _ => {
                stats.fused_diag_batches += 1;
                let k = support.len();
                let mut entries = vec![C64::ONE; 1usize << k];
                for g in group.drain(..) {
                    // `support` is sorted and contains every operand by
                    // construction, so the partition point is its index.
                    let pos: Vec<usize> = g
                        .qubits
                        .iter()
                        .map(|q| support.partition_point(|s| s < q))
                        .collect();
                    fold_diag_gate(&mut entries, &g, &pos);
                }
                out.push(PlannedGate {
                    kernel: KernelClass::FusedDiag(FusedDiagonal { entries }),
                    qubits: std::mem::take(support),
                    arity: k,
                });
            }
        }
        support.clear();
    };
    for g in gates {
        if is_diag_kernel(&g.kernel) {
            let mut union = support.clone();
            for &q in &g.qubits {
                if !union.contains(&q) {
                    union.push(q);
                }
            }
            if union.len() <= MAX_FUSED_DIAG_QUBITS.min(n) {
                union.sort_unstable();
                support = union;
                group.push(g);
            } else {
                flush(&mut group, &mut support, &mut out, stats);
                let mut s: Vec<usize> = g.qubits.clone();
                s.sort_unstable();
                s.dedup();
                support = s;
                group.push(g);
            }
        } else {
            flush(&mut group, &mut support, &mut out, stats);
            out.push(g);
        }
    }
    flush(&mut group, &mut support, &mut out, stats);
    out
}

/// Expands a kernel acting on `local` (positions within a `k`-qubit block)
/// to a dense `2^k x 2^k` LSB-first matrix, by applying the kernel to each
/// basis column on a scratch `k`-qubit state.
fn expand_kernel(kernel: &KernelClass, local: &[usize], k: usize) -> BlockUnitary {
    let dim = 1usize << k;
    let mut m = vec![C64::ZERO; dim * dim];
    for c in 0..dim {
        let mut psi = StateVector::basis_state(k, c as u64);
        psi.apply_kernel(kernel, local);
        for (r, a) in psi.amplitudes().iter().enumerate() {
            m[r * dim + c] = *a;
        }
    }
    BlockUnitary { k, m }
}

/// Rough cost of applying one planned kernel to a large state, in tenths
/// of a cheap streaming pass roughly split as "sweep the amplitudes" plus
/// "complex multiplies per amplitude". Only relative magnitudes matter;
/// the scale is anchored so the cheapest kernels (scale or permute a
/// subset of amplitudes) cost 4 and a dense 1q pair-rotation costs 5.
///
/// Re-measured with the AVX2 kernels (one thread, n = 18, ns per
/// amplitude scaled so `General1q` = 5): Diagonal1q 4.9, AntiDiagonal1q
/// 4.8, Cnot 4.4, Swap 4.3, Cz and ControlledPhase 1.8,
/// ControlledControlled 1.6, FusedDiag 5.1, General2q 9.2, FusedBlock
/// k=1/2/3 6.2/9.9/23, Fused1qLayer k=1..4 4.9/8.2/14/21. These isolated
/// ratios do flip some cluster decisions (a k=3 block now costs more than
/// `block_cost` says, a controlled phase less), but a table built from
/// them densified about 4x more clusters on random 18-qubit circuits and
/// evolved them 5-15% slower: gates left out of a block are later merged
/// into 1q layers and diagonal tables, which isolated ratios do not see.
/// So the constants stay.
fn kernel_cost(g: &PlannedGate) -> u32 {
    match &g.kernel {
        KernelClass::Identity => 0,
        KernelClass::Diagonal1q(..)
        | KernelClass::AntiDiagonal1q(..)
        | KernelClass::Cnot
        | KernelClass::Cz
        | KernelClass::Swap
        | KernelClass::ControlledPhase(_)
        | KernelClass::ControlledControlled(_)
        | KernelClass::FusedDiag(_) => 4,
        KernelClass::General1q(_) | KernelClass::Fused1q(_) => 5,
        KernelClass::General2q(_) => 11,
        KernelClass::FusedBlock(b) => block_cost(b.k),
        // One pass plus one in-register pair rotation per factor.
        KernelClass::Fused1qLayer(mats) => 3 + 2 * mats.len() as u32,
    }
}

/// Cost of one dense `2^k` block sweep on the same scale as
/// [`kernel_cost`]: one pass plus `2^k` complex multiplies per amplitude.
fn block_cost(k: usize) -> u32 {
    3 + 2 * (1u32 << k)
}

/// Pass 3: greedily cluster consecutive gates whose union support stays
/// within [`MAX_FUSED_BLOCK_QUBITS`] qubits and compose each cluster into
/// one dense [`KernelClass::FusedBlock`]. Whether a cluster pays off
/// depends on the register size:
///
/// - Below [`BLOCK_EAGER_MAX_QUBITS`] the whole state sits in cache and
///   per-kernel dispatch dominates, so any cluster of >= 2 gates (>= 3
///   for an 8x8 block) is densified.
/// - At or above it the sweep is bandwidth/arithmetic-bound, so a dense
///   `2^k` block must absorb more estimated work ([`kernel_cost`]) than
///   it costs to apply — otherwise e.g. an Rx mixer layer would be
///   densified into 8x8 blocks that are slower than three cheap 1q
///   passes.
///
/// Clusters composing to the exact identity (e.g. `cnot; cnot`) are
/// dropped outright.
fn cluster_blocks(n: usize, gates: Vec<PlannedGate>, stats: &mut FusionStats) -> Vec<PlannedGate> {
    let mut out = Vec::with_capacity(gates.len());
    let mut cluster: Vec<PlannedGate> = Vec::new();
    let mut support: Vec<usize> = Vec::new();
    let flush = |cluster: &mut Vec<PlannedGate>,
                 support: &mut Vec<usize>,
                 out: &mut Vec<PlannedGate>,
                 stats: &mut FusionStats| {
        let k = support.len();
        let worthwhile = k >= 2
            && if n < BLOCK_EAGER_MAX_QUBITS {
                cluster.len() >= if k >= 3 { 3 } else { 2 }
            } else {
                cluster.iter().map(kernel_cost).sum::<u32>() > block_cost(k)
            };
        if !worthwhile {
            out.append(cluster);
        } else {
            let mut block = BlockUnitary::identity(k);
            for g in cluster.drain(..) {
                // `support` is sorted and contains every operand by
                // construction, so the partition point is its index.
                let local: Vec<usize> = g
                    .qubits
                    .iter()
                    .map(|q| support.partition_point(|s| s < q))
                    .collect();
                block = expand_kernel(&g.kernel, &local, k).matmul(&block);
            }
            stats.fused_blocks += 1;
            if !block.is_exact_identity() {
                out.push(PlannedGate {
                    kernel: KernelClass::FusedBlock(block),
                    qubits: std::mem::take(support),
                    arity: k,
                });
            }
        }
        support.clear();
    };
    for g in gates {
        let mut gs: Vec<usize> = g.qubits.clone();
        gs.sort_unstable();
        gs.dedup();
        if gs.len() > MAX_FUSED_BLOCK_QUBITS {
            flush(&mut cluster, &mut support, &mut out, stats);
            out.push(g);
            continue;
        }
        let mut union = support.clone();
        for &q in &gs {
            if !union.contains(&q) {
                union.push(q);
            }
        }
        if union.len() <= MAX_FUSED_BLOCK_QUBITS {
            union.sort_unstable();
            support = union;
            cluster.push(g);
        } else {
            flush(&mut cluster, &mut support, &mut out, stats);
            support = gs;
            cluster.push(g);
        }
    }
    flush(&mut cluster, &mut support, &mut out, stats);
    out
}

/// The dense 2x2 of a kernel eligible to join a fused 1q layer.
fn layer_factor(kernel: &KernelClass) -> Option<Mat2> {
    match kernel {
        KernelClass::General1q(m) | KernelClass::Fused1q(m) => Some(*m),
        KernelClass::Diagonal1q(c0, c1) => Some(Mat2([[*c0, C64::ZERO], [C64::ZERO, *c1]])),
        KernelClass::AntiDiagonal1q(c0, c1) => Some(Mat2([[C64::ZERO, *c0], [*c1, C64::ZERO]])),
        _ => None,
    }
}

/// Pass 4: group runs of consecutive single-qubit gates on pairwise
/// distinct qubits into factored [`KernelClass::Fused1qLayer`] sweeps of
/// up to [`crate::state::MAX_1Q_LAYER_QUBITS`] qubits: the factored orbit
/// pass does the same arithmetic as the separate gates but streams the
/// state once per sweep instead of once per gate (a 20-qubit Rx mixer
/// layer or Hadamard wall becomes 5 sweeps instead of 20 passes). Runs
/// after the cluster pass so denser fusions get first pick; single
/// leftovers stay as their original kernels.
fn layer_1q_runs(gates: Vec<PlannedGate>, stats: &mut FusionStats) -> Vec<PlannedGate> {
    let mut out: Vec<PlannedGate> = Vec::with_capacity(gates.len());
    let mut layer: Vec<PlannedGate> = Vec::new();
    let flush =
        |layer: &mut Vec<PlannedGate>, out: &mut Vec<PlannedGate>, stats: &mut FusionStats| {
            if layer.len() < 2 {
                out.append(layer);
                return;
            }
            // Snake partition: sort the run by qubit and pair low qubits
            // (cache-line/page local strides) with high qubits (huge strides)
            // in each sweep, so a fused orbit gathers a few contiguous
            // clusters instead of 2^k isolated cache lines. The members act
            // on pairwise distinct qubits, so they commute exactly and any
            // grouping composes the same unitary.
            layer.sort_by_key(|g| g.qubits[0]);
            let width = crate::state::MAX_1Q_LAYER_QUBITS;
            let groups = layer.len().div_ceil(width);
            let base = layer.len() / groups;
            let extra = layer.len() % groups;
            let mut lo = 0usize;
            let mut hi = layer.len();
            for i in 0..groups {
                let size = base + usize::from(i < extra);
                let take_lo = size.div_ceil(2);
                let take_hi = size - take_lo;
                let mut group: Vec<PlannedGate> = Vec::with_capacity(size);
                group.extend_from_slice(&layer[lo..lo + take_lo]);
                group.extend_from_slice(&layer[hi - take_hi..hi]);
                lo += take_lo;
                hi -= take_hi;
                if group.len() == 1 {
                    out.append(&mut group);
                    continue;
                }
                let mats: Vec<Mat2> = group
                    .iter()
                    .filter_map(|g| layer_factor(&g.kernel))
                    .collect();
                if mats.len() < group.len() {
                    // Unreachable by construction (eligibility is checked
                    // before a gate joins the run); degrade to the
                    // original kernels rather than panic in library code.
                    out.append(&mut group);
                    continue;
                }
                let qubits: Vec<usize> = group.iter().map(|g| g.qubits[0]).collect();
                let arity = qubits.len();
                stats.fused_1q_layers += 1;
                out.push(PlannedGate {
                    kernel: KernelClass::Fused1qLayer(mats),
                    qubits,
                    arity,
                });
            }
            layer.clear();
        };
    for g in gates {
        let eligible = g.qubits.len() == 1 && layer_factor(&g.kernel).is_some();
        if !eligible {
            flush(&mut layer, &mut out, stats);
            out.push(g);
            continue;
        }
        if layer.iter().any(|l| l.qubits[0] == g.qubits[0]) {
            flush(&mut layer, &mut out, stats);
        }
        layer.push(g);
    }
    flush(&mut layer, &mut out, stats);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqasm::GateKind;

    fn bell() -> Program {
        Program::builder(2)
            .gate(GateKind::H, &[0])
            .gate(GateKind::Cnot, &[0, 1])
            .measure_all()
            .build()
    }

    /// Compiles with fusion disabled (the pre-fusion plan shape).
    fn compile_unfused(p: &Program, model: &QubitModel) -> CompiledProgram {
        CompiledProgram::compile_with(p, model, PlanOptions { fusion: false }).unwrap()
    }

    #[test]
    fn bell_compiles_to_terminal_sampling_plan() {
        let plan = compile_unfused(&bell(), &QubitModel::Perfect);
        assert_eq!(plan.qubit_count(), 2);
        assert_eq!(plan.ops().len(), 3);
        assert!(plan.terminal_sampling());
        assert!(matches!(
            &plan.ops()[0],
            PlannedOp::Gate(PlannedGate {
                kernel: KernelClass::General1q(_),
                ..
            })
        ));
        assert!(matches!(
            &plan.ops()[1],
            PlannedOp::Gate(PlannedGate {
                kernel: KernelClass::Cnot,
                qubits,
                arity: 2,
            }) if qubits == &[0, 1]
        ));
        assert!(matches!(plan.ops()[2], PlannedOp::MeasureAll));
    }

    #[test]
    fn bell_fuses_into_one_block() {
        // With fusion on (the default), h + cnot share two qubits and
        // collapse into one dense 4x4 block.
        let plan = CompiledProgram::compile(&bell(), &QubitModel::Perfect).unwrap();
        assert_eq!(plan.ops().len(), 2);
        assert!(plan.terminal_sampling());
        assert!(matches!(
            &plan.ops()[0],
            PlannedOp::Gate(PlannedGate {
                kernel: KernelClass::FusedBlock(b),
                qubits,
                arity: 2,
            }) if qubits == &[0, 1] && b.k == 2
        ));
        let stats = plan.fusion_stats();
        assert_eq!(stats.gates_before, 2);
        assert_eq!(stats.gates_after, 1);
        assert_eq!(stats.fused_blocks, 1);
    }

    #[test]
    fn noise_disables_terminal_sampling() {
        let noisy = QubitModel::realistic_depolarizing(0.01, 0.01, 0.0);
        let plan = CompiledProgram::compile(&bell(), &noisy).unwrap();
        assert!(!plan.terminal_sampling());
    }

    #[test]
    fn mid_circuit_measurement_disables_terminal_sampling() {
        let p = Program::builder(2)
            .gate(GateKind::H, &[0])
            .measure(0)
            .gate(GateKind::X, &[1])
            .measure_all()
            .build();
        let plan = CompiledProgram::compile(&p, &QubitModel::Perfect).unwrap();
        assert!(!plan.terminal_sampling());
    }

    #[test]
    fn idle_masks_cover_uninvolved_qubits_only() {
        let model = QubitModel::Realistic(crate::qubit_model::RealisticParams {
            channel_1q: crate::error_model::ErrorChannel::None,
            channel_2q: crate::error_model::ErrorChannel::None,
            readout_error: 0.0,
            idle_channel: crate::error_model::ErrorChannel::AmplitudeDamping { gamma: 0.1 },
        });
        let p = Program::builder(3)
            .gate(GateKind::H, &[1])
            .measure_all()
            .build();
        let plan = CompiledProgram::compile(&p, &model).unwrap();
        // h q[1] idles qubits 0 and 2; measure_all involves everything.
        let idles: Vec<u64> = plan
            .ops()
            .iter()
            .filter_map(|op| match op {
                PlannedOp::Idle(m) => Some(*m),
                _ => None,
            })
            .collect();
        assert_eq!(idles, vec![0b101]);
        assert!(!plan.terminal_sampling());
    }

    #[test]
    fn wait_is_dropped_without_an_idle_channel() {
        let p = Program::builder(1)
            .gate(GateKind::X, &[0])
            .instruction(Instruction::Wait(5))
            .measure_all()
            .build();
        let plan = CompiledProgram::compile(&p, &QubitModel::Perfect).unwrap();
        assert!(plan
            .ops()
            .iter()
            .all(|op| !matches!(op, PlannedOp::Wait(_))));
        assert!(plan.terminal_sampling());
    }

    #[test]
    fn bundles_flatten_and_idle_once() {
        let model = QubitModel::Realistic(crate::qubit_model::RealisticParams {
            channel_1q: crate::error_model::ErrorChannel::None,
            channel_2q: crate::error_model::ErrorChannel::None,
            readout_error: 0.0,
            idle_channel: crate::error_model::ErrorChannel::PhaseFlip { p: 0.1 },
        });
        let p = Program::builder(4)
            .instruction(Instruction::Bundle(vec![
                Instruction::gate(GateKind::X, &[0]),
                Instruction::gate(GateKind::Y, &[2]),
            ]))
            .build();
        let plan = compile_unfused(&p, &model);
        assert_eq!(plan.ops().len(), 3); // x, y, one idle
        assert!(matches!(plan.ops()[2], PlannedOp::Idle(0b1010)));
        // With fusion on, x and y share <= 3 qubits and fuse into one
        // block, but the idle op still lands after them at the same point.
        let fused = CompiledProgram::compile(&p, &model).unwrap();
        assert_eq!(fused.ops().len(), 2);
        assert!(matches!(fused.ops()[1], PlannedOp::Idle(0b1010)));
    }

    #[test]
    fn invalid_programs_are_rejected() {
        let mut p = Program::new(1);
        let mut s = cqasm::Subcircuit::new("s");
        s.push(Instruction::gate(GateKind::H, &[3]));
        p.push_subcircuit(s);
        assert!(matches!(
            CompiledProgram::compile(&p, &QubitModel::Perfect),
            Err(ExecuteError::Invalid(_))
        ));
    }

    #[test]
    fn oversized_programs_get_a_typed_error() {
        // Regression: `qubits 70` used to reach the state-vector kernel and
        // abort on an internal assertion (and would try a 2^70 allocation).
        // A non-Clifford gate pins the plan to the state-vector engine.
        let mut p = Program::new(70);
        let mut s = cqasm::Subcircuit::new("s");
        s.push(Instruction::gate(GateKind::T, &[0]));
        p.push_subcircuit(s);
        assert_eq!(
            CompiledProgram::compile(&p, &QubitModel::Perfect),
            Err(ExecuteError::TooManyQubits {
                needed: 70,
                max: MAX_SIM_QUBITS
            })
        );
        // A pure-Clifford program is accepted far past the state-vector
        // ceiling, up to the stabilizer engines' own cap.
        let clifford = Program::new(70);
        let plan = CompiledProgram::compile(&clifford, &QubitModel::Perfect).unwrap();
        assert_eq!(plan.circuit_class(), CircuitClass::Clifford);
        let huge = Program::new(MAX_STAB_QUBITS + 1);
        assert_eq!(
            CompiledProgram::compile(&huge, &QubitModel::Perfect),
            Err(ExecuteError::TooManyQubits {
                needed: MAX_STAB_QUBITS + 1,
                max: MAX_STAB_QUBITS
            })
        );
    }

    #[test]
    fn empty_and_measure_only_programs_execute() {
        // Regression: degenerate shapes (no gates at all, or a lone
        // measure_all) must compile and run, returning all-zero outcomes.
        let empty = Program::new(2);
        let plan = CompiledProgram::compile(&empty, &QubitModel::Perfect).unwrap();
        assert!(plan.ops().is_empty());
        assert!(!plan.terminal_sampling());

        let measure_only = Program::builder(2).measure_all().build();
        let plan = CompiledProgram::compile(&measure_only, &QubitModel::Perfect).unwrap();
        assert_eq!(plan.ops().len(), 1);
        assert!(plan.terminal_sampling());
        let hist = crate::Simulator::perfect()
            .run_shots(&measure_only, 50)
            .unwrap();
        assert_eq!(hist.count(0), 50);
    }

    #[test]
    fn terminal_measure_runs_qualify_for_sampling() {
        let p = Program::builder(3)
            .gate(GateKind::H, &[0])
            .gate(GateKind::Cnot, &[0, 1])
            .measure(1)
            .measure(0)
            .build();
        let plan = CompiledProgram::compile(&p, &QubitModel::Perfect).unwrap();
        assert!(plan.terminal_sampling());
        assert_eq!(
            plan.sampling_measures(),
            Some(&TerminalMeasure::Run(vec![1, 0]))
        );
        assert_eq!(
            plan.terminal_measurement(),
            Some(&TerminalMeasure::Run(vec![1, 0]))
        );
    }

    #[test]
    fn measure_followed_by_gate_is_not_terminal() {
        let p = Program::builder(2)
            .gate(GateKind::H, &[0])
            .measure(0)
            .gate(GateKind::X, &[1])
            .measure(1)
            .build();
        let plan = CompiledProgram::compile(&p, &QubitModel::Perfect).unwrap();
        // Only the trailing `measure q[1]` is terminal; the mid-circuit
        // measure in the prefix disqualifies the fast path.
        assert!(!plan.terminal_sampling());
        assert_eq!(plan.sampling_measures(), None);
        assert_eq!(
            plan.terminal_measurement(),
            Some(&TerminalMeasure::Run(vec![1]))
        );
    }

    #[test]
    fn noisy_plans_keep_their_terminal_shape() {
        let noisy = QubitModel::realistic_depolarizing(0.01, 0.01, 0.0);
        let plan = CompiledProgram::compile(&bell(), &noisy).unwrap();
        assert!(!plan.terminal_sampling());
        assert_eq!(plan.terminal_measurement(), Some(&TerminalMeasure::All));
    }

    #[test]
    fn wide_measure_runs_now_qualify_for_sampling() {
        // Regression for the old MAX_MEASURE_RUN_SAMPLING = 16 ceiling: a
        // 20-qubit terminal measure run samples instead of falling back to
        // per-shot interpretation (the cascade prunes its cache on demand).
        let n = 20;
        let mut b = Program::builder(n);
        for q in 0..n {
            b = b.gate(GateKind::H, &[q]);
        }
        for q in 0..n {
            b = b.measure(q);
        }
        let plan = CompiledProgram::compile(&b.build(), &QubitModel::Perfect).unwrap();
        assert!(plan.terminal_sampling());
        assert!(matches!(
            plan.terminal_measurement(),
            Some(TerminalMeasure::Run(qs)) if qs.len() == n
        ));
    }

    #[test]
    fn oversized_measure_runs_fall_back() {
        // The prefix of realised outcomes packs into a u64, so runs longer
        // than 64 measures (a qubit measured repeatedly) cannot sample.
        let mut b = Program::builder(2).gate(GateKind::H, &[0]);
        for _ in 0..(MAX_MEASURE_RUN_SAMPLING + 1) {
            b = b.measure(0);
        }
        let plan = CompiledProgram::compile(&b.build(), &QubitModel::Perfect).unwrap();
        assert!(!plan.terminal_sampling(), "prefix must fit in 64 bits");
        assert!(matches!(
            plan.terminal_measurement(),
            Some(TerminalMeasure::Run(qs)) if qs.len() == MAX_MEASURE_RUN_SAMPLING + 1
        ));
    }

    #[test]
    fn iterated_subcircuits_unroll() {
        let mut p = Program::new(1);
        let mut s = cqasm::Subcircuit::with_iterations("loop", 3);
        s.push(Instruction::gate(GateKind::X, &[0]));
        p.push_subcircuit(s);
        let plan = compile_unfused(&p, &QubitModel::Perfect);
        assert_eq!(plan.ops().len(), 3);
    }

    #[test]
    fn adjacent_1q_runs_collapse_to_one_kernel() {
        let p = Program::builder(1)
            .gate(GateKind::H, &[0])
            .gate(GateKind::T, &[0])
            .gate(GateKind::H, &[0])
            .measure_all()
            .build();
        let plan = CompiledProgram::compile(&p, &QubitModel::Perfect).unwrap();
        assert_eq!(plan.ops().len(), 2);
        assert!(matches!(
            &plan.ops()[0],
            PlannedOp::Gate(PlannedGate {
                kernel: KernelClass::Fused1q(_),
                qubits,
                arity: 1,
            }) if qubits == &[0]
        ));
        assert_eq!(plan.fusion_stats().fused_1q_runs, 1);
    }

    #[test]
    fn composed_1q_runs_reclassify_to_structured_kernels() {
        // s; t on the same qubit compose into a *diagonal* 2x2, so the
        // fused kernel keeps the cheap diagonal sweep.
        let p = Program::builder(1)
            .gate(GateKind::S, &[0])
            .gate(GateKind::T, &[0])
            .measure_all()
            .build();
        let plan = CompiledProgram::compile(&p, &QubitModel::Perfect).unwrap();
        assert!(matches!(
            &plan.ops()[0],
            PlannedOp::Gate(PlannedGate {
                kernel: KernelClass::Diagonal1q(..),
                ..
            })
        ));
        // x; x composes to the exact identity matrix -> Diagonal1q(1, 1)
        // never reaches the anti-diagonal swap path.
        let p = Program::builder(1)
            .gate(GateKind::X, &[0])
            .gate(GateKind::X, &[0])
            .measure_all()
            .build();
        let plan = CompiledProgram::compile(&p, &QubitModel::Perfect).unwrap();
        assert!(matches!(
            &plan.ops()[0],
            PlannedOp::Gate(PlannedGate {
                kernel: KernelClass::Diagonal1q(c0, c1),
                ..
            }) if *c0 == C64::ONE && *c1 == C64::ONE
        ));
    }

    #[test]
    fn diagonal_chains_batch_into_one_table() {
        // A QFT-style tail: controlled phases + rz, all diagonal, on 4
        // qubits -> one FusedDiag over the union support.
        let p = Program::builder(4)
            .gate(GateKind::T, &[0])
            .gate(GateKind::CRk(2), &[1, 0])
            .gate(GateKind::CRk(3), &[2, 0])
            .gate(GateKind::Cz, &[3, 0])
            .gate(GateKind::Rz(0.7), &[2])
            .measure_all()
            .build();
        let plan = CompiledProgram::compile(&p, &QubitModel::Perfect).unwrap();
        assert_eq!(plan.ops().len(), 2, "ops: {:?}", plan.ops());
        assert!(matches!(
            &plan.ops()[0],
            PlannedOp::Gate(PlannedGate {
                kernel: KernelClass::FusedDiag(d),
                qubits,
                arity: 4,
            }) if qubits == &[0, 1, 2, 3] && d.entries.len() == 16
        ));
        assert_eq!(plan.fusion_stats().fused_diag_batches, 1);
    }

    #[test]
    fn wide_diagonal_chains_split_greedily() {
        // 14 qubits of diagonal support cannot fit one table
        // (MAX_FUSED_DIAG_QUBITS = 12); the batch splits but stays fused.
        let n = 14;
        let mut b = Program::builder(n);
        for q in 0..n {
            b = b.gate(GateKind::Rz(0.1 * q as f64), &[q]);
        }
        for q in 0..n - 1 {
            b = b.gate(GateKind::Cz, &[q, q + 1]);
        }
        let plan = CompiledProgram::compile(&b.build(), &QubitModel::Perfect).unwrap();
        let stats = plan.fusion_stats();
        assert!(stats.fused_diag_batches >= 2, "stats: {stats:?}");
        assert!(stats.gates_after < stats.gates_before);
        for op in plan.ops() {
            if let PlannedOp::Gate(g) = op {
                if let KernelClass::FusedDiag(d) = &g.kernel {
                    assert!(d.entries.len() <= 1 << MAX_FUSED_DIAG_QUBITS);
                }
            }
        }
    }

    #[test]
    fn self_inverse_pairs_drop_to_nothing() {
        let p = Program::builder(2)
            .gate(GateKind::Cnot, &[0, 1])
            .gate(GateKind::Cnot, &[0, 1])
            .measure_all()
            .build();
        let plan = CompiledProgram::compile(&p, &QubitModel::Perfect).unwrap();
        // cnot; cnot composes to the exact identity and disappears.
        assert_eq!(plan.ops().len(), 1);
        assert!(matches!(plan.ops()[0], PlannedOp::MeasureAll));
        assert!(plan.terminal_sampling());
    }

    #[test]
    fn measurement_and_cond_break_fusion_runs() {
        let p = Program::builder(2)
            .gate(GateKind::H, &[0])
            .measure(0)
            .gate(GateKind::H, &[0])
            .build();
        let plan = CompiledProgram::compile(&p, &QubitModel::Perfect).unwrap();
        // The two H gates sit on opposite sides of the measure: no fusion.
        assert_eq!(plan.fusion_stats().gates_after, 2);

        let p = Program::builder(2)
            .gate(GateKind::X, &[0])
            .measure(0)
            .cond(0, GateKind::X, &[1])
            .gate(GateKind::X, &[1])
            .build();
        let plan = CompiledProgram::compile(&p, &QubitModel::Perfect).unwrap();
        // The conditional gate neither fuses nor lets its neighbours fuse
        // across it.
        assert!(plan
            .ops()
            .iter()
            .any(|op| matches!(op, PlannedOp::Cond(..))));
        assert_eq!(plan.fusion_stats().fused_blocks, 0);
    }

    #[test]
    fn per_gate_noise_suppresses_fusion() {
        let noisy = QubitModel::realistic_depolarizing(0.01, 0.01, 0.0);
        let plan = CompiledProgram::compile(&bell(), &noisy).unwrap();
        assert_eq!(plan.fusion_stats(), FusionStats::default());
        assert_eq!(plan.ops().len(), 3);
    }

    #[test]
    fn toffoli_clusters_fuse_into_blocks() {
        // Toffoli + cnot + t on 3 shared qubits -> one 8x8 block.
        let p = Program::builder(3)
            .gate(GateKind::Toffoli, &[0, 1, 2])
            .gate(GateKind::Cnot, &[0, 2])
            .gate(GateKind::T, &[1])
            .measure_all()
            .build();
        let plan = CompiledProgram::compile(&p, &QubitModel::Perfect).unwrap();
        assert_eq!(plan.ops().len(), 2);
        assert!(matches!(
            &plan.ops()[0],
            PlannedOp::Gate(PlannedGate {
                kernel: KernelClass::FusedBlock(b),
                qubits,
                arity: 3,
            }) if qubits == &[0, 1, 2] && b.k == 3
        ));
    }

    #[test]
    fn lone_2q_pairs_of_3q_support_stay_unfused() {
        // Two gates spanning 3 qubits: a dense 8x8 would not beat two
        // specialised kernels, so they stay as-is.
        let p = Program::builder(3)
            .gate(GateKind::Cnot, &[0, 1])
            .gate(GateKind::Cnot, &[1, 2])
            .measure_all()
            .build();
        let plan = CompiledProgram::compile(&p, &QubitModel::Perfect).unwrap();
        assert_eq!(plan.fusion_stats().fused_blocks, 0);
        assert_eq!(plan.ops().len(), 3);
    }

    fn class_of(p: &Program) -> CircuitClass {
        CompiledProgram::compile(p, &QubitModel::Perfect)
            .unwrap()
            .circuit_class()
    }

    #[test]
    fn clifford_terminal_covers_clifford_prefix_plus_terminal_measures() {
        assert_eq!(class_of(&bell()), CircuitClass::CliffordTerminal);
        // A trailing per-qubit measure run qualifies too.
        let run = Program::builder(3)
            .gate(GateKind::H, &[0])
            .gate(GateKind::Cnot, &[0, 1])
            .measure(0)
            .measure(1)
            .build();
        assert_eq!(class_of(&run), CircuitClass::CliffordTerminal);
    }

    #[test]
    fn interleaved_feedback_free_measures_stay_terminal_class() {
        // The scheduler hoists each measure next to its qubit's last gate,
        // so measures land mid-sequence. Without feedback (no cond, no
        // prep_z) the frame sampler still applies.
        let p = Program::builder(3)
            .gate(GateKind::H, &[0])
            .gate(GateKind::Cnot, &[0, 1])
            .measure(1)
            .gate(GateKind::Cnot, &[0, 2])
            .measure(0)
            .measure(2)
            .build();
        assert_eq!(class_of(&p), CircuitClass::CliffordTerminal);
        // A trailing gate after the last measure is still feedback-free.
        let p = Program::builder(2)
            .gate(GateKind::H, &[0])
            .measure(0)
            .gate(GateKind::X, &[1])
            .build();
        assert_eq!(class_of(&p), CircuitClass::CliffordTerminal);
        // But a mid-sequence measure_all is not frame-sampleable.
        let p = Program::builder(2)
            .gate(GateKind::H, &[0])
            .measure_all()
            .gate(GateKind::X, &[1])
            .measure(1)
            .build();
        assert_eq!(class_of(&p), CircuitClass::Clifford);
    }

    #[test]
    fn non_clifford_gates_classify_general() {
        for kind in [
            GateKind::T,
            GateKind::Tdag,
            GateKind::Rz(0.3),
            GateKind::Rx(0.3),
            GateKind::Toffoli,
        ] {
            let qubits: &[usize] = if kind == GateKind::Toffoli {
                &[0, 1, 2]
            } else {
                &[0]
            };
            let p = Program::builder(3).gate(kind, qubits).measure_all().build();
            assert_eq!(class_of(&p), CircuitClass::General, "{kind:?}");
        }
        // Rz at a Clifford angle is still symbolic: the classifier keys on
        // the gate kind, not the parameter, so it stays General.
        let quarter = Program::builder(1)
            .gate(GateKind::Rz(std::f64::consts::FRAC_PI_2), &[0])
            .measure_all()
            .build();
        assert_eq!(class_of(&quarter), CircuitClass::General);
    }

    #[test]
    fn mid_circuit_measurement_demotes_terminal_to_clifford() {
        let p = Program::builder(2)
            .gate(GateKind::H, &[0])
            .measure(0)
            .cond(0, GateKind::X, &[1])
            .measure_all()
            .build();
        let plan = CompiledProgram::compile(&p, &QubitModel::Perfect).unwrap();
        assert_eq!(plan.circuit_class(), CircuitClass::Clifford);
        assert!(plan.stab_ops().is_some());
        // prep_z mid-circuit likewise blocks the frame sampler's
        // terminal shape but keeps the tableau path.
        let p = Program::builder(2)
            .gate(GateKind::H, &[0])
            .prep_z(0)
            .measure_all()
            .build();
        assert_eq!(class_of(&p), CircuitClass::Clifford);
    }

    #[test]
    fn register_width_limits_demote_to_general() {
        // A mid-circuit measure past the 64-bit classical register cannot
        // lower to StabOps; the plan must stay on the state-vector engine
        // (and is then over its width ceiling).
        let mut p = Program::new(70);
        let mut s = cqasm::Subcircuit::new("s");
        s.push(Instruction::gate(GateKind::H, &[65]));
        s.push(Instruction::Measure(cqasm::Qubit(65)));
        p.push_subcircuit(s);
        assert_eq!(
            CompiledProgram::compile(&p, &QubitModel::Perfect),
            Err(ExecuteError::TooManyQubits {
                needed: 70,
                max: MAX_SIM_QUBITS
            })
        );
        // measure_all on >64 qubits cannot fill a u64 register either.
        let mut p = Program::new(70);
        let mut s = cqasm::Subcircuit::new("s");
        s.push(Instruction::MeasureAll);
        p.push_subcircuit(s);
        assert!(CompiledProgram::compile(&p, &QubitModel::Perfect).is_err());
        // But a terminal measure *run* on low qubits keeps wide Clifford
        // programs servable.
        let mut p = Program::new(70);
        let mut s = cqasm::Subcircuit::new("s");
        s.push(Instruction::gate(GateKind::H, &[0]));
        s.push(Instruction::gate(GateKind::Cnot, &[0, 69]));
        s.push(Instruction::Measure(cqasm::Qubit(0)));
        p.push_subcircuit(s);
        assert_eq!(class_of(&p), CircuitClass::CliffordTerminal);
    }

    #[test]
    fn noise_models_classify_general() {
        let noisy = QubitModel::realistic_depolarizing(0.01, 0.01, 0.0);
        let plan = CompiledProgram::compile(&bell(), &noisy).unwrap();
        assert_eq!(plan.circuit_class(), CircuitClass::General);
        assert!(plan.stab_ops().is_none());
        // Readout error alone also forces the state-vector path.
        let readout = QubitModel::Realistic(crate::qubit_model::RealisticParams {
            channel_1q: crate::error_model::ErrorChannel::None,
            channel_2q: crate::error_model::ErrorChannel::None,
            readout_error: 0.02,
            idle_channel: crate::error_model::ErrorChannel::None,
        });
        let plan = CompiledProgram::compile(&bell(), &readout).unwrap();
        assert_eq!(plan.circuit_class(), CircuitClass::General);
    }

    #[test]
    fn stab_ops_presence_matches_class() {
        for (p, class) in [
            (bell(), CircuitClass::CliffordTerminal),
            (
                Program::builder(2)
                    .gate(GateKind::H, &[0])
                    .measure(0)
                    .gate(GateKind::H, &[0])
                    .measure_all()
                    .build(),
                CircuitClass::Clifford,
            ),
            (
                Program::builder(2)
                    .gate(GateKind::T, &[0])
                    .measure_all()
                    .build(),
                CircuitClass::General,
            ),
        ] {
            let plan = CompiledProgram::compile(&p, &QubitModel::Perfect).unwrap();
            assert_eq!(plan.circuit_class(), class);
            assert_eq!(
                plan.stab_ops().is_some(),
                class != CircuitClass::General,
                "{class:?}"
            );
        }
    }

    #[test]
    fn class_names_are_stable_wire_tokens() {
        assert_eq!(CircuitClass::CliffordTerminal.name(), "clifford_terminal");
        assert_eq!(CircuitClass::Clifford.name(), "clifford");
        assert_eq!(CircuitClass::General.name(), "general");
    }
}
