//! The vector and portable kernels must agree bit for bit: for every
//! kernel class, support position and thread count, and through a whole
//! compiled plan.

use super::{KernelIsa, StateVector};
use crate::Simulator;
use cqasm::math::{Mat2, Mat4, C64};
use cqasm::{BlockUnitary, FusedDiagonal, GateKind, KernelClass, Program, ProgramBuilder};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

thread_local! {
    pub(super) static PORTABLE_ONLY: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `f` with every kernel call it makes on this thread dispatched to
/// the portable path.
fn portable_only<R>(f: impl FnOnce() -> R) -> R {
    PORTABLE_ONLY.with(|p| p.set(true));
    let out = f();
    PORTABLE_ONLY.with(|p| p.set(false));
    out
}

fn c64(rng: &mut StdRng) -> C64 {
    C64::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))
}

fn mat2(rng: &mut StdRng) -> Mat2 {
    Mat2([[c64(rng), c64(rng)], [c64(rng), c64(rng)]])
}

/// A kernel of class `class` (a [`KernelClass::class_index`]) with random
/// entries, on `width` operands where the class allows a choice (fused
/// diagonals, blocks and layers). Unitarity does not matter here, only
/// that both paths do the same arithmetic.
fn kernel(class: usize, width: usize, rng: &mut StdRng) -> KernelClass {
    let k = match class {
        0 => KernelClass::Identity,
        1 => KernelClass::Diagonal1q(c64(rng), c64(rng)),
        2 => KernelClass::AntiDiagonal1q(c64(rng), c64(rng)),
        3 => KernelClass::General1q(mat2(rng)),
        4 => KernelClass::Cnot,
        5 => KernelClass::Cz,
        6 => KernelClass::Swap,
        7 => KernelClass::ControlledPhase(c64(rng)),
        8 => KernelClass::General2q(Mat4(std::array::from_fn(|_| {
            std::array::from_fn(|_| c64(rng))
        }))),
        9 => KernelClass::ControlledControlled(mat2(rng)),
        10 => KernelClass::Fused1q(mat2(rng)),
        11 => KernelClass::FusedDiag(FusedDiagonal {
            entries: (0..1 << width).map(|_| c64(rng)).collect(),
        }),
        12 => KernelClass::FusedBlock(BlockUnitary {
            k: width,
            m: (0..1 << (2 * width)).map(|_| c64(rng)).collect(),
        }),
        _ => KernelClass::Fused1qLayer((0..width).map(|_| mat2(rng)).collect()),
    };
    assert_eq!(k.class_index(), class);
    k
}

/// Operand count of class `class`, and the widest variable width it takes.
fn arity(class: usize, n: usize) -> (usize, usize) {
    match class {
        4..=8 => (2, 2),
        9 => (3, 3),
        11 => (0, n.min(6)),
        12 => (0, n.min(3)),
        13 => (0, n.min(4)),
        _ => (1, 1),
    }
}

fn random_state(n: usize, rng: &mut StdRng) -> StateVector {
    StateVector::from_raw((0..1usize << n).map(|_| c64(rng)).collect())
}

fn bits(s: &StateVector) -> Vec<(u64, u64)> {
    s.amplitudes()
        .iter()
        .map(|a| (a.re.to_bits(), a.im.to_bits()))
        .collect()
}

/// Applies `kernel` on the portable path with one thread and on the host's
/// path with 1, 2 and 3 threads, and requires identical bits.
fn assert_parity(state: &StateVector, kernel: &KernelClass, qubits: &[usize]) {
    let mut portable = state.clone();
    portable.apply_kernel_with(kernel, qubits, KernelIsa::Portable, 1);
    let want = bits(&portable);
    for threads in 1..=3 {
        let mut host = state.clone();
        host.apply_kernel_with(kernel, qubits, KernelIsa::host(), threads);
        assert!(
            bits(&host) == want,
            "{} on {qubits:?} (n = {}, {threads} threads, {}) differs from portable",
            KernelClass::class_name(kernel.class_index()),
            state.qubit_count(),
            KernelIsa::host().name()
        );
    }
}

/// Every class on every ordered support of a small register, so each
/// support position (qubit 0 included) and registers narrower than the
/// kernel's lane pair (a single orbit) are all exercised.
#[test]
fn every_class_and_support_position_matches_portable() {
    let mut rng = StdRng::seed_from_u64(13);
    for n in 1..=4 {
        let state = random_state(n, &mut rng);
        for class in 0..KernelClass::COUNT {
            let (fixed, widest) = arity(class, n);
            for width in 1..=widest {
                let ops = if fixed > 0 { fixed } else { width };
                if ops > n || (fixed > 0 && width > 1) {
                    continue;
                }
                let k = kernel(class, width, &mut rng);
                for qubits in ordered_supports(n, ops) {
                    assert_parity(&state, &k, &qubits);
                }
            }
        }
    }
}

/// Every ordered choice of `k` distinct qubits out of `n`.
fn ordered_supports(n: usize, k: usize) -> Vec<Vec<usize>> {
    if k == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for rest in ordered_supports(n, k - 1) {
        for q in (0..n).filter(|q| !rest.contains(q)) {
            let mut s = rest.clone();
            s.push(q);
            out.push(s);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random states, classes and supports at the sizes the engine serves.
    #[test]
    fn random_kernels_match_portable_bit_for_bit(
        n in prop_oneof![Just(1usize), Just(2), Just(3), Just(5), Just(10), Just(18)],
        class in 0..KernelClass::COUNT,
        width in 1usize..=6,
        seed in 0..u64::MAX,
    ) {
        let (fixed, widest) = arity(class, n);
        let ops = if fixed > 0 { fixed } else { width.min(widest) };
        if ops > n {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let k = kernel(class, if fixed > 0 { 1 } else { ops }, &mut rng);
        let mut qubits: Vec<usize> = (0..n).collect();
        for i in 0..ops {
            let j = rng.gen_range(i..n);
            qubits.swap(i, j);
        }
        qubits.truncate(ops);
        assert_parity(&random_state(n, &mut rng), &k, &qubits);
    }
}

/// The sim-cold job shape: a random 18-qubit, 160-gate non-Clifford
/// circuit, without its closing `measure_all`.
fn random_circuit(seed: u64) -> ProgramBuilder {
    let n = 18;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = Program::builder(n);
    for _ in 0..160 {
        let q = rng.gen_range(0..n);
        let r = (q + rng.gen_range(1..n)) % n;
        let angle = rng.gen_range(-std::f64::consts::PI..std::f64::consts::PI);
        b = match rng.gen_range(0..10) {
            0 => b.gate(GateKind::H, &[q]),
            1 => b.gate(GateKind::T, &[q]),
            2 => b.gate(GateKind::S, &[q]),
            3 => b.gate(GateKind::X, &[q]),
            4 => b.gate(GateKind::Rx(angle), &[q]),
            5 => b.gate(GateKind::Ry(angle), &[q]),
            6 => b.gate(GateKind::Rz(angle), &[q]),
            7 => b.gate(GateKind::Cnot, &[q, r]),
            8 => b.gate(GateKind::Cz, &[q, r]),
            _ => b.gate(GateKind::Cr(angle), &[q, r]),
        };
    }
    b.gate(GateKind::T, &[0])
}

/// A whole fused plan through the executor: the evolved state and the
/// served histogram are the same with every kernel forced portable.
#[test]
fn whole_plan_histograms_match_portable() {
    let sim = Simulator::perfect().with_seed(7);
    let unmeasured = sim.compile(&random_circuit(160).build()).expect("compiles");
    let evolve = || {
        sim.run_compiled(&unmeasured, &mut StdRng::seed_from_u64(1))
            .state
    };
    assert!(bits(&evolve()) == bits(&portable_only(evolve)));

    let plan = sim
        .compile(&random_circuit(160).measure_all().build())
        .expect("compiles");
    let shots = || sim.run_shots_planned(&plan, 512, 2).expect("runs");
    assert_eq!(shots(), portable_only(shots));
}

/// Fused diagonals whose entries are exactly 1 wherever one support bit is
/// clear (a controlled-phase ladder) skip that half of the state: the
/// result must still be the full sweep's, value for value, on both paths.
#[test]
fn identity_half_diagonals_skip_exactly() {
    let mut rng = StdRng::seed_from_u64(29);
    for (n, qubits) in [
        (5usize, vec![3usize, 0, 4]),
        (10, vec![2, 9, 5]),
        (18, vec![17, 1, 6, 12]),
    ] {
        for control in 0..qubits.len() {
            let entries: Vec<C64> = (0..1usize << qubits.len())
                .map(|p| {
                    if p >> control & 1 == 1 {
                        c64(&mut rng)
                    } else {
                        C64::ONE
                    }
                })
                .collect();
            let state = random_state(n, &mut rng);
            let mut full = state.clone();
            for (i, a) in full.amps.iter_mut().enumerate() {
                let p = qubits
                    .iter()
                    .enumerate()
                    .fold(0, |p, (j, &q)| p | (i >> q & 1) << j);
                *a *= entries[p];
            }
            let kernel = KernelClass::FusedDiag(FusedDiagonal { entries });
            assert_parity(&state, &kernel, &qubits);
            let mut fused = state.clone();
            fused.apply_kernel(&kernel, &qubits);
            assert_eq!(fused, full, "n = {n}, control bit {control}");
        }
    }
}
