//! Prepared runs: a plan's shared work is done once by
//! `Simulator::prepare`, and shots are then drawn range by range. Any
//! disjoint cover of `0..shots`, drawn at any thread budget, must merge to
//! the histogram of `run_shots_planned` bit-for-bit, for every sampler
//! kind. The kernel thread telemetry must report the threads a run was
//! granted.

use cqasm::{GateKind, Program};
use proptest::prelude::*;
use qca_telemetry::Telemetry;
use qxsim::{CompiledProgram, EngineSelect, QubitModel, ShotHistogram, Simulator};

/// A non-Clifford 4-qubit prefix, so the state-vector engine runs it.
fn prefix() -> cqasm::ProgramBuilder {
    Program::builder(4)
        .gate(GateKind::H, &[0])
        .gate(GateKind::T, &[0])
        .gate(GateKind::Cnot, &[0, 1])
        .gate(GateKind::Rx(0.7), &[2])
        .gate(GateKind::Cnot, &[2, 3])
        .gate(GateKind::Ry(1.1), &[1])
        .gate(GateKind::Cz, &[1, 2])
}

/// One program per sampler kind, with the engine it must resolve to and,
/// for the state-vector engine, whether its plan takes the sampling fast
/// path.
fn case(kind: usize, seed: u64) -> (Simulator, Program, EngineSelect, bool) {
    let perfect = Simulator::perfect().with_seed(seed);
    match kind {
        // Terminal measure_all: one evolution, a cumulative table.
        0 => (
            perfect,
            prefix().measure_all().build(),
            EngineSelect::StateVector,
            true,
        ),
        // Terminal measure run: one evolution, the measurement cascade.
        1 => (
            perfect,
            prefix().measure(2).measure(0).measure(3).build(),
            EngineSelect::StateVector,
            true,
        ),
        // Terminally measured Clifford circuit: the Pauli-frame sampler.
        2 => (
            perfect,
            Program::builder(5)
                .gate(GateKind::H, &[0])
                .gate(GateKind::Cnot, &[0, 1])
                .gate(GateKind::Cnot, &[1, 2])
                .gate(GateKind::H, &[3])
                .gate(GateKind::Cnot, &[3, 4])
                .measure_all()
                .build(),
            EngineSelect::PauliFrame,
            false,
        ),
        // Clifford circuit with feedback: the per-shot tableau.
        3 => (
            perfect,
            Program::builder(3)
                .gate(GateKind::H, &[0])
                .gate(GateKind::H, &[1])
                .gate(GateKind::Cnot, &[1, 2])
                .measure(0)
                .cond(0, GateKind::X, &[2])
                .gate(GateKind::S, &[1])
                .measure(1)
                .measure(2)
                .build(),
            EngineSelect::Tableau,
            false,
        ),
        // Noisy qubits: per-shot state-vector trajectories.
        _ => (
            Simulator::with_model(QubitModel::realistic_depolarizing(0.03, 0.06, 0.02))
                .with_seed(seed),
            prefix().measure_all().build(),
            EngineSelect::StateVector,
            false,
        ),
    }
}

/// Half-open ranges covering `0..shots`, cut at `cuts` (folded into range).
fn cover(shots: u64, cuts: &[u64]) -> Vec<(u64, u64)> {
    let mut points: Vec<u64> = cuts.iter().map(|c| c % (shots + 1)).collect();
    points.extend([0, shots]);
    points.sort_unstable();
    points.dedup();
    points.windows(2).map(|w| (w[0], w[1])).collect()
}

fn checked_plan(sim: &Simulator, program: &Program, engine: EngineSelect) -> CompiledProgram {
    let plan = sim.compile(program).unwrap();
    assert_eq!(sim.plan_engine(&plan).unwrap(), engine);
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn any_cover_of_prepared_ranges_equals_the_whole_run(
        kind in 0usize..5,
        shots in 1u64..700,
        seed in 0u64..1_000_000,
        budget in 0usize..3,
        cuts in proptest::collection::vec(0u64..1_000, 0..6)
    ) {
        let threads = [1, 2, 4][budget];
        let (sim, program, engine, sampling) = case(kind, seed);
        let plan = checked_plan(&sim, &program, engine);
        if engine == EngineSelect::StateVector {
            prop_assert_eq!(plan.sampling_measures().is_some(), sampling);
        }
        let whole = sim.run_shots_planned(&plan, shots, 1).unwrap();
        prop_assert_eq!(&sim.run_shots_planned(&plan, shots, threads).unwrap(), &whole);
        let prepared = sim.prepare(&plan, shots, threads).unwrap();
        prop_assert_eq!(prepared.shots(), shots);
        // Merge in reverse so the order of ranges is not the shot order.
        let mut merged = ShotHistogram::new();
        for (lo, hi) in cover(shots, &cuts).into_iter().rev() {
            merged.merge(&prepared.sample_range(lo, hi));
        }
        prop_assert_eq!(&merged, &whole);
    }
}

#[test]
fn shards_sampling_one_prepared_run_in_parallel_match_the_whole_run() {
    for kind in 0..5 {
        let (sim, program, engine, _) = case(kind, 42);
        let plan = checked_plan(&sim, &program, engine);
        let whole = sim.run_shots_planned(&plan, 900, 1).unwrap();
        let prepared = sim.prepare(&plan, 900, 2).unwrap();
        let parts: Vec<ShotHistogram> = std::thread::scope(|scope| {
            let handles: Vec<_> = cover(900, &[100, 450, 451, 800])
                .into_iter()
                .map(|(lo, hi)| {
                    scope.spawn({
                        let prepared = &prepared;
                        move || prepared.sample_range(lo, hi)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let mut merged = ShotHistogram::new();
        for part in &parts {
            merged.merge(part);
        }
        assert_eq!(merged, whole, "kind {kind}");
    }
}

/// The sweep decision reports the kernel threads a run was granted (its
/// budget, capped at the host's parallelism), not the host's parallelism:
/// a budget of 1 is serial, a budget of 2 evolves the shared state on 2
/// threads, and per-shot trajectories split over 2 shot threads keep their
/// kernels serial.
#[test]
fn sweep_telemetry_reports_the_granted_threads() {
    let n = qxsim::par_min_qubits().max(2);
    if n > 20 {
        // A threshold raised past what a unit test should allocate.
        return;
    }
    let program = Program::builder(n)
        .gate(GateKind::H, &[0])
        .gate(GateKind::T, &[0])
        .gate(GateKind::Rx(0.3), &[n - 1])
        .measure_all()
        .build();
    let noisy = QubitModel::realistic_depolarizing(0.01, 0.02, 0.01);
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (two, granted_two) = if host >= 2 {
        ("parallel", 2.0)
    } else {
        ("serial", 1.0)
    };
    let cases = [
        (QubitModel::Perfect, 1, "serial", 1.0),
        (QubitModel::Perfect, 2, two, granted_two),
        (noisy, 2, "serial", 1.0),
    ];
    for (model, budget, decision, granted) in cases {
        let telemetry = Telemetry::enabled();
        let sim = Simulator::with_model(model)
            .with_engine_select(EngineSelect::StateVector)
            .with_telemetry(telemetry.clone());
        let plan = sim.compile(&program).unwrap();
        sim.run_shots_planned(&plan, 2, budget).unwrap();
        let snap = telemetry.snapshot();
        let sweep = &snap.labeled["qxsim.parallel_sweep"];
        assert_eq!(sweep.get(decision), Some(&1), "budget {budget}: {sweep:?}");
        assert_eq!(sweep.values().sum::<u64>(), 1);
        let threads = &snap.values["qxsim.parallel_sweep.kernel_threads"];
        assert_eq!((threads.min, threads.max), (granted, granted));
    }
}
