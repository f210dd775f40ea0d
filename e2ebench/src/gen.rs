//! Seeded workload generation: every job list is a pure function of
//! (workload, seed, seconds), so two commits run exactly the same jobs.

use cqasm::{GateKind, Program};
use qca_core::QubitKind;
use qca_service::wire::{encode_request, Request};
use qca_service::JobSpec;
use std::f64::consts::PI;
use std::sync::Arc;

/// Every workload the benchmark can run.
pub const WORKLOADS: [&str; 5] = [
    "serve-mix",
    "compile-cold",
    "sim-statevector",
    "sim-cold",
    "qec-stabilizer",
];

/// The workloads `BENCHMARK.json` declares, in its order. `serve-mix`,
/// `compile-cold` and `qec-stabilizer` run and are checked like the
/// others but are not declared: their work is cache-resident compute
/// (wire decoding, compiling, 8-qubit states, tableau rows), and on a
/// shared two-vCPU host that runs up to 1.6x slower for minutes at a time
/// while other tenants load the machine. The declared workloads spend
/// most of their time evolving 16- to 18-qubit states, which moves less.
pub const DECLARED_WORKLOADS: [&str; 2] = ["sim-statevector", "sim-cold"];

/// SplitMix64 step: the one generator behind every seeded choice.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A fresh job seed, kept below 2^53 so it survives JSON numbers.
fn job_seed(rng: &mut u64) -> u64 {
    splitmix64(rng) >> 11
}

fn unit(rng: &mut u64) -> f64 {
    (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64
}

/// How a job's result is checked, independently of the engine that ran it.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// Bit-identical to `qca_core::conform::reference_histogram` on the
    /// jobs `Job::oracle` marks (the oracle is too slow for every job).
    Oracle,
    /// Measured bits `0..width` are all equal in every shot.
    Ghz { width: u32 },
    /// Pooled per circuit, within a total-variation bound of the exact
    /// distribution from the dense reference kernels.
    ExactTv,
    /// Pooled per circuit, within a total-variation bound of the density
    /// engine on the compiled program.
    DensityTv,
    /// Every Z-ancilla bit of every shot is 0 (perfect-qubit ESM).
    ZeroBits { mask: u64 },
}

/// One distinct circuit of a workload.
#[derive(Debug)]
pub struct Circuit {
    pub name: String,
    pub source: String,
    pub transmon: bool,
    pub check: Check,
}

/// One job: a circuit, its shots and a fresh seed.
#[derive(Debug, Clone)]
pub struct Job {
    pub circuit: usize,
    pub shots: u64,
    pub seed: u64,
    /// The job's `submit` request line, encoded before timing starts.
    pub line: Arc<str>,
    /// Whether the oracle check runs on this job.
    pub oracle: bool,
    /// In a closed loop, the client that runs this job; `None` lets
    /// whichever client is free take it.
    pub client: Option<usize>,
}

/// How jobs are offered to the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Open loop: job `i` of the phase is due at `i / rate` seconds.
    Rate(f64),
    /// As fast as possible while fewer than `window` jobs are outstanding.
    Window(usize),
    /// Closed loop with this many clients.
    Clients(usize),
}

/// A run of jobs with one pacing rule.
#[derive(Debug)]
pub struct Phase {
    pub name: &'static str,
    pub pace: Pace,
    pub jobs: Vec<Job>,
}

/// A workload: its distinct circuits, warm-up jobs and measured phases.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub circuits: Vec<Circuit>,
    /// Jobs run once per set-up, before anything is timed.
    pub warmup: Vec<Job>,
    pub phases: Vec<Phase>,
}

impl Workload {
    /// Every measured job, in phase order.
    pub fn jobs(&self) -> impl Iterator<Item = &Job> {
        self.phases.iter().flat_map(|p| p.jobs.iter())
    }
}

/// Open-loop target rates of `serve-mix` (jobs/s).
const LIGHT_RATE: f64 = 500.0;
const LOADED_RATE: f64 = 2000.0;
/// Rounds of light, loaded and burst phases in `serve-mix`.
const SERVE_ROUNDS: usize = 10;
/// `serve-mix` burst jobs per second of `--seconds`.
const BURST_JOBS_PER_S: f64 = 1500.0;
/// Below the default queue capacity (256), so the burst never sheds.
const BURST_WINDOW: usize = 192;
/// One in this many `serve-mix` jobs is checked against the oracle.
const SERVE_ORACLE_EVERY: usize = 8;
/// One in this many `compile-cold` jobs is checked against the oracle.
const COLD_ORACLE_EVERY: usize = 32;

fn make_job(circuits: &[Circuit], circuit: usize, shots: u64, seed: u64, oracle: bool) -> Job {
    let c = &circuits[circuit];
    let mut spec = JobSpec::new(c.source.clone())
        .with_shots(shots)
        .with_seed(seed);
    if c.transmon {
        spec = spec.with_qubits(QubitKind::real_transmon());
    }
    Job {
        circuit,
        shots,
        seed,
        line: encode_request(&Request::Submit(spec)).into(),
        oracle,
        client: None,
    }
}

fn circuit(name: &str, program: &Program, check: Check) -> Circuit {
    Circuit {
        name: name.to_string(),
        source: program.to_string(),
        transmon: false,
        check,
    }
}

fn ghz(n: usize, measured: usize) -> Program {
    let mut b = Program::builder(n).gate(GateKind::H, &[0]);
    for q in 0..n - 1 {
        b = b.gate(GateKind::Cnot, &[q, q + 1]);
    }
    if measured == n {
        return b.measure_all().build();
    }
    for q in 0..measured {
        b = b.measure(q);
    }
    b.build()
}

/// The six `qca-load` shapes.
fn serve_circuits() -> Vec<Circuit> {
    let mut rot = Program::builder(4);
    for q in 0..4 {
        rot = rot
            .gate(GateKind::Rx(PI / 4.0), &[q])
            .gate(GateKind::Rz(PI / 2.0), &[q]);
    }
    let rot = rot
        .gate(GateKind::Cnot, &[0, 2])
        .gate(GateKind::Cnot, &[1, 3])
        .measure_all()
        .build();
    let teleport = Program::builder(3)
        .gate(GateKind::H, &[1])
        .gate(GateKind::Cnot, &[1, 2])
        .gate(GateKind::Cnot, &[0, 1])
        .gate(GateKind::H, &[0])
        .measure(0)
        .measure(1)
        .cond(1, GateKind::X, &[2])
        .cond(0, GateKind::Z, &[2])
        .measure_all()
        .build();
    vec![
        circuit("bell", &ghz(2, 2), Check::Oracle),
        circuit("ghz3", &ghz(3, 3), Check::Oracle),
        circuit("ghz5", &ghz(5, 5), Check::Oracle),
        circuit("rotations-4", &rot, Check::Oracle),
        circuit("ghz48", &ghz(48, 8), Check::Ghz { width: 8 }),
        circuit("teleport", &teleport, Check::Oracle),
    ]
}

fn serve_mix(seed: u64, seconds: f64) -> Workload {
    let circuits = serve_circuits();
    let mut rng = seed ^ 0x5e_4e_d1;
    let mut index = 0usize;
    // Every block of six consecutive jobs holds each shape once, in a
    // seeded order: the mix is the same for every seed, its order is not.
    let mut order: Vec<usize> = Vec::new();
    let mut draw = |rng: &mut u64, count: usize| -> Vec<Job> {
        (0..count)
            .map(|_| {
                if order.is_empty() {
                    order = (0..circuits.len()).collect();
                    for k in (1..order.len()).rev() {
                        order.swap(k, (splitmix64(rng) % (k as u64 + 1)) as usize);
                    }
                }
                let c = order.pop().unwrap_or(0);
                let oracle =
                    circuits[c].check == Check::Oracle && index.is_multiple_of(SERVE_ORACLE_EVERY);
                index += 1;
                make_job(&circuits, c, 256, job_seed(rng), oracle)
            })
            .collect()
    };
    // The three phases repeat in rounds, so each phase's figures come
    // from several windows spread over the whole run.
    let phase_s = 0.3 * seconds / SERVE_ROUNDS as f64;
    let burst_jobs = (BURST_JOBS_PER_S * seconds / SERVE_ROUNDS as f64).ceil() as usize;
    let mut phases = Vec::new();
    for _ in 0..SERVE_ROUNDS {
        let light = draw(&mut rng, (LIGHT_RATE * phase_s).ceil() as usize);
        let loaded = draw(&mut rng, (LOADED_RATE * phase_s).ceil() as usize);
        let burst = draw(&mut rng, burst_jobs);
        phases.push(Phase {
            name: "light",
            pace: Pace::Rate(LIGHT_RATE),
            jobs: light,
        });
        phases.push(Phase {
            name: "loaded",
            pace: Pace::Rate(LOADED_RATE),
            jobs: loaded,
        });
        phases.push(Phase {
            name: "burst",
            pace: Pace::Window(BURST_WINDOW),
            jobs: burst,
        });
    }
    let warmup = (0..circuits.len())
        .map(|c| make_job(&circuits, c, 256, 1, false))
        .collect();
    Workload {
        name: "serve-mix",
        circuits,
        warmup,
        phases,
    }
}

/// A random non-Clifford circuit: about `gates` gates on `n` qubits.
fn random_circuit(rng: &mut u64, n: usize, gates: usize) -> Program {
    let mut b = Program::builder(n);
    for _ in 0..gates {
        let q = (splitmix64(rng) % n as u64) as usize;
        let mut r = (splitmix64(rng) % (n as u64 - 1)) as usize;
        if r >= q {
            r += 1;
        }
        let angle = (unit(rng) * 2.0 - 1.0) * PI;
        b = match splitmix64(rng) % 10 {
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
    // A T gate keeps every circuit out of the Clifford class.
    b.gate(GateKind::T, &[0]).measure_all().build()
}

/// `compile-cold` jobs per second of `--seconds`.
const COLD_JOBS_PER_S: f64 = 85.0;

fn compile_cold(seed: u64, seconds: f64) -> Workload {
    let mut rng = seed ^ 0xc0_1d;
    let count = (COLD_JOBS_PER_S * seconds).ceil() as usize;
    let mut circuits: Vec<Circuit> = (0..count)
        .map(|i| {
            circuit(
                &format!("random-{i}"),
                &random_circuit(&mut rng, 8, 600),
                Check::Oracle,
            )
        })
        .collect();
    // Warm-up circuits come from their own stream, so the measured jobs
    // still miss the plan cache.
    let mut warm_rng = 0x3a_2b_1c;
    for i in 0..4 {
        circuits.push(circuit(
            &format!("warmup-{i}"),
            &random_circuit(&mut warm_rng, 8, 600),
            Check::Oracle,
        ));
    }
    let jobs = (0..count)
        .map(|i| {
            make_job(
                &circuits,
                i,
                64,
                job_seed(&mut rng),
                i.is_multiple_of(COLD_ORACLE_EVERY),
            )
        })
        .collect();
    let warmup = (count..count + 4)
        .map(|c| make_job(&circuits, c, 64, 1, false))
        .collect();
    Workload {
        name: "compile-cold",
        circuits,
        warmup,
        phases: vec![Phase {
            name: "closed",
            pace: Pace::Clients(1),
            jobs,
        }],
    }
}

/// Phase-estimation circuit: prepares the Fourier state of `theta` and
/// undoes it with an inverse QFT, so the outcome peaks near
/// `theta * 2^n` — a distribution a total-variation check can resolve.
fn qpe(n: usize, theta: f64) -> Program {
    let mut b = Program::builder(n);
    for q in 0..n {
        b = b
            .gate(GateKind::H, &[q])
            .gate(GateKind::Rz(2.0 * PI * theta * (1u64 << q) as f64), &[q]);
    }
    // Inverse QFT, most significant qubit first, without the final swaps
    // (the bit reversal is part of the expected distribution).
    for j in (0..n).rev() {
        for k in (j + 1..n).rev() {
            let angle = -PI / (1u64 << (k - j)) as f64;
            b = b.gate(GateKind::Cr(angle), &[k, j]);
        }
        b = b.gate(GateKind::H, &[j]);
    }
    b.measure_all().build()
}

/// QAOA-style MaxCut circuit on a ring with chords: `layers` rounds of
/// ZZ phase separation and an Rx mixer.
fn qaoa(n: usize, layers: usize, gamma: f64, beta: f64) -> Program {
    let mut b = Program::builder(n);
    for q in 0..n {
        b = b.gate(GateKind::H, &[q]);
    }
    for _ in 0..layers {
        for q in 0..n {
            for r in [(q + 1) % n, (q + 5) % n] {
                b = b
                    .gate(GateKind::Cnot, &[q, r])
                    .gate(GateKind::Rz(2.0 * gamma), &[r])
                    .gate(GateKind::Cnot, &[q, r]);
            }
        }
        for q in 0..n {
            b = b.gate(GateKind::Rx(2.0 * beta), &[q]);
        }
    }
    b.measure_all().build()
}

/// `sim-statevector` jobs per second of `--seconds`.
const SV_JOBS_PER_S: f64 = 20.0;

/// `sim-statevector`'s repeating job pattern, by kind: 0 is QPE-18, 1 the
/// next of the other perfect circuits in turn, 2 the next noisy one and 3
/// the next stabilizer one.
const SV_PATTERN: [usize; 8] = [0, 1, 0, 2, 0, 3, 0, 0];

fn sim_statevector(seed: u64, seconds: f64) -> Workload {
    let mut circuits = vec![
        circuit("qpe-16", &qpe(16, 0.237_5), Check::ExactTv),
        circuit("qpe-17", &qpe(17, 0.608_7), Check::ExactTv),
        circuit("qpe-18", &qpe(18, 0.372_1), Check::ExactTv),
        circuit("qaoa-16", &qaoa(16, 2, 0.35, 0.6), Check::ExactTv),
    ];
    let perfect = circuits.len();
    let mut noise_rng = 0x7a_a5_50;
    for i in 0..2 {
        let mut c = circuit(
            &format!("noisy-8-{i}"),
            &random_circuit(&mut noise_rng, 8, 100),
            Check::DensityTv,
        );
        c.transmon = true;
        circuits.push(c);
    }
    // Clifford jobs, so the Pauli-frame sampler and the CHP tableau get
    // work too, as (circuit, shots).
    circuits.push(circuit("ghz48", &ghz(48, 8), Check::Ghz { width: 8 }));
    circuits.push(esm(3, 2));
    let stabilizer = [(perfect + 2, 4096), (perfect + 3, 512)];
    let mut rng = seed ^ 0x57_a7e;
    let count = (SV_JOBS_PER_S * seconds).ceil() as usize;
    // A fixed pattern, so every seed runs the same mix. QPE-18 jobs are
    // five in eight and the slowest, so the median lands among them rather
    // than on a boundary between kinds of job, and evolving their 4 MiB
    // state does most of the work.
    let mut turn = [0usize; 4];
    let jobs = (0..count)
        .map(|i| {
            let kind = SV_PATTERN[i % SV_PATTERN.len()];
            let k = turn[kind];
            turn[kind] += 1;
            let (c, shots) = match kind {
                0 => (2, 8192),
                1 => ([0, 1, 3][k % 3], 8192),
                2 => (perfect + k % 2, 128),
                _ => stabilizer[k % stabilizer.len()],
            };
            make_job(&circuits, c, shots, job_seed(&mut rng), false)
        })
        .collect();
    let warmup = (0..circuits.len())
        .map(|c| {
            let shots = if c < perfect {
                8192
            } else if c < perfect + 2 {
                128
            } else {
                stabilizer[c - perfect - 2].1
            };
            make_job(&circuits, c, shots, 1, false)
        })
        .collect();
    Workload {
        name: "sim-statevector",
        circuits,
        warmup,
        phases: vec![Phase {
            name: "closed",
            pace: Pace::Clients(2),
            jobs,
        }],
    }
}

/// `sim-cold` jobs per second of `--seconds`.
const SIM_COLD_JOBS_PER_S: f64 = 20.0;
/// One in this many `sim-cold` jobs is checked against the oracle.
const SIM_COLD_ORACLE_EVERY: usize = 32;

/// Every job a distinct random 18-qubit circuit: each one misses the plan
/// cache, so wire decoding, cqasm, OpenQL and plan compilation run for
/// every job, while evolving a 4 MiB state does most of the work.
fn sim_cold(seed: u64, seconds: f64) -> Workload {
    const QUBITS: usize = 18;
    const GATES: usize = 160;
    let mut rng = seed ^ 0x5c_01d;
    let count = (SIM_COLD_JOBS_PER_S * seconds).ceil() as usize;
    let mut circuits: Vec<Circuit> = (0..count)
        .map(|i| {
            circuit(
                &format!("random-{i}"),
                &random_circuit(&mut rng, QUBITS, GATES),
                Check::Oracle,
            )
        })
        .collect();
    let mut warm_rng = 0x5c_2b_1c;
    for i in 0..4 {
        circuits.push(circuit(
            &format!("warmup-{i}"),
            &random_circuit(&mut warm_rng, QUBITS, GATES),
            Check::Oracle,
        ));
    }
    let jobs = (0..count)
        .map(|i| {
            make_job(
                &circuits,
                i,
                64,
                job_seed(&mut rng),
                i.is_multiple_of(SIM_COLD_ORACLE_EVERY),
            )
        })
        .collect();
    let warmup = (count..count + 4)
        .map(|c| make_job(&circuits, c, 64, 1, false))
        .collect();
    Workload {
        name: "sim-cold",
        circuits,
        warmup,
        phases: vec![Phase {
            name: "closed",
            pace: Pace::Clients(2),
            jobs,
        }],
    }
}

fn esm(d: usize, rounds: u64) -> Circuit {
    let code = qec::SurfaceCode::new(d).to_stabilizer_code();
    let (program, layout) = qec::esm::esm_program_ancilla_first(&code, rounds);
    let mask = (0..layout.z_ancillas).fold(0u64, |m, i| m | 1 << layout.z_ancilla(i));
    circuit(
        &format!("esm-d{d}-r{rounds}"),
        &program,
        Check::ZeroBits { mask },
    )
}

/// `qec-stabilizer` jobs per second of `--seconds`.
const QEC_JOBS_PER_S: f64 = 7.5;

fn qec_stabilizer(seed: u64, seconds: f64) -> Workload {
    let circuits = vec![
        esm(3, 2),
        circuit("ghz48", &ghz(48, 8), Check::Ghz { width: 8 }),
        esm(5, 1),
    ];
    // (circuit, shots, client) in a fixed repeating pattern. GHZ-48 gives
    // the Pauli-frame sampler work here too. No job has enough shots to be
    // split into shards, and each client runs its own stream of jobs: one
    // runs d=3 and GHZ-48 jobs, the other d=5 jobs taking about as long.
    // So each worker runs one job at a time against the same neighbour,
    // latencies stay apart by kind, the median falls among the d=3 jobs
    // and the tail among the d=5 jobs, never on a boundary between them.
    const PATTERN: [(usize, u64, usize); 4] =
        [(0, 4096, 0), (1, 4096, 0), (0, 4096, 0), (2, 1024, 1)];
    let mut rng = seed ^ 0x9ec;
    let count = (QEC_JOBS_PER_S * seconds).ceil() as usize;
    let jobs = (0..count)
        .map(|i| {
            let (c, shots, client) = PATTERN[i % PATTERN.len()];
            let mut job = make_job(&circuits, c, shots, job_seed(&mut rng), false);
            job.client = Some(client);
            job
        })
        .collect();
    // PATTERN[1..] holds each distinct circuit once.
    let warmup = PATTERN[1..]
        .iter()
        .map(|&(c, shots, _)| make_job(&circuits, c, shots, 1, false))
        .collect();
    Workload {
        name: "qec-stabilizer",
        circuits,
        warmup,
        phases: vec![Phase {
            name: "closed",
            pace: Pace::Clients(2),
            jobs,
        }],
    }
}

/// Builds a workload's job lists.
///
/// # Errors
///
/// An unknown workload name.
pub fn workload(name: &str, seed: u64, seconds: f64) -> Result<Workload, String> {
    match name {
        "serve-mix" => Ok(serve_mix(seed, seconds)),
        "compile-cold" => Ok(compile_cold(seed, seconds)),
        "sim-statevector" => Ok(sim_statevector(seed, seconds)),
        "sim-cold" => Ok(sim_cold(seed, seconds)),
        "qec-stabilizer" => Ok(qec_stabilizer(seed, seconds)),
        other => Err(format!("unknown workload {other:?} (one of {WORKLOADS:?})")),
    }
}
