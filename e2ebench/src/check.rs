//! Result parsing and engine-independent correctness checks.

use crate::gen::{Check, Job, Workload};
use cqasm::{Instruction, Program};
use openql::{Compiler, CompilerOptions, Platform};
use qca_core::QubitKind;
use qca_telemetry::json::{self, JsonValue};
use qxsim::state::{reference, StateVector};
use qxsim::{Simulator, SHOT_SEED_STRIDE};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// A parsed `result` response.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// `(bits, count)` pairs in increasing `bits` order.
    pub hist: Vec<(u64, u64)>,
    pub wait_us: f64,
    pub exec_us: f64,
    pub cache_hit: bool,
    pub shards: u64,
    pub engine: String,
    pub class: String,
}

/// Parses a `result` response; `Err` carries the service's error.
///
/// # Errors
///
/// A failed job or an unreadable response.
pub fn parse_outcome(line: &str) -> Result<Outcome, String> {
    let v = json::parse(line).map_err(|e| format!("unreadable result: {e}"))?;
    if v.get("ok") != Some(&JsonValue::Bool(true)) {
        return Err(format!("job failed: {line}"));
    }
    let num = |k: &str| v.get(k).and_then(JsonValue::as_f64).unwrap_or(0.0);
    let text = |k: &str| {
        v.get(k)
            .and_then(JsonValue::as_str)
            .unwrap_or("")
            .to_string()
    };
    let mut hist = Vec::new();
    if let Some(JsonValue::Object(map)) = v.get("histogram") {
        for (bits, count) in map {
            let bits: u64 = bits
                .parse()
                .map_err(|_| format!("bad histogram key {bits:?}"))?;
            hist.push((bits, count.as_f64().unwrap_or(0.0) as u64));
        }
    }
    hist.sort_unstable();
    Ok(Outcome {
        hist,
        wait_us: num("wait_us"),
        exec_us: num("exec_us"),
        cache_hit: v.get("cache_hit") == Some(&JsonValue::Bool(true)),
        shards: num("shards") as u64,
        engine: text("engine"),
        class: text("class"),
    })
}

/// FNV-1a over a sorted histogram: the determinism fingerprint.
pub fn digest(hist: &[(u64, u64)]) -> u64 {
    let mut h = qca_service::Fnv64::new();
    for (bits, count) in hist {
        h.write(&bits.to_le_bytes());
        h.write(&count.to_le_bytes());
    }
    h.finish()
}

/// Sorted `(bits, count)` pairs of a histogram.
pub fn pairs(hist: &qxsim::ShotHistogram) -> Vec<(u64, u64)> {
    let mut v: Vec<_> = hist.iter().collect();
    v.sort_unstable();
    v
}

fn shots_of(hist: &[(u64, u64)]) -> u64 {
    hist.iter().map(|(_, c)| c).sum()
}

/// Checks one job's histogram on its own. Pooled checks are
/// [`Pooled::finish`]'s.
pub fn check_job(
    w: &Workload,
    job: &Job,
    hist: &[(u64, u64)],
    references: &mut References,
) -> Result<(), String> {
    let c = &w.circuits[job.circuit];
    let shots = shots_of(hist);
    if shots != job.shots {
        return Err(format!(
            "{}: {shots} shots, {} requested",
            c.name, job.shots
        ));
    }
    match &c.check {
        Check::Oracle if job.oracle => {
            // The oracle runs the program the engines run: OpenQL's
            // scheduler may reorder measurements, which changes which
            // per-shot random draw each one takes.
            let expected = match references.oracle.entry((job.circuit, job.seed, job.shots)) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => {
                    let program = compiled(&c.source)?;
                    e.insert(pairs(&oracle_histogram(&program, job.shots, job.seed)))
                }
            };
            if expected != hist {
                return Err(format!(
                    "{} seed {}: differs from the oracle",
                    c.name, job.seed
                ));
            }
        }
        Check::Ghz { width } => {
            let all = (1u64 << width) - 1;
            if let Some((bits, _)) = hist.iter().find(|(b, _)| *b != 0 && *b != all) {
                return Err(format!("{}: shot {bits:#b} has unequal GHZ bits", c.name));
            }
        }
        Check::ZeroBits { mask } => {
            if let Some((bits, _)) = hist.iter().find(|(b, _)| b & mask != 0) {
                return Err(format!(
                    "{}: shot {bits:#b} has a Z-ancilla bit set",
                    c.name
                ));
            }
        }
        _ => {}
    }
    Ok(())
}

/// A circuit's reference probabilities and, for a sampled reference, its
/// shot count.
pub type Distribution = Result<(Vec<f64>, Option<u64>), String>;

/// References computed once per run and shared by its passes, which run
/// the same jobs.
#[derive(Default)]
pub struct References {
    /// Per circuit.
    pub distributions: BTreeMap<usize, Distribution>,
    /// Per (circuit, seed, shots): the oracle's histogram.
    pub oracle: BTreeMap<(usize, u64, u64), Vec<(u64, u64)>>,
}

/// Histograms pooled per circuit for the distribution checks.
#[derive(Default)]
pub struct Pooled {
    per_circuit: BTreeMap<usize, BTreeMap<u64, u64>>,
}

impl Pooled {
    /// Adds a job's histogram if its circuit is checked in distribution.
    pub fn add(&mut self, w: &Workload, job: &Job, hist: &[(u64, u64)]) {
        if matches!(
            w.circuits[job.circuit].check,
            Check::ExactTv | Check::DensityTv
        ) {
            let pool = self.per_circuit.entry(job.circuit).or_default();
            for (bits, count) in hist {
                *pool.entry(*bits).or_default() += count;
            }
        }
    }

    /// Runs the distribution checks. Returns one line per check and the
    /// failed circuits with what failed.
    pub fn finish(
        &self,
        w: &Workload,
        references: &mut References,
    ) -> (Vec<String>, Vec<(usize, String)>) {
        let mut lines = Vec::new();
        let mut failures = Vec::new();
        for (&ci, pool) in &self.per_circuit {
            let c = &w.circuits[ci];
            let reference = references
                .distributions
                .entry(ci)
                .or_insert_with(|| match c.check {
                    Check::ExactTv => exact_distribution(&c.source),
                    _ => density_distribution(&c.source),
                });
            let (p, ref_shots) = match reference {
                Ok(r) => r,
                Err(e) => {
                    failures.push((ci, format!("{}: reference failed: {e}", c.name)));
                    continue;
                }
            };
            let n: u64 = pool.values().sum();
            for (label, pass) in distribution_checks(pool, p, *ref_shots) {
                let line = format!("check {} ({label}, {n} shots)", c.name);
                if !pass {
                    failures.push((ci, format!("{line} FAILED")));
                }
                lines.push(line);
            }
        }
        (lines, failures)
    }
}

/// Exact outcome probabilities from the dense reference kernels.
pub fn exact_distribution(source: &str) -> Distribution {
    let program = Program::parse(source).map_err(|e| e.to_string())?;
    let mut state = StateVector::zero_state(program.qubit_count());
    for ins in program.flat_instructions() {
        match ins {
            _ if is_gate(ins) => apply_gates(&mut state, ins),
            Instruction::MeasureAll | Instruction::Wait(_) | Instruction::Display => {}
            other => return Err(format!("unexpected instruction {other:?}")),
        }
    }
    Ok((
        state.amplitudes().iter().map(|a| a.norm_sqr()).collect(),
        None,
    ))
}

/// The OpenQL output for a source, compiled as the service compiles it.
fn compiled(source: &str) -> Result<Program, String> {
    let program = Program::parse(source).map_err(|e| e.to_string())?;
    Compiler::with_options(
        Platform::perfect(program.qubit_count()),
        CompilerOptions::default(),
    )
    .compile_cqasm(&program)
    .map(|out| out.program)
    .map_err(|e| e.to_string())
}

/// Shots drawn from the density engine for a noisy reference.
const DENSITY_SHOTS: u64 = 1 << 22;

/// The density engine's distribution for the OpenQL-compiled program on
/// transmon qubits, estimated from [`DENSITY_SHOTS`] samples.
fn density_distribution(source: &str) -> Distribution {
    let program = compiled(source)?;
    let n = program.qubit_count();
    let sim = Simulator::with_model(QubitKind::real_transmon().to_model()).with_seed(0xde45);
    let plan = sim.compile(&program).map_err(|e| e.to_string())?;
    let hist = sim
        .run_density_planned(&plan, DENSITY_SHOTS)
        .map_err(|e| e.to_string())?;
    let mut p = vec![0.0; 1 << n];
    for (bits, count) in hist.iter() {
        p[bits as usize] = count as f64 / DENSITY_SHOTS as f64;
    }
    Ok((p, Some(DENSITY_SHOTS)))
}

fn push_forward(p: &[f64], map: impl Fn(u64) -> u64) -> BTreeMap<u64, f64> {
    let mut out = BTreeMap::new();
    for (bits, &pb) in p.iter().enumerate() {
        if pb > 0.0 {
            *out.entry(map(bits as u64)).or_insert(0.0) += pb;
        }
    }
    out
}

/// Total-variation distance between a pooled histogram and `p`, both
/// pushed through `map`.
fn tv(pool: &BTreeMap<u64, u64>, p: &[f64], map: impl Fn(u64) -> u64 + Copy) -> f64 {
    let n: u64 = pool.values().sum();
    let q = push_forward(p, map);
    let mut observed: BTreeMap<u64, f64> = BTreeMap::new();
    for (&bits, &count) in pool {
        *observed.entry(map(bits)).or_insert(0.0) += count as f64 / n as f64;
    }
    let mut sum = 0.0;
    for (k, &pk) in &q {
        sum += (observed.get(k).copied().unwrap_or(0.0) - pk).abs();
    }
    for (k, &ok) in &observed {
        if !q.contains_key(k) {
            sum += ok;
        }
    }
    0.5 * sum
}

/// Four times the expected sampling TV of `n` shots from `p` (and of the
/// reference's own shots, when it was sampled), plus a floor for
/// floating-point rounding.
fn tv_bound(p: &[f64], n: u64, ref_shots: Option<u64>, map: impl Fn(u64) -> u64) -> f64 {
    let q = push_forward(p, map);
    let spread = |shots: u64| {
        q.values()
            .map(|&pk| (pk * (1.0 - pk) / shots as f64).sqrt())
            .sum::<f64>()
    };
    2.0 * (spread(n) + ref_shots.map_or(0.0, spread)) + 1e-3
}

/// A full-distribution TV bound above this cannot tell a wrong histogram
/// from a right one; the check then looks at each half of the register.
const TV_RESOLVABLE: f64 = 0.5;

/// How many standard errors a Z expectation may stray.
const Z_SIGMAS: f64 = 6.0;

/// `<Z_i>` for every qubit and `<Z_i Z_j>` for every pair, under `weights`.
fn z_moments(n: usize, weights: impl Iterator<Item = (u64, f64)>) -> Vec<f64> {
    let pairs = n * (n - 1) / 2;
    let mut m = vec![0.0; n + pairs];
    let mut total = 0.0;
    for (bits, w) in weights {
        total += w;
        let z = |q: usize| if (bits >> q) & 1 == 1 { -1.0 } else { 1.0 };
        let mut k = n;
        for i in 0..n {
            m[i] += w * z(i);
            for j in i + 1..n {
                m[k] += w * z(i) * z(j);
                k += 1;
            }
        }
    }
    m.iter().map(|v| v / total.max(1e-300)).collect()
}

/// The distribution checks of one circuit's pooled histogram against its
/// reference probabilities `p`: a label per check and whether it passed.
///
/// - Total variation over the whole register when `n` shots can resolve
///   it, otherwise over its low and its high half, and over Hamming
///   weight. A check whose bound is 1 or more fails: total variation never
///   exceeds 1, so it could not fail otherwise.
/// - Every one-qubit `<Z>` and two-qubit `<ZZ>` expectation within
///   [`Z_SIGMAS`] standard errors. These see errors that keep the Hamming
///   weight, such as a permutation of qubits.
pub fn distribution_checks(
    pool: &BTreeMap<u64, u64>,
    p: &[f64],
    ref_shots: Option<u64>,
) -> Vec<(String, bool)> {
    let n: u64 = pool.values().sum();
    let qubits = p.len().trailing_zeros() as usize;
    let half = qubits / 2;
    let low = move |b: u64| b & ((1 << half) - 1);
    let high = move |b: u64| b >> half;
    let weight = |b: u64| u64::from(b.count_ones());
    let mut tvs: Vec<(&str, f64, f64)> = Vec::new();
    let full_bound = tv_bound(p, n, ref_shots, |b| b);
    if full_bound < TV_RESOLVABLE {
        tvs.push(("full distribution", tv(pool, p, |b| b), full_bound));
    } else {
        tvs.push(("low half", tv(pool, p, low), tv_bound(p, n, ref_shots, low)));
        tvs.push((
            "high half",
            tv(pool, p, high),
            tv_bound(p, n, ref_shots, high),
        ));
    }
    tvs.push((
        "Hamming weight",
        tv(pool, p, weight),
        tv_bound(p, n, ref_shots, weight),
    ));
    let mut out: Vec<(String, bool)> = tvs
        .into_iter()
        .map(|(label, tv, bound)| {
            (
                format!("{label}: TV {tv:.4} <= {bound:.4}"),
                tv <= bound && bound < 1.0,
            )
        })
        .collect();
    let expected = z_moments(qubits, p.iter().enumerate().map(|(b, &w)| (b as u64, w)));
    let observed = z_moments(qubits, pool.iter().map(|(&b, &c)| (b, c as f64)));
    let worst = expected
        .iter()
        .zip(&observed)
        .map(|(&e, &o)| {
            let var = (1.0 - e * e).max(0.0);
            let se = (var / n as f64 + ref_shots.map_or(0.0, |r| var / r as f64)).sqrt();
            (o - e).abs() / (se + 1e-9)
        })
        .fold(0.0, f64::max);
    out.push((
        format!(
            "{} one- and two-qubit Z expectations: worst {worst:.2} standard errors <= {Z_SIGMAS}",
            expected.len()
        ),
        worst <= Z_SIGMAS,
    ));
    out
}

/// `qca_core::conform::reference_histogram`, evolved once when every
/// measurement comes after the last gate. The oracle evolves each shot
/// from scratch, but the state before the first measurement is the same
/// in every shot, so each shot can start from a copy of it and take the
/// same random draws. That makes the oracle affordable at 18 qubits.
pub fn oracle_histogram(program: &Program, shots: u64, seed: u64) -> qxsim::ShotHistogram {
    let flat: Vec<&Instruction> = program.flat_instructions().collect();
    let split = flat.iter().position(|i| !is_gate(i)).unwrap_or(flat.len());
    let terminal = flat[split..].iter().all(|i| {
        matches!(
            i,
            Instruction::Measure(_)
                | Instruction::MeasureAll
                | Instruction::Wait(_)
                | Instruction::Display
        )
    });
    if !terminal {
        return qca_core::conform::reference_histogram(program, shots, seed);
    }
    let n = program.qubit_count();
    let mut prepared = StateVector::zero_state(n);
    for ins in &flat[..split] {
        apply_gates(&mut prepared, ins);
    }
    let mut hist = qxsim::ShotHistogram::new();
    for shot in 0..shots {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(shot.wrapping_mul(SHOT_SEED_STRIDE)));
        let mut state = prepared.clone();
        let mut bits = 0u64;
        for ins in &flat[split..] {
            match ins {
                Instruction::Measure(q) => {
                    let q = q.index();
                    bits = (bits & !(1 << q)) | (u64::from(state.measure(q, &mut rng)) << q);
                }
                Instruction::MeasureAll => bits = state.measure_all(&mut rng),
                _ => {}
            }
        }
        hist.record(bits);
    }
    hist
}

fn is_gate(ins: &Instruction) -> bool {
    match ins {
        Instruction::Gate(_) => true,
        Instruction::Bundle(inner) => inner.iter().all(is_gate),
        _ => false,
    }
}

fn apply_gates(state: &mut StateVector, ins: &Instruction) {
    match ins {
        Instruction::Gate(g) => {
            let idx: Vec<usize> = g.qubits.iter().map(|q| q.index()).collect();
            reference::apply_gate(state, &g.kind, &idx);
        }
        Instruction::Bundle(inner) => inner.iter().for_each(|i| apply_gates(state, i)),
        _ => {}
    }
}
