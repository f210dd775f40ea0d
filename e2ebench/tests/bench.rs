//! The benchmark's own tests. Run them with
//! `cargo test --release --manifest-path e2ebench/Cargo.toml`: the smoke
//! test simulates 18-qubit circuits.

use e2ebench::check::{distribution_checks, exact_distribution, oracle_histogram};
use e2ebench::gen::{workload, DECLARED_WORKLOADS, WORKLOADS};
use e2ebench::{run, Opts, END_TO_END, PER_LAYER, PRINTED_ONLY};
use qca_telemetry::json::{self, JsonValue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    json::parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn names(v: &JsonValue, key: &str) -> Vec<String> {
    match v.get(key) {
        Some(JsonValue::Array(items)) => items
            .iter()
            .map(|i| {
                i.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("")
                    .to_string()
            })
            .collect(),
        _ => panic!("BENCHMARK.json has no {key} list"),
    }
}

fn job_lines(name: &str, seed: u64) -> Vec<String> {
    let w = workload(name, seed, 0.5).expect("known workload");
    w.jobs().map(|j| j.line.to_string()).collect()
}

#[test]
fn job_lists_are_a_function_of_the_seed() {
    for name in WORKLOADS {
        let a = job_lines(name, 1);
        assert!(!a.is_empty(), "{name} has no jobs");
        assert_eq!(a, job_lines(name, 1), "{name}: same seed, different jobs");
        assert_ne!(a, job_lines(name, 2), "{name}: different seeds, same jobs");
    }
}

#[test]
fn names_are_well_formed() {
    let ok = |s: &str| {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let bench = benchmark_json();
    let mut all: Vec<String> = DECLARED_WORKLOADS
        .iter()
        .map(|s| (*s).to_string())
        .collect();
    all.extend(
        END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|s| (*s).to_string()),
    );
    for key in ["workloads", "end_to_end", "per_layer"] {
        all.extend(names(&bench, key));
    }
    for name in &all {
        assert!(ok(name), "{name:?} does not match [A-Za-z0-9_.-]+");
    }
    let unique: BTreeSet<&String> = all.iter().collect();
    assert_eq!(unique.len() * 2, all.len(), "a name is used twice");
}

#[test]
fn benchmark_json_declares_what_the_code_emits() {
    let bench = benchmark_json();
    assert_eq!(names(&bench, "workloads"), DECLARED_WORKLOADS);
    assert!(DECLARED_WORKLOADS.iter().all(|w| WORKLOADS.contains(w)));
    assert_eq!(names(&bench, "end_to_end"), END_TO_END);
    assert_eq!(names(&bench, "per_layer"), PER_LAYER);
}

#[test]
fn interaction_map_covers_every_per_layer_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/interaction_map.json");
    let map = json::parse(&std::fs::read_to_string(path).expect("readable")).expect("valid JSON");
    let Some(JsonValue::Array(rows)) = map.get("metrics") else {
        panic!("interaction map has no metrics list");
    };
    let strings = |row: &JsonValue, key: &str| -> BTreeSet<String> {
        match row.get(key) {
            Some(JsonValue::Array(v)) => v
                .iter()
                .filter_map(JsonValue::as_str)
                .map(String::from)
                .collect(),
            _ => panic!("row lacks {key}"),
        }
    };
    let mut covered = Vec::new();
    for row in rows {
        let metric = row
            .get("metric")
            .and_then(JsonValue::as_str)
            .expect("metric name");
        let on = strings(row, "on");
        let off = strings(row, "no_change_on");
        assert!(
            on.is_disjoint(&off),
            "{metric}: a workload is both on and off"
        );
        let both: BTreeSet<String> = on.union(&off).cloned().collect();
        let all: BTreeSet<String> = WORKLOADS.iter().map(|s| (*s).to_string()).collect();
        assert_eq!(both, all, "{metric}: every workload needs a prediction");
        for m in strings(row, "moves") {
            assert!(
                END_TO_END.contains(&m.as_str()) || PRINTED_ONLY.contains(&m.as_str()),
                "{metric} moves unknown {m}"
            );
        }
        covered.push(metric.to_string());
    }
    assert_eq!(covered, PER_LAYER);
}

/// `shots` outcomes drawn from `p`.
fn sample(p: &[f64], shots: u64, seed: u64) -> BTreeMap<u64, u64> {
    let cumulative: Vec<f64> = p
        .iter()
        .scan(0.0, |acc, x| {
            *acc += x;
            Some(*acc)
        })
        .collect();
    let total = cumulative[cumulative.len() - 1];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = BTreeMap::new();
    for _ in 0..shots {
        let u = rng.gen::<f64>() * total;
        let bits = cumulative.partition_point(|&c| c <= u).min(p.len() - 1);
        *out.entry(bits as u64).or_insert(0) += 1;
    }
    out
}

/// Each distribution check passes on a right histogram, and each one fails
/// on a histogram with a qubit flipped or two qubits swapped, where that
/// error is visible to it (a swap keeps the Hamming weight).
#[test]
fn distribution_checks_reject_flipped_and_swapped_qubits() {
    let w = workload("sim-statevector", 1, 0.5).expect("known workload");
    for name in ["qpe-16", "qaoa-16"] {
        let c = w.circuits.iter().find(|c| c.name == name).expect(name);
        let (p, _) = exact_distribution(&c.source).expect("reference");
        let right = sample(&p, 90_000, 7);
        let checks = distribution_checks(&right, &p, None);
        assert!(checks.iter().all(|(_, ok)| *ok), "{name}: {checks:?}");
        let kind = |label: &str| label.split(':').next().unwrap_or("").to_string();
        let mut rejected: BTreeSet<String> = BTreeSet::new();
        let flip = |b: u64| b ^ 1;
        let swap = |b: u64| {
            let (b0, b12) = (b & 1, (b >> 12) & 1);
            (b & !(1 | 1 << 12)) | b12 | b0 << 12
        };
        for (error, map) in [("flip", &flip as &dyn Fn(u64) -> u64), ("swap", &swap)] {
            let mut wrong = BTreeMap::new();
            for (&bits, &count) in &right {
                *wrong.entry(map(bits)).or_insert(0) += count;
            }
            let checks = distribution_checks(&wrong, &p, None);
            assert!(
                checks.iter().any(|(_, ok)| !ok),
                "{name}: a {error} passes every check: {checks:?}"
            );
            rejected.extend(checks.iter().filter(|(_, ok)| !ok).map(|(l, _)| kind(l)));
        }
        let all: BTreeSet<String> = checks.iter().map(|(l, _)| kind(l)).collect();
        assert_eq!(rejected, all, "{name}: a check never fails");
    }
}

/// The evolve-once oracle equals the per-shot oracle on a circuit whose
/// measurements all come last.
#[test]
fn evolve_once_oracle_matches_the_oracle() {
    let w = workload("compile-cold", 1, 0.5).expect("known workload");
    let program = cqasm::Program::parse(&w.circuits[0].source).expect("parses");
    assert_eq!(
        oracle_histogram(&program, 64, 99),
        qca_core::conform::reference_histogram(&program, 64, 99)
    );
}

/// Smoke mode: every workload once, briefly, untraced and traced; every
/// declared metric is emitted and every result is correct.
#[test]
fn smoke_every_workload_emits_every_metric() {
    // The traced run writes its span file under the working directory.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("e2ebench-smoke");
    std::fs::create_dir_all(&dir).expect("temporary dir");
    std::env::set_current_dir(&dir).expect("cd temporary dir");
    for name in WORKLOADS {
        for (trace, declared) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let report = run(&Opts {
                workload: name.to_string(),
                seed: 3,
                seconds: 0.2,
                trace,
            })
            .unwrap_or_else(|e| panic!("{name} trace {trace}: {e}"));
            assert!(report.correct, "{name} trace {trace}: {:?}", report.lines);
            assert!(report.attempted >= 1);
            let emitted: Vec<&str> = report.declared().iter().map(|m| m.name).collect();
            assert_eq!(emitted, declared, "{name} trace {trace}");
            for m in &report.metrics {
                assert!(
                    declared.contains(&m.name) || PRINTED_ONLY.contains(&m.name),
                    "{name} trace {trace}: undeclared metric {}",
                    m.name
                );
            }
            if !trace {
                assert!(report.metrics.iter().any(|m| m.name == "job_tail_us"));
            }
        }
    }
}
