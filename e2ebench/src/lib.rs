//! End-to-end benchmark of the served cQASM-to-histogram path.
//!
//! `e2ebench --workload NAME --seed N --seconds S --trace 0|1` self-hosts
//! `qca-service` as `qca-serve` runs it by default, drives it over
//! loopback TCP with the wire protocol, checks every result, and prints
//! each metric with its unit and sample count. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics `BENCHMARK.json` declares with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Metrics it does not
//! declare are printed above that line.
//!
//! The traced run (`--trace 1`) runs the workload three times through the
//! service (as `qca-serve` runs by default, with telemetry off, and
//! reading each job's `trace` record), replays the jobs in-process through
//! each layer's public calls, writes the spans as a Chrome trace under
//! `.bench_out/`, and prints a self-time table per layer with the residual
//! and the telemetry and tracing overheads.

pub mod check;
pub mod drive;
pub mod gen;
pub mod replay;
pub mod report;

use check::{check_job, digest, parse_outcome, Outcome, Pooled};
use drive::{PhaseRun, Seen};
use gen::{Pace, Workload};
use qca_telemetry::json::{self, JsonValue};
use replay::{Span, Tracer};
use report::{median, median_tail, Metric};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// An open-loop phase whose generator ran later than this at its tail
/// percentile is marked invalid.
pub const LAG_LIMIT_US: f64 = 2_000.0;

/// A closed loop stops taking jobs after this many times the seconds its
/// job list was made for, so a run ends in bounded time on a slow host.
pub const CAP: f64 = 2.0;
/// The traced run's replay stops after this many times its job list's
/// seconds.
pub const REPLAY_CAP: f64 = 1.5;
/// A traced run's job list is that of a run this share of `--seconds`
/// long.
pub const TRACE_SHARE: f64 = 0.5;

/// The span file holds the spans of this many jobs per pass; the tables
/// use every span.
pub const TRACE_FILE_JOBS: u64 = 5_000;

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// A finished run.
#[derive(Debug)]
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

/// The end-to-end metric names, as `BENCHMARK.json` declares them.
pub const END_TO_END: [&str; 4] = ["setup_s", "jobs_per_s", "job_p50_us", "peak_rss_mib"];

/// End-to-end metrics every run prints but `BENCHMARK.json` does not
/// declare: on a shared two-vCPU host their run-to-run spread exceeds the
/// largest bound a metric may have. Only an open loop reports the
/// `loaded` pair.
pub const PRINTED_ONLY: [&str; 3] = ["job_tail_us", "loaded_p50_us", "loaded_tail_us"];

/// The per-layer metric names, as `BENCHMARK.json` declares them.
pub const PER_LAYER: [&str; 25] = [
    "wire.submit_rtt_p50_us",
    "wire.submit_rtt_tail_us",
    "wire.decode_us",
    "wire.result_bytes",
    "service.submit_us",
    "service.queue_wait_p50_us",
    "service.queue_wait_tail_us",
    "service.exec_us",
    "service.unattributed_us",
    "service.unattributed_share",
    "service.cache_hit_ratio",
    "service.shards_per_job",
    "cqasm.parse_us",
    "cqasm.canonicalise_us",
    "openql.compile_us",
    "openql.gates_out_per_in",
    "qxsim.plan_us",
    "qxsim.fused_per_gate",
    "qxsim.evolve_us",
    "qxsim.evolutions_per_job",
    "qxsim.shot_us.state_vector",
    "qxsim.shot_us.tableau",
    "qxsim.shot_us.pauli_frame",
    "telemetry.overhead_ratio",
    "gen.lag_tail_us",
];

/// One pass over the workload through the service, checked.
struct Pass {
    phases: Vec<PhaseRun>,
    /// Per job run, in phase order then job order: its index in the
    /// workload's whole job list and its parsed outcome (`None`: refused,
    /// failed or wrong).
    outcomes: Vec<(usize, Option<Outcome>)>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    check_lines: Vec<String>,
}

fn evaluate(w: &Workload, phases: Vec<PhaseRun>, references: &mut check::References) -> Pass {
    let mut outcomes = Vec::new();
    let mut circuits = Vec::new();
    let mut failures = Vec::new();
    let mut pooled = Pooled::default();
    let mut offset = 0;
    for (phase, run) in w.phases.iter().zip(&phases) {
        for seen in &run.seen {
            let job = &phase.jobs[seen.index];
            let outcome = match parse_outcome(&seen.response) {
                Ok(o) => match check_job(w, job, &o.hist, references) {
                    Ok(()) => {
                        pooled.add(w, job, &o.hist);
                        Some(o)
                    }
                    Err(e) => {
                        failures.push(e);
                        None
                    }
                },
                Err(e) => {
                    failures.push(e);
                    None
                }
            };
            outcomes.push((offset + seen.index, outcome));
            circuits.push(job.circuit);
        }
        offset += phase.jobs.len();
    }
    let (check_lines, wrong_circuits) = pooled.finish(w, references);
    let failed = circuits
        .iter()
        .zip(&outcomes)
        .filter(|(c, (_, o))| o.is_none() || wrong_circuits.iter().any(|(w, _)| w == *c))
        .count() as u64;
    failures.extend(wrong_circuits.into_iter().map(|(_, f)| f));
    let attempted = outcomes.len() as u64;
    Pass {
        phases,
        outcomes,
        attempted,
        failed,
        failures,
        check_lines,
    }
}

/// One window of a phase kind: its latency samples and completion rate.
struct Window {
    e2e: Vec<f64>,
    jobs_per_s: f64,
}

fn done(run: &PhaseRun) -> Vec<&Seen> {
    run.seen.iter().filter(|s| s.id.is_some()).collect()
}

/// The windows of one phase kind. Each round of an interleaved open loop
/// is one window; a closed loop's single phase is split into consecutive
/// windows of jobs, its rate taken over the same counts of arrivals.
fn windows(pass: &Pass, kind: &str) -> Vec<Window> {
    let runs: Vec<&PhaseRun> = pass.phases.iter().filter(|p| p.name == kind).collect();
    if let [run] = runs[..] {
        let done = done(run);
        if done.is_empty() {
            return Vec::new();
        }
        let mut arrivals: Vec<f64> = done.iter().map(|s| s.due_us + s.e2e_us).collect();
        arrivals.sort_by(f64::total_cmp);
        return report::split(done.len())
            .into_iter()
            .map(|(lo, hi)| {
                let from = if lo == 0 { 0.0 } else { arrivals[lo - 1] };
                Window {
                    e2e: done[lo..hi].iter().map(|s| s.e2e_us).collect(),
                    jobs_per_s: (hi - lo) as f64 / ((arrivals[hi - 1] - from) * 1e-6).max(1e-9),
                }
            })
            .collect();
    }
    runs.iter()
        .map(|run| {
            let done = done(run);
            Window {
                e2e: done.iter().map(|s| s.e2e_us).collect(),
                jobs_per_s: done.len() as f64 / run.elapsed_s.max(1e-9),
            }
        })
        .collect()
}

/// The phase kind that measures throughput: the burst of an open loop,
/// the whole list of a closed one.
fn throughput_kind(w: &Workload) -> &'static str {
    w.phases
        .iter()
        .find(|p| matches!(p.pace, Pace::Window(_) | Pace::Clients(_)))
        .map_or("closed", |p| p.name)
}

/// Throughput of a pass: the middle of its throughput windows' rates.
fn pass_jobs_per_s(w: &Workload, pass: &Pass) -> (f64, usize) {
    let ws = windows(pass, throughput_kind(w));
    let jobs = ws.iter().map(|w| w.e2e.len()).sum();
    (
        report::mid(&ws.iter().map(|w| w.jobs_per_s).collect::<Vec<_>>()),
        jobs,
    )
}

fn latency_metrics(
    name_p50: &'static str,
    name_tail: &'static str,
    pass: &Pass,
    kind: &str,
) -> [Metric; 2] {
    let ws: Vec<Vec<f64>> = windows(pass, kind).into_iter().map(|w| w.e2e).collect();
    let n = ws.iter().map(Vec::len).sum();
    let k = ws.len();
    let (p50, tail, p, per_window) = report::window_latency(&ws);
    let (p50_note, tail_note) = if per_window {
        (
            format!("middle of {k} window medians, phase {kind}"),
            format!("middle of {k} window p{p}s, phase {kind}"),
        )
    } else {
        (format!("p50, phase {kind}"), format!("p{p}, phase {kind}"))
    };
    [
        Metric::new(name_p50, p50, "us", n).note(p50_note),
        Metric::new(name_tail, tail, "us", n).note(tail_note),
    ]
}

fn generator_lines(w: &Workload, pass: &Pass, lines: &mut Vec<String>) {
    let mut kinds: Vec<(&str, Pace)> = Vec::new();
    for p in &w.phases {
        if !kinds.iter().any(|(k, _)| *k == p.name) {
            kinds.push((p.name, p.pace));
        }
    }
    for (kind, pace) in kinds {
        let runs: Vec<&PhaseRun> = pass.phases.iter().filter(|p| p.name == kind).collect();
        let jobs: usize = runs.iter().map(|r| r.seen.len()).sum();
        let listed: usize = w
            .phases
            .iter()
            .filter(|p| p.name == kind)
            .map(|p| p.jobs.len())
            .sum();
        let secs: f64 = runs.iter().map(|r| r.elapsed_s).sum();
        let lag: Vec<f64> = runs
            .iter()
            .flat_map(|r| r.seen.iter().map(|s| s.lag_us))
            .collect();
        let (_, lag_tail, p) = median_tail(&lag);
        let verdict = match pace {
            Pace::Rate(_) if lag_tail > LAG_LIMIT_US => "INVALID: generator ran late",
            Pace::Rate(_) => "valid",
            _ => "closed or windowed: lag is client time between jobs",
        };
        lines.push(format!(
            "phase {kind} ({} rounds): {jobs} of {listed} jobs in {secs:.3} s, generator lag p{p} {lag_tail:.1} us (limit {LAG_LIMIT_US} us): {verdict}",
            runs.len()
        ));
    }
}

/// Median latency per circuit, for workloads with few distinct circuits.
fn circuit_lines(w: &Workload, pass: &Pass, lines: &mut Vec<String>) {
    if w.circuits.len() > 16 {
        return;
    }
    let mut per: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (phase, run) in w.phases.iter().zip(&pass.phases) {
        for s in done(run) {
            per.entry(phase.jobs[s.index].circuit)
                .or_default()
                .push(s.e2e_us);
        }
    }
    for (c, e2e) in per {
        lines.push(format!(
            "latency of {}: p50 {:.0} us over {} jobs",
            w.circuits[c].name,
            median(&e2e),
            e2e.len()
        ));
    }
}

fn end_to_end(w: &Workload, setups: &[f64], pass: &Pass, rss: f64) -> Vec<Metric> {
    let mut metrics = vec![Metric::new("setup_s", median(setups), "s", setups.len())
        .note("median of set-ups: service start, TCP bind, warm-up pass")];
    let (jobs_per_s, n) = pass_jobs_per_s(w, pass);
    metrics.push(
        Metric::new("jobs_per_s", jobs_per_s, "1/s", n).note(format!(
            "middle of {} window rates, phase {}",
            windows(pass, throughput_kind(w)).len(),
            throughput_kind(w)
        )),
    );
    let open = !matches!(w.phases[0].pace, Pace::Clients(_));
    let light = if open { "light" } else { w.phases[0].name };
    metrics.extend(latency_metrics("job_p50_us", "job_tail_us", pass, light));
    if open {
        metrics.extend(latency_metrics(
            "loaded_p50_us",
            "loaded_tail_us",
            pass,
            "loaded",
        ));
    }
    metrics.push(Metric::new("peak_rss_mib", rss, "MiB", 1).note("VmHWM after the measured pass"));
    metrics
}

fn stats_delta(run: &PhaseRun) -> (f64, f64) {
    let hits_misses = |line: &str| -> (f64, f64) {
        let v = json::parse(line).unwrap_or(JsonValue::Null);
        let cache = v.get("cache");
        let get = |k: &str| {
            cache
                .and_then(|c| c.get(k))
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        };
        (get("hits"), get("misses"))
    };
    let (h0, m0) = hits_misses(&run.stats_before);
    let (h1, m1) = hits_misses(&run.stats_after);
    (h1 - h0, m1 - m0)
}

/// Converts a traced pass into client and service spans on the host
/// epoch's timeline.
fn service_spans(pass: &Pass, host_epoch: Instant, tracer: &mut Tracer) {
    let mut j = 0u64;
    for run in &pass.phases {
        let offset = (run.start - host_epoch).as_secs_f64() * 1e6;
        for s in &run.seen {
            let job = j;
            let root = tracer.push(Span {
                name: "client.job",
                start_us: offset + s.due_us,
                dur_us: s.e2e_us,
                parent: None,
                job,
                pid: 1,
            });
            tracer.push(Span {
                name: "client.submit_rtt",
                start_us: offset + s.sent_us,
                dur_us: s.submit_rtt_us,
                parent: Some(root),
                job,
                pid: 1,
            });
            if let Some(v) = s.trace.as_deref().and_then(|t| json::parse(t).ok()) {
                let at = |k: &str| v.get(k).and_then(JsonValue::as_f64);
                if let (Some(admit), Some(claim), Some(exec), Some(settle)) = (
                    at("admit_us"),
                    at("claim_us"),
                    at("exec_start_us"),
                    at("settle_us"),
                ) {
                    let sjob = tracer.push(Span {
                        name: "service.job",
                        start_us: admit,
                        dur_us: settle - admit,
                        parent: None,
                        job,
                        pid: 2,
                    });
                    tracer.push(Span {
                        name: "service.queue_wait",
                        start_us: admit,
                        dur_us: claim - admit,
                        parent: Some(sjob),
                        job,
                        pid: 2,
                    });
                    if let Some(c) = at("compile_us") {
                        tracer.push(Span {
                            name: "service.compile",
                            start_us: claim,
                            dur_us: c,
                            parent: Some(sjob),
                            job,
                            pid: 2,
                        });
                    }
                    tracer.push(Span {
                        name: "service.execute",
                        start_us: exec,
                        dur_us: settle - exec,
                        parent: Some(sjob),
                        job,
                        pid: 2,
                    });
                }
            }
            j += 1;
        }
    }
}

/// The per-layer metrics from the three passes of a traced run: as
/// `qca-serve` runs by default, with telemetry off, and traced.
fn per_layer(
    w: &Workload,
    [untraced, quiet, traced]: [&Pass; 3],
    tracer: &Tracer,
    counts: &replay::ReplayCounts,
    lines: &mut Vec<String>,
) -> Vec<Metric> {
    let mut m = Vec::new();
    // Latency is broken down over the phases that report latency: the
    // burst phase of an open loop measures throughput only.
    let seen: Vec<(&Seen, &Outcome)> = traced
        .phases
        .iter()
        .flat_map(|p| p.seen.iter().map(move |s| (p.pace, s)))
        .zip(&traced.outcomes)
        .filter(|((pace, _), _)| !matches!(pace, Pace::Window(_)))
        .filter_map(|((_, s), (_, o))| o.as_ref().map(|o| (s, o)))
        .collect();
    let n = seen.len();
    let rtt: Vec<f64> = seen.iter().map(|(s, _)| s.submit_rtt_us).collect();
    let (rtt50, rtt_tail, p) = median_tail(&rtt);
    m.push(Metric::new("wire.submit_rtt_p50_us", rtt50, "us", n));
    m.push(Metric::new("wire.submit_rtt_tail_us", rtt_tail, "us", n).note(format!("p{p}")));
    let span_median = |name: &str| {
        let d = tracer.durations(name);
        (median(&d), d.len())
    };
    let (v, k) = span_median("wire.decode");
    m.push(Metric::new("wire.decode_us", v, "us", k).note("wire::parse_request, replay"));
    let bytes: f64 = seen
        .iter()
        .map(|(s, _)| s.response.len() as f64)
        .sum::<f64>()
        / n.max(1) as f64;
    m.push(Metric::new("wire.result_bytes", bytes, "B", n).note("mean result line"));
    let (v, k) = span_median("service.submit");
    m.push(Metric::new("service.submit_us", v, "us", k).note("ServiceHandle::submit, replay"));
    let wait: Vec<f64> = seen.iter().map(|(_, o)| o.wait_us).collect();
    let (w50, w_tail, p) = median_tail(&wait);
    m.push(Metric::new("service.queue_wait_p50_us", w50, "us", n));
    m.push(Metric::new("service.queue_wait_tail_us", w_tail, "us", n).note(format!("p{p}")));
    let exec: Vec<f64> = seen.iter().map(|(_, o)| o.exec_us).collect();
    m.push(
        Metric::new("service.exec_us", median(&exec), "us", n).note("p50 of JobOutcome::exec_us"),
    );
    let e2e: Vec<f64> = seen.iter().map(|(s, _)| s.e2e_us).collect();
    let unattributed: Vec<f64> = seen
        .iter()
        .map(|(s, o)| s.e2e_us - s.submit_rtt_us - o.wait_us - o.exec_us)
        .collect();
    let un50 = median(&unattributed);
    let e2e50 = median(&e2e);
    m.push(
        Metric::new("service.unattributed_us", un50, "us", n)
            .note("p50 of e2e - submit RTT - wait - exec"),
    );
    m.push(
        Metric::new(
            "service.unattributed_share",
            un50 / e2e50.max(1e-9),
            "ratio",
            n,
        )
        .note("p50 unattributed / p50 e2e"),
    );
    let (hits, misses) = traced
        .phases
        .iter()
        .map(stats_delta)
        .fold((0.0, 0.0), |a, b| (a.0 + b.0, a.1 + b.1));
    m.push(
        Metric::new(
            "service.cache_hit_ratio",
            hits / (hits + misses).max(1.0),
            "ratio",
            (hits + misses) as usize,
        )
        .note("stats verb delta over the traced pass"),
    );
    let shards = seen.iter().map(|(_, o)| o.shards as f64).sum::<f64>() / n.max(1) as f64;
    m.push(Metric::new("service.shards_per_job", shards, "count", n));
    for (metric, span, note) in [
        ("cqasm.parse_us", "cqasm.parse", "Program::parse"),
        (
            "cqasm.canonicalise_us",
            "cqasm.canonicalise",
            "Program::to_string",
        ),
        (
            "openql.compile_us",
            "openql.compile",
            "Compiler::compile_cqasm, misses only",
        ),
    ] {
        let (v, k) = span_median(span);
        m.push(Metric::new(metric, v, "us", k).note(note));
    }
    m.push(Metric::new(
        "openql.gates_out_per_in",
        counts.gates_out as f64 / counts.gates_in.max(1) as f64,
        "ratio",
        counts.compiles,
    ));
    let (v, k) = span_median("qxsim.plan");
    m.push(Metric::new("qxsim.plan_us", v, "us", k).note("Simulator::compile, misses only"));
    let fused = if counts.fused_before == 0 {
        1.0
    } else {
        counts.fused_after as f64 / counts.fused_before as f64
    };
    m.push(
        Metric::new("qxsim.fused_per_gate", fused, "ratio", counts.compiles)
            .note("1 when no plan was fused"),
    );
    let evolve = tracer.durations("qxsim.evolve");
    m.push(
        Metric::new("qxsim.evolve_us", mean(&evolve), "us", evolve.len())
            .note("mean one-shot run_shot_range, state-vector jobs"),
    );
    let evo = &counts.evolutions;
    m.push(Metric::new(
        "qxsim.evolutions_per_job",
        mean(evo),
        "count",
        evo.len(),
    ));
    for (metric, engine) in [
        ("qxsim.shot_us.state_vector", "state_vector"),
        ("qxsim.shot_us.tableau", "tableau"),
        ("qxsim.shot_us.pauli_frame", "pauli_frame"),
    ] {
        let (shots, us) = counts.per_engine.get(engine).copied().unwrap_or((0, 0.0));
        m.push(
            Metric::new(metric, us / shots.max(1) as f64, "us", shots as usize).note(
                if shots == 0 {
                    "no jobs on this engine: 0"
                } else {
                    "run_shot_range time / shots"
                },
            ),
        );
    }
    let (default_rate, _) = pass_jobs_per_s(w, untraced);
    let (quiet_rate, _) = pass_jobs_per_s(w, quiet);
    let overhead = quiet_rate / default_rate.max(1e-9);
    m.push(
        Metric::new("telemetry.overhead_ratio", overhead, "ratio", 2).note(format!(
            "telemetry off {quiet_rate:.1} / default {default_rate:.1} jobs/s"
        )),
    );
    // Generator lag of the open-loop phases; a closed loop has none, so
    // there it is the client's own time between a result and the next
    // submit.
    let open = untraced
        .phases
        .iter()
        .any(|p| matches!(p.pace, Pace::Rate(_)));
    let lag: Vec<f64> = untraced
        .phases
        .iter()
        .filter(|p| !open || matches!(p.pace, Pace::Rate(_)))
        .flat_map(|p| p.seen.iter().map(|s| s.lag_us))
        .collect();
    let (_, lag_tail, p) = median_tail(&lag);
    m.push(
        Metric::new("gen.lag_tail_us", lag_tail, "us", lag.len())
            .note(format!("p{p}, untraced pass")),
    );

    // Self-time tables.
    lines.push("client view of the traced pass, latency phases (sums over jobs):".to_string());
    let total: f64 = e2e.iter().sum();
    let rows = [
        ("wire.submit_rtt", rtt.iter().sum::<f64>()),
        ("service.queue_wait", wait.iter().sum::<f64>()),
        ("service.exec", exec.iter().sum::<f64>()),
        ("residual (unattributed)", unattributed.iter().sum::<f64>()),
    ];
    for (name, us) in rows {
        lines.push(format!(
            "  {name:<28} {us:>14.1} us {:>6.1}%",
            100.0 * us / total.max(1e-9)
        ));
    }
    lines.push(format!("  {:<28} {total:>14.1} us", "client e2e"));
    lines.push("replay self time per layer (benchmark thread):".to_string());
    let selfs = tracer.self_times(3);
    let replay_total: f64 = tracer
        .spans
        .iter()
        .filter(|s| s.pid == 3 && s.parent.is_none())
        .map(|s| s.dur_us)
        .sum();
    for (name, (count, us)) in &selfs {
        let label = if *name == "job" {
            "residual (job self time)"
        } else {
            name
        };
        lines.push(format!(
            "  {label:<28} {count:>7} spans {us:>14.1} us {:>6.1}%",
            100.0 * us / replay_total.max(1e-9)
        ));
    }
    let (traced_rate, _) = pass_jobs_per_s(w, traced);
    lines.push(format!(
        "telemetry overhead: {quiet_rate:.2} jobs/s with telemetry off, {default_rate:.2} jobs/s as qca-serve runs by default, ratio {overhead:.4}"
    ));
    lines.push(format!(
        "tracing overhead: {traced_rate:.2} jobs/s when the client reads every job's trace record, ratio {:.4} to the default; one benchmark span costs {:.3} us to record",
        default_rate / traced_rate.max(1e-9),
        replay::span_cost_us()
    ));
    m
}

fn mean(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |a, v| a + v) / values.len().max(1) as f64
}

/// Histogram digest per job run, by index in the whole job list.
fn digests_of(pass: &Pass) -> BTreeMap<usize, Option<u64>> {
    pass.outcomes
        .iter()
        .map(|(j, o)| (*j, o.as_ref().map(|o| digest(&o.hist))))
        .collect()
}

/// Runs one workload as the options say.
///
/// # Errors
///
/// Set-up and wire failures (wrong results are reported, not errors).
pub fn run(opts: &Opts) -> Result<RunReport, String> {
    // A traced run makes three passes and a replay, so each covers a job
    // list for a share of `--seconds`.
    let seconds = if opts.trace {
        TRACE_SHARE * opts.seconds
    } else {
        opts.seconds
    };
    let w = gen::workload(&opts.workload, opts.seed, seconds)?;
    let cap = Duration::from_secs_f64(CAP * seconds);
    let mut lines = vec![
        report::host_fingerprint(),
        format!(
            "workload {} seed {} seconds {} trace {}: {} jobs, {} distinct circuits",
            w.name,
            opts.seed,
            opts.seconds,
            u8::from(opts.trace),
            w.jobs().count(),
            w.circuits.len()
        ),
    ];
    if !opts.trace {
        let mut setups = Vec::new();
        let mut host = None;
        for _ in 0..SETUPS {
            let (h, s) = drive::set_up(&w, true)?;
            setups.push(s);
            if let Some(old) = host.replace(h) {
                drive::Host::stop(old);
            }
        }
        let host = host.ok_or("no set-up ran")?;
        let phases = drive::run_phases(&host, &w, false, cap);
        let rss = report::peak_rss_mib();
        host.stop();
        let pass = evaluate(&w, phases?, &mut check::References::default());
        generator_lines(&w, &pass, &mut lines);
        circuit_lines(&w, &pass, &mut lines);
        lines.extend(pass.check_lines.iter().cloned());
        lines.extend(pass.failures.iter().map(|f| format!("WRONG: {f}")));
        let fail_ratio = pass.failed as f64 / pass.attempted.max(1) as f64;
        lines.push(format!(
            "fail_ratio = {fail_ratio} ({} of {} jobs)",
            pass.failed, pass.attempted
        ));
        let ws = windows(&pass, throughput_kind(&w));
        lines.push(format!(
            "windows of phase {}: rates {:.2?} 1/s, medians {:.0?} us",
            throughput_kind(&w),
            ws.iter().map(|w| w.jobs_per_s).collect::<Vec<_>>(),
            ws.iter().map(|w| median(&w.e2e)).collect::<Vec<_>>()
        ));
        let metrics = end_to_end(&w, &setups, &pass, rss);
        return Ok(RunReport {
            correct: pass.failures.is_empty(),
            attempted: pass.attempted,
            failed: pass.failed,
            metrics,
            lines,
        });
    }

    // Three passes through the service: as `qca-serve` runs by default,
    // the same with telemetry off, and reading each job's `trace` record.
    let mut references = check::References::default();
    let mut pass = |telemetry: bool, traced: bool| -> Result<(Pass, Instant), String> {
        let (host, _) = drive::set_up(&w, telemetry)?;
        let epoch = host.epoch;
        let phases = drive::run_phases(&host, &w, traced, cap);
        host.stop();
        Ok((evaluate(&w, phases?, &mut references), epoch))
    };
    let (untraced, _) = pass(true, false)?;
    let (quiet, _) = pass(false, false)?;
    let (traced, host_epoch) = pass(true, true)?;
    generator_lines(&w, &untraced, &mut lines);
    let shards: BTreeMap<usize, u64> = traced
        .outcomes
        .iter()
        .filter_map(|(j, o)| o.as_ref().map(|o| (*j, o.shards)))
        .collect();
    let mut tracer = Tracer::new(Instant::now());
    let counts = replay::replay(
        &w,
        &shards,
        &mut tracer,
        Duration::from_secs_f64(REPLAY_CAP * seconds),
    )?;
    let mut service_tracer = Tracer::new(host_epoch);
    service_spans(&traced, host_epoch, &mut service_tracer);

    let mut failures: Vec<String> = [&untraced, &quiet, &traced]
        .iter()
        .flat_map(|p| p.failures.iter().cloned())
        .collect();
    let (du, dt) = (digests_of(&untraced), digests_of(&traced));
    let mut compared = 0u64;
    let mut mismatched = 0u64;
    for (j, u) in &du {
        let (Some(t), Some(r), Some(s)) = (
            dt.get(j),
            counts.digests.get(j),
            counts.service_digests.get(j),
        ) else {
            continue;
        };
        compared += 1;
        if *u != Some(*r) || *t != Some(*r) || s != r {
            mismatched += 1;
            if mismatched <= 5 {
                failures.push(format!(
                    "job {j}: histogram digests differ (untraced {u:?}, traced {t:?}, replay {r}, in-process service {s})"
                ));
            }
        }
    }
    lines.push(format!(
        "determinism: {compared} jobs run in every pass (the replay stops after {REPLAY_CAP} x {seconds} s); digests equal across untraced, traced, replay and in-process service runs on {} of them",
        compared - mismatched
    ));
    lines.extend(traced.check_lines.iter().cloned());
    let mut served: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
    for (_, o) in &traced.outcomes {
        let Some(o) = o else { continue };
        let e = served
            .entry((o.engine.clone(), o.class.clone()))
            .or_default();
        e.0 += 1;
        e.1 += usize::from(o.cache_hit);
    }
    for ((engine, class), (jobs, hits)) in &served {
        lines.push(format!(
            "served by {engine} ({class} circuits): {jobs} jobs, {hits} plan-cache hits"
        ));
    }
    let metrics = per_layer(
        &w,
        [&untraced, &quiet, &traced],
        &tracer,
        &counts,
        &mut lines,
    );

    let mut all = service_tracer;
    all.spans.extend(tracer.spans);
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("{}-seed{}.trace.json", w.name, opts.seed));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, all.chrome_trace(TRACE_FILE_JOBS)))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    lines.push(format!(
        "spans: {} recorded; those of the first {TRACE_FILE_JOBS} jobs written to {}",
        all.spans.len(),
        path.display()
    ));
    lines.extend(failures.iter().map(|f| format!("WRONG: {f}")));
    let attempted = untraced.attempted + quiet.attempted + traced.attempted;
    let failed = untraced.failed + quiet.failed + traced.failed + mismatched;
    Ok(RunReport {
        correct: failures.is_empty(),
        attempted,
        failed,
        metrics,
        lines,
    })
}

impl RunReport {
    /// The metrics `BENCHMARK.json` declares, for the result line.
    pub fn declared(&self) -> Vec<Metric> {
        self.metrics
            .iter()
            .filter(|m| END_TO_END.contains(&m.name) || PER_LAYER.contains(&m.name))
            .cloned()
            .collect()
    }
}
