//! The traced run's in-process replay and the span recorder.
//!
//! The replay runs each job on the benchmark thread through the public
//! calls of each layer, in the order the service makes them, with the
//! service's own shard split; every call becomes a span. Spans stay in
//! memory and are written out as a Chrome trace at the end.

use crate::check::{digest, pairs};
use crate::gen::Workload;
use cqasm::Program;
use openql::{Compiler, CompilerOptions, Platform};
use qca_service::wire::{parse_request, Request};
use qca_service::{Service, ServiceConfig};
use qca_telemetry::Telemetry;
use qxsim::{EngineSelect, ShotHistogram, Simulator};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span. Times are µs from the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
    pub parent: Option<usize>,
    pub job: u64,
    /// Chrome-trace process: 1 client, 2 service, 3 replay.
    pub pid: u32,
}

/// An in-memory span recorder.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Opens a replay span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, job: u64) -> usize {
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name,
            start_us,
            dur_us: 0.0,
            parent,
            job,
            pid: 3,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, idx: usize) {
        let now = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans[idx].dur_us = now - self.spans[idx].start_us;
    }

    /// Records a finished span.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Durations of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }

    /// Per span name in process `pid`: (spans, total self time µs). Self
    /// time is the span's duration minus the time its children cover.
    pub fn self_times(&self, pid: u32) -> BTreeMap<&'static str, (usize, f64)> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_us;
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.pid == pid) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.dur_us - child[i]).max(0.0);
        }
        out
    }

    /// The spans of jobs below `jobs` as a Chrome trace
    /// (`chrome://tracing`, Perfetto). Span ids are indices into
    /// [`Tracer::spans`], so parents stay valid.
    pub fn chrome_trace(&self, jobs: u64) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let mut first = true;
        for (i, s) in self.spans.iter().enumerate().filter(|(_, s)| s.job < jobs) {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{},\"tid\":{},\"args\":{{\"job\":{},\"span\":{i},\"parent\":{}}}}}",
                s.name,
                s.start_us,
                s.dur_us,
                s.pid,
                s.job % 4,
                s.job,
                s.parent.map_or_else(|| "null".to_string(), |p| p.to_string())
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Counts the replay gathers besides its spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    pub compiles: usize,
    pub gates_in: usize,
    pub gates_out: usize,
    pub fused_before: u64,
    pub fused_after: u64,
    /// Per engine name: (shots, run_shot_range µs).
    pub per_engine: BTreeMap<&'static str, (u64, f64)>,
    /// State evolutions per state-vector job.
    pub evolutions: Vec<f64>,
    /// Histogram digest per job, by index in the whole job list.
    pub digests: BTreeMap<usize, u64>,
    /// In-process service digest per job, by index in the whole job list.
    pub service_digests: BTreeMap<usize, u64>,
}

fn time<T>(
    tracer: &mut Tracer,
    name: &'static str,
    parent: usize,
    job: u64,
    f: impl FnOnce() -> T,
) -> T {
    let s = tracer.begin(name, Some(parent), job);
    let out = f();
    tracer.end(s);
    out
}

/// Replays the workload's jobs in-process, in order, until `budget` has
/// passed. `shards` holds, by index in the whole job list, the shard count
/// the service reported for each job of the traced pass; jobs without one
/// are skipped.
///
/// # Errors
///
/// A layer call that fails.
pub fn replay(
    w: &Workload,
    shards: &BTreeMap<usize, u64>,
    tracer: &mut Tracer,
    budget: Duration,
) -> Result<ReplayCounts, String> {
    let started = Instant::now();
    let service = Service::with_telemetry(ServiceConfig::default(), Telemetry::enabled());
    let handle = service.handle();
    let mut counts = ReplayCounts::default();
    let mut plans: HashMap<(String, bool), qxsim::CompiledProgram> = HashMap::new();
    let result = (|| -> Result<(), String> {
        for (j, job) in w.jobs().enumerate() {
            if started.elapsed() >= budget {
                break;
            }
            let Some(&shards) = shards.get(&j) else {
                continue;
            };
            let jid = j as u64;
            let root = tracer.begin("job", None, jid);
            let request = time(tracer, "wire.decode", root, jid, || {
                parse_request(&job.line)
            })?;
            let Request::Submit(spec) = request else {
                return Err("replayed line is not a submit".to_string());
            };
            let program = time(tracer, "cqasm.parse", root, jid, || {
                Program::parse(&spec.circuit)
            })
            .map_err(|e| e.to_string())?;
            let canonical = time(tracer, "cqasm.canonicalise", root, jid, || {
                program.to_string()
            });
            let model = spec.qubits.to_model();
            let key = (canonical, spec.qubits != qca_core::QubitKind::Perfect);
            if !plans.contains_key(&key) {
                let n = program.qubit_count();
                let out = time(tracer, "openql.compile", root, jid, || {
                    Compiler::with_options(Platform::perfect(n), CompilerOptions::default())
                        .compile_cqasm(&program)
                })
                .map_err(|e| e.to_string())?;
                let plan = time(tracer, "qxsim.plan", root, jid, || {
                    Simulator::with_model(model).compile(&out.program)
                })
                .map_err(|e| e.to_string())?;
                counts.compiles += 1;
                counts.gates_in += out.report.input_stats.gates;
                counts.gates_out += out.report.output_stats.gates;
                let fusion = plan.fusion_stats();
                counts.fused_before += fusion.gates_before;
                counts.fused_after += fusion.gates_after;
                plans.insert(key.clone(), plan);
            }
            let plan = &plans[&key];
            let sim = Simulator::with_model(model).with_seed(spec.seed);
            let engine = time(tracer, "qxsim.plan_engine", root, jid, || {
                sim.plan_engine(plan)
            })
            .map_err(|e| e.to_string())?;
            let mut hist = ShotHistogram::new();
            let mut run_us = 0.0;
            for t in 0..shards {
                let lo = spec.shots * t / shards;
                let hi = spec.shots * (t + 1) / shards;
                let s = tracer.begin("qxsim.run_shot_range", Some(root), jid);
                let part = sim.run_shot_range(plan, lo, hi);
                tracer.end(s);
                run_us += tracer.spans[s].dur_us;
                hist.merge(&part);
            }
            let e = counts.per_engine.entry(engine.name()).or_default();
            e.0 += spec.shots;
            e.1 += run_us;
            if engine == EngineSelect::StateVector {
                // One shot costs one full evolution of the state.
                time(tracer, "qxsim.evolve", root, jid, || {
                    sim.run_shot_range(plan, 0, 1)
                });
                counts
                    .evolutions
                    .push(if plan.sampling_measures().is_some() {
                        shards as f64
                    } else {
                        spec.shots as f64
                    });
            }
            counts.digests.insert(j, digest(&pairs(&hist)));
            let id = time(tracer, "service.submit", root, jid, || handle.submit(spec))
                .map_err(|e| e.to_string())?;
            let outcome = time(tracer, "service.wait", root, jid, || {
                handle.wait(id, Duration::from_secs(120))
            })
            .map_err(|e| e.to_string())?;
            counts
                .service_digests
                .insert(j, digest(&pairs(&outcome.histogram)));
            tracer.end(root);
        }
        Ok(())
    })();
    service.shutdown();
    result.map(|()| counts)
}

/// What recording one span costs (µs), measured on this host.
pub fn span_cost_us() -> f64 {
    let mut t = Tracer::new(Instant::now());
    let n = 20_000;
    let start = Instant::now();
    for i in 0..n {
        let s = t.begin("probe", None, i);
        t.end(s);
    }
    start.elapsed().as_secs_f64() * 1e6 / n as f64
}
