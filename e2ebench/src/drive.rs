//! Self-hosting the service and driving it over loopback TCP.
//!
//! The service runs in this process exactly as `qca-serve` runs it by
//! default (two workers, telemetry on, default trace sampling, queue and
//! plan cache). All load crosses the wire: at most two client threads
//! and two connections exist at any time.
//!
//! Open loop: the submitting thread sends each `submit` at its due time
//! and, once the job is admitted, sends its `result` request on a second
//! connection; a collector thread reads that connection. The service
//! answers requests on one connection in order, so the result connection
//! serves results in submission order: a job that finishes before an
//! earlier one is observed when the earlier one's result has arrived.

use crate::gen::{Job, Pace, Phase, Workload};
use qca_service::{Service, ServiceConfig, TcpConfig, TcpServer};
use qca_telemetry::Telemetry;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a `result` request may block on the server.
const RESULT_TIMEOUT_MS: u64 = 120_000;

/// A self-hosted service behind a loopback TCP server.
pub struct Host {
    service: Service,
    server: TcpServer,
    /// The server's address.
    pub addr: String,
    /// Taken just before the service started: the origin of the `trace`
    /// verb's lifecycle stamps, to within the service's start-up time.
    pub epoch: Instant,
}

impl Host {
    fn start(telemetry: bool) -> Result<Host, String> {
        let epoch = Instant::now();
        let telemetry = if telemetry {
            Telemetry::enabled()
        } else {
            Telemetry::disabled()
        };
        let service = Service::with_telemetry(ServiceConfig::default(), telemetry);
        let server = TcpServer::bind_with("127.0.0.1:0", service.handle(), TcpConfig::default())
            .map_err(|e| format!("cannot bind loopback: {e}"))?;
        let addr = server.local_addr().to_string();
        Ok(Host {
            service,
            server,
            addr,
            epoch,
        })
    }

    /// Stops the server, then the service. Every client connection must be
    /// closed first, or the server waits out its drain timeout.
    pub fn stop(self) {
        self.server.stop();
        self.service.shutdown();
    }
}

/// One newline-delimited JSON connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects with Nagle off, as `qca-load` does.
    ///
    /// # Errors
    ///
    /// Connection failures.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_millis(RESULT_TIMEOUT_MS + 10_000)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
            buf: Vec::new(),
        })
    }

    /// One round trip: sends a request line, reads the response line.
    ///
    /// # Errors
    ///
    /// Write and read failures, and a closed connection.
    pub fn ask(&mut self, line: &str) -> Result<String, String> {
        send_line(&mut self.writer, &mut self.buf, line)?;
        recv_line(&mut self.reader)
    }
}

fn send_line(w: &mut TcpStream, buf: &mut Vec<u8>, line: &str) -> Result<(), String> {
    buf.clear();
    buf.extend_from_slice(line.as_bytes());
    buf.push(b'\n');
    w.write_all(buf).map_err(|e| format!("write: {e}"))
}

fn recv_line(r: &mut BufReader<TcpStream>) -> Result<String, String> {
    let mut line = String::new();
    r.read_line(&mut line).map_err(|e| format!("read: {e}"))?;
    if line.is_empty() {
        return Err("server closed the connection".to_string());
    }
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(line)
}

/// The job id in a successful `submit` reply, `None` for a refusal.
fn submit_reply_id(reply: &str) -> Option<u64> {
    if !reply.starts_with("{\"ok\":true") {
        return None;
    }
    let at = reply.find("\"job\":")? + 6;
    let digits: String = reply[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// A `result` request line.
fn result_request(id: u64) -> String {
    format!("{{\"verb\":\"result\",\"job\":{id},\"timeout_ms\":{RESULT_TIMEOUT_MS}}}")
}

/// A `trace` request line.
fn trace_request(id: u64) -> String {
    format!("{{\"verb\":\"trace\",\"job\":{id}}}")
}

/// Starts a service, with telemetry on as `qca-serve` runs it or off, and
/// warms it over the workload's distinct circuits. Returns the host and
/// the set-up time in seconds.
///
/// # Errors
///
/// Start-up failures and warm-up jobs that do not complete.
pub fn set_up(w: &Workload, telemetry: bool) -> Result<(Host, f64), String> {
    let t0 = Instant::now();
    let host = Host::start(telemetry)?;
    let mut conn = Conn::connect(&host.addr)?;
    for job in &w.warmup {
        let reply = conn.ask(&job.line)?;
        let id = submit_reply_id(&reply).ok_or_else(|| format!("warm-up refused: {reply}"))?;
        let result = conn.ask(&result_request(id))?;
        if !result.starts_with("{\"ok\":true") {
            return Err(format!("warm-up job failed: {result}"));
        }
    }
    drop(conn);
    Ok((host, t0.elapsed().as_secs_f64()))
}

/// What the client saw of one job.
#[derive(Debug, Clone, Default)]
pub struct Seen {
    /// Index of the job in its phase.
    pub index: usize,
    /// Service job id; `None` when the submit was refused.
    pub id: Option<u64>,
    /// When the job was due, relative to the phase start (µs).
    pub due_us: f64,
    /// How late the submit left after it was due (µs). In a closed loop:
    /// the client's own time between the previous result and this submit.
    pub lag_us: f64,
    /// Submit round trip (µs).
    pub submit_rtt_us: f64,
    /// Due time to result arrival (µs).
    pub e2e_us: f64,
    /// The raw `submit` reply (on refusal) or `result` response.
    pub response: String,
    /// The raw `trace` response, in traced passes.
    pub trace: Option<String>,
    /// When the submit left, relative to the phase start (µs).
    pub sent_us: f64,
}

/// One phase as measured.
#[derive(Debug)]
pub struct PhaseRun {
    pub name: &'static str,
    pub pace: Pace,
    pub seen: Vec<Seen>,
    /// Phase start to last result (s).
    pub elapsed_s: f64,
    /// Phase start, for placing spans.
    pub start: Instant,
    /// The `stats` verb before and after the phase.
    pub stats_before: String,
    pub stats_after: String,
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs every phase of a workload against a host. A closed loop stops
/// taking jobs once `cap` has passed, so a host far slower than usual
/// still ends the run in bounded time.
///
/// # Errors
///
/// Wire failures.
pub fn run_phases(
    host: &Host,
    w: &Workload,
    traced: bool,
    cap: Duration,
) -> Result<Vec<PhaseRun>, String> {
    w.phases
        .iter()
        .map(|phase| match phase.pace {
            Pace::Clients(c) => run_closed(&host.addr, phase, c, traced, cap),
            Pace::Rate(_) | Pace::Window(_) => run_open(&host.addr, phase, traced),
        })
        .collect()
}

/// A result line as the collector read it: the job's index in its phase,
/// when the line arrived, and the line.
type Arrival = (usize, Instant, Result<String, String>);

/// Counts outstanding jobs for the burst window.
struct Window {
    outstanding: Mutex<usize>,
    freed: Condvar,
}

fn run_open(addr: &str, phase: &Phase, traced: bool) -> Result<PhaseRun, String> {
    let mut sub = Conn::connect(addr)?;
    let results = Conn::connect(addr)?;
    let stats_before = sub.ask("{\"verb\":\"stats\"}")?;
    let Conn {
        reader: mut res_reader,
        writer: mut res_writer,
        buf: mut res_buf,
    } = results;
    let window = Arc::new(Window {
        outstanding: Mutex::new(0),
        freed: Condvar::new(),
    });
    let limit = match phase.pace {
        Pace::Window(w) => w,
        _ => usize::MAX,
    };
    let (tx, rx) = mpsc::channel::<usize>();
    let start = Instant::now();
    let collector_window = Arc::clone(&window);
    let collector = std::thread::spawn(move || -> Vec<Arrival> {
        let mut got = Vec::new();
        while let Ok(i) = rx.recv() {
            let line = recv_line(&mut res_reader);
            let at = Instant::now();
            let failed = line.is_err();
            got.push((i, at, line));
            if let Ok(mut n) = collector_window.outstanding.lock() {
                *n -= 1;
            }
            collector_window.freed.notify_one();
            if failed {
                break;
            }
        }
        got
    });
    let interval = match phase.pace {
        Pace::Rate(rate) => Some(Duration::from_secs_f64(1.0 / rate)),
        _ => None,
    };
    let mut seen: Vec<Seen> = Vec::with_capacity(phase.jobs.len());
    let mut failure = None;
    for (i, job) in phase.jobs.iter().enumerate() {
        let due = match interval {
            Some(iv) => {
                let due = start + iv.mul_f64(i as f64);
                wait_until(due);
                due
            }
            None => {
                let mut n = window
                    .outstanding
                    .lock()
                    .map_err(|_| "window lock poisoned")?;
                while *n >= limit {
                    n = window.freed.wait(n).map_err(|_| "window lock poisoned")?;
                }
                Instant::now()
            }
        };
        let sent = Instant::now();
        let reply = match sub.ask(&job.line) {
            Ok(r) => r,
            Err(e) => {
                failure = Some(e);
                break;
            }
        };
        let rtt = micros(sent.elapsed());
        let id = submit_reply_id(&reply);
        if let Some(id) = id {
            if let Ok(mut n) = window.outstanding.lock() {
                *n += 1;
            }
            if let Err(e) = send_line(&mut res_writer, &mut res_buf, &result_request(id)) {
                failure = Some(e);
                break;
            }
            if tx.send(i).is_err() {
                failure = Some("result collector stopped".to_string());
                break;
            }
        }
        seen.push(Seen {
            index: i,
            id,
            due_us: micros(due - start),
            lag_us: micros(sent.saturating_duration_since(due)),
            submit_rtt_us: rtt,
            sent_us: micros(sent - start),
            response: if id.is_none() { reply } else { String::new() },
            ..Seen::default()
        });
    }
    drop(tx);
    let got = collector
        .join()
        .map_err(|_| "result collector panicked".to_string())?;
    let mut last = start;
    for (i, at, line) in got {
        let line = line?;
        last = last.max(at);
        let s = &mut seen[i];
        s.e2e_us = micros(at - start) - s.due_us;
        s.response = line;
    }
    if let Some(e) = failure {
        return Err(e);
    }
    let elapsed_s = (last - start).as_secs_f64();
    if traced {
        for s in &mut seen {
            if let Some(id) = s.id {
                s.trace = Some(sub.ask(&trace_request(id))?);
            }
        }
    }
    let stats_after = sub.ask("{\"verb\":\"stats\"}")?;
    Ok(PhaseRun {
        name: phase.name,
        pace: phase.pace,
        seen,
        elapsed_s,
        start,
        stats_before,
        stats_after,
    })
}

/// Sleeps until shortly before `due`, then yields until it passes: a
/// plain sleep overshoots by about 100 µs at the median on a virtual
/// machine, which would count as generator lag.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        if due - now > SPIN {
            std::thread::sleep(due - now - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

fn closed_client(
    addr: &str,
    jobs: &[Job],
    mut take: impl FnMut() -> Option<usize>,
    start: Instant,
    traced: bool,
    cap: Duration,
) -> Result<Vec<Seen>, String> {
    let mut conn = Conn::connect(addr)?;
    let mut seen = Vec::new();
    let mut previous: Option<Instant> = None;
    loop {
        // Checked before taking a job, so each client runs a prefix of
        // what it would take.
        if start.elapsed() >= cap {
            return Ok(seen);
        }
        let Some(i) = take() else {
            return Ok(seen);
        };
        let job = &jobs[i];
        let sent = Instant::now();
        let reply = conn.ask(&job.line)?;
        let rtt = micros(sent.elapsed());
        let id = submit_reply_id(&reply);
        let response = match id {
            Some(id) => conn.ask(&result_request(id))?,
            None => reply,
        };
        let arrived = Instant::now();
        let trace = match (traced, id) {
            (true, Some(id)) => Some(conn.ask(&trace_request(id))?),
            _ => None,
        };
        seen.push(Seen {
            index: i,
            id,
            due_us: micros(sent - start),
            lag_us: previous.map_or(0.0, |p| micros(sent - p)),
            submit_rtt_us: rtt,
            e2e_us: micros(arrived - sent),
            response,
            trace,
            sent_us: micros(sent - start),
        });
        previous = Some(Instant::now());
    }
}

fn run_closed(
    addr: &str,
    phase: &Phase,
    clients: usize,
    traced: bool,
    cap: Duration,
) -> Result<PhaseRun, String> {
    let stats_before = Conn::connect(addr)?.ask("{\"verb\":\"stats\"}")?;
    // Jobs assigned to a client run on it, in order; the rest go to
    // whichever client is free.
    let own: Vec<Vec<usize>> = (0..clients)
        .map(|k| {
            (0..phase.jobs.len())
                .filter(|&i| phase.jobs[i].client == Some(k))
                .collect()
        })
        .collect();
    let shared: Vec<usize> = (0..phase.jobs.len())
        .filter(|&i| phase.jobs[i].client.is_none())
        .collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let parts: Vec<Result<Vec<Seen>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = own
            .iter()
            .map(|mine| {
                let (shared, next) = (&shared, &next);
                let mut mine = mine.iter().copied();
                let take = move || {
                    mine.next()
                        .or_else(|| shared.get(next.fetch_add(1, Ordering::SeqCst)).copied())
                };
                scope.spawn(move || closed_client(addr, &phase.jobs, take, start, traced, cap))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client panicked".to_string()))
            })
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut seen = Vec::with_capacity(phase.jobs.len());
    for part in parts {
        seen.extend(part?);
    }
    seen.sort_by_key(|s| s.index);
    let stats_after = Conn::connect(addr)?.ask("{\"verb\":\"stats\"}")?;
    Ok(PhaseRun {
        name: phase.name,
        pace: phase.pace,
        seen,
        elapsed_s,
        start,
        stats_before,
        stats_after,
    })
}
