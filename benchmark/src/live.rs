//! `live-ladder`: an open-loop ladder of offered request rates against
//! `liveserve::Server` under `LimitPolicy::Governed`, with its
//! `Governor` on the 10 ms wall quantum.
//!
//! Every request is `GET /work?ms=1`, so any latency above 1 ms is the
//! server's own accept, admit, queue and write path. Arrivals are
//! paced with seeded jitter (see [`schedule`]). The generator
//! runs at most `nproc` threads, each with at most one connection
//! open, and times every request from when it was *due*, so a stall
//! also charges the requests queued behind it; how late the generator
//! itself ran is reported next to the latencies.

use crate::common::{self, median, quantile, Outcome, RunOptions};
use liveserve::{Governor, GovernorConfig, LimitPolicy, Server, ServerConfig};
use simkernel::obs;
use simkernel::rng::splitmix64;
use simkernel::SeedTree;
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const REQUEST: &[u8] = b"GET /work?ms=1 HTTP/1.0\r\n\r\n";
/// Server worker pool (upper bound of the governed concurrency cap).
const POOL: usize = 8;
/// The latency limit a rung's p99 must meet to count towards `max_rps`.
const P99_LIMIT_MS: f64 = 50.0;
/// A rung whose generator lateness grows by more than this from its
/// first to its last third has a growing backlog.
const LAG_GROWTH_MS: f64 = 20.0;
/// Share of each rung (by due time) discarded as warm-up.
const WARMUP_SHARE: f64 = 0.2;
/// The fixed rates whose latencies are reported.
const LOW_RATE: f64 = 200.0;
const MID_RATE: f64 = 600.0;
/// Ladder step above `MID_RATE`, then bisections between the last
/// passing and the first failing rate.
const STEP: f64 = 1.25;
const BISECTIONS: usize = 3;
const IO_TIMEOUT: Duration = Duration::from_secs(2);
const SHUTDOWN_GRACE: Duration = Duration::from_secs(5);
/// Governor horizon in quanta; the stop flag ends it much earlier.
const GOVERNOR_HORIZON: u64 = 10_000_000;

/// One request, timed from when it was due.
#[derive(Debug, Clone, Copy)]
struct Sample {
    /// Due instant, seconds after the rung started.
    due_s: f64,
    late_ms: f64,
    connect_ms: f64,
    response_ms: f64,
    latency_ms: f64,
    ok: bool,
}

/// One rung of the ladder: a fixed offered rate for a fixed time.
struct Rung {
    rate: f64,
    /// Every request, in due order.
    all: Vec<Sample>,
    /// Requests due after the warm-up.
    measured: Vec<Sample>,
}

impl Rung {
    fn errors(&self) -> usize {
        self.all.iter().filter(|s| !s.ok).count()
    }

    fn pct(&self, field: fn(&Sample) -> f64, q: f64) -> f64 {
        let v: Vec<f64> = self.measured.iter().map(field).collect();
        quantile(&v, q)
    }

    fn latency(&self, q: f64) -> f64 {
        self.pct(|s| s.latency_ms, q)
    }

    /// Median generator lateness of the last third of the measured
    /// requests minus that of the first third.
    fn lag_growth(&self) -> f64 {
        let third = self.measured.len() / 3;
        if third == 0 {
            return 0.0;
        }
        let late = |s: &[Sample]| median(&s.iter().map(|x| x.late_ms).collect::<Vec<_>>());
        late(&self.measured[self.measured.len() - third..]) - late(&self.measured[..third])
    }

    fn passes(&self) -> bool {
        self.errors() == 0
            && self.latency(0.99) <= P99_LIMIT_MS
            && self.lag_growth() <= LAG_GROWTH_MS
    }

    fn print(&self) {
        println!(
            "rung rate={:.0}/s n={} p50_ms={:.3} p99_ms={:.3} (n={}) errors={} gen.late_ms.p99={:.3} lag_growth_ms={:.3} pass={}",
            self.rate,
            self.all.len(),
            self.latency(0.5),
            self.latency(0.99),
            self.measured.len(),
            self.errors(),
            self.pct(|s| s.late_ms, 0.99),
            self.lag_growth(),
            self.passes()
        );
    }
}

/// Whether `resp` is a well-formed `200` reply of the work handler.
fn well_formed_ok(resp: &[u8]) -> bool {
    let Ok(text) = std::str::from_utf8(resp) else {
        return false;
    };
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return false;
    };
    let length = head
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .and_then(|v| v.trim().parse::<usize>().ok());
    head.starts_with("HTTP/1.0 200 OK\r\n") && length == Some(body.len()) && body.starts_with("ok ")
}

/// One request on a fresh connection: `(connect_ms, response_ms, ok)`.
fn request(addr: SocketAddr) -> (f64, f64, bool) {
    let t0 = Instant::now();
    let Ok(mut stream) = TcpStream::connect_timeout(&addr, IO_TIMEOUT) else {
        return (t0.elapsed().as_secs_f64() * 1e3, 0.0, false);
    };
    let t1 = Instant::now();
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
    let mut resp = Vec::with_capacity(128);
    let ok = stream.write_all(REQUEST).is_ok()
        && stream.read_to_end(&mut resp).is_ok()
        && well_formed_ok(&resp);
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    (ms(t0, t1), ms(t1, Instant::now()), ok)
}

/// Paced due times (seconds after the rung starts) for `rate` over
/// `secs`: each gap is the mean gap scaled by a seeded factor uniform
/// in [0.5, 1.5), so the offered rate is exact on average while the
/// phase of every request depends on the seed.
fn schedule(seeds: &SeedTree, rate: f64, secs: f64) -> Vec<f64> {
    let mut state = seeds.raw();
    let mut t = 0.0;
    let mut due = Vec::with_capacity((rate * secs) as usize + 1);
    loop {
        state = splitmix64(state);
        let u = (state >> 11) as f64 / (1u64 << 53) as f64;
        t += (0.5 + u) / rate;
        if t >= secs {
            return due;
        }
        due.push(t);
    }
}

fn run_rung(addr: SocketAddr, seeds: &SeedTree, rate: f64, secs: f64, threads: usize) -> Rung {
    let due = schedule(&seeds.child_idx(rate.to_bits()), rate, secs);
    let cursor = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(due.len()));
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(&due_s) = due.get(i) else { break };
                    let at = start + Duration::from_secs_f64(due_s);
                    let now = Instant::now();
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    let sent = Instant::now();
                    let (connect_ms, response_ms, ok) = request(addr);
                    let done = Instant::now();
                    let after = |t: Instant| t.saturating_duration_since(at).as_secs_f64() * 1e3;
                    local.push(Sample {
                        due_s,
                        late_ms: after(sent),
                        connect_ms,
                        response_ms,
                        latency_ms: after(done),
                        ok,
                    });
                }
                samples
                    .lock()
                    .expect("a generator thread panicked")
                    .extend(local);
            });
        }
    });
    let mut all = samples.into_inner().expect("a generator thread panicked");
    all.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    let measured = all
        .iter()
        .copied()
        .filter(|s| s.due_s >= WARMUP_SHARE * secs)
        .collect();
    let rung = Rung {
        rate,
        all,
        measured,
    };
    rung.print();
    rung
}

/// Served requests per second with every generator thread sending
/// back to back (a closed loop of `threads` connections) for `secs`,
/// counting replies sent and completed after `WARMUP_SHARE` of it: the
/// server path's capacity at the connection cap. Returns `(rate, every
/// request)`.
fn saturated(addr: SocketAddr, secs: f64, threads: usize) -> (f64, Vec<Sample>) {
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let samples = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut local = Vec::new();
                loop {
                    let sent = Instant::now();
                    if sent >= end {
                        break;
                    }
                    let (connect_ms, response_ms, ok) = request(addr);
                    local.push(Sample {
                        due_s: (sent - start).as_secs_f64(),
                        late_ms: 0.0,
                        connect_ms,
                        response_ms,
                        latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                        ok,
                    });
                }
                samples
                    .lock()
                    .expect("a generator thread panicked")
                    .extend(local);
            });
        }
    });
    let samples = samples.into_inner().expect("a generator thread panicked");
    let served = samples
        .iter()
        .filter(|s| s.ok && s.due_s >= WARMUP_SHARE * secs && s.due_s + s.latency_ms / 1e3 <= secs)
        .count();
    let rate = served as f64 / ((1.0 - WARMUP_SHARE) * secs);
    println!(
        "saturated: {threads} connections, {rate:.1} served/s (n={})",
        samples.len()
    );
    (rate, samples)
}

/// The whole ladder: the two fixed rates, a geometric climb to the
/// first failing rate, then bisections towards the knee.
struct Ladder {
    /// Rung 0 runs at `LOW_RATE`, rung 2 at `MID_RATE`.
    rungs: Vec<Rung>,
    /// Index of the highest passing rung of the climb and bisections.
    best: Option<usize>,
}

fn run_ladder(addr: SocketAddr, seeds: &SeedTree, window: f64, threads: usize) -> Ladder {
    let (long, short) = (0.2 * window, 0.1 * window);
    let started = Instant::now();
    let mut rungs = Vec::new();
    let mut best: Option<usize> = None;
    let mut fail: Option<f64> = None;
    let push = |rungs: &mut Vec<Rung>, rate: f64, secs: f64| {
        rungs.push(run_rung(addr, seeds, rate, secs, threads));
        rungs.len() - 1
    };
    let mut judge = |rungs: &[Rung], i: usize, fail: &mut Option<f64>| {
        if fail.is_none() {
            if rungs[i].passes() {
                best = Some(i);
            } else {
                *fail = Some(rungs[i].rate);
            }
        }
    };
    // The fixed rates always run; the climb continues to the first
    // failure (bounded by three windows of time).
    for (rate, secs) in [(LOW_RATE, long), (2.0 * LOW_RATE, short), (MID_RATE, long)] {
        let i = push(&mut rungs, rate, secs);
        judge(&rungs, i, &mut fail);
    }
    let mut rate = MID_RATE * STEP;
    while fail.is_none() && started.elapsed().as_secs_f64() < 3.0 * window {
        let i = push(&mut rungs, rate, short);
        judge(&rungs, i, &mut fail);
        rate *= STEP;
    }
    if let Some(mut hi) = fail {
        let mut lo = best.map_or(0.0, |b| rungs[b].rate);
        for _ in 0..BISECTIONS {
            let rate = (lo + hi) / 2.0;
            let i = push(&mut rungs, rate, short);
            if rungs[i].passes() {
                best = Some(i);
                lo = rate;
            } else {
                hi = rate;
            }
        }
    }
    Ladder { rungs, best }
}

fn server_config() -> ServerConfig {
    ServerConfig {
        max_workers: POOL,
        queue_cap: 64,
        deadline_ms: 250,
        policy: LimitPolicy::Governed,
    }
}

fn governor_config(stop: Option<Arc<AtomicBool>>) -> GovernorConfig {
    GovernorConfig {
        quantum: Duration::from_millis(10),
        max_workers: POOL,
        stop_flag: stop,
        ..GovernorConfig::default()
    }
}

/// Runs the workload.
pub fn run(opts: &RunOptions) -> Outcome {
    let mut out = Outcome::default();
    let threads = common::nproc();
    let window = opts.window.as_secs_f64();
    let seeds = SeedTree::new(opts.seed).child("live");
    obs::set_override(Some(false));

    // Set-up: spawn the server and attach its governor; repeated and
    // reported as a median. Each server must answer and shut down
    // cleanly.
    let mut setup = Vec::new();
    let mut spawn_ms = Vec::new();
    for _ in 0..21 {
        let t = Instant::now();
        let handle = Server::spawn(&server_config()).expect("bind a loopback port");
        spawn_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let governor = Governor::new(&handle, governor_config(None));
        setup.push(t.elapsed().as_secs_f64());
        drop(governor);
        // Not timed: whether the listener's first accept poll runs
        // before or after this connect decides a 2 ms idle sleep, and
        // that order differs from process to process.
        out.check(request(handle.addr).2);
        let report = handle.shutdown(SHUTDOWN_GRACE);
        out.check(report.clean_shutdown && report.threads_joined == report.threads_spawned);
    }

    let handle = Server::spawn(&server_config()).expect("bind a loopback port");
    let addr = handle.addr;
    let stop = Arc::new(AtomicBool::new(false));
    let mut governor = Governor::new(&handle, governor_config(Some(Arc::clone(&stop))));
    // The governor's sink is installed when its thread starts, so a
    // traced run turns observability on first and off again only for
    // its untraced reference rung.
    obs::set_override(Some(opts.trace));
    let (low, ladder, capacity) = std::thread::scope(|s| {
        let gov = s.spawn(|| obs::with_sink(|| governor.run(GOVERNOR_HORIZON)));
        let measured = if opts.trace {
            obs::set_override(Some(false));
            let reference = run_rung(
                addr,
                &seeds.child("reference"),
                LOW_RATE,
                0.2 * window,
                threads,
            );
            obs::set_override(Some(true));
            let ladder = run_ladder(addr, &seeds, window, threads);
            (
                reference,
                Some(ladder),
                saturated(addr, 0.15 * window, threads),
            )
        } else {
            let low = run_rung(addr, &seeds, LOW_RATE, 0.5 * window, threads);
            (low, None, saturated(addr, 0.5 * window, threads))
        };
        stop.store(true, Ordering::SeqCst);
        gov.join().expect("governor thread");
        measured
    });
    obs::set_override(Some(false));
    let report = handle.shutdown(SHUTDOWN_GRACE);
    println!(
        "server: accepted={} served={} shed={} timed_out={} io_errors={} threads {}/{} joined",
        report.accepted,
        report.served,
        report.shed,
        report.timed_out,
        report.io_errors,
        report.threads_joined,
        report.threads_spawned
    );

    let ladder_rungs = ladder.iter().flat_map(|l| &l.rungs);
    for s in std::iter::once(&low)
        .chain(ladder_rungs)
        .flat_map(|r| &r.all)
        .chain(&capacity.1)
    {
        out.check(s.ok);
    }
    out.check(report.clean_shutdown && report.threads_joined == report.threads_spawned);

    println!(
        "p50_ms {:.3} ms at {:.0}/s (n={})",
        low.latency(0.5),
        low.rate,
        low.measured.len()
    );
    println!(
        "work_per_s {:.1} req/s served at {threads} connections",
        capacity.0
    );
    out.set("setup_s", median(&setup));
    out.set("p50_ms", low.latency(0.5));
    out.set("work_per_s", capacity.0);
    out.set("server.spawn_ms", median(&spawn_ms));
    out.set("server.accepted", report.accepted as f64);
    out.set("server.served", report.served as f64);
    out.set("server.shed", report.shed as f64);
    out.set("server.timed_out", report.timed_out as f64);
    out.set("server.io_errors", report.io_errors as f64);
    let sup = governor.supervision_stats();
    out.set("governor.transitions", governor.transitions().len() as f64);
    out.set("governor.warns", f64::from(sup.warns));
    out.set("governor.rollbacks", f64::from(sup.rollbacks));
    out.set("governor.fallbacks", f64::from(sup.fallbacks));
    out.set("governor.probe_failures", f64::from(sup.probe_failures));
    out.set("governor.repromotions", f64::from(sup.repromotions));
    out.set("governor.checkpoints", f64::from(sup.checkpoints));

    if let Some(ladder) = &ladder {
        let (r200, r600) = (&ladder.rungs[0], &ladder.rungs[2]);
        let max_rps = ladder.best.map_or(0.0, |b| ladder.rungs[b].rate);
        println!(
            "live.max_rps {max_rps:.1} req/s (p99 <= {P99_LIMIT_MS} ms, no errors, no growing lag)"
        );
        out.set("live.max_rps", max_rps);
        out.set("live.p50_ms.r200", r200.latency(0.5));
        out.set("live.p99_ms.r200", r200.latency(0.99));
        out.set("live.p50_ms.r600", r600.latency(0.5));
        out.set("live.p99_ms.r600", r600.latency(0.99));
        out.set("client.connect_ms.p50", r200.pct(|s| s.connect_ms, 0.5));
        out.set("client.connect_ms.p99", r200.pct(|s| s.connect_ms, 0.99));
        out.set("client.response_ms.p50", r200.pct(|s| s.response_ms, 0.5));
        out.set("client.response_ms.p99", r200.pct(|s| s.response_ms, 0.99));
        let top = ladder.best.map_or(r200, |b| &ladder.rungs[b]);
        out.set("gen.late_ms.p99", top.pct(|s| s.late_ms, 0.99));
        out.set("trace.obs_overhead", r200.latency(0.5) / low.latency(0.5));
    }
    out
}
