//! `service`: one closed-loop client driving an in-process `secmem-serve`
//! through `serve::client`, with one simulation worker and one HTTP
//! thread.
//!
//! The traffic is a synthetic coverage mix: the repository records no
//! real sweep traffic to take one from. The client repeats a fixed
//! pattern of four submissions ([`PATTERN`]), chosen so that each of
//! the server's three answer paths is one latency class with enough
//! samples for its percentiles:
//!
//! 1. a new spec without telemetry (a result-cache miss whose jobs fork
//!    from the server's warm cache through `checkpoint` restore),
//! 2. a repeat of that spec (served wholly from the result cache),
//! 3. a new spec with telemetry sampling (a miss; the server warms
//!    every telemetry job from scratch, and `telemetry` and progress
//!    events run),
//! 4. the same repeat again.
//!
//! Hits are half of the submissions: a hit costs a few percent of a
//! miss, so the share adds little run time and gives the hit class,
//! whose latency is the most sensitive to host noise, twice the samples
//! of each miss class. The two miss classes have equal shares, so each
//! gets the same sample count.
//!
//! Every new spec is the pinned 4 × 7 matrix (the same cells and
//! kernels as the `matrix` workload) on the small GPU, with a short
//! window so a miss takes tens of milliseconds and a 30-second run holds
//! more than a hundred sweeps of each class. All specs share one
//! workload seed, so that after the first spec has warmed and saved its
//! prefixes, every later spec without telemetry forks from the warm
//! cache; the first spec warms from scratch without telemetry, so it is
//! left out of every class. (With a seed per spec nothing would fork;
//! with several seeds each miss class splits into one cluster per seed,
//! and its median jumps between clusters.) A one-cycle longer window per
//! round keeps every new spec a result-cache miss. The run's seed draws
//! the order of the spec's benchmarks and schemes, which is the order
//! the server runs the jobs in. The client waits on `/sweeps/{id}/stream`
//! to its end and then fetches `/results`; it never polls.
//!
//! The server keeps every warmed snapshot and every sweep's results for
//! its lifetime. With one seed the warm cache stops growing after the
//! first spec, so this workload's memory does not show that growth; the
//! sweep registry's growth it does show, and the traced run reports the
//! resident growth per sweep as `serve.rss_growth_mib_per_sweep`.
//!
//! Every timing is corrected by the compute lap ([`Calibrator`]).
//! Percentiles are medians over blocks of at least 100 sweeps of one
//! class ([`block_percentile`]).
//!
//! Of the latency percentiles, only the two miss medians are end-to-end
//! metrics: the fork misses' as `miss_sweep_p50_ms` and the telemetry
//! misses', the slowest class, as `slowest_p50_ms`. The hit p50 and p90
//! and the miss p90s are on the detail line, with their sample and block
//! counts. `sim_cycles_per_s` counts the cycles the results of every
//! measured sweep report, hits included: the simulated cycles the client
//! is served per second. On the reference host they
//! moved with host phases that lasted minutes and that no correction
//! tracked: hit medians of 1.55 ms raw in one set of runs and 1.95 ms in
//! the next, while the compute lap read the second set as the faster
//! one (a localhost echo lap tried as a second correction read it as
//! faster still, widening the gap to 65%); and within single runs the
//! misses split into a fast and a slow mode a third apart, so their p90
//! depended on the share of the run spent in the slow one (spreads up
//! to 26% over five runs). No bound a later change could be judged by
//! holds across such shifts.

use std::time::Instant;

use secmem_bench::sweep::{GpuPreset, SweepSpec, ALL_SCHEMES, PINNED_BENCHES};
use secmem_core::{SecureBackend, SecureMemConfig, SecurityScheme};
use secmem_gpusim::backend::{MemoryBackend, PassthroughBackend};
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::kernel::Kernel;
use secmem_gpusim::sim::Simulator;
use secmem_serve::{client, http, json, parse_sweep_spec, render_sweep_spec, Server, ServerConfig};
use secmem_telemetry::{Telemetry, TelemetryConfig};
use secmem_workloads::{suite, SyntheticKernel};

use crate::calib::Calibrator;
use crate::spans::Tracer;
use crate::stats::{block_percentile, median, Orders, BLOCK};
use crate::{Args, Outcome};

/// Measured-window cycles of every job.
const WINDOW: u64 = 1_200;
/// Warmup cycles of every job.
const WARMUP: u64 = 400;
/// Telemetry sampling interval of the telemetry specs.
const SAMPLE_INTERVAL: u64 = 256;
/// Sweeps between set-up samples. The first set-up starts the server
/// the loop drives; later ones start, time and stop a second server, so
/// `setup_s` is a median over the whole window, not one moment of it.
const SETUP_EVERY: usize = 24;
/// Sweeps between calibration samples.
const CALIBRATE_EVERY: usize = 8;
/// A sweep slower than this counts as stalled (failed).
const STALL_S: f64 = 10.0;
/// Miss CSVs re-rendered by an untimed batch run and compared, half of
/// them from each miss class.
const VERIFIED_MISSES: usize = 6;

/// What one submission of the client's pattern sends.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Submit {
    /// A new spec without telemetry.
    Fork,
    /// The most recent spec without telemetry, again.
    Repeat,
    /// A new spec with telemetry sampling.
    Telemetry,
}

/// The client's submissions, repeated in this order.
const PATTERN: [Submit; 4] = [Submit::Fork, Submit::Repeat, Submit::Telemetry, Submit::Repeat];

/// The latency class of a completed sweep.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// Served wholly from the result cache.
    Hit,
    /// Simulated, forking every job from a warmed snapshot.
    Fork,
    /// Simulated with telemetry, warming every job from scratch.
    Telemetry,
    /// The first spec: simulated, warming from scratch.
    FirstWarm,
}

/// Whether the `i`-th new spec samples telemetry: every second one.
fn is_telemetry(i: usize) -> bool {
    i % 2 == 1
}

/// The class the `i`-th new spec's first serving falls in.
fn miss_class(i: usize) -> Class {
    if is_telemetry(i) {
        Class::Telemetry
    } else if i == 0 {
        Class::FirstWarm
    } else {
        Class::Fork
    }
}

/// The `i`-th new spec of a run.
fn miss_spec(seed: u64, i: usize) -> SweepSpec {
    let mut orders = Orders::new(seed);
    SweepSpec {
        benches: orders
            .next(PINNED_BENCHES.len())
            .into_iter()
            .map(|b| PINNED_BENCHES[b].to_string())
            .collect(),
        schemes: orders.next(ALL_SCHEMES.len()).into_iter().map(|s| ALL_SCHEMES[s]).collect(),
        gpu: GpuPreset::Small,
        cycles: WARMUP + WINDOW + (i / 2) as u64,
        warmup: WARMUP,
        seed: suite::DEFAULT_SEED,
        sample_interval: is_telemetry(i).then_some(SAMPLE_INTERVAL),
        l2_bytes_per_bank: None,
        l2_assoc: None,
    }
}

/// The raw bytes `client::post` sends for `body`.
fn request_bytes(addr: &str, body: &[u8]) -> Vec<u8> {
    let mut raw = format!(
        "POST /sweeps HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body);
    raw
}

struct Running {
    addr: String,
    handle: std::thread::JoinHandle<Result<(), secmem_serve::ServeError>>,
}

/// The one-job sweep a fresh server answers first.
fn priming_spec() -> SweepSpec {
    SweepSpec {
        benches: vec!["b+tree".into()],
        schemes: vec![SecurityScheme::CtrOnly],
        gpu: GpuPreset::Small,
        cycles: 3_000,
        warmup: 0,
        seed: suite::DEFAULT_SEED,
        sample_interval: None,
        l2_bytes_per_bank: None,
        l2_assoc: None,
    }
}

/// Binds a server, starts it, completes the first `/health` round trip
/// and the first sweep: the set-up a user of a fresh server pays before
/// its first result.
fn start() -> Result<Running, String> {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        sim_workers: 1,
        http_threads: 1,
        ..ServerConfig::default()
    };
    let server = Server::bind(&cfg).map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    let health = client::get(&addr, "/health").map_err(|e| e.to_string())?;
    if health.code != 200 {
        return Err(format!("/health answered {}", health.code));
    }
    let first = sweep(&addr, &render_sweep_spec(&priming_spec()), 0)?;
    if first.hit {
        return Err("a fresh server answered its first sweep from cache".into());
    }
    Ok(Running { addr, handle })
}

fn stop(server: Running) -> Result<(), String> {
    client::post(&server.addr, "/shutdown", b"").map_err(|e| e.to_string())?;
    match server.handle.join() {
        Ok(Ok(())) => Ok(()),
        Ok(Err(e)) => Err(e.to_string()),
        Err(_) => Err("server thread panicked".into()),
    }
}

/// One completed sweep, as the client saw it.
struct Sweep {
    /// Index of the new spec this sweep submitted or repeated.
    spec: usize,
    /// Every job came from the cache.
    hit: bool,
    /// The latency class it falls in.
    class: Class,
    /// Client seconds it took, span records included.
    cost_s: f64,
    /// Submission, POST answered, stream ended, results received.
    marks: [Instant; 4],
    csv: String,
    /// Simulated cycles its results report, summed over its jobs.
    cycles: u64,
}

impl Sweep {
    fn secs(&self, from: usize, to: usize) -> f64 {
        self.marks[to].duration_since(self.marks[from]).as_secs_f64()
    }

    /// POST-to-results latency.
    fn latency_s(&self) -> f64 {
        self.secs(0, 3)
    }

    /// Records the sweep and its three requests as spans.
    fn trace(&self, tracer: &mut Tracer) {
        let root = tracer.record(
            ("serve", "sweep"),
            format!("spec {}", self.spec),
            (self.marks[0], self.marks[3]),
            None,
        );
        for (i, op) in
            ["POST /sweeps", "GET /sweeps/{id}/stream", "GET /sweeps/{id}/results"].into_iter().enumerate()
        {
            tracer.record(("serve", op), String::new(), (self.marks[i], self.marks[i + 1]), Some(root));
        }
    }
}

/// Submits `body` and follows the sweep to its results.
fn sweep(addr: &str, body: &str, spec: usize) -> Result<Sweep, String> {
    let start = Instant::now();
    let posted = client::post(addr, "/sweeps", body.as_bytes()).map_err(|e| e.to_string())?;
    if posted.code != 200 {
        return Err(format!("POST /sweeps answered {}: {}", posted.code, posted.text()));
    }
    let posted_at = Instant::now();
    let reply = json::parse(&posted.text()).map_err(|e| e.to_string())?;
    let id = reply.get("sweep").and_then(json::Json::as_u64).ok_or("POST reply has no sweep id")?;
    let mut events = Vec::new();
    let code = client::stream_get(addr, &format!("/sweeps/{id}/stream"), &mut |chunk| {
        events.extend_from_slice(chunk)
    })
    .map_err(|e| e.to_string())?;
    if code != 200 {
        return Err(format!("stream answered {code}"));
    }
    let streamed_at = Instant::now();
    let text = String::from_utf8_lossy(&events);
    let mut hit = true;
    for line in text.lines() {
        let event = json::parse(line).map_err(|e| e.to_string())?;
        if event.get("ok").and_then(json::Json::as_bool) != Some(true) {
            return Err(format!("sweep {id}: a job failed"));
        }
        hit &= event.get("cached").and_then(json::Json::as_bool) == Some(true);
    }
    let results = client::get(addr, &format!("/sweeps/{id}/results")).map_err(|e| e.to_string())?;
    if results.code != 200 {
        return Err(format!("results answered {}", results.code));
    }
    let csv = results.text();
    let cycles = csv_cycles(&csv).ok_or_else(|| format!("sweep {id}: results without a cycle count"))?;
    Ok(Sweep {
        spec,
        hit,
        class: Class::Hit,
        cost_s: 0.0,
        marks: [start, posted_at, streamed_at, Instant::now()],
        csv,
        cycles,
    })
}

/// Sum of the `cycles` column of a results CSV: a header row, one row
/// per job, then `#` notes. `None` when a row has no cycle count.
fn csv_cycles(csv: &str) -> Option<u64> {
    let mut lines = csv.lines().filter(|l| !l.starts_with('#'));
    let column = lines.next()?.split(',').position(|h| h == "cycles")?;
    lines.map(|row| row.split(',').nth(column)?.parse::<u64>().ok()).sum()
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let mut calib = Calibrator::new();
    let mut out = Outcome::new();

    let mut setup_raw = Vec::new();
    let mut set_up = |calib: &mut Calibrator| {
        calib.sample();
        let begin = Instant::now();
        let running = start().unwrap_or_else(|e| {
            eprintln!("perfbench: server did not start: {e}");
            std::process::exit(2);
        });
        setup_raw.push(begin.elapsed().as_secs_f64());
        running
    };
    let server = set_up(&mut calib);
    let addr = server.addr.clone();
    let rss_before = crate::stats::rss_mb();

    // The closed loop: the pattern, over and over. The traced run
    // alternates untraced and traced rounds of the pattern, so both see
    // the same host conditions and their rates give what tracing costs.
    let mut specs: Vec<SweepSpec> = Vec::new();
    let mut bodies: Vec<String> = Vec::new();
    let mut first_csv: Vec<Option<String>> = Vec::new();
    let mut sweeps: Vec<Sweep> = Vec::new();
    let mut traced_sweeps: Vec<Sweep> = Vec::new();
    let mut tracer = Tracer::new();
    let deadline = args.seconds as f64;
    let cap = 3.0 * deadline;
    // Window seconds are sweep time only: calibration laps and extra
    // set-ups between sweeps are paused out.
    let mut paused_s = 0.0;
    let window = Instant::now();
    let mut n = 0usize;
    let stop_every = if args.trace { 2 * PATTERN.len() } else { PATTERN.len() };
    loop {
        let elapsed = window.elapsed().as_secs_f64() - paused_s;
        // Percentiles need enough samples in each class; the traced run
        // reports none.
        let enough = args.trace
            || [Class::Hit, Class::Fork, Class::Telemetry]
                .iter()
                .all(|&c| sweeps.iter().filter(|s| s.class == c).count() >= BLOCK);
        if n.is_multiple_of(stop_every) && ((elapsed >= deadline && enough) || elapsed >= cap) {
            break;
        }
        let traced = args.trace && (n / PATTERN.len()) % 2 == 1;
        let pause = Instant::now();
        if n.is_multiple_of(CALIBRATE_EVERY) {
            calib.sample();
        }
        if n % SETUP_EVERY == SETUP_EVERY - 1 {
            let extra = set_up(&mut calib);
            if let Err(e) = stop(extra) {
                out.fail(format!("set-up server did not stop: {e}"));
            }
        }
        paused_s += pause.elapsed().as_secs_f64();
        let submit = PATTERN[n % PATTERN.len()];
        let index = match submit {
            Submit::Repeat => {
                (0..specs.len()).rev().find(|&i| !is_telemetry(i)).expect("a new spec precedes a repeat")
            }
            Submit::Fork | Submit::Telemetry => {
                specs.push(miss_spec(args.seed, specs.len()));
                debug_assert_eq!(is_telemetry(specs.len() - 1), submit == Submit::Telemetry);
                bodies.push(render_sweep_spec(specs.last().expect("just pushed")));
                first_csv.push(None);
                specs.len() - 1
            }
        };
        n += 1;
        out.attempted += 1;
        let begin = Instant::now();
        let mut done = match sweep(&addr, &bodies[index], index) {
            Ok(done) => done,
            Err(e) => {
                out.fail(format!("sweep of spec {index}: {e}"));
                continue;
            }
        };
        if traced {
            done.trace(&mut tracer);
        }
        done.cost_s = begin.elapsed().as_secs_f64();
        done.class = if done.hit { Class::Hit } else { miss_class(index) };
        if done.latency_s() > STALL_S {
            out.fail(format!("sweep of spec {index} stalled for {:.1} s", done.latency_s()));
        }
        if (submit == Submit::Repeat) != done.hit {
            let expected = if submit == Submit::Repeat { "hit" } else { "miss" };
            out.fail(format!("spec {index}: expected a cache {expected}"));
        }
        match &first_csv[index] {
            Some(first) if *first != done.csv => {
                out.fail(format!("spec {index}: cached CSV differs from the one first served"));
            }
            Some(_) => {}
            None => first_csv[index] = Some(done.csv.clone()),
        }
        if traced {
            traced_sweeps.push(done);
        } else {
            sweeps.push(done);
        }
    }
    let window_s = window.elapsed().as_secs_f64() - paused_s;
    let rss_growth_mb = crate::stats::rss_mb() - rss_before;

    // Untimed: a sample of miss CSVs against a batch run of the same
    // spec, alternately from each miss class.
    let mut batch_results = Vec::new();
    for k in 0..VERIFIED_MISSES.min(specs.len()) {
        let index = ((k * specs.len() / VERIFIED_MISSES) & !1 | (k & 1)).min(specs.len() - 1);
        out.attempted += 1;
        match specs[index].run(1) {
            Ok((results, failures)) if failures.is_empty() => {
                let csv = specs[index].results_table(&results).to_csv();
                if first_csv[index].as_ref() != Some(&csv) {
                    out.fail(format!("spec {index}: served CSV differs from a batch run"));
                }
                batch_results.push((index, results));
            }
            Ok((_, failures)) => out.fail(format!("spec {index}: batch run failed: {}", failures[0])),
            Err(e) => out.fail(format!("spec {index}: {e}")),
        }
    }
    let stats = client::get(&addr, "/cache/stats").map(|r| r.text()).unwrap_or_default();
    let stats = json::parse(&stats).ok();
    let stat = |key: &str| stats.as_ref().and_then(|s| s.get(key)).and_then(json::Json::as_u64).unwrap_or(0);
    let (cache_hits, cache_misses, simulations) =
        (stat("hits") + stat("coalesced"), stat("misses"), stat("simulations"));
    if let Err(e) = stop(server) {
        out.fail(format!("server shutdown: {e}"));
    }

    let factor = calib.factor();
    let raw_ms = |class: Class| -> Vec<f64> {
        sweeps.iter().filter(|s| s.class == class).map(|s| s.latency_s() * 1e3).collect()
    };
    let classes =
        [("hit", raw_ms(Class::Hit)), ("miss", raw_ms(Class::Fork)), ("telemetry", raw_ms(Class::Telemetry))];
    out.raw("sweeps", sweeps.len().to_string());
    out.raw("new_specs", specs.len().to_string());
    out.raw("first_warm_sweeps", sweeps.iter().filter(|s| s.class == Class::FirstWarm).count().to_string());
    out.raw("window_raw_s", format!("{window_s:.6}"));
    out.raw_f64s("setup_raw_s", &setup_raw);
    let quantiles = |v: &[f64]| {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| {
            v.get(((v.len() as f64 * q) as usize).min(v.len().saturating_sub(1))).copied().unwrap_or(0.0)
        };
        let picks: Vec<String> =
            [0.1, 0.25, 0.5, 0.75, 0.9, 0.99].iter().map(|&q| format!("{:.4}", at(q))).collect();
        format!("[{}]", picks.join(","))
    };
    for (name, raw) in &classes {
        out.raw(&format!("{name}_samples"), raw.len().to_string());
        out.raw(&format!("{name}_quantiles_raw_ms"), quantiles(raw));
    }
    out.raw(
        "cache_stats",
        stats.map_or("null".into(), |_| {
            format!("{{\"hits\":{cache_hits},\"misses\":{cache_misses},\"simulations\":{simulations}}}")
        }),
    );
    out.raw("rss_growth_raw_mb", format!("{rss_growth_mb:.3}"));
    out.calibration(&calib);

    if !args.trace {
        let cycles: u64 = sweeps.iter().map(|s| s.cycles).sum();
        out.metric("sim_cycles_per_s", cycles as f64 / (window_s * factor), "cycles/s");
        out.metric("sweeps_per_s", sweeps.len() as f64 / (window_s * factor), "1/s");
        // Only the miss medians are end-to-end metrics; the hit
        // percentiles and the miss p90s go to the detail line.
        for (class, raw) in &classes {
            let corrected: Vec<f64> = raw.iter().map(|ms| ms * factor).collect();
            for p in [50u8, 90] {
                let name = format!("{class}_sweep_p{p}_ms");
                let Some((v, blocks)) = block_percentile(&corrected, f64::from(p)) else {
                    out.fail(format!("{name}: {} samples are too few", raw.len()));
                    continue;
                };
                out.raw(&format!("{name}_blocks"), blocks.to_string());
                out.raw(&name, format!("{v}"));
                match (*class, p) {
                    ("miss", 50) => out.metric(&name, v, "ms"),
                    // Telemetry misses warm every job from scratch: the
                    // slowest class.
                    ("telemetry", 50) => out.metric("slowest_p50_ms", v, "ms"),
                    _ => {}
                }
            }
        }
        out.metric("setup_s", median(&setup_raw) * factor, "s");
        out.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MiB");
        return out;
    }

    let rate = |list: &[Sweep]| list.len() as f64 / list.iter().map(|s| s.cost_s).sum::<f64>();
    let mean_ms = |step: usize| {
        traced_sweeps.iter().map(|s| s.secs(step, step + 1)).sum::<f64>() * factor * 1e3
            / traced_sweeps.len().max(1) as f64
    };
    out.metric("serve.post_ms", mean_ms(0), "ms");
    out.metric("serve.stream_ms", mean_ms(1), "ms");
    out.metric("serve.results_ms", mean_ms(2), "ms");
    let raw_requests: Vec<Vec<u8>> = bodies.iter().map(|b| request_bytes(&addr, b.as_bytes())).collect();
    out.metric("serve.spec.parse_us", time_each_us(&bodies, |b| parse_sweep_spec(b).is_ok()) * factor, "us");
    out.metric("serve.json.parse_us", time_each_us(&bodies, |b| json::parse(b).is_ok()) * factor, "us");
    out.metric(
        "serve.http.read_request_us",
        time_each_us(&raw_requests, |r| http::read_request(&mut r.as_slice()).is_ok()) * factor,
        "us",
    );
    let tables: Vec<_> = batch_results.iter().map(|(i, r)| (&specs[*i], r)).collect();
    out.metric(
        "bench.sweep.results_table_us",
        time_each_us(&tables, |(spec, results)| !spec.results_table(results).to_csv().is_empty()) * factor,
        "us",
    );
    out.metric(
        "serve.cache.hit_ratio",
        cache_hits as f64 / (cache_hits + cache_misses).max(1) as f64,
        "ratio",
    );
    out.metric("serve.simulations", simulations as f64, "count");
    let total_sweeps = (sweeps.len() + traced_sweeps.len()).max(1) as f64;
    out.metric("serve.rss_growth_mib_per_sweep", rss_growth_mb / total_sweeps, "MiB");
    let (save_s, restore_s, frame_bytes) = checkpoint_costs(args.seed);
    out.metric("checkpoint.save_s", save_s * factor, "s");
    out.metric("checkpoint.restore_s", restore_s * factor, "s");
    out.metric("checkpoint.frame_bytes", frame_bytes, "bytes");
    out.metric("telemetry.overhead_ratio", telemetry_overhead(args.seed), "ratio");
    out.metric("trace.overhead_ratio", rate(&traced_sweeps) / rate(&sweeps), "ratio");
    out.spans(&tracer, args);
    out
}

/// Median microseconds of one `f(item)` call over every item, each item
/// timed over enough repetitions to span at least 200 µs.
fn time_each_us<T>(items: &[T], mut f: impl FnMut(&T) -> bool) -> f64 {
    let per_item: Vec<f64> = items
        .iter()
        .map(|item| {
            let mut reps = 1u32;
            loop {
                let start = Instant::now();
                for _ in 0..reps {
                    std::hint::black_box(f(std::hint::black_box(item)));
                }
                let secs = start.elapsed().as_secs_f64();
                if secs >= 2e-4 || reps >= 1 << 16 {
                    return secs * 1e6 / f64::from(reps);
                }
                reps *= 4;
            }
        })
        .collect();
    median(&per_item)
}

/// Save and restore cost and frame size over every job of the first new
/// spec's warmed configurations (the snapshots the server's warm cache
/// forks from); medians.
fn checkpoint_costs(seed: u64) -> (f64, f64, f64) {
    let spec = miss_spec(seed, 0);
    let gpu = spec.gpu_config();
    let (mut save, mut restore, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for bench in &spec.benches {
        let kernel = kernel(bench, spec.seed);
        for &scheme in &spec.schemes {
            let (s, r, b) = match scheme {
                SecurityScheme::Baseline => fork_cost(&gpu, &kernel, PassthroughBackend::from_config),
                s => {
                    let cfg = SecureMemConfig::with_scheme(s);
                    fork_cost(&gpu, &kernel, |g| SecureBackend::new(cfg.clone(), g))
                }
            };
            save.push(s);
            restore.push(r);
            bytes.push(b);
        }
    }
    (median(&save), median(&restore), median(&bytes))
}

fn kernel(bench: &str, seed: u64) -> SyntheticKernel {
    let spec = suite::all_specs().into_iter().find(|s| s.name == bench).expect("service bench in suite");
    SyntheticKernel::new(spec, seed)
}

fn fork_cost<B: MemoryBackend>(
    gpu: &GpuConfig,
    kernel: &dyn Kernel,
    factory: impl Fn(&GpuConfig) -> B,
) -> (f64, f64, f64) {
    let mut warmed = Simulator::new(gpu.clone(), kernel, |_, g| factory(g));
    warmed.warm_up(WARMUP);
    let start = Instant::now();
    let frame = warmed.save_checkpoint();
    let save = start.elapsed().as_secs_f64();
    let mut fresh = Simulator::new(gpu.clone(), kernel, |_, g| factory(g));
    let start = Instant::now();
    let restored = fresh.restore_checkpoint(&frame).is_ok();
    let restore = start.elapsed().as_secs_f64();
    assert!(restored, "a frame restores into a simulator built from the same configuration");
    (save, restore, frame.encode().len() as f64)
}

/// Host time of the first telemetry spec's jobs with sampling on, over
/// the same jobs with sampling off; median of three pairs.
fn telemetry_overhead(seed: u64) -> f64 {
    let spec = miss_spec(seed, 1);
    let gpu = spec.gpu_config();
    let kernels: Vec<SyntheticKernel> = spec.benches.iter().map(|b| kernel(b, spec.seed)).collect();
    let run_all = |on: bool| {
        let start = Instant::now();
        for k in &kernels {
            for &scheme in &spec.schemes {
                let telemetry = if on {
                    Telemetry::enabled(TelemetryConfig {
                        sample_interval: SAMPLE_INTERVAL,
                        ..TelemetryConfig::default()
                    })
                } else {
                    Telemetry::disabled()
                };
                match scheme {
                    SecurityScheme::Baseline => {
                        let sim = Simulator::new(gpu.clone(), k, |_, g| PassthroughBackend::from_config(g));
                        run_measured(sim, telemetry, &spec);
                    }
                    s => {
                        let cfg = SecureMemConfig::with_scheme(s);
                        run_measured(
                            Simulator::new(gpu.clone(), k, |_, g| SecureBackend::new(cfg.clone(), g)),
                            telemetry,
                            &spec,
                        );
                    }
                }
            }
        }
        start.elapsed().as_secs_f64()
    };
    let ratios: Vec<f64> = (0..3).map(|_| run_all(true) / run_all(false)).collect();
    median(&ratios)
}

fn run_measured<B: MemoryBackend>(mut sim: Simulator<B>, telemetry: Telemetry, spec: &SweepSpec) {
    sim.set_telemetry(telemetry);
    std::hint::black_box(sim.run_with_warmup(spec.warmup, spec.cycles));
}
