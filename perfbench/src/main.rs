//! End-to-end and per-layer benchmark of the GPU secure-memory simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload matrix|replay|service --seed N --seconds S --trace 0|1
//! ```
//!
//! Workloads (why each was chosen is in `BENCHMARK.json`):
//!
//! - `matrix` ([`matrix`]): the pinned 4-bench × 7-scheme sweep on the
//!   small GPU. Exercises `gpusim`, `core` and `workloads`.
//! - `replay` ([`replay`]): the baseline scheme on the Volta-size GPU,
//!   replaying SECMTRC binary traces. Exercises `gpusim` and `trace_bin`
//!   and bypasses `core` and `workloads`.
//! - `service` ([`service`]): one closed-loop client driving an
//!   in-process sweep server. Exercises `serve`, `checkpoint` and
//!   `telemetry`.
//!
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics ([`END_TO_END`]); with `--trace 1` it carries the
//! per-layer metrics ([`PER_LAYER`]) of a traced run, whose spans are
//! written to `.bench_out/spans-<workload>-<seed>.json`. The line before
//! it holds the raw figures behind every corrected one and the sample
//! counts behind every percentile. Every timing is in drift-corrected
//! host time (see [`calib`]). The command exits 1 when any output failed
//! its correctness check, 2 on bad arguments or a failed set-up, and 3
//! when a run stalls past its time limit.
//!
//! Every workload reports every end-to-end metric, each read in the
//! workload's own unit of work:
//!
//! | metric              | matrix                  | replay                 | service                        |
//! |---------------------|-------------------------|------------------------|--------------------------------|
//! | `sim_cycles_per_s`  | cycles ÷ simulating time | cycles ÷ simulating time | result cycles ÷ window time  |
//! | `sweeps_per_s`      | 28-cell passes          | 3-replay passes        | completed sweeps               |
//! | `miss_sweep_p50_ms` | median pass             | median pass            | fork-miss sweeps (block median) |
//! | `slowest_p50_ms`    | slowest cell (b+tree/direct_mac_mt) | longest replay | telemetry-miss sweeps (block median) |
//! | `setup_s`           | kernels + warm pass     | trace record + write   | bind + `/health` + first sweep |
//! | `peak_rss_mb`       | process peak            | process peak           | process peak                   |
//!
//! On matrix and replay `sweeps_per_s` is `sim_cycles_per_s` over the
//! pass's fixed cycle count; it is there for the service. With
//! `--trace 1` every workload reports every per-layer metric; one of a
//! layer the workload does not run reads 0 and is listed under
//! `not_on_path` on the detail line.
//!
//! Layer → end-to-end map (which end-to-end metric each per-layer metric
//! should move, and where):
//!
//! | per-layer                                   | moves                                              |
//! |---------------------------------------------|----------------------------------------------------|
//! | `gpusim.self_s`, `gpusim.self_ns_per_cycle` | `sim_cycles_per_s`, replay most, matrix less       |
//! | `gpusim.part_step_ratio`, `outlier.*`       | matrix `slowest_p50_ms`                            |
//! | `gpusim.dram.*`                             | replay `sim_cycles_per_s`                          |
//! | `trace_bin.*`                               | replay `sim_cycles_per_s`, `peak_rss_mb`           |
//! | `workloads.*`                               | matrix `sim_cycles_per_s`; nothing on replay       |
//! | `core.*`                                    | matrix `sim_cycles_per_s`, `slowest_p50_ms`; nothing on replay |
//! | `checkpoint.*`                              | service `miss_sweep_p50_ms` (warm-cache forks)     |
//! | `telemetry.overhead_ratio`                  | service `slowest_p50_ms`; nothing on matrix        |
//! | `serve.*`, `bench.*`                        | service `sweeps_per_s`                             |
//! | `serve.rss_growth_mib_per_sweep`            | service `peak_rss_mb`                              |
//!
//! The service's hit percentiles and miss p90s are on the detail line,
//! not end-to-end metrics: they moved with host phases no correction
//! tracked (see [`service`]).
//!
//! `gpusim.warp_insts`, `gpusim.l2_accesses`, `trace_bin.insts`,
//! `core.mdcache.*`, `core.tree_verifications` and `core.aes_blocks` are
//! simulated work counts for normalizing: a simulator speed-up must
//! leave them identical.

mod calib;
mod layers;
mod matrix;
mod replay;
mod service;
mod spans;
mod stats;

use std::fmt::Write as _;

use calib::Calibrator;
use spans::Tracer;

/// The end-to-end metrics and their units, as `BENCHMARK.json` lists
/// them. Every workload reports every one with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("sim_cycles_per_s", "cycles/s"),
    ("sweeps_per_s", "1/s"),
    ("miss_sweep_p50_ms", "ms"),
    ("slowest_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics and their units, as `BENCHMARK.json` lists
/// them. Every workload reports every one with `--trace 1`; a layer the
/// workload does not run reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("gpusim.self_s", "s"),
    ("gpusim.self_ns_per_cycle", "ns"),
    ("gpusim.part_step_ratio", "ratio"),
    ("gpusim.warp_insts", "count"),
    ("gpusim.l2_accesses", "count"),
    ("gpusim.dram.busy_s", "s"),
    ("gpusim.dram.requests", "count"),
    ("trace_bin.load_s", "s"),
    ("trace_bin.next_inst_s", "s"),
    ("trace_bin.insts", "count"),
    ("trace_bin.resident_bytes", "bytes"),
    ("workloads.next_inst_s", "s"),
    ("workloads.insts", "count"),
    ("core.busy_s", "s"),
    ("core.cycle_calls", "count"),
    ("core.cycle_ns_per_call", "ns"),
    ("core.submit_reads", "count"),
    ("core.submit_writes", "count"),
    ("core.next_event_pinned_ratio", "ratio"),
    ("core.mdcache.ctr_hit_ratio", "ratio"),
    ("core.mdcache.mac_hit_ratio", "ratio"),
    ("core.mdcache.tree_hit_ratio", "ratio"),
    ("core.tree_verifications", "count"),
    ("core.aes_blocks", "count"),
    ("outlier.btree_direct_mac_mt.part_step_ratio", "ratio"),
    ("outlier.btree_direct_mac_mt.next_event_pinned_ratio", "ratio"),
    ("outlier.btree_direct_mac_mt.cycle_ns_per_call", "ns"),
    ("outlier.btree_direct_mac.part_step_ratio", "ratio"),
    ("outlier.btree_direct_mac.next_event_pinned_ratio", "ratio"),
    ("outlier.btree_direct_mac.cycle_ns_per_call", "ns"),
    ("checkpoint.save_s", "s"),
    ("checkpoint.restore_s", "s"),
    ("checkpoint.frame_bytes", "bytes"),
    ("telemetry.overhead_ratio", "ratio"),
    ("serve.post_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.results_ms", "ms"),
    ("serve.spec.parse_us", "us"),
    ("serve.json.parse_us", "us"),
    ("serve.http.read_request_us", "us"),
    ("bench.sweep.results_table_us", "us"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.simulations", "count"),
    ("serve.rss_growth_mib_per_sweep", "MiB"),
    ("trace.overhead_ratio", "ratio"),
];

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the timed window in seconds.
    pub seconds: u64,
    /// Run the traced variant and report per-layer metrics.
    pub trace: bool,
}

fn usage(message: &str) -> ! {
    eprintln!("perfbench: {message}");
    eprintln!("usage: perfbench --workload matrix|replay|service --seed N --seconds S --trace 0|1");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args { workload: String::new(), seed: 0, seconds: 10, trace: false };
    let mut seed = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("--seed needs an integer"))),
            "--seconds" => {
                args.seconds = value.parse().unwrap_or_else(|_| usage("--seconds needs an integer"));
                if args.seconds == 0 {
                    usage("--seconds must be at least 1");
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    args.seed = seed.unwrap_or_else(|| usage("--seed is required"));
    args
}

/// What a workload run produced: its operation counts, metrics, and the
/// raw figures behind them.
pub struct Outcome {
    /// Operations attempted (simulations, sweeps).
    pub attempted: u64,
    /// Operations whose output failed a check, or that failed outright.
    pub failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    detail: Vec<(String, String)>,
    mismatches: Vec<String>,
}

impl Outcome {
    fn new() -> Self {
        Self { attempted: 0, failed: 0, metrics: Vec::new(), detail: Vec::new(), mismatches: Vec::new() }
    }

    /// Records a reported metric; a value that is not finite means a
    /// measurement went wrong and fails the run instead.
    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        if value.is_finite() {
            self.metrics.push((name.to_string(), value, unit));
        } else {
            self.fail(format!("metric {name} is {value}"));
        }
    }

    /// Records a raw JSON value in the detail line.
    fn raw(&mut self, key: &str, json: String) {
        self.detail.push((key.to_string(), json));
    }

    fn raw_f64s(&mut self, key: &str, values: &[f64]) {
        let items: Vec<String> = values.iter().map(|v| format!("{v:.9}")).collect();
        self.raw(key, format!("[{}]", items.join(",")));
    }

    /// Records the drift correction: every `C_run` sample, their
    /// median and the factor applied to raw seconds.
    fn calibration(&mut self, calib: &Calibrator) {
        self.raw_f64s("calibration_samples_s", calib.samples());
        self.raw("c_ref_s", format!("{:.9}", calib::C_REF_S));
        self.raw("c_run_s", format!("{:.9}", calib.c_run()));
        self.raw("correction_factor", format!("{:.6}", calib.factor()));
    }

    /// Counts a failed operation with a reason.
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
    }

    /// Compares one fingerprint against its expected value.
    fn check(&mut self, expected: u64, got: u64, what: &str) {
        if expected != got {
            self.fail(format!("{what}: report_fp {got:016x}, expected {expected:016x}"));
        }
    }

    /// Compares fingerprints pairwise; each differing pair is a failure.
    fn check_all(&mut self, expected: &[u64], got: &[u64], labels: &[String]) {
        for ((e, g), l) in expected.iter().zip(got).zip(labels) {
            self.check(*e, *g, l);
        }
    }

    /// The metrics of `manifest`, in its order and units. A metric the
    /// workload did not report is a failure, unless `zero_absent` is set,
    /// when it reads 0 and is listed on the detail line as off this
    /// workload's path. A reported metric the manifest does not list, or
    /// one in another unit, is a failure too.
    fn manifest_metrics(
        &mut self,
        manifest: &[(&'static str, &'static str)],
        zero_absent: bool,
    ) -> Vec<(&'static str, f64, &'static str)> {
        let unlisted: Vec<String> = self
            .metrics
            .iter()
            .filter(|(name, _, unit)| !manifest.iter().any(|(n, u)| n == name && u == unit))
            .map(|(name, _, unit)| format!("metric {name} ({unit}) is not in the manifest"))
            .collect();
        for what in unlisted {
            self.fail(what);
        }
        let mut absent = Vec::new();
        let chosen = manifest
            .iter()
            .map(|&(name, unit)| match self.metrics.iter().find(|(n, _, _)| n == name) {
                Some((_, value, _)) => (name, *value, unit),
                None => {
                    absent.push(format!("\"{name}\""));
                    (name, 0.0, unit)
                }
            })
            .collect();
        if !absent.is_empty() {
            if zero_absent {
                self.raw("not_on_path", format!("[{}]", absent.join(",")));
            } else {
                self.fail(format!("metrics not reported: {}", absent.join(", ")));
            }
        }
        chosen
    }

    /// Writes the tracer's spans next to the build outputs.
    fn spans(&mut self, tracer: &Tracer, args: &Args) {
        let path = std::path::PathBuf::from(".bench_out")
            .join(format!("spans-{}-{}.json", args.workload, args.seed));
        match tracer.write(&path) {
            Ok(()) => self.raw("spans_file", format!("\"{}\"", path.display())),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
}

/// Seconds after which a run that has not finished is abandoned: a
/// stalled simulation or server would otherwise block forever.
fn give_up_after(seconds: u64) -> std::time::Duration {
    std::time::Duration::from_secs(170.max(4 * seconds + 30))
}

fn main() {
    let args = parse_args();
    let limit = give_up_after(args.seconds);
    // Sleeps for the whole run; never joined, since the process exits
    // as soon as `main` returns.
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: no result after {} s; giving up", limit.as_secs());
        std::process::exit(3);
    });
    let mut outcome = match args.workload.as_str() {
        "matrix" => matrix::run(&args),
        "replay" => replay::run(&args),
        "service" => service::run(&args),
        other => usage(&format!("unknown workload {other} (matrix|replay|service)")),
    };
    let metrics = outcome.manifest_metrics(if args.trace { &PER_LAYER } else { &END_TO_END }, args.trace);
    let correct = outcome.failed == 0;
    for m in &outcome.mismatches {
        eprintln!("perfbench: MISMATCH {m}");
    }

    let mut detail = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"host_parallelism\":{}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    for (key, json) in &outcome.detail {
        let _ = write!(detail, ",\"{key}\":{json}");
    }
    detail.push('}');
    println!("{detail}");

    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(",")
    );
    if !correct {
        std::process::exit(1);
    }
}
