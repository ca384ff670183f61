//! `replay`: the baseline scheme on the Volta-size GPU (80 SMs, 32
//! partitions), replaying SECMTRC binary traces.
//!
//! Set-up records one trace per benchmark from the pinned synthetic
//! kernels (the suite's default seed) and writes it to disk; each timed
//! job loads a trace with `TraceKernel::from_file` and replays it to
//! completion. Every replay of every pass is checked against its pinned
//! `report_fp`; the run's seed draws the order in which each pass visits
//! the traces. `core` and `workloads` do no work here, so an
//! optimization of the secure engine must read "no change"; the
//! simulator core (80 SMs, 32 partitions of model state), baseline DRAM
//! and `trace_bin` carry the host time.

use std::path::{Path, PathBuf};
use std::time::Instant;

use secmem_bench::sweep::report_fingerprint;
use secmem_gpusim::backend::PassthroughBackend;
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::sim::Simulator;
use secmem_gpusim::stats::SimReport;
use secmem_gpusim::trace::{Trace, TraceKernel};
use secmem_gpusim::trace_bin;
use secmem_workloads::{suite, SyntheticKernel};

use crate::calib::Calibrator;
use crate::layers::{simulate_traced, BackendClock};
use crate::spans::Tracer;
use crate::stats::{median, Orders};
use crate::{Args, Outcome};

/// One trace per access-pattern class: streaming, scatter, chase.
const BENCHES: [&str; 3] = ["fdtd2d", "kmeans", "b+tree"];
/// Instructions recorded per warp.
const INSTS_PER_WARP: usize = 400;
/// Cycle cap; every trace retires well before it.
const CYCLE_CAP: u64 = 2_000_000;

/// `report_fp` of each replay of the pinned traces.
const PINNED_FP: [u64; 3] = [0x47a9b02b82f3b5e7, 0xe45f864595899e80, 0x03de378d37b4dad0];

fn record(gpu: &GpuConfig, dir: &Path) -> Vec<PathBuf> {
    BENCHES
        .iter()
        .map(|name| {
            let spec =
                suite::all_specs().into_iter().find(|s| s.name == *name).expect("replay bench in suite");
            let kernel = SyntheticKernel::new(spec, suite::DEFAULT_SEED);
            let trace = Trace::record(&kernel, gpu.num_sms, INSTS_PER_WARP);
            let path = dir.join(format!("{}.smtrc", name.replace('+', "")));
            if let Err(e) = trace_bin::write_file(&trace, &path) {
                eprintln!("perfbench: cannot write {}: {e}", path.display());
                std::process::exit(2);
            }
            path
        })
        .collect()
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let gpu = GpuConfig::volta();
    let dir = PathBuf::from(".bench_out").join(format!("replay-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        std::process::exit(2);
    }
    let mut calib = Calibrator::new();
    let mut out = Outcome::new();

    // Set-up is repeated after every pass, rewriting the same files, so
    // `setup_s` is a median over the whole window.
    let mut setup_raw = Vec::new();
    let mut set_up = |calib: &mut Calibrator| {
        calib.sample();
        let start = Instant::now();
        let paths = record(&gpu, &dir);
        setup_raw.push(start.elapsed().as_secs_f64());
        paths
    };
    let paths = set_up(&mut calib);
    let file_bytes: u64 = paths.iter().map(|p| std::fs::metadata(p).map_or(0, |m| m.len())).sum();

    // The traced run alternates untraced and traced passes, so both see
    // the same host conditions and their rates give what tracing costs.
    let deadline = args.seconds as f64;
    let labels: Vec<String> = BENCHES.iter().map(|b| format!("replay {b}")).collect();
    let mut orders = Orders::new(args.seed);
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); paths.len()];
    let mut traced_times: Vec<Vec<f64>> = vec![Vec::new(); paths.len()];
    let mut first: Vec<Option<SimReport>> = vec![None; paths.len()];
    let mut tracer = Tracer::new();
    let mut dram = BackendClock::default();
    let (mut insts_s, mut insts, mut resident) = (0.0, 0u64, 0u64);
    let (mut passes, mut traced_passes) = (0usize, 0usize);
    let window = Instant::now();
    loop {
        let elapsed = window.elapsed().as_secs_f64();
        if elapsed >= deadline && passes > 0 && (!args.trace || traced_passes > 0) {
            break;
        }
        let traced = args.trace && passes % 2 == 1;
        let pass_span = traced.then(|| tracer.open("bench", "replay.pass", String::new(), None));
        for i in orders.next(paths.len()) {
            let path = &paths[i];
            calib.sample();
            let start = Instant::now();
            let report = match pass_span {
                Some(parent) => {
                    let load =
                        tracer.open("trace_bin", "TraceKernel::from_file", String::new(), Some(parent));
                    let kernel = TraceKernel::from_file(path).expect("trace written during set-up loads");
                    tracer.close(load);
                    resident += kernel.resident_bytes() as u64;
                    let traced = simulate_traced(
                        &kernel,
                        &gpu,
                        CYCLE_CAP,
                        &mut tracer,
                        Some(parent),
                        BENCHES[i].to_string(),
                        ("gpusim.dram", "trace_bin"),
                        PassthroughBackend::from_config,
                    );
                    dram.merge(&traced.backend);
                    insts_s += traced.insts_s;
                    insts += traced.insts;
                    traced.report
                }
                None => {
                    let kernel = TraceKernel::from_file(path).expect("trace written during set-up loads");
                    Simulator::new(gpu.clone(), &kernel, |_, g| PassthroughBackend::from_config(g))
                        .run(CYCLE_CAP)
                }
            };
            let secs = start.elapsed().as_secs_f64();
            if traced {
                traced_times[i].push(secs);
            } else {
                times[i].push(secs);
            }
            out.attempted += 1;
            if report.stall.is_some() || report.cycles >= CYCLE_CAP {
                out.fail(format!("{}: replay did not retire", BENCHES[i]));
            }
            out.check(PINNED_FP[i], report_fingerprint(&report), &labels[i]);
            first[i].get_or_insert(report);
        }
        if let Some(span) = pass_span {
            tracer.close(span);
            traced_passes += 1;
        }
        passes += 1;
        set_up(&mut calib);
    }
    let _ = std::fs::remove_dir_all(&dir);

    let first: Vec<SimReport> = first.into_iter().map(|r| r.expect("every trace replayed")).collect();
    let cycles: Vec<u64> = first.iter().map(|r| r.cycles).collect();
    let warp_insts: u64 = first.iter().map(|r| r.warp_instructions).sum();
    let l2_accesses: u64 = first.iter().map(|r| r.l2.hits + r.l2.misses).sum();
    let factor = calib.factor();
    let total_cycles: u64 = cycles.iter().sum();
    let rate =
        |times: &[Vec<f64>]| total_cycles as f64 / times.iter().map(|t| median(t) * factor).sum::<f64>();
    let cycles_per_s = rate(&times);

    out.raw("passes", passes.to_string());
    out.raw("traced_passes", traced_passes.to_string());
    out.raw("trace_file_bytes", file_bytes.to_string());
    out.raw("job_cycles", format!("{cycles:?}"));
    out.raw_f64s("setup_raw_s", &setup_raw);
    out.raw_f64s("job_median_raw_s", &times.iter().map(|t| median(t)).collect::<Vec<_>>());
    let fps: Vec<String> = first.iter().map(|r| format!("\"{:016x}\"", report_fingerprint(r))).collect();
    out.raw("report_fp", format!("[{}]", fps.join(",")));
    let pass_raw: Vec<f64> = (0..times[0].len()).map(|p| times.iter().map(|t| t[p]).sum()).collect();
    out.raw_f64s("pass_raw_s", &pass_raw);
    out.calibration(&calib);

    if !args.trace {
        // A pass is one sweep of the traces, and every replay of it
        // simulates; the slowest unit is the longest replay.
        let slowest_s = times.iter().map(|t| median(t)).fold(0.0, f64::max);
        out.metric("sim_cycles_per_s", cycles_per_s, "cycles/s");
        out.metric("sweeps_per_s", cycles_per_s / total_cycles as f64, "1/s");
        out.metric("miss_sweep_p50_ms", median(&pass_raw) * factor * 1e3, "ms");
        out.metric("slowest_p50_ms", slowest_s * factor * 1e3, "ms");
        out.metric("setup_s", median(&setup_raw) * factor, "s");
        out.metric("peak_rss_mb", crate::stats::peak_rss_mb(), "MiB");
        return out;
    }
    let n = traced_passes as f64;
    let per_pass = |secs: f64| secs * factor / n;
    let self_s = tracer.self_seconds();
    let gpusim_self = per_pass(self_s.get("gpusim").copied().unwrap_or(0.0));
    out.metric("gpusim.self_s", gpusim_self, "s");
    out.metric("gpusim.self_ns_per_cycle", gpusim_self * 1e9 / total_cycles as f64, "ns");
    out.metric(
        "gpusim.part_step_ratio",
        dram.cycle_calls as f64 / (n * total_cycles as f64 * f64::from(gpu.num_partitions)),
        "ratio",
    );
    out.metric("gpusim.warp_insts", warp_insts as f64, "count");
    out.metric("gpusim.l2_accesses", l2_accesses as f64, "count");
    out.metric("gpusim.dram.busy_s", per_pass(dram.busy_ns as f64 * 1e-9), "s");
    out.metric("gpusim.dram.requests", (dram.submit_reads + dram.submit_writes) as f64 / n, "count");
    out.metric("trace_bin.load_s", per_pass(tracer.total("trace_bin", "TraceKernel::from_file").0), "s");
    out.metric("trace_bin.next_inst_s", per_pass(insts_s), "s");
    out.metric("trace_bin.insts", insts as f64 / n, "count");
    out.metric("trace_bin.resident_bytes", resident as f64 / n, "bytes");
    out.metric("trace.overhead_ratio", rate(&traced_times) / cycles_per_s, "ratio");
    out.spans(&tracer, args);
    out
}
