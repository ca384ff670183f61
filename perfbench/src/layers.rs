//! Timing wrappers around the simulator's public traits, for the traced
//! run. They sit at the boundaries between layers: [`TimedKernel`] and
//! its programs between the simulator core and instruction generation
//! (`workloads`, or `trace_bin` replay), [`TimedBackend`] between a
//! memory partition and its backend (`core`'s secure engine, or the
//! baseline DRAM channel). Each forwards every trait method unchanged,
//! so a traced simulation reports the same fingerprint as an untraced
//! one; the harness checks that it does.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use secmem_checkpoint::{CheckpointError, Reader, Writer};
use secmem_gpusim::backend::MemoryBackend;
use secmem_gpusim::config::GpuConfig;
use secmem_gpusim::dram::DramStats;
use secmem_gpusim::fault::{FaultEvent, FaultStats};
use secmem_gpusim::kernel::{Kernel, StateError, WarpProgram};
use secmem_gpusim::sim::Simulator;
use secmem_gpusim::stats::{EngineStats, SimReport};
use secmem_gpusim::types::{BackendReq, Cycle, Inst};
use secmem_telemetry::Telemetry;

use crate::spans::Tracer;

fn nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Time and calls spent in `next_inst`, shared by every program of one
/// kernel. Atomic because programs must be `Send`; the simulator steps
/// them on one thread, so the counters are never contended.
#[derive(Debug, Default)]
pub struct CallClock {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl CallClock {
    /// Seconds spent inside the wrapped calls.
    pub fn seconds(&self) -> f64 {
        self.ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Wrapped calls made.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

/// A kernel whose warp programs time their `next_inst` calls.
pub struct TimedKernel<'a> {
    inner: &'a dyn Kernel,
    clock: Arc<CallClock>,
}

impl<'a> TimedKernel<'a> {
    /// Wraps `inner`; every spawned program reports into `clock`.
    pub fn new(inner: &'a dyn Kernel, clock: Arc<CallClock>) -> Self {
        Self { inner, clock }
    }
}

impl Kernel for TimedKernel<'_> {
    fn active_sms(&self, available_sms: u32) -> u32 {
        self.inner.active_sms(available_sms)
    }

    fn warps_per_sm(&self, sm: u32) -> u32 {
        self.inner.warps_per_sm(sm)
    }

    fn spawn(&self, sm: u32, warp: u32) -> Box<dyn WarpProgram + Send> {
        Box::new(TimedProgram { inner: self.inner.spawn(sm, warp), clock: self.clock.clone() })
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

struct TimedProgram {
    inner: Box<dyn WarpProgram + Send>,
    clock: Arc<CallClock>,
}

impl WarpProgram for TimedProgram {
    fn next_inst(&mut self) -> Inst {
        let start = Instant::now();
        let inst = self.inner.next_inst();
        self.clock.ns.fetch_add(nanos_since(start), Ordering::Relaxed);
        self.clock.calls.fetch_add(1, Ordering::Relaxed);
        inst
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        self.inner.save_state(out);
    }

    fn restore_state(&mut self, state: &[u64]) -> Result<(), StateError> {
        self.inner.restore_state(state)
    }
}

/// What one [`TimedBackend`] observed.
#[derive(Debug, Default, Clone, Copy)]
pub struct BackendClock {
    /// Nanoseconds inside `cycle`, `submit_*`, `pop_read_response` and
    /// `next_event_cycle`.
    pub busy_ns: u64,
    /// Nanoseconds inside `cycle` alone.
    pub cycle_ns: u64,
    /// `cycle` calls: partition-cycles that idle-skip did not skip.
    pub cycle_calls: u64,
    /// Reads submitted.
    pub submit_reads: u64,
    /// Writebacks submitted.
    pub submit_writes: u64,
    /// `next_event_cycle` answers given.
    pub next_event_answers: u64,
    /// Answers that were `now` or `now + 1`, which leave idle-skip
    /// nothing to skip.
    pub next_event_pinned: u64,
}

impl BackendClock {
    /// Adds another partition's observations.
    pub fn merge(&mut self, other: &BackendClock) {
        self.busy_ns += other.busy_ns;
        self.cycle_ns += other.cycle_ns;
        self.cycle_calls += other.cycle_calls;
        self.submit_reads += other.submit_reads;
        self.submit_writes += other.submit_writes;
        self.next_event_answers += other.next_event_answers;
        self.next_event_pinned += other.next_event_pinned;
    }
}

/// A memory backend that times and counts the calls a partition makes
/// into it.
///
/// The tallies sit in a `Cell` because `next_event_cycle` takes `&self`;
/// `MemoryBackend` asks for `Send` only, which a `Cell` is.
#[derive(Debug)]
pub struct TimedBackend<B> {
    inner: B,
    clock: Cell<BackendClock>,
}

impl<B> TimedBackend<B> {
    /// Wraps `inner`.
    pub fn new(inner: B) -> Self {
        Self { inner, clock: Cell::new(BackendClock::default()) }
    }

    /// What this backend observed so far.
    pub fn clock(&self) -> BackendClock {
        self.clock.get()
    }

    fn record(&self, start: Instant, tally: impl FnOnce(&mut BackendClock, u64)) {
        let mut clock = self.clock.get();
        let ns = nanos_since(start);
        clock.busy_ns += ns;
        tally(&mut clock, ns);
        self.clock.set(clock);
    }
}

impl<B: MemoryBackend> MemoryBackend for TimedBackend<B> {
    fn can_accept_read(&self) -> bool {
        self.inner.can_accept_read()
    }

    fn can_accept_write(&self) -> bool {
        self.inner.can_accept_write()
    }

    fn submit_read(&mut self, now: Cycle, req: BackendReq) {
        let start = Instant::now();
        self.inner.submit_read(now, req);
        self.record(start, |c, _| c.submit_reads += 1);
    }

    fn submit_write(&mut self, now: Cycle, req: BackendReq) {
        let start = Instant::now();
        self.inner.submit_write(now, req);
        self.record(start, |c, _| c.submit_writes += 1);
    }

    fn cycle(&mut self, now: Cycle) {
        let start = Instant::now();
        self.inner.cycle(now);
        self.record(start, |c, ns| {
            c.cycle_calls += 1;
            c.cycle_ns += ns;
        });
    }

    fn pop_read_response(&mut self) -> Option<BackendReq> {
        let start = Instant::now();
        let response = self.inner.pop_read_response();
        self.record(start, |_, _| {});
        response
    }

    fn dram_stats(&self) -> &DramStats {
        self.inner.dram_stats()
    }

    fn engine_stats(&self) -> EngineStats {
        self.inner.engine_stats()
    }

    fn fault_stats(&self) -> FaultStats {
        self.inner.fault_stats()
    }

    fn fault_events(&self) -> &[FaultEvent] {
        self.inner.fault_events()
    }

    fn pending_work(&self) -> usize {
        self.inner.pending_work()
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        let start = Instant::now();
        let answer = self.inner.next_event_cycle(now);
        self.record(start, |c, _| {
            c.next_event_answers += 1;
            if matches!(answer, Some(at) if at <= now + 1) {
                c.next_event_pinned += 1;
            }
        });
        answer
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn set_telemetry(&mut self, telemetry: Telemetry, partition: u32) {
        self.inner.set_telemetry(telemetry, partition);
    }

    fn meta_mshr_occupancy(&self) -> usize {
        self.inner.meta_mshr_occupancy()
    }

    fn save_state(&self, w: &mut Writer) {
        self.inner.save_state(w);
    }

    fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.inner.restore_state(r)
    }
}

/// A traced simulation's report and what its wrappers observed.
pub struct Traced {
    /// The simulation's report (the same as an untraced run's).
    pub report: SimReport,
    /// Backend calls, summed over partitions.
    pub backend: BackendClock,
    /// Seconds inside `next_inst`.
    pub insts_s: f64,
    /// `next_inst` calls.
    pub insts: u64,
}

/// Runs `kernel` for `cycles` with every boundary wrapped, inside a
/// `gpusim` span under `parent`. The backend and program time become
/// aggregate children of that span, charged to `backend_layer` and
/// `program_layer`.
#[allow(clippy::too_many_arguments)]
pub fn simulate_traced<B: MemoryBackend>(
    kernel: &dyn Kernel,
    gpu: &GpuConfig,
    cycles: u64,
    tracer: &mut Tracer,
    parent: Option<usize>,
    detail: String,
    (backend_layer, program_layer): (&'static str, &'static str),
    mut factory: impl FnMut(&GpuConfig) -> B,
) -> Traced {
    let span = tracer.open("gpusim", "Simulator::run", detail, parent);
    let clock = Arc::new(CallClock::default());
    let timed = TimedKernel::new(kernel, clock.clone());
    let mut sim = Simulator::new(gpu.clone(), &timed, |_, g| TimedBackend::new(factory(g)));
    let report = sim.run(cycles);
    tracer.close(span);
    let mut backend = BackendClock::default();
    for p in 0..gpu.num_partitions {
        backend.merge(&sim.partition(p).backend().clock());
    }
    let calls = backend.cycle_calls + backend.submit_reads + backend.submit_writes;
    tracer.aggregate(backend_layer, "MemoryBackend", span, backend.busy_ns, calls);
    tracer.aggregate(
        program_layer,
        "WarpProgram::next_inst",
        span,
        clock.ns.load(Ordering::Relaxed),
        clock.calls(),
    );
    Traced { report, backend, insts_s: clock.seconds(), insts: clock.calls() }
}
