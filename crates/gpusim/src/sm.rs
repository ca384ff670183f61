//! The streaming multiprocessor (SM) model.
//!
//! Each SM holds a set of resident warps, a greedy-then-oldest (GTO)
//! scheduler issuing up to `issue_width` warp instructions per cycle, a
//! sectored write-through L1 with MSHRs, and a dispatch queue that feeds
//! coalesced accesses into the interconnect. The model captures what the
//! paper's analysis depends on: thread-level parallelism hides memory
//! latency until either warps run out (small kernels like `nw`) or a
//! downstream resource (MSHRs, DRAM bandwidth) saturates.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use secmem_checkpoint::{CheckpointError, Reader, Snapshot, Writer};

use crate::cache::{Probe, SectoredCache};
use crate::config::{GpuConfig, SchedulerPolicy};
use crate::kernel::WarpProgram;
use crate::mshr::{FillOutcome, MshrFile, MshrOutcome};
use crate::types::{Access, AccessKind, Cycle, Inst, MemRequest, SectorMask, WarpRef};

/// Maximum occupancy of the access dispatch queue before instruction
/// issue pauses (keeps divergent loads from ballooning memory).
const DISPATCH_HIGH_WATERMARK: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingAccess {
    warp: u32,
    access: Access,
    kind: AccessKind,
}

/// Result of an issue-eligibility check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IssueCheck {
    Yes,
    /// Waits for an outstanding load to return.
    BlockedOnMem,
    /// A memory instruction waits for the dispatch queue to drain.
    BlockedOnDispatch,
    /// The warp fetched `Exit` and retired.
    Retired,
}

struct WarpSlot {
    program: Box<dyn WarpProgram + Send>,
    /// Fetched but not yet issued instruction (held across stall cycles).
    next: Option<Inst>,
    ready_at: Cycle,
    outstanding: u32,
    finished: bool,
}

impl WarpSlot {
    /// True when the fetched instruction cannot issue until an outstanding
    /// memory response returns. Only the warp's own issue raises
    /// `outstanding`, so once true this stays true until a response lowers
    /// it.
    fn blocked_on_mem(&self, max_outstanding: u32) -> bool {
        match self.next.as_ref() {
            Some(Inst::Alu { wait_mem, .. }) => *wait_mem && self.outstanding > 0,
            // The cap throttles *additional* loads; a single load wider
            // than the cap (divergent scatter) still issues when the warp
            // has nothing outstanding.
            Some(Inst::Load { accesses, dependent }) => {
                self.outstanding > 0
                    && (*dependent
                        || self.outstanding
                            + crate::narrow::usize_to_u32(
                                accesses.len(),
                                "warp access list is bounded by threads_per_warp",
                            )
                            > max_outstanding)
            }
            _ => false,
        }
    }
}

impl core::fmt::Debug for WarpSlot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("WarpSlot")
            .field("ready_at", &self.ready_at)
            .field("outstanding", &self.outstanding)
            .field("finished", &self.finished)
            .finish()
    }
}

/// A set of warp indices: one bit per warp over ⌈warps/64⌉ words, plus a
/// member count so emptiness is O(1).
#[derive(Debug)]
struct WarpSet {
    words: Vec<u64>,
    len: usize,
}

impl WarpSet {
    fn new(warps: usize) -> Self {
        Self { words: vec![0; warps.div_ceil(64)], len: 0 }
    }

    fn contains(&self, w: usize) -> bool {
        self.words[w / 64] & (1 << (w % 64)) != 0
    }

    fn insert(&mut self, w: usize) {
        let word = &mut self.words[w / 64];
        let bit = 1 << (w % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.len += 1;
        }
    }

    fn remove(&mut self, w: usize) {
        let word = &mut self.words[w / 64];
        let bit = 1 << (w % 64);
        if *word & bit != 0 {
            *word &= !bit;
            self.len -= 1;
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Moves every member of `other` into `self`.
    fn absorb(&mut self, other: &mut WarpSet) {
        self.len = 0;
        for (mine, theirs) in self.words.iter_mut().zip(&mut other.words) {
            *mine |= std::mem::take(theirs);
            self.len += mine.count_ones() as usize;
        }
        other.len = 0;
    }

    /// The smallest member at or after `from`.
    fn first_from(&self, from: usize) -> Option<usize> {
        let mut i = from / 64;
        let mut word = self.words.get(i)? & (!0u64 << (from % 64));
        loop {
            if word != 0 {
                return Some(i * 64 + word.trailing_zeros() as usize);
            }
            i += 1;
            word = *self.words.get(i)?;
        }
    }
}

/// Requests an SM wants to place on the interconnect this cycle.
#[derive(Debug, Default)]
pub struct SmOutput {
    /// Memory requests bound for partitions.
    pub requests: Vec<MemRequest>,
}

/// One streaming multiprocessor.
///
/// Every unfinished warp sits in exactly one readiness set, so issue only
/// visits warps whose verdict can have changed:
///
/// * `ready` — awake and not known to be blocked (possibly not fetched);
/// * `mem_blocked` — its fetched instruction waits on `outstanding`,
///   woken when a response lowers it enough;
/// * `dispatch_blocked` — a memory instruction waiting for the dispatch
///   queue, woken at the start of a scan that finds the queue open;
/// * `sleepers` — issued and waiting for `ready_at`, at most one heap
///   entry per warp.
///
/// The sets are derived from the warp slots: checkpoints do not store
/// them, and restore rebuilds them.
#[derive(Debug)]
pub struct Sm {
    id: u32,
    issue_width: u32,
    scheduler: SchedulerPolicy,
    threads_per_warp: u32,
    l1_latency: Cycle,
    l1_ports: u32,
    max_outstanding: u32,
    warps: Vec<WarpSlot>,
    l1: SectoredCache,
    l1_mshrs: MshrFile<u32>,
    /// Scratch for draining completed MSHR targets (reused every fill).
    fill_targets: Vec<u32>,
    dispatch: VecDeque<PendingAccess>,
    hit_returns: BinaryHeap<Reverse<(Cycle, u32)>>,
    ready: WarpSet,
    mem_blocked: WarpSet,
    dispatch_blocked: WarpSet,
    sleepers: BinaryHeap<Reverse<(Cycle, u32)>>,
    last_issued: u32,
    next_req_id: u64,
    /// Warp instructions issued.
    pub instructions: u64,
    /// Cycles with zero issue while at least one warp waited on memory.
    pub mem_stall_cycles: u64,
}

impl Sm {
    /// Creates an SM with `programs` resident warps.
    pub fn new(id: u32, cfg: &GpuConfig, programs: Vec<Box<dyn WarpProgram + Send>>) -> Self {
        let warps: Vec<WarpSlot> = programs
            .into_iter()
            .map(|program| WarpSlot { program, next: None, ready_at: 0, outstanding: 0, finished: false })
            .collect();
        let n = warps.len();
        let mut sm = Self {
            id,
            issue_width: cfg.issue_width,
            scheduler: cfg.scheduler,
            threads_per_warp: cfg.threads_per_warp,
            l1_latency: cfg.l1_latency as Cycle,
            l1_ports: cfg.l1_ports,
            max_outstanding: cfg.max_outstanding_loads.max(1),
            warps,
            l1: SectoredCache::new(cfg.l1_bytes, cfg.l1_assoc),
            l1_mshrs: MshrFile::new(cfg.l1_mshrs as usize, cfg.l1_mshr_merge as usize),
            fill_targets: Vec::new(),
            dispatch: VecDeque::new(),
            hit_returns: BinaryHeap::new(),
            ready: WarpSet::new(n),
            mem_blocked: WarpSet::new(n),
            dispatch_blocked: WarpSet::new(n),
            sleepers: BinaryHeap::with_capacity(n),
            last_issued: 0,
            next_req_id: (id as u64) << 40,
            instructions: 0,
            mem_stall_cycles: 0,
        };
        sm.rebuild_readiness();
        sm
    }

    /// This SM's index.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Resets statistics (warp state preserved) — used to discard warmup.
    pub fn reset_stats(&mut self) {
        self.instructions = 0;
        self.mem_stall_cycles = 0;
        self.l1.reset_stats();
        self.l1_mshrs.reset_stats();
    }

    /// Number of thread instructions issued so far.
    pub fn thread_instructions(&self) -> u64 {
        self.instructions * self.threads_per_warp as u64
    }

    /// The L1 cache statistics.
    pub fn l1_stats(&self) -> crate::cache::CacheStats {
        self.l1.stats()
    }

    /// True when every warp has retired.
    pub fn finished(&self) -> bool {
        self.warps.iter().all(|w| w.finished)
    }

    /// Number of resident warps.
    pub fn warp_count(&self) -> usize {
        self.warps.len()
    }

    /// Number of resident warps that have not yet retired (stall
    /// diagnostics).
    pub fn unfinished_warps(&self) -> usize {
        self.warps.iter().filter(|w| !w.finished).count()
    }

    /// Places every unfinished warp in its readiness set from the warp
    /// slots alone. A warp without a fetched instruction goes to the
    /// sleepers whatever its `ready_at`: the next scan wakes it when due.
    fn rebuild_readiness(&mut self) {
        self.ready.clear();
        self.mem_blocked.clear();
        self.dispatch_blocked.clear();
        self.sleepers.clear();
        for (w, slot) in self.warps.iter().enumerate() {
            if slot.finished {
                continue;
            }
            if slot.next.is_none() {
                self.sleepers.push(Reverse((slot.ready_at, crate::narrow::usize_to_u32(w, "warp index"))));
            } else if slot.blocked_on_mem(self.max_outstanding) {
                self.mem_blocked.insert(w);
            } else {
                self.ready.insert(w);
            }
        }
    }

    /// Lowers warp `w`'s outstanding count after a response and wakes it
    /// if that unblocked its fetched instruction.
    fn note_returned(&mut self, w: usize) {
        let slot = &mut self.warps[w];
        debug_assert!(slot.outstanding > 0);
        slot.outstanding = slot.outstanding.saturating_sub(1);
        if self.mem_blocked.contains(w) && !slot.blocked_on_mem(self.max_outstanding) {
            self.mem_blocked.remove(w);
            self.ready.insert(w);
        }
    }

    /// Delivers a memory response (an L2/engine fill) to this SM.
    pub fn on_response(&mut self, resp: &MemRequest) {
        let line = resp.line_addr;
        self.fill_targets.clear();
        match self.l1_mshrs.note_fill(line, resp.sectors, &mut self.fill_targets) {
            FillOutcome::Untracked => {
                // No waiter (e.g. the entry was satisfied already).
                self.l1.fill(line, resp.sectors, SectorMask::EMPTY);
            }
            FillOutcome::Partial => {}
            FillOutcome::Complete(sectors) => {
                // Fill exactly the sectors the entry requested, as before.
                self.l1.fill(line, sectors, SectorMask::EMPTY);
                for i in 0..self.fill_targets.len() {
                    self.note_returned(self.fill_targets[i] as usize);
                }
            }
        }
    }

    /// True when a warp waits on memory or on the dispatch queue: the
    /// condition under which a cycle without issue is a memory stall.
    fn stalled_on_mem(&self) -> bool {
        !self.mem_blocked.is_empty() || !self.dispatch_blocked.is_empty()
    }

    /// Earliest cycle at or after `now` at which this SM can make
    /// progress on its own (dispatch queued accesses, retire an L1 hit,
    /// or issue a warp instruction). `None` when every warp is finished
    /// or blocked on memory — external responses re-awaken the SM via
    /// the interconnect's own events. Used by the idle-skip scheduler.
    pub fn next_event_cycle(&self, now: Cycle) -> Option<Cycle> {
        // A ready warp acts now; a dispatch-blocked one is re-examined
        // now (the queue is non-empty, or it opened and the next scan
        // wakes it). Memory-blocked warps have no self-contained wakeup.
        if !self.dispatch.is_empty() || !self.ready.is_empty() || !self.dispatch_blocked.is_empty() {
            return Some(now);
        }
        let hit = self.hit_returns.peek().map(|Reverse((at, _))| *at);
        let wake = self.sleepers.peek().map(|Reverse((at, _))| *at);
        hit.into_iter().chain(wake).min().map(|c| c.max(now))
    }

    /// Accounts `cycles` fast-forwarded quiescent cycles: a gap cycle in
    /// which at least one warp waits on memory is a memory-stall cycle,
    /// exactly as the per-cycle issue loop would have counted it.
    pub fn account_idle_stall(&mut self, cycles: u64) {
        if self.stalled_on_mem() {
            self.mem_stall_cycles += cycles;
        }
    }

    /// Advances the SM by one cycle. Outgoing requests are appended to
    /// `out`; `icnt_room` reports how many of them the interconnect can
    /// still take (the SM stops dispatching when it reaches zero).
    pub fn cycle(&mut self, now: Cycle, icnt_room: usize, out: &mut SmOutput) {
        self.drain_hit_returns(now);
        self.dispatch_accesses(now, icnt_room, out);
        self.issue(now);
    }

    fn drain_hit_returns(&mut self, now: Cycle) {
        while let Some(Reverse((at, warp))) = self.hit_returns.peek().copied() {
            if at > now {
                break;
            }
            self.hit_returns.pop();
            self.note_returned(warp as usize);
        }
    }
    fn dispatch_accesses(&mut self, now: Cycle, mut icnt_room: usize, out: &mut SmOutput) {
        for _ in 0..self.l1_ports {
            let Some(pa) = self.dispatch.front().copied() else { break };
            match pa.kind {
                AccessKind::Load => {
                    let want = match self.l1.peek(pa.access.line_addr, pa.access.sectors) {
                        Probe::Hit => {
                            // Count the hit / refresh LRU now that it is consumed.
                            let _ = self.l1.probe(pa.access.line_addr, pa.access.sectors);
                            self.hit_returns.push(Reverse((now + self.l1_latency, pa.warp)));
                            self.dispatch.pop_front();
                            continue;
                        }
                        Probe::PartialMiss(missing) => missing,
                        Probe::Miss => pa.access.sectors,
                    };
                    // Without interconnect room we cannot risk allocating an
                    // MSHR whose request we could not send.
                    if icnt_room == 0 {
                        return;
                    }
                    match self.l1_mshrs.access(pa.access.line_addr, want, pa.warp) {
                        MshrOutcome::Allocated => {
                            let _ = self.l1.probe(pa.access.line_addr, pa.access.sectors);
                            out.requests.push(self.make_request(
                                pa.access.line_addr,
                                want,
                                AccessKind::Load,
                                Some(pa.warp),
                            ));
                            icnt_room -= 1;
                            self.dispatch.pop_front();
                        }
                        MshrOutcome::MergedNewSectors(m) => {
                            let _ = self.l1.probe(pa.access.line_addr, pa.access.sectors);
                            out.requests.push(self.make_request(
                                pa.access.line_addr,
                                m,
                                AccessKind::Load,
                                Some(pa.warp),
                            ));
                            icnt_room -= 1;
                            self.dispatch.pop_front();
                        }
                        MshrOutcome::Merged => {
                            let _ = self.l1.probe(pa.access.line_addr, pa.access.sectors);
                            self.dispatch.pop_front();
                        }
                        MshrOutcome::Full(_) => return,
                    }
                }
                AccessKind::Store => {
                    if icnt_room == 0 {
                        return;
                    }
                    // Write-through, write-no-allocate L1: drop stale sectors.
                    self.l1.invalidate_sectors(pa.access.line_addr, pa.access.sectors);
                    out.requests.push(self.make_request(
                        pa.access.line_addr,
                        pa.access.sectors,
                        AccessKind::Store,
                        None,
                    ));
                    icnt_room -= 1;
                    self.dispatch.pop_front();
                }
            }
        }
    }

    fn make_request(
        &mut self,
        line_addr: u64,
        sectors: SectorMask,
        kind: AccessKind,
        warp: Option<u32>,
    ) -> MemRequest {
        self.next_req_id += 1;
        MemRequest {
            id: self.next_req_id,
            line_addr,
            sectors,
            kind,
            warp: warp.map(|w| WarpRef { sm: self.id, warp: w }),
        }
    }

    /// Decides whether warp `w`'s pending instruction can issue now, after
    /// fetching it if needed. Retires the warp on `Exit`.
    fn issuable(&mut self, w: usize, dispatch_open: bool) -> IssueCheck {
        let slot = &mut self.warps[w];
        debug_assert!(!slot.finished, "retired warps leave every readiness set");
        if slot.next.is_none() {
            // lint:allow(T1): warp programs materialize one Inst per fetch; its coalesced-access list is heap-backed by design (trace format)
            let inst = slot.program.next_inst();
            if matches!(inst, Inst::Exit) {
                slot.finished = true;
                return IssueCheck::Retired;
            }
            slot.next = Some(inst);
        }
        if slot.blocked_on_mem(self.max_outstanding) {
            return IssueCheck::BlockedOnMem;
        }
        match slot.next {
            Some(Inst::Load { .. } | Inst::Store { .. }) if !dispatch_open => IssueCheck::BlockedOnDispatch,
            _ => IssueCheck::Yes,
        }
    }

    /// Examines ready warp `w` and issues its instruction if it can,
    /// moving the warp to the set its verdict calls for. Returns true when
    /// it issued.
    fn try_issue(&mut self, w: usize, now: Cycle, dispatch_open: bool) -> bool {
        self.ready.remove(w);
        match self.issuable(w, dispatch_open) {
            IssueCheck::Yes => {}
            IssueCheck::BlockedOnMem => {
                self.mem_blocked.insert(w);
                return false;
            }
            IssueCheck::BlockedOnDispatch => {
                self.dispatch_blocked.insert(w);
                return false;
            }
            IssueCheck::Retired => return false,
        }
        let warp = crate::narrow::usize_to_u32(w, "warp index < max_warps_per_sm");
        self.last_issued = warp;
        let Some(inst) = self.warps[w].next.take() else {
            debug_assert!(false, "issuable implies fetched");
            return false;
        };
        let ready_at = match inst {
            Inst::Alu { stall, .. } => now + stall.max(1) as Cycle,
            Inst::Load { accesses, .. } => {
                self.warps[w].outstanding += crate::narrow::usize_to_u32(
                    accesses.len(),
                    "warp access list is bounded by threads_per_warp",
                );
                for access in accesses {
                    self.dispatch.push_back(PendingAccess { warp, access, kind: AccessKind::Load });
                }
                now + 1
            }
            Inst::Store { accesses } => {
                for access in accesses {
                    self.dispatch.push_back(PendingAccess { warp, access, kind: AccessKind::Store });
                }
                now + 1
            }
            // Fetch retires `Exit`; it never reaches the issue queue.
            Inst::Exit => {
                debug_assert!(false, "exit never stored");
                now + 1
            }
        };
        self.warps[w].ready_at = ready_at;
        self.sleepers.push(Reverse((ready_at, warp)));
        self.instructions += 1;
        true
    }

    /// Issues up to `issue_width` instructions from the ready warps.
    ///
    /// GTO visits the last issued warp first (greedy), then the rest
    /// oldest (lowest index) first; LRR rotates, starting after the last
    /// issued warp. This is the order a per-slot rescan of every warp
    /// would examine them in, restricted to the warps whose verdict can
    /// have changed, so fetches (and `Exit` retirements) happen on the
    /// same cycles: the scan stops at the `issue_width`-th issue.
    fn issue(&mut self, now: Cycle) {
        let n = self.warps.len();
        if n == 0 {
            return;
        }
        while let Some(Reverse((at, w))) = self.sleepers.peek().copied() {
            if at > now {
                break;
            }
            self.sleepers.pop();
            self.ready.insert(w as usize);
        }
        // The verdict against the queue is frozen for the whole scan.
        let dispatch_open = self.dispatch.len() < DISPATCH_HIGH_WATERMARK;
        if dispatch_open && !self.dispatch_blocked.is_empty() {
            self.ready.absorb(&mut self.dispatch_blocked);
        }
        let mut issued = 0;
        let last = self.last_issued as usize;
        let start = match self.scheduler {
            SchedulerPolicy::Gto => {
                if self.issue_width > 0
                    && self.ready.contains(last)
                    && self.try_issue(last, now, dispatch_open)
                {
                    issued += 1;
                }
                0
            }
            SchedulerPolicy::Lrr => (last + 1) % n,
        };
        // Examined warps leave `ready` and nothing joins it mid-scan, so
        // each warp is examined at most once: from `start` to the end,
        // then wrapping round to just before `start`.
        let mut cursor = start;
        let mut wrapped = false;
        while issued < self.issue_width {
            let w = match self.ready.first_from(cursor) {
                Some(w) if !wrapped || w < start => w,
                _ if !wrapped && start > 0 => {
                    wrapped = true;
                    cursor = 0;
                    continue;
                }
                _ => break,
            };
            cursor = w + 1;
            if self.try_issue(w, now, dispatch_open) {
                issued += 1;
            }
        }
        if issued == 0 && self.stalled_on_mem() {
            self.mem_stall_cycles += 1;
        }
    }

    /// Serializes the SM's dynamic state: warp progress (via
    /// [`WarpProgram::save_state`]), the L1 and its MSHRs, the dispatch
    /// queue, pending hit returns and the issue bookkeeping. Scratch
    /// buffers and the readiness sets are not saved; the sets follow from
    /// the warp slots.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_usize(self.warps.len());
        let mut words: Vec<u64> = Vec::new();
        for slot in &self.warps {
            words.clear();
            slot.program.save_state(&mut words);
            words.save(w);
            slot.next.save(w);
            w.put_u64(slot.ready_at);
            w.put_u32(slot.outstanding);
            w.put_bool(slot.finished);
        }
        self.l1.save_state(w);
        self.l1_mshrs.save_state(w);
        w.put_usize(self.dispatch.len());
        for pa in &self.dispatch {
            w.put_u32(pa.warp);
            pa.access.save(w);
            pa.kind.save(w);
        }
        let mut hits: Vec<(Cycle, u32)> = self.hit_returns.iter().map(|Reverse(e)| *e).collect();
        hits.sort_unstable();
        hits.save(w);
        w.put_u32(self.last_issued);
        w.put_u64(self.next_req_id);
        w.put_u64(self.instructions);
        w.put_u64(self.mem_stall_cycles);
    }

    /// Restores state saved by [`Sm::save_state`] into an SM rebuilt from
    /// the same configuration and kernel (same warp count and geometry).
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] on a warp-count mismatch, a warp
    /// index out of range, or a program that rejects its saved progress;
    /// any decode error otherwise.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let n = r.get_usize()?;
        if n != self.warps.len() {
            return Err(CheckpointError::Malformed(format!(
                "SM {} has {} warps, checkpoint has {n}",
                self.id,
                self.warps.len()
            )));
        }
        for slot in &mut self.warps {
            let words: Vec<u64> = Vec::load(r)?;
            slot.program.restore_state(&words).map_err(|e| CheckpointError::Malformed(e.to_string()))?;
            slot.next = Option::load(r)?;
            slot.ready_at = r.get_u64()?;
            slot.outstanding = r.get_u32()?;
            slot.finished = r.get_bool()?;
        }
        self.l1.restore_state(r)?;
        self.l1_mshrs.restore_state(r)?;
        let dispatch_len = r.get_count()?;
        let mut dispatch = VecDeque::with_capacity(dispatch_len);
        for _ in 0..dispatch_len {
            let warp = r.get_u32()?;
            if warp as usize >= n {
                return Err(CheckpointError::Malformed(format!("dispatch entry for warp {warp} of {n}")));
            }
            dispatch.push_back(PendingAccess { warp, access: Access::load(r)?, kind: AccessKind::load(r)? });
        }
        self.dispatch = dispatch;
        let hits: Vec<(Cycle, u32)> = Vec::load(r)?;
        for &(_, warp) in &hits {
            if warp as usize >= n {
                return Err(CheckpointError::Malformed(format!("hit return for warp {warp} of {n}")));
            }
        }
        self.hit_returns = hits.into_iter().map(Reverse).collect();
        let last_issued = r.get_u32()?;
        if n > 0 && last_issued as usize >= n {
            return Err(CheckpointError::Malformed(format!("last issued warp {last_issued} of {n}")));
        }
        self.last_issued = last_issued;
        self.next_req_id = r.get_u64()?;
        self.instructions = r.get_u64()?;
        self.mem_stall_cycles = r.get_u64()?;
        self.rebuild_readiness();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FULL_SECTOR_MASK;

    struct Script(Vec<Inst>);
    impl WarpProgram for Script {
        fn next_inst(&mut self) -> Inst {
            if self.0.is_empty() {
                Inst::Exit
            } else {
                self.0.remove(0)
            }
        }

        fn save_state(&self, out: &mut Vec<u64>) {
            out.push(self.0.len() as u64);
        }

        fn restore_state(&mut self, state: &[u64]) -> Result<(), crate::kernel::StateError> {
            crate::kernel::expect_state_len(state, 1, "script")?;
            let remaining = state[0] as usize;
            if remaining > self.0.len() {
                return Err(crate::kernel::StateError::new(
                    "script",
                    format!("{remaining} instructions left of {}", self.0.len()),
                ));
            }
            self.0.drain(..self.0.len() - remaining);
            Ok(())
        }
    }

    fn cfg() -> GpuConfig {
        GpuConfig::small()
    }

    fn load(addr: u64) -> Inst {
        // Dependent loads serialize, making the tests' blocking behaviour
        // deterministic.
        Inst::dependent_load(Access::new(addr, FULL_SECTOR_MASK))
    }

    #[test]
    fn alu_only_warp_finishes_and_counts() {
        let prog: Box<dyn WarpProgram + Send> = Box::new(Script(vec![Inst::alu(), Inst::alu()]));
        let mut sm = Sm::new(0, &cfg(), vec![prog]);
        let mut out = SmOutput::default();
        for now in 0..10 {
            sm.cycle(now, 8, &mut out);
        }
        assert!(sm.finished());
        assert_eq!(sm.instructions, 2);
        assert_eq!(sm.thread_instructions(), 64);
        assert!(out.requests.is_empty());
    }

    #[test]
    fn load_miss_generates_request_and_blocks() {
        let prog: Box<dyn WarpProgram + Send> = Box::new(Script(vec![load(0x1000), Inst::use_mem()]));
        let mut sm = Sm::new(0, &cfg(), vec![prog]);
        let mut out = SmOutput::default();
        for now in 0..5 {
            sm.cycle(now, 8, &mut out);
        }
        assert_eq!(out.requests.len(), 1);
        let req = out.requests[0].clone();
        assert_eq!(req.line_addr, 0x1000);
        assert_eq!(req.kind, AccessKind::Load);
        // Warp is blocked: only the load has issued.
        assert_eq!(sm.instructions, 1);
        // Respond; the warp unblocks and issues the ALU op.
        sm.on_response(&req);
        for now in 5..10 {
            sm.cycle(now, 8, &mut out);
        }
        assert_eq!(sm.instructions, 2);
        assert!(sm.finished());
    }

    #[test]
    fn l1_hit_serves_without_request() {
        let prog: Box<dyn WarpProgram + Send> = Box::new(Script(vec![load(0x80), load(0x80)]));
        let mut sm = Sm::new(0, &cfg(), vec![prog]);
        let mut out = SmOutput::default();
        // First load misses.
        for now in 0..3 {
            sm.cycle(now, 8, &mut out);
        }
        assert_eq!(out.requests.len(), 1);
        sm.on_response(&out.requests[0].clone());
        // Second load should hit in L1: no new request.
        for now in 3..80 {
            sm.cycle(now, 8, &mut out);
        }
        assert_eq!(out.requests.len(), 1);
        assert!(sm.finished());
        assert!(sm.l1_stats().hits >= 1);
    }

    #[test]
    fn secondary_miss_merges_in_l1_mshr() {
        let p1: Box<dyn WarpProgram + Send> = Box::new(Script(vec![load(0x100)]));
        let p2: Box<dyn WarpProgram + Send> = Box::new(Script(vec![load(0x100)]));
        let mut sm = Sm::new(0, &cfg(), vec![p1, p2]);
        let mut out = SmOutput::default();
        for now in 0..5 {
            sm.cycle(now, 8, &mut out);
        }
        // Both warps loaded the same line: one request only.
        assert_eq!(out.requests.len(), 1);
        sm.on_response(&out.requests[0].clone());
        for now in 5..10 {
            sm.cycle(now, 8, &mut out);
        }
        assert!(sm.finished(), "both warps must unblock from one fill");
    }

    #[test]
    fn store_is_fire_and_forget() {
        let prog: Box<dyn WarpProgram + Send> =
            Box::new(Script(vec![Inst::store(Access::new(0x200, SectorMask::single(0))), Inst::alu()]));
        let mut sm = Sm::new(0, &cfg(), vec![prog]);
        let mut out = SmOutput::default();
        for now in 0..6 {
            sm.cycle(now, 8, &mut out);
        }
        assert!(sm.finished(), "store must not block the warp");
        assert_eq!(out.requests.len(), 1);
        assert_eq!(out.requests[0].kind, AccessKind::Store);
        assert!(out.requests[0].warp.is_none());
    }

    #[test]
    fn no_icnt_room_stalls_dispatch() {
        let prog: Box<dyn WarpProgram + Send> = Box::new(Script(vec![load(0x400)]));
        let mut sm = Sm::new(0, &cfg(), vec![prog]);
        let mut out = SmOutput::default();
        for now in 0..5 {
            sm.cycle(now, 0, &mut out);
        }
        assert!(out.requests.is_empty());
        // Room opens up; the request goes out.
        for now in 5..8 {
            sm.cycle(now, 4, &mut out);
        }
        assert_eq!(out.requests.len(), 1);
    }

    #[test]
    fn lrr_scheduler_rotates_warps() {
        let mut cfg_lrr = cfg();
        cfg_lrr.scheduler = crate::config::SchedulerPolicy::Lrr;
        cfg_lrr.issue_width = 1;
        let progs: Vec<Box<dyn WarpProgram + Send>> = (0..4)
            .map(|_| Box::new(Script(vec![Inst::alu(), Inst::alu()])) as Box<dyn WarpProgram + Send>)
            .collect();
        let mut sm = Sm::new(0, &cfg_lrr, progs);
        let mut out = SmOutput::default();
        // With LRR and 1-wide issue, 4 warps x 2 ALUs retire in ~8 cycles,
        // visiting each warp alternately.
        for now in 0..12 {
            sm.cycle(now, 8, &mut out);
        }
        assert!(sm.finished());
        assert_eq!(sm.instructions, 8);
    }

    #[test]
    fn gto_prefers_last_issued_warp() {
        let mut c = cfg();
        c.issue_width = 1;
        let progs: Vec<Box<dyn WarpProgram + Send>> =
            (0..2).map(|_| Box::new(Script(vec![Inst::alu(); 4])) as Box<dyn WarpProgram + Send>).collect();
        let mut sm = Sm::new(0, &c, progs);
        let mut out = SmOutput::default();
        for now in 0..20 {
            sm.cycle(now, 8, &mut out);
        }
        assert!(sm.finished());
        assert_eq!(sm.instructions, 8);
    }

    fn boxed(insts: Vec<Inst>) -> Box<dyn WarpProgram + Send> {
        Box::new(Script(insts))
    }

    fn alu_stall(stall: u32) -> Inst {
        Inst::Alu { stall, wait_mem: false }
    }

    fn wide_store(accesses: u64) -> Inst {
        Inst::Store {
            accesses: (0..accesses).map(|i| Access::new(0x8_0000 + i * 128, SectorMask::single(0))).collect(),
        }
    }

    /// Runs one cycle and returns the warps that issued in it (ascending;
    /// issuing is what moves a warp's `ready_at`) and the last issued one.
    fn step(sm: &mut Sm, now: Cycle, room: usize, out: &mut SmOutput) -> (Vec<usize>, u32) {
        let before: Vec<Cycle> = sm.warps.iter().map(|w| w.ready_at).collect();
        sm.cycle(now, room, out);
        let issued = (0..sm.warps.len()).filter(|&w| sm.warps[w].ready_at != before[w]).collect();
        (issued, sm.last_issued)
    }

    /// Six warps covering every readiness state: warp 0 fills the
    /// dispatch queue with one 64-access store, warp 1 sleeps on a long
    /// ALU, warp 2 blocks on its own dependent load, warp 3 stores behind
    /// the full queue, warps 4 and 5 are ALU-only.
    fn mixed_warps(scheduler: SchedulerPolicy) -> Sm {
        let mut c = cfg();
        c.scheduler = scheduler;
        c.issue_width = 2;
        let store = || Inst::store(Access::new(0x200, SectorMask::single(0)));
        let progs = vec![
            boxed(vec![wide_store(64), Inst::alu(), Inst::alu()]),
            boxed(vec![alu_stall(3), store(), Inst::alu()]),
            boxed(vec![load(0x1000), Inst::use_mem()]),
            boxed(vec![store(), Inst::alu()]),
            boxed(vec![Inst::alu(); 3]),
            boxed(vec![Inst::alu(); 2]),
        ];
        Sm::new(0, &c, progs)
    }

    #[test]
    fn gto_issues_the_hand_computed_sequence() {
        let mut sm = mixed_warps(SchedulerPolicy::Gto);
        let mut out = SmOutput::default();
        // Interconnect closed through cycle 5, so the queue stays full.
        let log: Vec<_> = (0..6).map(|now| step(&mut sm, now, 0, &mut out)).collect();
        let expected: Vec<(Vec<usize>, u32)> = vec![
            (vec![0, 1], 1), // the wide store fills the queue; warp 1 sleeps to 3
            (vec![0, 4], 4), // 2 and 3 are dispatch-blocked; 5 is past the cutoff
            (vec![0, 4], 0), // greedy on 4, then oldest first: 0; 5 still unseen
            (vec![4, 5], 5), // 0 retires, 1 joins the dispatch-blocked warps
            (vec![5], 5),    // 4 retires
            (vec![], 5),     // 5 retires; only blocked warps remain
        ];
        assert_eq!(log, expected);
        assert_eq!(sm.mem_stall_cycles, 1);
        // The queue drains two accesses a cycle and reopens at once.
        let log: Vec<_> = (6..10).map(|now| step(&mut sm, now, 64, &mut out)).collect();
        let expected: Vec<(Vec<usize>, u32)> = vec![
            (vec![1, 2], 2), // the woken warps issue; 3 is past the cutoff
            (vec![1, 3], 3), // 2 fetches its use and blocks on memory
            (vec![3], 3),    // 1 retires
            (vec![], 3),     // 3 retires; 2 waits on memory
        ];
        assert_eq!(log, expected);
        assert_eq!(sm.mem_stall_cycles, 2);
        // Warp 2's load leaves behind 65 queued stores, at cycle 38.
        let mut now = 10;
        while !out.requests.iter().any(|r| r.kind == AccessKind::Load) {
            assert_eq!(step(&mut sm, now, 64, &mut out), (vec![], 3));
            now += 1;
        }
        assert_eq!(now, 39);
        let load = out.requests.iter().find(|r| r.kind == AccessKind::Load).cloned().expect("load sent");
        assert_eq!(sm.next_event_cycle(now), Some(now), "the queue still holds a store");
        sm.on_response(&load);
        assert_eq!(step(&mut sm, now, 64, &mut out), (vec![2], 2), "the response wakes warp 2");
        assert_eq!(step(&mut sm, now + 1, 64, &mut out), (vec![], 2));
        assert!(sm.finished());
    }

    #[test]
    fn lrr_issues_the_hand_computed_sequence() {
        let mut sm = mixed_warps(SchedulerPolicy::Lrr);
        let mut out = SmOutput::default();
        let log: Vec<_> = (0..7).map(|now| step(&mut sm, now, 0, &mut out)).collect();
        let expected: Vec<(Vec<usize>, u32)> = vec![
            (vec![1, 2], 2), // rotation starts after warp 0
            (vec![3, 4], 4),
            (vec![0, 5], 0), // 5, then wrap to 0: the wide store fills the queue
            (vec![3, 4], 4), // 1 dispatch-blocked, 2 memory-blocked
            (vec![0, 5], 0),
            (vec![0, 4], 0), // 3 and 5 retire on the way
            (vec![], 0),     // 4 and 0 retire
        ];
        assert_eq!(log, expected);
        assert_eq!(sm.mem_stall_cycles, 1);
        // Cycle 7 sends warp 2's load and a store but leaves the queue full.
        assert_eq!(step(&mut sm, 7, 64, &mut out), (vec![], 0));
        assert_eq!(sm.mem_stall_cycles, 2);
        assert_eq!(step(&mut sm, 8, 64, &mut out), (vec![1], 1), "the reopened queue wakes warp 1");
        let load = out.requests.iter().find(|r| r.kind == AccessKind::Load).cloned().expect("load sent");
        sm.on_response(&load);
        assert_eq!(step(&mut sm, 9, 64, &mut out), (vec![1, 2], 1), "rotation resumes after warp 1");
        assert_eq!(step(&mut sm, 10, 64, &mut out), (vec![], 1));
        assert!(sm.finished());
    }

    #[test]
    fn exit_past_the_issue_cutoff_retires_when_the_scan_reaches_it() {
        let mut c = cfg();
        c.issue_width = 1;
        let mut sm = Sm::new(0, &c, vec![boxed(vec![Inst::alu(), Inst::alu()]), boxed(vec![])]);
        let mut out = SmOutput::default();
        for now in 0..2 {
            assert_eq!(step(&mut sm, now, 8, &mut out), (vec![0], 0));
            assert!(!sm.warps[1].finished, "warp 1 sits past the cutoff at cycle {now}");
            assert_eq!(sm.next_event_cycle(now + 1), Some(now + 1));
        }
        // Warp 0 fetches its `Exit`, so the scan reaches warp 1's.
        assert_eq!(step(&mut sm, 2, 8, &mut out), (vec![], 0));
        assert!(sm.finished());
        assert_eq!(sm.next_event_cycle(3), None);
    }

    /// A deterministic mix of ALU, dependent and divergent loads, uses
    /// and stores, different for every warp.
    fn mixed_programs(warps: usize) -> Vec<Box<dyn WarpProgram + Send>> {
        (0..warps as u64)
            .map(|w| {
                let insts = (0..14u64)
                    .map(|j| {
                        let addr = 0x10_000 * (w + 1) + j * 0x80;
                        match (w * 7 + j * 3) % 6 {
                            0 => alu_stall(1 + ((w + j) % 4) as u32),
                            1 => load(addr),
                            2 => Inst::Load {
                                accesses: (0..3)
                                    .map(|k| Access::new(addr + k * 4096, SectorMask::single(1)))
                                    .collect(),
                                dependent: false,
                            },
                            3 => Inst::use_mem(),
                            4 => Inst::store(Access::new(addr, SectorMask::single(2))),
                            _ => wide_store(3),
                        }
                    })
                    .collect();
                boxed(insts)
            })
            .collect()
    }

    /// Runs `sm` over `cycles`, answering each load request 25 cycles
    /// after it leaves; `pending` carries the responses in flight.
    /// Returns the checkpoint bytes and the next-event answer after every
    /// cycle.
    fn drive(
        sm: &mut Sm,
        cycles: std::ops::Range<Cycle>,
        pending: &mut Vec<(Cycle, MemRequest)>,
    ) -> Vec<(Vec<u8>, Option<Cycle>)> {
        let mut trail = Vec::new();
        for now in cycles {
            for (_, resp) in pending.extract_if(.., |(at, _)| *at <= now) {
                sm.on_response(&resp);
            }
            let mut out = SmOutput::default();
            sm.cycle(now, (now % 4) as usize, &mut out);
            pending.extend(
                out.requests.into_iter().filter(|r| r.kind == AccessKind::Load).map(|r| (now + 25, r)),
            );
            let mut w = Writer::new();
            sm.save_state(&mut w);
            trail.push((w.into_bytes(), sm.next_event_cycle(now + 1)));
        }
        trail
    }

    #[test]
    fn save_restore_continue_equals_an_unbroken_run() {
        const END: Cycle = 2_000;
        // 64 warps fill one bitset word exactly; 65 spill into a second.
        for warps in [64, 65] {
            let make = || Sm::new(3, &cfg(), mixed_programs(warps));
            let mut whole = make();
            let mut pending = Vec::new();
            let unbroken = drive(&mut whole, 0..END, &mut pending);
            assert!(whole.finished(), "{warps} warps: the run must finish");
            assert!(whole.mem_stall_cycles > 0 && whole.instructions == 14 * warps as u64);
            // Fixed cuts, plus the first two where the SM was quiet (an
            // idle-skip gap could open), so the rebuilt sets are probed
            // before any scan refreshes them.
            let quiet: Vec<Cycle> =
                (1..END).filter(|&c| unbroken[c as usize - 1].1 != Some(c)).take(2).collect();
            assert_eq!(quiet.len(), 2, "{warps} warps: the run must have quiet cycles");
            for cut in [1, 37, 211, 640].into_iter().chain(quiet) {
                let mut first = make();
                let mut pending = Vec::new();
                drive(&mut first, 0..cut, &mut pending);
                let mut w = Writer::new();
                first.save_state(&mut w);
                let payload = w.into_bytes();
                let mut resumed = make();
                let mut r = Reader::new(&payload);
                resumed.restore_state(&mut r).expect("restore succeeds");
                r.expect_end().expect("payload fully consumed");
                // The rebuilt sets answer the idle-skip probe as the live ones did.
                assert_eq!(resumed.next_event_cycle(cut), unbroken[cut as usize - 1].1, "cut at {cut}");
                let rest = drive(&mut resumed, cut..END, &mut pending);
                assert!(rest == unbroken[cut as usize..], "{warps} warps diverged after a cut at {cut}");
            }
        }
    }

    #[test]
    fn divergent_load_produces_many_requests() {
        let accesses: Vec<Access> =
            (0..8).map(|i| Access::new(0x10_000 + i * 4096, SectorMask::single(0))).collect();
        let prog: Box<dyn WarpProgram + Send> =
            Box::new(Script(vec![Inst::Load { accesses, dependent: false }, Inst::use_mem()]));
        let mut sm = Sm::new(0, &cfg(), vec![prog]);
        let mut out = SmOutput::default();
        for now in 0..20 {
            sm.cycle(now, 8, &mut out);
        }
        assert_eq!(out.requests.len(), 8);
        // All 8 fills required before the warp retires.
        for r in out.requests.clone() {
            sm.on_response(&r);
        }
        for now in 20..25 {
            sm.cycle(now, 8, &mut out);
        }
        assert!(sm.finished());
    }
}
