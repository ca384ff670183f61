//! The synthetic warp-program generator: turns a [`BenchSpec`] into
//! deterministic per-warp instruction streams.

use secmem_gpusim::kernel::{expect_state_len, Kernel, StateError, WarpProgram};
use secmem_gpusim::rng::Rng64;
use secmem_gpusim::types::{Access, Addr, Inst, SectorMask, FULL_SECTOR_MASK, LINE_SIZE};

use crate::spec::{AccessPattern, BenchSpec};

/// Fixed large stride for non-random scatter (column-major style): one
/// line past 16 KB so consecutive lanes hit different counter chunks and
/// partitions.
const SCATTER_STRIDE: u64 = 16 * 1024 + 128;

/// A [`Kernel`] built from a [`BenchSpec`].
#[derive(Debug, Clone)]
pub struct SyntheticKernel {
    spec: BenchSpec,
    seed: u64,
}

impl SyntheticKernel {
    /// Creates the kernel.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation; [`SyntheticKernel::try_new`]
    /// is the non-panicking form.
    pub fn new(spec: BenchSpec, seed: u64) -> Self {
        match Self::try_new(spec, seed) {
            Ok(kernel) => kernel,
            Err(e) => panic!("invalid benchmark spec: {e}"),
        }
    }

    /// Creates the kernel, surfacing the violated constraint as a typed
    /// error instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the [`SpecError`] from [`BenchSpec::validate`].
    pub fn try_new(spec: BenchSpec, seed: u64) -> Result<Self, crate::spec::SpecError> {
        spec.validate()?;
        Ok(Self { spec, seed })
    }

    /// The underlying specification.
    pub fn spec(&self) -> &BenchSpec {
        &self.spec
    }
}

impl Kernel for SyntheticKernel {
    fn active_sms(&self, available: u32) -> u32 {
        self.spec.active_sms.min(available)
    }

    fn warps_per_sm(&self, _sm: u32) -> u32 {
        self.spec.warps_per_sm
    }

    fn spawn(&self, sm: u32, warp: u32) -> Box<dyn WarpProgram + Send> {
        let total_warps = (self.spec.active_sms as u64).max(1) * self.spec.warps_per_sm.max(1) as u64;
        let warp_index = sm as u64 * self.spec.warps_per_sm as u64 + warp as u64;
        Box::new(SyntheticProgram::new(&self.spec, self.seed, warp_index, total_warps))
    }

    fn name(&self) -> &str {
        self.spec.name
    }
}

/// One warp's instruction stream.
#[derive(Debug)]
struct SyntheticProgram {
    pattern: AccessPattern,
    alu_per_access: u32,
    alu_stall: u32,
    store_every: u32,
    footprint: Addr,
    /// Per-array streaming state: (base, length, cursor).
    streams: Vec<(Addr, Addr, Addr)>,
    /// Write-region streaming state.
    wstream: (Addr, Addr, Addr),
    rng: Rng64,
    /// Remaining ALU instructions in the current block.
    alu_left: u32,
    /// The next ALU instruction consumes loaded data.
    next_alu_waits: bool,
    /// Memory instructions issued (selects loads vs. stores).
    mem_count: u64,
    /// Loads per consuming ALU (software-pipelining depth).
    mlp: u32,
    /// Loads since the last consuming ALU.
    loads_since_wait: u32,
    /// Remaining dependent loads of the current chase.
    chase_left: u32,
    /// Scatter cursor for strided patterns.
    scatter_pos: u64,
}

impl SyntheticProgram {
    fn new(spec: &BenchSpec, seed: u64, warp_index: u64, total_warps: u64) -> Self {
        let read_arrays = match spec.pattern {
            AccessPattern::Stream { arrays } => arrays.max(1) as u64,
            _ => 1,
        };
        // Footprint: read arrays plus one write region, each divided among
        // warps into contiguous line-aligned slices.
        let regions = read_arrays + 1;
        let region = (spec.footprint / regions) & !(LINE_SIZE - 1);
        let slice = (region / total_warps).max(LINE_SIZE) & !(LINE_SIZE - 1);
        let streams = (0..read_arrays)
            .map(|a| {
                let base = a * region + (warp_index * slice) % region;
                (base, slice, 0)
            })
            .collect();
        let wbase = read_arrays * region + (warp_index * slice) % region;
        Self {
            pattern: spec.pattern,
            alu_per_access: spec.alu_per_access,
            alu_stall: spec.alu_stall,
            store_every: spec.store_every,
            footprint: spec.footprint,
            streams,
            wstream: (wbase, slice, 0),
            rng: Rng64::new(seed ^ (warp_index.wrapping_mul(0x9E37_79B9_7F4A_7C15))),
            mlp: spec.mlp.max(1),
            loads_since_wait: 0,
            alu_left: 0,
            next_alu_waits: false,
            mem_count: 0,
            chase_left: 0,
            scatter_pos: warp_index.wrapping_mul(977),
        }
    }

    fn random_line(&mut self) -> Addr {
        let lines = self.footprint / LINE_SIZE;
        self.rng.gen_range(lines) * LINE_SIZE
    }

    fn next_stream_access(&mut self) -> Access {
        let idx = (self.mem_count % self.streams.len() as u64) as usize;
        let (base, len, cursor) = &mut self.streams[idx];
        let addr = *base + *cursor;
        *cursor = (*cursor + LINE_SIZE) % *len;
        Access::new(addr, FULL_SECTOR_MASK)
    }

    fn next_store_access(&mut self) -> Access {
        let (base, len, cursor) = &mut self.wstream;
        let addr = *base + *cursor;
        *cursor = (*cursor + LINE_SIZE) % *len;
        Access::new(addr, FULL_SECTOR_MASK)
    }

    fn scatter_accesses(&mut self, lanes: u32, random: bool) -> Vec<Access> {
        (0..lanes)
            .map(|_| {
                let line = if random {
                    self.random_line()
                } else {
                    self.scatter_pos = self.scatter_pos.wrapping_add(1);
                    ((self.scatter_pos * SCATTER_STRIDE) % self.footprint) & !(LINE_SIZE - 1)
                };
                Access { line_addr: line, sectors: SectorMask::single((line / 32 % 4) as u32 & 3) }
            })
            .collect()
    }

    fn mem_inst(&mut self) -> Inst {
        self.mem_count += 1;
        let is_store = self.store_every > 0 && self.mem_count.is_multiple_of(self.store_every as u64);
        match self.pattern {
            AccessPattern::Stream { .. } => {
                if is_store {
                    Inst::Store { accesses: vec![self.next_store_access()] }
                } else {
                    Inst::Load { accesses: vec![self.next_stream_access()], dependent: false }
                }
            }
            AccessPattern::Scatter { lanes, random, dependent } => {
                if is_store {
                    Inst::Store { accesses: vec![self.next_store_access()] }
                } else {
                    Inst::Load { accesses: self.scatter_accesses(lanes, random), dependent }
                }
            }
            AccessPattern::Chase { depth } => {
                if is_store {
                    Inst::Store { accesses: vec![self.next_store_access()] }
                } else {
                    if self.chase_left == 0 {
                        self.chase_left = depth;
                    }
                    self.chase_left -= 1;
                    let line = self.random_line();
                    Inst::Load {
                        accesses: vec![Access {
                            line_addr: line,
                            sectors: SectorMask::single((line / 128 % 4) as u32 & 3),
                        }],
                        dependent: true,
                    }
                }
            }
        }
    }
}

impl WarpProgram for SyntheticProgram {
    fn next_inst(&mut self) -> Inst {
        // Chase patterns issue their dependent loads back-to-back.
        if self.chase_left > 0 {
            return self.mem_inst();
        }
        if self.alu_left > 0 {
            self.alu_left -= 1;
            let wait = self.next_alu_waits;
            self.next_alu_waits = false;
            return Inst::Alu { stall: self.alu_stall.max(1), wait_mem: wait };
        }
        self.alu_left = self.alu_per_access;
        self.loads_since_wait += 1;
        if self.loads_since_wait >= self.mlp {
            self.loads_since_wait = 0;
            self.next_alu_waits = true;
        }
        self.mem_inst()
    }

    fn save_state(&self, out: &mut Vec<u64>) {
        // Stream bases/lengths, pattern and pacing knobs are derived from
        // the spec at spawn time; only the advancing cursors are state.
        out.push(self.streams.len() as u64);
        out.extend(self.streams.iter().map(|&(_, _, cursor)| cursor));
        out.push(self.wstream.2);
        out.push(self.rng.state());
        out.push(self.alu_left as u64);
        out.push(self.next_alu_waits as u64);
        out.push(self.mem_count);
        out.push(self.loads_since_wait as u64);
        out.push(self.chase_left as u64);
        out.push(self.scatter_pos);
    }

    fn restore_state(&mut self, state: &[u64]) -> Result<(), StateError> {
        let err = |msg: String| StateError::new("synthetic program", msg);
        let n = self.streams.len();
        expect_state_len(state, 1 + n + 8, "synthetic program")?;
        if state[0] as usize != n {
            return Err(err(format!("{} stream cursors stored, expected {n}", state[0])));
        }
        for (i, (_, len, cursor)) in self.streams.iter_mut().enumerate() {
            let c = state[1 + i];
            if c >= *len {
                return Err(err(format!("stream {i} cursor {c} out of slice {len}")));
            }
            *cursor = c;
        }
        let rest = &state[1 + n..];
        if rest[0] >= self.wstream.1 {
            return Err(err(format!("write cursor {} out of slice {}", rest[0], self.wstream.1)));
        }
        self.wstream.2 = rest[0];
        self.rng.set_state(rest[1]);
        self.alu_left = u32::try_from(rest[2]).map_err(|_| err("alu_left overflow".into()))?;
        self.next_alu_waits = rest[3] != 0;
        self.mem_count = rest[4];
        self.loads_since_wait =
            u32::try_from(rest[5]).map_err(|_| err("loads_since_wait overflow".into()))?;
        self.chase_left = u32::try_from(rest[6]).map_err(|_| err("chase_left overflow".into()))?;
        self.scatter_pos = rest[7];
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Category;

    fn spec(pattern: AccessPattern) -> BenchSpec {
        BenchSpec {
            name: "t",
            category: Category::MediumMemoryIntensive,
            paper_bw_pct: (10.0, 20.0),
            paper_ipc: 100.0,
            warps_per_sm: 2,
            active_sms: 2,
            alu_per_access: 3,
            alu_stall: 1,
            pattern,
            store_every: 4,
            mlp: 1,
            footprint: 1 << 20,
        }
    }

    fn collect(kernel: &SyntheticKernel, n: usize) -> Vec<Inst> {
        let mut p = kernel.spawn(0, 0);
        (0..n).map(|_| p.next_inst()).collect()
    }

    #[test]
    fn stream_alternates_mem_and_alu() {
        let k = SyntheticKernel::new(spec(AccessPattern::Stream { arrays: 2 }), 1);
        let insts = collect(&k, 8);
        assert!(matches!(insts[0], Inst::Load { .. }));
        assert!(matches!(insts[1], Inst::Alu { wait_mem: true, .. }));
        assert!(matches!(insts[2], Inst::Alu { wait_mem: false, .. }));
        assert!(matches!(insts[3], Inst::Alu { wait_mem: false, .. }));
        assert!(matches!(insts[4], Inst::Load { .. } | Inst::Store { .. }));
    }

    #[test]
    fn stream_addresses_advance_and_wrap() {
        let k = SyntheticKernel::new(spec(AccessPattern::Stream { arrays: 1 }), 1);
        let mut p = k.spawn(0, 0);
        let mut lines = Vec::new();
        for _ in 0..200 {
            if let Inst::Load { accesses, .. } = p.next_inst() {
                lines.push(accesses[0].line_addr);
            }
        }
        assert!(lines.len() > 10);
        assert_eq!(lines[1], lines[0] + 128);
        assert!(lines.iter().all(|&l| l < 1 << 20));
    }

    #[test]
    fn stores_appear_at_configured_rate() {
        let k = SyntheticKernel::new(spec(AccessPattern::Stream { arrays: 1 }), 1);
        let mut p = k.spawn(0, 0);
        let mut loads = 0;
        let mut stores = 0;
        for _ in 0..4000 {
            match p.next_inst() {
                Inst::Load { .. } => loads += 1,
                Inst::Store { .. } => stores += 1,
                _ => {}
            }
        }
        // store_every = 4: one store per 3 loads.
        let ratio = loads as f64 / stores as f64;
        assert!((ratio - 3.0).abs() < 0.3, "load/store ratio {ratio}");
    }

    #[test]
    fn scatter_produces_divergent_lanes() {
        let k = SyntheticKernel::new(
            spec(AccessPattern::Scatter { lanes: 16, random: false, dependent: false }),
            1,
        );
        let mut p = k.spawn(0, 0);
        let inst = loop {
            if let Inst::Load { accesses, .. } = p.next_inst() {
                break accesses;
            }
        };
        assert_eq!(inst.len(), 16);
        let distinct: std::collections::HashSet<_> = inst.iter().map(|a| a.line_addr).collect();
        assert_eq!(distinct.len(), 16, "all lanes hit distinct lines");
        assert!(inst.iter().all(|a| a.sectors.count() == 1), "one sector per lane");
    }

    #[test]
    fn chase_emits_dependent_loads() {
        let k = SyntheticKernel::new(spec(AccessPattern::Chase { depth: 3 }), 1);
        let mut p = k.spawn(0, 0);
        let mut dependents = 0;
        for _ in 0..50 {
            if let Inst::Load { dependent, .. } = p.next_inst() {
                assert!(dependent);
                dependents += 1;
            }
        }
        assert!(dependents > 5);
    }

    #[test]
    fn determinism_per_warp() {
        let k = SyntheticKernel::new(
            spec(AccessPattern::Scatter { lanes: 4, random: true, dependent: true }),
            42,
        );
        let a = collect(&k, 50);
        let b = collect(&k, 50);
        assert_eq!(a, b);
    }

    #[test]
    fn different_warps_differ() {
        let k = SyntheticKernel::new(spec(AccessPattern::Stream { arrays: 1 }), 42);
        let mut p0 = k.spawn(0, 0);
        let mut p1 = k.spawn(0, 1);
        let first_line = |p: &mut Box<dyn WarpProgram + Send>| loop {
            if let Inst::Load { accesses, .. } = p.next_inst() {
                return accesses[0].line_addr;
            }
        };
        assert_ne!(first_line(&mut p0), first_line(&mut p1));
    }

    #[test]
    fn save_restore_resumes_instruction_stream() {
        for pattern in [
            AccessPattern::Stream { arrays: 2 },
            AccessPattern::Scatter { lanes: 8, random: true, dependent: false },
            AccessPattern::Chase { depth: 3 },
        ] {
            let k = SyntheticKernel::new(spec(pattern), 42);
            let mut original = k.spawn(0, 1);
            for _ in 0..137 {
                let _ = original.next_inst();
            }
            let mut state = Vec::new();
            original.save_state(&mut state);
            let mut resumed = k.spawn(0, 1);
            resumed.restore_state(&state).expect("restore");
            for i in 0..200 {
                assert_eq!(original.next_inst(), resumed.next_inst(), "inst {i} under {pattern:?}");
            }
        }
    }

    #[test]
    fn restore_rejects_corrupt_state() {
        let k = SyntheticKernel::new(spec(AccessPattern::Stream { arrays: 1 }), 1);
        let p = k.spawn(0, 0);
        let mut state = Vec::new();
        p.save_state(&mut state);
        assert!(k.spawn(0, 0).restore_state(&state[..2]).is_err(), "truncated");
        let mut wrong_count = state.clone();
        wrong_count[0] = 99;
        assert!(k.spawn(0, 0).restore_state(&wrong_count).is_err(), "stream count mismatch");
        let mut wild_cursor = state;
        wild_cursor[1] = u64::MAX;
        assert!(k.spawn(0, 0).restore_state(&wild_cursor).is_err(), "cursor out of slice");
    }

    #[test]
    fn footprint_respected_by_random_patterns() {
        let k = SyntheticKernel::new(
            spec(AccessPattern::Scatter { lanes: 8, random: true, dependent: false }),
            7,
        );
        let mut p = k.spawn(1, 1);
        for _ in 0..500 {
            if let Inst::Load { accesses, .. } = p.next_inst() {
                for a in accesses {
                    assert!(a.line_addr < 1 << 20);
                }
            }
        }
    }
}
