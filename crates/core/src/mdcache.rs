//! The metadata cache subsystem of one memory partition: separate
//! counter/MAC/tree caches (the paper's recommended GPU organization) or a
//! unified cache (the CPU-style organization), with MSHRs and the
//! idealization knobs of Table V.

use std::num::NonZeroU32;

use secmem_checkpoint::{CheckpointError, Reader, Snapshot, Writer};
use secmem_gpusim::cache::{Eviction, SectoredCache};
use secmem_gpusim::hash::{FastHashMap, FastHashSet};
use secmem_gpusim::mshr::{MshrFile, MshrOutcome};
use secmem_gpusim::stats::{meta_index, MetadataTypeStats};
use secmem_gpusim::types::{Addr, TrafficClass, FULL_SECTOR_MASK};

use crate::config::{MdcIdealization, MetadataCacheKind, SecureMemConfig};

/// Outcome of a metadata cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MdOutcome {
    /// The line is resident; the access completes immediately.
    Hit,
    /// The line must be fetched: the caller issues a DRAM read for it.
    /// The waiter will be returned by [`MetadataCaches::fill`].
    FetchNeeded,
    /// The line is already being fetched; the waiter was merged (MSHR hit)
    /// and no new DRAM read is needed.
    Merged,
    /// No MSHR/merge capacity: retry later.
    Stall,
}

#[derive(Debug)]
enum Store {
    Real(Vec<SectoredCache>),
    Infinite(FastHashSet<Addr>),
    Perfect,
}

/// The per-partition metadata caches.
///
/// `T` is the waiter token type (the secure engine uses transaction
/// references). All accesses are full-line (metadata caches are not
/// sectored: "128 B blk", Table III).
#[derive(Debug)]
pub struct MetadataCaches<T> {
    kind: MetadataCacheKind,
    store: Store,
    mshrs: Vec<MshrFile<T>>,
    mshr_enabled: bool,
    /// Waiter lists for the no-MSHR mode: one DRAM fetch per waiter.
    private_waiters: FastHashMap<Addr, Vec<T>>,
    /// Per MSHR file, a counter of the fills that completed on it. A fill
    /// is the only operation that frees an entry or installs a line, so
    /// an access that stalled keeps stalling until its file's generation
    /// moves. It wraps from `u32::MAX` to 1, which callers comparing
    /// generations must allow for. Not checkpointed: it only dates stalls
    /// within one run.
    fill_gens: Vec<NonZeroU32>,
    stats: [MetadataTypeStats; 3],
}

impl<T> MetadataCaches<T> {
    /// Builds the subsystem from a configuration.
    pub fn new(cfg: &SecureMemConfig) -> Self {
        let (store, num_mshr_files) = match cfg.idealization {
            MdcIdealization::Perfect => (Store::Perfect, 0),
            MdcIdealization::Infinite => (Store::Infinite(FastHashSet::default()), 0),
            MdcIdealization::Real => match cfg.cache_kind {
                MetadataCacheKind::Separate => {
                    let sizes = cfg.mdcache_bytes_by_type.unwrap_or([cfg.mdcache_bytes; 3]);
                    (
                        Store::Real(
                            sizes
                                .iter()
                                .map(|&b| {
                                    SectoredCache::with_policy(
                                        b.max(256),
                                        cfg.mdcache_assoc,
                                        cfg.mdcache_policy,
                                    )
                                })
                                .collect(),
                        ),
                        3,
                    )
                }
                MetadataCacheKind::Unified => (
                    Store::Real(vec![SectoredCache::with_policy(
                        cfg.unified_bytes,
                        cfg.mdcache_assoc,
                        cfg.mdcache_policy,
                    )]),
                    1,
                ),
            },
        };
        let mshr_enabled = cfg.mdcache_mshrs > 0;
        // Idealized stores still merge in-flight fetches (infinite caches
        // have MSHRs too); a unified cache gets 3x entries (Table III:
        // 192 for the 6 KB unified cache).
        let files = if matches!(store, Store::Real(_)) { num_mshr_files } else { 1 };
        let per_file = if files == 1 && matches!(store, Store::Real(_)) {
            cfg.mdcache_mshrs as usize * 3
        } else if matches!(store, Store::Real(_)) {
            cfg.mdcache_mshrs as usize
        } else {
            1 << 20
        };
        let mshrs: Vec<MshrFile<T>> =
            (0..files.max(1)).map(|_| MshrFile::new(per_file, cfg.mdcache_mshr_merge as usize)).collect();
        Self {
            kind: cfg.cache_kind,
            store,
            fill_gens: vec![NonZeroU32::MIN; mshrs.len()],
            mshrs,
            mshr_enabled,
            private_waiters: FastHashMap::default(),
            stats: Default::default(),
        }
    }

    fn mshr_index(&self, class: TrafficClass) -> usize {
        if self.mshrs.len() == 3 {
            meta_index(class)
        } else {
            0
        }
    }

    /// Accesses the metadata line for a read (verification / decryption).
    /// On [`MdOutcome::FetchNeeded`], the caller issues a 128 B DRAM read
    /// for `line` and later calls [`MetadataCaches::fill`].
    pub fn access(&mut self, class: TrafficClass, line: Addr, waiter: T) -> MdOutcome {
        let s = &mut self.stats[meta_index(class)];
        match &mut self.store {
            Store::Perfect => {
                s.cache.hits += 1;
                MdOutcome::Hit
            }
            Store::Infinite(present) => {
                if present.contains(&line) {
                    s.cache.hits += 1;
                    return MdOutcome::Hit;
                }
                s.cache.misses += 1;
                let m = &mut self.mshrs[0];
                match m.access(line, FULL_SECTOR_MASK, waiter) {
                    MshrOutcome::Allocated => {
                        s.mshr.primary += 1;
                        MdOutcome::FetchNeeded
                    }
                    MshrOutcome::Merged | MshrOutcome::MergedNewSectors(_) => {
                        s.mshr.secondary += 1;
                        MdOutcome::Merged
                    }
                    MshrOutcome::Full(_) => {
                        s.mshr.stalls += 1;
                        MdOutcome::Stall
                    }
                }
            }
            Store::Real(caches) => {
                let ci = match (self.kind, caches.len()) {
                    (MetadataCacheKind::Separate, 3) => meta_index(class),
                    _ => 0,
                };
                use secmem_gpusim::cache::Probe;
                match caches[ci].probe(line, FULL_SECTOR_MASK) {
                    Probe::Hit => {
                        s.cache.hits += 1;
                        MdOutcome::Hit
                    }
                    Probe::PartialMiss(_) | Probe::Miss => {
                        s.cache.misses += 1;
                        if self.mshr_enabled {
                            let mi = if self.mshrs.len() == 3 { meta_index(class) } else { 0 };
                            match self.mshrs[mi].access(line, FULL_SECTOR_MASK, waiter) {
                                MshrOutcome::Allocated => {
                                    s.mshr.primary += 1;
                                    MdOutcome::FetchNeeded
                                }
                                MshrOutcome::Merged | MshrOutcome::MergedNewSectors(_) => {
                                    s.mshr.secondary += 1;
                                    MdOutcome::Merged
                                }
                                MshrOutcome::Full(_) => {
                                    s.mshr.stalls += 1;
                                    MdOutcome::Stall
                                }
                            }
                        } else {
                            // No MSHRs (§V-A): every miss fetches, even to a
                            // line already in flight (a redundant secondary
                            // fetch). Track waiters privately, FIFO.
                            let entry = self.private_waiters.entry(line).or_default();
                            if entry.is_empty() {
                                s.mshr.primary += 1;
                            } else {
                                s.mshr.secondary += 1;
                            }
                            entry.push(waiter);
                            MdOutcome::FetchNeeded
                        }
                    }
                }
            }
        }
    }

    /// The fill generation of the MSHR file serving `class`. While it
    /// equals the generation an access of `class` stalled under, the same
    /// access stalls again; [`MetadataCaches::note_stall`] accounts it.
    pub(crate) fn fill_generation(&self, class: TrafficClass) -> NonZeroU32 {
        self.fill_gens[self.mshr_index(class)]
    }

    /// Accounts an access of `class` to `line` that is known to stall (it
    /// stalled under the current [`MetadataCaches::fill_generation`]):
    /// every side effect of the stalled [`MetadataCaches::access`], the
    /// miss and stall stats and the cache's probe tick, without probing.
    pub(crate) fn note_stall(&mut self, class: TrafficClass, line: Addr) {
        debug_assert!(!self.contains(class, line), "a stalled access misses");
        let s = &mut self.stats[meta_index(class)];
        s.cache.misses += 1;
        s.mshr.stalls += 1;
        if let Store::Real(caches) = &mut self.store {
            let ci = match (self.kind, caches.len()) {
                (MetadataCacheKind::Separate, 3) => meta_index(class),
                _ => 0,
            };
            caches[ci].note_miss();
        }
        let mi = self.mshr_index(class);
        self.mshrs[mi].note_stall();
    }

    /// Completes a metadata fetch: installs the line and returns the
    /// waiters to notify plus any (dirty) evictions for lazy update and
    /// writeback. With MSHRs all merged waiters return at once; without,
    /// each fill returns one waiter (one fetch per waiter).
    pub fn fill(&mut self, class: TrafficClass, line: Addr) -> (Vec<T>, Vec<Eviction>) {
        let mi = self.mshr_index(class);
        self.fill_gens[mi] = self.fill_gens[mi].checked_add(1).unwrap_or(NonZeroU32::MIN);
        let mut evictions = Vec::new();
        match &mut self.store {
            Store::Perfect => {}
            Store::Infinite(present) => {
                present.insert(line);
            }
            Store::Real(caches) => {
                let ci = match (self.kind, caches.len()) {
                    (MetadataCacheKind::Separate, 3) => meta_index(class),
                    _ => 0,
                };
                if let Some(ev) = caches[ci].fill(line, FULL_SECTOR_MASK, Default::default()) {
                    let s = &mut self.stats[meta_index(class)];
                    if !ev.dirty.is_empty() {
                        s.writebacks += 1;
                    }
                    evictions.push(ev);
                }
            }
        }
        let waiters = if self.mshr_enabled || !matches!(self.store, Store::Real(_)) {
            self.mshrs[mi].complete(line).map(|(_, w)| w).unwrap_or_default()
        } else {
            match self.private_waiters.get_mut(&line) {
                Some(list) if list.len() == 1 => {
                    // Single waiter (the common case without MSHRs, since
                    // each waiter issues its own fetch): hand back the
                    // list itself, reusing its allocation.
                    self.private_waiters.remove(&line).unwrap_or_default()
                }
                // Not vec![w]: the vec! macro is an allocation-macro
                // site under H2/T1, while const Vec::new + a single
                // push keeps the charge on the growth, not the ctor.
                #[allow(clippy::vec_init_then_push)]
                Some(list) if !list.is_empty() => {
                    let w = list.remove(0);
                    let mut one = Vec::new();
                    one.push(w);
                    one
                }
                _ => Vec::new(),
            }
        };
        (waiters, evictions)
    }

    /// Marks a resident line dirty (counter increment / MAC update / tree
    /// node update). Returns true if the line was resident (always true
    /// for idealized stores).
    pub fn mark_dirty(&mut self, class: TrafficClass, line: Addr) -> bool {
        match &mut self.store {
            Store::Perfect => true,
            Store::Infinite(present) => present.contains(&line),
            Store::Real(caches) => {
                let ci = match (self.kind, caches.len()) {
                    (MetadataCacheKind::Separate, 3) => meta_index(class),
                    _ => 0,
                };
                caches[ci].mark_dirty(line, FULL_SECTOR_MASK)
            }
        }
    }

    /// True if the line is resident (no side effects).
    pub fn contains(&self, class: TrafficClass, line: Addr) -> bool {
        match &self.store {
            Store::Perfect => true,
            Store::Infinite(present) => present.contains(&line),
            Store::Real(caches) => {
                let ci = match (self.kind, caches.len()) {
                    (MetadataCacheKind::Separate, 3) => meta_index(class),
                    _ => 0,
                };
                !matches!(caches[ci].peek(line, FULL_SECTOR_MASK), secmem_gpusim::cache::Probe::Miss)
            }
        }
    }

    /// Per-class statistics `[counter, mac, tree]`.
    pub fn stats(&self) -> [MetadataTypeStats; 3] {
        self.stats
    }

    /// Record an external writeback of a dirty evicted line (statistics).
    pub fn note_writeback(&mut self, class: TrafficClass) {
        let _ = class;
    }

    /// Resets statistics (contents and in-flight state preserved).
    pub fn reset_stats(&mut self) {
        self.stats = Default::default();
        if let Store::Real(caches) = &mut self.store {
            for c in caches {
                c.reset_stats();
            }
        }
        for m in &mut self.mshrs {
            m.reset_stats();
        }
    }

    /// True when no fetches are outstanding.
    pub fn is_quiet(&self) -> bool {
        self.mshrs.iter().all(MshrFile::is_empty) && self.private_waiters.is_empty()
    }

    /// Outstanding miss-handling entries: MSHR allocations plus waiters
    /// parked on in-flight fills when MSHRs are disabled (telemetry
    /// occupancy probe).
    pub fn mshr_occupancy(&self) -> usize {
        self.mshrs.iter().map(MshrFile::len).sum::<usize>()
            // lint:allow(D3): summing lengths is order-independent
            + self.private_waiters.values().map(Vec::len).sum::<usize>()
    }
}

impl<T: Snapshot> MetadataCaches<T> {
    /// Serializes cache contents, in-flight fetch state and statistics.
    /// Geometry (store kind, cache sizes, MSHR capacity) is config-derived
    /// and not stored; restore validates the payload against it.
    pub fn save_state(&self, w: &mut Writer) {
        match &self.store {
            Store::Real(caches) => {
                w.put_u8(0);
                w.put_usize(caches.len());
                for c in caches {
                    c.save_state(w);
                }
            }
            Store::Infinite(present) => {
                w.put_u8(1);
                let mut lines: Vec<Addr> = present.iter().copied().collect();
                lines.sort_unstable();
                lines.save(w);
            }
            Store::Perfect => w.put_u8(2),
        }
        w.put_usize(self.mshrs.len());
        for m in &self.mshrs {
            m.save_state(w);
        }
        // lint:allow(D3): keys are sorted before serialization
        let mut parked: Vec<Addr> = self.private_waiters.keys().copied().collect();
        parked.sort_unstable();
        w.put_usize(parked.len());
        for line in parked {
            w.put_u64(line);
            self.private_waiters[&line].save(w);
        }
        self.stats.save(w);
    }

    /// Restores state saved by [`MetadataCaches::save_state`] into a
    /// subsystem freshly built from the same configuration.
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the payload is malformed or its geometry
    /// does not match this subsystem's configuration.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let disc = r.get_u8()?;
        match (&mut self.store, disc) {
            (Store::Real(caches), 0) => {
                let n = r.get_usize()?;
                if n != caches.len() {
                    return Err(CheckpointError::Malformed(format!(
                        "metadata cache count {n} != {}",
                        caches.len()
                    )));
                }
                for c in caches.iter_mut() {
                    c.restore_state(r)?;
                }
            }
            (Store::Infinite(present), 1) => {
                let lines = Vec::<Addr>::load(r)?;
                present.clear();
                present.extend(lines);
            }
            (Store::Perfect, 2) => {}
            (_, d) => {
                return Err(CheckpointError::Malformed(format!(
                    "metadata store discriminant {d} does not match configuration"
                )));
            }
        }
        let n = r.get_usize()?;
        if n != self.mshrs.len() {
            return Err(CheckpointError::Malformed(format!(
                "metadata MSHR file count {n} != {}",
                self.mshrs.len()
            )));
        }
        for m in &mut self.mshrs {
            m.restore_state(r)?;
        }
        let parked = r.get_count()?;
        self.private_waiters.clear();
        for _ in 0..parked {
            let line = r.get_u64()?;
            let waiters = Vec::<T>::load(r)?;
            self.private_waiters.insert(line, waiters);
        }
        self.stats = <[MetadataTypeStats; 3]>::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SecureMemConfig {
        SecureMemConfig::secure_mem()
    }

    const CTR: TrafficClass = TrafficClass::Counter;
    const MAC: TrafficClass = TrafficClass::Mac;

    #[test]
    fn miss_fill_hit_cycle() {
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&cfg());
        assert_eq!(md.access(CTR, 0x1000, 1), MdOutcome::FetchNeeded);
        let (waiters, ev) = md.fill(CTR, 0x1000);
        assert_eq!(waiters, vec![1]);
        assert!(ev.is_empty());
        assert_eq!(md.access(CTR, 0x1000, 2), MdOutcome::Hit);
        let s = md.stats()[0];
        assert_eq!(s.cache.hits, 1);
        assert_eq!(s.cache.misses, 1);
    }

    #[test]
    fn secondary_misses_merge_with_mshrs() {
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&cfg());
        assert_eq!(md.access(MAC, 0x2000, 1), MdOutcome::FetchNeeded);
        assert_eq!(md.access(MAC, 0x2000, 2), MdOutcome::Merged);
        assert_eq!(md.access(MAC, 0x2000, 3), MdOutcome::Merged);
        let (waiters, _) = md.fill(MAC, 0x2000);
        assert_eq!(waiters, vec![1, 2, 3]);
        let s = md.stats()[1];
        assert_eq!(s.mshr.primary, 1);
        assert_eq!(s.mshr.secondary, 2);
    }

    #[test]
    fn no_mshr_mode_refetches_per_access() {
        let mut c = cfg();
        c.mdcache_mshrs = 0;
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&c);
        assert_eq!(md.access(CTR, 0x0, 1), MdOutcome::FetchNeeded);
        assert_eq!(md.access(CTR, 0x0, 2), MdOutcome::FetchNeeded, "no merging without MSHRs");
        let (w1, _) = md.fill(CTR, 0x0);
        assert_eq!(w1, vec![1]);
        let (w2, _) = md.fill(CTR, 0x0);
        assert_eq!(w2, vec![2]);
        let s = md.stats()[0];
        assert_eq!(s.mshr.primary, 1);
        assert_eq!(s.mshr.secondary, 1);
        assert!(md.is_quiet());
    }

    #[test]
    fn perfect_always_hits() {
        let mut c = cfg();
        c.idealization = MdcIdealization::Perfect;
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&c);
        for i in 0..1000u64 {
            assert_eq!(md.access(CTR, i * 128, 0), MdOutcome::Hit);
        }
        assert_eq!(md.stats()[0].cache.misses, 0);
    }

    #[test]
    fn infinite_only_cold_misses() {
        let mut c = cfg();
        c.idealization = MdcIdealization::Infinite;
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&c);
        // Touch far more lines than a 2 KB cache could hold.
        for i in 0..500u64 {
            assert_eq!(md.access(CTR, i * 128, i as u32), MdOutcome::FetchNeeded);
            let (_, ev) = md.fill(CTR, i * 128);
            assert!(ev.is_empty(), "infinite cache never evicts");
        }
        for i in 0..500u64 {
            assert_eq!(md.access(CTR, i * 128, 0), MdOutcome::Hit);
        }
        assert_eq!(md.stats()[0].cache.misses, 500);
        assert_eq!(md.stats()[0].cache.hits, 500);
    }

    #[test]
    fn eviction_and_dirty_writeback_stats() {
        let mut c = cfg();
        c.mdcache_bytes = 256; // 2 lines, force evictions
        c.mdcache_assoc = 2;
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&c);
        assert_eq!(md.access(CTR, 0x0, 1), MdOutcome::FetchNeeded);
        md.fill(CTR, 0x0);
        assert!(md.mark_dirty(CTR, 0x0));
        md.access(CTR, 0x80, 2);
        md.fill(CTR, 0x80);
        md.access(CTR, 0x100, 3);
        let (_, ev) = md.fill(CTR, 0x100);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].line_addr, 0x0);
        assert!(!ev[0].dirty.is_empty(), "dirty line evicted");
        assert_eq!(md.stats()[0].writebacks, 1);
    }

    #[test]
    fn unified_shares_one_cache() {
        let mut c = cfg();
        c.cache_kind = MetadataCacheKind::Unified;
        c.unified_bytes = 256; // 2 lines
        c.mdcache_assoc = 2;
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&c);
        md.access(CTR, 0x0, 1);
        md.fill(CTR, 0x0);
        md.access(MAC, 0x8000, 2);
        md.fill(MAC, 0x8000);
        // A tree fill now evicts the counter line: contention across types.
        md.access(TrafficClass::Tree, 0x10_000, 3);
        let (_, ev) = md.fill(TrafficClass::Tree, 0x10_000);
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].line_addr, 0x0);
        assert_eq!(md.access(CTR, 0x0, 4), MdOutcome::FetchNeeded, "counter was evicted by MAC/tree stream");
    }

    #[test]
    fn mark_dirty_on_absent_line_fails() {
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&cfg());
        assert!(!md.mark_dirty(CTR, 0xABC00));
    }

    fn snapshot(md: &MetadataCaches<u32>) -> Vec<u8> {
        let mut w = Writer::new();
        md.save_state(&mut w);
        w.into_bytes()
    }

    /// Builds two identical subsystems and drives both to the point where
    /// `drive` ends on a stall, then stalls one again through `access` and
    /// accounts the other through `note_stall`: the two must be
    /// indistinguishable, in checkpoint bytes and in statistics.
    fn assert_note_stall_matches_access(
        c: &SecureMemConfig,
        drive: impl Fn(&mut MetadataCaches<u32>) -> Addr,
    ) {
        let mut probed: MetadataCaches<u32> = MetadataCaches::new(c);
        let mut noted: MetadataCaches<u32> = MetadataCaches::new(c);
        for md in [&mut probed, &mut noted] {
            md.fill(MAC, 0x9000);
        }
        let line = drive(&mut probed);
        assert_eq!(drive(&mut noted), line);
        let generation = probed.fill_generation(CTR);
        for _ in 0..3 {
            assert_eq!(probed.access(CTR, line, 99), MdOutcome::Stall);
            noted.note_stall(CTR, line);
            assert_eq!(snapshot(&probed), snapshot(&noted));
            assert_eq!(probed.stats(), noted.stats());
        }
        assert_eq!(probed.fill_generation(CTR), generation, "only a fill moves the generation");
    }

    /// Fills the file with distinct lines until one stalls.
    fn stall_on_full_file(md: &mut MetadataCaches<u32>) -> Addr {
        (0..1_000u64)
            .map(|i| i * 128)
            .find(|&line| md.access(CTR, line, 1) == MdOutcome::Stall)
            .expect("a finite MSHR file fills up")
    }

    /// Merges into one line's entry until its merge list is full.
    fn stall_on_full_merge(md: &mut MetadataCaches<u32>) -> Addr {
        (0..1_000u32).find(|&w| md.access(CTR, 0x4000, w) == MdOutcome::Stall).expect("merge list fills up");
        0x4000
    }

    #[test]
    fn note_stall_matches_a_stalled_access_for_every_store() {
        let mut separate = cfg();
        separate.mdcache_mshrs = 2;
        separate.mdcache_mshr_merge = 3;
        let mut unified = separate.clone();
        unified.cache_kind = MetadataCacheKind::Unified;
        let mut infinite = separate.clone();
        infinite.idealization = MdcIdealization::Infinite;
        for c in [&separate, &unified] {
            assert_note_stall_matches_access(c, stall_on_full_file);
        }
        for c in [&separate, &unified, &infinite] {
            assert_note_stall_matches_access(c, stall_on_full_merge);
        }
    }

    #[test]
    fn fill_generation_moves_on_fills_of_its_file_only() {
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&cfg());
        let (ctr, mac) = (md.fill_generation(CTR), md.fill_generation(MAC));
        md.access(CTR, 0x0, 1);
        md.access(MAC, 0x8000, 2);
        assert_eq!((md.fill_generation(CTR), md.fill_generation(MAC)), (ctr, mac));
        md.fill(MAC, 0x8000);
        assert_eq!(md.fill_generation(CTR), ctr, "separate caches have separate files");
        assert_ne!(md.fill_generation(MAC), mac);
    }

    #[test]
    fn contains_has_no_side_effects() {
        let mut md: MetadataCaches<u32> = MetadataCaches::new(&cfg());
        assert!(!md.contains(CTR, 0x0));
        let before = md.stats()[0].cache.accesses();
        let _ = md.contains(CTR, 0x0);
        assert_eq!(md.stats()[0].cache.accesses(), before);
        md.access(CTR, 0x0, 1);
        md.fill(CTR, 0x0);
        assert!(md.contains(CTR, 0x0));
    }
}
