//! Miss-status holding registers (MSHRs).
//!
//! MSHRs track in-flight line fetches and merge *secondary misses* —
//! accesses to a line that has already been requested but has not yet
//! returned — so they do not generate redundant memory traffic. The paper
//! shows (§V-B) that GPU sectored L2 caches make secondary misses the
//! dominant class of metadata-cache misses (up to >90%), which makes
//! MSHRs essential for metadata caches.
//!
//! The file is a flat slot array sized from the configured capacity (48
//! for an L2 bank, 64 for an L1): hardware MSHR files are tiny, so a
//! linear scan over a contiguous array beats a heap-allocated hash map on
//! every axis the simulator's hot loop cares about — no hashing, no
//! rehash allocation, and per-slot target vectors that keep their
//! capacity across reuse. Fill progress is tracked in the entry itself
//! (`filled` mask) instead of a side table, see [`MshrFile::note_fill`].

use secmem_checkpoint::{CheckpointError, Reader, Snapshot, Writer};

use crate::types::{Addr, SectorMask};

/// Outcome of presenting a miss to the MSHR file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome<T> {
    /// A new entry was allocated (primary miss): the caller must issue a
    /// memory request for the line's missing sectors.
    Allocated,
    /// Merged into an existing entry (secondary miss): no memory request
    /// needed; the target will be notified when the line returns.
    Merged,
    /// Merged into an existing entry, but the entry had not requested all
    /// of the sectors the new access needs: the caller must issue a memory
    /// request for the returned mask only.
    MergedNewSectors(SectorMask),
    /// The file (or the entry's merge capacity) is exhausted; the target
    /// is handed back so the caller can retry later without cloning.
    Full(T),
}

/// Outcome of noting a fill against the file (see [`MshrFile::note_fill`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillOutcome {
    /// No entry tracks this line: the fill is not MSHR-mediated and the
    /// caller should apply it directly.
    Untracked,
    /// The entry is still waiting for more sectors.
    Partial,
    /// Every requested sector has now arrived: the entry was freed, its
    /// targets were drained to the caller, and the mask of sectors the
    /// entry had requested is returned.
    Complete(SectorMask),
}

/// MSHR statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MshrStats {
    /// Primary misses (new entry allocated).
    pub primary: u64,
    /// Secondary misses merged into an existing entry.
    pub secondary: u64,
    /// Accesses rejected because the file or entry was full.
    pub stalls: u64,
}

impl MshrStats {
    /// Fraction of misses that were secondary (0 when no misses).
    pub fn secondary_ratio(&self) -> f64 {
        let total = self.primary + self.secondary;
        if total == 0 {
            0.0
        } else {
            self.secondary as f64 / total as f64
        }
    }
}

/// Key-array sentinel for a free slot. Line addresses are line-aligned,
/// so `Addr::MAX` can never collide with a real key.
const FREE: Addr = Addr::MAX;

#[derive(Debug)]
struct Slot<T> {
    requested: SectorMask,
    filled: SectorMask,
    /// Kept allocated across slot reuse (cleared, not dropped).
    targets: Vec<T>,
}

/// An MSHR file with bounded entries and bounded merges per entry.
///
/// `T` is the caller's target token (e.g. a warp reference or transaction
/// id), returned when the fill completes.
///
/// Line keys live in a dense parallel array (`keys`) so the hot-path
/// lookup scans a few contiguous cache lines of `u64`s instead of
/// striding over the fat slot structs.
#[derive(Debug)]
pub struct MshrFile<T> {
    keys: Vec<Addr>,
    slots: Vec<Slot<T>>,
    live: usize,
    max_merge: usize,
    stats: MshrStats,
}

impl<T> MshrFile<T> {
    /// Creates a file with `capacity` entries, each merging at most
    /// `max_merge` targets (including the primary one).
    pub fn new(capacity: usize, max_merge: usize) -> Self {
        let slots = (0..capacity)
            .map(|_| Slot { requested: SectorMask::EMPTY, filled: SectorMask::EMPTY, targets: Vec::new() })
            .collect();
        Self {
            keys: vec![FREE; capacity],
            slots,
            live: 0,
            max_merge: max_merge.max(1),
            stats: MshrStats::default(),
        }
    }

    #[inline]
    fn find(&self, line_addr: Addr) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        self.keys.iter().position(|&k| k == line_addr)
    }

    /// Presents a missing access. See [`MshrOutcome`].
    pub fn access(&mut self, line_addr: Addr, sectors: SectorMask, target: T) -> MshrOutcome<T> {
        if let Some(i) = self.find(line_addr) {
            let slot = &mut self.slots[i];
            if slot.targets.len() >= self.max_merge {
                self.stats.stalls += 1;
                return MshrOutcome::Full(target);
            }
            slot.targets.push(target);
            self.stats.secondary += 1;
            let missing = sectors.minus(slot.requested);
            if missing.is_empty() {
                MshrOutcome::Merged
            } else {
                slot.requested = slot.requested.union(missing);
                MshrOutcome::MergedNewSectors(missing)
            }
        } else if self.live < self.slots.len() {
            let Some(i) = self.keys.iter().position(|&k| k == FREE) else {
                debug_assert!(false, "live < capacity implies a FREE key slot");
                self.stats.stalls += 1;
                return MshrOutcome::Full(target);
            };
            self.keys[i] = line_addr;
            let slot = &mut self.slots[i];
            slot.requested = sectors;
            slot.filled = SectorMask::EMPTY;
            slot.targets.clear();
            slot.targets.push(target);
            self.live += 1;
            self.stats.primary += 1;
            MshrOutcome::Allocated
        } else {
            self.stats.stalls += 1;
            MshrOutcome::Full(target)
        }
    }

    /// Accounts an access known to stall (the outcome [`MshrFile::access`]
    /// would return as `Full`), without the lookup. Callers replaying a
    /// repeated stall use it.
    pub fn note_stall(&mut self) {
        self.stats.stalls += 1;
    }

    /// True if the line has an in-flight entry.
    pub fn contains(&self, line_addr: Addr) -> bool {
        self.find(line_addr).is_some()
    }

    /// The sectors requested by the line's in-flight entry, if any.
    pub fn requested(&self, line_addr: Addr) -> Option<SectorMask> {
        self.find(line_addr).map(|i| self.slots[i].requested)
    }

    /// The targets merged into the line's in-flight entry, if any (used by
    /// callers asserting that a request id is never in flight twice).
    pub fn targets(&self, line_addr: Addr) -> Option<&[T]> {
        self.find(line_addr).map(|i| self.slots[i].targets.as_slice())
    }

    /// Records that `sectors` of `line_addr` have been filled, tracking
    /// partial progress in the entry itself. When the entry's entire
    /// requested mask has arrived, the entry is freed and its targets are
    /// drained into `targets_out` (appended; the caller's buffer is not
    /// cleared). See [`FillOutcome`].
    pub fn note_fill(
        &mut self,
        line_addr: Addr,
        sectors: SectorMask,
        targets_out: &mut Vec<T>,
    ) -> FillOutcome {
        let Some(i) = self.find(line_addr) else { return FillOutcome::Untracked };
        let slot = &mut self.slots[i];
        slot.filled = slot.filled.union(sectors);
        if slot.filled.contains(slot.requested) {
            let requested = slot.requested;
            self.keys[i] = FREE;
            targets_out.append(&mut slot.targets);
            self.live -= 1;
            FillOutcome::Complete(requested)
        } else {
            FillOutcome::Partial
        }
    }

    /// Completes a fill: removes the entry and returns the sectors that
    /// were requested plus all merged targets. Returns `None` if the line
    /// had no entry (e.g. a prefetch or a zero-capacity file).
    pub fn complete(&mut self, line_addr: Addr) -> Option<(SectorMask, Vec<T>)> {
        let i = self.find(line_addr)?;
        self.keys[i] = FREE;
        let slot = &mut self.slots[i];
        self.live -= 1;
        Some((slot.requested, std::mem::take(&mut slot.targets)))
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no entries are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// True if no new entry can be allocated.
    pub fn is_full(&self) -> bool {
        self.live >= self.slots.len()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> MshrStats {
        self.stats
    }

    /// Resets statistics (entries preserved).
    pub fn reset_stats(&mut self) {
        self.stats = MshrStats::default();
    }
}

impl<T: Snapshot> MshrFile<T> {
    /// Serializes the file **slot-by-slot, index-preserving**: allocation
    /// scans the key array for the first free position, so the exact slot
    /// layout (not just the set of live entries) determines future
    /// allocation order and must survive a checkpoint byte-for-byte.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_usize(self.keys.len());
        for (key, slot) in self.keys.iter().zip(&self.slots) {
            w.put_u64(*key);
            slot.requested.save(w);
            slot.filled.save(w);
            slot.targets.save(w);
        }
        self.stats.save(w);
    }

    /// Restores state saved by [`MshrFile::save_state`] into a file
    /// rebuilt with identical capacity.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Malformed`] on a capacity mismatch; any decode
    /// error otherwise.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        let capacity = r.get_usize()?;
        if capacity != self.keys.len() {
            return Err(CheckpointError::Malformed(format!(
                "MSHR capacity mismatch: checkpoint has {capacity} slots, file has {}",
                self.keys.len()
            )));
        }
        let mut live = 0;
        for (key, slot) in self.keys.iter_mut().zip(&mut self.slots) {
            *key = r.get_u64()?;
            slot.requested = SectorMask::load(r)?;
            slot.filled = SectorMask::load(r)?;
            slot.targets = Vec::load(r)?;
            if *key != FREE {
                live += 1;
            }
        }
        self.live = live;
        self.stats = MshrStats::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FULL_SECTOR_MASK;

    #[test]
    fn allocate_then_merge() {
        let mut m: MshrFile<u32> = MshrFile::new(4, 8);
        assert_eq!(m.access(0x80, SectorMask::single(0), 1), MshrOutcome::Allocated);
        assert_eq!(m.access(0x80, SectorMask::single(0), 2), MshrOutcome::Merged);
        assert_eq!(
            m.access(0x80, SectorMask::single(2), 3),
            MshrOutcome::MergedNewSectors(SectorMask::single(2))
        );
        let (sectors, targets) = m.complete(0x80).expect("entry exists");
        assert_eq!(sectors, SectorMask(0b0101));
        assert_eq!(targets, vec![1, 2, 3]);
        assert!(m.is_empty());
    }

    #[test]
    fn capacity_limit() {
        let mut m: MshrFile<()> = MshrFile::new(2, 8);
        assert_eq!(m.access(0x0, FULL_SECTOR_MASK, ()), MshrOutcome::Allocated);
        assert_eq!(m.access(0x80, FULL_SECTOR_MASK, ()), MshrOutcome::Allocated);
        assert!(m.is_full());
        assert_eq!(m.access(0x100, FULL_SECTOR_MASK, ()), MshrOutcome::Full(()));
        // Merging into existing entries still works when full.
        assert_eq!(m.access(0x0, FULL_SECTOR_MASK, ()), MshrOutcome::Merged);
        assert_eq!(m.stats().stalls, 1);
    }

    #[test]
    fn merge_limit() {
        let mut m: MshrFile<u8> = MshrFile::new(2, 2);
        assert_eq!(m.access(0x0, FULL_SECTOR_MASK, 0), MshrOutcome::Allocated);
        assert_eq!(m.access(0x0, FULL_SECTOR_MASK, 1), MshrOutcome::Merged);
        assert_eq!(m.access(0x0, FULL_SECTOR_MASK, 2), MshrOutcome::Full(2));
        assert_eq!(m.stats().secondary, 1);
    }

    #[test]
    fn full_hands_the_target_back() {
        let mut m: MshrFile<String> = MshrFile::new(0, 1);
        match m.access(0x0, FULL_SECTOR_MASK, "payload".to_string()) {
            MshrOutcome::Full(t) => assert_eq!(t, "payload"),
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn secondary_ratio() {
        let mut m: MshrFile<u8> = MshrFile::new(8, 8);
        let _ = m.access(0x0, FULL_SECTOR_MASK, 0);
        let _ = m.access(0x0, FULL_SECTOR_MASK, 1);
        let _ = m.access(0x0, FULL_SECTOR_MASK, 2);
        let _ = m.access(0x80, FULL_SECTOR_MASK, 3);
        assert!((m.stats().secondary_ratio() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn complete_unknown_line_is_none() {
        let mut m: MshrFile<u8> = MshrFile::new(2, 2);
        assert!(m.complete(0x40).is_none());
    }

    #[test]
    fn zero_capacity_always_full() {
        let mut m: MshrFile<u8> = MshrFile::new(0, 1);
        assert_eq!(m.access(0x0, FULL_SECTOR_MASK, 0), MshrOutcome::Full(0));
    }

    #[test]
    fn note_fill_tracks_partial_progress() {
        let mut m: MshrFile<u32> = MshrFile::new(4, 8);
        let mut out = Vec::new();
        // Untracked line: caller applies the fill directly.
        assert_eq!(m.note_fill(0x80, SectorMask::single(0), &mut out), FillOutcome::Untracked);
        assert!(out.is_empty());
        // Entry wanting two sectors completes only when both arrive.
        assert_eq!(m.access(0x80, SectorMask(0b0011), 7), MshrOutcome::Allocated);
        assert_eq!(m.note_fill(0x80, SectorMask::single(0), &mut out), FillOutcome::Partial);
        assert!(out.is_empty());
        assert_eq!(m.len(), 1);
        assert_eq!(
            m.note_fill(0x80, SectorMask::single(1), &mut out),
            FillOutcome::Complete(SectorMask(0b0011))
        );
        assert_eq!(out, vec![7]);
        assert!(m.is_empty());
    }

    #[test]
    fn reused_slot_starts_with_clean_fill_state() {
        let mut m: MshrFile<u32> = MshrFile::new(1, 8);
        let mut out = Vec::new();
        assert_eq!(m.access(0x0, SectorMask(0b0011), 1), MshrOutcome::Allocated);
        assert_eq!(m.note_fill(0x0, SectorMask(0b0011), &mut out), FillOutcome::Complete(SectorMask(0b0011)));
        out.clear();
        // The reused slot must not inherit the previous entry's fill mask.
        assert_eq!(m.access(0x100, SectorMask(0b0011), 2), MshrOutcome::Allocated);
        assert_eq!(m.note_fill(0x100, SectorMask::single(0), &mut out), FillOutcome::Partial);
        assert!(out.is_empty());
    }

    #[test]
    fn targets_exposes_merged_entries() {
        let mut m: MshrFile<u32> = MshrFile::new(4, 8);
        assert!(m.targets(0x0).is_none());
        let _ = m.access(0x0, FULL_SECTOR_MASK, 10);
        let _ = m.access(0x0, FULL_SECTOR_MASK, 11);
        assert_eq!(m.targets(0x0), Some(&[10, 11][..]));
    }
}
