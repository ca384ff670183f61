//! Timing models of the cryptographic units in each memory controller:
//! pipelined AES engines and the MAC/hash unit.
//!
//! A pipelined AES-128 engine produces 16 B per *memory* cycle; at the
//! paper's 850 MHz memory clock that is 13.6 GB/s per engine, so two
//! engines per partition match the 868 GB/s / 32 ≈ 27 GB/s channel
//! bandwidth — the "balanced design" of §IV. The simulator runs in core
//! cycles (1132 MHz), so one engine sustains 16 × 850/1132 ≈ 12 B per
//! core cycle.

use secmem_checkpoint::{CheckpointError, Reader, Writer};
use secmem_gpusim::types::Cycle;

/// Fixed-point scale (10 fractional bits) shared with the DRAM model.
const FP: u64 = 1024;

/// A bank of pipelined AES engines, modeled as a shared throughput
/// resource plus a fixed pipeline latency.
#[derive(Debug, Clone)]
pub struct AesEngineBank {
    bytes_per_cycle_fp: u64,
    latency: Cycle,
    next_free_fp: u64,
    /// 16 B blocks processed (statistics).
    pub blocks: u64,
    /// Total cycles requests waited for a free pipeline slot.
    pub stall_cycles: u64,
}

impl AesEngineBank {
    /// Creates a bank of `engines` pipelined AES engines.
    ///
    /// * `engines` — engine count ({1,2} in the paper).
    /// * `latency` — pipeline depth in core cycles (0 with `0_crypto`).
    /// * `core_clock_mhz` / `mem_clock_mhz` — clock ratio used to convert
    ///   the 16 B/mem-cycle engine throughput into core cycles.
    pub fn new(engines: u32, latency: u32, core_clock_mhz: u64, mem_clock_mhz: u64) -> Self {
        assert!(engines > 0, "need at least one engine");
        let bytes_per_cycle_fp = 16 * engines as u64 * mem_clock_mhz * FP / core_clock_mhz;
        Self { bytes_per_cycle_fp, latency: latency as Cycle, next_free_fp: 0, blocks: 0, stall_cycles: 0 }
    }

    /// An idealized bank with infinite throughput and zero latency
    /// (`0_crypto`).
    pub fn ideal() -> Self {
        Self {
            bytes_per_cycle_fp: u64::MAX / (FP * FP),
            latency: 0,
            next_free_fp: 0,
            blocks: 0,
            stall_cycles: 0,
        }
    }

    /// Schedules encryption/decryption of `bytes` starting no earlier than
    /// `now`; returns the cycle at which the output is available.
    pub fn schedule(&mut self, now: Cycle, bytes: u64) -> Cycle {
        let now_fp = now * FP;
        let start_fp = self.next_free_fp.max(now_fp);
        let service_fp = bytes * FP * FP / self.bytes_per_cycle_fp;
        self.next_free_fp = start_fp + service_fp;
        self.blocks += bytes.div_ceil(16);
        self.stall_cycles += (start_fp - now_fp) / FP;
        (start_fp + service_fp).div_ceil(FP) + self.latency
    }

    /// Serializes the mutable scheduling state (pipeline occupancy and
    /// statistics); throughput and latency are config-derived.
    pub fn save_state(&self, w: &mut Writer) {
        w.put_u64(self.next_free_fp);
        w.put_u64(self.blocks);
        w.put_u64(self.stall_cycles);
    }

    /// Restores state saved by [`AesEngineBank::save_state`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the payload is truncated.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.next_free_fp = r.get_u64()?;
        self.blocks = r.get_u64()?;
        self.stall_cycles = r.get_u64()?;
        Ok(())
    }

    /// Effective throughput in bytes per core cycle.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes_per_cycle_fp as f64 / FP as f64
    }

    /// The pipeline latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.latency
    }
}

/// The MAC / hash unit: pipelined (throughput never limits) with a fixed
/// latency. Under speculative verification its latency stays off the load
/// critical path, so the model only tracks completion times for statistics
/// and for write-path sequencing.
#[derive(Debug, Clone)]
pub struct MacUnit {
    latency: Cycle,
    /// MAC/hash operations performed.
    pub ops: u64,
}

impl MacUnit {
    /// Creates a MAC unit with the given latency (default 40 cycles).
    pub fn new(latency: u32) -> Self {
        Self { latency: latency as Cycle, ops: 0 }
    }

    /// Schedules one MAC computation starting at `now`; returns the
    /// completion cycle.
    pub fn schedule(&mut self, now: Cycle) -> Cycle {
        self.ops += 1;
        now + self.latency
    }

    /// The unit latency in cycles.
    pub fn latency(&self) -> Cycle {
        self.latency
    }

    /// Serializes the operation counter (latency is config-derived).
    pub fn save_state(&self, w: &mut Writer) {
        w.put_u64(self.ops);
    }

    /// Restores state saved by [`MacUnit::save_state`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] when the payload is truncated.
    pub fn restore_state(&mut self, r: &mut Reader<'_>) -> Result<(), CheckpointError> {
        self.ops = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_engine_throughput() {
        // 16 B/mem-cycle at 850/1132 -> ~12.01 B/core-cycle.
        let bank = AesEngineBank::new(1, 40, 1132, 850);
        assert!((bank.bytes_per_cycle() - 12.01).abs() < 0.05, "{}", bank.bytes_per_cycle());
    }

    #[test]
    fn two_engines_double_throughput() {
        let one = AesEngineBank::new(1, 40, 1132, 850);
        let two = AesEngineBank::new(2, 40, 1132, 850);
        let ratio = two.bytes_per_cycle() / one.bytes_per_cycle();
        assert!((ratio - 2.0).abs() < 0.01);
    }

    #[test]
    fn latency_added_after_service() {
        let mut bank = AesEngineBank::new(2, 40, 1132, 850);
        let done = bank.schedule(100, 32);
        // 32 B at ~24 B/cycle = ~1.33 cycles service + 40 latency.
        assert!((141..=143).contains(&done), "done at {done}");
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut bank = AesEngineBank::new(1, 0, 1000, 1000);
        // 16 B/cycle: each 32 B op takes 2 cycles of pipe occupancy.
        let d1 = bank.schedule(0, 32);
        let d2 = bank.schedule(0, 32);
        let d3 = bank.schedule(0, 32);
        assert_eq!(d1, 2);
        assert_eq!(d2, 4);
        assert_eq!(d3, 6);
        assert!(bank.stall_cycles >= 2 + 4 - 1, "stalls recorded: {}", bank.stall_cycles);
        assert_eq!(bank.blocks, 6);
    }

    #[test]
    fn idle_engine_does_not_queue() {
        let mut bank = AesEngineBank::new(1, 10, 1000, 1000);
        let d1 = bank.schedule(0, 16);
        let d2 = bank.schedule(1000, 16);
        assert_eq!(d1, 11);
        assert_eq!(d2, 1011);
        assert_eq!(bank.stall_cycles, 0);
    }

    #[test]
    fn ideal_bank_is_free() {
        let mut bank = AesEngineBank::ideal();
        assert_eq!(bank.schedule(5, 128), 5);
        assert_eq!(bank.schedule(5, 1 << 20), 5);
    }

    #[test]
    fn mac_unit_latency() {
        let mut mac = MacUnit::new(40);
        assert_eq!(mac.schedule(10), 50);
        assert_eq!(mac.schedule(10), 50);
        assert_eq!(mac.ops, 2);
    }
}
