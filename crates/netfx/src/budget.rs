//! Line-rate cycle budgets.
//!
//! The paper's introduction motivates zero-overhead safety with an
//! arithmetic everyone in the line-rate business does on a napkin:
//! "to saturate a 10Gbps network link, kernel device drivers and network
//! stack have a budget of 835 ns per 1K packet (or 1670 cycles on a 2GHz
//! machine)". This module does the napkin math precisely, including
//! Ethernet framing overhead, and is used by experiment E7 to compare a
//! measured pipeline against its budget.

/// Ethernet per-frame overhead on the wire, beyond the L2 frame bytes we
/// store: preamble + SFD (8B) and inter-frame gap (12B).
pub const WIRE_OVERHEAD_BYTES: usize = 20;

/// Frame check sequence (FCS), also on the wire but not in our buffers.
pub const FCS_BYTES: usize = 4;

/// A line-rate processing budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Link rate in bits per second.
    pub link_bps: f64,
    /// Frame size in bytes as stored (L2 header + payload, no FCS).
    pub frame_bytes: usize,
    /// CPU frequency in GHz used to convert time to cycles.
    pub cpu_ghz: f64,
}

impl Budget {
    /// Creates a budget for a `gbps` link, `frame_bytes` frames and a
    /// `cpu_ghz` clock.
    ///
    /// # Panics
    ///
    /// Panics on non-positive rates or zero-length frames.
    pub fn new(gbps: f64, frame_bytes: usize, cpu_ghz: f64) -> Self {
        assert!(gbps > 0.0, "link rate must be positive");
        assert!(frame_bytes > 0, "frames have at least one byte");
        assert!(cpu_ghz > 0.0, "CPU frequency must be positive");
        Self {
            link_bps: gbps * 1e9,
            frame_bytes,
            cpu_ghz,
        }
    }

    /// Bytes one frame occupies on the wire, including framing overhead.
    pub fn wire_bytes(&self) -> usize {
        self.frame_bytes + FCS_BYTES + WIRE_OVERHEAD_BYTES
    }

    /// Packets per second at line rate.
    pub fn packets_per_sec(&self) -> f64 {
        self.link_bps / (self.wire_bytes() as f64 * 8.0)
    }

    /// Time budget per packet, in nanoseconds.
    pub fn ns_per_packet(&self) -> f64 {
        1e9 / self.packets_per_sec()
    }

    /// Cycle budget per packet at the configured clock.
    pub fn cycles_per_packet(&self) -> f64 {
        self.ns_per_packet() * self.cpu_ghz
    }

    /// Fraction of the per-packet budget consumed by `cycles` of work
    /// (1.0 = exactly line rate; > 1.0 = cannot keep up).
    pub fn utilization(&self, cycles_per_packet: f64) -> f64 {
        cycles_per_packet / self.cycles_per_packet()
    }

    /// How many cache misses fit in the budget, at `miss_ns` each — the
    /// paper's "handful of cache misses in the critical path" point,
    /// using the 96–146 ns Haswell-EP latencies it cites \[28\].
    pub fn cache_misses_in_budget(&self, miss_ns: f64) -> f64 {
        assert!(miss_ns > 0.0, "miss latency must be positive");
        self.ns_per_packet() / miss_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reproduces the paper's napkin numbers: ~835 ns and ~1670 cycles
    /// per "1K packet" at 10 Gb/s and 2 GHz.
    ///
    /// 1024B of payload+headers plus 24B of wire overhead is 1048B;
    /// 1048 × 8 / 10⁹ s = 838 ns. The paper rounds to 835; we accept a
    /// ±1% band around our exact arithmetic.
    #[test]
    fn paper_budget_numbers() {
        let b = Budget::new(10.0, 1024, 2.0);
        let ns = b.ns_per_packet();
        assert!((ns - 838.4).abs() < 1.0, "ns/packet = {ns}");
        let cycles = b.cycles_per_packet();
        assert!((cycles - 1676.8).abs() < 2.0, "cycles/packet = {cycles}");
        // Within 1% of the paper's rounded 835/1670.
        assert!((ns - 835.0).abs() / 835.0 < 0.01);
        assert!((cycles - 1670.0).abs() / 1670.0 < 0.01);
    }

    #[test]
    fn minimum_frame_rate_14_88_mpps() {
        // The canonical 10GbE line-rate figure: 64B frames (60 stored +
        // 4 FCS) arrive at 14.88 Mpps.
        let b = Budget::new(10.0, 60, 2.0);
        let mpps = b.packets_per_sec() / 1e6;
        assert!((mpps - 14.88).abs() < 0.01, "mpps = {mpps}");
    }

    #[test]
    fn utilization_scales_linearly() {
        let b = Budget::new(10.0, 1024, 2.0);
        let full = b.cycles_per_packet();
        assert!((b.utilization(full) - 1.0).abs() < 1e-12);
        assert!((b.utilization(full / 2.0) - 0.5).abs() < 1e-12);
        assert!(b.utilization(full * 2.0) > 1.0);
    }

    #[test]
    fn cache_miss_budget_is_a_handful() {
        // The paper's point: at 96-146 ns per memory access, the 835 ns
        // budget allows only ~6-9 misses.
        let b = Budget::new(10.0, 1024, 2.0);
        let at_96 = b.cache_misses_in_budget(96.0);
        let at_146 = b.cache_misses_in_budget(146.0);
        assert!((8.0..10.0).contains(&at_96), "{at_96}");
        assert!((5.0..7.0).contains(&at_146), "{at_146}");
    }

    #[test]
    fn faster_link_shrinks_budget() {
        let b10 = Budget::new(10.0, 1024, 2.0);
        let b40 = Budget::new(40.0, 1024, 2.0);
        assert!((b10.ns_per_packet() / b40.ns_per_packet() - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "link rate")]
    fn zero_rate_rejected() {
        Budget::new(0.0, 64, 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one byte")]
    fn zero_frame_rejected() {
        Budget::new(10.0, 0, 2.0);
    }
}
