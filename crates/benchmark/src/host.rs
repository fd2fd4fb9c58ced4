//! The host record stamped on every output: a throughput number means
//! nothing without the machine and thread budget it was measured on.

use crate::json::Json;

/// What the benchmark ran on.
#[derive(Debug, Clone)]
pub struct HostInfo {
    /// Logical CPUs available to this process — the thread budget: no
    /// workload ever keeps more threads busy than this.
    pub nproc: usize,
    /// `model name` from `/proc/cpuinfo`, or `"unknown"`.
    pub cpu_model: String,
    /// Calibrated TSC rate (`rbs_core::cycles::cycles_per_ns`), in Hz.
    pub tsc_hz: f64,
    /// Whether the CPU advertises an invariant TSC.
    pub constant_tsc: bool,
}

impl HostInfo {
    /// Probes the current host.
    pub fn detect() -> HostInfo {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string());
        HostInfo {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model,
            tsc_hz: rbs_core::cycles::cycles_per_ns() * 1e9,
            constant_tsc: cpuinfo.contains("constant_tsc"),
        }
    }

    /// The record as JSON; `lanes_used` is the lane count the workload
    /// actually ran after clamping to the thread budget.
    pub fn to_json(&self, lanes_used: usize) -> Json {
        Json::obj([
            ("nproc", Json::Int(self.nproc as i128)),
            ("cpu_model", Json::str(self.cpu_model.clone())),
            ("tsc_hz", Json::Num(self.tsc_hz)),
            ("constant_tsc", Json::Bool(self.constant_tsc)),
            ("lanes_used", Json::Int(lanes_used as i128)),
        ])
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB, if the kernel
/// exposes it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Confines the calling thread — and every thread it spawns afterwards —
/// to the CPU it is running on, returning that CPU.
///
/// The tenant workloads call this when the engine has a single lane:
/// the control thread and the lane then strictly alternate across the
/// tick barrier, and whether the scheduler wakes the peer on the same
/// CPU or on the other, halted, one decides ~40 % of the throughput and
/// flips from run to run. Pinning (ROADMAP item 1(c): "thread pinning
/// where the host allows") keeps the measurement in one regime.
#[cfg(target_os = "linux")]
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    /// CPUs the mask below can name (glibc's `CPU_SETSIZE`).
    const MAX_CPUS: usize = 1_024;
    // SAFETY: `sched_getcpu` takes no arguments and has no preconditions.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    if cpu >= MAX_CPUS {
        return None;
    }
    let mut mask = [0u64; MAX_CPUS / 64];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, aligned buffer of exactly `cpusetsize`
    // bytes laid out as the kernel's CPU bit mask, and pid 0 names the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// No affinity control off Linux: the caller reports that it ran unpinned.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_current_cpu() -> Option<usize> {
    None
}
