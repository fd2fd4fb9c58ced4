//! Supervision policy: restart budgets, exponential backoff, and the
//! per-worker circuit breaker.
//!
//! Time here is *logical*: the supervisor counts ticks (one per
//! [`ShardedRuntime::dispatch`](crate::ShardedRuntime::dispatch) pass),
//! not wall-clock time. Backoff and breaker cooldowns expressed in ticks
//! replay bit-identically under a fixed fault seed, which is what makes
//! the chaos experiment's recovery-latency numbers reproducible.
//!
//! Per-worker state machine:
//!
//! ```text
//!            fault                    fault (budget left)
//! Running ────────────▶ Backoff ◀─────────────────────┐
//!    ▲                     │ backoff ticks elapse      │
//!    │                     ▼                           │
//!    │ batch completes   respawn ──────────────────▶ Running
//!    │
//!    │         consecutive faults ≥ budget
//!    │  ┌──────────────────────────────────────────┐
//!    │  ▼                                          │
//!    │ Open ── cooldown ticks ──▶ HalfOpen ── fault ┘
//!    │                              │
//!    └──────────────────────────────┘ batch completes
//! ```
//!
//! While a worker sits in `Backoff` or `Open`, the dispatcher does not
//! feed it: its shard's packets are redistributed to a healthy peer or,
//! when none exists, shed with accounting. That is the graceful
//! degradation half of the design — a crash-looping shard costs its own
//! throughput, never the runtime's liveness.

/// Restart and breaker parameters for one runtime.
#[derive(Debug, Clone)]
pub struct RestartPolicy {
    /// Consecutive faults (no completed batch in between) a worker may
    /// accumulate before its circuit breaker opens.
    pub max_consecutive_faults: u32,
    /// Backoff before the first respawn, in supervision ticks. Doubles
    /// per consecutive fault. Zero means respawn on the next tick —
    /// the pre-chaos runtime's eager behavior.
    pub backoff_base_ticks: u64,
    /// Upper bound on the exponential backoff, in ticks.
    pub backoff_cap_ticks: u64,
    /// Ticks an open breaker waits before letting one probe respawn
    /// through (`Open` → `HalfOpen`).
    pub breaker_cooldown_ticks: u64,
    /// Upper bound (exclusive) on deterministic jitter added to each
    /// backoff, in ticks; zero disables jitter.
    pub backoff_jitter_ticks: u64,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        Self {
            max_consecutive_faults: 8,
            backoff_base_ticks: 0,
            backoff_cap_ticks: 64,
            breaker_cooldown_ticks: 16,
            backoff_jitter_ticks: 0,
        }
    }
}

impl RestartPolicy {
    /// Backoff (before jitter) for the `consecutive`-th fault in a row,
    /// 1-based: `base * 2^(consecutive-1)`, capped.
    pub fn backoff_ticks(&self, consecutive: u32) -> u64 {
        if self.backoff_base_ticks == 0 {
            return 0;
        }
        let doublings = consecutive.saturating_sub(1).min(32);
        self.backoff_base_ticks
            .saturating_mul(1u64 << doublings)
            .min(self.backoff_cap_ticks)
    }
}

/// Where a worker sits in the supervision state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy and fed by the dispatcher.
    Running,
    /// Faulted; waiting out its backoff before a respawn.
    Backoff,
    /// Crash-looped past its restart budget; not respawned until the
    /// cooldown elapses. Its flows are redistributed or shed.
    Open,
    /// Probe generation after an open breaker's cooldown: one completed
    /// batch closes the breaker, one more fault reopens it.
    HalfOpen,
}

impl BreakerState {
    /// Stable short name (used in reports and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Running => "running",
            BreakerState::Backoff => "backoff",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }

    /// True when the dispatcher may feed this worker.
    pub fn accepts_work(&self) -> bool {
        matches!(self, BreakerState::Running | BreakerState::HalfOpen)
    }
}

/// Per-slot supervision state, owned by the runtime.
#[derive(Debug)]
pub(crate) struct SlotHealth {
    pub state: BreakerState,
    /// Faults since the last completed batch.
    pub consecutive_faults: u32,
    /// Tick at which a `Backoff`/`Open` slot becomes eligible for
    /// respawn.
    pub resume_at: u64,
    /// `WorkerStats::batches()` at the last fault — progress beyond it
    /// proves the respawned worker actually works.
    pub batches_at_fault: u64,
}

impl SlotHealth {
    pub fn new() -> Self {
        Self {
            state: BreakerState::Running,
            consecutive_faults: 0,
            resume_at: 0,
            batches_at_fault: 0,
        }
    }

    /// Manual override (`heal()` / targeted `send_to`): forget history.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

/// What happened, when, to which worker — the supervisor's journal.
///
/// Ticks are logical (see the module docs), so an event sequence from a
/// seeded chaos run is replayable byte for byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SupervisorEvent {
    /// Supervision tick the event was observed on.
    pub tick: u64,
    /// Worker (= shard) index.
    pub worker: usize,
    /// The transition or action.
    pub kind: SupervisorEventKind,
}

/// The supervisor actions worth journaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SupervisorEventKind {
    /// A worker fault was detected (panic, torn channel, or watchdog
    /// kill — the latter is preceded by `WatchdogKill`).
    Fault,
    /// A hung worker was force-failed and its thread abandoned as a
    /// zombie.
    WatchdogKill,
    /// A respawn was scheduled after a backoff.
    BackoffScheduled {
        /// Tick the respawn becomes due.
        until_tick: u64,
    },
    /// The restart budget ran out; the breaker opened.
    BreakerOpened {
        /// Tick the `HalfOpen` probe becomes due.
        until_tick: u64,
    },
    /// An open breaker let its probe generation through.
    BreakerHalfOpened,
    /// The probe generation completed work; the breaker closed.
    BreakerClosed,
    /// The worker's thread was respawned.
    Respawn,
    /// Packets bound for this worker were rerouted to a healthy peer.
    Redistributed {
        /// Packets rerouted.
        packets: u64,
    },
    /// Packets were dropped with accounting (no healthy worker, or a
    /// send that timed out / failed).
    Shed {
        /// Packets shed.
        packets: u64,
    },
    /// A respawned worker was handed a verified snapshot of its
    /// predecessor's state.
    WarmRestore {
        /// Epoch of the snapshot restored from.
        epoch: u64,
        /// Supervision ticks between the snapshot and the restore — the
        /// staleness bound on the recovered state.
        age_ticks: u64,
        /// State items the snapshot carried.
        items_restored: u64,
        /// State items accumulated after the snapshot and lost with the
        /// crash (live gauge at crash minus `items_restored`).
        items_lost: u64,
    },
    /// A buffered snapshot failed verification (or could not be applied)
    /// and was skipped; recovery fell through to the next candidate.
    SnapshotRejected {
        /// Which buffer was rejected (`"latest"` / `"previous"`).
        which: &'static str,
        /// Stable [`rbs_checkpoint::RestoreError::kind`] name.
        reason: &'static str,
    },
    /// No usable snapshot existed; the worker restarted from clean
    /// per-operator state.
    ColdRestore {
        /// State items lost with the crash (live gauge at crash).
        items_lost: u64,
    },
}

impl SupervisorEventKind {
    /// Stable short name (used in reports and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            SupervisorEventKind::Fault => "fault",
            SupervisorEventKind::WatchdogKill => "watchdog-kill",
            SupervisorEventKind::BackoffScheduled { .. } => "backoff-scheduled",
            SupervisorEventKind::BreakerOpened { .. } => "breaker-opened",
            SupervisorEventKind::BreakerHalfOpened => "breaker-half-opened",
            SupervisorEventKind::BreakerClosed => "breaker-closed",
            SupervisorEventKind::Respawn => "respawn",
            SupervisorEventKind::Redistributed { .. } => "redistributed",
            SupervisorEventKind::Shed { .. } => "shed",
            SupervisorEventKind::WarmRestore { .. } => "warm-restore",
            SupervisorEventKind::SnapshotRejected { .. } => "snapshot-rejected",
            SupervisorEventKind::ColdRestore { .. } => "cold-restore",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_eager() {
        let p = RestartPolicy::default();
        for c in 1..10 {
            assert_eq!(p.backoff_ticks(c), 0, "zero base never waits");
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RestartPolicy {
            backoff_base_ticks: 2,
            backoff_cap_ticks: 12,
            ..RestartPolicy::default()
        };
        assert_eq!(p.backoff_ticks(1), 2);
        assert_eq!(p.backoff_ticks(2), 4);
        assert_eq!(p.backoff_ticks(3), 8);
        assert_eq!(p.backoff_ticks(4), 12, "capped");
        assert_eq!(p.backoff_ticks(40), 12, "shift never overflows");
    }

    #[test]
    fn breaker_state_gates_dispatch() {
        assert!(BreakerState::Running.accepts_work());
        assert!(BreakerState::HalfOpen.accepts_work());
        assert!(!BreakerState::Backoff.accepts_work());
        assert!(!BreakerState::Open.accepts_work());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(BreakerState::HalfOpen.name(), "half-open");
        assert_eq!(SupervisorEventKind::WatchdogKill.name(), "watchdog-kill");
        assert_eq!(SupervisorEventKind::Shed { packets: 3 }.name(), "shed");
    }
}
