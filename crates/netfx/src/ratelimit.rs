//! Token-bucket rate limiting.
//!
//! The firewall's [`RateLimit`](crate#) action needs an enforcement
//! stage; this module provides the classic token bucket, both as a
//! standalone, explicitly-clocked primitive ([`TokenBucket`], fully
//! deterministic for tests) and as pipeline operators with a global or
//! per-flow budget.

use crate::batch::PacketBatch;
use crate::flow::FiveTuple;
use crate::flowtable::{FlowTable, Pack};
use crate::pipeline::Operator;
use std::time::Instant;

/// A token bucket with explicit time: `rate` tokens per second refill,
/// up to `burst` capacity; one token admits one packet.
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_per_sec: f64,
    burst: f64,
    tokens: f64,
    last_refill_ns: u64,
}

impl TokenBucket {
    /// A bucket starting full.
    ///
    /// # Panics
    ///
    /// Panics unless `rate_per_sec` and `burst` are positive and finite.
    pub fn new(rate_per_sec: f64, burst: f64) -> Self {
        assert!(
            rate_per_sec > 0.0 && rate_per_sec.is_finite(),
            "rate must be positive, got {rate_per_sec}"
        );
        assert!(
            burst > 0.0 && burst.is_finite(),
            "burst must be positive, got {burst}"
        );
        Self {
            rate_per_sec,
            burst,
            tokens: burst,
            last_refill_ns: 0,
        }
    }

    /// Refills according to the time advanced since the last refill.
    /// Time must be monotone; regressions are ignored.
    pub fn refill(&mut self, now_ns: u64) {
        if now_ns > self.last_refill_ns {
            let dt = (now_ns - self.last_refill_ns) as f64 / 1e9;
            self.tokens = (self.tokens + dt * self.rate_per_sec).min(self.burst);
            self.last_refill_ns = now_ns;
        }
    }

    /// Tries to admit one packet at time `now_ns`.
    pub fn admit(&mut self, now_ns: u64) -> bool {
        self.refill(now_ns);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available.
    pub fn available(&self) -> f64 {
        self.tokens
    }
}

/// The three `f64`s as their IEEE-754 bits, then the refill time, all
/// little-endian: 32 bytes. Bits that break what [`TokenBucket::new`]
/// and `refill` maintain — a rate or burst that is not positive and
/// finite, a level outside `0..=burst` — do not unpack.
impl Pack for TokenBucket {
    const WIDTH: usize = 32;

    fn pack(&self, out: &mut [u8]) {
        out[..8].copy_from_slice(&self.rate_per_sec.to_bits().to_le_bytes());
        out[8..16].copy_from_slice(&self.burst.to_bits().to_le_bytes());
        out[16..24].copy_from_slice(&self.tokens.to_bits().to_le_bytes());
        out[24..].copy_from_slice(&self.last_refill_ns.to_le_bytes());
    }

    fn unpack(b: &[u8]) -> Option<Self> {
        let b: &[u8; 32] = b.try_into().ok()?;
        let word = |at: usize| u64::from_le_bytes(b[at..at + 8].try_into().expect("8 of 32"));
        let bucket = TokenBucket {
            rate_per_sec: f64::from_bits(word(0)),
            burst: f64::from_bits(word(8)),
            tokens: f64::from_bits(word(16)),
            last_refill_ns: word(24),
        };
        let positive = |x: f64| x > 0.0 && x.is_finite();
        (positive(bucket.rate_per_sec)
            && positive(bucket.burst)
            && (0.0..=bucket.burst).contains(&bucket.tokens))
        .then_some(bucket)
    }
}

/// An integer token bucket on an abstract tick clock: `rate_per_tick`
/// tokens accrue per elapsed tick, up to `burst` capacity.
///
/// This is the admission-control primitive for deterministic runtimes
/// (the tenant layer clocks it with its logical tick counter): every
/// quantity is a `u64`, so two runs of the same tick/request sequence
/// produce identical grants — no floating point, no wall clock.
///
/// The refill arithmetic **saturates**: a huge tick gap (clock jump,
/// tenant parked for millions of ticks, `u64::MAX` handed in by a
/// confused caller) refills to exactly `burst`, never wraps through
/// zero. The property tests pin `granted ≤ rate × elapsed + burst`
/// over arbitrary — including non-monotone — tick sequences.
#[derive(Debug, Clone)]
pub struct TickBucket {
    rate_per_tick: u64,
    burst: u64,
    tokens: u64,
    last_tick: u64,
}

impl TickBucket {
    /// A bucket starting full at tick 0.
    ///
    /// # Panics
    ///
    /// Panics if `burst` is zero (the bucket could never admit).
    pub fn new(rate_per_tick: u64, burst: u64) -> Self {
        assert!(burst > 0, "burst must be positive");
        Self {
            rate_per_tick,
            burst,
            tokens: burst,
            last_tick: 0,
        }
    }

    /// Accrues tokens for the ticks elapsed since the last refill.
    /// Time must be monotone; regressions are ignored. The product
    /// `elapsed × rate` saturates, then clamps to `burst` — a large gap
    /// yields a full bucket, never an empty one.
    pub fn refill(&mut self, now_tick: u64) {
        if now_tick > self.last_tick {
            let elapsed = now_tick - self.last_tick;
            let accrued = elapsed.saturating_mul(self.rate_per_tick);
            self.tokens = self.tokens.saturating_add(accrued).min(self.burst);
            self.last_tick = now_tick;
        }
    }

    /// Tries to admit one unit at `now_tick`.
    pub fn admit(&mut self, now_tick: u64) -> bool {
        self.take(now_tick, 1) == 1
    }

    /// Takes up to `want` tokens at `now_tick`, returning how many were
    /// granted (partial grants model per-packet admission of a batch).
    pub fn take(&mut self, now_tick: u64, want: u64) -> u64 {
        self.refill(now_tick);
        let granted = want.min(self.tokens);
        self.tokens -= granted;
        granted
    }

    /// Tokens currently available (as of the last refill).
    pub fn available(&self) -> u64 {
        self.tokens
    }

    /// The refill rate in tokens per tick.
    pub fn rate_per_tick(&self) -> u64 {
        self.rate_per_tick
    }

    /// The burst capacity.
    pub fn burst(&self) -> u64 {
        self.burst
    }

    /// Changes the refill rate in place (breaker throttling). Tokens
    /// already accrued are kept; future refills use the new rate.
    pub fn set_rate(&mut self, rate_per_tick: u64) {
        self.rate_per_tick = rate_per_tick;
    }
}

/// A pipeline stage enforcing one global packet rate.
pub struct RateLimiter {
    bucket: TokenBucket,
    epoch: Instant,
    admitted: u64,
    dropped: u64,
}

impl RateLimiter {
    /// Limits throughput to `pps` packets/second with a burst of `burst`.
    pub fn new(pps: f64, burst: f64) -> Self {
        Self {
            bucket: TokenBucket::new(pps, burst),
            epoch: Instant::now(),
            admitted: 0,
            dropped: 0,
        }
    }

    /// Packets admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Packets dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

impl Operator for RateLimiter {
    fn process(&mut self, mut batch: PacketBatch) -> PacketBatch {
        let now = self.now_ns();
        batch.retain(|_| {
            let admit = self.bucket.admit(now);
            if admit {
                self.admitted += 1;
            } else {
                self.dropped += 1;
            }
            admit
        });
        batch
    }

    fn name(&self) -> &str {
        "rate-limiter"
    }
}

/// A pipeline stage with an independent token bucket per flow
/// (five-tuple). Non-flow packets (no parseable tuple) are dropped.
pub struct PerFlowRateLimiter {
    pps: f64,
    burst: f64,
    buckets: FlowTable<FiveTuple, TokenBucket>,
    /// Cap on tracked flows; beyond it, new flows are admitted untracked
    /// (fail-open, counted) to bound memory.
    max_flows: usize,
    epoch: Instant,
    admitted: u64,
    dropped: u64,
    untracked: u64,
}

impl PerFlowRateLimiter {
    /// `pps`/`burst` per flow, tracking at most `max_flows` flows.
    pub fn new(pps: f64, burst: f64, max_flows: usize) -> Self {
        assert!(max_flows > 0, "at least one tracked flow required");
        Self {
            pps,
            burst,
            buckets: FlowTable::new(),
            max_flows,
            epoch: Instant::now(),
            admitted: 0,
            dropped: 0,
            untracked: 0,
        }
    }

    /// Flows currently tracked.
    pub fn tracked_flows(&self) -> usize {
        self.buckets.len()
    }

    /// Packets admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Packets dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Packets admitted without tracking because the flow table was full.
    pub fn untracked(&self) -> u64 {
        self.untracked
    }

    /// Admits or rejects one flow occurrence at an explicit time (the
    /// deterministic core the operator wraps).
    pub fn admit_at(&mut self, flow: FiveTuple, now_ns: u64) -> bool {
        if let Some(bucket) = self.buckets.get_mut(&flow) {
            return bucket.admit(now_ns);
        }
        if self.buckets.len() >= self.max_flows {
            self.untracked += 1;
            return true;
        }
        let mut bucket = TokenBucket::new(self.pps, self.burst);
        bucket.last_refill_ns = now_ns;
        let admitted = bucket.admit(now_ns);
        self.buckets.insert(flow, bucket);
        admitted
    }
}

impl Operator for PerFlowRateLimiter {
    fn process(&mut self, mut batch: PacketBatch) -> PacketBatch {
        let now = self.epoch.elapsed().as_nanos() as u64;
        batch.retain_mut(|p| {
            let admit = p.flow().is_ok_and(|flow| self.admit_at(flow, now));
            if admit {
                self.admitted += 1;
            } else {
                self.dropped += 1;
            }
            admit
        });
        batch
    }

    fn name(&self) -> &str {
        "per-flow-rate-limiter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::headers::ethernet::MacAddr;
    use crate::packet::Packet;
    use std::net::Ipv4Addr;

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn bucket_starts_full_and_drains() {
        let mut b = TokenBucket::new(10.0, 3.0);
        assert!(b.admit(0));
        assert!(b.admit(0));
        assert!(b.admit(0));
        assert!(!b.admit(0), "burst of 3 exhausted");
        assert!(b.available() < 1.0);
    }

    #[test]
    fn bucket_refills_at_rate() {
        let mut b = TokenBucket::new(10.0, 3.0);
        for _ in 0..3 {
            assert!(b.admit(0));
        }
        // 100ms at 10 pps = 1 token.
        assert!(b.admit(SEC / 10));
        assert!(!b.admit(SEC / 10));
        // A long gap refills only to the burst cap.
        b.refill(100 * SEC);
        assert!((b.available() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_ignores_time_regression() {
        let mut b = TokenBucket::new(1.0, 1.0);
        assert!(b.admit(SEC));
        b.refill(0); // clock went backwards
        assert!(!b.admit(SEC), "no free tokens from a regressing clock");
    }

    #[test]
    fn sustained_rate_is_enforced() {
        let mut b = TokenBucket::new(100.0, 5.0);
        let mut admitted = 0;
        // Offer 1000 packets over 1 second (1 per ms).
        for ms in 0..1000u64 {
            if b.admit(ms * SEC / 1000) {
                admitted += 1;
            }
        }
        // ~100 (rate) + 5 (initial burst), small tolerance.
        assert!((100..=110).contains(&admitted), "admitted {admitted}");
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn zero_rate_rejected() {
        TokenBucket::new(0.0, 1.0);
    }

    fn pkt(sport: u16) -> Packet {
        Packet::build_udp(
            MacAddr::ZERO,
            MacAddr::ZERO,
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            sport,
            80,
            0,
        )
    }

    #[test]
    fn global_limiter_drops_over_burst() {
        let mut rl = RateLimiter::new(1.0, 4.0);
        let batch: PacketBatch = (0..10).map(|i| pkt(1000 + i)).collect();
        let out = rl.process(batch);
        assert_eq!(out.len(), 4, "burst admits 4, the rest drop");
        assert_eq!(rl.admitted(), 4);
        assert_eq!(rl.dropped(), 6);
        assert_eq!(rl.name(), "rate-limiter");
    }

    #[test]
    fn token_bucket_packs_its_state_and_rejects_what_it_never_holds() {
        let mut bucket = TokenBucket::new(1_000.0, 8.0);
        assert!(bucket.admit(5_000_000));
        let mut packed = [0u8; TokenBucket::WIDTH];
        bucket.pack(&mut packed);
        let mut back = TokenBucket::unpack(&packed).expect("its own encoding");
        assert_eq!(back.available(), bucket.available());
        assert_eq!(back.admit(6_000_000), bucket.admit(6_000_000));
        assert_eq!(back.available(), bucket.available());

        let with = |at: usize, v: f64| {
            let mut bad = packed;
            bad[at..at + 8].copy_from_slice(&v.to_bits().to_le_bytes());
            TokenBucket::unpack(&bad).is_none()
        };
        assert!(with(0, f64::NAN), "rate");
        assert!(with(0, 0.0), "rate");
        assert!(with(8, f64::INFINITY), "burst");
        assert!(with(8, -1.0), "burst");
        assert!(with(16, f64::NAN), "tokens");
        assert!(with(16, 8.5), "more tokens than the burst");
        assert!(with(16, -0.5), "tokens");
        assert!(TokenBucket::unpack(&packed[..31]).is_none(), "short");
    }

    #[test]
    fn per_flow_buckets_are_independent() {
        let mut rl = PerFlowRateLimiter::new(1.0, 2.0, 100);
        let f1 = FiveTuple::of(&pkt(1)).unwrap();
        let f2 = FiveTuple::of(&pkt(2)).unwrap();
        assert!(rl.admit_at(f1, 0));
        assert!(rl.admit_at(f1, 0));
        assert!(!rl.admit_at(f1, 0), "flow 1 exhausted");
        assert!(rl.admit_at(f2, 0), "flow 2 has its own bucket");
        assert_eq!(rl.tracked_flows(), 2);
    }

    #[test]
    fn per_flow_operator_counts() {
        let mut rl = PerFlowRateLimiter::new(1000.0, 1.0, 100);
        // Two packets of the same flow in one batch: second exceeds burst.
        let batch: PacketBatch = vec![pkt(7), pkt(7), pkt(8)].into_iter().collect();
        let out = rl.process(batch);
        assert_eq!(out.len(), 2);
        assert_eq!(rl.admitted(), 2);
        assert_eq!(rl.dropped(), 1);
    }

    #[test]
    fn tick_bucket_starts_full_and_drains() {
        let mut b = TickBucket::new(2, 3);
        assert_eq!(b.take(0, 10), 3, "initial burst");
        assert!(!b.admit(0));
        // One tick refills 2.
        assert_eq!(b.take(1, 10), 2);
        assert_eq!(b.available(), 0);
    }

    #[test]
    fn tick_bucket_saturates_on_huge_gaps() {
        let mut b = TickBucket::new(u64::MAX, 5);
        b.take(0, 5);
        // elapsed × rate would wrap catastrophically without saturation.
        b.refill(u64::MAX);
        assert_eq!(b.available(), 5, "gap refills to burst, never wraps");
        let mut c = TickBucket::new(3, 10);
        c.take(0, 10);
        c.refill(u64::MAX / 2);
        assert_eq!(c.available(), 10);
    }

    #[test]
    fn tick_bucket_ignores_time_regression() {
        let mut b = TickBucket::new(1, 1);
        assert!(b.admit(10));
        b.refill(0);
        assert!(!b.admit(10), "no free tokens from a regressing clock");
        assert!(b.admit(11));
    }

    #[test]
    fn tick_bucket_enforces_sustained_rate() {
        let mut b = TickBucket::new(4, 8);
        let mut granted = 0;
        for tick in 0..100u64 {
            granted += b.take(tick, 100);
        }
        // 8 initial + 4/tick × 99 elapsed ticks.
        assert_eq!(granted, 8 + 4 * 99);
    }

    #[test]
    fn tick_bucket_set_rate_applies_forward() {
        let mut b = TickBucket::new(10, 100);
        b.take(0, 100);
        b.set_rate(1);
        assert_eq!(b.take(5, 100), 5, "new rate governs the refill");
    }

    #[test]
    #[should_panic(expected = "burst must be positive")]
    fn tick_bucket_zero_burst_rejected() {
        TickBucket::new(1, 0);
    }

    proptest::proptest! {
        /// The satellite invariant: over ANY tick/request sequence —
        /// non-monotone, overflowing, arbitrary request sizes — the
        /// total granted never exceeds `rate × elapsed + burst`, where
        /// elapsed is the furthest the clock ever advanced.
        #[test]
        fn tick_bucket_never_overgrants(
            rate in 0u64..=u64::MAX,
            burst in 1u64..=u64::MAX,
            ops in proptest::collection::vec((0u64..=u64::MAX, 0u64..=4096), 1..64),
        ) {
            let mut b = TickBucket::new(rate, burst);
            let mut granted: u128 = 0;
            let mut max_tick: u128 = 0;
            for &(tick, want) in &ops {
                granted += u128::from(b.take(tick, want));
                max_tick = max_tick.max(u128::from(tick));
            }
            let bound = u128::from(rate) * max_tick + u128::from(burst);
            proptest::prop_assert!(
                granted <= bound,
                "granted {granted} exceeds rate×elapsed+burst = {bound}"
            );
        }

        /// Saturation, not wrap: after any sequence the available token
        /// count is still within the burst cap.
        #[test]
        fn tick_bucket_tokens_never_exceed_burst(
            rate in 0u64..=u64::MAX,
            burst in 1u64..=u64::MAX,
            ticks in proptest::collection::vec(0u64..=u64::MAX, 1..64),
        ) {
            let mut b = TickBucket::new(rate, burst);
            for &t in &ticks {
                b.refill(t);
                proptest::prop_assert!(b.available() <= b.burst());
            }
        }
    }

    #[test]
    fn flow_table_cap_fails_open() {
        let mut rl = PerFlowRateLimiter::new(1.0, 1.0, 2);
        for sport in 0..5u16 {
            let f = FiveTuple::of(&pkt(sport)).unwrap();
            assert!(rl.admit_at(f, 0));
        }
        assert_eq!(rl.tracked_flows(), 2);
        assert_eq!(rl.untracked(), 3);
    }
}
