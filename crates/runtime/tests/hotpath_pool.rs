//! Satellite tests for the zero-allocation hot path.
//!
//! Three properties, each load-bearing for the pool design:
//!
//! 1. **Linearity** — a recycled buffer is never observable from two
//!    handles at once, and the pool's books always balance:
//!    `taken == returned + outstanding`, where `outstanding` is exactly
//!    the buffers still live outside the pool plus the ones leaked (as
//!    on a fault). The type system makes aliasing unrepresentable; the
//!    proptest pins the *accounting* to a pointer-level model.
//! 2. **Conservation through the lane engine** — a full generate →
//!    pipeline → recycle cycle on every lane returns every buffer to
//!    some lane's pool (fault-free, stealing on), and under random fault
//!    injection the buffers that do *not* come back are exactly the lost
//!    packets: a dead lane's shed backlog is recycled.
//! 3. **Hash-cache agreement** — the cached flow hash steering reads is
//!    always what [`packet_flow_hash`] recomputes from the bytes,
//!    including for arbitrary garbage frames the 5-tuple extractor
//!    rejects.

use std::collections::HashSet;

use proptest::prelude::*;
use rbs_netfx::flow::packet_flow_hash;
use rbs_netfx::operators::{MacSwap, TtlDecrement};
use rbs_netfx::{Packet, PacketBatch, PacketGen, PacketPool, PipelineSpec, TrafficConfig};
use rbs_runtime::{LaneConfig, LaneReport, LaneRuntime};

/// Pops every buffer the pool holds — free or inside a banked batch —
/// out of it and asserts their slab addresses are pairwise distinct — a
/// double-recycle would have to surface as the same allocation held
/// twice.
fn assert_free_list_has_no_duplicates(pool: &mut PacketPool) {
    let mut seen = HashSet::new();
    while pool.free_buffers() > 0 {
        let buf = pool.take();
        assert!(
            seen.insert(buf.as_ptr() as usize),
            "slab {:p} was banked twice",
            buf.as_ptr()
        );
        std::mem::forget(buf); // keep the allocation alive so addresses stay unique
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Linearity against a pointer-level model: every handle the pool
    /// gives out is tracked; handing out an address that is already
    /// live would mean two owners for one slab. Some buffers are
    /// "leaked" (parked, never returned) the way a poisoned domain
    /// leaks its in-flight batch — they stay on the books as
    /// outstanding, never as corruption. Buffers also go home inside a
    /// batch banked whole, come back out of it rewritten in place by the
    /// generator's refill, or move to the free list when a shell is
    /// taken empty.
    #[test]
    fn pool_linearity_matches_pointer_model(
        ops in proptest::collection::vec((0u8..7, 0usize..6), 1..256),
    ) {
        let mut pool = PacketPool::new(512, 4096);
        pool.prewarm(8);
        let mut gen = PacketGen::new(TrafficConfig::default());
        let mut live: Vec<Vec<u8>> = Vec::new();
        let mut live_ptrs: HashSet<usize> = HashSet::new();
        // Leaked buffers are held (not dropped) so the allocator cannot
        // reuse their addresses and fake a collision.
        let mut leaked: Vec<Vec<u8>> = Vec::new();

        for (op, n) in ops {
            match op {
                // take (twice as likely as each return flavor)
                0 | 1 => {
                    let buf = pool.take();
                    prop_assert!(
                        live_ptrs.insert(buf.as_ptr() as usize),
                        "pool handed out a slab that is already live"
                    );
                    live.push(buf);
                }
                // recycle a filled batch: banked whole, packets inside
                4 => {
                    let spent: PacketBatch = live
                        .drain(live.len().saturating_sub(n)..)
                        .map(|buf| {
                            live_ptrs.remove(&(buf.as_ptr() as usize));
                            Packet::from_bytes(buf)
                        })
                        .collect();
                    pool.recycle_batch(spent);
                }
                // refill from the bank: the generator rewrites the
                // newest banked batch in place, topped up to `n`
                5 => {
                    for packet in gen.next_batch_from_pool(n, &mut pool) {
                        let buf = packet.into_bytes();
                        prop_assert!(
                            live_ptrs.insert(buf.as_ptr() as usize),
                            "a refill handed out a slab that is already live"
                        );
                        live.push(buf);
                    }
                }
                // take a shell: it comes out empty, its banked buffers
                // move to the free list
                6 => {
                    let shell = pool.take_shell(n);
                    prop_assert!(shell.is_empty(), "take_shell drains what was banked");
                    pool.put_shell(shell);
                }
                // return to the pool
                2 => {
                    if let Some(buf) = live.pop() {
                        prop_assert!(live_ptrs.remove(&(buf.as_ptr() as usize)));
                        pool.put(buf);
                    }
                }
                // leak, as a fault would
                _ => {
                    if let Some(buf) = live.pop() {
                        prop_assert!(live_ptrs.remove(&(buf.as_ptr() as usize)));
                        leaked.push(buf);
                    }
                }
            }
            // The conservation identity holds after every single step.
            prop_assert_eq!(
                pool.outstanding(),
                (live.len() + leaked.len()) as u64,
                "taken == returned + outstanding"
            );
        }

        // Everything still live goes back; only the leaks remain owed.
        for buf in live.drain(..) {
            pool.put(buf);
        }
        prop_assert_eq!(pool.outstanding(), leaked.len() as u64);
        assert_free_list_has_no_duplicates(&mut pool);
    }

    /// The cached hash agrees with the reference recomputation for
    /// *any* frame bytes — parseable or garbage — and keeps agreeing
    /// after the cache is invalidated by mutation.
    #[test]
    fn cached_hash_agrees_with_reference_on_arbitrary_frames(
        bytes in proptest::collection::vec(any::<u8>(), 0..192),
    ) {
        let reference = packet_flow_hash(&Packet::from_slice(&bytes));
        let mut p = Packet::from_slice(&bytes);
        prop_assert_eq!(p.flow_hash(), reference, "first (stamping) access");
        prop_assert_eq!(p.flow_hash(), reference, "cached access");
        prop_assert_eq!(p.cached_flow_hash(), Some(reference), "tag is the hash of the bytes");

        // Mutate the frame: the stale tag must not survive, and the
        // recomputed hash must match a fresh packet with the new bytes.
        if !p.is_empty() {
            p.as_mut_slice()[0] ^= 0xFF;
            prop_assert_eq!(p.cached_flow_hash(), None, "mutation invalidates the tag");
            let fresh = packet_flow_hash(&Packet::from_slice(p.as_slice()));
            prop_assert_eq!(p.flow_hash(), fresh);
        }
    }
}

/// Every pktgen-stamped hash is exactly what a parse would recompute —
/// the generator's "free" stamp never disagrees with the fallback — and
/// a lane's RSS slice only ever carries flows whose hash maps to it.
#[test]
fn pktgen_stamped_hashes_match_recomputation() {
    let config = TrafficConfig {
        flows: 256,
        seed: 0xF00D,
        ..TrafficConfig::default()
    };
    let batch = PacketGen::new(config.clone()).next_batch(512);
    for p in batch.iter() {
        let cached = p.cached_flow_hash().expect("pktgen stamps every packet");
        assert_eq!(cached, packet_flow_hash(p), "stamp == recomputation");
    }
    for lanes in [2usize, 3, 4] {
        for lane in 0..lanes {
            let slice = PacketGen::rss_slice(config.clone(), lane, lanes).next_batch(64);
            for p in slice.iter() {
                assert_eq!(packet_flow_hash(p) % lanes as u64, lane as u64);
            }
        }
    }
}

fn hotpath_spec() -> PipelineSpec {
    PipelineSpec::new()
        .stage(TtlDecrement::new)
        .stage(MacSwap::new)
}

/// Fleet-wide pool books: buffers taken from some lane's pool, and
/// buffers returned to one.
fn pool_books(report: &LaneReport) -> (u64, u64) {
    let taken = report.lanes.iter().map(|l| l.pool.taken).sum();
    let returned = report.lanes.iter().map(|l| l.pool.returned).sum();
    (taken, returned)
}

/// Fault-free round trip: every buffer a lane draws comes back to a
/// lane pool — even with stealing on, when a thief recycles a stolen
/// batch into its own pool — and nothing is lost or shed.
#[test]
fn pooled_round_trip_returns_every_buffer() {
    const LANES: usize = 4;
    const BATCH: usize = 64;
    const BATCHES: u64 = 128;
    let report = LaneRuntime::run(
        hotpath_spec(),
        LaneConfig {
            lanes: LANES,
            traffic: TrafficConfig {
                flows: 1024,
                seed: 0xB0B0,
                ..TrafficConfig::default()
            },
            total_batches: BATCHES,
            batch_size: BATCH,
            ..LaneConfig::default()
        },
    );

    assert_eq!(report.offered(), BATCHES * BATCH as u64);
    assert_eq!(report.unaccounted_packets(), 0, "packet conservation");
    assert_eq!(report.lost(), 0);
    assert_eq!(report.shed(), 0);
    let (taken, returned) = pool_books(&report);
    assert!(taken >= report.offered(), "every packet came from a pool");
    assert_eq!(taken, returned, "every buffer came home");
    assert_eq!(report.outstanding_buffers(), 0);
}

mod chaos {
    use super::*;
    use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
    use rbs_netfx::operators::ChaosPoint;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Pool linearity under chaos: whatever mix of pipeline panics
        /// is injected — enough, at the top of the range, to exhaust a
        /// lane's respawn budget and kill it — the buffers that fail to
        /// return are *exactly* the lost packets. A faulted domain leaks
        /// its in-flight batch to the books, never corrupts a pool; a
        /// dead lane recycles the backlog it sheds.
        #[test]
        fn faulted_runs_leak_exactly_the_lost_buffers(
            seed in any::<u64>(),
            panic_ppm in 0u32..300_000,
            batches in 8u64..48,
            steal in any::<bool>(),
        ) {
            const LANES: usize = 3;
            const BATCH: usize = 24;
            let plan = FaultPlan::new(seed)
                .inject(FaultSite::Operator(0), FaultKind::Panic, panic_ppm);
            let report = LaneRuntime::run(
                PipelineSpec::new().stage(|| ChaosPoint::new(0)),
                LaneConfig {
                    lanes: LANES,
                    traffic: TrafficConfig {
                        flows: 256,
                        seed,
                        ..TrafficConfig::default()
                    },
                    total_batches: batches,
                    batch_size: BATCH,
                    steal_batch: if steal { 2 } else { 0 },
                    max_respawns: 2,
                    faults: Some(Arc::new(plan)),
                    ..LaneConfig::default()
                },
            );

            prop_assert_eq!(report.unaccounted_packets(), 0, "packet conservation under chaos");
            let (taken, returned) = pool_books(&report);
            prop_assert_eq!(
                taken - returned,
                report.lost(),
                "outstanding buffers are exactly the lost packets"
            );
        }
    }
}
