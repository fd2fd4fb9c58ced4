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
//! 2. **Conservation through the runtime** — with recycling on, a full
//!    generate → dispatch → pipeline → recycle cycle returns every
//!    buffer (fault-free), and under random fault injection the buffers
//!    that do *not* come back are exactly the lost + shed packets.
//! 3. **Hash-cache agreement** — the cached flow hash the dispatcher's
//!    fast path serves is always what [`shard_of_packet`] would
//!    recompute from the bytes, including for arbitrary garbage frames
//!    the 5-tuple extractor rejects.

use std::collections::HashSet;
use std::time::Duration;

use proptest::prelude::*;
use rbs_netfx::flow::packet_flow_hash;
use rbs_netfx::operators::{MacSwap, TtlDecrement};
use rbs_netfx::{Packet, PacketBatch, PacketGen, PacketPool, PipelineSpec, TrafficConfig};
use rbs_runtime::{shard_of_packet, shard_of_packet_mut, RuntimeConfig, ShardedRuntime};

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

    /// The dispatcher fast path's cached hash agrees with the reference
    /// recomputation for *any* frame bytes — parseable or garbage — and
    /// keeps agreeing after the cache is invalidated by mutation.
    #[test]
    fn cached_hash_agrees_with_reference_on_arbitrary_frames(
        bytes in proptest::collection::vec(any::<u8>(), 0..192),
        n_workers in 1usize..9,
    ) {
        let reference = shard_of_packet(&Packet::from_slice(&bytes), n_workers);
        let mut p = Packet::from_slice(&bytes);
        prop_assert_eq!(shard_of_packet_mut(&mut p, n_workers), reference, "first (stamping) access");
        prop_assert_eq!(shard_of_packet_mut(&mut p, n_workers), reference, "cached access");
        prop_assert_eq!(p.cached_flow_hash(), Some(packet_flow_hash(&p)), "tag is the hash of the bytes");
        // A pre-stamped packet read through the immutable reference
        // mapping gives the same answer.
        prop_assert_eq!(shard_of_packet(&p, n_workers), reference);

        // Mutate the frame: the stale tag must not survive, and the
        // recomputed mapping must match a fresh packet with the new bytes.
        if !p.is_empty() {
            p.as_mut_slice()[0] ^= 0xFF;
            prop_assert_eq!(p.cached_flow_hash(), None, "mutation invalidates the tag");
            let fresh = shard_of_packet(&Packet::from_slice(p.as_slice()), n_workers);
            prop_assert_eq!(shard_of_packet_mut(&mut p, n_workers), fresh);
        }
    }
}

/// Every pktgen-stamped hash is exactly what the reference mapping
/// would recompute — the generator's "free" stamp never disagrees with
/// the dispatcher's fallback parse.
#[test]
fn pktgen_stamped_hashes_match_recomputation() {
    let mut gen = PacketGen::new(TrafficConfig {
        flows: 256,
        seed: 0xF00D,
        ..TrafficConfig::default()
    });
    let batch = gen.next_batch(512);
    for p in batch.iter() {
        let cached = p.cached_flow_hash().expect("pktgen stamps every packet");
        assert_eq!(cached, packet_flow_hash(p), "stamp == recomputation");
        for n in [1usize, 2, 3, 4, 8] {
            assert_eq!(shard_of_packet(p, n), (cached % n as u64) as usize);
        }
    }
}

fn hotpath_spec() -> PipelineSpec {
    PipelineSpec::new()
        .stage(TtlDecrement::new)
        .stage(MacSwap::new)
}

/// Fault-free round trip: with recycling enabled, every buffer the
/// generator draws comes back to the pool — `outstanding == 0` at
/// quiescence, nothing dropped from the recycle channel, and the free
/// list holds no duplicate slabs.
#[test]
fn pooled_round_trip_returns_every_buffer() {
    const WORKERS: usize = 4;
    const BATCH: usize = 64;
    const ROUNDS: usize = 32;
    let mut rt = ShardedRuntime::new(
        hotpath_spec(),
        RuntimeConfig {
            workers: WORKERS,
            queue_capacity: 16,
            recycle_capacity: WORKERS * 16 + 8,
            scratch_capacity: BATCH,
            ..RuntimeConfig::default()
        },
    )
    .expect("runtime construction");
    let mut pool = PacketPool::new(512, BATCH * 8);
    pool.prewarm(BATCH * 8);
    pool.prewarm_shells(WORKERS * 6, BATCH);
    let mut gen = PacketGen::new(TrafficConfig {
        flows: 1024,
        seed: 0xB0B0,
        ..TrafficConfig::default()
    });

    for round in 0..ROUNDS {
        rt.reclaim_buffers(&mut pool);
        let batch = gen.next_batch_from_pool(BATCH, &mut pool);
        rt.dispatch(batch).expect("dispatch");
        assert!(rt.drain(Duration::from_secs(30)), "round {round} drained");
    }
    rt.reclaim_buffers(&mut pool);
    let report = rt.shutdown();

    assert_eq!(report.offered_packets, (ROUNDS * BATCH) as u64);
    assert_eq!(
        report.offered_packets,
        report.packets_in + report.lost_packets + report.shed_packets,
        "packet conservation"
    );
    assert_eq!(report.lost_packets, 0);
    assert_eq!(report.shed_packets, 0);
    assert_eq!(report.recycle_drops, 0, "nothing fell off the recycle path");
    assert!(report.recycled_batches > 0, "the recycle path actually ran");
    let stats = pool.stats();
    assert_eq!(pool.outstanding(), 0, "every buffer came home");
    assert_eq!(stats.taken, stats.returned);
    assert_eq!(stats.misses, 0, "a prewarmed pool never allocates");
    assert_free_list_has_no_duplicates(&mut pool);
}

mod chaos {
    use super::*;
    use rbs_core::fault::{FaultKind, FaultPlan, FaultSite};
    use rbs_netfx::operators::ChaosPoint;
    use rbs_runtime::RestartPolicy;
    use std::sync::Arc;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Pool linearity under chaos: whatever mix of operator panics,
        /// torn channels, and spawn-time crashes is injected, the
        /// buffers that fail to return are *exactly* the lost + shed
        /// packets (when the recycle channel itself dropped nothing) —
        /// a poisoned domain leaks its in-flight buffers to the books,
        /// never corrupts the pool.
        #[test]
        fn faulted_runs_leak_exactly_the_lost_and_shed_buffers(
            seed in any::<u64>(),
            panic_ppm in 0u32..80_000,
            close_ppm in 0u32..30_000,
            attach_ppm in 0u32..20_000,
            rounds in 2usize..6,
        ) {
            const WORKERS: usize = 3;
            const BATCH: usize = 24;
            let plan = FaultPlan::new(seed)
                .inject(FaultSite::Operator(0), FaultKind::Panic, panic_ppm)
                .inject(FaultSite::ChannelSend, FaultKind::CloseChannel, close_ppm)
                .inject(FaultSite::DomainAttach, FaultKind::Panic, attach_ppm);
            let mut rt = ShardedRuntime::new(
                PipelineSpec::new().stage(|| ChaosPoint::new(0)),
                RuntimeConfig {
                    workers: WORKERS,
                    queue_capacity: 8,
                    recycle_capacity: WORKERS * 8 + 8,
                    scratch_capacity: BATCH,
                    restart: RestartPolicy {
                        max_consecutive_faults: 2,
                        backoff_base_ticks: 1,
                        backoff_cap_ticks: 4,
                        breaker_cooldown_ticks: 3,
                        backoff_jitter_ticks: 2,
                    },
                    faults: Some(Arc::new(plan)),
                    ..RuntimeConfig::default()
                },
            )
            .expect("runtime construction");
            let mut pool = PacketPool::new(512, BATCH * 8);
            pool.prewarm(BATCH * 8);
            pool.prewarm_shells(WORKERS * 6, BATCH);
            let mut gen = PacketGen::new(TrafficConfig {
                flows: 256,
                seed,
                ..TrafficConfig::default()
            });

            for round in 0..rounds {
                rt.reclaim_buffers(&mut pool);
                let batch = gen.next_batch_from_pool(BATCH, &mut pool);
                rt.dispatch(batch).expect("dispatch");
                prop_assert!(rt.drain(Duration::from_secs(30)), "round {} drained", round);
            }
            rt.reclaim_buffers(&mut pool);
            let report = rt.shutdown();

            prop_assert_eq!(report.offered_packets, (rounds * BATCH) as u64);
            prop_assert_eq!(
                report.offered_packets,
                report.packets_in + report.lost_packets + report.shed_packets,
                "packet conservation under chaos"
            );
            let owed = report.lost_packets + report.shed_packets;
            if report.recycle_drops == 0 {
                prop_assert_eq!(
                    pool.outstanding(),
                    owed,
                    "outstanding buffers are exactly the faulted packets"
                );
            } else {
                // Batches dropped from a torn recycle channel leak their
                // buffers too, on top of the lost/shed ones.
                prop_assert!(pool.outstanding() >= owed);
                prop_assert!(pool.outstanding() <= report.offered_packets);
            }
            assert_free_list_has_no_duplicates(&mut pool);
        }
    }
}
