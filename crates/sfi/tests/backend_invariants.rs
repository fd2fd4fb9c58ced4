//! Backend-independence proptests.
//!
//! An [`rbs_sfi::IsolationBackend`] is a *cost model*, not a transport:
//! ownership still moves, reference tables still poison, pools still
//! conserve. These properties pin that contract by running the same
//! scripted histories under every backend in [`BackendKind::ALL`] and
//! asserting the observable traces are identical — if a backend ever
//! changed a drain/poison outcome or leaked a pool buffer, the isolation
//! tax measured by e13 would be comparing different semantics, not
//! different costs.

use proptest::prelude::*;
use rbs_netfx::pool::PacketPool;
use rbs_sfi::{channel_metered, BackendKind, Domain, DomainManager, DomainState, RRef, RpcError};

/// One step of a scripted rref workload. Generated once per proptest
/// case and replayed verbatim under each backend.
#[derive(Debug, Clone, Copy)]
enum RRefOp {
    /// Read object `i % live` (if any live objects exist).
    Invoke(usize),
    /// Increment object `i % live`.
    InvokeMut(usize),
    /// Export a fresh object.
    Export,
    /// Explicitly revoke object `i % live`.
    Revoke(usize),
}

fn rref_op() -> impl Strategy<Value = RRefOp> {
    prop_oneof![
        (0usize..8).prop_map(RRefOp::Invoke),
        (0usize..8).prop_map(RRefOp::InvokeMut),
        Just(RRefOp::Export),
        (0usize..8).prop_map(RRefOp::Revoke),
    ]
}

/// Observable outcome of one op, erased to a backend-independent shape.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Ok(u64),
    Revoked,
    Exported,
    Skipped,
}

/// Replays `ops`, then faults the domain, checks drain/poison, recovers,
/// and returns the full observable trace plus post-recovery facts.
fn run_rref_script(kind: BackendKind, ops: &[RRefOp]) -> (Vec<Outcome>, Vec<u64>) {
    let mgr = DomainManager::with_backend_kind(kind);
    let d = mgr.create_domain("scripted").unwrap();
    d.set_recovery(|_| ());
    let mut live: Vec<RRef<u64>> = Vec::new();
    let mut trace = Vec::new();
    for op in ops {
        match *op {
            RRefOp::Invoke(i) => {
                if live.is_empty() {
                    trace.push(Outcome::Skipped);
                } else {
                    let r = &live[i % live.len()];
                    trace.push(match r.invoke(|v| *v) {
                        Ok(v) => Outcome::Ok(v),
                        Err(RpcError::Revoked) => Outcome::Revoked,
                        Err(e) => panic!("unexpected pre-fault error: {e:?}"),
                    });
                }
            }
            RRefOp::InvokeMut(i) => {
                if live.is_empty() {
                    trace.push(Outcome::Skipped);
                } else {
                    let r = &live[i % live.len()];
                    trace.push(
                        match r.invoke_mut(|v| {
                            *v += 1;
                            *v
                        }) {
                            Ok(v) => Outcome::Ok(v),
                            Err(RpcError::Revoked) => Outcome::Revoked,
                            Err(e) => panic!("unexpected pre-fault error: {e:?}"),
                        },
                    );
                }
            }
            RRefOp::Export => {
                live.push(RRef::new(&d, live.len() as u64));
                trace.push(Outcome::Exported);
            }
            RRefOp::Revoke(i) => {
                if live.is_empty() {
                    trace.push(Outcome::Skipped);
                } else {
                    let idx = i % live.len();
                    live[idx].revoke();
                    trace.push(Outcome::Revoked);
                }
            }
        }
    }

    // Fault the domain with every surviving rref still exported.
    let gen_before = d.generation();
    let err = d.execute(|| panic!("scripted fault")).unwrap_err();
    assert_eq!(err, RpcError::Fault { domain: d.id() });

    // Drain/poison-on-recovery: recovery already ran (a recovery fn is
    // installed, so the panic path heals in place). Every pre-fault rref
    // — revoked or not — must now be poisoned, the table must be fully
    // drained, and the generation bumped.
    assert_eq!(d.state(), DomainState::Active, "[{kind}] recovered");
    assert_eq!(d.generation(), gen_before + 1, "[{kind}] generation bump");
    assert_eq!(
        d.exported_objects(),
        0,
        "[{kind}] table drained on recovery"
    );
    for r in &live {
        assert!(!r.is_alive(), "[{kind}] pre-fault rref outlived the fault");
        assert_eq!(
            r.invoke(|v| *v).unwrap_err(),
            RpcError::Poisoned { domain: d.id() },
            "[{kind}] pre-fault rref must be poisoned, not merely revoked"
        );
    }

    // Fresh exports on the recovered generation work.
    let post: Vec<u64> = (0..3)
        .map(|i| {
            let fresh = RRef::new(&d, 100 + i);
            fresh.invoke(|v| *v).unwrap()
        })
        .collect();
    (trace, post)
}

/// One step of a scripted pool workload over a return channel.
#[derive(Debug, Clone, Copy)]
enum PoolOp {
    /// Take a buffer from the pool and hold it in flight.
    Take,
    /// Send in-flight buffer `i % held` back through the return channel
    /// without blocking.
    Give(usize),
    /// Drop in-flight buffer `i % held` on the floor (a faulting worker).
    Leak(usize),
    /// Drain the return channel back into the pool.
    Reclaim,
}

fn pool_op() -> impl Strategy<Value = PoolOp> {
    prop_oneof![
        3 => Just(PoolOp::Take),
        3 => (0usize..8).prop_map(PoolOp::Give),
        1 => (0usize..8).prop_map(PoolOp::Leak),
        2 => Just(PoolOp::Reclaim),
    ]
}

/// Replays `ops` against a real [`PacketPool`] whose return path is an
/// metered sfi channel under `kind`. Returns (taken, returned,
/// outstanding, leaked, dropped_by_path) at quiescence.
fn run_pool_script(kind: BackendKind, ops: &[PoolOp]) -> (u64, u64, u64, u64, u64) {
    let mgr = DomainManager::with_backend_kind(kind);
    let home: Domain = mgr.create_domain("pool-home").unwrap();
    let mut pool = PacketPool::new(256, 64);
    pool.prewarm(16);
    // Meter by capacity: these are empty buffers, but a charging backend
    // still bills the hand-off per crossing.
    let (tx, rx) = channel_metered::<Vec<u8>>(&home, 8, |b| b.capacity());

    let mut in_flight: Vec<Vec<u8>> = Vec::new();
    let mut leaked = 0u64;
    let mut dropped_by_path = 0u64;
    for op in ops {
        match *op {
            PoolOp::Take => in_flight.push(pool.take()),
            PoolOp::Give(i) => {
                if !in_flight.is_empty() {
                    let buf = in_flight.remove(i % in_flight.len());
                    if tx.try_send(buf).is_err() {
                        // Bounded path was full: the buffer dropped to the
                        // allocator, exactly like a leak.
                        dropped_by_path += 1;
                    }
                }
            }
            PoolOp::Leak(i) => {
                if !in_flight.is_empty() {
                    drop(in_flight.remove(i % in_flight.len()));
                    leaked += 1;
                }
            }
            PoolOp::Reclaim => {
                while let Ok(buf) = rx.try_recv() {
                    pool.put(buf);
                }
            }
        }
    }
    // Quiesce: return everything still held, then drain the path.
    for buf in in_flight.drain(..) {
        if tx.try_send(buf).is_err() {
            dropped_by_path += 1;
        }
        while let Ok(b) = rx.try_recv() {
            pool.put(b);
        }
    }
    while let Ok(buf) = rx.try_recv() {
        pool.put(buf);
    }

    let stats = pool.stats();
    (
        stats.taken,
        stats.returned,
        pool.outstanding(),
        leaked,
        dropped_by_path,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The rref lifecycle — exports, invocations, revocations, a fault,
    /// drain/poison, recovery — produces byte-identical observable
    /// traces under all three backends.
    #[test]
    fn rref_drain_and_poison_identical_across_backends(
        ops in proptest::collection::vec(rref_op(), 1..40)
    ) {
        let baseline = run_rref_script(BackendKind::TypedSfi, &ops);
        for kind in [BackendKind::MpkSim, BackendKind::CopyBoundary] {
            let got = run_rref_script(kind, &ops);
            prop_assert_eq!(
                &got, &baseline,
                "trace diverged under {}", kind
            );
        }
    }

    /// Pool conservation: `taken == returned + outstanding` holds at
    /// quiescence, outstanding equals exactly the buffers lost to leaks
    /// and full-queue drops, and all five counters are identical across
    /// backends — a charging backend bills crossings, it never eats or
    /// duplicates a buffer.
    #[test]
    fn pool_conservation_identical_across_backends(
        ops in proptest::collection::vec(pool_op(), 1..60)
    ) {
        let baseline = run_pool_script(BackendKind::TypedSfi, &ops);
        let (taken, returned, outstanding, leaked, dropped) = baseline;
        prop_assert_eq!(taken, returned + outstanding, "conservation");
        prop_assert_eq!(outstanding, leaked + dropped, "every missing buffer is accounted");
        for kind in [BackendKind::MpkSim, BackendKind::CopyBoundary] {
            let got = run_pool_script(kind, &ops);
            prop_assert_eq!(got, baseline, "pool accounting diverged under {}", kind);
        }
    }
}

/// Non-proptest pin: a charging backend actually observed the return
/// crossings the pool test exercises (so the "identical accounting"
/// result above is not vacuous — the hooks really fired).
#[test]
fn charging_backend_observes_recycle_crossings() {
    let ops = [PoolOp::Take, PoolOp::Give(0), PoolOp::Reclaim];
    for kind in [BackendKind::CopyBoundary, BackendKind::MpkSim] {
        let mgr = DomainManager::with_backend_kind(kind);
        let home = mgr.create_domain("pool-home").unwrap();
        let mut pool = PacketPool::new(256, 64);
        let (tx, rx) = channel_metered::<Vec<u8>>(&home, 8, |b| b.capacity());
        for op in ops {
            match op {
                PoolOp::Take => assert!(tx.try_send(pool.take()).is_ok()),
                PoolOp::Reclaim => {
                    while let Ok(b) = rx.try_recv() {
                        pool.put(b);
                    }
                }
                _ => {}
            }
        }
        let totals = mgr.backend_totals();
        assert_eq!(totals.crossings, 2, "[{kind}] send + receive");
        assert_eq!(totals.bytes, 512, "[{kind}] 256-byte capacity each way");
        assert!(totals.model_cycles > 0, "[{kind}] model charged");
    }
}
