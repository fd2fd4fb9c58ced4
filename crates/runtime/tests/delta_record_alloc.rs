//! A delta record that never calls the allocator, held to a count.
//!
//! The tenant engines seal each chain's state every few ticks, every
//! fourth record a full one and the rest deltas on it, through
//! `SnapshotStore::record_from`. Once the store's buffers have grown to
//! the deltas of the cadence, an incremental record of the stock tenant
//! chain (port filter → NAT → flow tracker) allocates nothing: the flow
//! table emits its runs into a run list the store's own `Delta` lends,
//! the stage's path is held inline (`Target::Stage`), and the envelope is
//! sealed into the buffer of a record that rotated out. The traffic
//! between records changes counters across the table and appends new
//! flows, so both the marked-record runs and the appended tail are on
//! the counted path. The allocator counts per thread.

use std::net::Ipv4Addr;

use rbs_checkpoint::SnapshotStore;
use rbs_core::alloc_count::{thread_events, CountingAlloc};
use rbs_netfx::headers::MacAddr;
use rbs_netfx::Packet;
use rbs_runtime::{default_tenant_chain, TenantSpec};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One packet of flow `n`.
fn packet(n: usize) -> Packet {
    Packet::build_udp(
        MacAddr::ZERO,
        MacAddr::ZERO,
        Ipv4Addr::new(10, 0, (n >> 8) as u8, n as u8),
        Ipv4Addr::new(192, 0, 2, 1),
        1_000 + n as u16,
        80,
        18,
    )
}

#[test]
fn a_steady_state_delta_record_of_a_tenant_chain_allocates_nothing() {
    /// The engines' cadence: every fourth record is full.
    const FULL_EVERY: u32 = 4;
    /// `tenant_storm`'s mean tenant, and the flows one interval touches.
    const FLOWS: usize = 553;
    const TOUCHED: usize = 64;
    /// Full/delta cycles before counting, and counted.
    const WARM_UP: usize = 4;
    const COUNTED: usize = 8;

    let mut chain = default_tenant_chain(0, &TenantSpec::new("t0")).build();
    chain.run_batch((0..FLOWS).map(packet).collect());
    let mut store = SnapshotStore::new(FULL_EVERY);
    let (mut next_flow, mut new_flow) = (0, FLOWS);
    let mut counted = 0;
    for record in 0..(WARM_UP + COUNTED) * FULL_EVERY as usize {
        // The next `TOUCHED` flows, round robin, and one new flow.
        let wave = (0..TOUCHED).map(|i| packet((next_flow + i) % FLOWS));
        chain.run_batch(wave.chain([packet(new_flow)]).collect());
        next_flow = (next_flow + TOUCHED) % FLOWS;
        new_flow += 1;

        let items = chain.state_items();
        let before = thread_events();
        let meta = store.record_from(&mut chain, record as u64, items, 1);
        let allocations = thread_events() - before;

        assert_eq!(meta.is_delta(), record % FULL_EVERY as usize != 0);
        assert_eq!(
            store.latest().expect("recorded").open().expect("sealed"),
            chain.export_state(),
            "record {record} opens to the chain's state"
        );
        if meta.is_delta() && record >= WARM_UP * FULL_EVERY as usize {
            assert_eq!(
                allocations,
                0,
                "delta record {record} allocated; recent sizes {:?}",
                rbs_core::alloc_count::recent_sizes()
            );
            counted += 1;
        }
    }
    assert_eq!(counted, COUNTED * (FULL_EVERY as usize - 1));
}
