//! What one snapshot record of a tenant chain costs, old path against
//! new, in a form anyone can rerun:
//!
//! ```sh
//! cargo run --release -p rbs-runtime --example snapshot_cost
//! ```
//!
//! For the stock tenant chain (port filter → NAT → flow tracker) holding
//! {167, 553, 1 649} flows — the small, the mean and the largest tenant
//! of dpbench's `tenant_storm` — with {16, 64, 256} flows seeing traffic
//! between records, at the engines' cadence (every 4th record full, the
//! rest deltas on it), the table prints cycles per *base* record and per
//! *delta* record for
//!
//! - the **scan** path: `Pipeline::export_state` + `SnapshotStore::record`
//!   — export the whole image, compare it with the base byte for byte;
//! - the **walk** path: `SnapshotStore::record_from` — the store asks the
//!   chain, and the flow table answers from the records it handed out
//!   mutably since the base: it reads its dirty bitmap a word at a time,
//!   compares each marked record's value bytes (never its key, which no
//!   method rewrites in place) with the base's, and writes each run of
//!   changed bytes straight into a run list the store's own delta lends;
//!
//! both *hot* (back to back) and *evicted* (a 4 MiB sweep between
//! records, which is how the engine meets them: a tick of packet work
//! runs between any two records of a tenant). Either path seals what it
//! built under the same footer, a four-lane checksum over 32-byte
//! blocks. Beside the cycles: bytes the allocator handed out during a
//! steady-state delta record, its sealed size, and the records the walk
//! visited.
//!
//! To compare two commits, build this example in each and alternate the
//! two binaries a few times, one process at a time: the cycle columns
//! move with the host, the byte and `visited` columns must not move at
//! all.
//!
//! Both paths run over the same chain in the same states, and every
//! record of one is checked to open to the same checkpoint and to have
//! sealed the same number of bytes as the other's. Two properties are
//! asserted in every cell, both free of timing noise:
//!
//! - a steady-state delta record on the walk path allocates nothing
//!   (the scan path allocates at least the image);
//! - the walk visits exactly the records touched since the base.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use rbs_checkpoint::{CheckpointCtx, RestoreCtx, Snapshot, SnapshotError, SnapshotStore};
use rbs_core::alloc_count::{bytes as allocated_bytes, CountingAlloc};
use rbs_core::cycles::rdtsc;
use rbs_netfx::headers::MacAddr;
use rbs_netfx::operators::DstPortFilter;
use rbs_netfx::{FlowTracker, Operator, Packet, PacketBatch, Pipeline, SourceNat, StageDelta};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The flow tracker, reporting how many records each delta walk visits.
struct CountedTracker {
    inner: FlowTracker,
    visited: Arc<AtomicUsize>,
}

impl Operator for CountedTracker {
    fn process(&mut self, batch: PacketBatch) -> PacketBatch {
        self.inner.process(batch)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn checkpoint_state(&self, ctx: &mut CheckpointCtx) -> Option<Snapshot> {
        self.inner.checkpoint_state(ctx)
    }

    fn checkpoint_base(
        &mut self,
        ctx: &mut CheckpointCtx,
        spent: Option<Snapshot>,
    ) -> Option<Snapshot> {
        self.inner.checkpoint_base(ctx, spent)
    }

    fn checkpoint_delta(&self, base: &Snapshot, runs: &mut Vec<u8>) -> StageDelta {
        let visited = self.inner.dirty_flows().expect("a base was exported");
        self.visited.store(visited, Ordering::Relaxed);
        self.inner.checkpoint_delta(base, runs)
    }

    fn restore_state(
        &mut self,
        snap: &Snapshot,
        ctx: &mut RestoreCtx<'_>,
    ) -> Result<(), SnapshotError> {
        self.inner.restore_state(snap, ctx)
    }

    fn state_items(&self) -> u64 {
        self.inner.state_items()
    }
}

/// `rbs_runtime::default_tenant_chain(0, _)`, stage for stage.
fn tenant_chain(visited: &Arc<AtomicUsize>) -> Pipeline {
    Pipeline::new()
        .add(DstPortFilter::new(vec![80, 53]))
        .add(SourceNat::new(
            Ipv4Addr::new(203, 0, 113, 10),
            Ipv4Addr::new(10, 0, 0, 0),
            8,
            40_000..=50_000,
        ))
        .add(CountedTracker {
            inner: FlowTracker::new(4_096),
            visited: Arc::clone(visited),
        })
}

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

/// Reads and writes 4 MiB, so that what the next record touches comes
/// from beyond the L2.
fn evict(sweep: &mut [u64]) {
    for word in sweep.iter_mut().step_by(8) {
        *word = word.wrapping_add(1);
    }
    black_box(&sweep);
}

/// Median of the samples (which it sorts).
fn median(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Which records a path is being timed on.
#[derive(Default)]
struct Samples {
    base: Vec<u64>,
    delta: Vec<u64>,
}

/// One cell's steady-state figures, for one temperature.
struct Cell {
    scan: Samples,
    walk: Samples,
    walk_delta_alloc: u64,
    scan_delta_alloc: u64,
    delta_sealed: u64,
    visited: usize,
}

/// Records sealed between two base records, as in the tenant engines.
const FULL_EVERY: u32 = 4;
/// Full/delta cycles timed per cell, after two of warm-up.
const ROUNDS: usize = 24;

fn run_cell(flows: usize, touched: usize, mut sweep: Option<&mut [u64]>) -> Cell {
    let touched = touched.min(flows);
    let visited = Arc::new(AtomicUsize::new(0));
    let mut chain = tenant_chain(&visited);
    chain.run_batch((0..flows).map(packet).collect());
    assert_eq!(chain.state_items(), flows as u64);

    let (mut scan_store, mut walk_store) = (
        SnapshotStore::new(FULL_EVERY),
        SnapshotStore::new(FULL_EVERY),
    );
    let mut cell = Cell {
        scan: Samples::default(),
        walk: Samples::default(),
        walk_delta_alloc: 0,
        scan_delta_alloc: 0,
        delta_sealed: 0,
        visited: 0,
    };
    let mut next_flow = 0;
    let mut since_base = BTreeSet::new();
    for record in 0..(ROUNDS + 2) * FULL_EVERY as usize {
        // Traffic between records: the next `touched` flows, round robin,
        // so that consecutive intervals touch different records.
        let wave: Vec<usize> = (0..touched).map(|i| (next_flow + i) % flows).collect();
        next_flow = (next_flow + touched) % flows;
        chain.run_batch(wave.iter().map(|&n| packet(n)).collect());
        let is_base = record % FULL_EVERY as usize == 0;
        if is_base {
            since_base.clear();
        } else {
            since_base.extend(wave);
        }
        let (tick, items) = (record as u64, chain.state_items());
        let timed = record >= 2 * FULL_EVERY as usize;

        if let Some(sweep) = sweep.as_deref_mut() {
            evict(sweep);
        }
        let before = allocated_bytes();
        let start = rdtsc();
        let cp = chain.export_state();
        scan_store.record(&cp, tick, items, 1);
        drop(cp);
        let scan_cycles = rdtsc() - start;
        let scan_alloc = allocated_bytes() - before;

        if let Some(sweep) = sweep.as_deref_mut() {
            evict(sweep);
        }
        let before = allocated_bytes();
        let start = rdtsc();
        walk_store.record_from(&mut chain, tick, items, 1);
        let walk_cycles = rdtsc() - start;
        let walk_alloc = allocated_bytes() - before;

        // Same state sequence, same records.
        let (scan, walk) = (
            scan_store.latest().expect("recorded"),
            walk_store.latest().expect("recorded"),
        );
        assert_eq!(walk.meta(), scan.meta());
        assert_eq!(walk.payload_bytes(), scan.payload_bytes());
        assert_eq!(
            walk.open().expect("sealed").root,
            scan.open().expect("sealed").root
        );

        if !timed {
            continue;
        }
        let sealed = walk.payload_bytes() as u64;
        if is_base {
            cell.scan.base.push(scan_cycles);
            cell.walk.base.push(walk_cycles);
        } else {
            cell.scan.delta.push(scan_cycles);
            cell.walk.delta.push(walk_cycles);
            cell.visited = cell.visited.max(visited.load(Ordering::Relaxed));
            assert_eq!(
                visited.load(Ordering::Relaxed),
                since_base.len(),
                "the walk visits the records touched since the base, no others"
            );
            assert_eq!(
                walk_alloc, 0,
                "a steady-state delta record allocated {walk_alloc} B to seal {sealed} B \
                 ({flows} flows, {touched} touched)"
            );
            cell.walk_delta_alloc = cell.walk_delta_alloc.max(walk_alloc);
            cell.scan_delta_alloc = cell.scan_delta_alloc.max(scan_alloc);
            cell.delta_sealed = cell.delta_sealed.max(sealed);
        }
    }
    cell
}

fn main() {
    // 4 MiB of words.
    let mut sweep = vec![0u64; 512 * 1024];
    println!(
        "cycles per record (median of {ROUNDS} base / {} delta records), full every {FULL_EVERY}",
        ROUNDS * (FULL_EVERY as usize - 1)
    );
    println!(
        "{:>5} {:>7} {:>8} | {:>9} {:>9} {:>5} | {:>9} {:>9} {:>5} | {:>9} {:>9} {:>8} {:>7}",
        "flows",
        "touched",
        "cache",
        "base scan",
        "base walk",
        "w/s",
        "dlt scan",
        "dlt walk",
        "w/s",
        "scan B",
        "walk B",
        "sealed B",
        "visited"
    );
    for flows in [167, 553, 1_649] {
        for touched in [16, 64, 256] {
            for evicted in [false, true] {
                let mut cell = run_cell(flows, touched, evicted.then_some(&mut sweep[..]));
                let (base_scan, base_walk) =
                    (median(&mut cell.scan.base), median(&mut cell.walk.base));
                let (delta_scan, delta_walk) =
                    (median(&mut cell.scan.delta), median(&mut cell.walk.delta));
                println!(
                    "{:>5} {:>7} {:>8} | {:>9} {:>9} {:>5.2} | {:>9} {:>9} {:>5.2} | {:>9} {:>9} {:>8} {:>7}",
                    flows,
                    touched.min(flows),
                    if evicted { "evicted" } else { "hot" },
                    base_scan,
                    base_walk,
                    base_walk as f64 / base_scan as f64,
                    delta_scan,
                    delta_walk,
                    delta_walk as f64 / delta_scan as f64,
                    cell.scan_delta_alloc,
                    cell.walk_delta_alloc,
                    cell.delta_sealed,
                    cell.visited,
                );
            }
        }
    }
    println!("ok: delta records allocate nothing; walks visit only what was touched");
}
