//! Property tests for the flow table's one snapshot form, the packed
//! image:
//!
//! - an image is exactly the table's entries, in table order, as
//!   fixed-width records, after any mix of insert/bump/remove/retain
//!   checked against a `BTreeMap`; a table restored from it answers like
//!   the oracle, walks in the same order, seals the same bytes, and
//!   keeps doing all three under further operations;
//! - a warm-restored `FlowTracker` lists `flows()` in the order the
//!   original first saw them;
//! - restoring is total on hostile images — arbitrary bytes, a torn
//!   record, more records than the tracker admits, a repeated key — each
//!   a typed error that leaves the target exactly as it was.

use proptest::prelude::*;
use rbs_checkpoint::{checkpoint, restore, Checkpoint, Snapshot, SnapshotError};
use rbs_netfx::flowtable::FlowTable;
use rbs_netfx::headers::IpProto;
use rbs_netfx::pktgen::{FlowDistribution, PacketGen, TrafficConfig};
use rbs_netfx::{FiveTuple, FlowTracker, Operator, Pipeline, PipelineSpec};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Bytes of a `(FiveTuple, u64)` record and of a tracker's
/// `(FiveTuple, FlowEntry)` record.
const WORD_RECORD: usize = 13 + 8;
const FLOW_RECORD: usize = 13 + 16;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, u64),
    Bump(u16),
    Remove(u16),
    /// Keep the keys whose number is not a multiple of this.
    Retain(u16),
}

fn ops(max: usize) -> impl Strategy<Value = Vec<Op>> {
    // A small key space, so operations hit existing keys as often as new.
    let key = 0u16..96;
    let op = prop_oneof![
        6 => (key.clone(), any::<u64>()).prop_map(|(k, v)| Op::Insert(k, v)),
        3 => key.clone().prop_map(Op::Bump),
        3 => key.prop_map(Op::Remove),
        1 => (2u16..7).prop_map(Op::Retain),
    ];
    proptest::collection::vec(op, 0..max)
}

fn tuple(n: u16) -> FiveTuple {
    FiveTuple {
        src_ip: Ipv4Addr::new(10, 0, (n >> 8) as u8, n as u8),
        dst_ip: Ipv4Addr::new(192, 0, 2, 1),
        src_port: 1_000 + n,
        dst_port: 80,
        proto: if n.is_multiple_of(3) {
            IpProto::Tcp
        } else {
            IpProto::Udp
        },
    }
}

type Table = FlowTable<FiveTuple, u64>;

fn apply(table: &mut Table, oracle: &mut BTreeMap<u16, u64>, ops: &[Op]) {
    for op in ops {
        match *op {
            Op::Insert(k, v) => assert_eq!(table.insert(tuple(k), v), oracle.insert(k, v)),
            Op::Bump(k) => {
                if let Some(v) = table.get_mut(&tuple(k)) {
                    *v = v.wrapping_add(1);
                }
                if let Some(v) = oracle.get_mut(&k) {
                    *v = v.wrapping_add(1);
                }
            }
            Op::Remove(k) => assert_eq!(table.remove(&tuple(k)), oracle.remove(&k)),
            Op::Retain(m) => {
                table.retain(|k, _| (k.src_port - 1_000) % m != 0);
                oracle.retain(|k, _| k % m != 0);
            }
        }
    }
}

fn image(table: &Table) -> Vec<u8> {
    match checkpoint(table).root {
        Snapshot::Bytes(image) => image,
        other => panic!("a table checkpoints as one blob, not {}", other.kind_name()),
    }
}

/// Reads an image's records back by the documented layout, without the
/// table's own decoder.
fn records(image: &[u8]) -> Vec<(u16, u64)> {
    assert_eq!(image.len() % WORD_RECORD, 0);
    image
        .chunks_exact(WORD_RECORD)
        .map(|r| {
            let n = u16::from_be_bytes([r[8], r[9]]) - 1_000;
            assert_eq!(&r[..4], &tuple(n).src_ip.octets());
            assert_eq!(&r[4..8], &[192, 0, 2, 1]);
            assert_eq!(&r[10..13], &[0, 80, u8::from(tuple(n).proto)]);
            (n, u64::from_le_bytes(r[13..].try_into().unwrap()))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn packed_image_is_the_table_and_restores_to_it(
        before in ops(300),
        after in ops(60),
    ) {
        let (mut table, mut oracle) = (Table::new(), BTreeMap::new());
        apply(&mut table, &mut oracle, &before);

        // The image is the walk, record for record, and the oracle's set.
        let sealed = image(&table);
        let walked: Vec<(u16, u64)> =
            table.iter().map(|(k, v)| (k.src_port - 1_000, *v)).collect();
        prop_assert_eq!(&records(&sealed), &walked);
        let mut sorted = walked.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, oracle.clone().into_iter().collect::<Vec<_>>());

        // A restored table is the same table: same answers, same order,
        // same bytes.
        let mut warm: Table = restore(&checkpoint(&table)).unwrap();
        prop_assert_eq!(warm.len(), oracle.len());
        for k in 0..96 {
            prop_assert_eq!(warm.get(&tuple(k)), oracle.get(&k));
        }
        prop_assert_eq!(&image(&warm), &sealed);

        // And it stays the same table: its index was rebuilt, not merely
        // its entries.
        let mut warm_oracle = oracle.clone();
        apply(&mut table, &mut oracle, &after);
        apply(&mut warm, &mut warm_oracle, &after);
        prop_assert_eq!(image(&warm), image(&table));
    }

    #[test]
    fn restore_is_total_on_hostile_images(bytes in hostile_image()) {
        let (mut victim, before) = tracker_with_traffic(4);
        let hostile = stage_state(Snapshot::Bytes(bytes.clone()));
        match victim.import_state(&hostile) {
            // Whole records, few enough, all keys distinct: that is a
            // table, and it comes back out as the bytes that went in.
            Ok(()) => {
                prop_assert_eq!(bytes.len() % FLOW_RECORD, 0);
                prop_assert!(bytes.len() / FLOW_RECORD <= 4);
                let keys: std::collections::BTreeSet<&[u8]> =
                    bytes.chunks_exact(FLOW_RECORD).map(|r| &r[..13]).collect();
                prop_assert_eq!(keys.len(), bytes.len() / FLOW_RECORD);
                prop_assert_eq!(victim.export_state().root, hostile.root);
            }
            Err(SnapshotError::TypeMismatch { .. } | SnapshotError::WrongLength { .. }) => {
                prop_assert_eq!(&victim.export_state().root, &before.root, "half-applied");
            }
            Err(other) => prop_assert!(false, "untyped rejection {:?}", other),
        }
    }
}

/// Noise, or up to six records over a handful of keys (so that whole,
/// distinct-keyed images, repeated keys and over-full images all occur)
/// with up to a record's worth of noise torn onto the end.
fn hostile_image() -> impl Strategy<Value = Vec<u8>> {
    let noise = proptest::collection::vec(any::<u8>(), 0..(6 * FLOW_RECORD));
    let record = (0u8..8, any::<u64>(), any::<u64>()).prop_map(|(key, packets, bytes)| {
        let mut r = vec![key; 13];
        r.extend_from_slice(&packets.to_le_bytes());
        r.extend_from_slice(&bytes.to_le_bytes());
        r
    });
    let records = (
        proptest::collection::vec(record, 0..7),
        prop_oneof![
            3 => Just(vec![]),
            1 => proptest::collection::vec(any::<u8>(), 1..FLOW_RECORD),
        ],
    )
        .prop_map(|(records, torn)| [records.concat(), torn].concat());
    prop_oneof![1 => noise, 4 => records]
}

/// A one-stage tracker pipeline of `capacity` flows that has seen three,
/// and its state.
fn tracker_with_traffic(capacity: usize) -> (Pipeline, Checkpoint) {
    let mut pipeline = PipelineSpec::new()
        .stage(move || FlowTracker::new(capacity))
        .build();
    let mut gen = PacketGen::new(TrafficConfig {
        flows: 3,
        seed: 7,
        ..TrafficConfig::default()
    });
    pipeline.run_batch(gen.next_batch(32));
    assert_eq!(pipeline.state_items(), 3);
    let state = pipeline.export_state();
    (pipeline, state)
}

/// A one-stage pipeline checkpoint holding `stage` as that stage's state.
fn stage_state(stage: Snapshot) -> Checkpoint {
    Checkpoint {
        root: Snapshot::Seq(vec![Snapshot::Opt(Some(Box::new(stage)))]),
        shared: vec![],
        stats: Default::default(),
    }
}

fn tracker_image(cp: &Checkpoint) -> Vec<u8> {
    let Snapshot::Seq(stages) = &cp.root else {
        panic!("pipeline state is a seq of stages");
    };
    match &stages[0] {
        Snapshot::Opt(Some(stage)) => match stage.as_ref() {
            Snapshot::Bytes(image) => image.clone(),
            other => panic!("the tracker's state is one blob, not {}", other.kind_name()),
        },
        other => panic!("the tracker is stateful, got {}", other.kind_name()),
    }
}

#[test]
fn each_rejection_is_typed_and_leaves_the_tracker_untouched() {
    let (mut victim, before) = tracker_with_traffic(4);
    let good = tracker_image(&before);
    assert_eq!(good.len(), 3 * FLOW_RECORD);
    let mut reject = |image: Vec<u8>| {
        let err = victim
            .import_state(&stage_state(Snapshot::Bytes(image)))
            .unwrap_err();
        assert_eq!(victim.export_state().root, before.root, "half-applied");
        err
    };

    // Torn: the last record lost its final byte.
    assert!(matches!(
        reject(good[..good.len() - 1].to_vec()),
        SnapshotError::TypeMismatch {
            found: "torn record",
            ..
        }
    ));

    // Over capacity: five distinct flows into a tracker of four.
    let mut five = good.clone();
    for n in 0..2u8 {
        let mut record = good[..FLOW_RECORD].to_vec();
        record[3] ^= 0x40 + n; // a source address the traffic never used
        five.extend_from_slice(&record);
    }
    assert_eq!(
        reject(five),
        SnapshotError::WrongLength {
            expected: 4,
            got: 5
        }
    );

    // Repeated key: the second record once more, with other counters.
    let mut repeated = good.clone();
    let mut again = good[FLOW_RECORD..2 * FLOW_RECORD].to_vec();
    again[13] ^= 0xFF;
    repeated.extend_from_slice(&again);
    assert_eq!(
        reject(repeated),
        SnapshotError::TypeMismatch {
            expected: "map with distinct keys",
            found: "repeated key",
        }
    );

    // Not an image at all.
    assert!(matches!(
        victim
            .import_state(&stage_state(Snapshot::Map(vec![])))
            .unwrap_err(),
        SnapshotError::TypeMismatch { found: "map", .. }
    ));
    assert_eq!(victim.export_state().root, before.root);
}

#[test]
fn warm_restored_tracker_lists_flows_in_first_seen_order() {
    let spec = PipelineSpec::new().stage(|| FlowTracker::new(400));
    let mut live = FlowTracker::new(400);
    let mut pipeline = spec.build();
    let traffic = TrafficConfig {
        flows: 512,
        distribution: FlowDistribution::Zipf(1.1),
        seed: 0x5EA1,
        ..TrafficConfig::default()
    };
    // Same seed, same packets: one stream for the pipeline, one for a
    // bare tracker whose `flows()` can be read.
    let (mut gen, mut twin) = (PacketGen::new(traffic.clone()), PacketGen::new(traffic));
    for _ in 0..32 {
        pipeline.run_batch(gen.next_batch(64));
        live.process(twin.next_batch(64));
    }
    let sealed = pipeline.export_state();
    assert_eq!(
        tracker_image(&sealed).len(),
        live.flow_count() * FLOW_RECORD
    );

    // The image lists the flows as `flows()` does …
    let first_seen: Vec<FiveTuple> = live.flows().map(|(t, _)| *t).collect();
    let in_image: Vec<[u8; 4]> = tracker_image(&sealed)
        .chunks_exact(FLOW_RECORD)
        .map(|r| r[..4].try_into().unwrap())
        .collect();
    let expected: Vec<[u8; 4]> = first_seen.iter().map(|t| t.src_ip.octets()).collect();
    assert_eq!(in_image, expected);

    // … and a replica restored from it seals that image again, so its
    // own `flows()` walk is in that order too.
    let replica = spec.build_with_state(&sealed).unwrap();
    assert_eq!(replica.state_items(), live.flow_count() as u64);
    assert_eq!(replica.export_state().root, sealed.root);
}
