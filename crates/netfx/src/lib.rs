//! A NetBricks-style packet-processing framework.
//!
//! The paper's isolation experiments (§3, Figure 2) run on NetBricks [31],
//! a network-function framework written in Rust that passes packet batches
//! between pipeline stages *by move*: the linear type system guarantees
//! that only one stage can touch a batch at a time. This crate rebuilds the
//! subset the paper relies on:
//!
//! - [`packet`] / [`headers`]: packets over owned `Vec<u8>` buffers with
//!   typed, bounds-checked views of Ethernet, IPv4, TCP and UDP headers;
//! - [`batch`]: the linear [`PacketBatch`] that moves (never copies)
//!   through the pipeline;
//! - [`pipeline`] / [`operators`]: the operator abstraction, composition,
//!   and a library of stock network functions (including the null filter
//!   used by Figure 2);
//! - [`pktgen`]: a synthetic traffic source standing in for DPDK — the
//!   experiments measure CPU cycles per batch inside the pipeline, so a
//!   memory-resident generator exercises the same code path (see
//!   DESIGN.md, substitution 1);
//! - [`budget`]: the line-rate cycle-budget arithmetic from the paper's
//!   introduction (835 ns per 1 KB packet at 10 Gb/s);
//! - [`flow`]: five-tuple extraction and flow hashing shared with the
//!   Maglev load balancer;
//! - [`flowtable`]: the deterministic, insertion-ordered flow table
//!   every stateful operator (NAT, flow tracker, per-flow limiter, the
//!   Maglev connection table) keeps its per-flow state in;
//! - [`pool`]: a DPDK-mempool-style packet-buffer free list whose
//!   recycling discipline is enforced by ownership transfer instead of
//!   refcounts — the allocation-free steady state measured by E12.

#![forbid(unsafe_code)]

pub mod batch;
pub mod budget;
pub mod checksum;
pub mod flow;
pub mod flowtable;
pub mod flowtrack;
pub mod headers;
pub mod nat;
pub mod operators;
pub mod packet;
pub mod pcap;
pub mod pipeline;
pub mod pktgen;
pub mod pool;
pub mod ratelimit;

pub use batch::PacketBatch;
pub use flow::FiveTuple;
pub use flowtable::FlowTable;
pub use flowtrack::{FlowEntry, FlowTracker};
pub use nat::SourceNat;
pub use packet::{Packet, PacketError};
pub use pipeline::{Operator, Pipeline, PipelineSpec, StageDelta, StageStateMap, StageStats};
pub use pktgen::{FlowDistribution, PacketGen, TrafficConfig};
pub use pool::{PacketPool, PoolStats};
pub use ratelimit::{PerFlowRateLimiter, RateLimiter, TickBucket, TokenBucket};
