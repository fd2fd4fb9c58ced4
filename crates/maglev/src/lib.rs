//! The Maglev software load balancer, as a `rbs-netfx` network function.
//!
//! Figure 2 of the paper compares SFI overhead against "the NetBricks
//! implementation of the Maglev load balancer [13]", a realistic but
//! lightweight network function. This crate is a from-scratch
//! implementation of Maglev's two data-path pieces:
//!
//! - [`table`]: the consistent-hashing lookup table of the Maglev paper
//!   (Eisenbud et al., NSDI '16, §3.4) — per-backend permutations of table
//!   positions generated from two independent hashes, populated round-robin
//!   so every backend owns an almost equal share of entries, and minimally
//!   disrupted when backends come and go;
//! - [`lb`]: the packet-facing load balancer — five-tuple hash, connection
//!   tracking so established flows stick to their backend across table
//!   rebuilds, and destination-NAT packet rewriting.

#![forbid(unsafe_code)]

pub mod baseline;
pub mod lb;
pub mod table;

pub use baseline::{compare_removal, DisruptionComparison, ModNTable};
pub use lb::{LbStats, MaglevLb};
pub use table::{Backend, MaglevTable, TableError};
