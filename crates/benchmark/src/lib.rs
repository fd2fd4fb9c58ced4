//! `dpbench`: the dataplane benchmark.
//!
//! Five named workloads drive the lane engine and the tenant engine
//! from outside, through their public functions only. An untraced pass
//! reports the end-to-end metrics (reduced over repeated windows, each
//! window behind its correctness gates); a separate traced pass wraps a
//! span around every call into a layer and reports the per-layer
//! waterfall and what the tracing itself cost. See `README.md` for the
//! one command, the load model, and the layer → end-to-end map.

pub mod alloc;
pub mod engines;
pub mod host;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod reference;
pub mod runner;
pub mod stats;
pub mod trace;
pub mod workloads;
