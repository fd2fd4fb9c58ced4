//! Outside-in span tracing.
//!
//! The traced pass brackets each call the benchmark makes into a layer's
//! public functions with a span: layer name, start and end TSC, the span
//! that caused it (the enclosing batch or tick span), and the batch/tick
//! id every span of one unit shares. Spans aggregate per name — count,
//! total, *self* time (duration minus the part its child spans cover)
//! and a duration histogram — and the raw spans of the first
//! [`RAW_UNITS`] units are kept in memory and written out when the
//! benchmark ends. Nothing inside the product is instrumented; what the
//! engines do between these calls lands in a parent's self time.

use std::collections::BTreeMap;
use std::path::Path;

use rbs_core::cycles::rdtsc;
use rbs_core::histogram::LogHistogram;

use crate::json::Json;

/// Batches/ticks whose raw spans are kept for the trace file.
pub const RAW_UNITS: u64 = 2_048;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer name.
    pub name: &'static str,
    /// Start TSC.
    pub start: u64,
    /// End TSC.
    pub end: u64,
    /// Batch or tick id shared by every span of the unit.
    pub unit: u64,
    /// Index (into the raw span list) of the span that caused this one.
    pub parent: Option<usize>,
}

/// Per-name aggregate over every closed span.
#[derive(Debug, Clone)]
pub struct LayerAgg {
    /// Spans closed.
    pub count: u64,
    /// Sum of durations, cycles.
    pub total: u64,
    /// Sum of self times, cycles.
    pub self_cycles: u64,
    /// Duration histogram.
    pub hist: LogHistogram,
}

struct Open {
    name: &'static str,
    start: u64,
    child_cycles: u64,
    raw: Option<usize>,
}

/// Span recorder. A disabled tracer makes `enter`/`exit` one branch, so
/// the same driving loop runs traced and untraced and their difference
/// is the tracing overhead.
pub struct Tracer {
    enabled: bool,
    /// What an empty span measures: the timer cost that lands inside
    /// every span's own interval.
    empty_span_cycles: u64,
    open: Vec<Open>,
    raw: Vec<SpanRecord>,
    agg: BTreeMap<&'static str, LayerAgg>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        let mut tracer = Tracer {
            enabled,
            empty_span_cycles: 0,
            open: Vec::with_capacity(8),
            raw: Vec::with_capacity(if enabled { 8 * RAW_UNITS as usize } else { 0 }),
            agg: BTreeMap::new(),
        };
        if enabled {
            const PROBE: &str = "trace.empty_span";
            for _ in 0..4_096 {
                tracer.enter(PROBE, RAW_UNITS);
                tracer.exit();
            }
            let probe = tracer.agg.remove(PROBE).expect("probe spans closed");
            tracer.empty_span_cycles =
                crate::stats::hist_percentile(&probe.hist, 50.0).unwrap_or(0.0) as u64;
        }
        tracer
    }

    /// Opens a span of `name` for batch/tick `unit`, now.
    #[inline]
    pub fn enter(&mut self, name: &'static str, unit: u64) {
        if self.enabled {
            self.enter_at(name, unit, rdtsc());
        }
    }

    /// Closes the innermost open span, now.
    #[inline]
    pub fn exit(&mut self) {
        if self.enabled {
            self.exit_at(rdtsc());
        }
    }

    /// [`enter`](Self::enter) with an explicit timestamp.
    pub fn enter_at(&mut self, name: &'static str, unit: u64, tsc: u64) {
        let raw = (unit < RAW_UNITS).then(|| {
            self.raw.push(SpanRecord {
                name,
                start: tsc,
                end: tsc,
                unit,
                parent: self.open.last().and_then(|p| p.raw),
            });
            self.raw.len() - 1
        });
        self.open.push(Open {
            name,
            start: tsc,
            child_cycles: 0,
            raw,
        });
    }

    /// [`exit`](Self::exit) with an explicit timestamp.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn exit_at(&mut self, tsc: u64) {
        let span = self.open.pop().expect("exit without an open span");
        let duration = tsc.saturating_sub(span.start);
        if let Some(i) = span.raw {
            self.raw[i].end = tsc;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.child_cycles += duration;
        }
        let agg = self.agg.entry(span.name).or_insert_with(|| LayerAgg {
            count: 0,
            total: 0,
            self_cycles: 0,
            hist: LogHistogram::new(32),
        });
        agg.count += 1;
        agg.total += duration;
        agg.self_cycles += duration.saturating_sub(span.child_cycles);
        agg.hist.record(duration);
    }

    /// The aggregate for `name`, if any span of it closed.
    pub fn layer(&self, name: &str) -> Option<&LayerAgg> {
        self.agg.get(name)
    }

    /// Total cycles spent in spans of `name` (0 if none), less the timer
    /// cost an empty span measures, once per span — at a dozen packets
    /// per span that cost would otherwise be cycles per packet.
    pub fn total(&self, name: &str) -> u64 {
        self.layer(name).map_or(0, |a| {
            a.total.saturating_sub(a.count * self.empty_span_cycles)
        })
    }

    /// Spans of `name` closed (0 if none).
    pub fn count(&self, name: &str) -> u64 {
        self.layer(name).map_or(0, |a| a.count)
    }

    /// Raw spans kept so far.
    pub fn raw_spans(&self) -> &[SpanRecord] {
        &self.raw
    }

    /// The trace document: per-layer aggregates plus the raw spans.
    pub fn to_json(&self, workload: &str, tsc_hz: f64) -> Json {
        let layers = self.agg.iter().map(|(name, a)| {
            (
                *name,
                Json::obj([
                    ("count", Json::Int(a.count as i128)),
                    ("total_cycles", Json::Int(a.total as i128)),
                    ("self_cycles", Json::Int(a.self_cycles as i128)),
                    (
                        "p50_cycles",
                        Json::Num(crate::stats::hist_percentile(&a.hist, 50.0).unwrap_or(0.0)),
                    ),
                    (
                        "p99_cycles",
                        Json::Num(crate::stats::hist_percentile(&a.hist, 99.0).unwrap_or(0.0)),
                    ),
                ]),
            )
        });
        let spans = self.raw.iter().map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("start", Json::Int(s.start as i128)),
                ("end", Json::Int(s.end as i128)),
                ("unit", Json::Int(s.unit as i128)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Int(p as i128)),
                ),
            ])
        });
        Json::obj([
            ("workload", Json::str(workload)),
            ("tsc_hz", Json::Num(tsc_hz)),
            (
                "empty_span_cycles",
                Json::Int(i128::from(self.empty_span_cycles)),
            ),
            ("layers", Json::obj(layers)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }

    /// Writes the trace document to `path`, creating its directory.
    pub fn write(&self, path: &Path, workload: &str, tsc_hz: f64) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_json(workload, tsc_hz).render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let mut t = Tracer::new(true);
        // batch [100, 1100): children pktgen [150, 450) and execute
        // [500, 1000), which itself holds run_batch [520, 980).
        t.enter_at("batch", 0, 100);
        t.enter_at("pktgen", 0, 150);
        t.exit_at(450);
        t.enter_at("execute", 0, 500);
        t.enter_at("run_batch", 0, 520);
        t.exit_at(980);
        t.exit_at(1_000);
        t.exit_at(1_100);

        let batch = t.layer("batch").unwrap();
        assert_eq!(batch.total, 1_000);
        // Only direct children cover the parent: 300 + 500.
        assert_eq!(batch.self_cycles, 200);
        let execute = t.layer("execute").unwrap();
        assert_eq!((execute.total, execute.self_cycles), (500, 40));
        let leaf = t.layer("run_batch").unwrap();
        assert_eq!((leaf.total, leaf.self_cycles), (460, 460));
        // Self times partition the root's duration.
        let self_sum: u64 = ["batch", "pktgen", "execute", "run_batch"]
            .iter()
            .map(|n| t.layer(n).unwrap().self_cycles)
            .sum();
        assert_eq!(self_sum, 1_000);
    }

    #[test]
    fn raw_spans_carry_parent_and_unit_and_stop_at_the_cap() {
        let mut t = Tracer::new(true);
        t.enter_at("tick", 7, 10);
        t.enter_at("offer", 7, 12);
        t.exit_at(20);
        t.exit_at(30);
        t.enter_at("tick", RAW_UNITS, 40);
        t.exit_at(50);
        let raw = t.raw_spans();
        assert_eq!(raw.len(), 2, "units past the cap aggregate only");
        assert_eq!((raw[0].name, raw[0].parent, raw[0].end), ("tick", None, 30));
        assert_eq!(
            (raw[1].name, raw[1].parent, raw[1].unit),
            ("offer", Some(0), 7)
        );
        assert_eq!(t.count("tick"), 2);
        let doc = t.to_json("w", 2e9);
        assert_eq!(doc.get("spans").and_then(Json::as_arr).unwrap().len(), 2);
        assert!(crate::json::parse(&doc.render()).is_ok());
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.enter("x", 0);
        t.exit();
        assert_eq!(t.count("x"), 0);
        assert!(t.raw_spans().is_empty());
    }
}
