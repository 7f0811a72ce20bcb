//! Structured tracing and metrics for the Comp-C reduction engine.
//!
//! The reduction of Theorem 1 is inherently narratable — it proceeds level
//! by level, and each level has measurable work (front sizes, closure
//! edges, forgotten commutations, wall time). This crate defines the event
//! vocabulary ([`TraceEvent`]), the sink abstraction ([`TraceSink`]), the
//! NDJSON line format ([`event_to_ndjson_line`]: one compact JSON object
//! per event, via the workspace's own `compc-json`), and two ready-made
//! sinks:
//!
//! * [`MemorySink`] — collects events in a `Vec` for tests and replay;
//! * [`TraceStats`] — aggregates events into [`Histogram`]s (per-level
//!   timings, front sizes, closure-edge counts) for batch reports.
//!
//! The engine threads an `Option<&mut dyn TraceSink>` through its hot path:
//! when the option is `None` the only cost is a branch per reduction level
//! (measured <2% on the `reduction` bench — see EXPERIMENTS.md E18), so
//! tracing is zero-cost-when-disabled in the sense that matters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use compc_json::{object, Value};

/// One structured event emitted by the reduction engine.
///
/// Events narrate a single check: `CheckStart`, then one `Level` per
/// reduction step (successful or failing), then `CheckEnd`.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A check began.
    CheckStart {
        /// Nodes in the composite system.
        nodes: usize,
        /// Schedules in the composite system.
        schedules: usize,
        /// The system's order `N` (number of reduction levels).
        order: usize,
    },
    /// One reduction level completed (or failed — see `ok`).
    Level {
        /// The 1-based reduction level.
        level: usize,
        /// Schedules reduced at this level.
        schedules_reduced: usize,
        /// Front size before the step.
        front_before: usize,
        /// Front size after the step (equals `front_before` when the step
        /// failed before replacing the front).
        front_after: usize,
        /// Edges of the step's calculation constraint graph.
        constraint_edges: usize,
        /// Edges of the (closed) observed order after the step.
        observed_edges: usize,
        /// Edges added by the rule-4 transitive closure.
        closure_edges: usize,
        /// Pulled-up pairs dropped by Definition 10's commutativity
        /// forgetting (0 under the no-forgetting ablation).
        pairs_forgotten: usize,
        /// Rule-2 serialization pairs contributed by the reduced schedules.
        serialization_pairs: usize,
        /// Wall-clock nanoseconds this step took.
        elapsed_ns: u64,
        /// Whether the step succeeded.
        ok: bool,
    },
    /// The check finished.
    CheckEnd {
        /// Whether the verdict was Comp-C.
        correct: bool,
        /// Reduction levels completed successfully.
        levels_completed: usize,
        /// The failing level, for incorrect verdicts.
        failed_level: Option<usize>,
        /// The failing phase (`"calculation"` or `"conflict-consistency"`).
        failed_phase: Option<&'static str>,
        /// Wall-clock nanoseconds for the whole check.
        elapsed_ns: u64,
    },
    /// A fault was injected into a simulated execution (crash, transient
    /// operation failure, stall, dropped lock release, lease expiry,
    /// restart). Emitted by the simulator's fault-injection layer, not by
    /// the reduction engine, so chaos sweeps and checks share one event
    /// stream.
    Fault {
        /// Stable fault-kind tag (e.g. `"crash"`, `"op_fail"`, `"stall"`,
        /// `"drop_release"`, `"lease_expiry"`, `"restart"`).
        fault: &'static str,
        /// Index of the component the fault hit.
        component: usize,
        /// The affected composite transaction, when the fault targets one.
        tx: Option<u32>,
        /// Simulated time of the injection.
        time: u64,
    },
    /// A point-in-time snapshot of the `compc-serve` daemon's serving-layer
    /// gauges, emitted on each `stats` op and at drain start under
    /// `--trace` so load, shedding and journal lag share the check event
    /// stream.
    ServeGauges {
        /// Connections currently open.
        connections: u64,
        /// Highest concurrent connection count seen.
        peak_connections: u64,
        /// Requests queued for the dispatch shards right now (all shards).
        queue_depth: u64,
        /// Connections shed with an `overloaded` error (over `--max-conns`).
        shed: u64,
        /// Appends journaled since the last compaction (journal lag).
        journal_lag: u64,
        /// Requests that panicked and were isolated (`internal` errors).
        internal_faults: u64,
        /// Journal fsyncs actually issued (one per commit batch).
        fsyncs: u64,
        /// Fsyncs group commit amortized away (records beyond the first in
        /// each batch would each have cost one fsync before batching).
        fsyncs_saved: u64,
        /// Commit-batch-size histogram, log2 buckets: `batch_buckets[i]`
        /// counts batches of `2^i ..= 2^(i+1)-1` journaled records.
        batch_buckets: Vec<u64>,
        /// Largest commit batch flushed so far.
        batch_max: u64,
        /// Requests queued per dispatch shard (index = shard).
        shard_depths: Vec<u64>,
    },
}

impl TraceEvent {
    /// The event's type tag as it appears in the NDJSON `"event"` field.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::CheckStart { .. } => "check_start",
            TraceEvent::Level { .. } => "level",
            TraceEvent::CheckEnd { .. } => "check_end",
            TraceEvent::Fault { .. } => "fault",
            TraceEvent::ServeGauges { .. } => "serve_gauges",
        }
    }

    /// The event as a JSON object (field order fixed, diffable).
    pub fn to_json(&self) -> Value {
        let num = |n: usize| Value::Num(n as f64);
        match *self {
            TraceEvent::CheckStart {
                nodes,
                schedules,
                order,
            } => object(vec![
                ("event", Value::Str("check_start".into())),
                ("nodes", num(nodes)),
                ("schedules", num(schedules)),
                ("order", num(order)),
            ]),
            TraceEvent::Level {
                level,
                schedules_reduced,
                front_before,
                front_after,
                constraint_edges,
                observed_edges,
                closure_edges,
                pairs_forgotten,
                serialization_pairs,
                elapsed_ns,
                ok,
            } => object(vec![
                ("event", Value::Str("level".into())),
                ("level", num(level)),
                ("schedules_reduced", num(schedules_reduced)),
                ("front_before", num(front_before)),
                ("front_after", num(front_after)),
                ("constraint_edges", num(constraint_edges)),
                ("observed_edges", num(observed_edges)),
                ("closure_edges", num(closure_edges)),
                ("pairs_forgotten", num(pairs_forgotten)),
                ("serialization_pairs", num(serialization_pairs)),
                ("elapsed_ns", Value::Num(elapsed_ns as f64)),
                ("ok", Value::Bool(ok)),
            ]),
            TraceEvent::CheckEnd {
                correct,
                levels_completed,
                failed_level,
                failed_phase,
                elapsed_ns,
            } => object(vec![
                ("event", Value::Str("check_end".into())),
                ("correct", Value::Bool(correct)),
                ("levels_completed", num(levels_completed)),
                ("failed_level", failed_level.map_or(Value::Null, num)),
                (
                    "failed_phase",
                    failed_phase.map_or(Value::Null, |p| Value::Str(p.into())),
                ),
                ("elapsed_ns", Value::Num(elapsed_ns as f64)),
            ]),
            TraceEvent::Fault {
                fault,
                component,
                tx,
                time,
            } => object(vec![
                ("event", Value::Str("fault".into())),
                ("fault", Value::Str(fault.into())),
                ("component", num(component)),
                ("tx", tx.map_or(Value::Null, |t| Value::Num(t as f64))),
                ("time", Value::Num(time as f64)),
            ]),
            TraceEvent::ServeGauges {
                connections,
                peak_connections,
                queue_depth,
                shed,
                journal_lag,
                internal_faults,
                fsyncs,
                fsyncs_saved,
                ref batch_buckets,
                batch_max,
                ref shard_depths,
            } => object(vec![
                ("event", Value::Str("serve_gauges".into())),
                ("connections", Value::Num(connections as f64)),
                ("peak_connections", Value::Num(peak_connections as f64)),
                ("queue_depth", Value::Num(queue_depth as f64)),
                ("shed", Value::Num(shed as f64)),
                ("journal_lag", Value::Num(journal_lag as f64)),
                ("internal_faults", Value::Num(internal_faults as f64)),
                ("fsyncs", Value::Num(fsyncs as f64)),
                ("fsyncs_saved", Value::Num(fsyncs_saved as f64)),
                ("batch_buckets", Value::from(batch_buckets.clone())),
                ("batch_max", Value::Num(batch_max as f64)),
                ("shard_depths", Value::from(shard_depths.clone())),
            ]),
        }
    }
}

/// A consumer of reduction events. Implementations must be cheap: the
/// engine calls [`TraceSink::emit`] from inside the reduction loop.
pub trait TraceSink {
    /// Receive one event.
    fn emit(&mut self, event: &TraceEvent);
}

/// A sink that records events in memory, for tests, replay, and the batch
/// engine's per-item traces.
#[derive(Debug, Default)]
pub struct MemorySink {
    /// The recorded events, in emission order.
    pub events: Vec<TraceEvent>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }
}

impl TraceSink for MemorySink {
    fn emit(&mut self, event: &TraceEvent) {
        self.events.push(event.clone());
    }
}

/// Renders one event as a compact JSON line (without the trailing newline),
/// injecting `label` when given (the batch engine's callers use it to
/// attribute events to items): tag first, label second. Callers write the
/// lines themselves, one per event (NDJSON).
pub fn event_to_ndjson_line(event: &TraceEvent, label: Option<&str>) -> String {
    let mut value = event.to_json();
    if let (Some(label), Value::Object(entries)) = (label, &mut value) {
        entries.insert(1, ("label".to_string(), Value::Str(label.to_string())));
    }
    value.to_compact()
}

// ---------------------------------------------------------------------
// Histograms and aggregate statistics
// ---------------------------------------------------------------------

/// A log₂-bucketed histogram of `u64` samples (bucket `i` holds values with
/// `i` significant bits, i.e. `[2^(i-1), 2^i)`), plus exact count/sum/min/
/// max. Constant memory, O(1) record, mergeable — the right shape for
/// per-batch latency and size distributions without external deps.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// An upper bound for the `q`-quantile (`0.0 ..= 1.0`): the upper edge
    /// of the bucket containing that rank, clamped to the observed max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if b > 0 && seen >= rank.max(1) {
                let upper = if i >= 64 { u64::MAX } else { (1u64 << i) - 1 };
                return upper.min(self.max);
            }
        }
        self.max
    }
}

impl std::fmt::Display for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} mean={:.1} min={} p50≤{} p90≤{} max={}",
            self.count,
            self.mean(),
            self.min(),
            self.quantile(0.5),
            self.quantile(0.9),
            self.max
        )
    }
}

/// A [`TraceSink`] that aggregates events into histograms — the metrics
/// companion to the NDJSON stream. One `TraceStats` can absorb any number
/// of checks (merge worker-local instances with [`TraceStats::merge`]).
#[derive(Clone, Debug, Default)]
pub struct TraceStats {
    /// Checks observed (completed `check_end` events).
    pub checks: u64,
    /// Checks that ended Comp-C.
    pub correct: u64,
    /// Per-check wall time (ns).
    pub check_ns: Histogram,
    /// Per-level wall time (ns).
    pub level_ns: Histogram,
    /// Front size after each reduction level.
    pub front_sizes: Histogram,
    /// Closure edges added per level.
    pub closure_edges: Histogram,
    /// Levels completed per check.
    pub levels_completed: Histogram,
    /// Total pulled-up pairs forgotten (commutations applied).
    pub pairs_forgotten: u64,
    /// Total rule-2 serialization pairs.
    pub serialization_pairs: u64,
    /// Simulator fault injections observed (`fault` events).
    pub faults_injected: u64,
    /// Fault injections per kind tag, in first-seen order.
    pub faults_by_kind: Vec<(&'static str, u64)>,
}

impl TraceStats {
    /// An empty aggregate.
    pub fn new() -> Self {
        TraceStats::default()
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &TraceStats) {
        self.checks += other.checks;
        self.correct += other.correct;
        self.check_ns.merge(&other.check_ns);
        self.level_ns.merge(&other.level_ns);
        self.front_sizes.merge(&other.front_sizes);
        self.closure_edges.merge(&other.closure_edges);
        self.levels_completed.merge(&other.levels_completed);
        self.pairs_forgotten += other.pairs_forgotten;
        self.serialization_pairs += other.serialization_pairs;
        self.faults_injected += other.faults_injected;
        for &(kind, n) in &other.faults_by_kind {
            self.record_fault_kind(kind, n);
        }
    }

    fn record_fault_kind(&mut self, kind: &'static str, n: u64) {
        match self.faults_by_kind.iter_mut().find(|(k, _)| *k == kind) {
            Some((_, count)) => *count += n,
            None => self.faults_by_kind.push((kind, n)),
        }
    }
}

impl TraceSink for TraceStats {
    fn emit(&mut self, event: &TraceEvent) {
        match *event {
            TraceEvent::CheckStart { .. } => {}
            TraceEvent::Level {
                front_after,
                closure_edges,
                pairs_forgotten,
                serialization_pairs,
                elapsed_ns,
                ..
            } => {
                self.level_ns.record(elapsed_ns);
                self.front_sizes.record(front_after as u64);
                self.closure_edges.record(closure_edges as u64);
                self.pairs_forgotten += pairs_forgotten as u64;
                self.serialization_pairs += serialization_pairs as u64;
            }
            TraceEvent::CheckEnd {
                correct,
                levels_completed,
                elapsed_ns,
                ..
            } => {
                self.checks += 1;
                self.correct += correct as u64;
                self.check_ns.record(elapsed_ns);
                self.levels_completed.record(levels_completed as u64);
            }
            TraceEvent::Fault { fault, .. } => {
                self.faults_injected += 1;
                self.record_fault_kind(fault, 1);
            }
            // Serving-layer gauges are point-in-time, not per-check work;
            // they pass through aggregation untouched.
            TraceEvent::ServeGauges { .. } => {}
        }
    }
}

impl std::fmt::Display for TraceStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "checks: {} ({} correct, {} incorrect)",
            self.checks,
            self.correct,
            self.checks - self.correct
        )?;
        writeln!(f, "check time (ns):  {}", self.check_ns)?;
        writeln!(f, "level time (ns):  {}", self.level_ns)?;
        writeln!(f, "front sizes:      {}", self.front_sizes)?;
        writeln!(f, "closure edges:    {}", self.closure_edges)?;
        writeln!(f, "levels completed: {}", self.levels_completed)?;
        write!(
            f,
            "commutations forgotten: {}, serialization pairs: {}",
            self.pairs_forgotten, self.serialization_pairs
        )?;
        if self.faults_injected > 0 {
            let kinds: Vec<String> = self
                .faults_by_kind
                .iter()
                .map(|(k, n)| format!("{k}={n}"))
                .collect();
            write!(
                f,
                "\nfaults injected: {} ({})",
                self.faults_injected,
                kinds.join(", ")
            )?;
        }
        Ok(())
    }
}

/// Replays stored events into another sink — the bridge between the batch
/// engine's per-item [`MemorySink`] captures and a downstream writer.
pub fn replay(events: &[TraceEvent], sink: &mut dyn TraceSink) {
    for e in events {
        sink.emit(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::CheckStart {
                nodes: 10,
                schedules: 3,
                order: 2,
            },
            TraceEvent::Level {
                level: 1,
                schedules_reduced: 2,
                front_before: 6,
                front_after: 4,
                constraint_edges: 5,
                observed_edges: 7,
                closure_edges: 2,
                pairs_forgotten: 1,
                serialization_pairs: 3,
                elapsed_ns: 1200,
                ok: true,
            },
            TraceEvent::CheckEnd {
                correct: false,
                levels_completed: 1,
                failed_level: Some(2),
                failed_phase: Some("calculation"),
                elapsed_ns: 4000,
            },
        ]
    }

    #[test]
    fn ndjson_lines_parse_back() {
        let lines: Vec<String> = sample_events()
            .iter()
            .map(|e| event_to_ndjson_line(e, None))
            .collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            assert!(!line.contains('\n'), "one line per event: {line}");
            let v = compc_json::parse(line).expect("valid JSON");
            assert!(v.get("event").is_some());
        }
        assert_eq!(
            compc_json::parse(&lines[0]).unwrap().get("event"),
            Some(&Value::Str("check_start".into()))
        );
        let end = compc_json::parse(&lines[2]).unwrap();
        assert_eq!(end.get("failed_level").and_then(|v| v.as_u64()), Some(2));
        assert_eq!(
            end.get("failed_phase").and_then(|v| v.as_str()),
            Some("calculation")
        );
    }

    #[test]
    fn label_is_injected_after_event_tag() {
        let line = event_to_ndjson_line(&sample_events()[1], Some("item-7"));
        let v = compc_json::parse(&line).unwrap();
        assert_eq!(v.get("label").and_then(|l| l.as_str()), Some("item-7"));
        // Tag first, label second — stable column order for eyeballing.
        let entries = v.as_object().unwrap();
        assert_eq!(entries[0].0, "event");
        assert_eq!(entries[1].0, "label");
    }

    #[test]
    fn memory_sink_round_trips_through_replay() {
        let events = sample_events();
        let mut mem = MemorySink::new();
        replay(&events, &mut mem);
        assert_eq!(mem.events, events);
    }

    #[test]
    fn histogram_basic_stats() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        assert!((h.mean() - 221.2).abs() < 1e-9);
        assert!(h.quantile(0.5) >= 3);
        assert!(h.quantile(1.0) <= 1000);
        let mut h2 = Histogram::new();
        h2.record(5000);
        h.merge(&h2);
        assert_eq!(h.count(), 6);
        assert_eq!(h.max(), 5000);
    }

    #[test]
    fn histogram_zero_and_empty_are_safe() {
        let empty = Histogram::new();
        assert_eq!(empty.count(), 0);
        assert_eq!(empty.min(), 0);
        assert_eq!(empty.quantile(0.9), 0);
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn fault_events_serialize_and_aggregate() {
        let events = vec![
            TraceEvent::Fault {
                fault: "crash",
                component: 2,
                tx: None,
                time: 17,
            },
            TraceEvent::Fault {
                fault: "op_fail",
                component: 0,
                tx: Some(3),
                time: 21,
            },
            TraceEvent::Fault {
                fault: "crash",
                component: 1,
                tx: None,
                time: 40,
            },
        ];
        let line = event_to_ndjson_line(&events[1], Some("run-0"));
        let v = compc_json::parse(&line).unwrap();
        assert_eq!(v.get("event").and_then(|e| e.as_str()), Some("fault"));
        assert_eq!(v.get("fault").and_then(|e| e.as_str()), Some("op_fail"));
        assert_eq!(v.get("tx").and_then(|e| e.as_u64()), Some(3));
        assert_eq!(v.get("label").and_then(|e| e.as_str()), Some("run-0"));
        let mut stats = TraceStats::new();
        replay(&events, &mut stats);
        assert_eq!(stats.faults_injected, 3);
        assert_eq!(stats.faults_by_kind, vec![("crash", 2), ("op_fail", 1)]);
        let mut other = TraceStats::new();
        other.emit(&events[0]);
        stats.merge(&other);
        assert_eq!(stats.faults_injected, 4);
        assert_eq!(stats.faults_by_kind, vec![("crash", 3), ("op_fail", 1)]);
        assert!(stats.to_string().contains("faults injected: 4 (crash=3"));
    }

    #[test]
    fn trace_stats_aggregates_events() {
        let mut stats = TraceStats::new();
        replay(&sample_events(), &mut stats);
        assert_eq!(stats.checks, 1);
        assert_eq!(stats.correct, 0);
        assert_eq!(stats.level_ns.count(), 1);
        assert_eq!(stats.pairs_forgotten, 1);
        assert_eq!(stats.serialization_pairs, 3);
        let text = stats.to_string();
        assert!(
            text.contains("checks: 1 (0 correct, 1 incorrect)"),
            "{text}"
        );
    }
}
