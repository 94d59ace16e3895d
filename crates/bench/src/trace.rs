//! Trace persistence and analysis: the JSONL sink for recorded
//! [`TraceRecord`]s and the collapsed-stack / per-rank folding behind the
//! `trace2flame` binary.
//!
//! The on-disk format is one JSON object per line — a `trace_start` header
//! followed by one `kind`-tagged record per event — documented field-by-field
//! in `docs/TRACE_FORMAT.md`. Writing goes through the journal's fsync'd
//! [`JsonlWriter`], so a trace interrupted mid-run is still a valid prefix;
//! [`read_trace`] is prefix-tolerant the same way the journal reader is.
//!
//! ```
//! use bench::trace::{read_trace, write_trace};
//! use des::{SimTime, TraceEvent, TraceRecord};
//!
//! let path = std::env::temp_dir().join(format!("trace_doc_{}.jsonl", std::process::id()));
//! let records = vec![TraceRecord {
//!     at: SimTime::from_micros(3),
//!     seq: 0,
//!     event: TraceEvent::SpanBegin { rank: 0, name: "compute".into() },
//! }];
//! write_trace(&path, &records, 0).unwrap();
//! let trace = read_trace(&path).unwrap();
//! assert_eq!(trace.spans.len(), 1);
//! assert_eq!(trace.dropped, 0);
//! std::fs::remove_file(&path).unwrap();
//! ```

use std::collections::BTreeMap;
use std::path::Path;

use des::{TraceEvent, TraceRecord};
use serde::Value;

use crate::artifact::ArtifactIoError;
use crate::journal::JsonlWriter;

/// Trace file format version; bumped on incompatible record changes.
pub const TRACE_VERSION: u64 = 1;

fn esc(s: &str) -> String {
    serde_json::to_string(&s).expect("string serialization")
}

/// Serialise one stamped record to its JSONL line (no trailing newline).
///
/// Every line carries the shared stamps `at_ns` (virtual time) and `seq`
/// (emission sequence number) plus the event's `kind` string and its
/// kind-specific fields — see `docs/TRACE_FORMAT.md`.
pub fn record_line(rec: &TraceRecord) -> String {
    let head = format!(
        "{{\"kind\":\"{}\",\"at_ns\":{},\"seq\":{}",
        rec.event.kind(),
        rec.at.as_nanos(),
        rec.seq
    );
    let body = match &rec.event {
        TraceEvent::ProcSpawn { pid, name } => {
            format!(",\"pid\":{},\"name\":{}", pid.index(), esc(name))
        }
        TraceEvent::ProcResume { pid } | TraceEvent::ProcFinish { pid } => {
            format!(",\"pid\":{}", pid.index())
        }
        TraceEvent::ProcSleep { pid, until } => {
            format!(",\"pid\":{},\"until_ns\":{}", pid.index(), until.as_nanos())
        }
        TraceEvent::ProcPark { pid, deadline } => match deadline {
            Some(d) => format!(",\"pid\":{},\"deadline_ns\":{}", pid.index(), d.as_nanos()),
            None => format!(",\"pid\":{}", pid.index()),
        },
        TraceEvent::ProcWake { target, at } => {
            format!(",\"target\":{},\"wake_at_ns\":{}", target.index(), at.as_nanos())
        }
        TraceEvent::BudgetExhausted { events, budget } => {
            format!(",\"events\":{events},\"budget\":{budget}")
        }
        TraceEvent::MsgEnqueue { src, dst, tag, bytes }
        | TraceEvent::MsgDeliver { src, dst, tag, bytes } => {
            format!(",\"src\":{src},\"dst\":{dst},\"tag\":{tag},\"bytes\":{bytes}")
        }
        TraceEvent::MsgDrop { src, dst, attempt } => {
            format!(",\"src\":{src},\"dst\":{dst},\"attempt\":{attempt}")
        }
        TraceEvent::Fault { kind, node } => {
            format!(",\"fault\":{},\"node\":{node}", esc(kind))
        }
        TraceEvent::SpanBegin { rank, name } | TraceEvent::SpanEnd { rank, name } => {
            format!(",\"rank\":{rank},\"name\":{}", esc(name))
        }
        TraceEvent::FlowStart { src, dst, bytes } | TraceEvent::FlowFinish { src, dst, bytes } => {
            format!(",\"src\":{src},\"dst\":{dst},\"bytes\":{bytes}")
        }
        TraceEvent::FlowReshare { rank, flows } => {
            format!(",\"rank\":{rank},\"flows\":{flows}")
        }
        TraceEvent::JobSubmit { job, tenant, nodes } => {
            format!(",\"job\":{job},\"tenant\":{tenant},\"nodes\":{nodes}")
        }
        TraceEvent::JobStart { job, nodes, wait } => {
            format!(",\"job\":{job},\"nodes\":{nodes},\"wait_ns\":{}", wait.as_nanos())
        }
        TraceEvent::JobFinish { job, outcome } => {
            format!(",\"job\":{job},\"outcome\":{}", esc(outcome))
        }
    };
    format!("{head}{body}}}")
}

/// Write a recorded trace to `path` as JSONL: a `trace_start` header (format
/// version, record count, capacity-drop count), then one line per record.
///
/// Uses the fsync'd [`JsonlWriter`], so the file is durable line-by-line and
/// any crash leaves a valid prefix.
pub fn write_trace(
    path: &Path,
    records: &[TraceRecord],
    dropped: u64,
) -> Result<(), ArtifactIoError> {
    let mut w = JsonlWriter::create(path)?;
    w.append(&format!(
        "{{\"kind\":\"trace_start\",\"version\":{TRACE_VERSION},\"records\":{},\"dropped\":{dropped}}}",
        records.len(),
    ))?;
    for rec in records {
        w.append(&record_line(rec))?;
    }
    Ok(())
}

/// One span edge read back from a trace file (only `span_begin` / `span_end`
/// records fold into flamegraphs; everything else is counted, not kept).
#[derive(Clone, Debug, PartialEq)]
pub struct SpanEdge {
    /// Virtual time of the edge, nanoseconds.
    pub at_ns: u64,
    /// The rank the span belongs to.
    pub rank: u32,
    /// Span name (`"compute"`, `"hpl.panel"`, ...).
    pub name: String,
    /// `true` for `span_begin`, `false` for `span_end`.
    pub begin: bool,
}

/// A parsed trace file: the span edges plus the header/record bookkeeping
/// `trace2flame` reports.
#[derive(Clone, Debug, Default)]
pub struct ParsedTrace {
    /// Span begin/end edges in file (= emission) order.
    pub spans: Vec<SpanEdge>,
    /// Total record lines parsed (all kinds, header excluded).
    pub records: u64,
    /// Capacity-drop count from the `trace_start` header: how many records
    /// the recorder lost after its buffer filled. Non-zero means the trace
    /// is truncated at the tail and folded span times undercount.
    pub dropped: u64,
}

fn get<'v>(obj: &'v Value, key: &str) -> Option<&'v Value> {
    match obj {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn get_str(obj: &Value, key: &str) -> Option<String> {
    match get(obj, key) {
        Some(Value::String(s)) => Some(s.clone()),
        _ => None,
    }
}

fn get_u64(obj: &Value, key: &str) -> Option<u64> {
    match get(obj, key) {
        Some(Value::UInt(n)) => Some(*n),
        Some(Value::Int(n)) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

/// Parse trace `content` (see [`write_trace`]). Prefix-tolerant: parsing
/// stops at the first torn or malformed line; everything before it is used.
pub fn parse_trace(content: &str) -> ParsedTrace {
    let mut t = ParsedTrace::default();
    for line in content.split('\n') {
        if line.is_empty() {
            continue;
        }
        let Ok(v) = serde_json::from_str(line) else {
            break; // torn tail: trust only the prefix
        };
        let Some(kind) = get_str(&v, "kind") else {
            break;
        };
        if kind == "trace_start" {
            t.dropped = get_u64(&v, "dropped").unwrap_or(0);
            continue;
        }
        t.records += 1;
        if kind == "span_begin" || kind == "span_end" {
            let (Some(at_ns), Some(rank), Some(name)) =
                (get_u64(&v, "at_ns"), get_u64(&v, "rank"), get_str(&v, "name"))
            else {
                break;
            };
            t.spans.push(SpanEdge { at_ns, rank: rank as u32, name, begin: kind == "span_begin" });
        }
    }
    t
}

/// Read and parse a trace file written by [`write_trace`].
pub fn read_trace(path: &Path) -> Result<ParsedTrace, ArtifactIoError> {
    let content = std::fs::read_to_string(path).map_err(|source| ArtifactIoError {
        path: path.into(),
        op: "read trace",
        source,
    })?;
    Ok(parse_trace(&content))
}

/// Folded span times: collapsed stacks plus the per-rank self-time breakdown.
#[derive(Clone, Debug, Default)]
pub struct FoldedSpans {
    /// Collapsed-stack lines in `flamegraph.pl` format: semicolon-separated
    /// frames (root frame `rank<N>`) and the nanoseconds of *self* time
    /// attributed to that exact stack, sorted lexicographically.
    pub stacks: Vec<(String, u64)>,
    /// Self-time nanoseconds per `(rank, span name)`, for the breakdown
    /// table.
    pub per_rank: BTreeMap<(u32, String), u64>,
    /// Span-end edges with no matching open span (malformed or truncated
    /// traces); folding skips them.
    pub unmatched_ends: u64,
    /// Spans still open when the trace ended (rank died, or the recorder's
    /// tail was dropped); their time after the last edge is unattributed.
    pub open_spans: u64,
}

/// Fold span edges into flamegraph collapsed stacks.
///
/// Time between consecutive edges on a rank is attributed to the innermost
/// open span (standard flamegraph *self time* semantics): a `"send"` span
/// inside `"hpl.bcast"` accrues to `rank0;hpl.bcast;send`, not to the parent
/// frame.
pub fn fold_spans(edges: &[SpanEdge]) -> FoldedSpans {
    // Per-rank open-span stack and the time of that rank's previous edge.
    let mut stacks: BTreeMap<u32, (Vec<String>, u64)> = BTreeMap::new();
    let mut folded: BTreeMap<String, u64> = BTreeMap::new();
    let mut per_rank: BTreeMap<(u32, String), u64> = BTreeMap::new();
    let mut unmatched_ends = 0u64;

    for e in edges {
        let (stack, last_ns) = stacks.entry(e.rank).or_insert_with(|| (Vec::new(), e.at_ns));
        if let Some(leaf) = stack.last() {
            let dt = e.at_ns.saturating_sub(*last_ns);
            if dt > 0 {
                let path = format!("rank{};{}", e.rank, stack.join(";"));
                *folded.entry(path).or_insert(0) += dt;
                *per_rank.entry((e.rank, leaf.clone())).or_insert(0) += dt;
            }
        }
        *last_ns = e.at_ns;
        if e.begin {
            stack.push(e.name.clone());
        } else if stack.last() == Some(&e.name) {
            stack.pop();
        } else {
            unmatched_ends += 1;
        }
    }

    let open_spans = stacks.values().map(|(s, _)| s.len() as u64).sum();
    FoldedSpans { stacks: folded.into_iter().collect(), per_rank, unmatched_ends, open_spans }
}

/// Render [`FoldedSpans::per_rank`] as an aligned per-rank time-breakdown
/// table (self time per span name, with per-rank percentages).
pub fn render_rank_table(folded: &FoldedSpans) -> String {
    let mut rank_total: BTreeMap<u32, u64> = BTreeMap::new();
    for ((rank, _), ns) in &folded.per_rank {
        *rank_total.entry(*rank).or_insert(0) += ns;
    }
    let name_w =
        folded.per_rank.keys().map(|(_, name)| name.len()).chain(["span".len()]).max().unwrap_or(4);
    let mut out = String::new();
    out.push_str(&format!("{:>6}  {:<name_w$}  {:>14}  {:>6}\n", "rank", "span", "self_ms", "%"));
    for ((rank, name), ns) in &folded.per_rank {
        let total = rank_total[rank].max(1);
        out.push_str(&format!(
            "{:>6}  {:<name_w$}  {:>14.3}  {:>6.1}\n",
            rank,
            name,
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / total as f64,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::{Pid, SimTime};

    fn span(at_us: u64, rank: u32, name: &str, begin: bool) -> SpanEdge {
        SpanEdge { at_ns: at_us * 1000, rank, name: name.into(), begin }
    }

    #[test]
    fn jsonl_round_trips_span_records() {
        let path =
            std::env::temp_dir().join(format!("bench_trace_rt_{}.jsonl", std::process::id()));
        let records = vec![
            TraceRecord {
                at: SimTime::from_micros(1),
                seq: 0,
                event: TraceEvent::SpanBegin { rank: 2, name: "hpl.panel".into() },
            },
            TraceRecord {
                at: SimTime::from_micros(5),
                seq: 1,
                event: TraceEvent::MsgEnqueue { src: 2, dst: 3, tag: 7, bytes: 4096 },
            },
            TraceRecord {
                at: SimTime::from_micros(9),
                seq: 2,
                event: TraceEvent::SpanEnd { rank: 2, name: "hpl.panel".into() },
            },
        ];
        write_trace(&path, &records, 17).unwrap();
        let t = read_trace(&path).unwrap();
        assert_eq!(t.records, 3, "all record kinds are counted");
        assert_eq!(t.dropped, 17, "header drop count survives the round trip");
        assert_eq!(t.spans, vec![span(1, 2, "hpl.panel", true), span(9, 2, "hpl.panel", false)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn every_event_kind_serialises_to_parseable_json() {
        let events = [
            TraceEvent::ProcSpawn { pid: Pid::default(), name: "rank \"0\"".into() },
            TraceEvent::ProcResume { pid: Pid::default() },
            TraceEvent::ProcSleep { pid: Pid::default(), until: SimTime::from_nanos(5) },
            TraceEvent::ProcPark { pid: Pid::default(), deadline: None },
            TraceEvent::ProcPark { pid: Pid::default(), deadline: Some(SimTime::from_nanos(9)) },
            TraceEvent::ProcWake { target: Pid::default(), at: SimTime::from_nanos(9) },
            TraceEvent::ProcFinish { pid: Pid::default() },
            TraceEvent::BudgetExhausted { events: 10, budget: 10 },
            TraceEvent::MsgEnqueue { src: 0, dst: 1, tag: 2, bytes: 3 },
            TraceEvent::MsgDeliver { src: 0, dst: 1, tag: 2, bytes: 3 },
            TraceEvent::MsgDrop { src: 0, dst: 1, attempt: 4 },
            TraceEvent::Fault { kind: "node_crash", node: 6 },
            TraceEvent::SpanBegin { rank: 0, name: "x".into() },
            TraceEvent::SpanEnd { rank: 0, name: "x".into() },
            TraceEvent::JobSubmit { job: 9, tenant: 1, nodes: 4 },
            TraceEvent::JobStart { job: 9, nodes: 4, wait: SimTime::from_nanos(3) },
            TraceEvent::JobFinish { job: 9, outcome: "completed" },
        ];
        for (i, event) in events.into_iter().enumerate() {
            let rec = TraceRecord { at: SimTime::from_nanos(i as u64), seq: i as u64, event };
            let line = record_line(&rec);
            let v: Value = serde_json::from_str(&line).expect("valid JSON");
            assert_eq!(get_str(&v, "kind").as_deref(), Some(rec.event.kind()));
            assert_eq!(get_u64(&v, "at_ns"), Some(i as u64));
            assert_eq!(get_u64(&v, "seq"), Some(i as u64));
        }
    }

    #[test]
    fn folding_attributes_self_time_to_the_innermost_span() {
        // rank0: compute [0,100us) with a nested send [30,50us).
        let edges = vec![
            span(0, 0, "compute", true),
            span(30, 0, "send", true),
            span(50, 0, "send", false),
            span(100, 0, "compute", false),
        ];
        let f = fold_spans(&edges);
        let stacks: BTreeMap<_, _> = f.stacks.iter().cloned().collect();
        assert_eq!(stacks["rank0;compute"], 80_000, "send time is not double-counted");
        assert_eq!(stacks["rank0;compute;send"], 20_000);
        assert_eq!(f.per_rank[&(0, "compute".into())], 80_000);
        assert_eq!(f.per_rank[&(0, "send".into())], 20_000);
        assert_eq!(f.unmatched_ends, 0);
        assert_eq!(f.open_spans, 0);
    }

    #[test]
    fn truncated_traces_fold_without_panicking() {
        // An open span at EOF and a stray end (its begin was dropped).
        let edges = vec![
            span(0, 1, "compute", true),
            span(10, 1, "recv", false),
            span(20, 1, "send", true),
        ];
        let f = fold_spans(&edges);
        assert_eq!(f.unmatched_ends, 1);
        assert_eq!(f.open_spans, 2, "compute and send are still open");
        assert_eq!(f.per_rank[&(1, "compute".into())], 20_000);
    }

    #[test]
    fn rank_table_renders_percentages() {
        let edges = vec![
            span(0, 0, "compute", true),
            span(75, 0, "compute", false),
            span(75, 0, "send", true),
            span(100, 0, "send", false),
        ];
        let table = render_rank_table(&fold_spans(&edges));
        assert!(table.contains("compute"), "{table}");
        assert!(table.contains("75.0"), "{table}");
        assert!(table.contains("25.0"), "{table}");
    }
}
