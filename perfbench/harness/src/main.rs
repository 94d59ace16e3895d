//! `perfbench` — one workload run of the end-to-end benchmark, in a process
//! of its own.
//!
//! ```text
//! perfbench --workload fig6-event|fig6-flow|datacenter|golden-sharded|golden-serial
//!           [--trace] [--audit] [--stream-seed N] [--fault-seed N] [--root DIR]
//! ```
//!
//! It sets every process-global `simmpi` knob the workload relies on, runs
//! the workload's cells once, checks their outputs, and prints one JSON
//! object on stdout: set-up and wall times, per-cell times, the output
//! checks, peak memory, and the per-layer metrics measured in this process.
//! `perfbench/run.py` starts one such process per repeat — the `soc-arch`
//! timing cache is then cold in each, as in every `repro` invocation — and
//! reduces the repeats to the reported metrics. With `--trace` the run
//! keeps its spans and writes them to `.bench_out/spans/<workload>.jsonl`
//! under the root, and installs a counting `des::Tracer` — except on the
//! golden workloads, where a default tracer would make `simmpi::run_mpi`
//! fall back to one engine and so measure a different program.

mod check;
mod counters;
mod datacenter;
mod fig6;
mod golden;
mod spans;
mod workload;

use std::path::PathBuf;
use std::sync::Arc;

use serde::Value;

use counters::Counting;
use datacenter::Seeds;
use simmpi::NetModel;
use spans::SpanLog;
use workload::{metric_key, Ctx, Outcome};

/// The workloads, with the network model and DES shard count each pins.
const WORKLOADS: &[(&str, NetModel, Option<u32>)] = &[
    ("fig6-event", NetModel::Event, None),
    ("fig6-flow", NetModel::Flow, None),
    ("datacenter", NetModel::Event, None),
    ("golden-sharded", NetModel::Event, Some(2)),
    ("golden-serial", NetModel::Event, None),
];

struct Args {
    workload: &'static str,
    net_model: NetModel,
    shards: Option<u32>,
    trace: bool,
    audit: bool,
    seeds: Seeds,
    root: PathBuf,
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload NAME [--trace] [--audit] [--stream-seed N] [--fault-seed N] \
         [--root DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut trace = false;
    let mut audit = false;
    let mut seeds = Seeds::REPRO;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    let value = |flag: &str, args: &mut dyn Iterator<Item = String>| {
        args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")))
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--workload" => {
                let v = value("--workload", &mut args);
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(name, _, _)| *name == v)
                        .unwrap_or_else(|| usage(&format!("unknown workload '{v}'"))),
                );
            }
            "--trace" => trace = true,
            "--audit" => audit = true,
            "--stream-seed" | "--fault-seed" => {
                let v = value(&a, &mut args);
                let n: u64 = v.parse().unwrap_or_else(|_| usage(&format!("bad {a} value '{v}'")));
                if a == "--stream-seed" {
                    seeds.stream = n;
                } else {
                    seeds.fault = n;
                }
            }
            "--root" => root = PathBuf::from(value("--root", &mut args)),
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    let &(workload, net_model, shards) =
        workload.unwrap_or_else(|| usage("--workload is required"));
    Args { workload, net_model, shards, trace, audit, seeds, root }
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 where unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn num(x: f64) -> Value {
    Value::Float(x)
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn main() {
    let args = parse_args();
    // A default tracer makes `run_mpi` fall back to one engine, so the
    // golden workloads never get one: it would measure a different program.
    let counting =
        (args.trace && !args.workload.starts_with("golden")).then(|| Arc::new(Counting::default()));
    // Every process-global knob this workload depends on is set here, not
    // inherited: they leak between callers within a process.
    simmpi::set_default_net_model(args.net_model);
    simmpi::set_default_shards(args.shards);
    simmpi::set_default_tracer(counting.clone().map(|c| c as Arc<dyn des::Tracer>));
    simmpi::set_default_event_budget(None);
    simmpi::set_default_ckpt_every(None);
    simmpi::set_default_ckpt_dir(None);
    simmpi::set_default_condemn_winddown(false);

    let out =
        args.root.join(".bench_out").join(format!("{}-{}", args.workload, std::process::id()));
    let ctx = Ctx {
        root: args.root.clone(),
        out: out.clone(),
        spans: Arc::new(SpanLog::new(args.trace)),
        counting,
    };
    let outcome: Outcome = match args.workload {
        "fig6-event" => fig6::run(&ctx, "fig6_quick_event.json"),
        "fig6-flow" => fig6::run(&ctx, "fig6_quick_flow.json"),
        "datacenter" => datacenter::run(&ctx, args.seeds, args.audit),
        _ => golden::run(&ctx),
    };
    simmpi::set_default_tracer(None);
    let _ = std::fs::remove_dir_all(&out);
    if outcome.tally.attempted == 0 {
        for f in &outcome.tally.failures {
            eprintln!("error: {f}");
        }
        std::process::exit(1);
    }
    if args.trace {
        let path = args.root.join(".bench_out/spans").join(format!("{}.jsonl", args.workload));
        if let Err(e) = ctx.spans.write_jsonl(&path) {
            eprintln!("error: cannot write spans to {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    let cells = outcome
        .cells
        .iter()
        .map(|c| {
            let mut fields = vec![
                ("label", Value::String(c.label.clone())),
                ("key", Value::String(metric_key(&c.label))),
                ("wall_s", num(c.wall_s)),
            ];
            if let Some(k) = c.counts {
                fields.push(("resumes", Value::UInt(k.resumes)));
                fields.push(("msgs", Value::UInt(k.msgs)));
            }
            obj(fields)
        })
        .collect();
    let layers = outcome.layers.iter().map(|(k, v)| (k.clone(), num(*v))).collect();
    let t = &outcome.tally;
    let report = obj(vec![
        ("workload", Value::String(args.workload.to_string())),
        ("traced", Value::Bool(args.trace)),
        ("stream_seed", Value::UInt(args.seeds.stream)),
        ("fault_seed", Value::UInt(args.seeds.fault)),
        ("setup_s", Value::Array(outcome.setup_s.iter().map(|&s| num(s)).collect())),
        ("wall_s", num(outcome.wall_s)),
        ("peak_rss_mb", num(peak_rss_mb())),
        ("attempted", Value::UInt(t.attempted)),
        ("failed", Value::UInt(t.failed)),
        ("cell_fail_frac", num(t.fail_frac())),
        ("clean", Value::Bool(t.clean())),
        ("failures", Value::Array(t.failures.iter().cloned().map(Value::String).collect())),
        ("spans", Value::UInt(ctx.spans.len() as u64)),
        ("cells", Value::Array(cells)),
        ("layers", Value::Object(layers)),
    ]);
    println!("{}", serde_json::to_string(&report).expect("report serialises"));
}
