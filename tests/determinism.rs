//! The tentpole invariant, proved end-to-end: a full golden-scale run of
//! every artefact on 1 worker and on 8 workers of the supervised executor
//! `repro` ships produces byte-identical rendered text and byte-identical
//! JSON. Plus the timing-cache property
//! that makes the parallel sweep cheap: figure cells share model
//! evaluations, so a two-figure run must hit the cache. And the tracing
//! invariant: recording a structured trace never changes a single artefact
//! byte (`ci.sh` additionally proves this at the `repro --trace` binary
//! level on a quick sweep).

mod common;

use std::sync::Arc;

use common::run_supervised;
use des::mc::RunOutcome;
use des::RingRecorder;
use socready::harness::trace::record_line;
use socready::harness::{
    counterexample_json, mc_scenario, McOverrides, RunPlan, RunScales, SweepConfig,
};

fn items(keys: &[&str]) -> Vec<String> {
    keys.iter().map(|s| s.to_string()).collect()
}

#[test]
fn jobs_1_and_jobs_8_are_byte_identical_across_all_artefacts() {
    let mk = || RunPlan::from_items(&items(&["all"]), &RunScales::golden());
    let (serial, stats1) = run_supervised(mk(), &SweepConfig::with_jobs(1));
    let (parallel, stats8) = run_supervised(mk(), &SweepConfig::with_jobs(8));

    assert_eq!(stats1.cells, stats8.cells, "plans enumerated different cell counts");
    assert_eq!(stats8.jobs, 8);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.key, b.key, "artefact order diverged");
        assert_eq!(a.blocks, b.blocks, "{}: rendered text diverged between 1 and 8 workers", a.key);
        match (&a.json, &b.json) {
            (Some((sa, ja)), Some((sb, jb))) => {
                assert_eq!(sa, sb, "{}: JSON stem diverged", a.key);
                assert_eq!(ja, jb, "{}: JSON bytes diverged between 1 and 8 workers", a.key);
            }
            (None, None) => {}
            _ => panic!("{}: JSON presence diverged", a.key),
        }
    }
}

#[test]
fn traced_run_produces_byte_identical_artefacts() {
    // Same golden-scale artefacts, once recording into a ring tracer and
    // once untraced. Fig 7 is chosen because its ping-pong cells spawn real
    // simmpi engines (fig5/table3 are closed-form models that never reach
    // the DES, so they would leave the ring empty); table3 rides along as a
    // no-JSON artefact. The traced run goes first: the process-wide timing
    // cache would otherwise satisfy its cells without spawning a single
    // engine. The recorder observes every engine the process spawns while
    // installed (other tests running in parallel may add noise records —
    // harmless, the assertion is on artefact bytes, not on the trace).
    let mk = || RunPlan::from_items(&items(&["fig7", "table3"]), &RunScales::golden());
    let rec = Arc::new(RingRecorder::with_capacity(1 << 20));
    simmpi::set_default_tracer(Some(rec.clone()));
    let (traced, _) = run_supervised(mk(), &SweepConfig::serial());
    simmpi::set_default_tracer(None);

    let (untraced, _) = run_supervised(mk(), &SweepConfig::serial());

    assert!(!rec.is_empty(), "the traced run must actually have recorded events");
    assert_eq!(untraced.len(), traced.len());
    for (a, b) in untraced.iter().zip(&traced) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.blocks, b.blocks, "{}: rendered text changed under tracing", a.key);
        assert_eq!(
            a.json.as_ref().map(|(_, j)| j),
            b.json.as_ref().map(|(_, j)| j),
            "{}: JSON bytes changed under tracing",
            a.key
        );
    }
}

#[test]
fn mc_counterexample_replays_are_byte_identical() {
    // The model checker's counterexamples must be deterministic artefacts:
    // two independent bounded searches over the broken-retry fixture find
    // the same minimal decision prefix (byte-identical JSON), and replaying
    // that prefix twice produces byte-identical trace lines. Each replay
    // records through its own ctl-carried RingRecorder — NOT the process
    // global tracer, which other tests running in parallel would pollute.
    let sc = mc_scenario("retry-lossy-broken").expect("fixture scenario registered");
    let cfg = sc.config(&McOverrides::default());

    let mut jsons = Vec::new();
    for _ in 0..2 {
        let report = sc.explore(&cfg);
        let ce = report.violation.expect("broken fixture must yield a counterexample");
        jsons.push(counterexample_json(sc.name, &cfg, &ce));
    }
    assert_eq!(jsons[0], jsons[1], "counterexample JSON diverged between searches");

    let report = sc.explore(&cfg);
    let ce = report.violation.expect("broken fixture must yield a counterexample");
    let mut traces = Vec::new();
    for _ in 0..2 {
        let rec = Arc::new(RingRecorder::with_capacity(1 << 20));
        let rep = sc.replay(&cfg, ce.decisions.clone(), Some(rec.clone()));
        assert!(rep.divergence.is_none(), "replay diverged: {:?}", rep.divergence);
        match &rep.outcome {
            RunOutcome::Violation { property, .. } => {
                assert_eq!(property, &ce.property, "replay violated a different property")
            }
            other => panic!("replay must reproduce the violation, got {other:?}"),
        }
        assert_eq!(rec.dropped(), 0, "replay trace must fit the ring");
        let lines: Vec<String> = rec.drain().iter().map(record_line).collect();
        assert!(!lines.is_empty(), "replay must record trace events");
        traces.push(lines.join("\n"));
    }
    assert_eq!(traces[0], traces[1], "replayed counterexample traces diverged byte-for-byte");
}

#[test]
fn two_figure_run_reuses_timing_cache() {
    // Fig 3 and Fig 4 sweep the same platforms over the same DVFS points and
    // kernels (threads differ, but the shared Tegra2@1GHz baseline and the
    // serial Tegra2 series coincide), so the second figure must score hits.
    let plan = RunPlan::from_items(&items(&["fig3", "fig4"]), &RunScales::golden());
    let (_, stats) = run_supervised(plan, &SweepConfig::with_jobs(2));
    assert!(
        stats.timing_cache.hits > 0,
        "expected timing-cache hits on a fig3+fig4 run, got {:?}",
        stats.timing_cache
    );
    assert!(stats.timing_cache.hit_rate() > 0.0);
}

#[test]
fn flow_model_ablation_is_byte_identical_across_schedules() {
    // The flow-level network model must be as deterministic as the event
    // model it replaces: the model-equivalence ablation (every golden
    // figure executed under BOTH network models) rendered on 1 worker and
    // on 8 workers is byte-identical, text and JSON. This exercises the
    // flow model's point-to-point paths — eager flows, rendezvous bulk
    // flows, and max-min re-shares — under a parallel sweep schedule. No
    // ablated figure calls `alltoall`, so the batched alltoall path is
    // covered by `simmpi`'s tests instead (`traced_alltoall.rs` and the
    // collectives unit tests).
    let mk = || RunPlan::from_items(&items(&["ablate-net"]), &RunScales::golden());
    let (serial, _) = run_supervised(mk(), &SweepConfig::with_jobs(1));
    let (parallel, stats8) = run_supervised(mk(), &SweepConfig::with_jobs(8));

    assert_eq!(stats8.jobs, 8);
    assert_eq!(serial.len(), parallel.len());
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(a.key, b.key, "artefact order diverged");
        assert_eq!(a.blocks, b.blocks, "{}: ablation text diverged across schedules", a.key);
        assert_eq!(
            a.json.as_ref().map(|(_, j)| j),
            b.json.as_ref().map(|(_, j)| j),
            "{}: ablation JSON diverged across schedules",
            a.key
        );
    }
}
