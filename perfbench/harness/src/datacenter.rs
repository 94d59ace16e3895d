//! `datacenter`: the cells of `repro --headline datacenter --quick
//! --serial` — four `sched::DcSim` replays of a 10⁵-job stream with faults
//! active, plus the model-validation cell. `bench::datacenter_cell` does its
//! set-up inside the cell; the benchmark makes the same calls in the same
//! order but lifts the set-up (machine, runtime model, stream and fault
//! plan) out, so that `setup_s` and `wall_s` separate them.

use std::sync::Arc;
use std::time::Instant;

use bench::datacenter::{FAULT_SEED, OFFERED_LOAD, STREAM_SEED, TARGET_CRASHES};
use bench::supervisor::run_cells_supervised;
use bench::{
    datacenter_study_from, datacenter_validation, Cell, DcValidation, RunScales, SupervisorConfig,
    SweepConfig, DATACENTER_CASES,
};
use cluster::Machine;
use des::{FaultPlan, FaultRates, SimTime};
use sched::{
    DcConfig, DcReport, DcSim, EasyBackfill, FairShare, Fcfs, Job, Policy, RuntimeModel,
    SyntheticSpec, Tenant,
};
use serde::Serialize;

use crate::check::{same_bytes, same_json, Step, Tally};
use crate::counters::Counts;
use crate::workload::{
    cache_layers, count_layers, metric_key, repeat_setup, supervisor_layers, CellObs, Ctx, Outcome,
};

/// The seeds of one campaign. `STREAM_SEED`/`FAULT_SEED` (2013, 13) are the
/// ones `repro` uses; only they have a stored reference.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    /// Seed of the synthetic job stream.
    pub stream: u64,
    /// Seed of the fault plan.
    pub fault: u64,
}

impl Seeds {
    /// The seeds `bench::datacenter` uses.
    pub const REPRO: Seeds = Seeds { stream: STREAM_SEED, fault: FAULT_SEED };

    fn is_repro(&self) -> bool {
        self.stream == STREAM_SEED && self.fault == FAULT_SEED
    }
}

/// The set-up products of one replay case.
struct CaseInputs {
    machine: Machine,
    model: RuntimeModel,
    tenants: Vec<Tenant>,
    stream: Vec<Job>,
    faults: FaultPlan,
}

fn policy_for(key: &str) -> Box<dyn Policy> {
    match key {
        "fcfs" => Box::new(Fcfs),
        "easy" => Box::new(EasyBackfill),
        "fair" => Box::new(FairShare::preempting()),
        other => unreachable!("unknown datacenter policy key {other}"),
    }
}

/// The set-up half of `bench::datacenter_cell`, with the seeds as inputs.
/// Returns the inputs and the host seconds spent in `SyntheticSpec::generate`.
fn case_inputs(scaled_nodes: Option<u32>, jobs: u64, seeds: Seeds) -> (CaseInputs, f64) {
    let machine = match scaled_nodes {
        Some(n) => Machine::tibidabo_scaled(n),
        None => Machine::tibidabo(),
    };
    let model = RuntimeModel::for_machine(&machine);
    let mut spec = SyntheticSpec::standard_mix(jobs, seeds.stream, 1.0, 64);
    spec.arrival_rate_hz = spec.rate_for_load(&model, machine.nodes(), OFFERED_LOAD);
    let tenants =
        spec.tenants.iter().map(|t| Tenant { name: t.name.to_string(), share: t.share }).collect();
    let horizon_s = 1.2 * jobs as f64 / spec.arrival_rate_hz;
    let rates = FaultRates {
        crash_per_node_sec: TARGET_CRASHES / (machine.nodes() as f64 * horizon_s),
        ..FaultRates::none()
    };
    let faults = FaultPlan::generate(
        seeds.fault,
        machine.nodes(),
        SimTime::from_secs_f64(horizon_s),
        &rates,
    );
    let t0 = Instant::now();
    let stream = spec.generate();
    let generate_s = t0.elapsed().as_secs_f64();
    (CaseInputs { machine, model, tenants, stream, faults }, generate_s)
}

fn replay(inputs: &CaseInputs, policy: &str, cfg: DcConfig) -> sched::DcOutcome {
    DcSim::new(
        inputs.machine.clone(),
        inputs.model.clone(),
        policy_for(policy),
        inputs.tenants.clone(),
        cfg,
    )
    .run(&inputs.stream, &inputs.faults)
}

enum Output {
    Replay(Box<DcReport>),
    Validation(Result<DcValidation, String>),
}

/// What one cell hands back to the supervisor.
struct CellOut {
    output: Output,
    wall_s: f64,
    counts: Option<Counts>,
}

fn classify(o: &CellOut) -> Option<String> {
    match &o.output {
        Output::Validation(Err(e)) => Some(e.clone()),
        _ => None,
    }
}

fn digest(o: &CellOut) -> u64 {
    let text = match &o.output {
        Output::Replay(r) => serde_json::to_string(r.as_ref()),
        Output::Validation(Ok(v)) => serde_json::to_string(v),
        Output::Validation(Err(e)) => serde_json::to_string(e),
    };
    bench::artifact::fnv1a64(text.expect("cell output serialises").as_bytes())
}

/// Run the quick datacenter cells at `seeds`; with `audit`, also replay
/// every case with the scheduler's invariant audit on.
pub fn run(ctx: &Ctx, seeds: Seeds, audit: bool) -> Outcome {
    let scales = RunScales::quick();
    let jobs = scales.datacenter_jobs;
    let ((inputs, generate_s), setup_s) = repeat_setup(|| {
        let mut generate_s = 0.0;
        let inputs: Vec<Arc<CaseInputs>> = DATACENTER_CASES
            .iter()
            .map(|case| {
                let (inputs, g) = case_inputs(case.scaled_nodes, jobs, seeds);
                generate_s += g;
                Arc::new(inputs)
            })
            .collect();
        (inputs, generate_s)
    });
    // The reference holds every cell at the repro seeds; the validation cell
    // does not depend on the seeds, so it is checked at any seeds.
    let (want_bytes, want) = match ctx.reference_json("datacenter_quick.json") {
        Ok(r) => r,
        Err(e) => return Outcome::not_started(setup_s, "reference", e),
    };
    let at_repro_seeds = seeds.is_repro();

    let cache_before = soc_arch::cache_counters();
    let t0 = Instant::now();
    let run_span = ctx.spans.begin("bench::run_cells_supervised[datacenter]", None);
    let parent = run_span.id();
    let mut cells: Vec<Cell<CellOut>> = Vec::new();
    for (case, inputs) in DATACENTER_CASES.iter().zip(&inputs) {
        let (inputs, spans, policy) = (inputs.clone(), ctx.spans.clone(), case.policy);
        let label = format!("datacenter/{}", case.label);
        let span_name = format!("sched::DcSim::run[{label}]");
        cells.push(Cell::new(label, move || {
            let (out, wall_s) =
                spans.time(&span_name, parent, || replay(&inputs, policy, DcConfig::default()));
            CellOut { output: Output::Replay(Box::new(out.report)), wall_s, counts: None }
        }));
    }
    let validation_nodes = scales.datacenter_validation_nodes;
    let label = format!("datacenter/validation/n={validation_nodes}");
    let (spans, span_name) = (ctx.spans.clone(), format!("bench::datacenter_validation[{label}]"));
    let counting = ctx.counting.clone();
    cells.push(Cell::new(label, move || {
        let before = counting.as_ref().map(|c| c.snapshot());
        let (v, wall_s) =
            spans.time(&span_name, parent, || datacenter_validation(validation_nodes));
        let counts = counting.as_ref().zip(before).map(|(c, b)| c.snapshot().since(&b));
        CellOut { output: Output::Validation(v.map_err(|e| e.to_string())), wall_s, counts }
    }));
    let sup = SupervisorConfig { max_attempts: 2, wall_limit: None, verify_recovered: true };
    let (outs, reports) =
        run_cells_supervised(cells, &SweepConfig::serial(), &sup, classify, digest);
    let run_s = ctx.spans.end(run_span);

    let check_span = ctx.spans.begin("check[datacenter]", None);
    let mut tally = Tally::default();
    let mut obs = Vec::new();
    // One slot per case, in case order; `None` for a quarantined replay.
    let mut replays: Vec<Option<DcReport>> = Vec::new();
    let mut validation = None;
    for (i, (out, rep)) in outs.iter().zip(&reports).enumerate() {
        let verdict = match out.as_ref().map(|o| &o.output) {
            None => Err("quarantined".to_string()),
            Some(Output::Replay(r)) => conservation(r).and_then(|()| {
                if at_repro_seeds {
                    same_json(&r.to_value(), &want, &[Step::Key("cells"), Step::Index(i)])
                } else {
                    Ok(())
                }
            }),
            Some(Output::Validation(Ok(v))) => {
                validation = Some(v.clone());
                same_json(&v.to_value(), &want, &[Step::Key("validation")])
            }
            Some(Output::Validation(Err(e))) => Err(e.clone()),
        };
        if i < DATACENTER_CASES.len() {
            replays.push(match out.as_ref().map(|o| &o.output) {
                Some(Output::Replay(r)) => Some(r.as_ref().clone()),
                _ => None,
            });
        }
        obs.push(CellObs {
            label: rep.label.clone(),
            wall_s: out.as_ref().map_or(0.0, |o| o.wall_s),
            counts: out.as_ref().and_then(|o| o.counts),
        });
        tally.cell(&rep.label, verdict);
    }
    let complete: Option<Vec<DcReport>> = replays.iter().cloned().collect();
    if let (true, Some(v), Some(reports)) = (at_repro_seeds, &validation, complete) {
        let study = datacenter_study_from(jobs, reports, v.clone());
        let json = serde_json::to_string_pretty(&study).expect("study serialises");
        tally.check("datacenter artefact", same_bytes(json.as_bytes(), &want_bytes));
    }
    ctx.spans.end(check_span);
    let wall_s = t0.elapsed().as_secs_f64();

    // The audited replays: a second replay of every case with the invariant
    // audit on, outside `wall_s` (the audit costs extra work per pass and is
    // not what `repro` runs). The report must not change and no invariant
    // may be violated.
    let audit_span = ctx.spans.begin("sched::DcSim::run[audit]", None);
    let mut violations = 0u64;
    let audited = if audit { DATACENTER_CASES.len() } else { 0 };
    let cases = DATACENTER_CASES.iter().zip(&inputs).zip(&replays).take(audited);
    for ((case, inputs), report) in cases.filter_map(|(ci, r)| Some((ci, r.as_ref()?))) {
        let cfg = DcConfig { audit: true, ..DcConfig::default() };
        let (out, _) = ctx.spans.time(
            &format!("sched::DcSim::run[audit/{}]", case.label),
            audit_span.id(),
            || replay(inputs, case.policy, cfg),
        );
        let v = audit_violations(&out.audit, inputs.machine.nodes());
        violations += v;
        let what = format!("datacenter/{} audit", case.label);
        tally
            .check(&what, if v == 0 { Ok(()) } else { Err(format!("{v} invariant violation(s)")) });
        if &out.report != report {
            tally.check(&what, Err("audited replay changed the report".to_string()));
        }
    }
    ctx.spans.end(audit_span);

    let mut layers = cache_layers(&cache_before.delta_to(&soc_arch::cache_counters()));
    layers.extend(supervisor_layers(&reports));
    layers
        .push(("bench.sweep_overhead_s".into(), run_s - obs.iter().map(|c| c.wall_s).sum::<f64>()));
    layers.extend(count_layers(&obs));
    layers.push(("sched.generate_s".into(), generate_s));
    let mut replay_s = 0.0;
    let replayed = DATACENTER_CASES.iter().zip(&obs).zip(&replays);
    for ((case, c), r) in replayed.filter_map(|(cc, r)| Some((cc, r.as_ref()?))) {
        let key = metric_key(case.label).replace('.', "-");
        layers.push((format!("sched.replay_s.{key}"), c.wall_s));
        layers.push((format!("sched.jobs_per_s.{key}"), r.jobs as f64 / c.wall_s));
        replay_s += c.wall_s;
    }
    let replays: Vec<DcReport> = replays.into_iter().flatten().collect();
    let jobs_total: u64 = replays.iter().map(|r| r.jobs).sum();
    layers.push(("sched.replay_jobs_per_s".into(), jobs_total as f64 / replay_s));
    layers.push((
        "sched.preemptions".into(),
        replays.iter().map(|r| r.preemptions).sum::<u64>() as f64,
    ));
    layers
        .push(("sched.resubmits".into(), replays.iter().map(|r| r.resubmits).sum::<u64>() as f64));
    if audit {
        layers.push(("sched.audit_violations".into(), violations as f64));
    }
    if let Some(v) = &validation {
        layers.push(("sched.validation_rel_err_pct".into(), v.rel_err_pct));
    }
    Outcome { setup_s, wall_s, cells: obs, tally, layers }
}

/// Every job leaves the campaign exactly once.
fn conservation(r: &DcReport) -> Result<(), String> {
    let out = r.completed + r.wall_killed + r.fault_failed + r.unplaceable;
    if out == r.jobs {
        Ok(())
    } else {
        Err(format!("{out} departures for {} jobs", r.jobs))
    }
}

/// Capacity invariants of an audited replay: no more nodes busy than the
/// machine has, machine-wide or for any one tenant. The audit's head-bound
/// count is not one: with faults active a crash can shrink the pool after
/// a blocked head's shadow time was recorded, and fair-share does not
/// promise that bound at all.
fn audit_violations(audit: &sched::DcAudit, nodes: u32) -> u64 {
    let over = |n: u32| u64::from(n > nodes);
    over(audit.max_busy_nodes) + audit.max_tenant_nodes.iter().map(|&n| over(n)).sum::<u64>()
}
