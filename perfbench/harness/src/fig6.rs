//! `fig6-event` and `fig6-flow`: the cells of `repro --figure 6 --quick
//! --serial` (with `--net-model flow` for the second), each one a call to
//! `hpc_apps::try_measure_scaling_cell` on the Tibidabo machine.

use std::sync::Arc;
use std::time::Instant;

use bench::supervisor::run_cells_supervised;
use bench::{Cell, Fig6, RunPlan, RunScales, SupervisorConfig, SweepConfig};
use hpc_apps::{AppId, ScalingMeasurement};
use serde::{Serialize, Value};

use crate::check::{same_bytes, same_json, Step, Tally};
use crate::counters::Counts;
use crate::workload::{
    cache_layers, count_layers, metric_key, repeat_setup, supervisor_layers, CellObs, Ctx, Outcome,
};

/// What one cell hands back to the supervisor.
struct CellOut {
    result: Result<ScalingMeasurement, String>,
    wall_s: f64,
    counts: Option<Counts>,
}

fn classify(o: &CellOut) -> Option<String> {
    o.result.as_ref().err().cloned()
}

fn digest(o: &CellOut) -> u64 {
    match &o.result {
        Ok(m) => m.seconds.to_bits() ^ m.hpl_efficiency.to_bits().rotate_left(17),
        Err(_) => 0,
    }
}

/// `(application, runnable node counts)` in Table 3 order: the cell grid of
/// the quick Fig 6, as `bench::RunPlan` enumerates it.
fn grid(nodes: &[u32]) -> Vec<(AppId, Vec<u32>)> {
    hpc_apps::table3().iter().map(|a| (a.id, hpc_apps::runnable_nodes(a.id, nodes))).collect()
}

/// Run the quick Fig 6 cells under the process's current network model and
/// check them against `reference` (a `repro --figure 6 --quick --json`
/// artefact captured under the same model).
pub fn run(ctx: &Ctx, reference: &str) -> Outcome {
    let scales = RunScales::quick();
    let items = vec!["fig6".to_string()];
    // Set-up: the machine, the plan `repro` builds for this invocation, and
    // the cell grid.
    let ((machine, grid), setup_s) = repeat_setup(|| {
        std::hint::black_box(RunPlan::from_items(&items, &scales));
        (cluster::Machine::tibidabo(), grid(&scales.fig6_nodes))
    });
    let machine = Arc::new(machine);
    let want = match ctx.reference_json(reference) {
        Ok(w) => w,
        Err(e) => return Outcome::not_started(setup_s, "reference", e),
    };

    let cache_before = soc_arch::cache_counters();
    let t0 = Instant::now();
    let run_span = ctx.spans.begin("bench::run_cells_supervised[fig6]", None);
    let parent = run_span.id();
    let mut cells = Vec::new();
    for (app, counts) in &grid {
        for &n in counts {
            let (app, machine, spans) = (*app, machine.clone(), ctx.spans.clone());
            let counting = ctx.counting.clone();
            let label = format!("fig6/{app:?}/n={n}");
            let span_name = format!("hpc_apps::try_measure_scaling_cell[{label}]");
            cells.push(Cell::new(label, move || {
                let before = counting.as_ref().map(|c| c.snapshot());
                let (result, wall_s) = spans.time(&span_name, parent, || {
                    hpc_apps::try_measure_scaling_cell(&machine, app, n)
                });
                let counts = counting.as_ref().zip(before).map(|(c, b)| c.snapshot().since(&b));
                CellOut { result: result.map_err(|e| e.to_string()), wall_s, counts }
            }));
        }
    }
    let sup = SupervisorConfig { max_attempts: 2, wall_limit: None, verify_recovered: true };
    let (outs, reports) =
        run_cells_supervised(cells, &SweepConfig::serial(), &sup, classify, digest);
    let run_s = ctx.spans.end(run_span);

    let (tally, obs) = ctx.spans.time("check[fig6]", None, || check(&grid, &outs, &want)).0;
    let wall_s = t0.elapsed().as_secs_f64();

    let mut layers = cache_layers(&cache_before.delta_to(&soc_arch::cache_counters()));
    layers.extend(supervisor_layers(&reports));
    layers
        .push(("bench.sweep_overhead_s".into(), run_s - obs.iter().map(|c| c.wall_s).sum::<f64>()));
    layers.extend(count_layers(&obs));
    for (c, out) in obs.iter().zip(&outs) {
        let key = metric_key(c.label.trim_start_matches("fig6/"));
        layers.push((format!("hpc_apps.cell_s.{key}"), c.wall_s));
        if let Some(Ok(m)) = out.as_ref().map(|o| &o.result) {
            layers.push((format!("hpc_apps.sim_s_per_host_s.{key}"), m.seconds / c.wall_s));
        }
    }
    Outcome { setup_s, wall_s, cells: obs, tally, layers }
}

/// Charge each cell against its point of the reference artefact, then the
/// assembled artefact against the reference bytes.
fn check(
    grid: &[(AppId, Vec<u32>)],
    outs: &[Option<CellOut>],
    (want_bytes, want): &(Vec<u8>, Value),
) -> (Tally, Vec<CellObs>) {
    let mut tally = Tally::default();
    let mut obs = Vec::new();
    let mut series = Vec::new();
    let mut it = outs.iter();
    for (a, (app, counts)) in grid.iter().enumerate() {
        let mut ms = Vec::new();
        for (j, &n) in counts.iter().enumerate() {
            let label = format!("fig6/{app:?}/n={n}");
            let out = it.next().expect("one output per cell");
            let verdict = match out {
                None => Err("quarantined".to_string()),
                Some(CellOut { result: Ok(m), .. }) => {
                    ms.push(*m);
                    Ok(())
                }
                Some(CellOut { result: Err(e), .. }) => Err(e.clone()),
            };
            obs.push(CellObs {
                label: label.clone(),
                wall_s: out.as_ref().map_or(0.0, |o| o.wall_s),
                counts: out.as_ref().and_then(|o| o.counts),
            });
            // The cell's own output is its simulated seconds; the speed-up
            // of a strong-scaling point depends on its series' anchor, so
            // the assembled-artefact check below covers it.
            let verdict = verdict.and_then(|()| {
                let seconds = ms.last().expect("pushed above").seconds.to_value();
                let path = [
                    Step::Key("series"),
                    Step::Index(a),
                    Step::Key("points"),
                    Step::Index(j),
                    Step::Key("seconds"),
                ];
                same_json(&seconds, want, &path)
            });
            tally.cell(&label, verdict);
        }
        if ms.len() == counts.len() {
            series.push(hpc_apps::series_from_measurements(*app, &ms));
        }
    }
    let artefact = if series.len() == grid.len() {
        let fg = Fig6 { nodes: RunScales::quick().fig6_nodes, series };
        let json = serde_json::to_string_pretty(&fg).expect("fig6 serialises");
        same_bytes(json.as_bytes(), want_bytes)
    } else {
        Err("not assembled: a cell failed".to_string())
    };
    tally.check("fig6 artefact", artefact);
    (tally, obs)
}
