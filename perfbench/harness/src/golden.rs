//! `golden-sharded`: every artefact of `repro --golden --serial --shards 2
//! --json DIR`, run through `bench::run_plan_supervised` exactly as `repro`
//! runs it — each settled artefact is written with the atomic, fsync'd
//! `bench::write_json_atomic` and recorded in the fsync'd `bench::Journal` —
//! and checked byte for byte against `tests/goldens/`. The same code with
//! one engine (`golden-serial`) is the baseline of `shard.speedup`.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use bench::{
    run_plan_supervised, write_json_atomic, ArtefactOutcome, CellOutcome, Journal, RunPlan,
    RunScales, SupervisorConfig, SweepConfig,
};

use crate::check::{artefact_cells, Tally};
use crate::workload::{cache_layers, repeat_setup, CellObs, Ctx, Outcome};

/// `stem → bytes` for every committed golden artefact.
fn read_goldens(root: &Path) -> Result<BTreeMap<String, Vec<u8>>, String> {
    let dir = root.join("tests/goldens");
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = BTreeMap::new();
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if let Some(stem) = path.file_name().and_then(|n| n.to_str()?.strip_suffix(".json")) {
            let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            out.insert(stem.to_string(), bytes);
        }
    }
    Ok(out)
}

/// Run every golden-scale artefact and check it against `tests/goldens/`.
pub fn run(ctx: &Ctx) -> Outcome {
    let scales = RunScales::golden();
    let items = vec!["all".to_string()];
    let (plan, setup_s) = repeat_setup(|| RunPlan::from_items(&items, &scales));
    let goldens = match read_goldens(&ctx.root) {
        Ok(g) => g,
        Err(e) => return Outcome::not_started(setup_s, "tests/goldens", e),
    };
    let mut tally = Tally::default();
    let dir = ctx.out.join("json");
    let spans = &ctx.spans;
    let mut io = BenchIo::default();
    let mut produced = Vec::new();

    let t0 = Instant::now();
    let (journal, s) =
        spans.time("bench::Journal::create", None, || Journal::create(&dir, &items, "golden"));
    io.journal_s += s;
    let mut journal = match journal {
        Ok(j) => Some(j),
        Err(e) => {
            tally.check("journal", Err(e.to_string()));
            None
        }
    };
    let run_span = spans.begin("bench::run_plan_supervised[golden]", None);
    let parent = run_span.id();
    let sup = SupervisorConfig { max_attempts: 2, wall_limit: None, verify_recovered: true };
    let (_, stats) = run_plan_supervised(plan, &SweepConfig::serial(), &sup, &|_| false, |art| {
        let mut journal_step = |name: &str, f: &mut dyn FnMut(&mut Journal) -> Result<(), _>| {
            if let Some(j) = journal.as_mut() {
                let (r, s) = spans.time(name, parent, || f(j));
                io.journal_s += s;
                if let Err(e) = r {
                    tally.check("journal", Err(format!("{e}")));
                }
            }
        };
        for r in &art.cells {
            let status = match r.outcome {
                CellOutcome::Completed => "ok",
                CellOutcome::Recovered => "recovered",
                CellOutcome::Quarantined { .. } => "quarantined",
            };
            journal_step("bench::Journal::cell", &mut |j| {
                j.cell(art.key, &r.label, status, r.attempts, r.wall_ms, None)
            });
        }
        let labels: Vec<(String, bool)> =
            art.cells.iter().map(|r| (r.label.clone(), r.succeeded())).collect();
        match &art.outcome {
            ArtefactOutcome::Completed(out) => match &out.json {
                Some((stem, content)) => {
                    let (w, s) = spans.time("bench::write_json_atomic", parent, || {
                        write_json_atomic(&dir, stem, content)
                    });
                    io.json_write_s += s;
                    io.json_bytes += content.len() as u64;
                    match w {
                        Ok((_, checksum)) => {
                            journal_step("bench::Journal::artifact_json", &mut |j| {
                                j.artifact_json(
                                    art.key,
                                    stem,
                                    content.len() as u64,
                                    &checksum,
                                    false,
                                )
                            })
                        }
                        Err(e) => tally.check(art.key, Err(e.to_string())),
                    }
                    produced.push(stem.to_string());
                    match goldens.get(*stem) {
                        Some(want) => {
                            artefact_cells(&mut tally, &labels, Some(content), Some(want))
                        }
                        None => {
                            artefact_cells(&mut tally, &labels, Some(content), None);
                            tally.check(art.key, Err(format!("no golden for {stem}.json")));
                        }
                    }
                }
                None => {
                    journal_step("bench::Journal::artifact_text", &mut |j| {
                        j.artifact_text(art.key)
                    });
                    artefact_cells(&mut tally, &labels, Some(""), None);
                }
            },
            ArtefactOutcome::Failed | ArtefactOutcome::Skipped => {
                journal_step("bench::Journal::artifact_failed", &mut |j| {
                    j.artifact_failed(art.key)
                });
                artefact_cells(&mut tally, &labels, None, None);
            }
        }
    });
    spans.end(run_span);
    // `repro` closes a `--json` run with the sweep stats and the journal's
    // last record.
    let stats_json = serde_json::to_string_pretty(&stats).expect("stats serialise");
    let (w, s) = spans.time("bench::write_json_atomic", None, || {
        write_json_atomic(&dir, "_sweep_stats", &stats_json)
    });
    io.json_write_s += s;
    io.json_bytes += stats_json.len() as u64;
    tally.check("_sweep_stats", w.map(|_| ()).map_err(|e| e.to_string()));
    if let Some(j) = journal.as_mut() {
        let (r, s) = spans.time("bench::Journal::run_end", None, || j.run_end(true));
        io.journal_s += s;
        tally.check("journal", r.map_err(|e| e.to_string()));
    }
    for stem in goldens.keys().filter(|g| !produced.contains(g)) {
        tally.check(stem, Err("golden artefact not generated".to_string()));
    }
    let wall_s = t0.elapsed().as_secs_f64();

    let cells: Vec<CellObs> = stats
        .cell_timings
        .iter()
        .map(|c| CellObs { label: c.label.clone(), wall_s: c.wall_ms / 1e3, counts: None })
        .collect();
    let cell_sum: f64 = cells.iter().map(|c| c.wall_s).sum();
    let ck = &stats.ckpt;
    let mut layers = cache_layers(&stats.timing_cache);
    layers.extend([
        ("shard.windows_recorded".to_string(), ck.windows_recorded as f64),
        ("shard.windows_verified".to_string(), ck.windows_verified as f64),
        ("shard.condemned_runs".to_string(), ck.condemned_runs as f64),
        ("shard.condemned_wall_s".to_string(), ck.condemned_wall_s),
        ("shard.recovery_wall_s".to_string(), ck.recovery_wall_s),
        ("bench.json_write_s".to_string(), io.json_write_s),
        ("bench.json_bytes".to_string(), io.json_bytes as f64),
        ("bench.journal_append_s".to_string(), io.journal_s),
        ("bench.sweep_overhead_s".to_string(), stats.wall_s - cell_sum),
        ("bench.quarantined".to_string(), stats.supervisor.quarantined as f64),
        ("bench.retried".to_string(), stats.supervisor.retried as f64),
    ]);
    Outcome { setup_s, wall_s, cells, tally, layers }
}

/// Host time and bytes of the `bench` layer's persistence calls.
#[derive(Default)]
struct BenchIo {
    json_write_s: f64,
    json_bytes: u64,
    journal_s: f64,
}
