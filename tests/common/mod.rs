//! Helpers shared by the integration-test binaries.

use socready::harness::{
    run_plan_supervised, ArtefactOut, ArtefactOutcome, RunPlan, SupervisorConfig, SweepConfig,
    SweepStats,
};

/// Run `plan` on the supervised executor `repro` ships, under its default
/// policy, and return every artefact in canonical order. Fails loudly, with
/// each quarantined cell's label and failure brief, if any artefact did not
/// complete.
pub fn run_supervised(plan: RunPlan, cfg: &SweepConfig) -> (Vec<ArtefactOut>, SweepStats) {
    let (arts, stats) =
        run_plan_supervised(plan, cfg, &SupervisorConfig::default(), &|_| false, |_| {});
    let arts = arts
        .into_iter()
        .map(|a| match a.outcome {
            ArtefactOutcome::Completed(out) => out,
            _ => panic!("artefact {} did not complete; quarantined: {:?}", a.key, a.quarantined()),
        })
        .collect();
    (arts, stats)
}
