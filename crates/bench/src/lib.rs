//! # bench — the reproduction harness
//!
//! One generator per paper artefact (every table and figure), each returning
//! serialisable data plus a text rendering. The `repro` binary drives them;
//! the criterion benches under `benches/` measure the underlying kernels and
//! simulations.
//!
//! | artefact | function |
//! |---|---|
//! | Fig 1 | [`fig1`] |
//! | Fig 2(a)/(b) | [`fig2a`] / [`fig2b`] |
//! | Table 1 / 2 | [`table1_render`] / [`table2_render`] |
//! | Fig 3 / 4 | [`fig3`] / [`fig4`] |
//! | Fig 5 | [`fig5`] |
//! | Fig 6 | [`fig6`] |
//! | Fig 7 | [`fig7`] |
//! | Table 3 / 4 | [`table3_render`] / [`table4_render`] |
//! | §4 HPL headline | [`hpl_headline`] |
//! | §4.1 latency penalty | [`latency_penalty_render`] |
//! | §6.3 resilience | [`resilience_study`] |
//! | network-model ablation | [`ablate_merge`] (`repro --ablate-net`) |
//! | datacenter replay | [`datacenter_cell`] (`repro --headline datacenter`) |

#![warn(missing_docs)]

//!
//! The [`plan`]/[`sweep`] pair is the parallel deterministic sweep executor:
//! [`RunPlan::from_items`] decomposes a run into independent scenario cells,
//! [`run_plan_supervised`] fans them out over a rayon pool and merges in
//! canonical order, so `repro --jobs N` output is byte-identical to
//! `--serial`.
//!
//! The [`supervisor`]/[`journal`]/[`artifact`] trio hardens that executor:
//! [`run_plan_supervised`] quarantines panicking cells (capturing payload and
//! backtrace), bounds each cell with a wall-clock watchdog plus the DES event
//! budget, retries failures with a bit-identity determinism check, journals
//! every settled artefact to an fsync'd `_journal.jsonl`, and persists JSON
//! through the atomic, checksummed [`artifact::write_json_atomic`] writer —
//! the machinery behind `repro --resume` and `repro --fsck`.
//!
//! The [`mc`] module is the bounded model checker behind `repro --mc`: each
//! scenario closes a resilience protocol over a small world and exhaustively
//! explores its delivery orderings, adversarial message drops and crash
//! timings within budgets, emitting replayable counterexamples on violation.

pub mod ablate;
pub mod artifact;
pub mod datacenter;
mod extensions;
mod fig12;
mod fig345;
mod fig67;
pub mod journal;
pub mod mc;
pub mod plan;
mod resilience;
pub mod supervisor;
pub mod sweep;
pub mod table;
pub mod trace;

pub use ablate::{ablate_merge, ablate_side, AblateFigure, AblateNet, AblateRow, AblateSide};
pub use artifact::{write_json_atomic, ArtifactIoError, WriteOutcome};
pub use datacenter::{
    datacenter_cell, datacenter_study_from, datacenter_validation, DcCase, DcStudy, DcValidation,
    DATACENTER_CASES,
};
pub use extensions::{ecc_risk_render, eee_render, imb_render, roofline_render};
pub use fig12::{fig1, fig2a, fig2b, Fig1, Fig2};
pub use fig345::{
    fig3, fig4, fig5, fig5_efficiency_summary, socs, table1_render, table2_render, Fig34, Fig5,
    SweepPoint, SweepSeries,
};
pub use fig67::{
    fig6, fig7, hpl_headline, latency_penalty, latency_penalty_render, table3_render,
    table4_render, try_hpl_headline, try_hpl_headline_on, Fig6, Fig7, Fig7Panel, HplHeadline,
};
pub use journal::{read_journal, run_fingerprint, Journal, JsonlWriter, ResumeState};
pub use mc::{
    counterexample_json, mc_scenario, mc_scenarios, parse_counterexample, McOverrides, McScenario,
    ParsedCounterexample,
};
pub use plan::{
    run_plan_supervised, ArtefactOut, ArtefactOutcome, RunPlan, RunScales, SupervisedArtefact,
};
pub use resilience::{
    resilience_cell, resilience_contrast, resilience_grid, resilience_study, resilience_study_from,
    ResilienceCell, ResilienceContrast, ResilienceStudy, INCIDENCE_GRID,
};
pub use supervisor::{
    CellFailure, CellOutcome, CellReport, SupervisorConfig, SupervisorStats, WatchdogMargin,
};
pub use sweep::{Cell, CellTiming, CkptStats, SweepConfig, SweepStats};
pub use trace::{
    fold_spans, parse_trace, read_trace, render_rank_table, write_trace, FoldedSpans, ParsedTrace,
    SpanEdge,
};
