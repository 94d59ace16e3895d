//! The vocabulary of the parallel deterministic sweep executor.
//!
//! Every paper artefact decomposes into independent *cells* — one DES run,
//! one DVFS series, one ping-pong panel, one fault-injection grid point.
//! [`run_cells_supervised`](crate::supervisor::run_cells_supervised) fans
//! the cells of a whole run out over a rayon thread pool and writes each
//! result into its pre-assigned slot, so downstream merges always see
//! results in specification order no matter which worker finished first.
//! Parallel output is therefore byte-identical to serial output: the only
//! nondeterminism (wall-clock timings, cache hit counters) is kept in
//! [`SweepStats`], which callers must never mix into byte-compared artefacts.

use std::sync::Arc;

use serde::Serialize;
use soc_arch::CacheCounters;

use crate::supervisor::SupervisorStats;

/// How many workers execute the sweep.
#[derive(Clone, Copy, Debug)]
pub struct SweepConfig {
    /// Worker threads. `1` executes cells on the calling thread in
    /// specification order (the reference serial schedule).
    pub jobs: usize,
}

impl SweepConfig {
    /// The reference serial schedule.
    pub fn serial() -> Self {
        SweepConfig { jobs: 1 }
    }

    /// A fixed worker count (`0` is clamped to 1).
    pub fn with_jobs(jobs: usize) -> Self {
        SweepConfig { jobs: jobs.max(1) }
    }

    /// One worker per available core.
    pub fn auto() -> Self {
        let n = std::thread::available_parallelism().map_or(1, |n| n.get());
        SweepConfig { jobs: n }
    }
}

/// One schedulable unit of work: a label for the stats report plus the
/// closure that computes the cell's output.
///
/// The body is a re-runnable `Fn` (shared via `Arc`) rather than a `FnOnce`:
/// the sweep supervisor retries failed cells and re-executes recovered ones
/// to verify determinism, so a cell must produce the same output however
/// many times it runs.
pub struct Cell<O> {
    /// Human-readable cell identity, e.g. `fig6/HPL/n=96`.
    pub label: String,
    /// The cell body. May run more than once (retry, determinism check); it
    /// must be a pure function of its captures.
    pub run: Arc<dyn Fn() -> O + Send + Sync>,
}

impl<O> Cell<O> {
    /// Convenience constructor.
    pub fn new(label: impl Into<String>, run: impl Fn() -> O + Send + Sync + 'static) -> Self {
        Cell { label: label.into(), run: Arc::new(run) }
    }
}

/// Wall-clock timing of one executed cell (reporting only — never part of
/// the deterministic artefact bytes).
#[derive(Clone, Debug, Serialize)]
pub struct CellTiming {
    /// The cell's label.
    pub label: String,
    /// Wall-clock milliseconds the cell body took.
    pub wall_ms: f64,
}

/// No effect; kept only because `perfbench/harness` calls it; the next
/// benchmark PR deletes the call and this item. Every field is always zero.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct CkptStats {
    /// Always zero.
    pub condemned_runs: u64,
    /// Always zero.
    pub condemned_wall_s: f64,
    /// Always zero.
    pub windows_recorded: u64,
    /// Always zero.
    pub windows_verified: u64,
    /// Always zero.
    pub recovery_wall_s: f64,
}

/// Execution report of one sweep: worker count, wall clock, per-cell
/// timings, and the timing-cache counter movement over the run.
#[derive(Clone, Debug, Serialize)]
pub struct SweepStats {
    /// Worker threads used.
    pub jobs: usize,
    /// Number of cells executed.
    pub cells: usize,
    /// Total wall-clock seconds for the whole sweep.
    pub wall_s: f64,
    /// Timing-cache hits/misses incurred by this sweep.
    pub timing_cache: CacheCounters,
    /// Per-cell wall-clock timings, in specification order.
    pub cell_timings: Vec<CellTiming>,
    /// Supervisor outcomes (quarantines, retries, resume skips, watchdog
    /// margins).
    pub supervisor: SupervisorStats,
    /// No effect; kept only because `perfbench/harness` reads it; the next
    /// benchmark PR deletes the read and this item.
    pub ckpt: CkptStats,
}

impl SweepStats {
    /// One-line human summary for stderr.
    pub fn summary(&self) -> String {
        format!(
            "sweep: {} cells on {} worker{} in {:.2}s; timing cache {} hits / {} misses ({:.0}% hit rate)",
            self.cells,
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
            self.wall_s,
            self.timing_cache.hits,
            self.timing_cache.misses,
            100.0 * self.timing_cache.hit_rate(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_jobs_clamps_zero() {
        assert_eq!(SweepConfig::with_jobs(0).jobs, 1);
        assert!(SweepConfig::auto().jobs >= 1);
    }
}
