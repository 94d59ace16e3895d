//! What every workload shares: the run context, the per-cell observation,
//! the outcome record, and the set-up timer.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use bench::{CellOutcome, CellReport};
use serde::Value;

use crate::check::Tally;
use crate::counters::{Counting, Counts};
use crate::spans::SpanLog;

/// Everything a workload run needs from the process.
pub struct Ctx {
    /// Root of the checkout (holds `tests/goldens` and `perfbench/reference`).
    pub root: PathBuf,
    /// Scratch directory for this process's artefacts.
    pub out: PathBuf,
    /// The span log (keeps spans only on traced runs).
    pub spans: Arc<SpanLog>,
    /// The counting tracer, installed on traced runs that allow one.
    pub counting: Option<Arc<Counting>>,
}

impl Ctx {
    /// A reference artefact stored with the benchmark: its bytes and its
    /// parsed tree.
    pub fn reference_json(&self, name: &str) -> Result<(Vec<u8>, Value), String> {
        let path = self.root.join("perfbench/reference").join(name);
        let bytes =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let text = std::str::from_utf8(&bytes).map_err(|e| format!("{name}: {e}"))?;
        let value = serde_json::from_str(text).map_err(|e| format!("{name}: {e}"))?;
        Ok((bytes, value))
    }
}

/// One cell as the benchmark saw it.
pub struct CellObs {
    /// The `repro` cell label (`fig6/Hpl/n=32`).
    pub label: String,
    /// Host seconds of the cell.
    pub wall_s: f64,
    /// Engine and message events of the cell (traced runs only).
    pub counts: Option<Counts>,
}

/// The measurements of one workload run.
pub struct Outcome {
    /// Host seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Host seconds from the first cell call to the last output check.
    pub wall_s: f64,
    /// Every cell, in run order.
    pub cells: Vec<CellObs>,
    /// Output checks.
    pub tally: Tally,
    /// Per-layer metrics measured inside this process.
    pub layers: Vec<(String, f64)>,
}

impl Outcome {
    /// A run that could not start its cells (a reference is missing or
    /// unreadable): nothing attempted, one failure.
    pub fn not_started(setup_s: Vec<f64>, what: &str, why: String) -> Outcome {
        let mut tally = Tally::default();
        tally.check(what, Err(why));
        Outcome { setup_s, wall_s: 0.0, cells: Vec::new(), tally, layers: Vec::new() }
    }
}

/// Run the set-up `f` several times — at least five, and until 0.1 s has
/// been spent or 200 repetitions made — so its median is steady; returns
/// the last result and every repetition's host seconds.
pub fn repeat_setup<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut total = 0.0;
    loop {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        let dt = t0.elapsed().as_secs_f64();
        times.push(dt);
        total += dt;
        if times.len() >= 200 || (times.len() >= 5 && total >= 0.1) {
            return (out, times);
        }
    }
}

/// A metric-name fragment for a cell label: `/` becomes `.`, `=` is
/// dropped, and any other character outside `[A-Za-z0-9_.-]` becomes `_`
/// (`fig6/Hpl/n=32` → `fig6.Hpl.n32`).
pub fn metric_key(label: &str) -> String {
    let mut out = String::new();
    for c in label.chars() {
        match c {
            '/' => out.push('.'),
            '=' => {}
            c if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') => out.push(c),
            _ => {
                if !out.ends_with('_') {
                    out.push('_')
                }
            }
        }
    }
    out.replace("_.", ".").replace("._", ".")
}

/// Supervisor tallies shared by every workload: quarantined and retried
/// cells.
pub fn supervisor_layers(reports: &[CellReport]) -> Vec<(String, f64)> {
    let quarantined =
        reports.iter().filter(|r| matches!(r.outcome, CellOutcome::Quarantined { .. })).count();
    let retried = reports.iter().filter(|r| matches!(r.outcome, CellOutcome::Recovered)).count();
    vec![
        ("bench.quarantined".to_string(), quarantined as f64),
        ("bench.retried".to_string(), retried as f64),
    ]
}

/// `soc-arch` timing-cache metrics from a counter delta.
pub fn cache_layers(delta: &soc_arch::CacheCounters) -> Vec<(String, f64)> {
    vec![
        ("soc_arch.cache_hits".to_string(), delta.hits as f64),
        ("soc_arch.cache_misses".to_string(), delta.misses as f64),
        ("soc_arch.hit_rate".to_string(), delta.hit_rate()),
    ]
}

/// `des`/`simmpi`/`netsim` event counts summed over `cells`.
pub fn count_layers(cells: &[CellObs]) -> Vec<(String, f64)> {
    let mut sum = Counts::default();
    let mut any = false;
    for c in cells.iter().filter_map(|c| c.counts.as_ref()) {
        any = true;
        sum.resumes += c.resumes;
        sum.parks += c.parks;
        sum.msgs += c.msgs;
        sum.msg_bytes += c.msg_bytes;
        sum.drops += c.drops;
        sum.flows += c.flows;
        sum.reshares += c.reshares;
    }
    if !any {
        return Vec::new();
    }
    let per_flow = if sum.flows == 0 { 0.0 } else { sum.reshares as f64 / sum.flows as f64 };
    vec![
        ("des.resumes".to_string(), sum.resumes as f64),
        ("des.parks".to_string(), sum.parks as f64),
        ("simmpi.msgs".to_string(), sum.msgs as f64),
        ("simmpi.msg_bytes".to_string(), sum.msg_bytes as f64),
        ("simmpi.retransmits".to_string(), sum.drops as f64),
        ("netsim.flows".to_string(), sum.flows as f64),
        ("netsim.reshares".to_string(), sum.reshares as f64),
        ("netsim.reshares_per_flow".to_string(), per_flow),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_keys_are_valid_names() {
        assert_eq!(metric_key("fig6/Hpl/n=32"), "fig6.Hpl.n32");
        assert_eq!(metric_key("fig7/Tegra2 TCP/IP @1.0GHz"), "fig7.Tegra2_TCP.IP_1.0GHz");
        assert_eq!(metric_key("resilience/n=2/i=0.04"), "resilience.n2.i0.04");
        assert_eq!(metric_key("easy/tibidabo-1024"), "easy.tibidabo-1024");
    }

    #[test]
    fn setup_repeats_at_least_five_times() {
        let mut n = 0;
        let (last, times) = repeat_setup(|| {
            n += 1;
            n
        });
        assert!(times.len() >= 5);
        assert_eq!(last, times.len());
    }
}
