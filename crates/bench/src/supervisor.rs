//! The sweep supervisor: crash-isolated, watchdogged, retrying cell
//! execution.
//!
//! [`run_cells_supervised`] is the sweep executor behind every `repro` run.
//! It returns cell outputs in specification order for any worker count.
//! Each cell attempt runs under
//! `catch_unwind` with a chained panic hook that captures the payload,
//! location, and a backtrace, so one poisoned cell is *quarantined* (its
//! report carries the evidence) while every other cell completes. A
//! wall-clock watchdog bounds each attempt when configured — the attempt
//! runs on a sacrificial thread and is abandoned on deadline (the simulated
//! workload itself is bounded by the DES event budget, see
//! `des::SimError::EventBudgetExhausted`, so a leaked attempt cannot spin
//! forever). Failed cells are retried a bounded number of times; a cell
//! that *recovers* is immediately re-executed and must reproduce a
//! bit-identical output digest, otherwise it is quarantined as
//! nondeterministic — a retry must never smuggle flaky bytes into a
//! byte-compared artefact.
//!
//! All nondeterministic observations (attempt counts, wall clocks, watchdog
//! margins) live in [`CellReport`]/[`SupervisorStats`]; cell outputs remain
//! deterministic.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Mutex, Once};
use std::time::{Duration, Instant};

use serde::Serialize;

use crate::sweep::{Cell, SweepConfig};

/// Retry/watchdog policy for a supervised sweep.
#[derive(Clone, Copy, Debug)]
pub struct SupervisorConfig {
    /// Maximum executions of a failing cell (1 = no retry).
    pub max_attempts: u32,
    /// Wall-clock deadline per attempt. `None` disables the wall watchdog
    /// (the DES event budget still bounds simulated work).
    pub wall_limit: Option<Duration>,
    /// Re-run recovered cells and require a bit-identical output digest.
    pub verify_recovered: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig { max_attempts: 2, wall_limit: None, verify_recovered: true }
    }
}

/// Why a cell attempt (or the whole cell) failed.
#[derive(Clone, Debug, Serialize)]
pub enum CellFailure {
    /// The cell body panicked; payload and capture-time backtrace included.
    Panic {
        /// The panic payload rendered as text, plus `@ file:line` when known.
        message: String,
        /// Backtrace captured inside the panic hook.
        backtrace: String,
    },
    /// The cell reported a typed error (e.g. a DES event-budget fault).
    Error {
        /// The error's display rendering.
        message: String,
    },
    /// The wall-clock watchdog fired; the attempt thread was abandoned.
    Timeout {
        /// The configured limit, in seconds.
        limit_s: f64,
    },
    /// The cell recovered on retry but failed to reproduce its output
    /// bit-for-bit, so its result cannot be trusted in a deterministic
    /// artefact.
    Nondeterministic,
}

impl CellFailure {
    /// One-line rendering for reports and the journal.
    pub fn brief(&self) -> String {
        match self {
            CellFailure::Panic { message, .. } => format!("panic: {message}"),
            CellFailure::Error { message } => format!("error: {message}"),
            CellFailure::Timeout { limit_s } => format!("timeout: exceeded {limit_s}s wall limit"),
            CellFailure::Nondeterministic => "nondeterministic output across retries".into(),
        }
    }
}

/// Final status of one supervised cell.
#[derive(Clone, Debug, Serialize)]
pub enum CellOutcome {
    /// Succeeded on the first attempt.
    Completed,
    /// Failed at least once, then succeeded and (if configured) reproduced
    /// its output bit-identically.
    Recovered,
    /// No trustworthy output; the last failure is attached.
    Quarantined {
        /// The failure of the final attempt.
        failure: CellFailure,
    },
}

/// Everything the supervisor observed about one cell.
#[derive(Clone, Debug, Serialize)]
pub struct CellReport {
    /// The cell's label.
    pub label: String,
    /// Final status.
    pub outcome: CellOutcome,
    /// Executions, including the determinism verification run.
    pub attempts: u32,
    /// Total wall-clock milliseconds across all attempts.
    pub wall_ms: f64,
    /// Failures of non-final attempts (evidence for the report even when
    /// the cell eventually recovered).
    pub earlier_failures: Vec<String>,
}

impl CellReport {
    /// Whether the cell produced a usable output.
    pub fn succeeded(&self) -> bool {
        !matches!(self.outcome, CellOutcome::Quarantined { .. })
    }
}

/// How close a cell came to its wall-clock watchdog limit.
#[derive(Clone, Debug, Serialize)]
pub struct WatchdogMargin {
    /// The cell's label.
    pub label: String,
    /// Slowest single attempt, milliseconds.
    pub attempt_ms: f64,
    /// The configured limit, milliseconds.
    pub limit_ms: f64,
    /// `1 - attempt_ms / limit_ms`: 1.0 = instant, 0.0 = at the deadline.
    pub margin: f64,
}

/// Aggregate supervisor outcomes for one run, serialized into
/// `_sweep_stats.json`.
#[derive(Clone, Debug, Default, Serialize)]
pub struct SupervisorStats {
    /// Cells with no usable output.
    pub quarantined: u64,
    /// Cells that failed at least once and then recovered.
    pub retried: u64,
    /// Cells quarantined specifically for irreproducible output.
    pub nondeterministic: u64,
    /// Attempts abandoned by the wall-clock watchdog.
    pub timeouts: u64,
    /// Artefacts skipped by `--resume` after checksum verification.
    pub resumed_skipped: u64,
    /// Per-cell wall-clock margins, present when a wall limit was set.
    pub watchdog_margins: Vec<WatchdogMargin>,
}

impl SupervisorStats {
    /// Fold another stats block into this one.
    pub fn absorb(&mut self, other: SupervisorStats) {
        self.quarantined += other.quarantined;
        self.retried += other.retried;
        self.nondeterministic += other.nondeterministic;
        self.timeouts += other.timeouts;
        self.resumed_skipped += other.resumed_skipped;
        self.watchdog_margins.extend(other.watchdog_margins);
    }

    /// One-line human summary, or `None` when nothing noteworthy happened.
    pub fn summary(&self) -> Option<String> {
        if self.quarantined == 0 && self.retried == 0 && self.resumed_skipped == 0 {
            return None;
        }
        Some(format!(
            "supervisor: {} quarantined ({} nondeterministic), {} recovered by retry, {} watchdog timeouts, {} artefacts resumed",
            self.quarantined, self.nondeterministic, self.retried, self.timeouts, self.resumed_skipped,
        ))
    }
}

// ---------------------------------------------------------------------------
// Panic capture: a process-global hook, installed once, that records the
// panic's message/location/backtrace into a thread-local slot while a
// supervised attempt is active on that thread, and defers to the previous
// hook (normal noisy behaviour) everywhere else — `cargo test` panics still
// print.

thread_local! {
    static ACTIVE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    static CAPTURE: std::cell::RefCell<Option<(String, String)>> =
        const { std::cell::RefCell::new(None) };
}

fn install_capture_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if ACTIVE.with(|a| a.get()) {
                let msg = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                let located = match info.location() {
                    Some(l) => format!("{msg} @ {}:{}", l.file(), l.line()),
                    None => msg,
                };
                let bt = std::backtrace::Backtrace::force_capture().to_string();
                CAPTURE.with(|c| *c.borrow_mut() = Some((located, bt)));
            } else {
                prev(info);
            }
        }));
    });
}

/// Run `body` under `catch_unwind` with panic capture, classifying the
/// result via `classify` (a `Some` message is a typed cell error).
fn guarded_attempt<O>(
    body: &(dyn Fn() -> O + Send + Sync),
    classify: fn(&O) -> Option<String>,
) -> Result<O, CellFailure> {
    install_capture_hook();
    ACTIVE.with(|a| a.set(true));
    let out = panic::catch_unwind(AssertUnwindSafe(body));
    ACTIVE.with(|a| a.set(false));
    match out {
        Ok(o) => match classify(&o) {
            None => Ok(o),
            Some(message) => Err(CellFailure::Error { message }),
        },
        Err(payload) => {
            let (message, backtrace) =
                CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_else(|| {
                    let msg = payload
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| payload.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".into());
                    (msg, "<no backtrace captured>".into())
                });
            Err(CellFailure::Panic { message, backtrace })
        }
    }
}

/// One attempt, optionally bounded by the wall-clock watchdog. On timeout
/// the attempt thread is abandoned (it parks no locks the caller needs; the
/// DES event budget bounds its remaining work) and `Timeout` is returned.
fn run_attempt<O: Send + 'static>(
    cell: &Cell<O>,
    sup: &SupervisorConfig,
    classify: fn(&O) -> Option<String>,
) -> (Result<O, CellFailure>, f64) {
    let t0 = Instant::now();
    let result = match sup.wall_limit {
        None => guarded_attempt(cell.run.as_ref(), classify),
        Some(limit) => {
            let body = cell.run.clone();
            let (tx, rx) = mpsc::sync_channel(1);
            let label = cell.label.clone();
            std::thread::Builder::new()
                .name(format!("cell-{label}"))
                .spawn(move || {
                    let _ = tx.send(guarded_attempt(body.as_ref(), classify));
                })
                .expect("spawn watchdog attempt thread");
            match rx.recv_timeout(limit) {
                Ok(r) => r,
                Err(_) => Err(CellFailure::Timeout { limit_s: limit.as_secs_f64() }),
            }
        }
    };
    (result, t0.elapsed().as_secs_f64() * 1e3)
}

/// Supervise one cell to completion: bounded retries, then a determinism
/// verification run if it recovered.
fn supervise_cell<O: Send + 'static>(
    cell: &Cell<O>,
    sup: &SupervisorConfig,
    classify: fn(&O) -> Option<String>,
    digest: fn(&O) -> u64,
) -> (Option<O>, CellReport) {
    let mut attempts = 0u32;
    let mut total_ms = 0.0;
    let mut slowest_ms = 0.0f64;
    let mut earlier_failures = Vec::new();
    let report = |outcome, attempts, total_ms, earlier_failures| CellReport {
        label: cell.label.clone(),
        outcome,
        attempts,
        wall_ms: total_ms,
        earlier_failures,
    };
    loop {
        attempts += 1;
        let (result, ms) = run_attempt(cell, sup, classify);
        total_ms += ms;
        slowest_ms = slowest_ms.max(ms);
        match result {
            Ok(out) => {
                if attempts == 1 {
                    return (
                        Some(out),
                        report(CellOutcome::Completed, 1, total_ms, earlier_failures),
                    );
                }
                // Recovered after a failure: the retry's bytes enter a
                // byte-compared artefact, so prove they are reproducible.
                if sup.verify_recovered {
                    attempts += 1;
                    let (verify, vms) = run_attempt(cell, sup, classify);
                    total_ms += vms;
                    match verify {
                        Ok(v) if digest(&v) == digest(&out) => {}
                        Ok(_) => {
                            return (
                                None,
                                report(
                                    CellOutcome::Quarantined {
                                        failure: CellFailure::Nondeterministic,
                                    },
                                    attempts,
                                    total_ms,
                                    earlier_failures,
                                ),
                            );
                        }
                        Err(f) => {
                            return (
                                None,
                                report(
                                    CellOutcome::Quarantined { failure: f },
                                    attempts,
                                    total_ms,
                                    earlier_failures,
                                ),
                            );
                        }
                    }
                }
                return (
                    Some(out),
                    report(CellOutcome::Recovered, attempts, total_ms, earlier_failures),
                );
            }
            Err(failure) => {
                if attempts >= sup.max_attempts {
                    return (
                        None,
                        report(
                            CellOutcome::Quarantined { failure },
                            attempts,
                            total_ms,
                            earlier_failures,
                        ),
                    );
                }
                earlier_failures.push(failure.brief());
            }
        }
    }
}

/// Execute `cells` under supervision on `cfg.jobs` workers.
///
/// Returns per-cell outputs in specification order (`None` = quarantined)
/// plus one [`CellReport`] per cell, also in order. `classify` maps an
/// output to `Some(error message)` when the cell carries a typed failure
/// (those are retried like panics); `digest` must be a pure fingerprint of
/// the output, used to verify that recovered cells reproduce their bytes.
pub fn run_cells_supervised<O: Send + 'static>(
    cells: Vec<Cell<O>>,
    cfg: &SweepConfig,
    sup: &SupervisorConfig,
    classify: fn(&O) -> Option<String>,
    digest: fn(&O) -> u64,
) -> (Vec<Option<O>>, Vec<CellReport>) {
    type Slot<O> = Mutex<Option<(Option<O>, CellReport)>>;
    let jobs = cfg.jobs.max(1);
    let n = cells.len();
    let slots: Vec<Slot<O>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    let pool =
        rayon::ThreadPoolBuilder::new().num_threads(jobs).build().expect("supervisor thread pool");
    pool.scope(|s| {
        for _ in 0..jobs.min(n.max(1)) {
            s.spawn(|_| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = supervise_cell(&cells[i], sup, classify, digest);
                *slots[i].lock().unwrap_or_else(|p| p.into_inner()) = Some(out);
            });
        }
    });

    let mut outputs = Vec::with_capacity(n);
    let mut reports = Vec::with_capacity(n);
    for slot in slots {
        let (out, rep) =
            slot.into_inner().unwrap_or_else(|p| p.into_inner()).expect("cell never supervised");
        outputs.push(out);
        reports.push(rep);
    }
    (outputs, reports)
}

/// Fold a slice of cell reports into aggregate stats, attaching watchdog
/// margins when a wall limit was configured.
pub fn stats_from_reports(reports: &[CellReport], sup: &SupervisorConfig) -> SupervisorStats {
    let mut st = SupervisorStats::default();
    for r in reports {
        match &r.outcome {
            CellOutcome::Completed => {}
            CellOutcome::Recovered => st.retried += 1,
            CellOutcome::Quarantined { failure } => {
                st.quarantined += 1;
                if matches!(failure, CellFailure::Nondeterministic) {
                    st.nondeterministic += 1;
                }
            }
        }
        let timeout_attempts =
            r.earlier_failures.iter().filter(|m| m.starts_with("timeout")).count() as u64
                + matches!(
                    &r.outcome,
                    CellOutcome::Quarantined { failure: CellFailure::Timeout { .. } }
                ) as u64;
        st.timeouts += timeout_attempts;
        if let Some(limit) = sup.wall_limit {
            let limit_ms = limit.as_secs_f64() * 1e3;
            // Approximate the slowest attempt with the mean when retries
            // happened; for the common single-attempt cell it is exact.
            let attempt_ms = r.wall_ms / r.attempts.max(1) as f64;
            st.watchdog_margins.push(WatchdogMargin {
                label: r.label.clone(),
                attempt_ms,
                limit_ms,
                margin: (1.0 - attempt_ms / limit_ms).max(0.0),
            });
        }
    }
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;
    use std::sync::Arc;

    fn no_error<O>(_: &O) -> Option<String> {
        None
    }

    fn id_digest(o: &u64) -> u64 {
        *o
    }

    fn sup(max_attempts: u32) -> SupervisorConfig {
        SupervisorConfig { max_attempts, wall_limit: None, verify_recovered: true }
    }

    fn squares(n: u64) -> Vec<Cell<u64>> {
        (0..n).map(|i| Cell::new(format!("sq{i}"), move || i * i)).collect()
    }

    #[test]
    fn outputs_are_in_spec_order_serial_and_parallel() {
        let expect: Vec<Option<u64>> = (0..64).map(|i| Some(i * i)).collect();
        let (serial, _) =
            run_cells_supervised(squares(64), &SweepConfig::serial(), &sup(1), no_error, id_digest);
        let (parallel, reports) = run_cells_supervised(
            squares(64),
            &SweepConfig::with_jobs(8),
            &sup(1),
            no_error,
            id_digest,
        );
        assert_eq!(serial, expect);
        assert_eq!(parallel, expect);
        assert_eq!(reports.len(), 64);
        assert_eq!(reports[3].label, "sq3");
    }

    #[test]
    fn empty_sweep_is_fine() {
        let (outs, reports) =
            run_cells_supervised(squares(0), &SweepConfig::auto(), &sup(1), no_error, id_digest);
        assert!(outs.is_empty());
        assert!(reports.is_empty());
    }

    #[test]
    fn panicking_cell_is_quarantined_and_others_complete() {
        let cells: Vec<Cell<u64>> = vec![
            Cell::new("ok/0", || 10),
            Cell::new("boom", || panic!("injected failure {}", 42)),
            Cell::new("ok/2", || 30),
        ];
        let (outs, reports) =
            run_cells_supervised(cells, &SweepConfig::with_jobs(2), &sup(1), no_error, id_digest);
        assert_eq!(outs[0], Some(10));
        assert_eq!(outs[1], None);
        assert_eq!(outs[2], Some(30));
        match &reports[1].outcome {
            CellOutcome::Quarantined { failure: CellFailure::Panic { message, backtrace } } => {
                assert!(message.contains("injected failure 42"), "{message}");
                assert!(message.contains("supervisor.rs"), "location missing: {message}");
                assert!(!backtrace.is_empty());
            }
            o => panic!("expected panic quarantine, got {o:?}"),
        }
        let st = stats_from_reports(&reports, &sup(1));
        assert_eq!(st.quarantined, 1);
        assert_eq!(st.retried, 0);
    }

    #[test]
    fn deterministic_recovery_after_transient_panic() {
        let tries = Arc::new(AtomicU32::new(0));
        let t = tries.clone();
        let cells = vec![Cell::new("flaky-once", move || {
            if t.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("transient");
            }
            7u64
        })];
        let (outs, reports) =
            run_cells_supervised(cells, &SweepConfig::serial(), &sup(2), no_error, id_digest);
        assert_eq!(outs[0], Some(7));
        assert!(matches!(reports[0].outcome, CellOutcome::Recovered));
        // failed attempt + success + verification run
        assert_eq!(reports[0].attempts, 3);
        assert_eq!(reports[0].earlier_failures.len(), 1);
        assert_eq!(stats_from_reports(&reports, &sup(2)).retried, 1);
    }

    #[test]
    fn irreproducible_recovery_is_quarantined_as_nondeterministic() {
        let tries = Arc::new(AtomicU32::new(0));
        let t = tries.clone();
        let cells = vec![Cell::new("flaky-bytes", move || {
            let n = t.fetch_add(1, Ordering::SeqCst);
            if n == 0 {
                panic!("transient");
            }
            n as u64 // different value every run: must not be trusted
        })];
        let (outs, reports) =
            run_cells_supervised(cells, &SweepConfig::serial(), &sup(2), no_error, id_digest);
        assert_eq!(outs[0], None);
        assert!(matches!(
            reports[0].outcome,
            CellOutcome::Quarantined { failure: CellFailure::Nondeterministic }
        ));
        assert_eq!(stats_from_reports(&reports, &sup(2)).nondeterministic, 1);
    }

    #[test]
    fn typed_cell_errors_are_not_panics() {
        fn classify(o: &u64) -> Option<String> {
            (*o == u64::MAX).then(|| "event budget exhausted".to_string())
        }
        let cells = vec![Cell::new("budget", || u64::MAX)];
        let (outs, reports) =
            run_cells_supervised(cells, &SweepConfig::serial(), &sup(2), classify, id_digest);
        assert_eq!(outs[0], None);
        match &reports[0].outcome {
            CellOutcome::Quarantined { failure: CellFailure::Error { message } } => {
                assert!(message.contains("event budget"), "{message}");
            }
            o => panic!("expected typed error, got {o:?}"),
        }
        // Deterministic failure: retried once, failed the same way.
        assert_eq!(reports[0].attempts, 2);
    }

    #[test]
    fn wall_watchdog_abandons_stuck_cells() {
        let cfg = SupervisorConfig {
            max_attempts: 1,
            wall_limit: Some(Duration::from_millis(40)),
            verify_recovered: true,
        };
        let cells: Vec<Cell<u64>> = vec![
            Cell::new("stuck", || {
                std::thread::sleep(Duration::from_secs(5));
                1
            }),
            Cell::new("fast", || 2),
        ];
        let t0 = Instant::now();
        let (outs, reports) =
            run_cells_supervised(cells, &SweepConfig::with_jobs(2), &cfg, no_error, id_digest);
        assert!(t0.elapsed() < Duration::from_secs(4), "watchdog failed to fire");
        assert_eq!(outs[0], None);
        assert_eq!(outs[1], Some(2));
        assert!(matches!(
            reports[0].outcome,
            CellOutcome::Quarantined { failure: CellFailure::Timeout { .. } }
        ));
        let st = stats_from_reports(&reports, &cfg);
        assert_eq!(st.timeouts, 1);
        assert_eq!(st.watchdog_margins.len(), 2);
        let fast = &st.watchdog_margins[1];
        assert!(fast.margin > 0.5, "fast cell should have headroom: {fast:?}");
    }

    #[test]
    fn panics_outside_supervision_still_reach_the_default_hook() {
        // The chained hook must defer when no supervised attempt is active:
        // a plain catch_unwind still sees the payload.
        install_capture_hook();
        let r = panic::catch_unwind(|| panic!("unsupervised"));
        assert!(r.is_err());
        assert!(CAPTURE.with(|c| c.borrow().is_none()), "hook captured outside supervision");
    }
}
