//! Conservative time-windowed execution of one job across N engine shards.
//!
//! One simulated job is partitioned across `N` [`Engine`]s, each pinned to
//! its own worker thread. The shards advance in lockstep **windows**: the
//! coordinator finds the globally earliest pending event at time `t_min`,
//! sets the window end to `t_min + lookahead` (the minimum latency any
//! cross-shard interaction needs to take effect — see
//! `netsim::Network::min_cross_partition_latency`), and lets every shard
//! dispatch its events with `at < window_end` in parallel. Because no event
//! inside the window can affect another shard before `window_end`, applying
//! all cross-shard messages at the barrier afterwards is conservative: no
//! shard ever receives an event in its past, and the dispatch order within
//! each shard is exactly what a single engine would have produced.
//!
//! Cross-shard messages are exchanged through a caller-supplied `exchange`
//! callback (the `simmpi` layer owns the message format). The callback is
//! responsible for draining its outboxes in a canonical order —
//! `(time, source shard, per-shard sequence)` — and injecting wakes through
//! [`ShardWakers`], which is what makes the sharded run byte-identical to
//! the serial one.
//!
//! ## Window checkpoints and condemnation rollback
//!
//! At every barrier whose exchange reports [`ExchangeOutcome::Applied`] the
//! coordinator captures a [`WindowCkpt`] — per-shard clocks, dispatch
//! counts and scheduler hashes plus a caller-supplied world hash — into the
//! run's [`CkptLog`] (see [`crate::ckpt`] for why these are
//! replay-verification certificates rather than state dumps). When the
//! exchange instead returns [`ExchangeOutcome::Abort`] (the exactness guard
//! condemned the windowed schedule), the run stops **at that barrier**
//! instead of winding the condemned schedule down to completion, and the
//! returned [`ShardRun`] hands the caller the checkpoint log so recovery can
//! replay serially, verifying each recorded barrier as it passes — the
//! condemned attempt costs only its unverified suffix. With a
//! [`CkptPolicy`] installed ([`ShardedEngine::with_ckpt`]) the latest
//! checkpoint is also persisted to disk every `every` windows, which is what
//! lets a SIGKILLed job resume mid-job and *certify* the resumed replay.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

use parking_lot::Mutex;

use crate::ckpt::{CkptLog, CkptPolicy, EngineCkpt, JobCkpt, WindowCkpt};
use crate::engine::{Engine, EngineHandle, Pid, RunReport, SimError};
use crate::time::SimTime;
use crate::trace::TraceEvent;

/// Window-end sentinel telling the shard workers to shut down.
const SHUTDOWN: u64 = u64::MAX;

/// What the `exchange` callback of [`ShardedEngine::run`] did at a barrier.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeOutcome {
    /// The exchange applied this many cross-shard messages; the windowed
    /// schedule is still provably serial-identical, so the barrier is
    /// checkpointed and the run continues.
    Applied(usize),
    /// The exchange's exactness guard condemned the windowed schedule: the
    /// run must stop at this barrier and be recovered from the last
    /// verified checkpoint. `reason` is a stable machine-readable string
    /// (`netsim::CondemnReason::as_str()` at the MPI layer).
    Abort {
        /// Why the schedule was condemned.
        reason: &'static str,
    },
}

/// How a condemned sharded run ended: the abort certificate the caller
/// needs to account for (and recover from) the condemned attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardAbort {
    /// Stable condemnation reason (mirrors the `Condemned` trace event).
    pub reason: &'static str,
    /// Window count when the run was condemned (the condemned window).
    pub window: u64,
    /// Virtual time of the condemnation barrier.
    pub at: SimTime,
    /// Events the condemned attempt dispatched across all shards — what a
    /// wind-down-free abort saves compared to simulating the condemned
    /// schedule to completion.
    pub events: u64,
}

/// Everything a windowed run produced: the outcome plus the checkpoint
/// trail that makes condemnation rollback and crash resume possible.
#[derive(Debug)]
pub struct ShardRun {
    /// `Ok(())` when every process on every shard finished; otherwise the
    /// first error, with [`SimError::Aborted`] marking a condemnation.
    pub result: Result<(), SimError>,
    /// Aggregate report over all shards — always collected, even for
    /// condemned or failed runs (then it covers the partial attempt).
    pub report: RunReport,
    /// Total windows the coordinator ran (including a condemned final one).
    pub windows: u64,
    /// One checkpoint per verified window barrier, in order.
    pub ckpts: CkptLog,
    /// Present iff the run was condemned by its exchange.
    pub abort: Option<ShardAbort>,
    /// Whether the replay reached the resume checkpoint's window with a
    /// bit-identical certificate (always `false` without a resume
    /// checkpoint in the [`CkptPolicy`]).
    pub resume_verified: bool,
    /// On-disk checkpoints successfully persisted during this run.
    pub ckpts_written: u64,
}

/// Runs one job partitioned across several [`Engine`]s in conservative time
/// windows. Construct with every shard's engine fully spawned, then call
/// [`ShardedEngine::run`].
pub struct ShardedEngine {
    engines: Vec<Engine>,
    lookahead: SimTime,
    policy: CkptPolicy,
}

/// Handles for injecting cross-shard wakes between windows. Passed to the
/// `exchange` callback of [`ShardedEngine::run`]; `shard` indices match the
/// order engines were given to [`ShardedEngine::new`].
pub struct ShardWakers {
    handles: Vec<EngineHandle>,
}

impl ShardWakers {
    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.handles.len()
    }

    /// Schedule a wake for a parked process on `shard` (same contract as
    /// `ProcCtx::wake_at`: `at` must not be in the shard's past and the
    /// target must be parked).
    pub fn wake_at(&self, shard: usize, target: Pid, at: SimTime) {
        self.handles[shard].wake_at(target, at);
    }
}

impl ShardedEngine {
    /// Bundle `engines` (one per shard, at least two) for a windowed run
    /// with the given `lookahead` (must be positive — a zero lookahead
    /// would admit empty windows and livelock the window loop).
    pub fn new(engines: Vec<Engine>, lookahead: SimTime) -> ShardedEngine {
        assert!(engines.len() >= 2, "a sharded run needs at least 2 shards");
        assert!(lookahead > SimTime::ZERO, "conservative windows need a positive lookahead");
        ShardedEngine { engines, lookahead, policy: CkptPolicy::disabled() }
    }

    /// Install an on-disk checkpoint policy (periodic persistence and/or a
    /// resume checkpoint to verify against). The in-memory [`CkptLog`] is
    /// kept regardless.
    pub fn with_ckpt(mut self, policy: CkptPolicy) -> ShardedEngine {
        self.policy = policy;
        self
    }

    /// Run every shard to completion (or to condemnation).
    ///
    /// `exchange` is called at each window barrier (and whenever all queues
    /// drain) with the shards quiescent and the current window count; it
    /// must apply all buffered cross-shard messages in canonical order and
    /// report the [`ExchangeOutcome`]. `world_hash` is called once per
    /// verified barrier and must hash the caller's simulated-world state in
    /// an engine-layout-independent way (keyed by rank, never by pid), so
    /// the same cut hashes identically under any shard count — including a
    /// single-engine recovery replay.
    ///
    /// The run finishes when every process on every shard has finished; it
    /// deadlocks when all queues are empty, `exchange` applies nothing, and
    /// unfinished processes remain; it aborts at the barrier where
    /// `exchange` condemns the schedule.
    pub fn run<F, H>(self, mut exchange: F, mut world_hash: H) -> ShardRun
    where
        F: FnMut(&ShardWakers, u64) -> ExchangeOutcome,
        H: FnMut() -> u64,
    {
        let n = self.engines.len();
        let lookahead = self.lookahead;
        let policy = self.policy;
        let handles: Vec<EngineHandle> = self.engines.iter().map(|e| e.handle()).collect();
        let wakers = ShardWakers { handles: handles.clone() };
        // Window end (as nanos) published by the coordinator before each
        // start-barrier; SHUTDOWN tells workers to exit and hand their
        // engine back.
        let window_end = AtomicU64::new(0);
        let start_barrier = Barrier::new(n + 1);
        let end_barrier = Barrier::new(n + 1);
        let errors: Vec<Mutex<Option<SimError>>> = (0..n).map(|_| Mutex::new(None)).collect();

        std::thread::scope(|scope| {
            let mut workers = Vec::with_capacity(n);
            for (i, mut engine) in self.engines.into_iter().enumerate() {
                let window_end = &window_end;
                let start_barrier = &start_barrier;
                let end_barrier = &end_barrier;
                let errors = &errors;
                workers.push(scope.spawn(move || {
                    loop {
                        start_barrier.wait();
                        let limit = window_end.load(Ordering::Acquire);
                        if limit == SHUTDOWN {
                            break;
                        }
                        if let Err(e) = engine.run_window(SimTime::from_nanos(limit)) {
                            *errors[i].lock() = Some(e);
                        }
                        end_barrier.wait();
                    }
                    engine
                }));
            }

            let mut windows: u64 = 0;
            let mut ckpts = CkptLog::new();
            let mut abort_reason: Option<&'static str> = None;
            let mut resume_verified = false;
            let mut ckpts_written: u64 = 0;
            // A resume checkpoint stamped with a different job fingerprint
            // can never certify this job's replay — drop it up front.
            let resume = policy.resume.as_ref().filter(|r| r.fingerprint == policy.fingerprint);
            let result = loop {
                match handles.iter().filter_map(|h| h.next_live_event_time()).min() {
                    None => {
                        // Every queue is empty. Cross-shard messages may
                        // still be buffered; only if the exchange applies
                        // nothing and processes remain is this a deadlock.
                        match exchange(&wakers, windows) {
                            ExchangeOutcome::Applied(applied) if applied > 0 => continue,
                            ExchangeOutcome::Applied(_) => {
                                if handles.iter().any(|h| h.live() > 0) {
                                    break Err(deadlock_error(&handles, windows, ckpts.last()));
                                }
                                break Ok(());
                            }
                            ExchangeOutcome::Abort { reason } => {
                                abort_reason = Some(reason);
                                handles[0].emit_trace(TraceEvent::Condemned { reason });
                                let at =
                                    handles.iter().map(|h| h.now()).max().unwrap_or(SimTime::ZERO);
                                break Err(SimError::Aborted { at, reason });
                            }
                        }
                    }
                    Some(t_min) => {
                        let limit = t_min + lookahead;
                        window_end.store(limit.as_nanos(), Ordering::Release);
                        start_barrier.wait();
                        end_barrier.wait();
                        windows += 1;
                        // Deterministic error selection: the lowest shard
                        // index wins, regardless of which worker lost the
                        // race to write first.
                        if let Some((shard, e)) = errors
                            .iter()
                            .enumerate()
                            .find_map(|(i, m)| m.lock().take().map(|e| (i, e)))
                        {
                            break Err(annotate_shard_error(e, shard, windows, ckpts.last()));
                        }
                        match exchange(&wakers, windows) {
                            ExchangeOutcome::Applied(_) => {
                                // The guard passed, so this barrier is a
                                // verified cut: capture its certificate.
                                let ck = WindowCkpt {
                                    window: windows,
                                    end: limit,
                                    world_hash: world_hash(),
                                    engines: handles
                                        .iter()
                                        .map(|h| EngineCkpt {
                                            clock: h.now(),
                                            events: h.events_dispatched(),
                                            live: h.live(),
                                            hash: h.state_hash(),
                                        })
                                        .collect(),
                                };
                                handles[0].emit_trace(TraceEvent::CkptWindow { window: windows });
                                if let Some(r) = resume {
                                    if r.ckpt.window == windows && r.ckpt == ck {
                                        resume_verified = true;
                                    }
                                }
                                if policy.every > 0 && windows.is_multiple_of(policy.every) {
                                    if let Some(path) = &policy.path {
                                        let job = JobCkpt {
                                            fingerprint: policy.fingerprint,
                                            ckpt: ck.clone(),
                                        };
                                        // Best-effort durability: an I/O
                                        // failure costs the crash-resume
                                        // certificate, never the run.
                                        if job.save(path).is_ok() {
                                            ckpts_written += 1;
                                        }
                                    }
                                }
                                ckpts.push(ck);
                            }
                            ExchangeOutcome::Abort { reason } => {
                                abort_reason = Some(reason);
                                handles[0].emit_trace(TraceEvent::Condemned { reason });
                                break Err(SimError::Aborted { at: limit, reason });
                            }
                        }
                    }
                }
            };

            window_end.store(SHUTDOWN, Ordering::Release);
            start_barrier.wait();
            let mut report = RunReport { end_time: SimTime::ZERO, events: 0, processes: 0 };
            for worker in workers {
                let engine = worker.join().expect("shard worker thread panicked");
                let r = engine.finish_windowed();
                report.end_time = report.end_time.max(r.end_time);
                report.events += r.events;
                report.processes += r.processes;
            }
            let abort = abort_reason.map(|reason| ShardAbort {
                reason,
                window: windows,
                at: match &result {
                    Err(SimError::Aborted { at, .. }) => *at,
                    _ => SimTime::ZERO,
                },
                events: report.events,
            });
            ShardRun { result, report, windows, ckpts, abort, resume_verified, ckpts_written }
        })
    }
}

/// Deadlock report across all shards, with each parked process annotated
/// with its owning shard, the window count at the stall, and the last
/// verified checkpoint window (so a hung recovery or resumed run is
/// distinguishable from a hung first attempt: the checkpoint epoch says how
/// much of the run was already certified when it stalled).
fn deadlock_error(handles: &[EngineHandle], windows: u64, last: Option<&WindowCkpt>) -> SimError {
    let at = handles.iter().map(|h| h.now()).max().unwrap_or(SimTime::ZERO);
    let ckpt = last.map_or(0, |c| c.window);
    let mut parked = Vec::new();
    for (shard, h) in handles.iter().enumerate() {
        for name in h.live_process_diag() {
            parked.push(format!("{name} [shard {shard}, window {windows}, ckpt {ckpt}]"));
        }
    }
    SimError::Deadlock { at, parked }
}

/// Annotate an error raised inside one shard's window with the shard index,
/// window count and last verified checkpoint window, so cross-shard stalls
/// and budget aborts are attributable to a run phase.
fn annotate_shard_error(
    e: SimError,
    shard: usize,
    windows: u64,
    last: Option<&WindowCkpt>,
) -> SimError {
    let ckpt = last.map_or(0, |c| c.window);
    let tag = |parked: Vec<String>| {
        parked
            .into_iter()
            .map(|p| format!("{p} [shard {shard}, window {windows}, ckpt {ckpt}]"))
            .collect()
    };
    match e {
        SimError::Deadlock { at, parked } => SimError::Deadlock { at, parked: tag(parked) },
        SimError::EventBudgetExhausted { at, events, budget, parked } => {
            SimError::EventBudgetExhausted { at, events, budget, parked: tag(parked) }
        }
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;
    use crate::trace::{RingRecorder, TraceEvent};
    use std::sync::Arc;

    fn ping_pong_engine(rounds: u32, hop: SimTime) -> Engine {
        let mut eng = Engine::new();
        ping_pong_into(&mut eng, rounds, hop);
        eng
    }

    fn ping_pong_into(eng: &mut Engine, rounds: u32, hop: SimTime) {
        // Two processes volleying a wake back and forth `rounds` times,
        // `hop` apart in virtual time.
        let a = eng.spawn_process("a", move |ctx| async move {
            for _ in 0..rounds {
                ctx.park().await;
            }
        });
        eng.spawn_process("b", move |ctx| async move {
            for _ in 0..rounds {
                ctx.advance(hop).await;
                ctx.wake_at(a, ctx.now());
            }
        });
    }

    fn no_exchange(_: &ShardWakers, _: u64) -> ExchangeOutcome {
        ExchangeOutcome::Applied(0)
    }

    #[test]
    fn sharded_run_of_independent_engines_matches_serial_totals() {
        let hop = SimTime::from_micros(3);
        let serial: Vec<_> = (0..2).map(|_| ping_pong_engine(5, hop).run().unwrap()).collect();
        let engines = vec![ping_pong_engine(5, hop), ping_pong_engine(5, hop)];
        let run = ShardedEngine::new(engines, SimTime::from_micros(1)).run(no_exchange, || 0);
        run.result.unwrap();
        assert_eq!(run.report.end_time, serial.iter().map(|r| r.end_time).max().unwrap());
        assert_eq!(run.report.events, serial.iter().map(|r| r.events).sum::<u64>());
        assert_eq!(run.report.processes, 4);
        // Every window barrier passed its exchange, so every window is a
        // verified checkpoint.
        assert_eq!(run.ckpts.len() as u64, run.windows);
        assert!(run.abort.is_none());
    }

    #[test]
    fn cross_shard_wakes_applied_at_barriers_unblock_both_sides() {
        // Shard 0 hosts a parked consumer; shard 1 hosts a producer that
        // finishes at 10us. The exchange callback delivers the cross-shard
        // wake once shard 1 has advanced past the producer's send time.
        let mut eng0 = Engine::new();
        let consumer = eng0.spawn_process("consumer", |ctx| async move {
            ctx.park().await;
            assert_eq!(ctx.now(), SimTime::from_micros(15));
        });
        let mut eng1 = Engine::new();
        eng1.spawn_process("producer", |ctx| async move {
            ctx.advance(SimTime::from_micros(10)).await;
        });
        let mut delivered = false;
        let run = ShardedEngine::new(vec![eng0, eng1], SimTime::from_micros(1)).run(
            |wakers, _| {
                if delivered {
                    return ExchangeOutcome::Applied(0);
                }
                delivered = true;
                wakers.wake_at(0, consumer, SimTime::from_micros(15));
                ExchangeOutcome::Applied(1)
            },
            || 0,
        );
        run.result.unwrap();
        assert_eq!(run.report.end_time, SimTime::from_micros(15));
    }

    #[test]
    fn all_shards_stalled_with_empty_exchange_is_a_deadlock_naming_shards() {
        let mut eng0 = Engine::new();
        eng0.spawn_process("stuck-consumer", |ctx| async move {
            ctx.park().await;
        });
        let mut eng1 = Engine::new();
        eng1.spawn_process("done-producer", |ctx| async move {
            ctx.advance(SimTime::from_micros(1)).await;
        });
        let run =
            ShardedEngine::new(vec![eng0, eng1], SimTime::from_micros(1)).run(no_exchange, || 0);
        match run.result.unwrap_err() {
            SimError::Deadlock { parked, .. } => {
                assert_eq!(parked.len(), 1);
                assert!(
                    parked[0].contains("stuck-consumer") && parked[0].contains("[shard 0, window"),
                    "deadlock diagnostic should name the owning shard: {parked:?}"
                );
                assert!(
                    parked[0].contains(", ckpt "),
                    "deadlock diagnostic should name the checkpoint epoch: {parked:?}"
                );
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn condemned_exchange_stops_at_the_barrier_with_checkpoints_intact() {
        let hop = SimTime::from_micros(2);
        let ring = Arc::new(RingRecorder::with_capacity(4096));
        let mut eng0 = Engine::new();
        eng0.set_tracer(ring.clone());
        ping_pong_into(&mut eng0, 50, hop);
        let engines = vec![eng0, ping_pong_engine(50, hop)];
        let run = ShardedEngine::new(engines, SimTime::from_micros(1)).run(
            |_, window| {
                if window >= 3 {
                    ExchangeOutcome::Abort { reason: "link_order" }
                } else {
                    ExchangeOutcome::Applied(0)
                }
            },
            || 42,
        );
        // The run stopped at the condemnation barrier — the 50-round volley
        // was nowhere near done.
        match run.result {
            Err(SimError::Aborted { reason, .. }) => assert_eq!(reason, "link_order"),
            other => panic!("expected abort, got {other:?}"),
        }
        let abort = run.abort.expect("condemned run must carry an abort certificate");
        assert_eq!(abort.reason, "link_order");
        assert_eq!(abort.window, 3);
        assert!(abort.events > 0);
        // Windows before the trip were verified and checkpointed, with the
        // caller's world hash embedded.
        assert_eq!(run.ckpts.len(), 2);
        assert!(run.ckpts.iter().all(|c| c.world_hash == 42 && c.engines.len() == 2));
        // The tracer on shard 0 saw the checkpoint trail and the
        // condemnation.
        let records = ring.drain();
        let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
        assert!(kinds.contains(&"ckpt_window"));
        assert_eq!(
            records.iter().filter(|r| matches!(r.event, TraceEvent::Condemned { .. })).count(),
            1
        );
    }

    #[test]
    fn disk_policy_persists_and_resume_certifies_a_bit_identical_replay() {
        let dir = std::env::temp_dir().join(format!("des_shard_ckpt_{}", std::process::id()));
        let path = dir.join("job.ckpt");
        let hop = SimTime::from_micros(3);
        let mk = || vec![ping_pong_engine(6, hop), ping_pong_engine(6, hop)];
        let policy =
            CkptPolicy { every: 2, path: Some(path.clone()), fingerprint: 0xfeed, resume: None };
        let first = ShardedEngine::new(mk(), SimTime::from_micros(1))
            .with_ckpt(policy)
            .run(no_exchange, || 7);
        first.result.unwrap();
        assert!(first.ckpts_written > 0, "periodic policy must persist checkpoints");
        let saved = JobCkpt::load(&path).expect("persisted checkpoint must load");
        assert_eq!(saved.fingerprint, 0xfeed);

        // A fresh, deterministic replay of the same job certifies the saved
        // checkpoint mid-run.
        let resume_policy =
            CkptPolicy { every: 0, path: None, fingerprint: 0xfeed, resume: Some(saved.clone()) };
        let second = ShardedEngine::new(mk(), SimTime::from_micros(1))
            .with_ckpt(resume_policy)
            .run(no_exchange, || 7);
        second.result.unwrap();
        assert!(second.resume_verified, "bit-identical replay must verify the resume ckpt");
        assert_eq!(first.report, second.report);

        // A checkpoint from a *different* job (fingerprint mismatch) must
        // never certify.
        let foreign = CkptPolicy { every: 0, path: None, fingerprint: 0xbeef, resume: Some(saved) };
        let third = ShardedEngine::new(mk(), SimTime::from_micros(1))
            .with_ckpt(foreign)
            .run(no_exchange, || 7);
        third.result.unwrap();
        assert!(!third.resume_verified);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
