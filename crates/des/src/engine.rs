//! The discrete-event engine and its process model.
//!
//! # Execution model
//!
//! Simulated actors ("processes", spawned with [`Engine::spawn_process`]) are
//! stackless coroutines: `async` blocks whose only suspension points are the
//! engine's own leaf primitives ([`ProcCtx::advance`], [`ProcCtx::park`],
//! [`ProcCtx::park_until`]). The engine polls the process's future inline —
//! on the engine's own thread — whenever an event for it dispatches, so a
//! 4096-rank cluster runs in **one** OS thread with no context switches.
//!
//! All processes share one event queue ordered by `(time, insertion
//! sequence)`, and only one process executes at a time, so simulations are
//! **bit-deterministic**: the same program produces the same event trace on
//! every run, regardless of OS scheduling.
//!
//! Processes must suspend **only** through the engine's leaf futures;
//! awaiting a foreign future that returns `Pending` without scheduling a des
//! event would strand the process (debug builds assert on this).
//!
//! Cross-process signalling is intentionally minimal: [`ProcCtx::wake_at`]
//! schedules a wake-up for a *parked* process. Higher-level abstractions
//! (mailboxes, MPI-style matching, network links) are built on top of this
//! in the `simmpi` and `netsim` crates.
//!
//! Every scheduler action can be observed through the opt-in structured
//! tracing layer (see [`crate::trace`]): install a [`Tracer`] with
//! [`Engine::with_tracer`] and each spawn/resume/sleep/park/wake/finish is
//! reported as a stamped [`crate::TraceRecord`]. Without a tracer the
//! emission sites are a single `Option` check.

use std::collections::BinaryHeap;
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

use parking_lot::Mutex;

use crate::mc;
use crate::time::SimTime;
use crate::trace::{TraceEvent, TraceFilter, TraceRecord, Tracer};

/// Identifier of a simulated process, assigned in spawn order. The default
/// value is the first-spawned process's id.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Pid(pub(crate) u32);

impl Pid {
    /// Index form, for addressing per-process tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Why a simulation ended unsuccessfully.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event queue drained while processes were still parked: every
    /// remaining process is waiting for a signal nobody will send.
    Deadlock {
        /// Virtual time at which progress stopped.
        at: SimTime,
        /// Names of the parked processes.
        parked: Vec<String>,
    },
    /// A process panicked; the payload is the process name and panic message.
    ProcessPanic {
        /// Name of the process that panicked.
        process: String,
        /// Best-effort stringified panic payload.
        message: String,
    },
    /// The simulation dispatched more events than its configured budget
    /// (see [`Engine::set_event_budget`]). This is the watchdog that turns a
    /// runaway or livelocked simulation into a typed error instead of an
    /// unbounded spin: the run aborts deterministically at the first event
    /// past the budget.
    EventBudgetExhausted {
        /// Virtual time at which the budget ran out.
        at: SimTime,
        /// Events dispatched when the run was aborted.
        events: u64,
        /// The configured budget.
        budget: u64,
        /// Live (non-finished) processes at abort time, each annotated with
        /// its scheduler status — the same diagnostic deadlock detection
        /// prints, so budget kills in sweeps and model-checking runs are
        /// debuggable.
        parked: Vec<String>,
    },
    /// The run was stopped from outside by the model-checking controller:
    /// the state it just reached was already covered by an explored
    /// schedule (see [`mc`](crate::mc)). Not a failure of the simulated
    /// program.
    Interrupted {
        /// Virtual time at which the run was abandoned.
        at: SimTime,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { at, parked } => {
                write!(f, "simulation deadlock at {at}: parked processes: {}", parked.join(", "))
            }
            SimError::ProcessPanic { process, message } => {
                write!(f, "process '{process}' panicked: {message}")
            }
            SimError::EventBudgetExhausted { at, events, budget, parked } => {
                write!(
                    f,
                    "event budget exhausted at {at}: {events} events dispatched (budget {budget})"
                )?;
                if !parked.is_empty() {
                    write!(f, "; live processes: {}", parked.join(", "))?;
                }
                Ok(())
            }
            SimError::Interrupted { at } => {
                write!(f, "run interrupted at {at} by the model-checking controller")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Summary of a completed simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// Virtual time when the last process finished.
    pub end_time: SimTime,
    /// Total number of scheduler events dispatched (including stale ones).
    pub events: u64,
    /// Number of processes that ran to completion.
    pub processes: u32,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    /// Not yet resumed for the first time, or currently runnable and queued.
    Ready,
    /// Currently executing (at most one process at a time).
    Running,
    /// Blocked in `advance` until its timer event fires.
    Sleeping,
    /// Blocked in `park` until another process wakes it.
    Parked,
    /// Future completed (or panicked).
    Finished,
}

struct Event {
    at: SimTime,
    seq: u64,
    pid: Pid,
    /// Generation the target process had when this event was created; a
    /// mismatch at dispatch time marks the event stale (the process already
    /// resumed for another reason).
    gen: u64,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

struct ProcSlot {
    name: String,
    status: Status,
    /// Bumped every time the process resumes; used to invalidate stale events.
    gen: u64,
}

struct State {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Event>,
    procs: Vec<ProcSlot>,
    live: u32,
    events_dispatched: u64,
    /// Emission counter for trace records (independent of the event-queue
    /// `seq`, which also numbers never-traced internal events).
    trace_seq: u64,
}

impl State {
    fn push_event(&mut self, at: SimTime, pid: Pid, gen: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event { at, seq, pid, gen });
    }

    fn report(&self) -> RunReport {
        RunReport {
            end_time: self.now,
            events: self.events_dispatched,
            processes: self.procs.len() as u32,
        }
    }
}

struct Shared {
    state: Mutex<State>,
    /// Installed before any spawn and immutable afterwards, so reading it
    /// without the state lock is race-free.
    tracer: Option<Arc<dyn Tracer>>,
    /// The installed tracer's [`Tracer::interest`] mask, cached at install
    /// time ([`TraceFilter::NONE`] with no tracer). Every emission site
    /// branches on this plain bitfield before constructing its event, so an
    /// uninterested class — and in particular a [`crate::NullTracer`] — costs
    /// one predictable branch per site.
    trace_mask: TraceFilter,
    /// Model-checking controller, installed before any spawn like the
    /// tracer. `None` (the overwhelmingly common case) keeps the dispatch
    /// loop on its plain earliest-event path.
    mc: Option<Arc<mc::McCtl>>,
}

impl Shared {
    /// Stamp and forward one **scheduler** event to the installed tracer.
    /// Takes a closure so event construction (and any allocation in it) is
    /// skipped entirely unless the tracer wants [`TraceClass::Proc`] events
    /// — every event the scheduler itself emits is proc-class.
    #[inline]
    fn trace_with(&self, st: &mut State, event: impl FnOnce() -> TraceEvent) {
        if self.trace_mask.procs {
            self.trace_record(st, event());
        }
    }

    /// Stamp and forward one already-constructed event. Callers must have
    /// checked [`Shared::trace_mask`] for the event's class.
    fn trace_record(&self, st: &mut State, event: TraceEvent) {
        if let Some(t) = &self.tracer {
            let seq = st.trace_seq;
            st.trace_seq += 1;
            t.record(TraceRecord { at: st.now, seq, event });
        }
    }
}

type ProcFuture = Pin<Box<dyn Future<Output = ()> + Send + 'static>>;

/// A deterministic discrete-event simulation.
///
/// Spawn processes with [`Engine::spawn_process`], then drive them to
/// completion with [`Engine::run`]. See the module docs for the execution
/// model.
///
/// ```
/// use des::{Engine, SimTime};
///
/// let mut eng = Engine::new();
/// eng.spawn_process("ticker", |ctx| async move {
///     for _ in 0..3 {
///         ctx.advance(SimTime::from_micros(10)).await;
///     }
/// });
/// let report = eng.run().unwrap();
/// assert_eq!(report.end_time, SimTime::from_micros(30));
/// ```
pub struct Engine {
    shared: Arc<Shared>,
    /// Process futures, indexed by pid; `None` for finished processes (and
    /// for the one currently being polled).
    tasks: Vec<Option<ProcFuture>>,
    /// Abort the run with [`SimError::EventBudgetExhausted`] once this many
    /// events have been dispatched. `None` = unlimited (the default).
    event_budget: Option<u64>,
}

// The sweep harness constructs one engine per scenario cell and drives it on
// whatever worker thread claims the cell, so `Engine` (and everything a cell
// returns) must stay `Send`. Compile-time check: a non-Send field sneaking in
// breaks the build here, not in a downstream crate.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Engine>();
    assert_send::<RunReport>();
    assert_send::<SimError>();
    assert_send::<ProcCtx>();
};

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// Create an empty simulation at time zero.
    pub fn new() -> Self {
        Engine {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    now: SimTime::ZERO,
                    seq: 0,
                    queue: BinaryHeap::new(),
                    procs: Vec::new(),
                    live: 0,
                    events_dispatched: 0,
                    trace_seq: 0,
                }),
                tracer: None,
                trace_mask: TraceFilter::NONE,
                mc: None,
            }),
            tasks: Vec::new(),
            event_budget: None,
        }
    }

    /// Bound the simulation to at most `budget` dispatched events.
    ///
    /// The count includes stale events (the same counter reported by
    /// [`RunReport::events`]), so the bound is a hard ceiling on scheduler
    /// work regardless of what the processes do. When the budget runs out,
    /// [`Engine::run`] aborts with [`SimError::EventBudgetExhausted`] at a
    /// deterministic point: the same program with the same budget always
    /// stops at the same event and virtual time. `None` removes the bound.
    pub fn set_event_budget(&mut self, budget: Option<u64>) {
        self.event_budget = budget;
    }

    /// Builder-style [`Engine::set_event_budget`].
    pub fn with_event_budget(mut self, budget: Option<u64>) -> Self {
        self.event_budget = budget;
        self
    }

    /// Install a [`Tracer`] that observes every scheduler action (see
    /// [`crate::trace`]). Tracing is purely observational — it never changes
    /// event ordering, virtual timestamps, or any simulation result.
    ///
    /// # Panics
    ///
    /// Must be called **before** any process is spawned (spawning hands out
    /// clones of the engine's shared state); calling it later panics.
    pub fn set_tracer(&mut self, tracer: Arc<dyn Tracer>) {
        let shared = Arc::get_mut(&mut self.shared)
            .expect("set_tracer must be called before any process is spawned");
        shared.trace_mask = tracer.interest();
        shared.tracer = Some(tracer);
    }

    /// Builder-style [`Engine::set_tracer`].
    pub fn with_tracer(mut self, tracer: Arc<dyn Tracer>) -> Self {
        self.set_tracer(tracer);
        self
    }

    /// Attach a model-checking controller (see [`mc`](crate::mc)). The
    /// dispatch loop then offers the controller every scheduling choice
    /// among simultaneously enabled events, reports each dispatch for
    /// state-hash deduplication, and aborts with [`SimError::Interrupted`]
    /// when the controller prunes the run. Begins a new controller epoch,
    /// so one controller can drive several consecutive engines.
    ///
    /// # Panics
    ///
    /// Like [`Engine::set_tracer`], must be called before any spawn.
    pub fn set_mc(&mut self, ctl: Arc<mc::McCtl>) {
        let shared = Arc::get_mut(&mut self.shared)
            .expect("set_mc must be called before any process is spawned");
        ctl.begin_epoch();
        shared.mc = Some(ctl);
    }

    /// Spawn a process that becomes runnable at time zero.
    ///
    /// `f` is called immediately with the process's [`ProcCtx`] and must
    /// return the future that *is* the process — typically an `async move`
    /// block. The future is polled inline by the engine; it may only suspend
    /// through `ctx`'s leaf primitives (`advance` / `park` / `park_until`).
    /// No OS resources are allocated, so spawning cannot fail and tens of
    /// thousands of processes are cheap.
    ///
    /// Processes spawned before [`Engine::run`] start in spawn order.
    ///
    /// ```
    /// use des::{Engine, SimTime};
    ///
    /// let mut eng = Engine::new();
    /// let mut pids = Vec::new();
    /// for i in 0..3 {
    ///     pids.push(eng.spawn_process(format!("worker{i}"), move |ctx| async move {
    ///         ctx.advance(SimTime::from_micros(10 * (i + 1))).await;
    ///     }));
    /// }
    /// let report = eng.run().unwrap();
    /// assert_eq!(report.processes, 3);
    /// assert_eq!(report.end_time, SimTime::from_micros(30));
    /// ```
    pub fn spawn_process<F, Fut>(&mut self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(ProcCtx) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        let name = name.into();
        let pid = {
            let mut st = self.shared.state.lock();
            let pid = Pid(st.procs.len() as u32);
            let traced_name = self.shared.trace_mask.procs.then(|| name.clone());
            st.procs.push(ProcSlot { name, status: Status::Ready, gen: 0 });
            st.live += 1;
            let at = st.now;
            st.push_event(at, pid, 0);
            if let Some(name) = traced_name {
                self.shared.trace_with(&mut st, || TraceEvent::ProcSpawn { pid, name });
            }
            pid
        };
        let fut = f(ProcCtx { pid, shared: Arc::clone(&self.shared) });
        self.tasks.push(Some(Box::pin(fut)));
        pid
    }

    /// Run the simulation until every process finishes.
    ///
    /// Returns a [`RunReport`] on success, [`SimError::Deadlock`] if the event
    /// queue drains while processes are parked, or [`SimError::ProcessPanic`]
    /// if any process panicked. After an error the unfinished processes'
    /// futures are simply dropped with the engine.
    pub fn run(mut self) -> Result<RunReport, SimError> {
        let mc = self.shared.mc.clone();
        loop {
            let pid = {
                let mut st = self.shared.state.lock();
                if st.live == 0 {
                    return Ok(st.report());
                }
                let ev = match &mc {
                    Some(ctl) => self.next_event_mc(&mut st, ctl)?,
                    None => self.next_event(&mut st)?,
                };
                if mc.is_none() {
                    debug_assert!(ev.at >= st.now, "event queue went backwards in time");
                }
                // Make the event's process the running one. `max` semantics:
                // a model-checking controller may dispatch an event that was
                // pushed back behind a slightly later one (bounded timing
                // skew); virtual time still never reverses. The resume
                // generation bump invalidates any other pending event for it.
                if ev.at > st.now {
                    st.now = ev.at;
                }
                let slot = &mut st.procs[ev.pid.index()];
                slot.status = Status::Running;
                slot.gen += 1;
                self.shared.trace_with(&mut st, || TraceEvent::ProcResume { pid: ev.pid });
                if let Some(ctl) = &mc {
                    let hash = mc_engine_hash(&st);
                    if !ctl.observe_dispatch(ev.pid.index(), ev.seq, st.now, hash) {
                        return Err(SimError::Interrupted { at: st.now });
                    }
                }
                ev.pid
            };
            self.execute_resume(pid)?;
        }
    }

    /// Whether `ev` no longer targets the generation its process is in
    /// (the process already resumed for another reason).
    fn is_stale(st: &State, ev: &Event) -> bool {
        let slot = &st.procs[ev.pid.index()];
        match slot.status {
            Status::Finished | Status::Running => true,
            _ => slot.gen != ev.gen,
        }
    }

    /// Names of every non-finished process, for deadlock reports.
    fn parked_names(st: &State) -> Vec<String> {
        st.procs.iter().filter(|p| p.status != Status::Finished).map(|p| p.name.clone()).collect()
    }

    /// Names of every non-finished process annotated with its scheduler
    /// status — the budget-abort diagnostic.
    fn live_process_diag(st: &State) -> Vec<String> {
        st.procs
            .iter()
            .filter(|p| p.status != Status::Finished)
            .map(|p| {
                let status = match p.status {
                    Status::Ready => "ready",
                    Status::Running => "running",
                    Status::Sleeping => "sleeping",
                    Status::Parked => "parked",
                    Status::Finished => "finished",
                };
                format!("{} ({status})", p.name)
            })
            .collect()
    }

    /// Abort with [`SimError::EventBudgetExhausted`] if the dispatch count
    /// has reached the configured budget.
    fn check_budget(&self, st: &mut State) -> Result<(), SimError> {
        if let Some(budget) = self.event_budget {
            if st.events_dispatched >= budget {
                let events = st.events_dispatched;
                self.shared.trace_with(st, || TraceEvent::BudgetExhausted { events, budget });
                return Err(SimError::EventBudgetExhausted {
                    at: st.now,
                    events,
                    budget,
                    parked: Self::live_process_diag(st),
                });
            }
        }
        Ok(())
    }

    /// The plain dispatch path: earliest live event wins, stale events are
    /// consumed and counted.
    fn next_event(&self, st: &mut State) -> Result<Event, SimError> {
        loop {
            self.check_budget(st)?;
            match st.queue.pop() {
                Some(ev) => {
                    st.events_dispatched += 1;
                    if !Self::is_stale(st, &ev) {
                        return Ok(ev);
                    }
                }
                None => {
                    return Err(SimError::Deadlock { at: st.now, parked: Self::parked_names(st) })
                }
            }
        }
    }

    /// The model-checking dispatch path: collect every live event enabled
    /// within the controller's time slack of the earliest one, let the
    /// controller pick, and push the rest back (their sequence numbers keep
    /// the replayed order stable). Stale events met while draining are
    /// consumed and counted exactly like the plain path; pushed-back events
    /// are not counted until actually dispatched.
    fn next_event_mc(&self, st: &mut State, ctl: &mc::McCtl) -> Result<Event, SimError> {
        let first = loop {
            self.check_budget(st)?;
            match st.queue.pop() {
                Some(ev) => {
                    if Self::is_stale(st, &ev) {
                        st.events_dispatched += 1;
                        continue;
                    }
                    break ev;
                }
                None => {
                    return Err(SimError::Deadlock { at: st.now, parked: Self::parked_names(st) })
                }
            }
        };
        let mut enabled = vec![first];
        if ctl.explore_sched() {
            let bound = enabled[0].at + ctl.time_slack();
            while st.queue.peek().is_some_and(|e| e.at <= bound) {
                let ev = st.queue.pop().expect("peeked event vanished");
                if Self::is_stale(st, &ev) {
                    st.events_dispatched += 1;
                } else {
                    enabled.push(ev);
                }
            }
        }
        let idx = if enabled.len() > 1 {
            let choices: Vec<mc::EnabledChoice> = enabled
                .iter()
                .map(|e| mc::EnabledChoice { at: e.at, seq: e.seq, pid: e.pid.index() })
                .collect();
            ctl.sched_pick(&choices)
        } else {
            0
        };
        let chosen = enabled.swap_remove(idx);
        for ev in enabled {
            st.queue.push(ev);
        }
        st.events_dispatched += 1;
        Ok(chosen)
    }

    /// Poll the process selected by the dispatch loop until it suspends
    /// again (or finishes, or panics).
    fn execute_resume(&mut self, pid: Pid) -> Result<(), SimError> {
        let mut fut =
            self.tasks[pid.index()].take().expect("process resumed without a stored future");
        // The engine is the only scheduler: nothing ever needs to wake a task
        // from outside, so a no-op waker suffices.
        let mut cx = Context::from_waker(Waker::noop());
        match panic::catch_unwind(AssertUnwindSafe(|| fut.as_mut().poll(&mut cx))) {
            Ok(Poll::Pending) => {
                // The leaf primitive already recorded the new status
                // (Sleeping/Parked) and scheduled whatever event will resume
                // us.
                debug_assert!(
                    self.shared.state.lock().procs[pid.index()].status != Status::Running,
                    "process returned Pending without blocking on a des primitive"
                );
                self.tasks[pid.index()] = Some(fut);
                Ok(())
            }
            Ok(Poll::Ready(())) => {
                let mut st = self.shared.state.lock();
                st.procs[pid.index()].status = Status::Finished;
                st.live -= 1;
                self.shared.trace_with(&mut st, || TraceEvent::ProcFinish { pid });
                Ok(())
            }
            Err(payload) => {
                let message = panic_payload_to_string(&*payload);
                let mut st = self.shared.state.lock();
                st.live -= 1;
                let slot = &mut st.procs[pid.index()];
                slot.status = Status::Finished;
                Err(SimError::ProcessPanic { process: slot.name.clone(), message })
            }
        }
    }
}

fn panic_payload_to_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// A process's handle to the simulation: virtual-time queries, time advance,
/// parking, and waking peers.
///
/// A `ProcCtx` is owned, cheap to clone, and `'static`, so it can be moved
/// into the `async` block that implements the process. The async methods ([`ProcCtx::advance`],
/// [`ProcCtx::park`], [`ProcCtx::park_until`]) are the process's only legal
/// suspension points.
#[derive(Clone)]
pub struct ProcCtx {
    pid: Pid,
    shared: Arc<Shared>,
}

impl ProcCtx {
    /// This process's id.
    #[inline]
    pub fn pid(&self) -> Pid {
        self.pid
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.shared.state.lock().now
    }

    /// Advance this process's virtual time by `dt` (models computation or a
    /// fixed delay). Other processes may run in the interim. A zero `dt`
    /// completes immediately without yielding.
    pub fn advance(&self, dt: SimTime) -> Advance<'_> {
        Advance { ctx: self, dt, suspended: false }
    }

    /// Advance to an absolute virtual time (no-op if already past it).
    pub async fn advance_to(&self, at: SimTime) {
        let now = self.now();
        if at > now {
            self.advance(at - now).await;
        }
    }

    /// Suspend until another process calls `wake_at` targeting this process.
    /// Virtual time does not advance on this process's account while parked;
    /// it resumes at whatever time the waker chose.
    pub fn park(&self) -> Park<'_> {
        Park { ctx: self, suspended: false }
    }

    /// Park with a timeout: suspend until another process wakes this one, or
    /// until virtual time `deadline` — whichever comes first.
    ///
    /// Resolves to `true` if a peer's wake resumed the process **strictly
    /// before** `deadline`, `false` on timeout. A wake landing exactly at
    /// `deadline` counts as a timeout (the self-scheduled timeout event was
    /// enqueued first and wins the tie), which gives retry loops a crisp
    /// "no answer by t" semantic. A `deadline` at or before the current time
    /// resumes immediately with `false`.
    pub fn park_until(&self, deadline: SimTime) -> ParkUntil<'_> {
        ParkUntil { ctx: self, deadline, suspended: false }
    }

    /// Schedule a wake-up for `target` at absolute time `at` (must be `>=`
    /// now). The target must currently be **parked**; waking a running,
    /// sleeping, or finished process is a protocol violation and panics.
    ///
    /// Multiple wakes may target the same parked process; the earliest one
    /// resumes it and the rest are discarded as stale.
    pub fn wake_at(&self, target: Pid, at: SimTime) {
        wake_at_impl(&self.shared, target, at);
    }

    /// Whether `target` is currently parked (usable for mailbox-style
    /// "wake only if waiting" protocols).
    pub fn is_parked(&self, target: Pid) -> bool {
        self.shared.state.lock().procs[target.index()].status == Status::Parked
    }

    /// Whether the installed [`Tracer`] (if any) is interested in at least
    /// one event class.
    ///
    /// Emission sites in higher layers should guard any allocation needed to
    /// *build* an event behind this check, so untraced runs pay nothing:
    ///
    /// ```ignore
    /// if ctx.tracing() {
    ///     ctx.emit_trace(TraceEvent::SpanBegin { rank, name: "compute".into() });
    /// }
    /// ```
    #[inline]
    pub fn tracing(&self) -> bool {
        self.shared.trace_mask != TraceFilter::NONE
    }

    /// Record a custom trace event (message, fault, or span kinds) stamped
    /// with the current virtual time and the engine's next trace sequence
    /// number. A no-op when no tracer is installed or when the tracer's
    /// [`Tracer::interest`] mask excludes the event's class.
    pub fn emit_trace(&self, event: TraceEvent) {
        if self.shared.trace_mask.accepts_class(event.class()) {
            let mut st = self.shared.state.lock();
            self.shared.trace_record(&mut st, event);
        }
    }
}

fn wake_at_impl(shared: &Shared, target: Pid, at: SimTime) {
    let mut st = shared.state.lock();
    assert!(at >= st.now, "wake_at into the past ({} < {})", at, st.now);
    let gen = {
        let slot = &st.procs[target.index()];
        assert!(
            slot.status == Status::Parked,
            "wake_at target '{}' is {:?}, not Parked",
            slot.name,
            slot.status
        );
        slot.gen
    };
    st.push_event(at, target, gen);
    // Waking a peer writes that peer's schedule: record it in the current
    // execution segment's footprint so the commutation reduction never
    // reorders a waker past something that touches the same process.
    if let Some(ctl) = &shared.mc {
        ctl.touch(mc::pid_bit(target.index()));
    }
    shared.trace_with(&mut st, || TraceEvent::ProcWake { target, at });
}

/// Order-insensitive hash of the scheduler state for model-checking
/// deduplication: per-process status and resume count, plus the live event
/// queue as a multiset of `(time-to-fire, pid)` pairs. Absolute virtual
/// time, sequence numbers and dispatch counters are deliberately excluded
/// so runs reaching the same relative state by different tie orders or at
/// shifted times can merge; resume counts (`gen`) keep successive
/// iterations of a process loop from aliasing.
fn mc_engine_hash(st: &State) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (i, p) in st.procs.iter().enumerate() {
        let code = match p.status {
            Status::Ready => 1u64,
            Status::Running => 2,
            Status::Sleeping => 3,
            Status::Parked => 4,
            Status::Finished => 5,
        };
        h = mc::mix(h, (i as u64) << 3 | code);
        h = mc::mix(h, p.gen);
    }
    let now = st.now.as_nanos();
    let mut qh = 0u64;
    for ev in st.queue.iter() {
        if Engine::is_stale(st, ev) {
            continue;
        }
        let delta = ev.at.as_nanos().wrapping_sub(now);
        qh = qh.wrapping_add(mc::mix(mc::mix(0x9e37_79b9, delta), ev.pid.index() as u64 + 1));
    }
    mc::mix(h, qh)
}

/// Future of [`ProcCtx::advance`].
///
/// First poll: schedules the timer event and suspends. Second poll (when
/// that event dispatches): resolves.
#[must_use = "futures do nothing unless awaited"]
pub struct Advance<'a> {
    ctx: &'a ProcCtx,
    dt: SimTime,
    suspended: bool,
}

impl Future for Advance<'_> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.suspended || self.dt == SimTime::ZERO {
            return Poll::Ready(());
        }
        self.suspended = true;
        let ctx = self.ctx;
        let mut st = ctx.shared.state.lock();
        let at = st.now + self.dt;
        let slot_gen = {
            let slot = &mut st.procs[ctx.pid.index()];
            slot.status = Status::Sleeping;
            slot.gen
        };
        st.push_event(at, ctx.pid, slot_gen);
        ctx.shared.trace_with(&mut st, || TraceEvent::ProcSleep { pid: ctx.pid, until: at });
        Poll::Pending
    }
}

/// Future of [`ProcCtx::park`].
#[must_use = "futures do nothing unless awaited"]
pub struct Park<'a> {
    ctx: &'a ProcCtx,
    suspended: bool,
}

impl Future for Park<'_> {
    type Output = ();
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        if self.suspended {
            return Poll::Ready(());
        }
        self.suspended = true;
        let ctx = self.ctx;
        let mut st = ctx.shared.state.lock();
        st.procs[ctx.pid.index()].status = Status::Parked;
        ctx.shared.trace_with(&mut st, || TraceEvent::ProcPark { pid: ctx.pid, deadline: None });
        Poll::Pending
    }
}

/// Future of [`ProcCtx::park_until`]; resolves to whether a peer's wake
/// arrived strictly before the deadline.
#[must_use = "futures do nothing unless awaited"]
pub struct ParkUntil<'a> {
    ctx: &'a ProcCtx,
    deadline: SimTime,
    suspended: bool,
}

impl Future for ParkUntil<'_> {
    type Output = bool;
    fn poll(mut self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<bool> {
        let ctx = self.ctx;
        if self.suspended {
            return Poll::Ready(ctx.now() < self.deadline);
        }
        self.suspended = true;
        let deadline = self.deadline;
        let mut st = ctx.shared.state.lock();
        let at = deadline.max(st.now);
        let slot_gen = {
            let slot = &mut st.procs[ctx.pid.index()];
            slot.status = Status::Parked;
            slot.gen
        };
        st.push_event(at, ctx.pid, slot_gen);
        ctx.shared.trace_with(&mut st, || TraceEvent::ProcPark {
            pid: ctx.pid,
            deadline: Some(deadline),
        });
        Poll::Pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PMutex;
    use std::sync::Arc;

    #[test]
    fn single_event_process_advances_time() {
        let mut eng = Engine::new();
        eng.spawn_process("p", |ctx| async move {
            assert_eq!(ctx.now(), SimTime::ZERO);
            ctx.advance(SimTime::from_micros(5)).await;
            assert_eq!(ctx.now(), SimTime::from_micros(5));
            ctx.advance(SimTime::from_micros(7)).await;
            assert_eq!(ctx.now(), SimTime::from_micros(12));
        });
        let rep = eng.run().unwrap();
        assert_eq!(rep.end_time, SimTime::from_micros(12));
        assert_eq!(rep.processes, 1);
    }

    #[test]
    fn end_time_is_latest_finisher() {
        let mut eng = Engine::new();
        eng.spawn_process("short", |ctx| async move { ctx.advance(SimTime::from_micros(1)).await });
        eng.spawn_process(
            "long",
            |ctx| async move { ctx.advance(SimTime::from_micros(100)).await },
        );
        let rep = eng.run().unwrap();
        assert_eq!(rep.end_time, SimTime::from_micros(100));
    }

    #[test]
    fn interleaving_is_time_ordered_and_deterministic() {
        let trace = Arc::new(PMutex::new(Vec::new()));
        let mut eng = Engine::new();
        for (name, step) in [("a", 3u64), ("b", 5u64)] {
            let trace = Arc::clone(&trace);
            eng.spawn_process(name, move |ctx| async move {
                for i in 0..4u64 {
                    ctx.advance(SimTime::from_micros(step)).await;
                    trace.lock().push((name, step * (i + 1)));
                }
            });
        }
        let rep = eng.run().unwrap();
        // 2 start events plus 8 advances.
        assert_eq!(rep.events, 10);
        let got = trace.lock().clone();
        // Merged by virtual time; ties broken by event insertion order.
        assert_eq!(
            got,
            vec![
                ("a", 3),
                ("b", 5),
                ("a", 6),
                ("a", 9),
                ("b", 10),
                ("a", 12),
                ("b", 15),
                ("b", 20)
            ]
        );
    }

    #[test]
    fn park_and_wake_handshake() {
        let mut eng = Engine::new();
        let waiter = eng.spawn_process("waiter", |ctx| async move {
            ctx.park().await;
            assert_eq!(ctx.now(), SimTime::from_micros(42));
        });
        eng.spawn_process("waker", move |ctx| async move {
            ctx.advance(SimTime::from_micros(10)).await;
            ctx.wake_at(waiter, SimTime::from_micros(42));
        });
        let rep = eng.run().unwrap();
        assert_eq!(rep.end_time, SimTime::from_micros(42));
    }

    #[test]
    fn duplicate_wakes_are_stale_not_fatal() {
        let mut eng = Engine::new();
        let waiter = eng.spawn_process("waiter", |ctx| async move {
            ctx.park().await;
            // Resumed once, at the earliest wake.
            assert_eq!(ctx.now(), SimTime::from_micros(5));
            ctx.advance(SimTime::from_micros(100)).await;
        });
        eng.spawn_process("w1", move |ctx| async move {
            ctx.wake_at(waiter, SimTime::from_micros(5));
        });
        eng.spawn_process("w2", move |ctx| async move {
            ctx.wake_at(waiter, SimTime::from_micros(9));
        });
        let rep = eng.run().unwrap();
        assert_eq!(rep.end_time, SimTime::from_micros(105));
    }

    #[test]
    fn deadlock_names_event_driven_processes() {
        let mut eng = Engine::new();
        eng.spawn_process("ev-stuck-a", |ctx| async move {
            ctx.advance(SimTime::from_micros(3)).await;
            ctx.park().await; // nobody will wake us
        });
        eng.spawn_process("ev-stuck-b", |ctx| async move {
            ctx.park().await;
        });
        match eng.run() {
            Err(SimError::Deadlock { at, parked }) => {
                assert_eq!(at, SimTime::from_micros(3));
                assert_eq!(parked, vec!["ev-stuck-a".to_string(), "ev-stuck-b".to_string()]);
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn event_process_panic_is_reported() {
        let mut eng = Engine::new();
        eng.spawn_process("boom", |ctx| async move {
            ctx.advance(SimTime::from_micros(1)).await;
            panic!("kaboom");
        });
        // A bystander that would keep running; the run must still abort.
        eng.spawn_process("bystander", |ctx| async move {
            ctx.advance(SimTime::from_secs(10)).await;
        });
        match eng.run() {
            Err(SimError::ProcessPanic { process, message }) => {
                assert_eq!(process, "boom");
                assert!(message.contains("kaboom"));
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn zero_advance_is_noop() {
        let mut eng = Engine::new();
        eng.spawn_process("p", |ctx| async move {
            ctx.advance(SimTime::ZERO).await;
            assert_eq!(ctx.now(), SimTime::ZERO);
        });
        assert!(eng.run().is_ok());
    }

    #[test]
    fn advance_to_absolute() {
        let mut eng = Engine::new();
        eng.spawn_process("p", |ctx| async move {
            ctx.advance_to(SimTime::from_micros(9)).await;
            assert_eq!(ctx.now(), SimTime::from_micros(9));
            // Already past: no-op.
            ctx.advance_to(SimTime::from_micros(4)).await;
            assert_eq!(ctx.now(), SimTime::from_micros(9));
        });
        assert!(eng.run().is_ok());
    }

    #[test]
    fn many_event_processes_scale_without_threads() {
        let counter = Arc::new(PMutex::new(0u64));
        let mut eng = Engine::new();
        for i in 0..4096u64 {
            let counter = Arc::clone(&counter);
            eng.spawn_process(format!("p{i}"), move |ctx| async move {
                for _ in 0..4 {
                    ctx.advance(SimTime::from_nanos(100 + i)).await;
                }
                *counter.lock() += 1;
            });
        }
        let rep = eng.run().unwrap();
        assert_eq!(*counter.lock(), 4096);
        assert_eq!(rep.processes, 4096);
    }

    #[test]
    fn park_until_times_out_without_waker() {
        let mut eng = Engine::new();
        eng.spawn_process("waiter", |ctx| async move {
            let woken = ctx.park_until(SimTime::from_micros(30)).await;
            assert!(!woken, "nobody woke us; must report timeout");
            assert_eq!(ctx.now(), SimTime::from_micros(30));
        });
        let rep = eng.run().unwrap();
        assert_eq!(rep.end_time, SimTime::from_micros(30));
    }

    #[test]
    fn park_until_woken_early_reports_wake() {
        let mut eng = Engine::new();
        let waiter = eng.spawn_process("waiter", |ctx| async move {
            let woken = ctx.park_until(SimTime::from_micros(100)).await;
            assert!(woken);
            assert_eq!(ctx.now(), SimTime::from_micros(20));
        });
        eng.spawn_process("waker", move |ctx| async move {
            ctx.advance(SimTime::from_micros(5)).await;
            ctx.wake_at(waiter, SimTime::from_micros(20));
        });
        let rep = eng.run().unwrap();
        assert_eq!(rep.end_time, SimTime::from_micros(20));
    }

    #[test]
    fn park_until_past_deadline_resumes_immediately() {
        let mut eng = Engine::new();
        eng.spawn_process("late", |ctx| async move {
            ctx.advance(SimTime::from_micros(50)).await;
            assert!(!ctx.park_until(SimTime::from_micros(10)).await);
            assert_eq!(ctx.now(), SimTime::from_micros(50));
        });
        assert!(eng.run().is_ok());
    }

    #[test]
    fn same_time_events_fire_in_insertion_order() {
        let trace = Arc::new(PMutex::new(Vec::new()));
        let mut eng = Engine::new();
        for name in ["first", "second", "third"] {
            let trace = Arc::clone(&trace);
            eng.spawn_process(name, move |ctx| async move {
                ctx.advance(SimTime::from_micros(1)).await;
                trace.lock().push(name);
            });
        }
        eng.run().unwrap();
        assert_eq!(*trace.lock(), vec!["first", "second", "third"]);
    }

    #[test]
    fn event_budget_exhaustion_is_typed_and_deterministic() {
        let run_with_budget = |budget: u64| {
            let mut eng = Engine::new();
            eng.set_event_budget(Some(budget));
            eng.spawn_process("spinner", |ctx| async move {
                loop {
                    ctx.advance(SimTime::from_micros(1)).await;
                }
            });
            eng.run()
        };
        // A process that never finishes would spin forever without the
        // budget; with it, the run aborts with a typed error.
        match run_with_budget(100) {
            Err(err @ SimError::EventBudgetExhausted { .. }) => {
                let SimError::EventBudgetExhausted { events, budget, ref parked, .. } = err else {
                    unreachable!()
                };
                assert_eq!(budget, 100);
                assert_eq!(events, 100);
                // The abort carries the same live-process diagnostic that
                // deadlock detection prints, annotated with each process's
                // scheduler status.
                assert_eq!(parked, &vec!["spinner (sleeping)".to_string()]);
                assert!(err.to_string().contains("live processes: spinner (sleeping)"));
                // Identical program + budget → identical abort point.
                assert_eq!(run_with_budget(100).unwrap_err().to_string(), err.to_string());
            }
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn generous_event_budget_changes_nothing() {
        let run = |budget: Option<u64>| {
            let mut eng = Engine::new().with_event_budget(budget);
            eng.spawn_process("p", |ctx| async move {
                for _ in 0..10 {
                    ctx.advance(SimTime::from_micros(3)).await;
                }
            });
            eng.run().unwrap()
        };
        let bounded = run(Some(1_000_000));
        let unbounded = run(None);
        assert_eq!(bounded, unbounded);
        assert_eq!(bounded.end_time, SimTime::from_micros(30));
    }

    #[test]
    fn tracing_observes_without_perturbing() {
        use crate::trace::RingRecorder;
        let run = |tracer: Option<Arc<RingRecorder>>| {
            let mut eng = Engine::new();
            if let Some(t) = &tracer {
                eng.set_tracer(t.clone());
            }
            let waiter = eng.spawn_process("waiter", |ctx| async move {
                ctx.park().await;
                ctx.advance(SimTime::from_micros(3)).await;
            });
            eng.spawn_process("waker", move |ctx| async move {
                ctx.advance(SimTime::from_micros(10)).await;
                ctx.wake_at(waiter, SimTime::from_micros(42));
            });
            eng.run().unwrap()
        };
        let rec = Arc::new(RingRecorder::with_capacity(64));
        let traced = run(Some(Arc::clone(&rec)));
        let untraced = run(None);
        assert_eq!(traced, untraced, "tracing must not perturb the simulation");

        let records = rec.drain();
        assert_eq!(rec.dropped(), 0);
        // Stamps: seq strictly increases, virtual time never goes backwards.
        for w in records.windows(2) {
            assert!(w[1].seq > w[0].seq);
            assert!(w[1].at >= w[0].at);
        }
        // Every engine-level lifecycle kind shows up for this program.
        let kinds: Vec<&str> = records.iter().map(|r| r.event.kind()).collect();
        for kind in
            ["proc_spawn", "proc_resume", "proc_sleep", "proc_park", "proc_wake", "proc_finish"]
        {
            assert!(kinds.contains(&kind), "missing {kind} in {kinds:?}");
        }
    }

    #[test]
    fn budget_exhaustion_is_traced() {
        use crate::trace::{RingRecorder, TraceEvent};
        let rec = Arc::new(RingRecorder::with_capacity(1024));
        let mut eng = Engine::new().with_tracer(rec.clone());
        eng.set_event_budget(Some(20));
        eng.spawn_process("spinner", |ctx| async move {
            loop {
                ctx.advance(SimTime::from_micros(1)).await;
            }
        });
        assert!(matches!(eng.run(), Err(SimError::EventBudgetExhausted { .. })));
        let records = rec.drain();
        assert!(records
            .iter()
            .any(|r| matches!(r.event, TraceEvent::BudgetExhausted { events: 20, budget: 20 })));
    }

    #[test]
    fn spawn_order_is_start_order() {
        let trace = Arc::new(PMutex::new(Vec::new()));
        let mut eng = Engine::new();
        for i in 0..4 {
            let trace = Arc::clone(&trace);
            eng.spawn_process(format!("p{i}"), move |_ctx| async move {
                trace.lock().push(i);
            });
        }
        eng.run().unwrap();
        assert_eq!(*trace.lock(), vec![0, 1, 2, 3]);
    }
}
