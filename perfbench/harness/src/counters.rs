//! A counting `des::Tracer`: installed with `simmpi::set_default_tracer`, it
//! counts the engine and message events each layer's per-layer metrics are
//! built from, and keeps nothing else.

use std::sync::atomic::{AtomicU64, Ordering};

use des::{TraceEvent, TraceFilter, TraceRecord, Tracer};

/// Event tallies since the tracer was installed. Each counter is a pure
/// statistic (it publishes no other data), hence `Relaxed`.
#[derive(Default)]
pub struct Counting {
    resumes: AtomicU64,
    parks: AtomicU64,
    msgs: AtomicU64,
    msg_bytes: AtomicU64,
    drops: AtomicU64,
    flows: AtomicU64,
    reshares: AtomicU64,
}

/// A snapshot of [`Counting`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// `ProcResume`: processes the DES scheduler handed control to.
    pub resumes: u64,
    /// `ProcPark`: processes that parked waiting for a peer.
    pub parks: u64,
    /// `MsgEnqueue`: messages entering a destination mailbox.
    pub msgs: u64,
    /// Payload bytes of those messages.
    pub msg_bytes: u64,
    /// `MsgDrop`: transmissions lost on a lossy link and retried.
    pub drops: u64,
    /// `FlowStart`: transfers entering the flow-level network model.
    pub flows: u64,
    /// `FlowReshare`: waiters woken by a bandwidth re-share.
    pub reshares: u64,
}

impl Counts {
    /// Element-wise `self - earlier`.
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts {
            resumes: self.resumes - earlier.resumes,
            parks: self.parks - earlier.parks,
            msgs: self.msgs - earlier.msgs,
            msg_bytes: self.msg_bytes - earlier.msg_bytes,
            drops: self.drops - earlier.drops,
            flows: self.flows - earlier.flows,
            reshares: self.reshares - earlier.reshares,
        }
    }
}

impl Counting {
    /// The current tallies.
    pub fn snapshot(&self) -> Counts {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        Counts {
            resumes: get(&self.resumes),
            parks: get(&self.parks),
            msgs: get(&self.msgs),
            msg_bytes: get(&self.msg_bytes),
            drops: get(&self.drops),
            flows: get(&self.flows),
            reshares: get(&self.reshares),
        }
    }
}

impl Tracer for Counting {
    fn record(&self, rec: TraceRecord) {
        let bump = |c: &AtomicU64, n: u64| {
            c.fetch_add(n, Ordering::Relaxed);
        };
        match rec.event {
            TraceEvent::ProcResume { .. } => bump(&self.resumes, 1),
            TraceEvent::ProcPark { .. } => bump(&self.parks, 1),
            TraceEvent::MsgEnqueue { bytes, .. } => {
                bump(&self.msgs, 1);
                bump(&self.msg_bytes, bytes);
            }
            TraceEvent::MsgDrop { .. } => bump(&self.drops, 1),
            TraceEvent::FlowStart { .. } => bump(&self.flows, 1),
            TraceEvent::FlowReshare { .. } => bump(&self.reshares, 1),
            _ => {}
        }
    }

    /// Process and message events only: span and fault events would cost
    /// construction time and feed no metric.
    fn interest(&self) -> TraceFilter {
        TraceFilter { procs: true, msgs: true, spans: false, faults: false }
    }
}
