//! Tracing never changes a flow-model alltoall: the traced run takes the
//! same batched receive path as the untraced one, so every observable is
//! identical, and the trace still records each message's `flow_finish`
//! and `msg_deliver`.
//!
//! This test runs in its own process because it installs a process-wide
//! default tracer, which every concurrently starting job would snapshot.

use std::sync::Arc;

use des::{RingRecorder, TraceEvent};
use netsim::NetModel;
use simmpi::{run_mpi, JobSpec, MpiRun, Msg};
use soc_arch::Platform;

const RANKS: u32 = 12;
const ROUNDS: u32 = 3;

/// `ROUNDS` alltoalls of 4 KiB messages whose contents name sender, receiver
/// and round; each rank returns a checksum of what it received and when.
fn alltoall_rounds() -> MpiRun<u64> {
    let spec = JobSpec::new(Platform::tegra2(), RANKS).with_net_model(Some(NetModel::Flow));
    run_mpi(spec, |mut r| async move {
        let me = r.rank() as u64;
        let mut sum = 0u64;
        for round in 0..ROUNDS as u64 {
            let msgs = (0..r.size() as u64)
                .map(|j| Msg::from_u64s(&[(round * 100 + me) * 100 + j; 512]))
                .collect();
            let got = r.alltoall(msgs).await;
            for (src, m) in got.iter().enumerate() {
                assert_eq!(m.bytes, 4096);
                assert_eq!(m.to_u64s()[0], (round * 100 + src as u64) * 100 + me);
                sum = sum.wrapping_add(m.to_u64s()[0]);
            }
        }
        sum.wrapping_add(r.now().as_nanos())
    })
    .expect("flow alltoall failed")
}

#[test]
fn tracing_never_changes_a_flow_mode_alltoall() {
    simmpi::set_default_tracer(None);
    let untraced = alltoall_rounds();

    let rec = Arc::new(RingRecorder::with_capacity(1 << 16));
    simmpi::set_default_tracer(Some(rec.clone()));
    let traced = alltoall_rounds();
    simmpi::set_default_tracer(None);

    assert_eq!(traced.elapsed, untraced.elapsed, "elapsed changed under tracing");
    assert_eq!(traced.results, untraced.results, "results changed under tracing");
    assert_eq!(traced.compute_busy, untraced.compute_busy, "compute busy changed under tracing");
    assert_eq!(traced.comm_busy, untraced.comm_busy, "comm busy changed under tracing");
    assert_eq!(traced.net, untraced.net, "network stats changed under tracing");
    assert_eq!(traced.events, untraced.events, "event count changed under tracing");

    assert_eq!(rec.dropped(), 0, "the trace must fit the ring");
    let messages = (RANKS * (RANKS - 1) * ROUNDS) as usize;
    let records = rec.drain();
    let count = |want: fn(&TraceEvent) -> bool| records.iter().filter(|r| want(&r.event)).count();
    assert_eq!(count(|e| matches!(e, TraceEvent::FlowStart { .. })), messages);
    assert_eq!(count(|e| matches!(e, TraceEvent::FlowFinish { .. })), messages);
    assert_eq!(count(|e| matches!(e, TraceEvent::MsgDeliver { .. })), messages);
}
