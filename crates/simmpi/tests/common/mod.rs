//! Helpers shared by the sharded-execution test binaries.

use netsim::NetModel;
use simmpi::{run_mpi, JobSpec, MpiFault, MpiRun, Msg, ReduceOp};
use soc_arch::Platform;

/// A 16-rank event-network job on `shards` engine shards, the spec the
/// butterfly tests start from.
pub fn butterfly_spec(shards: Option<u32>) -> JobSpec {
    JobSpec::new(Platform::tegra2(), 16).with_net_model(Some(NetModel::Event)).with_shards(shards)
}

/// A butterfly exchange with per-round compute on `spec`: each round pairs
/// rank `r` with `r ^ 2^(round mod 4)`, so at 2 or 4 contiguous shards some
/// rounds are entirely intra-shard and some entirely cross-shard.
pub fn butterfly_job(spec: JobSpec) -> Result<MpiRun<u64>, MpiFault> {
    run_mpi(spec, |mut r| async move {
        let me = r.rank();
        let mut acc = me as u64;
        for round in 0..8u32 {
            let partner = me ^ (1 << (round % 4));
            r.compute_secs(2e-5).await;
            let payload = Msg::from_u64s(&[acc, round as u64]);
            if me < partner {
                r.send(partner, round, payload).await;
                acc += r.recv(partner, round).await.to_u64s()[0];
            } else {
                acc += r.recv(partner, round).await.to_u64s()[0];
                r.send(partner, round, payload).await;
            }
        }
        let sum = r.allreduce(ReduceOp::Sum, vec![acc as f64]).await;
        acc + sum[0] as u64
    })
}

/// The butterfly on [`butterfly_spec`]`(shards)`.
pub fn butterfly(shards: Option<u32>) -> MpiRun<u64> {
    butterfly_job(butterfly_spec(shards)).expect("butterfly job failed")
}

/// Every observable of two runs, compared field by field.
pub fn assert_runs_identical<R: std::fmt::Debug + PartialEq>(
    a: &MpiRun<R>,
    b: &MpiRun<R>,
    what: &str,
) {
    assert_eq!(a.elapsed, b.elapsed, "{what}: elapsed diverged");
    assert_eq!(a.results, b.results, "{what}: per-rank results diverged");
    assert_eq!(a.compute_busy, b.compute_busy, "{what}: compute tallies diverged");
    assert_eq!(a.comm_busy, b.comm_busy, "{what}: comm tallies diverged");
    assert_eq!(a.net.messages, b.net.messages, "{what}: message count diverged");
    assert_eq!(a.net.payload_bytes, b.net.payload_bytes, "{what}: payload bytes diverged");
    assert_eq!(a.net.retransmits, b.net.retransmits, "{what}: retransmit count diverged");
    assert_eq!(a.events, b.events, "{what}: dispatched-event count diverged");
}
