//! Process-wide defaults are snapshotted when a job starts.
//!
//! This test runs in its own process: while it hammers the process-wide
//! defaults, every job that starts anywhere in the process may snapshot a
//! flipped value, which would perturb other tests' jobs.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use netsim::NetModel;
use simmpi::{run_mpi, JobSpec, MpiRun, Msg, ReduceOp};
use soc_arch::Platform;

/// A 16-rank butterfly exchange with per-round compute, pinned to the
/// event network.
fn butterfly() -> MpiRun<u64> {
    let spec = JobSpec::new(Platform::tegra2(), 16).with_net_model(Some(NetModel::Event));
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
    .expect("butterfly job failed")
}

#[test]
fn mid_run_default_flips_cannot_perturb_a_running_job() {
    // A job snapshots every process-wide default when it starts, so another
    // thread hammering `set_default_net_model` / `set_default_tracer` while
    // the job runs must not change a single observable. The job pins its
    // net model, so a flip that lands as it starts cannot change its bytes
    // either (a default tracer only observes).
    let baseline = butterfly();

    let stop = Arc::new(AtomicBool::new(false));
    let flipper = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let tracer: Arc<dyn des::Tracer> = Arc::new(des::NullTracer);
            while !stop.load(Ordering::Relaxed) {
                simmpi::set_default_net_model(NetModel::Flow);
                simmpi::set_default_tracer(Some(Arc::clone(&tracer)));
                simmpi::set_default_net_model(NetModel::Event);
                simmpi::set_default_tracer(None);
            }
        })
    };
    let mut disturbed = Vec::new();
    for _ in 0..5 {
        disturbed.push(butterfly());
    }
    stop.store(true, Ordering::Relaxed);
    flipper.join().expect("flipper thread panicked");
    simmpi::set_default_net_model(NetModel::Event);
    simmpi::set_default_tracer(None);

    for run in &disturbed {
        assert_eq!(run.elapsed, baseline.elapsed, "elapsed diverged");
        assert_eq!(run.results, baseline.results, "per-rank results diverged");
        assert_eq!(run.compute_busy, baseline.compute_busy, "compute tallies diverged");
        assert_eq!(run.comm_busy, baseline.comm_busy, "comm tallies diverged");
        assert_eq!(run.net, baseline.net, "network statistics diverged");
        assert_eq!(run.events, baseline.events, "dispatched-event count diverged");
    }
}
