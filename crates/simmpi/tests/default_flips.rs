//! Process-wide defaults are snapshotted when a job starts.
//!
//! This test runs in its own process: while it hammers `set_default_tracer`,
//! every job that starts anywhere in the process may snapshot a tracer and
//! so run on one engine, which would break other tests' "must actually run
//! sharded" checks.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use common::{assert_runs_identical, butterfly};
use netsim::NetModel;

#[test]
fn mid_run_default_flips_cannot_perturb_a_sharded_job() {
    // The shard-safety regression test: a sharded job snapshots every
    // process-wide default when it starts, so another thread hammering
    // `set_default_net_model` / `set_default_tracer` while the shards run
    // (the exact interference concurrent shards could otherwise cause)
    // must not change a single observable.
    let baseline = butterfly(Some(2));

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
        disturbed.push(butterfly(Some(2)));
    }
    stop.store(true, Ordering::Relaxed);
    flipper.join().expect("flipper thread panicked");
    simmpi::set_default_net_model(NetModel::Event);
    simmpi::set_default_tracer(None);

    for run in &disturbed {
        // `run.shards` may legitimately be 1 here: a flip that lands at the
        // instant the job starts is part of its snapshot (a default tracer
        // routes the job serial). What must never vary are the bytes.
        assert!(run.shards == 1 || run.shards == 2, "unexpected shard count {}", run.shards);
        assert_runs_identical(&baseline, run, "sharded run under default flips");
    }
}
