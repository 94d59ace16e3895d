//! The contract of the setters kept only for `perfbench/harness`:
//! `set_default_shards`, `set_default_ckpt_every`, `set_default_ckpt_dir`
//! and `set_default_condemn_winddown` have no effect. A job and an artefact
//! run after calling them with non-default values are identical to runs
//! without the calls, and the checkpoint directory they name stays empty.
//!
//! This file is its own test binary, so the process-wide setters it calls
//! cannot reach jobs of other tests.

mod common;

use common::run_supervised;
use socready::harness::{RunPlan, RunScales, SweepConfig};
use socready::mpi::{self, MpiRun, NetModel};
use socready::prelude::*;

/// A small event-model job: every rank exchanges four rounds with its
/// mirror rank in the other half.
fn mirror_job() -> MpiRun<u64> {
    let spec = JobSpec::new(Platform::tegra2(), 8).with_net_model(Some(NetModel::Event));
    run_mpi(spec, |mut r: Rank| async move {
        let me = r.rank();
        let mirror = (me + r.size() / 2) % r.size();
        let mut acc = me as u64;
        for round in 0..4u32 {
            r.compute_secs(1e-6).await;
            let payload = Msg::from_u64s(&[acc]);
            if me < r.size() / 2 {
                r.send(mirror, round, payload).await;
                acc = acc.wrapping_add(r.recv(mirror, round).await.to_u64s()[0]);
            } else {
                acc = acc.wrapping_add(r.recv(mirror, round).await.to_u64s()[0]);
                r.send(mirror, round, payload).await;
            }
        }
        acc
    })
    .expect("mirror job failed")
}

#[test]
fn harness_setters_change_nothing() {
    let dir = std::env::temp_dir().join(format!("socready_shim_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let fig7 = || RunPlan::from_items(&["fig7".to_string()], &RunScales::golden());

    // The calls go first, so the timing cache cannot spare their runs any
    // engine work.
    mpi::set_default_shards(Some(4));
    mpi::set_default_ckpt_every(Some(1));
    mpi::set_default_ckpt_dir(Some(dir.clone()));
    mpi::set_default_condemn_winddown(true);
    let job = mirror_job();
    let (arts, _) = run_supervised(fig7(), &SweepConfig::serial());
    mpi::set_default_shards(None);
    mpi::set_default_ckpt_every(None);
    mpi::set_default_ckpt_dir(None);
    mpi::set_default_condemn_winddown(false);

    let want = mirror_job();
    assert_eq!(job.elapsed, want.elapsed, "elapsed changed");
    assert_eq!(job.results, want.results, "per-rank results changed");
    assert_eq!(job.compute_busy, want.compute_busy, "compute tallies changed");
    assert_eq!(job.comm_busy, want.comm_busy, "comm tallies changed");
    assert_eq!(job.net, want.net, "network statistics changed");
    assert_eq!(job.events, want.events, "dispatched-event count changed");

    let (want_arts, _) = run_supervised(fig7(), &SweepConfig::serial());
    assert_eq!(arts.len(), want_arts.len());
    for (a, b) in arts.iter().zip(&want_arts) {
        assert_eq!(a.key, b.key);
        assert_eq!(a.blocks, b.blocks, "{}: rendered text changed", a.key);
        assert_eq!(a.json, b.json, "{}: JSON bytes changed", a.key);
    }

    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
    assert!(written.is_empty(), "the checkpoint directory received {written:?}");
    std::fs::remove_dir_all(&dir).unwrap();
}
