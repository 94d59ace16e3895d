//! Sharded-execution invariants at the `run_mpi` level.
//!
//! 1. A job run across N engine shards is **bit-identical** to the serial
//!    engine: virtual times, per-rank results and busy tallies, network
//!    stats, and even the dispatched-event count — on both the eager and
//!    the rendezvous protocol paths.
//! 2. Ineligible jobs (flow model, node maps) silently fall back to the
//!    serial engine with identical results.
//! 3. Schedules the reservation-order guard cannot prove serial-identical
//!    (e.g. wildcard receives) are condemned and recovered on one engine —
//!    same bytes, `MpiRun::shards == 1`, with the recovery re-certifying
//!    the condemned attempt's verified window checkpoints
//!    (`MpiRun::recovery`).
//! 4. On-disk checkpoints (`JobSpec::checkpoint_every` + `with_ckpt_dir`)
//!    let an identical later invocation certify a bit-identical resume.
//!
//! Every spec here pins `net_model` explicitly. No test in this binary
//! flips a default a concurrent test's job would snapshot; the mid-run
//! default-flip test lives in `default_flips.rs`, its own process, because
//! a default tracer routes every job that starts meanwhile to one engine.

mod common;

use std::sync::{Mutex, MutexGuard};

use common::{assert_runs_identical, butterfly, butterfly_job, butterfly_spec};
use netsim::NetModel;
use simmpi::{run_mpi, CondemnReason, JobSpec, MpiRun, Msg, ReduceOp};
use soc_arch::Platform;

/// Serialises the tests that can condemn a sharded run, read the
/// process-wide condemnation telemetry, or flip the wind-down default, so
/// their counter deltas are their own.
static CONDEMN_LOCK: Mutex<()> = Mutex::new(());

/// Take [`CONDEMN_LOCK`]. A test that fails while holding it poisons it;
/// the guard is recovered so that one failure reports once instead of
/// failing every later holder too.
fn condemn_lock() -> MutexGuard<'static, ()> {
    CONDEMN_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A rendezvous-sized (64 KiB > Open-MX's 32 KiB threshold) ping-pong
/// between the first and last rank — a guaranteed cross-shard pair under
/// any contiguous 2+-way partition. The middle ranks finish immediately,
/// which also exercises shards whose engines drain early while the run
/// continues elsewhere.
fn rendezvous_pingpong(shards: Option<u32>) -> MpiRun<u64> {
    let spec = JobSpec::new(Platform::tegra2(), 8)
        .with_proto(netsim::ProtocolModel::open_mx())
        .with_net_model(Some(NetModel::Event))
        .with_shards(shards);
    run_mpi(spec, |mut r| async move {
        let me = r.rank();
        let last = r.size() - 1;
        let big = Msg::size_only(64 * 1024);
        if me == 0 {
            for i in 0..3 {
                r.send(last, i, big.clone()).await;
                r.recv(last, i).await;
            }
        } else if me == last {
            for i in 0..3 {
                r.recv(0, i).await;
                r.send(0, i, big.clone()).await;
            }
        }
        r.now().as_nanos()
    })
    .expect("rendezvous job failed")
}

#[test]
fn sharded_eager_runs_are_bit_identical_to_serial() {
    let serial = butterfly(None);
    assert_eq!(serial.shards, 1);
    for n in [2u32, 4] {
        let sharded = butterfly(Some(n));
        assert_eq!(sharded.shards, n, "butterfly must actually run sharded");
        assert_runs_identical(&serial, &sharded, &format!("butterfly at {n} shards"));
    }
}

#[test]
fn sharded_rendezvous_runs_are_bit_identical_to_serial() {
    let serial = rendezvous_pingpong(None);
    for n in [2u32, 4] {
        let sharded = rendezvous_pingpong(Some(n));
        assert_eq!(sharded.shards, n, "ping-pong must actually run sharded");
        assert_runs_identical(&serial, &sharded, &format!("rendezvous at {n} shards"));
    }
}

#[test]
fn ineligible_jobs_fall_back_to_the_serial_engine() {
    // Flow-model jobs cannot shard (fluid flows couple all links); a shard
    // request must quietly run serial with identical results.
    let flow = |shards: Option<u32>| {
        let spec = JobSpec::new(Platform::tegra2(), 8)
            .with_net_model(Some(NetModel::Flow))
            .with_shards(shards);
        run_mpi(spec, |mut r| async move {
            let v = r.alltoall(vec![Msg::size_only(4096); 8]).await;
            r.barrier().await;
            v.len() as u64 + r.now().as_nanos()
        })
        .expect("flow job failed")
    };
    let flow_requested = flow(Some(4));
    assert_eq!(flow_requested.shards, 1, "flow-model jobs must stay serial");
    assert_runs_identical(&flow(None), &flow_requested, "flow-model fallback");

    // A node map (restart-on-spares placement) also pins the serial engine.
    let mapped = |shards: Option<u32>| {
        let spec = JobSpec::new(Platform::tegra2(), 4)
            .with_topology(netsim::TopologySpec::Star { nodes: 8 })
            .with_node_map(vec![7, 2, 5, 0])
            .with_net_model(Some(NetModel::Event))
            .with_shards(shards);
        run_mpi(spec, |mut r| async move {
            let sum = r.allreduce(ReduceOp::Sum, vec![r.rank() as f64]).await;
            sum[0] as u64
        })
        .expect("mapped job failed")
    };
    let mapped_requested = mapped(Some(2));
    assert_eq!(mapped_requested.shards, 1, "node-mapped jobs must stay serial");
    assert_runs_identical(&mapped(None), &mapped_requested, "node-map fallback");
}

#[test]
fn inexact_schedules_recover_serially_with_identical_bytes() {
    let _guard = condemn_lock();
    // A wildcard receive matches on mailbox arrival order, which a windowed
    // run reorders around barriers: the reservation guard condemns the
    // schedule at the next barrier and the job is recovered on one engine —
    // same bytes in every observable, `shards == 1`, with the typed
    // condemnation reason reported in `MpiRun::recovery`.
    let gather = |shards: Option<u32>| {
        let spec = JobSpec::new(Platform::tegra2(), 4)
            .with_net_model(Some(NetModel::Event))
            .with_shards(shards);
        run_mpi(spec, |mut r| async move {
            let me = r.rank();
            if me == 0 {
                let mut seen = 0u64;
                for _ in 0..3 {
                    let (src, _, _) = r.recv_any(9).await;
                    seen = seen * 10 + src as u64;
                }
                seen
            } else {
                r.compute_secs(1e-6 * me as f64).await;
                r.send(0, 9, Msg::from_u64s(&[me as u64])).await;
                me as u64
            }
        })
        .expect("gather job failed")
    };
    let serial = gather(None);
    assert_eq!(serial.shards, 1);
    assert!(serial.recovery.is_none(), "a serial run is never condemned");
    let requested = gather(Some(2));
    assert_eq!(requested.shards, 1, "condemned schedule must recover serially");
    assert_runs_identical(&serial, &requested, "wildcard-recv fallback");
    let rec = requested.recovery.as_ref().expect("condemned run must report its recovery");
    assert_eq!(rec.reason, CondemnReason::WildcardRecv, "wrong condemnation reason: {rec:?}");
    assert_eq!(
        rec.windows_verified, rec.windows_recorded,
        "every checkpoint the condemned attempt verified must re-certify: {rec:?}"
    );
}

#[test]
fn condemned_runs_recover_from_verified_checkpoints() {
    let _guard = condemn_lock();
    // Force a condemnation at window 3 of an otherwise exact sharded
    // schedule: the attempt must abort at that barrier (not wind down),
    // and the serial recovery must re-certify both earlier window
    // checkpoints before producing bytes identical to the serial engine's.
    let serial = butterfly(None);
    let condemn = |shards| {
        butterfly_job(butterfly_spec(shards).with_condemn_at_window(Some(3)))
            .expect("condemned butterfly failed")
    };
    let before = simmpi::condemn_telemetry();
    let recovered = condemn(Some(2));
    let delta = simmpi::condemn_telemetry().since(&before);
    assert_eq!(recovered.shards, 1, "condemned schedule must recover serially");
    assert_runs_identical(&serial, &recovered, "forced condemnation at 2 shards");
    let rec = recovered.recovery.as_ref().expect("condemned run must report its recovery");
    assert_eq!(rec.reason, CondemnReason::Forced);
    assert_eq!(rec.condemned_window, 3, "trip was forced at window 3: {rec:?}");
    assert_eq!(rec.windows_recorded, 2, "windows 1 and 2 were verified-clean: {rec:?}");
    assert_eq!(rec.windows_verified, 2, "recovery must re-certify both checkpoints: {rec:?}");
    assert!(rec.condemned_events > 0 && rec.condemned_events < serial.events);
    assert_eq!(delta.condemned_runs, 1);
    assert_eq!(delta.windows_recorded, 2);
    assert_eq!(delta.windows_verified, 2);

    // A serial run ignores the condemnation knob entirely.
    let serial_with_knob = condemn(None);
    assert!(serial_with_knob.recovery.is_none());
    assert_runs_identical(&serial, &serial_with_knob, "condemn knob on the serial engine");
}

#[test]
fn legacy_winddown_recovers_with_a_full_rerun() {
    let _guard = condemn_lock();
    // The ablation path scale_bench measures against: a condemned schedule
    // winds down instead of aborting, records no usable checkpoints, and
    // the job reruns serially from scratch — bytes still identical.
    let serial = butterfly(None);
    simmpi::set_default_condemn_winddown(true);
    let legacy = butterfly_job(butterfly_spec(Some(2)).with_condemn_at_window(Some(3)));
    simmpi::set_default_condemn_winddown(false);
    let legacy = legacy.expect("legacy wind-down run failed");
    assert_eq!(legacy.shards, 1);
    assert_runs_identical(&serial, &legacy, "legacy wind-down recovery");
    let rec = legacy.recovery.as_ref().expect("legacy path must still report the condemnation");
    assert_eq!(rec.reason, CondemnReason::Forced);
    assert_eq!(rec.windows_recorded, 0, "legacy recovery certifies nothing: {rec:?}");
    assert_eq!(rec.windows_verified, 0);
}

#[test]
fn on_disk_checkpoints_certify_a_bit_identical_resume() {
    let _guard = condemn_lock();
    let dir = std::env::temp_dir().join(format!("simmpi_ckpt_resume_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    let job = || {
        let spec =
            butterfly_spec(Some(2)).checkpoint_every(Some(2)).with_ckpt_dir(Some(dir.clone()));
        butterfly_job(spec).expect("checkpointed job failed")
    };

    let before = simmpi::condemn_telemetry();
    let first = job();
    let mid = simmpi::condemn_telemetry();
    assert_eq!(first.shards, 2, "checkpointed job must actually run sharded");
    assert!(
        mid.since(&before).ckpts_written >= 1,
        "the first run must persist at least one fsync'd checkpoint"
    );
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("read checkpoint dir")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "ckpt"))
        .collect();
    assert_eq!(files.len(), 1, "one job, one fingerprint-named checkpoint file");

    // An identical invocation loads the checkpoint and certifies that its
    // replay reproduced the recorded per-engine state bit-for-bit.
    let second = job();
    let delta = simmpi::condemn_telemetry().since(&mid);
    assert_eq!(delta.resumed_verified, 1, "resume must certify against the on-disk checkpoint");
    assert_runs_identical(&first, &second, "resumed run");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn recovery_replay_failures_name_the_verified_checkpoint_count() {
    let _guard = condemn_lock();
    // A job that deadlocks *after* its cross-shard phase: the forced trip at
    // window 2 condemns the sharded attempt first, so the deadlock surfaces
    // inside the serial recovery replay — and its parked-process diagnostics
    // must carry the replay context (checkpoints re-certified so far).
    let spec = JobSpec::new(Platform::tegra2(), 8)
        .with_net_model(Some(NetModel::Event))
        .with_shards(Some(2))
        .with_condemn_at_window(Some(2));
    let err = run_mpi(spec, |mut r| async move {
        let me = r.rank();
        let half = r.size() / 2;
        for round in 0..3u32 {
            let partner = (me + half) % r.size();
            r.compute_secs(1e-6).await;
            let payload = Msg::from_u64s(&[me as u64, round as u64]);
            if me < half {
                r.send(partner, round, payload).await;
                r.recv(partner, round).await;
            } else {
                r.recv(partner, round).await;
                r.send(partner, round, payload).await;
            }
        }
        if me == 0 {
            // Tag 99 is never sent: rank 0 parks forever.
            r.recv(1, 99).await;
        }
        me as u64
    })
    .expect_err("a recv nobody matches must deadlock");
    match err {
        simmpi::MpiFault::Engine(des::SimError::Deadlock { ref parked, .. }) => {
            assert!(
                parked.iter().any(|n| n.contains("[recovery replay, verified ckpt ")),
                "deadlock inside the recovery replay must be annotated with \
                 the re-certified checkpoint count: {parked:?}"
            );
        }
        other => panic!("expected an annotated recovery deadlock, got {other:?}"),
    }
}

#[test]
fn zero_shards_is_an_invalid_spec() {
    let spec = JobSpec::new(Platform::tegra2(), 4).with_shards(Some(0));
    let err = run_mpi(spec, |_r| async move { 0u32 }).unwrap_err();
    assert!(
        matches!(err, simmpi::MpiFault::InvalidSpec(simmpi::JobSpecError::BadShards)),
        "expected BadShards, got {err:?}"
    );
}
