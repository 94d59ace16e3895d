//! Large-rank jobs: thousands of ranks as coroutine processes in one engine,
//! on one OS thread rather than one thread per rank, run in seconds inside
//! the ordinary test harness.

use simmpi::{run_mpi, JobSpec, Msg, ReduceOp};
use soc_arch::Platform;

fn spec(ranks: u32) -> JobSpec {
    JobSpec::new(Platform::tegra2(), ranks)
}

/// OS threads of the current process (Linux); `None` elsewhere.
fn os_threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("Threads:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn allreduce_at_1024_ranks() {
    let p = 1024u32;
    let run = run_mpi(spec(p), |mut r| async move {
        r.allreduce(ReduceOp::Sum, vec![r.rank() as f64]).await[0]
    })
    .unwrap();
    let expect = (p as f64 - 1.0) * p as f64 / 2.0;
    assert!(run.results.iter().all(|&v| v == expect), "allreduce wrong at {p} ranks");
}

#[test]
fn bcast_at_2048_ranks() {
    let p = 2048u32;
    let run = run_mpi(spec(p), |mut r| async move {
        let msg = (r.rank() == 0).then(|| Msg::from_u64s(&[0xC0FFEE]));
        r.bcast(0, msg).await.to_u64s()[0]
    })
    .unwrap();
    assert!(run.results.iter().all(|&v| v == 0xC0FFEE), "bcast wrong at {p} ranks");
}

#[test]
fn ping_ring_at_4096_ranks_with_bounded_threads() {
    // A token circumnavigates a 4096-rank ring: 4096 strictly sequential
    // point-to-point messages, each rank an event-driven process. The whole
    // job must fit in a bounded number of OS threads (the engine polls every
    // rank inline; only the harness's own threads exist).
    let p = 4096u32;
    let before = os_threads();
    let run = run_mpi(spec(p), |mut r| async move {
        let p = r.size();
        if r.rank() == 0 {
            r.send(1, 0, Msg::from_u64s(&[1])).await;
            r.recv(p - 1, 0).await.to_u64s()[0]
        } else {
            let hops = r.recv(r.rank() - 1, 0).await.to_u64s()[0];
            r.send((r.rank() + 1) % p, 0, Msg::from_u64s(&[hops + 1])).await;
            hops
        }
    })
    .unwrap();
    // Rank 0 receives the token after it crossed all 4096 hops.
    assert_eq!(run.results[0], p as u64);
    assert_eq!(run.net.messages, p as u64);
    if let (Some(b), Some(a)) = (before, os_threads()) {
        // No thread-per-rank: the job must not have grown the process by
        // anything near 4096 threads (allow slack for the test harness).
        assert!(a < b + 64, "thread count grew from {b} to {a}");
    }
}
