//! # simmpi — a simulated MPI for the cluster experiments (§4)
//!
//! The paper runs MPI applications (MPICH2 / Open MPI over TCP/IP or
//! Open-MX) on ARM clusters. There is no MPI for this repository to bind to,
//! so `simmpi` provides the substitution: a rank-per-process message-passing
//! runtime where **communication time** comes from the calibrated `netsim`
//! models and **compute time** from the `soc-arch` roofline — while the
//! application code, message matching, collectives and payload data are all
//! real and run to completion. Each rank is an event-driven `des` process (a
//! stackless coroutine polled inline by the engine), so jobs with thousands
//! of ranks run in a single OS thread.
//!
//! Applications are `async` closures over [`Rank`]:
//!
//! ```
//! use simmpi::{run_mpi, JobSpec, Msg, ReduceOp};
//! use soc_arch::Platform;
//!
//! let spec = JobSpec::new(Platform::tegra2(), 4);
//! let run = run_mpi(spec, |mut rank| async move {
//!     let sum = rank.allreduce(ReduceOp::Sum, vec![rank.rank() as f64]).await;
//!     sum[0]
//! })
//! .unwrap();
//! assert!(run.results.iter().all(|&s| s == 6.0));
//! ```
//!
//! Determinism: the run is bit-reproducible (see the `des` crate docs);
//! `run_mpi` with the same spec and body always yields the same virtual
//! times and results.

#![warn(missing_docs)]

mod collectives;
mod error;
mod imb;
mod payload;
mod pingpong;
mod rank;
mod world;

pub use collectives::{ReduceOp, COLL_TAG_BASE};
pub use error::{JobSpecError, MpiFault};
pub use imb::{imb_collective, imb_rank_sweep, ImbOp, ImbPoint};
pub use netsim::NetModel;
pub use payload::Msg;
pub use pingpong::{large_sizes, pingpong, small_sizes, PingPongPoint};
pub use rank::{
    default_event_budget, default_net_model, default_tracer, run_mpi, set_default_ckpt_dir,
    set_default_ckpt_every, set_default_condemn_winddown, set_default_event_budget,
    set_default_net_model, set_default_shards, set_default_tracer, MpiRun, Rank,
};
pub use world::{JobSpec, NetStats, RetryPolicy};
