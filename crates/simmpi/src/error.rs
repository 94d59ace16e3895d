//! Typed errors for the simulated MPI runtime.
//!
//! The seed version of `run_mpi` could only fail with an engine error (or a
//! panic from `JobSpec::validate`'s stringly `Result`). Fault injection makes
//! failure a first-class outcome: a rank's node can crash mid-run, a lossy
//! link can defeat the bounded retransmit policy, and the caller must be able
//! to tell these apart from programming errors. [`MpiFault`] is that
//! vocabulary, and [`JobSpecError`] replaces the old `Result<(), String>`
//! validation.

use des::{SimError, SimTime};
use std::fmt;

/// Why a [`JobSpec`](crate::JobSpec) is not runnable.
///
/// Mirrors the checks the seed did with strings, plus the new resilience
/// fields (`node_map`, retry policy).
#[derive(Clone, Debug, PartialEq)]
pub enum JobSpecError {
    /// `ranks == 0`: a job must have at least one rank.
    NoRanks,
    /// The job needs more nodes than the topology provides.
    TooManyNodes {
        /// Nodes required by `ranks / ranks_per_node` (rounded up).
        needed: u32,
        /// Nodes the chosen topology actually has.
        available: u32,
    },
    /// `ranks_per_node == 0`.
    NoRanksPerNode,
    /// `node_map` must list exactly one physical node per logical node.
    NodeMapLength {
        /// Entries in the supplied map.
        got: usize,
        /// Logical nodes the job uses.
        expected: usize,
    },
    /// A `node_map` entry points outside the topology.
    NodeMapOutOfRange {
        /// The offending physical node id.
        node: u32,
        /// Nodes the topology has.
        available: u32,
    },
    /// Two logical nodes map to the same physical node.
    NodeMapDuplicate {
        /// The physical node mapped twice.
        node: u32,
    },
    /// Retry policy fields are out of range (zero base delay with retries,
    /// or a zero receive timeout).
    BadRetryPolicy {
        /// Human-readable description of the offending field.
        reason: &'static str,
    },
    /// `event_budget` is `Some(0)`: a zero budget can never dispatch even
    /// the ranks' start events, so the spec is unrunnable by construction.
    BadEventBudget,
}

impl fmt::Display for JobSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobSpecError::NoRanks => write!(f, "job needs at least one rank"),
            JobSpecError::TooManyNodes { needed, available } => {
                write!(f, "job needs {needed} nodes but the topology has only {available}")
            }
            JobSpecError::NoRanksPerNode => write!(f, "ranks_per_node must be at least 1"),
            JobSpecError::NodeMapLength { got, expected } => {
                write!(f, "node_map has {got} entries but the job uses {expected} logical nodes")
            }
            JobSpecError::NodeMapOutOfRange { node, available } => {
                write!(f, "node_map entry {node} is outside the topology ({available} nodes)")
            }
            JobSpecError::NodeMapDuplicate { node } => {
                write!(f, "node_map maps two logical nodes to physical node {node}")
            }
            JobSpecError::BadRetryPolicy { reason } => {
                write!(f, "invalid retry policy: {reason}")
            }
            JobSpecError::BadEventBudget => {
                write!(f, "event_budget must be positive when set")
            }
        }
    }
}

impl std::error::Error for JobSpecError {}

/// A failed simulated MPI run.
///
/// Returned by [`run_mpi`](crate::run_mpi). The first three variants are
/// *injected* faults surfacing at the application boundary; `Engine` wraps
/// simulator-level failures (deadlock, rank panic) unrelated to the fault
/// plan.
#[derive(Clone, Debug, PartialEq)]
pub enum MpiFault {
    /// A rank's node crashed (per the job's `FaultPlan`) while the rank was
    /// still participating in the run.
    RankDied {
        /// The logical rank that died.
        rank: u32,
        /// The physical node that crashed.
        node: u32,
        /// Virtual time of the crash.
        at: SimTime,
    },
    /// A communication did not complete within the retry/timeout policy:
    /// either retransmits were exhausted on a lossy link, or a receive
    /// timed out waiting for a message that never came.
    Timeout {
        /// The rank that gave up.
        rank: u32,
        /// The peer it was talking to, if known (`None` for wildcard recv).
        peer: Option<u32>,
        /// Virtual time at which it gave up.
        at: SimTime,
        /// Send attempts made (0 for a receive-side timeout).
        attempts: u32,
    },
    /// The job specification failed validation; nothing was simulated.
    InvalidSpec(JobSpecError),
    /// The simulation engine itself failed (deadlock, panic in a rank body).
    Engine(SimError),
}

impl MpiFault {
    /// Virtual time at which the fault surfaced, when it has one.
    pub fn at(&self) -> Option<SimTime> {
        match self {
            MpiFault::RankDied { at, .. } | MpiFault::Timeout { at, .. } => Some(*at),
            MpiFault::InvalidSpec(_) | MpiFault::Engine(_) => None,
        }
    }
}

impl fmt::Display for MpiFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiFault::RankDied { rank, node, at } => {
                write!(f, "rank {rank} died: node {node} crashed at {at}")
            }
            MpiFault::Timeout { rank, peer, at, attempts } => match peer {
                Some(p) => write!(
                    f,
                    "rank {rank} timed out talking to rank {p} at {at} after {attempts} attempt(s)"
                ),
                None => write!(f, "rank {rank} timed out at {at} after {attempts} attempt(s)"),
            },
            MpiFault::InvalidSpec(e) => write!(f, "invalid job spec: {e}"),
            MpiFault::Engine(e) => write!(f, "simulation error: {e}"),
        }
    }
}

impl std::error::Error for MpiFault {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpiFault::InvalidSpec(e) => Some(e),
            MpiFault::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<JobSpecError> for MpiFault {
    fn from(e: JobSpecError) -> Self {
        MpiFault::InvalidSpec(e)
    }
}

impl From<SimError> for MpiFault {
    fn from(e: SimError) -> Self {
        MpiFault::Engine(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let f = MpiFault::RankDied { rank: 3, node: 1, at: SimTime::from_millis(5) };
        let s = f.to_string();
        assert!(s.contains("rank 3") && s.contains("node 1"), "{s}");

        let f =
            MpiFault::Timeout { rank: 0, peer: Some(2), at: SimTime::from_secs(1), attempts: 13 };
        let s = f.to_string();
        assert!(s.contains("rank 2") && s.contains("13"), "{s}");

        let f = MpiFault::from(JobSpecError::TooManyNodes { needed: 9, available: 4 });
        assert!(f.to_string().contains("9 nodes"), "{f}");
    }

    #[test]
    fn fault_time_is_exposed_where_meaningful() {
        let t = SimTime::from_micros(7);
        assert_eq!(MpiFault::RankDied { rank: 0, node: 0, at: t }.at(), Some(t));
        assert_eq!(MpiFault::InvalidSpec(JobSpecError::NoRanks).at(), None);
    }
}
