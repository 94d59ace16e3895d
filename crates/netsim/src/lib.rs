//! # netsim — interconnect models for the ARM cluster evaluation (§4.1)
//!
//! The paper's interconnect study compares the kernel TCP/IP stack with
//! Open-MX on 1 GbE, across two NIC attach paths (PCIe on the Tegra boards,
//! USB 3.0 on Arndale), and deploys a 192-node hierarchical tree (Tibidabo).
//! This crate models all three layers:
//!
//! * [`ProtocolModel`] / [`AttachModel`] / [`EndpointModel`] — per-message
//!   and per-byte software + attach costs, calibrated to every latency and
//!   bandwidth number in Fig 7 and §4.1 (validated by this crate's tests);
//! * [`Network`] / [`TopologySpec`] — links with reservation-based
//!   contention, star and Tibidabo-tree topologies, bisection limits;
//! * [`penalty`](crate::penalty()) — the §4.1 first-order estimate of how
//!   network latency inflates application execution time.
//!
//! ```
//! use netsim::{EndpointModel, ProtocolModel};
//! use soc_arch::Platform;
//! use des::SimTime;
//!
//! let ep = EndpointModel::for_platform(&Platform::tegra2(), 1.0);
//! let lat = ProtocolModel::open_mx()
//!     .one_way_time(&ep, &ep, SimTime::from_micros_f64(2.5), 125e6, 4);
//! assert!((lat.as_micros_f64() - 65.0).abs() < 7.0); // Fig 7(a)
//! ```

#![warn(missing_docs)]

mod eee;
mod flow;
pub(crate) mod penalty;
mod proto;
mod topology;

pub use eee::{eee_tradeoff, EeeModel, EeeTradeoffPoint};
pub use flow::{max_min_rates, FlowId, FlowNet, FlowStatus, NetModel};
pub use penalty::{penalty, penalty_table, snb_penalty, PenaltyRow, SNB_REFERENCE};
pub use proto::{AttachModel, EndpointModel, ProtocolModel};
pub use topology::{LossWindow, Network, TopologySpec};
