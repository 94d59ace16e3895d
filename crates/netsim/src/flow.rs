//! Flow-level fair-sharing network model (the fast path).
//!
//! The event-level model in [`topology`](crate::Network) charges every
//! message a store-and-forward reservation on each link of its route. That
//! is accurate but makes *messages* the unit of simulation work: dense
//! collective phases cost O(messages) scheduler events. This module models
//! the same link graph as a **fluid network**: each in-flight transfer is a
//! *flow* with a bandwidth share computed by progressive-filling **max-min
//! fairness** over the links it crosses, and the only state transitions are
//! flow starts, flow finishes, and the rate re-shares they trigger. A dense
//! phase with thousands of concurrent messages advances in O(flow
//! transitions) instead of O(messages × hops).
//!
//! The allocator is the textbook water-filling algorithm: repeatedly find
//! the most-contended link (smallest `capacity / flows-crossing-it`), freeze
//! every flow through it at that fair share, subtract the frozen bandwidth,
//! and repeat until every flow is frozen. The result is the unique max-min
//! fair allocation: no flow can gain rate without taking it from a flow of
//! equal or smaller rate, and every flow is bottlenecked by at least one
//! saturated link (`tests/properties.rs` pins these invariants).
//!
//! Everything is deterministic: flows live in id order, the allocator
//! iterates in fixed order, and all times are rounded up to the engine's
//! integer nanoseconds, so flow-model runs are bit-reproducible.
//!
//! Which model a simulation uses is chosen per experiment through
//! [`NetModel`]; the `simmpi` runtime keeps both transports behind one
//! rank-facing API and the accuracy trade is quantified by the
//! `repro --ablate-net` harness.

use std::collections::VecDeque;

use des::SimTime;

use crate::topology::{Network, TopologySpec};

/// Which network model a simulation uses for data transfers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum NetModel {
    /// Per-message store-and-forward events with link reservations
    /// ([`Network::transmit`]). The reference model; the default.
    #[default]
    Event,
    /// Flow-level max-min fair sharing ([`FlowNet`]): whole transfers
    /// advance as fluid flows, trading per-message contention detail for
    /// O(flow transitions) simulation cost.
    Flow,
}

impl NetModel {
    /// Parse a CLI-facing model name (`"event"` or `"flow"`).
    pub fn parse(s: &str) -> Result<NetModel, String> {
        match s {
            "event" => Ok(NetModel::Event),
            "flow" => Ok(NetModel::Flow),
            other => Err(format!("unknown network model '{other}' (expected event or flow)")),
        }
    }

    /// The CLI-facing name (`"event"` / `"flow"`).
    pub fn name(self) -> &'static str {
        match self {
            NetModel::Event => "event",
            NetModel::Flow => "flow",
        }
    }
}

/// Identifier of one flow inside a [`FlowNet`], unique per network instance.
pub type FlowId = u64;

/// What [`FlowNet::poll`] reports about a flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlowStatus {
    /// The flow's last byte cleared the network at `at` (`at <= now`). The
    /// record stays until [`FlowNet::consume`] removes it.
    Done {
        /// Completion time of the transfer.
        at: SimTime,
    },
    /// Still transferring (or not yet started). Nothing about this flow can
    /// change before `wake`: it is the earliest transition (any flow's start
    /// or finish) in the whole network, so a waiter that re-polls at `wake`
    /// observes every re-share exactly.
    InFlight {
        /// Earliest next flow transition anywhere in the network
        /// (strictly after the poll's `now`).
        wake: SimTime,
        /// Concurrent flows currently sharing the network (diagnostic, for
        /// re-share trace events).
        flows: usize,
    },
}

/// A flow's completion-threshold slack in bytes: transitions are rounded up
/// to whole nanoseconds, so a "finished" flow's residual is at most one
/// nanosecond of its rate below zero plus float noise.
const DONE_EPS_BYTES: f64 = 1e-6;

/// A flow's route stored inline: at most 4 link indices (see
/// [`Network::route_arr`]), so starting a flow allocates nothing.
#[derive(Clone, Copy, Debug)]
struct Route {
    links: [u32; 4],
    len: u8,
}

impl AsRef<[u32]> for Route {
    fn as_ref(&self) -> &[u32] {
        &self.links[..self.len as usize]
    }
}

#[derive(Clone, Debug)]
struct Flow {
    route: Route,
    remaining: f64,
    rate: f64,
    /// The flow transfers no bytes before this instant (a rendezvous bulk
    /// transfer is registered by the receiver before its departure time).
    starts_at: SimTime,
}

/// One slab entry of the flow table, indexed by `FlowId - base`.
#[derive(Clone, Debug)]
enum Slot {
    /// Registered (pending or transferring).
    InFlight(Flow),
    /// Last byte cleared the network at the recorded instant; the record
    /// stays until [`FlowNet::consume`].
    Done(SimTime),
    /// Consumed; the slab trims these off its front.
    Consumed,
}

/// The fluid network: the same topology and link capacities as the
/// event-level [`Network`], advancing whole flows under max-min fair
/// bandwidth sharing.
///
/// State only ever moves forward: every operation takes the caller's current
/// virtual time and first *settles* the network — processing all flow starts
/// and finishes up to that instant, re-sharing bandwidth at each — so rates
/// are exact piecewise constants between transitions.
#[derive(Clone, Debug)]
pub struct FlowNet {
    net: Network,
    now: SimTime,
    /// Flow id of `slots[0]`; ids are issued sequentially and the slab's
    /// consumed prefix is trimmed, so lookups are O(1) array indexing and
    /// memory is bounded by the unconsumed window, not flow history.
    base: FlowId,
    slots: VecDeque<Slot>,
    /// Ids of the [`Slot::InFlight`] flows, ascending (iteration order for
    /// every fluid pass — identical to the id-ordered map it replaces).
    live: Vec<FlowId>,
    /// Rates are stale: flows were added at the current instant without
    /// re-sharing. Recomputed lazily ([`FlowNet::flush_rates`]) before any
    /// fluid advance or wake estimate, so a batch of N starts at one instant
    /// costs one allocation pass instead of N.
    dirty: bool,
    /// Memoized [`FlowNet::next_transition`]: the network is piecewise
    /// constant between mutations, so every poll at a settled state sees the
    /// same earliest transition. `None` = stale (recompute on next use).
    next_memo: Option<Option<SimTime>>,
    /// Capacity of every link, bytes/s.
    caps: Vec<f64>,
    /// Started flows crossing each link. Derived from the flow table (so
    /// not fingerprinted); it tells a re-share which changes sit on
    /// otherwise idle links.
    load: Vec<u32>,
    /// Flows that started since the last re-share.
    joined: Vec<FlowId>,
    /// A flow finished since the last re-share while another started flow
    /// still crossed one of its links.
    left_busy: bool,
    /// Reusable re-share scratch: the started flows and their routes in id
    /// order, and the progressive-filling state.
    started: Vec<FlowId>,
    routes: Vec<Route>,
    fill: Fill,
    /// Re-shares since construction: full max-min solves and idle-link
    /// shortcuts (diagnostic; not part of the fluid state).
    solves: u64,
    shortcuts: u64,
}

impl FlowNet {
    /// Build a fluid network over the same link graph as
    /// [`Network::new`]`(spec, link_bw_bytes, link_latency)`.
    pub fn new(spec: TopologySpec, link_bw_bytes: f64, link_latency: SimTime) -> FlowNet {
        let net = Network::new(spec, link_bw_bytes, link_latency);
        let links = net.num_links();
        FlowNet {
            net,
            now: SimTime::ZERO,
            base: 0,
            slots: VecDeque::new(),
            live: Vec::new(),
            dirty: false,
            next_memo: None,
            caps: vec![link_bw_bytes; links],
            load: vec![0; links],
            joined: Vec::new(),
            left_busy: false,
            started: Vec::new(),
            routes: Vec::new(),
            fill: Fill::new(links),
            solves: 0,
            shortcuts: 0,
        }
    }

    /// Total path latency between two nodes (same as the event model's).
    pub fn path_latency(&self, src: u32, dst: u32) -> SimTime {
        self.net.path_latency(src, dst)
    }

    /// Number of flows currently registered (in flight or not yet started).
    pub fn active(&self) -> usize {
        self.live.len()
    }

    /// Re-shares so far as `(full max-min solves, idle-link shortcuts)`.
    pub fn reshare_counts(&self) -> (u64, u64) {
        (self.solves, self.shortcuts)
    }

    /// Slab index of `id`, asserting the flow is known (registered and not
    /// yet consumed).
    fn index(&self, id: FlowId) -> usize {
        assert!(
            id >= self.base && id - self.base < self.slots.len() as u64,
            "poll of unknown flow {id}"
        );
        (id - self.base) as usize
    }

    /// Register a transfer of `wire_bytes` from node `src` to node `dst`,
    /// departing at `depart` (`>= now`; the transfer consumes no bandwidth
    /// before then). Returns the flow's id; track it with [`FlowNet::poll`].
    ///
    /// `src == dst` never crosses a link — callers model loopback
    /// themselves, as with [`Network::transmit`].
    pub fn start(
        &mut self,
        now: SimTime,
        depart: SimTime,
        src: u32,
        dst: u32,
        wire_bytes: u64,
    ) -> FlowId {
        assert!(src != dst, "loopback transfers do not use the flow network");
        self.settle(now);
        let id = self.base + self.slots.len() as u64;
        let (links, len) = self.net.route_arr(src, dst);
        let route = Route { links, len };
        let starts_at = depart.max(self.now);
        self.slots.push_back(Slot::InFlight(Flow {
            route,
            remaining: (wire_bytes as f64).max(1.0),
            rate: 0.0,
            starts_at,
        }));
        self.live.push(id);
        self.next_memo = None;
        if starts_at <= self.now {
            // Re-share lazily: no simulated time can pass before the next
            // settle/poll flushes, and a dense collective starts thousands of
            // flows at one instant.
            join(&mut self.load, &mut self.joined, id, &route);
            self.dirty = true;
        }
        id
    }

    /// Advance the network to `now` and report the flow's status.
    pub fn poll(&mut self, now: SimTime, id: FlowId) -> FlowStatus {
        self.settle(now);
        match self.slots[self.index(id)] {
            Slot::Done(at) => FlowStatus::Done { at },
            Slot::Consumed => panic!("poll of consumed flow {id}"),
            Slot::InFlight(_) => {
                self.flush_rates();
                let wake =
                    self.next_transition().expect("in-flight flow implies a next transition");
                debug_assert!(wake > self.now);
                FlowStatus::InFlight { wake, flows: self.live.len() }
            }
        }
    }

    /// Drop a completed flow's record (after its delivery is consumed).
    pub fn consume(&mut self, id: FlowId) {
        let idx = self.index(id);
        debug_assert!(matches!(self.slots[idx], Slot::Done(_)), "consume of unfinished flow {id}");
        self.slots[idx] = Slot::Consumed;
        while matches!(self.slots.front(), Some(Slot::Consumed)) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Earliest future transition: the first flow start or estimated finish.
    /// O(flows) on a stale memo, O(1) on every re-poll of a settled state.
    fn next_transition(&mut self) -> Option<SimTime> {
        if let Some(memo) = self.next_memo {
            return memo;
        }
        let now = self.now;
        let base = self.base;
        let next = self
            .live
            .iter()
            .map(|&id| {
                let Slot::InFlight(f) = &self.slots[(id - base) as usize] else {
                    unreachable!("live list holds only in-flight flows")
                };
                if f.starts_at > now {
                    f.starts_at
                } else {
                    eta(now, f.remaining, f.rate)
                }
            })
            .min();
        self.next_memo = Some(next);
        next
    }

    /// Process every transition up to `to`, re-sharing bandwidth at each,
    /// then advance the fluid state to exactly `to`.
    fn settle(&mut self, to: SimTime) {
        if to <= self.now {
            // Settles are driven by engine-ordered events; a caller can at
            // most be concurrent with the last settle, never earlier. At the
            // current instant there is nothing to do: every transition (a
            // pending start or a finish eta) is strictly in the future.
            debug_assert!(to == self.now, "flow network settled backwards");
            return;
        }
        // Fluid time is about to advance: stale rates must be re-shared
        // first so the interval drains at the true allocation.
        self.flush_rates();
        while let Some(t) = self.next_transition() {
            if t > to {
                break;
            }
            self.advance_fluid(t);
            // Finishes move drained flows out; deferred starts activate.
            // Several transitions at one instant re-share once, not once each.
            let FlowNet {
                ref mut live,
                ref mut slots,
                ref mut load,
                ref mut joined,
                ref mut left_busy,
                base,
                now,
                ..
            } = *self;
            live.retain(|&id| {
                let slot = &mut slots[(id - base) as usize];
                let Slot::InFlight(f) = slot else {
                    unreachable!("live list holds only in-flight flows")
                };
                if f.starts_at == now {
                    join(load, joined, id, &f.route);
                } else if f.starts_at < now && f.remaining <= DONE_EPS_BYTES {
                    for &l in f.route.as_ref() {
                        load[l as usize] -= 1;
                        *left_busy |= load[l as usize] > 0;
                    }
                    *slot = Slot::Done(now);
                    return false;
                }
                true
            });
            self.reallocate();
        }
        self.advance_fluid(to);
    }

    /// Drain bytes at the current rates up to `to` (no transitions inside).
    fn advance_fluid(&mut self, to: SimTime) {
        let dt = (to - self.now).as_secs_f64();
        if dt > 0.0 {
            let FlowNet { ref live, ref mut slots, base, now, .. } = *self;
            for &id in live {
                let Slot::InFlight(f) = &mut slots[(id - base) as usize] else {
                    unreachable!("live list holds only in-flight flows")
                };
                if f.starts_at <= now {
                    f.remaining -= f.rate * dt;
                }
            }
            self.next_memo = None;
        }
        self.now = to;
    }

    /// Re-share if rates are stale ([`FlowNet::dirty`]).
    fn flush_rates(&mut self) {
        if self.dirty {
            self.reallocate();
        }
    }

    /// Bring every started flow's rate to its max-min fair share after the
    /// starts and finishes since the last re-share (`joined`, `left_busy`).
    ///
    /// When every change sits on otherwise idle links — each joined flow is
    /// alone on all its links, each finished flow was alone on all of its —
    /// no solve runs: the joined flows get the full link rate and nothing
    /// else moves. That is exactly what the full fill computes. A flow alone
    /// on its links keeps `cap / 1 = cap` there, so it freezes at `cap` bit
    /// for bit. Flows on disjoint links share no `cap_left` or `crossing`
    /// entry with it, so its freeze never changes theirs; at most it inserts
    /// a round of its own (when `cap` is the smallest share) that freezes no
    /// one else. Adding or removing such a flow therefore moves no other
    /// rate. Any other change runs one full fill over the started flows.
    fn reallocate(&mut self) {
        self.dirty = false;
        self.next_memo = None;
        let base = self.base;
        let load = &self.load;
        let idle = !self.left_busy
            && self.joined.iter().all(|&id| {
                let Slot::InFlight(f) = &self.slots[(id - base) as usize] else {
                    unreachable!("joined flow is in flight")
                };
                f.route.as_ref().iter().all(|&l| load[l as usize] == 1)
            });
        if idle {
            self.shortcuts += 1;
            for &id in &self.joined {
                let Slot::InFlight(f) = &mut self.slots[(id - base) as usize] else {
                    unreachable!("joined flow is in flight")
                };
                f.rate = self.net.link_bw_bytes;
            }
        } else {
            self.solves += 1;
            let FlowNet { ref live, ref mut slots, ref mut started, ref mut routes, now, .. } =
                *self;
            started.clear();
            routes.clear();
            for &id in live {
                let Slot::InFlight(f) = &slots[(id - base) as usize] else {
                    unreachable!("live list holds only in-flight flows")
                };
                if f.starts_at <= now {
                    started.push(id);
                    routes.push(f.route);
                }
            }
            self.fill.run(&self.caps, routes);
            for (&id, &rate) in started.iter().zip(&self.fill.rates) {
                let Slot::InFlight(f) = &mut slots[(id - base) as usize] else {
                    unreachable!("started flow is in flight")
                };
                f.rate = rate;
            }
        }
        self.joined.clear();
        self.left_busy = false;
    }
}

/// Count a newly started flow on its links and queue it for the next
/// re-share.
fn join(load: &mut [u32], joined: &mut Vec<FlowId>, id: FlowId, route: &Route) {
    for &l in route.as_ref() {
        load[l as usize] += 1;
    }
    joined.push(id);
}

/// Estimated finish of a flow at constant `rate`, rounded **up** to the next
/// nanosecond so the fluid state never observes a flow before its last byte.
fn eta(now: SimTime, remaining: f64, rate: f64) -> SimTime {
    if rate <= 0.0 {
        return SimTime::MAX;
    }
    let ns = (remaining / rate * 1e9).ceil();
    if !ns.is_finite() || ns >= u64::MAX as f64 {
        return SimTime::MAX;
    }
    now + SimTime::from_nanos((ns as u64).max(1))
}

/// Progressive-filling max-min fair allocation.
///
/// `caps[l]` is link `l`'s capacity (bytes/s); `routes[f]` lists the links
/// flow `f` crosses (non-empty). Returns one fair rate per flow. Invariants
/// (property-tested in `tests/properties.rs`): no link's capacity is
/// exceeded, every flow is bottlenecked by at least one saturated link, and
/// each saturated link's capacity is fully handed out. Adding a flow never
/// raises the minimum rate, nor any rate when every route crosses one link.
/// It *can* raise another flow's rate on multi-link routes (indirect
/// relief): the newcomer squeezes a flow on one link, which frees capacity
/// for a third flow on another.
pub fn max_min_rates(caps: &[f64], routes: &[Vec<usize>]) -> Vec<f64> {
    let routes32: Vec<Vec<u32>> =
        routes.iter().map(|r| r.iter().map(|&l| l as u32).collect()).collect();
    let mut fill = Fill::new(caps.len());
    fill.run(caps, &routes32);
    fill.rates
}

/// Progressive-filling scratch, sized to the link graph once and reused by
/// every re-share, so a fill allocates nothing and visits only the links its
/// flows cross.
#[derive(Clone, Debug)]
struct Fill {
    /// Capacity left on each link; meaningful on `touched` links only.
    cap_left: Vec<f64>,
    /// Unfrozen flows crossing each link; all zero between fills.
    crossing: Vec<u32>,
    /// Links the current fill's flows cross.
    touched: Vec<u32>,
    frozen: Vec<bool>,
    /// The last fill's result: one fair rate per route.
    rates: Vec<f64>,
}

impl Fill {
    fn new(links: usize) -> Fill {
        Fill {
            cap_left: vec![0.0; links],
            crossing: vec![0; links],
            touched: Vec::new(),
            frozen: Vec::new(),
            rates: Vec::new(),
        }
    }

    /// Set `self.rates` to the max-min fair rate of every route (the
    /// [`max_min_rates`] contract).
    fn run<R: AsRef<[u32]>>(&mut self, caps: &[f64], routes: &[R]) {
        let Fill { cap_left, crossing, touched, frozen, rates } = self;
        rates.clear();
        rates.resize(routes.len(), 0.0);
        frozen.clear();
        frozen.resize(routes.len(), false);
        touched.clear();
        // Plain slices from here on: the hot loops then keep every base
        // pointer in a register instead of reloading it through `self`.
        let (cap_left, crossing, frozen, rates) =
            (&mut cap_left[..], &mut crossing[..], &mut frozen[..], &mut rates[..]);
        for r in routes {
            let r = r.as_ref();
            debug_assert!(!r.is_empty(), "flows must cross at least one link");
            for &l in r {
                let l = l as usize;
                if crossing[l] == 0 {
                    touched.push(l as u32);
                    cap_left[l] = caps[l];
                }
                crossing[l] += 1;
            }
        }
        let mut unfrozen = routes.len();
        while unfrozen > 0 {
            // The most contended link sets this round's fair share. Every
            // candidate is a non-negative, non-NaN quotient that is never
            // negative zero, so the minimum does not depend on link order.
            let mut share = f64::INFINITY;
            for &l in touched.iter() {
                let n = crossing[l as usize];
                if n > 0 {
                    share = share.min(cap_left[l as usize].max(0.0) / n as f64);
                }
            }
            // Freeze every flow crossing a link at that share. At least the
            // arg-min link's flows freeze (its computed share equals `share`
            // bit-for-bit), so each round strictly shrinks the unfrozen set.
            for (f, route) in routes.iter().enumerate() {
                if frozen[f] {
                    continue;
                }
                let route = route.as_ref();
                let bottlenecked = route
                    .iter()
                    .any(|&l| cap_left[l as usize].max(0.0) / crossing[l as usize] as f64 <= share);
                if bottlenecked {
                    rates[f] = share;
                    frozen[f] = true;
                    unfrozen -= 1;
                    for &l in route {
                        cap_left[l as usize] -= share;
                        crossing[l as usize] -= 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBE: f64 = 125e6;
    const LAT: SimTime = SimTime::from_micros(1);

    fn star(nodes: u32) -> FlowNet {
        FlowNet::new(TopologySpec::Star { nodes }, GBE, LAT)
    }

    fn finish(net: &mut FlowNet, id: FlowId) -> SimTime {
        let mut now = net.now;
        loop {
            match net.poll(now, id) {
                FlowStatus::Done { at } => {
                    net.consume(id);
                    return at;
                }
                FlowStatus::InFlight { wake, .. } => now = wake,
            }
        }
    }

    #[test]
    fn single_flow_gets_the_full_link() {
        let mut net = star(2);
        let id = net.start(SimTime::ZERO, SimTime::ZERO, 0, 1, 125_000_000);
        let at = finish(&mut net, id);
        // 1 s of wire at full rate.
        assert_eq!(at, SimTime::from_secs(1));
        assert_eq!(net.active(), 0);
    }

    #[test]
    fn two_flows_through_one_uplink_halve_their_rates() {
        // Node 0 sends to 1 and 2 concurrently: both flows share 0's uplink.
        let mut net = star(3);
        let a = net.start(SimTime::ZERO, SimTime::ZERO, 0, 1, 12_500_000);
        let b = net.start(SimTime::ZERO, SimTime::ZERO, 0, 2, 12_500_000);
        // 0.1 s of wire each, at half rate => 0.2 s.
        assert_eq!(finish(&mut net, a), SimTime::from_millis(200));
        assert_eq!(finish(&mut net, b), SimTime::from_millis(200));
    }

    #[test]
    fn finishing_flow_reshapes_the_survivor() {
        // Flow A is 0→1 (short), flow B is 0→2 (long): B runs at half rate
        // until A drains, then at full rate.
        let mut net = star(3);
        let a = net.start(SimTime::ZERO, SimTime::ZERO, 0, 1, 12_500_000); // 0.1 s of wire
        let b = net.start(SimTime::ZERO, SimTime::ZERO, 0, 2, 25_000_000); // 0.2 s of wire
        assert_eq!(finish(&mut net, a), SimTime::from_millis(200));
        // B: 0.2 s at half rate drains 0.1 s of wire; the rest at full rate.
        assert_eq!(finish(&mut net, b), SimTime::from_millis(300));
    }

    #[test]
    fn disjoint_pairs_do_not_share() {
        let mut net = star(4);
        let a = net.start(SimTime::ZERO, SimTime::ZERO, 0, 1, 12_500_000);
        let b = net.start(SimTime::ZERO, SimTime::ZERO, 2, 3, 12_500_000);
        assert_eq!(finish(&mut net, a), SimTime::from_millis(100));
        assert_eq!(finish(&mut net, b), SimTime::from_millis(100));
    }

    #[test]
    fn deferred_start_consumes_no_bandwidth_early() {
        let mut net = star(3);
        let a = net.start(SimTime::ZERO, SimTime::ZERO, 0, 1, 12_500_000); // 0.1 s of wire
                                                                           // Registered now, departs at 0.2 s — after A is gone.
        let b = net.start(SimTime::ZERO, SimTime::from_millis(200), 0, 2, 12_500_000);
        assert_eq!(finish(&mut net, a), SimTime::from_millis(100));
        assert_eq!(finish(&mut net, b), SimTime::from_millis(300));
    }

    #[test]
    fn poll_wake_is_the_next_transition() {
        let mut net = star(3);
        let _a = net.start(SimTime::ZERO, SimTime::ZERO, 0, 1, 12_500_000);
        let b = net.start(SimTime::ZERO, SimTime::ZERO, 2, 0, 125_000_000);
        match net.poll(SimTime::ZERO, b) {
            FlowStatus::InFlight { wake, flows } => {
                // The earliest transition is A's finish at 0.1 s, not B's own.
                assert_eq!(wake, SimTime::from_millis(100));
                assert_eq!(flows, 2);
            }
            other => panic!("expected in-flight, got {other:?}"),
        }
    }

    #[test]
    fn tree_trunk_is_the_shared_bottleneck() {
        // 8 cross-edge flows from edge 0 to edge 1 share 4 uplinks: these
        // pairs land 2 flows on each trunk member under the deterministic
        // `(src ^ dst) % uplinks` spread — the flow-model analogue of the
        // event model's `trunk_contention_limits_cross_bisection_flows`.
        let mut net = FlowNet::new(TopologySpec::tibidabo(), GBE, LAT);
        let bytes = 125_000_000; // 1 s of wire at full rate
        let pairs = [(0, 48), (1, 52), (2, 56), (3, 60), (4, 49), (5, 53), (6, 57), (7, 61)];
        let ids: Vec<FlowId> = pairs
            .iter()
            .map(|&(s, d)| net.start(SimTime::ZERO, SimTime::ZERO, s, d, bytes))
            .collect();
        for id in ids {
            // Two flows per trunk link => half rate => 2 s.
            assert_eq!(finish(&mut net, id), SimTime::from_secs(2));
        }
    }

    #[test]
    fn allocation_is_deterministic() {
        let run = || {
            let mut net = FlowNet::new(TopologySpec::tibidabo(), GBE, LAT);
            let ids: Vec<FlowId> = (0..32u32)
                .map(|i| {
                    net.start(
                        SimTime::from_micros(i as u64),
                        SimTime::from_micros(i as u64),
                        i,
                        (i * 37 + 11) % 192,
                        (i as u64 + 1) * 100_000,
                    )
                })
                .collect();
            ids.into_iter().map(|id| finish(&mut net, id).as_nanos()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    fn rate(net: &FlowNet, id: FlowId) -> f64 {
        match &net.slots[net.index(id)] {
            Slot::InFlight(f) => f.rate,
            other => panic!("flow {id} is not in flight: {other:?}"),
        }
    }

    /// Every started flow's rate equals, bit for bit, a from-scratch fill
    /// over the started set; the per-link loads match a recount.
    fn assert_rates_exact(net: &FlowNet) {
        let mut ids = Vec::new();
        let mut routes = Vec::new();
        let mut load = vec![0u32; net.caps.len()];
        for &id in &net.live {
            let Slot::InFlight(f) = &net.slots[net.index(id)] else { unreachable!() };
            if f.starts_at <= net.now {
                ids.push(id);
                routes.push(f.route.as_ref().iter().map(|&l| l as usize).collect::<Vec<_>>());
                for &l in f.route.as_ref() {
                    load[l as usize] += 1;
                }
            }
        }
        assert_eq!(load, net.load, "per-link started-flow counts drifted");
        let want = max_min_rates(&net.caps, &routes);
        for (&id, w) in ids.iter().zip(want) {
            assert_eq!(rate(net, id).to_bits(), w.to_bits(), "flow {id} at {:?}", net.now);
        }
    }

    #[test]
    fn incremental_reshares_match_a_full_solve_bit_for_bit() {
        for spec in [TopologySpec::Star { nodes: 16 }, TopologySpec::tibidabo()] {
            let nodes = spec.nodes();
            let mut net = FlowNet::new(spec, GBE, LAT);
            let mut state = 0x5eed_f10e_u64;
            let mut next = move |n: u64| {
                // SplitMix64: a fixed stream, so the test is deterministic.
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % n
            };
            let mut pending: Vec<FlowId> = Vec::new();
            let mut now = SimTime::ZERO;
            for _ in 0..300 {
                // A burst of 1-3 starts at one instant: a third deferred, and
                // half of them leaving a few hot nodes, so links get shared.
                for _ in 0..=next(3) {
                    let src = if next(2) == 0 { next(3) as u32 } else { next(nodes as u64) as u32 };
                    let dst = (src + 1 + next(nodes as u64 - 1) as u32) % nodes;
                    let depart =
                        if next(3) == 0 { now + SimTime::from_micros(next(400)) } else { now };
                    pending.push(net.start(now, depart, src, dst, 1_000 + next(100_000)));
                }
                // Poll at the start instant, then somewhere up to 0.5 ms on.
                for at in [now, now + SimTime::from_micros(next(500))] {
                    now = at;
                    pending.retain(|&id| match net.poll(now, id) {
                        FlowStatus::Done { .. } => {
                            net.consume(id);
                            false
                        }
                        FlowStatus::InFlight { .. } => true,
                    });
                    assert_rates_exact(&net);
                }
            }
            // Drain, stopping at every transition.
            while let Some(&id) = pending.first() {
                match net.poll(now, id) {
                    FlowStatus::Done { .. } => {
                        net.consume(id);
                        pending.remove(0);
                    }
                    FlowStatus::InFlight { wake, .. } => now = wake,
                }
                assert_rates_exact(&net);
            }
            assert_eq!(net.active(), 0);
            let (solves, shortcuts) = net.reshare_counts();
            assert!(
                solves > 0 && shortcuts > 0,
                "{spec:?}: {solves} solves, {shortcuts} shortcuts"
            );
        }
    }

    #[test]
    fn a_new_flow_can_raise_another_flows_rate() {
        // X 0→1 and Z 0→3 share node 0's uplink; X and Y 2→1 share node 1's
        // downlink: all three run at half rate. W 0→4 squeezes X to a third
        // on the uplink, which frees node 1's downlink for Y: indirect relief.
        let mut net = star(5);
        let t0 = SimTime::ZERO;
        let x = net.start(t0, t0, 0, 1, 125_000_000);
        let y = net.start(t0, t0, 2, 1, 125_000_000);
        let z = net.start(t0, t0, 0, 3, 125_000_000);
        net.poll(t0, x);
        for id in [x, y, z] {
            assert_eq!(rate(&net, id), GBE / 2.0);
        }
        let t1 = SimTime::from_millis(1);
        let w = net.start(t1, t1, 0, 4, 125_000_000);
        net.poll(t1, w);
        let near = |id, want: f64| (rate(&net, id) - want).abs() <= want * 1e-12;
        for id in [x, z, w] {
            assert!(near(id, GBE / 3.0), "flow {id} at {}", rate(&net, id));
        }
        assert!(near(y, GBE * 2.0 / 3.0), "Y rises from 1/2 to 2/3 of the link: {}", rate(&net, y));
    }

    #[test]
    fn model_names_round_trip() {
        assert_eq!(NetModel::parse("event"), Ok(NetModel::Event));
        assert_eq!(NetModel::parse("flow"), Ok(NetModel::Flow));
        assert!(NetModel::parse("fluid").is_err());
        assert_eq!(NetModel::Flow.name(), "flow");
        assert_eq!(NetModel::default(), NetModel::Event);
    }
}
