//! Property-based integration tests: invariants that must hold across the
//! whole stack for arbitrary inputs.

use proptest::prelude::*;
use socready::kernels::msort::{self, MsortConfig};
use socready::mpi::{run_mpi, JobSpec, Msg, ReduceOp};
use socready::net::{Network, TopologySpec};
use socready::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The roofline never reports negative or non-finite time, for any work
    /// shape on any platform/frequency/thread combination.
    #[test]
    fn kernel_time_is_finite_positive(
        flops in 1.0e3..1.0e12_f64,
        bytes in 0.0..1.0e11_f64,
        pat_idx in 0usize..5,
        plat_idx in 0usize..4,
        threads in 1u32..16,
    ) {
        let pattern = AccessPattern::ALL[pat_idx];
        let p = &Platform::table1()[plat_idx];
        let w = WorkProfile::new("prop", flops, bytes, pattern);
        for &f in &p.soc.dvfs_ghz {
            let t = kernel_time(&p.soc, f, threads, &w);
            prop_assert!(t.total_s.is_finite() && t.total_s > 0.0);
            prop_assert!(t.total_s + 1e-15 >= t.compute_s.max(t.memory_s));
        }
    }

    /// More work never takes less modelled time (monotonicity).
    #[test]
    fn kernel_time_monotone_in_work(
        flops in 1.0e6..1.0e10_f64,
        bytes in 1.0e3..1.0e9_f64,
        scale in 1.01..10.0_f64,
    ) {
        let soc = Platform::exynos5250().soc;
        let w1 = WorkProfile::new("w", flops, bytes, AccessPattern::Streaming);
        let w2 = w1.scaled(scale);
        let t1 = kernel_time(&soc, 1.0, 2, &w1).total_s;
        let t2 = kernel_time(&soc, 1.0, 2, &w2).total_s;
        prop_assert!(t2 > t1);
    }

    /// Network transfers arrive after they depart and later departures from
    /// the same flow never overtake earlier ones.
    #[test]
    fn network_transfers_are_causal_and_fifo(
        sizes in proptest::collection::vec(1u64..4_000_000, 1..20),
        src in 0u32..192,
        dst in 0u32..192,
    ) {
        prop_assume!(src != dst);
        let mut net = Network::gbe(TopologySpec::tibidabo());
        let mut depart = socready::des::SimTime::ZERO;
        let mut last_arrival = socready::des::SimTime::ZERO;
        for s in sizes {
            let arr = net.transmit(depart, src, dst, s);
            prop_assert!(arr > depart);
            prop_assert!(arr >= last_arrival, "FIFO violated");
            last_arrival = arr;
            depart += socready::des::SimTime::from_micros(5);
        }
    }

    /// allreduce(SUM) equals the arithmetic sum for any rank count and any
    /// contribution values, on every rank.
    #[test]
    fn allreduce_sum_is_exact(
        ranks in 2u32..12,
        seed in 0u64..1000,
    ) {
        let vals: Vec<f64> = (0..ranks).map(|r| ((seed + r as u64) % 97) as f64).collect();
        let expect: f64 = vals.iter().sum();
        let vals_c = vals.clone();
        let run = run_mpi(JobSpec::new(Platform::tegra2(), ranks), move |mut r| {
            let vals = vals_c.clone();
            async move { r.allreduce(ReduceOp::Sum, vec![vals[r.rank() as usize]]).await[0] }
        }).unwrap();
        for v in run.results {
            prop_assert!((v - expect).abs() < 1e-9);
        }
    }

    /// Message payloads survive any route through the cluster intact.
    #[test]
    fn payload_integrity_over_any_pair(
        src in 0u32..8,
        dst in 0u32..8,
        data in proptest::collection::vec(-1.0e6..1.0e6_f64, 1..200),
    ) {
        prop_assume!(src != dst);
        let data_c = data.clone();
        let run = run_mpi(JobSpec::new(Platform::tegra2(), 8), move |mut r| {
            let data = data_c.clone();
            async move {
                if r.rank() == src {
                    r.send(dst, 5, Msg::from_f64s(&data)).await;
                    Vec::new()
                } else if r.rank() == dst {
                    r.recv(src, 5).await.to_f64s()
                } else {
                    Vec::new()
                }
            }
        }).unwrap();
        prop_assert_eq!(&run.results[dst as usize], &data);
    }

    /// Zero-rate fault plans schedule nothing, for any seed, cluster size
    /// and horizon.
    #[test]
    fn zero_rate_fault_plans_are_empty(
        seed in 0u64..u64::MAX,
        nodes in 0u32..256,
        horizon_s in 0.0..1.0e7_f64,
    ) {
        use socready::des::{FaultPlan, FaultRates};
        let plan = FaultPlan::generate(
            seed,
            nodes,
            socready::des::SimTime::from_secs_f64(horizon_s),
            &FaultRates::none(),
        );
        prop_assert!(plan.is_empty(), "zero rates produced {:?}", plan.events());
    }

    /// Explicit fault plans are canonical: overlapping crash/flip/degrade
    /// schedules on the same node come out in one deterministic order no
    /// matter how the caller listed them, sorted by time with same-instant
    /// crashes applied after other faults on that node.
    #[test]
    fn fault_plans_normalize_overlapping_schedules(
        specs in proptest::collection::vec((0u64..20, 0u32..4, 0u8..3), 0..16),
    ) {
        use socready::des::{FaultEvent, FaultKind, FaultPlan, SimTime};
        let mk = |s: &[(u64, u32, u8)]| {
            FaultPlan::from_events(
                s.iter()
                    .map(|&(ms, node, k)| FaultEvent {
                        at: SimTime::from_millis(ms),
                        kind: match k {
                            0 => FaultKind::NodeCrash { node },
                            1 => FaultKind::BitFlip { node },
                            _ => FaultKind::LinkDegrade {
                                node,
                                loss: 0.5,
                                duration: SimTime::from_millis(10),
                            },
                        },
                    })
                    .collect(),
            )
        };
        let plan = mk(&specs);
        let mut rev = specs.clone();
        rev.reverse();
        prop_assert_eq!(mk(&rev), plan.clone());
        prop_assert!(plan.events().windows(2).all(|w| w[0].at <= w[1].at), "plan not sorted");
        for w in plan.events().windows(2) {
            if w[0].at == w[1].at && w[0].kind.node() == w[1].kind.node() {
                let crash_then_other = matches!(w[0].kind, FaultKind::NodeCrash { .. })
                    && !matches!(w[1].kind, FaultKind::NodeCrash { .. });
                prop_assert!(!crash_then_other, "crash ordered before same-instant fault: {w:?}");
            }
        }
    }

    /// Merge sort sorts any input (exercised through the kernels crate's
    /// public API; complements its unit tests with a larger domain).
    #[test]
    fn msort_sorts_anything(mut v in proptest::collection::vec(-1.0e9..1.0e9_f64, 0..500)) {
        let out = msort::run_par(&MsortConfig { n: v.len() }, &v);
        v.sort_by(f64::total_cmp);
        prop_assert_eq!(out, v);
    }
}

/// A random op sequence for the placement-store property: each tuple drives
/// one reserve/commit/cancel/release/fail decision.
fn placement_ops() -> impl Strategy<Value = Vec<(u8, u32, u32)>> {
    proptest::collection::vec((0u8..5, 1u32..17, 0u32..16), 1..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Two-phase placement never double-books: under any interleaving of
    /// reserve, commit, cancel, release and node failure, every node has at
    /// most one owner, committed jobs never share nodes, reservations never
    /// hand out dead or busy nodes, and the free/alive counters always agree
    /// with a recount from scratch.
    #[test]
    fn placement_store_never_double_books(ops in placement_ops()) {
        use socready::sched::{NodeFate, PlacementStore, Reservation};
        use std::collections::HashMap;
        const NODES: u32 = 16;
        let mut store = PlacementStore::new(NODES);
        let mut held: Vec<Reservation> = Vec::new();
        let mut running: HashMap<u64, Vec<u32>> = HashMap::new(); // job -> nodes
        let mut dead: Vec<u32> = Vec::new();
        let mut next_job: u64 = 0;
        for (op, count, node) in ops {
            match op {
                0 => {
                    if let Some(r) = store.reserve(count) {
                        // A fresh hold may not overlap any outstanding hold,
                        // any running job's nodes, or any dead node.
                        for &n in r.nodes() {
                            prop_assert!(!dead.contains(&n), "reserved dead node {n}");
                            prop_assert!(
                                held.iter().all(|h| !h.nodes().contains(&n)),
                                "node {n} reserved twice"
                            );
                            prop_assert!(
                                running.values().all(|ns| !ns.contains(&n)),
                                "node {n} reserved while busy"
                            );
                        }
                        held.push(r);
                    }
                }
                1 => {
                    if let Some(r) = held.pop() {
                        let job = next_job;
                        next_job += 1;
                        let granted = store.commit(r, job);
                        running.insert(job, granted);
                    }
                }
                2 => {
                    if let Some(r) = held.pop() {
                        store.cancel(r);
                    }
                }
                3 => {
                    // Release a pseudo-random running job.
                    if let Some(&job) = running.keys().min_by_key(|j| *j ^ count as u64) {
                        let nodes = running.remove(&job).unwrap();
                        let live = nodes.iter().filter(|n| !dead.contains(n)).count() as u32;
                        prop_assert_eq!(store.release(job), live);
                    }
                }
                _ => {
                    // Crashes only strike between passes (no holds out).
                    if held.is_empty() && !dead.contains(&node) {
                        let fate = store.fail_node(node);
                        match fate {
                            NodeFate::WasRunning(job) => {
                                prop_assert!(running[&job].contains(&node));
                                let nodes = running.remove(&job).unwrap();
                                dead.push(node);
                                let live =
                                    nodes.iter().filter(|n| !dead.contains(n)).count() as u32;
                                prop_assert_eq!(store.release(job), live);
                            }
                            NodeFate::WasIdle => dead.push(node),
                            NodeFate::AlreadyDead => prop_assert!(false, "dead set diverged"),
                        }
                    }
                }
            }
            // Counter/model agreement after every op.
            let busy: u32 = running.values().flatten().filter(|n| !dead.contains(n)).count() as u32;
            let reserved: u32 = held.iter().map(|r| r.nodes().len() as u32).sum();
            prop_assert_eq!(store.alive_nodes(), NODES - dead.len() as u32);
            prop_assert_eq!(store.free_nodes(), store.alive_nodes() - busy - reserved);
            prop_assert_eq!(store.busy_nodes(), busy);
            for (&job, nodes) in &running {
                for &n in nodes {
                    if !dead.contains(&n) {
                        prop_assert!(store.owner(n) == Some(job), "node {n} lost its owner");
                    }
                }
            }
        }
        // Drain so no reservation is dropped mid-hold.
        for r in held {
            store.cancel(r);
        }
    }

    /// EASY backfill never delays the head of the queue: on any fault-free
    /// synthetic stream, every once-blocked head job starts no later than
    /// the shadow-time bound computed when it first became the blocked head,
    /// and occupancy never exceeds the machine (or any tenant's nodes the
    /// whole pool).
    #[test]
    fn backfill_never_delays_the_head(
        jobs in 200u64..800,
        seed in 0u64..1000,
        rate_scale in 0.5..2.0f64,
    ) {
        use socready::sched::{
            DcConfig, DcSim, EasyBackfill, RuntimeModel, SyntheticSpec, Tenant,
        };
        let machine = socready::cluster::Machine::tibidabo();
        let model = RuntimeModel::for_machine(&machine);
        let mut spec = SyntheticSpec::standard_mix(jobs, seed, 1.0, 64);
        spec.arrival_rate_hz =
            rate_scale * spec.rate_for_load(&model, machine.nodes(), 0.9);
        let tenants: Vec<Tenant> = spec
            .tenants
            .iter()
            .map(|t| Tenant { name: t.name.to_string(), share: t.share })
            .collect();
        let cfg = DcConfig { audit: true, ..DcConfig::default() };
        let out = DcSim::new(machine, model, Box::new(EasyBackfill), tenants, cfg)
            .run(&spec.generate(), &socready::des::FaultPlan::none());
        prop_assert!(out.audit.head_bound_violations == 0, "EASY delayed a blocked head");
        prop_assert!(out.audit.max_busy_nodes <= 192, "double-booked the machine");
        for (t, &peak) in out.audit.max_tenant_nodes.iter().enumerate() {
            prop_assert!(peak <= 192, "tenant {t} held {peak} of 192 nodes");
        }
        prop_assert_eq!(out.report.completed + out.report.wall_killed, jobs);
    }

    /// Jobs are never placed on dead nodes: under any targeted crash
    /// schedule the alive pool shrinks by exactly the strikes that land
    /// before the campaign ends, and every job still departs exactly once.
    #[test]
    fn replays_never_place_on_dead_nodes(
        seed in 0u64..500,
        crashes in proptest::collection::vec((0u32..192, 10u64..2000), 1..24),
    ) {
        use socready::des::{FaultEvent, FaultKind, FaultPlan, SimTime};
        use socready::sched::{
            DcConfig, DcSim, EasyBackfill, RuntimeModel, SyntheticSpec, Tenant,
        };
        let machine = socready::cluster::Machine::tibidabo();
        let model = RuntimeModel::for_machine(&machine);
        let mut spec = SyntheticSpec::standard_mix(400, seed, 1.0, 64);
        spec.arrival_rate_hz = spec.rate_for_load(&model, machine.nodes(), 1.2);
        let tenants: Vec<Tenant> = spec
            .tenants
            .iter()
            .map(|t| Tenant { name: t.name.to_string(), share: t.share })
            .collect();
        let distinct: std::collections::HashSet<u32> =
            crashes.iter().map(|&(n, _)| n).collect();
        let faults = FaultPlan::from_events(
            crashes
                .iter()
                .map(|&(node, at_s)| FaultEvent {
                    at: SimTime::from_secs_f64(at_s as f64),
                    kind: FaultKind::NodeCrash { node },
                })
                .collect(),
        );
        let cfg = DcConfig { audit: true, ..DcConfig::default() };
        let out = DcSim::new(machine, model, Box::new(EasyBackfill), tenants, cfg)
            .run(&spec.generate(), &faults);
        // Crashes scheduled past the campaign's end never strike; every one
        // that does kills exactly one distinct node, permanently.
        prop_assert!(out.report.crashes as usize <= distinct.len());
        prop_assert_eq!(out.report.nodes_alive_end, 192 - out.report.crashes as u32);
        let departed = out.report.completed
            + out.report.wall_killed
            + out.report.fault_failed
            + out.report.unplaceable;
        prop_assert!(departed == 400, "a job vanished or departed twice");
        prop_assert!(out.audit.max_busy_nodes <= 192);
    }
}

#[test]
fn energy_monotone_in_time_for_fixed_power() {
    // Longer runs at the same operating point cost more energy.
    let pm = socready::power::PowerModel::tegra2_devkit();
    let mut last = 0.0;
    for secs in [0.5, 1.0, 2.0, 4.0] {
        let e = pm.energy_j(secs, 1.0, 2, 1.0, false);
        assert!(e > last);
        last = e;
    }
}

/// Strategy for max-min allocator inputs: six links with arbitrary positive
/// capacities and up to a dozen flows, each crossing one to three distinct
/// links. Duplicate link ids inside a route are collapsed so "crossing" is
/// a set property, matching how [`socready::net::Network`] builds routes.
fn max_min_inputs() -> impl Strategy<Value = (Vec<f64>, Vec<Vec<usize>>)> {
    (
        proptest::collection::vec(0.5..100.0_f64, 6..7),
        proptest::collection::vec(proptest::collection::vec(0usize..6, 1..4), 1..12),
    )
        .prop_map(|(caps, mut routes)| {
            for r in &mut routes {
                r.sort_unstable();
                r.dedup();
            }
            (caps, routes)
        })
}

/// Per-link bandwidth handed out by an allocation.
fn link_usage(caps: &[f64], routes: &[Vec<usize>], rates: &[f64]) -> Vec<f64> {
    let mut used = vec![0.0f64; caps.len()];
    for (route, &rate) in routes.iter().zip(rates) {
        for &l in route {
            used[l] += rate;
        }
    }
    used
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// No link is ever oversubscribed: the rates crossing each link sum to
    /// at most its capacity (up to float accumulation noise).
    #[test]
    fn max_min_never_exceeds_capacity((caps, routes) in max_min_inputs()) {
        let rates = socready::net::max_min_rates(&caps, &routes);
        prop_assert_eq!(rates.len(), routes.len());
        let used = link_usage(&caps, &routes, &rates);
        for (l, (&u, &c)) in used.iter().zip(&caps).enumerate() {
            prop_assert!(u <= c * (1.0 + 1e-9), "link {l}: used {u} > cap {c}");
        }
    }

    /// Every flow gets a positive rate and is bottlenecked: at least one
    /// link on its route is saturated, so no flow could be given more
    /// bandwidth without oversubscribing something.
    #[test]
    fn max_min_bottlenecks_every_flow((caps, routes) in max_min_inputs()) {
        let rates = socready::net::max_min_rates(&caps, &routes);
        let used = link_usage(&caps, &routes, &rates);
        for (f, (route, &rate)) in routes.iter().zip(&rates).enumerate() {
            prop_assert!(rate > 0.0, "flow {f} starved");
            let bottlenecked =
                route.iter().any(|&l| used[l] >= caps[l] * (1.0 - 1e-9));
            prop_assert!(bottlenecked, "flow {f} ({route:?}) has no saturated link");
        }
    }

    /// The allocation is a property of the flow *set*, not the flow order:
    /// rotating the route list rotates the rates with it, so the total
    /// bandwidth handed out is conserved under reordering.
    #[test]
    fn max_min_total_conserved_under_reorder(
        (caps, routes) in max_min_inputs(),
        rot in 0usize..12,
    ) {
        let rates = socready::net::max_min_rates(&caps, &routes);
        let k = rot % routes.len();
        let rotated: Vec<Vec<usize>> =
            routes.iter().cycle().skip(k).take(routes.len()).cloned().collect();
        let rotated_rates = socready::net::max_min_rates(&caps, &rotated);
        for (f, &r) in rotated_rates.iter().enumerate() {
            let orig = rates[(f + k) % rates.len()];
            prop_assert!(
                (r - orig).abs() <= orig.abs() * 1e-9,
                "flow order changed flow {f}'s rate: {orig} -> {r}"
            );
        }
        let total: f64 = rates.iter().sum();
        let rotated_total: f64 = rotated_rates.iter().sum();
        prop_assert!((total - rotated_total).abs() <= total * 1e-9);
    }

    /// Contention is monotone, in the two forms that are actually theorems.
    /// (Per-flow monotonicity is *false* for multi-link routes: a new flow
    /// can squeeze a shared flow on one link and thereby free capacity for
    /// a third flow elsewhere — indirect relief. Random search finds such
    /// cases in ~9% of draws, so this test pins the strongest true forms.)
    ///
    /// 1. When every route crosses exactly one link (independent capacity
    ///    pools — the classic fair-sharing setting), admitting one more
    ///    flow never raises any existing flow's rate.
    /// 2. For arbitrary routes, the *minimum* rate — the quantity max-min
    ///    fairness maximises — never increases when a flow is added.
    #[test]
    fn max_min_adding_a_flow_never_raises_rates(
        (caps, routes) in max_min_inputs(),
        extra in proptest::collection::vec(0usize..6, 1..4),
    ) {
        let mut extra = extra;
        extra.sort_unstable();
        extra.dedup();

        // Form 1: single-link pools are per-flow monotone.
        let single: Vec<Vec<usize>> = routes.iter().map(|r| vec![r[0]]).collect();
        let before = socready::net::max_min_rates(&caps, &single);
        let mut grown = single.clone();
        grown.push(vec![extra[0]]);
        let after = socready::net::max_min_rates(&caps, &grown);
        for (f, (&b, &a)) in before.iter().zip(&after).enumerate() {
            prop_assert!(
                a <= b * (1.0 + 1e-9),
                "adding a flow raised single-link flow {f}'s rate: {b} -> {a}"
            );
        }

        // Form 2: the minimum rate is monotone for arbitrary routes.
        let before = socready::net::max_min_rates(&caps, &routes);
        let mut grown = routes.clone();
        grown.push(extra);
        let after = socready::net::max_min_rates(&caps, &grown);
        let min_before = before.iter().copied().fold(f64::INFINITY, f64::min);
        let min_after =
            after[..routes.len()].iter().copied().fold(f64::INFINITY, f64::min);
        prop_assert!(
            min_after <= min_before * (1.0 + 1e-9),
            "adding a flow raised the minimum rate: {min_before} -> {min_after}"
        );
    }
}
