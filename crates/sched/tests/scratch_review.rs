//! Scratch test (review only): demonstrate that a Preempt executed before a
//! Start in the same pass shifts the Start's queue index.

use std::sync::{Arc, Mutex};

use cluster::Machine;
use des::{FaultPlan, SimTime, TraceEvent, TraceRecord, Tracer};
use sched::{
    DcConfig, DcSim, FairShare, Job, JobKind, QosClass, RuntimeMode, RuntimeModel, Tenant,
};

#[derive(Default)]
struct Collect(Mutex<Vec<String>>);

impl Tracer for Collect {
    fn record(&self, rec: TraceRecord) {
        let line = match rec.event {
            TraceEvent::JobStart { job, .. } => {
                format!("start job={} at={:.0}", job, rec.at.as_secs_f64())
            }
            TraceEvent::JobFinish { job, outcome } => {
                format!("finish job={} {} at={:.0}", job, outcome, rec.at.as_secs_f64())
            }
            _ => return,
        };
        self.0.lock().unwrap().push(line);
    }
}

#[test]
fn preempt_then_start_indices() {
    // 192-node machine. Flood tenant holds 184 nodes with long jobs
    // (11x16 + 1x8), leaving 8 free. A starved VIP job needs 32 nodes; a
    // small 8-node flood job is queued behind it and fits the free nodes.
    let mut jobs: Vec<Job> = (0..11u64)
        .map(|i| Job {
            id: i,
            tenant: 0,
            qos: QosClass::Batch,
            kind: JobKind::Solver,
            submit: SimTime::from_secs_f64(i as f64 * 0.01),
            nodes: 16,
            work: 40_000.0,
            est_secs: 50_000.0,
        })
        .collect();
    jobs.push(Job {
        id: 11,
        tenant: 0,
        qos: QosClass::Batch,
        kind: JobKind::Solver,
        submit: SimTime::from_secs_f64(0.2),
        nodes: 8,
        work: 40_000.0,
        est_secs: 50_000.0,
    });
    // VIP: needs 32, will starve (>600s) because everything runs ~forever.
    jobs.push(Job {
        id: 100,
        tenant: 1,
        qos: QosClass::Interactive,
        kind: JobKind::Stencil,
        submit: SimTime::from_secs_f64(1.0),
        nodes: 32,
        work: 100.0,
        est_secs: 700.0,
    });
    // Small flood job that fits in the 8 free nodes, queued behind the VIP.
    jobs.push(Job {
        id: 101,
        tenant: 0,
        qos: QosClass::Batch,
        kind: JobKind::Solver,
        submit: SimTime::from_secs_f64(2.0),
        nodes: 8,
        work: 1_000.0,
        est_secs: 2_000.0,
    });
    // A second small flood job arriving while the machine is full: it is
    // still queued behind the VIP when the starvation pass fires.
    jobs.push(Job {
        id: 102,
        tenant: 0,
        qos: QosClass::Batch,
        kind: JobKind::Solver,
        submit: SimTime::from_secs_f64(500.0),
        nodes: 8,
        work: 1_000.0,
        est_secs: 2_000.0,
    });
    jobs.sort_by(|a, b| a.submit.cmp(&b.submit).then(a.id.cmp(&b.id)));
    let machine = Machine::tibidabo();
    let model = RuntimeModel::for_machine(&machine);
    let tenants = vec![
        Tenant { name: "flood".into(), share: 0.1 },
        Tenant { name: "vip".into(), share: 0.9 },
    ];
    let tracer = Arc::new(Collect::default());
    let cfg = DcConfig { runtime: RuntimeMode::Recorded, ..DcConfig::default() };
    let out = DcSim::new(machine, model, Box::new(FairShare::preempting()), tenants, cfg)
        .with_tracer(tracer.clone())
        .run(&jobs, &FaultPlan::none());
    let lines = tracer.0.lock().unwrap().clone();
    for l in &lines {
        eprintln!("{l}");
    }
    eprintln!("preemptions = {}", out.report.preemptions);
}
