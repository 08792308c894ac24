//! Per-layer timings: each layer's public API called on inputs shaped
//! like the workload — its cluster, catalog universe, and queue and
//! calendar depths derived from a simulator run's counts by Little's law
//! (requests in flight = request rate × mean request latency).

use crate::output::Metric;
use crate::spans::{Recorder, NO_TASK, ROOT};
use brb_core::config::{ExperimentConfig, WorkloadKind};
use brb_core::experiment::RunResult;
use brb_metrics::Histogram;
use brb_net::{Fabric, FabricPlan, NetNodeId};
use brb_sched::{
    CoDel, CoDelConfig, CreditController, CreditsConfig, GlobalQueue, GrantTable, PolicyKind,
    Priority, PriorityPolicy, PriorityQueue, QueueBound, RequestQueue, TaskView,
};
use brb_select::{
    C3Config, C3Selector, LeastOutstandingSelector, ReplicaSelector, ResponseFeedback, Selection,
    SelectionCtx,
};
use brb_sim::{standard_exp, standard_normal, Calendar, DetRng, SimTime};
use brb_store::ids::{ClientId, ServerId};
use brb_store::{Ring, ShardedStore};
use brb_workload::Zipf;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// The workload's shape as the layer timings see it.
#[derive(Debug, Clone, Copy)]
pub struct Shape<'a> {
    /// A lowered config of the workload (cluster, catalog, knobs).
    pub base: &'a ExperimentConfig,
    /// A simulator run of that config (for the Little's-law depths).
    pub run: &'a RunResult,
    /// Mean fan-out measured on the workload's generated tasks.
    pub mean_fanout: f64,
}

impl Shape<'_> {
    /// Simulated requests dispatched per simulated second.
    fn request_rate(&self) -> f64 {
        self.run.dispatched as f64 / self.run.sim_secs.max(1e-9)
    }

    /// Requests in flight by Little's law.
    fn in_flight(&self) -> f64 {
        self.request_rate() * self.run.request_latency_ms.mean / 1e3
    }

    /// Pending calendar events: one per request in flight plus each
    /// client's and server's timers.
    pub fn calendar_depth(&self) -> usize {
        let c = &self.base.cluster;
        (self.in_flight() + f64::from(c.num_clients + c.num_servers)).round() as usize
    }

    /// Requests queued or in service per server.
    pub fn server_depth(&self) -> usize {
        ((self.in_flight() / f64::from(self.base.cluster.num_servers)).round() as usize).max(1)
    }

    fn ring(&self) -> Ring {
        let c = &self.base.cluster;
        Ring::new(c.num_servers, c.num_partitions, c.replication)
    }

    /// `(universe, exponent)` of the workload's Zipf popularity draw.
    fn zipf(&self) -> (u64, f64) {
        match &self.base.workload.kind {
            WorkloadKind::Synthetic {
                num_keys,
                zipf_exponent,
                ..
            } => (*num_keys, *zipf_exponent),
            WorkloadKind::Playlist {
                num_playlists,
                playlist_zipf,
                ..
            } => (*num_playlists, *playlist_zipf),
        }
    }

    fn key_range(&self) -> u64 {
        match &self.base.workload.kind {
            WorkloadKind::Synthetic { num_keys, .. } => *num_keys,
            WorkloadKind::Playlist { num_tracks, .. } => *num_tracks,
        }
    }
}

/// Times `iters` calls of `op` (after a tenth as warm-up) under a span
/// named `name`; returns nanoseconds per call.
fn time_op(rec: &mut Recorder, name: &'static str, iters: u64, mut op: impl FnMut(u64)) -> f64 {
    for i in 0..(iters / 10).max(1) {
        op(i);
    }
    let span = rec.open(name, ROOT, NO_TASK);
    let t = Instant::now();
    for i in 0..iters {
        op(i);
    }
    let ns = t.elapsed().as_nanos() as f64 / iters as f64;
    rec.close(span, iters);
    ns
}

/// Every layer timing for `shape`, as per-layer metrics.
pub fn measure(shape: &Shape<'_>, seed: u64, rec: &mut Recorder) -> Vec<Metric> {
    const N: u64 = 400_000;
    let base = shape.base;
    let c = &base.cluster;
    let sizes = base.workload.sizes;
    let mut rng = DetRng::seed_from_u64(seed);
    let mut out = Vec::new();

    // brb-workload: Zipf popularity draws over the workload's universe.
    let (universe, s) = shape.zipf();
    let zipf = Zipf::new(universe, s.max(1e-3));
    let ns = time_op(rec, "layer.workload.zipf", N, |_| {
        black_box(zipf.sample(&mut rng));
    });
    out.push(Metric::new("workload.zipf_ns", ns, "ns"));

    // brb-sim: one push + pop at the workload's pending depth, with the
    // engine's mix of hop, service and tick deltas.
    let depth = shape.calendar_depth().max(16);
    let mut cal: Calendar<u64> = Calendar::new();
    for i in 0..depth as u64 {
        cal.push(SimTime::from_nanos(i * 97), i);
    }
    let mut x = 0x9E37_79B9u64;
    let ns = time_op(rec, "layer.sim.calendar", N, |_| {
        let (when, tag) = cal.pop().expect("calendar holds its depth");
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let delta = match x % 100 {
            0 => 100_000_000,
            1..=30 => 50_000,
            _ => 150_000 + x % 400_000,
        };
        cal.push(SimTime::from_nanos(when.as_nanos() + delta), tag);
    });
    out.push(Metric::new("sim.calendar_ns", ns, "ns"));
    out.push(Metric::new("sim.calendar_depth", depth as f64, "count"));
    let ns = time_op(rec, "layer.sim.normal", N, |_| {
        black_box(standard_normal(&mut rng));
    });
    out.push(Metric::new("sim.normal_ns", ns, "ns"));
    let ns = time_op(rec, "layer.sim.exp", N, |_| {
        black_box(standard_exp(&mut rng));
    });
    out.push(Metric::new("sim.exp_ns", ns, "ns"));

    // brb-net: per-hop delay through the compiled plan, endpoints
    // rotating over the workload's nodes.
    let nodes = u64::from(c.num_clients + c.num_servers + 1);
    let plan = FabricPlan::compile(Fabric::uniform(c.latency.clone()), nodes);
    let ns = time_op(rec, "layer.net.hop", N, |i| {
        let from = NetNodeId::new(i % nodes);
        let to = NetNodeId::new((i + 7) % nodes);
        black_box(plan.delay(from, to, 4_096, &mut rng));
    });
    out.push(Metric::new("net.hop_ns", ns, "ns"));

    // brb-store: key → group → replica list; service-time draws; KV gets.
    let ring = shape.ring();
    let keys = shape.key_range();
    let ns = time_op(rec, "layer.store.ring", N, |i| {
        let key = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % keys;
        black_box(ring.replicas_of_group(ring.group_of_key(key)));
    });
    out.push(Metric::new("store.ring_ns", ns, "ns"));
    let service = c.service_model(sizes.mean_bytes());
    let ns = time_op(rec, "layer.store.service_draw", N, |i| {
        black_box(service.sample(sizes.size_of(i % keys), &mut rng));
    });
    out.push(Metric::new("store.service_draw_ns", ns, "ns"));
    let stored = keys.min(crate::workloads::LIVE_KEY_CAP);
    let store = ShardedStore::new(16);
    store.populate_with(stored, |k| sizes.size_of(k));
    let ns = time_op(rec, "layer.store.kv_get", N, |i| {
        black_box(store.get(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % stored));
    });
    out.push(Metric::new("store.kv_get_ns", ns, "ns"));
    drop(store);

    // brb-select: choose among a request's replicas, then take the
    // response's feedback. Simulated time advances at one client's
    // share of the workload's request rate.
    let candidates: Vec<Vec<ServerId>> = (0..ring.num_groups())
        .map(|g| ring.replicas_of_group(brb_store::GroupId::new(u64::from(g))))
        .collect();
    let step = (1e9 * f64::from(c.num_clients) / shape.request_rate().max(1.0)) as u64;
    let resp_ns = (shape.run.request_latency_ms.mean * 1e6) as u64;
    let select_pair = |sel: &mut dyn ReplicaSelector, rec: &mut Recorder, name: &'static str| {
        let mut now = 0u64;
        time_op(rec, name, N, |i| {
            now += step.max(1);
            let ctx = SelectionCtx {
                now_ns: now,
                candidates: &candidates[(i % candidates.len() as u64) as usize],
                value_bytes: sizes.size_of(i),
                oracle_queue_depths: None,
            };
            if let Selection::Dispatch(server) = sel.select(&ctx) {
                sel.on_response(
                    server,
                    now + resp_ns,
                    &ResponseFeedback {
                        response_time_ns: resp_ns,
                        queue_len: (i % 8),
                        service_time_ns: resp_ns / 2,
                    },
                );
            }
        })
    };
    let mut c3 = C3Selector::new(C3Config::paper_default(c.num_clients));
    let ns = select_pair(&mut c3, rec, "layer.select.c3");
    out.push(Metric::new("select.c3_ns", ns, "ns"));
    let mut lo = LeastOutstandingSelector::new();
    let ns = select_pair(&mut lo, rec, "layer.select.least_outstanding");
    out.push(Metric::new("select.least_outstanding_ns", ns, "ns"));

    // brb-sched: EqualMax priorities for a mean-fan-out task, each
    // request pushed into and one popped from a server queue held at
    // its Little's-law depth; reported per request.
    let fanout = (shape.mean_fanout.round() as usize).max(1);
    let costs: Vec<u64> = (0..fanout as u64)
        .map(|k| service.expected_ns(sizes.size_of(k)) as u64)
        .collect();
    let mut groups: Vec<u64> = Vec::new();
    let request_subtask: Vec<usize> = (0..fanout as u64)
        .map(|k| {
            let g = ring.group_of_key(k).index() as u64;
            match groups.iter().position(|&x| x == g) {
                Some(i) => i,
                None => {
                    groups.push(g);
                    groups.len() - 1
                }
            }
        })
        .collect();
    let mut subtask_costs = vec![0u64; groups.len()];
    for (cost, &s) in costs.iter().zip(&request_subtask) {
        subtask_costs[s] += cost;
    }
    let mut queue: PriorityQueue<u64> = PriorityQueue::new();
    for i in 0..shape.server_depth() as u64 {
        queue.push(Priority(i * 1_000), i);
    }
    let mut prios = Vec::with_capacity(fanout);
    let tasks = (N / fanout as u64).max(1);
    let ns = time_op(rec, "layer.sched.policy_queue", tasks, |i| {
        let view = TaskView {
            arrival_ns: i * 10_000,
            request_costs: &costs,
            request_subtask: &request_subtask,
            subtask_costs: &subtask_costs,
        };
        PolicyKind::EqualMax.assign_into(&view, &mut prios);
        for &p in &prios {
            queue.push(p, i);
            black_box(queue.pop());
        }
    }) / fanout as f64;
    out.push(Metric::new("sched.policy_queue_ns", ns, "ns"));

    // The credits controller's adaptation epoch over every (client,
    // server) demand of the workload's cluster.
    let mut ctl = CreditController::new(
        vec![c.server_capacity_rps(); c.num_servers as usize],
        CreditsConfig::default(),
    );
    let mut grants = GrantTable::new();
    let share = shape.request_rate() / f64::from(c.num_clients * c.num_servers);
    let epochs = 20_000;
    let ns = time_op(rec, "layer.sched.credits_epoch", epochs, |i| {
        for client in 0..u64::from(c.num_clients) {
            for server in 0..u64::from(c.num_servers) {
                let jitter = ((i + client + server) % 7) as f64 / 10.0;
                ctl.report_demand(
                    ClientId::new(client),
                    ServerId::new(server),
                    share * (0.7 + jitter),
                );
            }
        }
        ctl.allocate_into(&mut grants);
    });
    out.push(Metric::new("sched.credits_epoch_us", ns / 1e3, "us"));

    // The Model realization's global queue: one push and one
    // replica-constrained pull at the cluster-wide depth.
    let mut gq: GlobalQueue<u64> = GlobalQueue::new(ring.num_groups());
    let global_depth = (shape.in_flight().round() as u64).max(1);
    for k in 0..global_depth {
        gq.push(ring.group_of_key(k), Priority(k * 1_000), k);
    }
    let servers = u64::from(c.num_servers);
    let ns = time_op(rec, "layer.sched.global_queue", N, |i| {
        gq.push(ring.group_of_key(i), Priority(i * 1_000), i);
        if gq.pull_for(ServerId::new(i % servers), &ring).is_none() {
            black_box(gq.len());
        }
    });
    out.push(Metric::new("sched.global_queue_ns", ns, "ns"));

    // Admission against the queue bound plus CoDel's dequeue decision,
    // with sojourns around the workload's request latency.
    let qc = base.overload.queue;
    let bound = qc.map_or(QueueBound::tail_drop(64), |q| q.bound());
    let mut codel = CoDel::new(
        qc.and_then(|q| q.codel)
            .unwrap_or_else(CoDelConfig::paper_default),
    );
    let depth = shape.server_depth() as u64;
    let ns = time_op(rec, "layer.sched.codel", N, |i| {
        black_box(bound.admit((i % (2 * depth + 1)) as usize));
        let sojourn = resp_ns / 2 + (i.wrapping_mul(2654435761) % resp_ns.max(1));
        black_box(codel.on_dequeue(i * step.max(1), sojourn));
    });
    out.push(Metric::new("sched.codel_ns", ns, "ns"));

    // brb-metrics: one latency record into an HDR-style histogram.
    let mut hist = Histogram::for_latency_ns();
    let lat: Vec<u64> = (0..4_096)
        .map(|_| (resp_ns as f64 * (0.5 * standard_normal(&mut rng)).exp()) as u64 + 1)
        .collect();
    let ns = time_op(rec, "layer.metrics.hist_record", N, |i| {
        hist.record(lat[(i % 4_096) as usize]);
    });
    black_box(hist.len());
    out.push(Metric::new("metrics.hist_record_ns", ns, "ns"));
    out
}
