//! Live-runtime load generators: one client thread, open-loop Poisson arrivals
//! timed from each task's intended arrival, or a closed loop with a
//! fixed in-flight window. Inputs (arrival schedule and key lists) are
//! generated from the seed before the run starts.

use crate::host;
use crate::spans::{Recorder, ROOT};
use crate::workloads::KeyShape;
use brb_rt::{
    RtClient, RtCluster, RtClusterConfig, RtError, TaskFailureKind, TaskOutcome, TaskResolution,
    TaskTicket,
};
use brb_workload::{PoissonProcess, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Live tasks per run whose spans are recorded (the first ones to
/// resolve); the layer figures come from counters over every task, so
/// the cap only bounds the trace file.
pub const TASK_SPAN_CAP: u64 = 20_000;

/// Starts a cluster and populates every key of `shape`, recording
/// `rt.start` and `rt.populate` spans.
pub fn start_cluster(cfg: RtClusterConfig, shape: &KeyShape, rec: &mut Recorder) -> RtCluster {
    let span = rec.open("rt.start", ROOT, crate::spans::NO_TASK);
    let cluster = RtCluster::start(cfg);
    rec.close(span, 1);
    let span = rec.open("rt.populate", ROOT, crate::spans::NO_TASK);
    let sizes = shape.sizes;
    cluster.populate(shape.key_range, |k| sizes.size_of(k));
    rec.close(span, shape.key_range);
    cluster
}

/// Draws `n` key lists of `shape`.
pub fn key_lists(shape: &KeyShape, n: usize, rng: &mut StdRng) -> Vec<Vec<u64>> {
    let zipf = (shape.zipf > 0.0).then(|| Zipf::new(shape.key_range, shape.zipf));
    (0..n)
        .map(|_| {
            let fanout = shape.fanout.sample(rng) as usize;
            (0..fanout)
                .map(|_| match &zipf {
                    Some(z) => z.sample(rng),
                    None => rng.random_range(0..shape.key_range),
                })
                .collect()
        })
        .collect()
}

/// An open-loop schedule: intended arrival offsets and key lists.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Intended arrival of each task, ns after the schedule starts.
    pub due_ns: Vec<u64>,
    /// Keys of each task.
    pub keys: Vec<Vec<u64>>,
}

/// Poisson arrivals at `rate` tasks/s covering `secs` seconds.
pub fn schedule(shape: &KeyShape, rate: f64, secs: f64, seed: u64) -> Schedule {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut arrivals = PoissonProcess::new(rate);
    let horizon = (secs * 1e9) as u64;
    let mut due_ns = Vec::new();
    loop {
        let t = arrivals.next_arrival_ns(&mut rng);
        if t > horizon && !due_ns.is_empty() {
            break;
        }
        due_ns.push(t);
    }
    let keys = key_lists(shape, due_ns.len(), &mut rng);
    Schedule { due_ns, keys }
}

/// What one live run measured.
#[derive(Debug, Default, Clone)]
pub struct LiveStats {
    /// Task latencies of completed tasks (ns; from intended arrival in
    /// open loop, from submission in closed loop), in completion order.
    pub lat_ns: Vec<u64>,
    /// Per-request latencies of completed tasks (ns); kept only while
    /// tracing, so the untraced run's memory is the program's.
    pub req_ns: Vec<u64>,
    /// Open loop: how late each submission ran behind its intended
    /// arrival. Closed loop: the gap from collecting a task to the next
    /// submission (ns).
    pub late_ns: Vec<u64>,
    /// Time inside each `fetch_async` call (ns).
    pub submit_ns: Vec<u64>,
    /// Total time inside ticket polls and waits (ns).
    pub collect_ns: u64,
    /// Tasks submitted.
    pub issued: u64,
    /// Tasks that completed (including ones with wrong values).
    pub completed: u64,
    /// Completed tasks whose values were missing or the wrong size.
    pub wrong: u64,
    /// Terminal drops.
    pub dropped: u64,
    /// Terminal timeouts (including exhausted retries).
    pub timed_out: u64,
    /// Terminal sheds.
    pub shed: u64,
    /// Requests in the submitted tasks.
    pub requests: u64,
    /// Requests the client dispatched (originals, retries and hedges).
    pub dispatched: u64,
    /// Requests each server served during the run.
    pub served: Vec<u64>,
    /// Worker busy time during the run, all servers (ns).
    pub busy_ns: u64,
    /// Wall time from the first submission to the last resolution.
    pub wall: Duration,
    /// Process CPU time used during the run.
    pub cpu: Duration,
}

impl LiveStats {
    /// Tasks that failed (dropped, timed out, shed or wrong values).
    pub fn failures(&self) -> u64 {
        self.failed_terminally() + self.wrong
    }

    /// Tasks that ended in a drop, timeout or shed.
    fn failed_terminally(&self) -> u64 {
        self.dropped + self.timed_out + self.shed
    }

    /// Whether `completed + dropped + timed_out + shed == issued`.
    pub fn conserved(&self) -> bool {
        self.completed + self.failed_terminally() == self.issued
    }
}

/// What the generator knows about a task in flight.
struct Book {
    /// Index of the task's key list.
    idx: usize,
    /// Latency origin: intended arrival (open loop) or submission.
    origin: Instant,
    /// Entry to and exit from `fetch_async`.
    submitted: (Instant, Instant),
    /// Time spent polling or waiting on the ticket so far (ns).
    collect_ns: u64,
}

/// Counter snapshot around a run.
struct Counters {
    served: Vec<u64>,
    busy: u64,
    dispatched: u64,
    cpu: Duration,
}

fn counters(cluster: &RtCluster, client: &RtClient) -> Counters {
    Counters {
        served: cluster.served_per_server(),
        busy: cluster.busy_ns_per_server().iter().sum(),
        dispatched: client.dispatched_total(),
        cpu: host::process_cpu(),
    }
}

fn finish(stats: &mut LiveStats, cluster: &RtCluster, client: &RtClient, before: Counters) {
    let after = counters(cluster, client);
    stats.served = after
        .served
        .iter()
        .zip(&before.served)
        .map(|(a, b)| a - b)
        .collect();
    stats.busy_ns = after.busy - before.busy;
    stats.dispatched = after.dispatched - before.dispatched;
    stats.cpu = after.cpu.saturating_sub(before.cpu);
}

/// Books a resolved task, checking a completed task returned one value
/// per key with the size `populate` stored for it.
fn settle(
    stats: &mut LiveStats,
    rec: &mut Recorder,
    res: TaskResolution,
    keys: &[u64],
    shape: &KeyShape,
    f: &Book,
    last_poll: Instant,
) {
    let now = Instant::now();
    let traced = rec.enabled() && stats.completed + stats.failed_terminally() < TASK_SPAN_CAP;
    match res.outcome {
        TaskOutcome::Completed(resp) => {
            stats.completed += 1;
            let ok = resp.values.len() == keys.len()
                && resp.values.iter().zip(keys).all(|(v, &k)| {
                    v.as_ref()
                        .is_some_and(|b| b.len() as u64 == shape.sizes.size_of(k).max(1))
                });
            if ok {
                stats.lat_ns.push(resp.latency.as_nanos() as u64);
                if rec.enabled() {
                    stats.req_ns.extend_from_slice(&resp.request_ns);
                }
            } else {
                stats.wrong += 1;
            }
        }
        TaskOutcome::Failed { failure } => match failure {
            TaskFailureKind::Dropped => stats.dropped += 1,
            TaskFailureKind::Shed => stats.shed += 1,
            TaskFailureKind::TimedOut | TaskFailureKind::RetriesExhausted => stats.timed_out += 1,
        },
    }
    if traced {
        let n = keys.len() as u64;
        let task = rec.record("rt.task", ROOT, res.task_id, f.origin, now, n);
        rec.record(
            "rt.submit",
            task,
            res.task_id,
            f.submitted.0,
            f.submitted.1,
            n,
        );
        rec.record(
            "rt.collect",
            task,
            res.task_id,
            last_poll,
            now,
            f.collect_ns,
        );
    }
}

/// Polls every ticket once; books and removes the resolved ones.
fn poll_all(
    inflight: &mut Vec<(TaskTicket, Book)>,
    keys: &[Vec<u64>],
    shape: &KeyShape,
    stats: &mut LiveStats,
    rec: &mut Recorder,
) -> Result<(), RtError> {
    let mut i = 0;
    while i < inflight.len() {
        let (ticket, book) = &mut inflight[i];
        let t = Instant::now();
        let res = ticket.poll_outcome(book.origin)?;
        let spent = t.elapsed().as_nanos() as u64;
        book.collect_ns += spent;
        stats.collect_ns += spent;
        match res {
            Some(res) => {
                let (_, book) = inflight.swap_remove(i);
                settle(stats, rec, res, &keys[book.idx], shape, &book, t);
            }
            None => i += 1,
        }
    }
    Ok(())
}

/// Runs an open-loop schedule on one client thread: waits for each
/// intended arrival (sleeping while more than the spin reserve remains,
/// polling tickets in between), submits, and times every task from its
/// intended arrival.
pub fn run_open(
    cluster: &RtCluster,
    client: &RtClient,
    sched: &Schedule,
    shape: &KeyShape,
    rec: &mut Recorder,
) -> Result<LiveStats, RtError> {
    let reserve = brb_rt::timing::spin_reserve();
    let mut stats = LiveStats::default();
    let mut inflight: Vec<(TaskTicket, Book)> = Vec::new();
    let before = counters(cluster, client);
    let start = Instant::now();
    for (idx, (&due_ns, keys)) in sched.due_ns.iter().zip(&sched.keys).enumerate() {
        let due = start + Duration::from_nanos(due_ns);
        loop {
            poll_all(&mut inflight, &sched.keys, shape, &mut stats, rec)?;
            let now = Instant::now();
            if now >= due {
                break;
            }
            let left = due - now;
            if left > reserve {
                std::thread::sleep((left - reserve).min(Duration::from_micros(500)));
            } else {
                std::hint::spin_loop();
            }
        }
        let t0 = Instant::now();
        let ticket = client.fetch_async(keys);
        let t1 = Instant::now();
        stats
            .late_ns
            .push(t0.saturating_duration_since(due).as_nanos() as u64);
        stats.submit_ns.push((t1 - t0).as_nanos() as u64);
        stats.issued += 1;
        stats.requests += keys.len() as u64;
        inflight.push((
            ticket,
            Book {
                idx,
                origin: due,
                submitted: (t0, t1),
                collect_ns: 0,
            },
        ));
    }
    while !inflight.is_empty() {
        poll_all(&mut inflight, &sched.keys, shape, &mut stats, rec)?;
        if !inflight.is_empty() {
            std::thread::sleep(Duration::from_micros(50));
        }
    }
    stats.wall = start.elapsed();
    finish(&mut stats, cluster, client, before);
    Ok(stats)
}

/// Runs a closed loop on one client thread: keeps `window` tasks in
/// flight, cycling through `keys`, for `duration` (then drains). Each
/// task is timed from just before its submission.
pub fn run_closed(
    cluster: &RtCluster,
    client: &RtClient,
    keys: &[Vec<u64>],
    window: usize,
    duration: Duration,
    shape: &KeyShape,
    rec: &mut Recorder,
) -> Result<LiveStats, RtError> {
    let mut stats = LiveStats::default();
    let mut inflight: VecDeque<(TaskTicket, Book)> = VecDeque::with_capacity(window);
    let before = counters(cluster, client);
    let start = Instant::now();
    let mut next = 0usize;
    let mut last_collect: Option<Instant> = None;
    loop {
        let open = start.elapsed() < duration;
        while open && inflight.len() < window {
            let idx = next % keys.len();
            next += 1;
            let t0 = Instant::now();
            let ticket = client.fetch_async(&keys[idx]);
            let t1 = Instant::now();
            // Per-call samples only while tracing: a closed loop runs
            // hundreds of thousands of tasks, and the untraced run's
            // memory should be the program's.
            if rec.enabled() {
                if let Some(c) = last_collect {
                    stats.late_ns.push((t0 - c).as_nanos() as u64);
                }
                stats.submit_ns.push((t1 - t0).as_nanos() as u64);
            }
            last_collect = None;
            stats.issued += 1;
            stats.requests += keys[idx].len() as u64;
            inflight.push_back((
                ticket,
                Book {
                    idx,
                    origin: t0,
                    submitted: (t0, t1),
                    collect_ns: 0,
                },
            ));
        }
        let Some((ticket, mut book)) = inflight.pop_front() else {
            break;
        };
        let t = Instant::now();
        let res = ticket.wait_outcome_from(book.origin)?;
        let spent = t.elapsed().as_nanos() as u64;
        book.collect_ns += spent;
        stats.collect_ns += spent;
        settle(&mut stats, rec, res, &keys[book.idx], shape, &book, t);
        last_collect = Some(Instant::now());
    }
    stats.wall = start.elapsed();
    finish(&mut stats, cluster, client, before);
    Ok(stats)
}
