//! Load generation for the threaded runtime.
//!
//! Two modes drive an [`RtCluster`] with batch reads:
//!
//! * **Closed loop** — a fixed window of in-flight tasks; a new task is
//!   issued only when an old one completes. Simple, but it *coordinates
//!   with the system under test*: when the cluster stalls, the generator
//!   stops offering load, so queueing delay silently vanishes from the
//!   recorded distribution (coordinated omission).
//! * **Open loop** — tasks arrive on a Poisson schedule of *intended*
//!   arrival times that does not care how the cluster is doing, and each
//!   task's latency is measured from its intended arrival. A saturated
//!   cluster therefore records the queueing delay it actually inflicts —
//!   the measurement model the simulator (and the paper) uses.
//!
//! Both modes share one corrected recording path
//! ([`crate::client::TaskTicket::wait_outcome_from`]): latency runs from
//! the measurement origin (submit instant or intended arrival) to the
//! server-side completion instant of the task's last response, so
//! draining tickets late never inflates a sample.
//!
//! Under the overload lane tasks can *fail* — dropped, shed, or timed
//! out — and the report splits them out with the same conservation
//! contract the simulator pins: `completed + dropped + timed_out + shed
//! == issued`, checked at the end of every run. Latency histograms
//! record completed tasks only; failed tasks count against goodput.

use crate::client::{RtClient, TaskFailureKind, TaskOutcome, TaskResolution, TaskTicket};
use crate::error::RtError;
use crate::server::RtCluster;
use crate::timing;
use brb_metrics::{Histogram, Percentiles};
use brb_workload::{FanoutDist, PoissonProcess, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// How tasks are offered to the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LoadMode {
    /// A fixed window of in-flight tasks (latency from submit).
    Closed {
        /// In-flight task window.
        concurrency: usize,
    },
    /// Poisson arrivals at a fixed rate, latency from *intended* arrival
    /// (coordinated-omission-free).
    Open {
        /// Mean task arrival rate, tasks/second.
        task_rate_per_sec: f64,
    },
}

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Total tasks to issue.
    pub tasks: usize,
    /// Closed- or open-loop offering.
    pub mode: LoadMode,
    /// Fan-out distribution for task sizes.
    pub fanout: FanoutDist,
    /// Keys are drawn from `0..key_range` (populate the cluster with at
    /// least this many keys first).
    pub key_range: u64,
    /// Zipf exponent for key popularity (`0.0` = uniform; `> 0` makes
    /// low keys hot, reproducing replica-group hot spots).
    pub key_zipf: f64,
    /// RNG seed for the arrival/key/fan-out stream.
    pub seed: u64,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            tasks: 1_000,
            mode: LoadMode::Closed { concurrency: 16 },
            fanout: FanoutDist::soundcloud_like(),
            key_range: 10_000,
            key_zipf: 0.0,
            seed: 1,
        }
    }
}

/// Results of one load-generation run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Wall-clock task latency percentiles (ms) over *completed* tasks,
    /// measured from each task's origin (submit or intended arrival by
    /// mode).
    pub task_latency_ms: Percentiles,
    /// Wall-clock per-request latency percentiles (ms): submit →
    /// response send, plus the cluster's accounted network RTT
    /// ([`crate::RtClusterConfig::network_rtt_ns`]).
    pub request_latency_ms: Percentiles,
    /// Total wall time of the run (first submission → last drain).
    pub wall: Duration,
    /// Completed tasks per second (== `goodput`).
    pub tasks_per_sec: f64,
    /// Tasks issued.
    pub tasks: usize,
    /// Served requests recorded across completed tasks.
    pub requests: u64,
    /// Requests served per server during this run (load-balance check).
    pub served_per_server: Vec<u64>,
    /// Mean worker utilization during the run: service time accumulated
    /// by all workers over `wall × total_workers`.
    pub utilization: f64,
    /// Tasks issued (alias of `tasks`; the conservation denominator).
    pub issued: usize,
    /// Tasks every request of which was served.
    pub completed: usize,
    /// Tasks that failed on a tail/CoDel drop with no retry left.
    pub dropped: u64,
    /// Tasks that failed on a deadline (including retries-exhausted).
    pub timed_out: u64,
    /// Tasks refused by the admission watermark with no retry left.
    pub shed: u64,
    /// Retries issued across all tasks.
    pub retries: u64,
    /// Completed tasks per second of wall time — the run's goodput.
    pub goodput: f64,
    /// Hedge duplicates the client issued (0 unless the cluster has a
    /// hedge delay).
    pub hedges_issued: u64,
    /// Purged hedge losers that completed anyway and were discarded —
    /// hedging's duplicate-work cost.
    pub duplicate_responses: u64,
    /// Demand reports the credits controller consumed during the run (0
    /// without a credits lane).
    pub demand_reports: u64,
    /// Congestion signals admission raised during the run (0 without a
    /// credits lane).
    pub congestion_signals: u64,
}

/// Accumulates task resolutions into histograms and overload counters.
struct Collector {
    task_hist: Histogram,
    request_hist: Histogram,
    requests: u64,
    completed: usize,
    dropped: u64,
    timed_out: u64,
    shed: u64,
    retries: u64,
}

impl Collector {
    fn new() -> Self {
        Collector {
            task_hist: Histogram::for_latency_ns(),
            request_hist: Histogram::for_latency_ns(),
            requests: 0,
            completed: 0,
            dropped: 0,
            timed_out: 0,
            shed: 0,
            retries: 0,
        }
    }

    fn record(&mut self, res: TaskResolution) {
        self.retries += res.retries as u64;
        match res.outcome {
            TaskOutcome::Completed(resp) => {
                self.completed += 1;
                self.task_hist.record(resp.latency.as_nanos() as u64);
                for &ns in &resp.request_ns {
                    self.request_hist.record(ns);
                }
                self.requests += resp.request_ns.len() as u64;
            }
            TaskOutcome::Failed { failure } => match failure {
                TaskFailureKind::Dropped => self.dropped += 1,
                TaskFailureKind::Shed => self.shed += 1,
                TaskFailureKind::TimedOut | TaskFailureKind::RetriesExhausted => {
                    self.timed_out += 1
                }
            },
        }
    }

    fn collect(&mut self, ticket: TaskTicket, origin: Instant) -> Result<(), RtError> {
        let res = ticket.wait_outcome_from(origin)?;
        self.record(res);
        Ok(())
    }
}

/// Polls every in-flight ticket once, collecting those that resolved —
/// the overload lane's drain: retries and deadline timers progress
/// through these polls while the generator holds the submission
/// schedule.
fn poll_inflight(
    inflight: &mut VecDeque<(TaskTicket, Instant)>,
    col: &mut Collector,
) -> Result<(), RtError> {
    let mut i = 0;
    while i < inflight.len() {
        let (ticket, origin) = &mut inflight[i];
        let origin = *origin;
        if let Some(res) = ticket.poll_outcome(origin)? {
            col.record(res);
            inflight.swap_remove_back(i);
        } else {
            i += 1;
        }
    }
    Ok(())
}

/// Runs a load against `cluster` through a fresh client.
///
/// # Panics
/// Panics if the configuration is degenerate (no tasks, zero
/// concurrency, non-positive rate) or the run fails
/// ([`try_run_load`] is the non-panicking form).
pub fn run_load(cluster: &RtCluster, cfg: &LoadGenConfig) -> LoadReport {
    try_run_load(cluster, cfg).expect("live run failed")
}

/// [`run_load`], returning runtime failures (a panicked worker thread, a
/// shut-down cluster) as a typed [`RtError`] instead of panicking.
///
/// # Panics
/// Still panics on a degenerate configuration (no tasks, zero
/// concurrency, non-positive rate) — those are caller bugs, not runtime
/// conditions.
pub fn try_run_load(cluster: &RtCluster, cfg: &LoadGenConfig) -> Result<LoadReport, RtError> {
    assert!(cfg.tasks > 0, "need at least one task");
    cfg.fanout.validate().expect("invalid fan-out distribution");
    assert!(
        cfg.key_zipf >= 0.0 && cfg.key_zipf.is_finite(),
        "key_zipf must be a finite non-negative exponent"
    );

    // The run seed also seeds the client's selector stream, so seeded
    // runs differ in replica choice the way the simulator's do.
    let client: RtClient = cluster.client_seeded(cfg.seed);
    // Hedging rides the overload lane's poll path too: its timers live
    // inside ticket polls, and duplicate replies break the legacy
    // `is_ready` reply-count shortcut.
    let overload_lane = cluster.config().queue.is_some()
        || cluster.config().timeout.is_some()
        || cluster.config().hedge_delay_ns.is_some();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut col = Collector::new();
    let served_before = cluster.served_per_server();
    let busy_before = cluster.busy_ns_per_server();
    let demand_before = cluster.demand_reports();
    let congestion_before = cluster.congestion_signals();
    let started = Instant::now();

    // Alias-table Zipf ranks when popularity is skewed; plain uniform
    // draws otherwise (building the table for exponent 0 would be waste).
    let zipf = (cfg.key_zipf > 0.0).then(|| Zipf::new(cfg.key_range, cfg.key_zipf));
    let sample_keys = |rng: &mut StdRng| -> Vec<u64> {
        let n = cfg.fanout.sample(rng) as usize;
        (0..n)
            .map(|_| match &zipf {
                Some(z) => z.sample(rng),
                None => rng.random_range(0..cfg.key_range),
            })
            .collect()
    };

    match cfg.mode {
        LoadMode::Closed { concurrency } => {
            assert!(concurrency > 0, "need at least one in-flight slot");
            let mut inflight: VecDeque<(TaskTicket, Instant)> =
                VecDeque::with_capacity(concurrency);
            for _ in 0..cfg.tasks {
                let keys = sample_keys(&mut rng);
                // Origin *before* dispatch: submission itself (selection,
                // rate-limit stalls, channel sends) is part of the latency.
                let origin = Instant::now();
                inflight.push_back((client.fetch_async(&keys), origin));
                if inflight.len() >= concurrency {
                    let (ticket, origin) = inflight.pop_front().expect("non-empty window");
                    col.collect(ticket, origin)?;
                }
            }
            for (ticket, origin) in inflight {
                col.collect(ticket, origin)?;
            }
        }
        LoadMode::Open { task_rate_per_sec } => {
            assert!(
                task_rate_per_sec > 0.0 && task_rate_per_sec.is_finite(),
                "need a positive task rate"
            );
            let mut arrivals = PoissonProcess::new(task_rate_per_sec);
            let mut inflight: VecDeque<(TaskTicket, Instant)> = VecDeque::new();
            // Poll slice while holding the schedule: deadline timers and
            // backoff redispatches live inside ticket polls, so under the
            // overload lane the generator must keep polling between
            // submissions or retries would only fire at collection time.
            const POLL_SLICE: Duration = Duration::from_millis(1);
            for _ in 0..cfg.tasks {
                // Draw the schedule and the task before waiting, so the
                // random stream is a deterministic function of the seed.
                let due = started + Duration::from_nanos(arrivals.next_arrival_ns(&mut rng));
                let keys = sample_keys(&mut rng);
                if overload_lane {
                    loop {
                        poll_inflight(&mut inflight, &mut col)?;
                        let now = Instant::now();
                        if now >= due {
                            break;
                        }
                        timing::wait_until(due.min(now + POLL_SLICE));
                    }
                } else {
                    timing::wait_until(due);
                }
                inflight.push_back((client.fetch_async(&keys), due));
                if !overload_lane {
                    // Legacy drain: pop finished heads without blocking —
                    // the selector only learns from responses at
                    // collection time, so feedback must flow *during* the
                    // run, not after it.
                    while inflight.front().is_some_and(|(t, _)| t.is_ready()) {
                        let (ticket, origin) = inflight.pop_front().expect("non-empty front");
                        col.collect(ticket, origin)?;
                    }
                }
            }
            for (ticket, origin) in inflight {
                col.collect(ticket, origin)?;
            }
        }
    }

    let wall = started.elapsed();
    let served_after = cluster.served_per_server();
    let busy_after = cluster.busy_ns_per_server();
    let served_per_server: Vec<u64> = served_after
        .iter()
        .zip(&served_before)
        .map(|(a, b)| a - b)
        .collect();
    let busy_ns: u64 = busy_after
        .iter()
        .zip(&busy_before)
        .map(|(a, b)| a - b)
        .sum();
    let total_workers = (cluster.config().num_servers * cluster.config().workers_per_server) as f64;
    let utilization = (busy_ns as f64 / 1e9) / (wall.as_secs_f64() * total_workers);

    // The conservation contract both backends pin: every issued task
    // resolved exactly one way.
    assert_eq!(
        col.completed as u64 + col.dropped + col.timed_out + col.shed,
        cfg.tasks as u64,
        "task conservation violated"
    );
    let goodput = col.completed as f64 / wall.as_secs_f64();
    let zeroed = Percentiles {
        count: 0,
        mean: 0.0,
        p50: 0.0,
        p95: 0.0,
        p99: 0.0,
        max: 0.0,
    };
    Ok(LoadReport {
        // A fully-failed run (total collapse) has no latency samples.
        task_latency_ms: Percentiles::from_histogram_ns(&col.task_hist).unwrap_or(zeroed),
        request_latency_ms: Percentiles::from_histogram_ns(&col.request_hist).unwrap_or(zeroed),
        wall,
        tasks_per_sec: goodput,
        tasks: cfg.tasks,
        requests: col.requests,
        served_per_server,
        utilization,
        issued: cfg.tasks,
        completed: col.completed,
        dropped: col.dropped,
        timed_out: col.timed_out,
        shed: col.shed,
        retries: col.retries,
        goodput,
        hedges_issued: client.hedged_total(),
        duplicate_responses: client.duplicate_responses(),
        demand_reports: cluster.demand_reports() - demand_before,
        congestion_signals: cluster.congestion_signals() - congestion_before,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{RtClusterConfig, RtQueueConfig, RtTimeoutConfig, WorkModel};
    use brb_sched::overload::QueueBound;
    use brb_sched::PolicyKind;
    use brb_store::service::{ServiceModel, ServiceNoise};

    fn cluster() -> RtCluster {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 3,
            workers_per_server: 2,
            replication: 2,
            policy: PolicyKind::UnifIncr,
            work: WorkModel::Instant,
            store_shards: 8,
            ..Default::default()
        });
        c.populate(2_000, |k| (k % 256) + 1);
        c
    }

    #[test]
    fn load_run_completes_and_reports() {
        let c = cluster();
        let report = run_load(
            &c,
            &LoadGenConfig {
                tasks: 300,
                mode: LoadMode::Closed { concurrency: 8 },
                key_range: 2_000,
                ..Default::default()
            },
        );
        assert_eq!(report.task_latency_ms.count, 300);
        assert_eq!(report.tasks, 300);
        assert!(report.task_latency_ms.p50 > 0.0);
        assert!(report.request_latency_ms.count >= 300);
        assert_eq!(report.request_latency_ms.count, report.requests);
        assert!(report.tasks_per_sec > 0.0);
        // Knobs off: every task completes and nothing is dropped.
        assert_eq!(report.completed, 300);
        assert_eq!(report.dropped + report.timed_out + report.shed, 0);
        assert_eq!(report.retries, 0);
        let total: u64 = report.served_per_server.iter().sum();
        assert!(total >= 300, "at least one request per task");
        assert_eq!(total, report.requests);
        c.shutdown();
    }

    #[test]
    fn open_loop_run_completes_and_reports() {
        let c = cluster();
        let report = run_load(
            &c,
            &LoadGenConfig {
                tasks: 200,
                // Fast arrivals; Instant service keeps the run short.
                mode: LoadMode::Open {
                    task_rate_per_sec: 20_000.0,
                },
                key_range: 2_000,
                ..Default::default()
            },
        );
        assert_eq!(report.task_latency_ms.count, 200);
        assert_eq!(report.request_latency_ms.count, report.requests);
        assert_eq!(report.completed, 200);
        c.shutdown();
    }

    #[test]
    fn replication_spreads_load_across_servers() {
        let c = cluster();
        let report = run_load(
            &c,
            &LoadGenConfig {
                tasks: 500,
                mode: LoadMode::Closed { concurrency: 16 },
                key_range: 2_000,
                ..Default::default()
            },
        );
        // Every server holds replicas for 2/3 of the key space; none
        // should be idle.
        assert!(
            report.served_per_server.iter().all(|&s| s > 0),
            "idle server: {:?}",
            report.served_per_server
        );
        c.shutdown();
    }

    /// The coordinated-omission regression. A closed-loop generator
    /// measuring from submit would report ≈ the service time no matter
    /// how overloaded the cluster is (it politely waits before
    /// offering). Open-loop arrivals at 1.3× capacity build a backlog;
    /// latency measured from *intended* arrival must surface that
    /// queueing delay.
    #[test]
    fn open_loop_records_queueing_delay_under_saturation() {
        const SERVICE_NS: f64 = 300_000.0; // 300µs per request
        let service =
            ServiceModel::calibrated_size_linear(SERVICE_NS, 64.0, 1.0, ServiceNoise::None);
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 1,
            workers_per_server: 1,
            replication: 1,
            work: WorkModel::SimulateService(service),
            store_shards: 4,
            ..Default::default()
        });
        c.populate(64, |_| 64);
        // Capacity is 1/300µs ≈ 3333 tasks/s at fan-out 1; offer 1.3×.
        let report = run_load(
            &c,
            &LoadGenConfig {
                tasks: 400,
                mode: LoadMode::Open {
                    task_rate_per_sec: 1.3 / (SERVICE_NS / 1e9),
                },
                fanout: FanoutDist::Fixed(1),
                key_range: 64,
                ..Default::default()
            },
        );
        // 400 tasks at 30% overload leave ≈ 400·0.3·300µs ≈ 36ms of
        // backlog by the end; the *median* recorded latency must be many
        // service times of queueing delay, which submit-based recording
        // structurally cannot observe.
        let service_ms = SERVICE_NS / 1e6;
        assert!(
            report.task_latency_ms.p50 >= 5.0 * service_ms,
            "open-loop p50 {}ms does not reflect queueing (service {}ms)",
            report.task_latency_ms.p50,
            service_ms
        );
        assert!(
            report.task_latency_ms.mean >= 2.0,
            "mean {}ms",
            report.task_latency_ms.mean
        );
        c.shutdown();
    }

    /// The overload lane end to end: sustained 1.5× overload into a
    /// tightly bounded queue with immediate-retry timeouts must fail
    /// some tasks — and the report must conserve
    /// `completed + dropped + timed_out + shed == issued` while
    /// recording latency for completed tasks only.
    #[test]
    fn overload_run_conserves_tasks_and_reports_goodput() {
        const SERVICE_NS: f64 = 300_000.0;
        let service =
            ServiceModel::calibrated_size_linear(SERVICE_NS, 64.0, 1.0, ServiceNoise::None);
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 2,
            workers_per_server: 1,
            replication: 2,
            work: WorkModel::SimulateService(service),
            store_shards: 4,
            queue: Some(RtQueueConfig {
                bound: QueueBound {
                    capacity: 8,
                    shed_above: None,
                },
                codel: None,
            }),
            timeout: Some(RtTimeoutConfig {
                timeout_ns: 3_000_000, // 3ms
                max_retries: 2,
                backoff_base_ns: 0,
                backoff_cap_ns: 0,
                retry_budget_percent: None,
            }),
            ..Default::default()
        });
        c.populate(64, |_| 64);
        let report = run_load(
            &c,
            &LoadGenConfig {
                tasks: 300,
                mode: LoadMode::Open {
                    task_rate_per_sec: 2.0 * 1.5 / (SERVICE_NS / 1e9),
                },
                fanout: FanoutDist::Fixed(1),
                key_range: 64,
                ..Default::default()
            },
        );
        assert_eq!(
            report.completed as u64 + report.dropped + report.timed_out + report.shed,
            report.issued as u64,
            "conservation"
        );
        assert!(
            report.dropped + report.timed_out > 0,
            "1.5× overload into capacity 8 never failed a task"
        );
        assert!(report.completed > 0, "overload must not starve everything");
        assert_eq!(report.task_latency_ms.count as usize, report.completed);
        assert!(report.goodput > 0.0 && report.goodput == report.tasks_per_sec);
        c.shutdown();
    }

    /// A hedged live run: spiked stragglers trigger duplicates, the
    /// report surfaces the hedge counters, and the conservation
    /// contract holds with duplicate replies in flight — losing twins
    /// must never double-count a task or strand accounting.
    #[test]
    fn hedged_run_reports_hedges_and_conserves_tasks() {
        use crate::server::SpikeModel;
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 2,
            workers_per_server: 1,
            replication: 2,
            // ~50µs forecast, every request spiked ~4ms: all stragglers.
            work: WorkModel::SimulateService(ServiceModel::calibrated_size_linear(
                50_000.0,
                64.0,
                1.0,
                ServiceNoise::None,
            )),
            store_shards: 4,
            hedge_delay_ns: Some(1_000_000), // 1ms
            spike: Some(SpikeModel {
                p_spike: 1.0,
                extra_lo_ns: 4_000_000,
                extra_hi_ns: 4_000_000,
            }),
            ..Default::default()
        });
        c.populate(64, |_| 64);
        let report = run_load(
            &c,
            &LoadGenConfig {
                tasks: 60,
                mode: LoadMode::Closed { concurrency: 4 },
                fanout: FanoutDist::Fixed(1),
                key_range: 64,
                ..Default::default()
            },
        );
        assert_eq!(
            report.completed as u64 + report.dropped + report.timed_out + report.shed,
            report.issued as u64,
            "conservation under hedging"
        );
        assert_eq!(report.completed, 60, "hedging must not fail tasks");
        assert!(
            report.hedges_issued >= 1,
            "60 spiked tasks under a 1ms hedge delay never hedged"
        );
        // The 5% budget binds: hedges·20 < dispatches (60 + hedges),
        // so at most ~3 duplicates across 60 single-request tasks.
        assert!(
            report.hedges_issued <= 4,
            "hedge budget failed to bind: {}",
            report.hedges_issued
        );
        assert!(report.duplicate_responses <= report.hedges_issued);
        // No credits lane: those counters stay zero.
        assert_eq!(report.demand_reports, 0);
        assert_eq!(report.congestion_signals, 0);
        c.shutdown();
    }

    /// Fault injection: a worker that panics mid-run must fail the run
    /// with a typed error — never hang the generator. The timeout
    /// config keeps every other task resolving while the poisoned key's
    /// task dies with the worker.
    #[test]
    fn worker_panic_fails_the_run_typed() {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 1,
            workers_per_server: 1,
            replication: 1,
            work: WorkModel::Instant,
            store_shards: 4,
            panic_on_key: Some(13),
            timeout: Some(RtTimeoutConfig {
                timeout_ns: 5_000_000,
                max_retries: 0,
                backoff_base_ns: 0,
                backoff_cap_ns: 0,
                retry_budget_percent: None,
            }),
            ..Default::default()
        });
        c.populate(64, |_| 8);
        let err = try_run_load(
            &c,
            &LoadGenConfig {
                tasks: 200,
                mode: LoadMode::Closed { concurrency: 4 },
                fanout: FanoutDist::Fixed(1),
                key_range: 64, // key 13 is in range: the fault will fire
                ..Default::default()
            },
        )
        .expect_err("run over a poisoned key must fail");
        assert_eq!(err, RtError::WorkerPanicked);
        assert!(c.panicked());
        assert!(c.shutdown_checked().is_err());
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn degenerate_config_rejected() {
        let c = cluster();
        let _ = run_load(
            &c,
            &LoadGenConfig {
                tasks: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "in-flight slot")]
    fn zero_concurrency_rejected() {
        let c = cluster();
        let _ = run_load(
            &c,
            &LoadGenConfig {
                tasks: 1,
                mode: LoadMode::Closed { concurrency: 0 },
                ..Default::default()
            },
        );
    }
}
