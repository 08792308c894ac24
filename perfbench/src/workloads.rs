//! The four named workloads and the scenario specs behind them. Every
//! workload is a `brb-lab` spec, so both backends can run it: the
//! untraced run measures its primary backend, the traced run also runs
//! the other one on the same spec for the cross-backend layer figures.

use brb_core::config::{ExperimentConfig, SelectorKind, Strategy, WorkloadKind};
use brb_lab::{registry, ScenarioBuilder, ScenarioError, ScenarioSpec};
use brb_net::LatencyModel;
use brb_rt::{RtClusterConfig, RtQueueConfig, RtTimeoutConfig, WorkModel};
use brb_sched::PolicyKind;
use brb_select::SelectorSpec;
use brb_workload::taskgen::SizeModel;
use brb_workload::FanoutDist;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The `figure2` preset shape on the unscaled catalog, simulator.
    SimPaper,
    /// The `sustained-overload` and `retry-storm` cells, simulator.
    SimOverload,
    /// Live 4×1 cluster, open-loop Poisson ladder at 0.5/0.65/0.8 load.
    RtService,
    /// Live 2×1 zero-service cluster, closed loop.
    RtLoopback,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::SimPaper,
        Workload::SimOverload,
        Workload::RtService,
        Workload::RtLoopback,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimPaper => "sim-paper",
            Workload::SimOverload => "sim-overload",
            Workload::RtService => "rt-service",
            Workload::RtLoopback => "rt-loopback",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Tasks per (strategy, seed) run on `sim-paper`. The paper runs 500k;
/// a fifth of that keeps one five-strategy round near two seconds, so a
/// run measures several rounds, while the unscaled catalog keeps the
/// working set far beyond the per-core L2.
pub const SIM_PAPER_TASKS: usize = 100_000;

/// Offered loads of the `rt-service` ladder: two low rungs, one high.
pub const RT_SERVICE_LOADS: [f64; 3] = [0.5, 0.65, 0.8];

/// The p99 task latency limit behind `max_load_under_slo` (ms).
pub const RT_SERVICE_SLO_P99_MS: f64 = 100.0;

/// Catalog of the live workloads: small enough to populate in well
/// under a second, large enough that keys spread over every group.
const RT_TRACKS: u64 = 20_000;

/// In-flight task window of the `rt-loopback` closed loop.
pub const LOOPBACK_WINDOW: usize = 4;

/// BRB's realizable strategy: least-outstanding replica selection with
/// EqualMax priority queues at the servers.
pub fn brb_direct() -> Strategy {
    Strategy::Direct {
        selector: SelectorKind::LeastOutstanding,
        policy: PolicyKind::EqualMax,
        priority_queues: true,
    }
}

/// Seeds per cell on `sim-overload`, derived from the run seed. How hard
/// a cell overloads depends on which playlists the seed makes hot (one
/// hot long playlist can add half again to the offered requests), so a
/// single seed swings throughput and memory by a third; the presets
/// themselves average two seeds.
pub const OVERLOAD_SEEDS: u64 = 4;

/// The simulator specs of a sim workload: `sim-paper` runs the seed
/// alone, `sim-overload` [`OVERLOAD_SEEDS`] seeds derived from it.
pub fn sim_specs(w: Workload, seed: u64) -> Result<Vec<ScenarioSpec>, ScenarioError> {
    match w {
        Workload::SimPaper => Ok(vec![registry::builder("figure2")?
            .tasks(SIM_PAPER_TASKS)
            .seeds(&[seed])
            .build()?]),
        Workload::SimOverload => {
            let seeds: Vec<u64> = (0..OVERLOAD_SEEDS)
                .map(|k| seed.wrapping_mul(OVERLOAD_SEEDS).wrapping_add(k))
                .collect();
            ["sustained-overload", "retry-storm"]
                .into_iter()
                .map(|name| registry::builder(name)?.seeds(&seeds).build())
                .collect()
        }
        Workload::RtService | Workload::RtLoopback => Ok(vec![live_spec(w, seed, 0.5, 2_000)?]),
    }
}

/// The spec of a live workload: `rt-service` sweeps its load ladder;
/// `rt-loopback` runs at `load` (the simulator's stand-in for a closed
/// loop: zero service becomes a 5 µs service, and the load is the one
/// the live loop reached). `tasks` sizes simulator runs only.
pub fn live_spec(
    w: Workload,
    seed: u64,
    load: f64,
    tasks: usize,
) -> Result<ScenarioSpec, ScenarioError> {
    let b = match w {
        Workload::RtService => ScenarioBuilder::new("rt-service")
            .servers(4)
            .cores(1)
            .partitions(4)
            .replication(2)
            // 0.5 ms mean service per request.
            .service_rate(2_000.0)
            .workload_kind(WorkloadKind::Playlist {
                num_tracks: RT_TRACKS,
                num_playlists: RT_TRACKS / 10,
                playlist_zipf: 0.8,
            })
            .sweep_load(&RT_SERVICE_LOADS),
        _ => ScenarioBuilder::new("rt-loopback")
            .servers(2)
            .cores(1)
            .partitions(2)
            .replication(2)
            .service_rate(200_000.0)
            .workload_kind(WorkloadKind::Synthetic {
                fanout: FanoutDist::soundcloud_like(),
                num_keys: RT_TRACKS,
                zipf_exponent: 0.9,
            })
            .load(load),
    };
    b.tasks(tasks)
        .strategies(vec![brb_direct()])
        .seeds(&[seed])
        .build()
}

/// How a live run draws its tasks from a lowered config: playlists
/// flatten to the SoundCloud fan-out mixture over uniform track keys
/// (as `brb-lab --backend rt` lowers them); synthetic workloads keep
/// their Zipf key popularity.
#[derive(Debug, Clone)]
pub struct KeyShape {
    /// Fan-out distribution.
    pub fanout: FanoutDist,
    /// Keys are drawn from `0..key_range`.
    pub key_range: u64,
    /// Zipf exponent of key popularity (0 = uniform).
    pub zipf: f64,
    /// Value sizes the store holds.
    pub sizes: SizeModel,
}

/// Upper bound on keys a live run populates: the unscaled paper catalog
/// (1M tracks × 3 replicas) would not fit a small host's memory, so the
/// live probe of a sim workload draws keys from its first 50k tracks.
pub const LIVE_KEY_CAP: u64 = 50_000;

/// The key shape of a lowered config, capped at [`LIVE_KEY_CAP`].
pub fn key_shape(base: &ExperimentConfig) -> KeyShape {
    let (fanout, key_range, zipf) = match &base.workload.kind {
        WorkloadKind::Synthetic {
            fanout,
            num_keys,
            zipf_exponent,
        } => (fanout.clone(), *num_keys, *zipf_exponent),
        WorkloadKind::Playlist { num_tracks, .. } => {
            (FanoutDist::soundcloud_like(), *num_tracks, 0.0)
        }
    };
    KeyShape {
        fanout,
        key_range: key_range.min(LIVE_KEY_CAP),
        zipf,
        sizes: base.workload.sizes,
    }
}

/// The live cluster for a lowered config running BRB's realizable
/// strategy (EqualMax priorities, least-outstanding selection), with the
/// config's overload knobs carried over the way `brb-lab --backend rt`
/// carries them.
pub fn live_cluster(base: &ExperimentConfig, work: WorkModel) -> RtClusterConfig {
    let c = &base.cluster;
    let network_rtt_ns = match c.latency {
        LatencyModel::Constant { delay_ns } => 2 * delay_ns,
        _ => 0,
    };
    RtClusterConfig {
        num_servers: c.num_servers,
        workers_per_server: c.cores_per_server,
        replication: c.replication,
        num_partitions: Some(c.num_partitions),
        policy: PolicyKind::EqualMax,
        selector: SelectorSpec::LeastOutstanding,
        work,
        sizes: base.workload.sizes,
        forecast: c.forecast,
        num_clients: c.num_clients,
        network_rtt_ns,
        queue: base.overload.queue.map(|q| RtQueueConfig {
            bound: q.bound(),
            codel: q.codel,
        }),
        timeout: base.overload.timeout.map(|t| RtTimeoutConfig {
            timeout_ns: t.timeout_us * 1_000,
            max_retries: t.max_retries,
            backoff_base_ns: t.backoff_base_us * 1_000,
            backoff_cap_ns: t.backoff_cap_us * 1_000,
            retry_budget_percent: t.retry_budget_percent,
        }),
        ..RtClusterConfig::default()
    }
}

/// The simulated service model of a lowered config, as a live
/// `WorkModel`.
pub fn simulated_service(base: &ExperimentConfig) -> WorkModel {
    WorkModel::SimulateService(base.cluster.service_model(base.workload.sizes.mean_bytes()))
}
