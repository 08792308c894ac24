//! `perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Untraced (`--trace 0`): measures the workload's end-to-end metrics.
//! Traced (`--trace 1`): records spans, writes them to
//! `.bench_out/spans-<workload>-seed<n>.jsonl`, and reports the
//! per-layer metrics. Either way the last stdout line is the JSON
//! result; the exit code is nonzero when an output check failed.

use brb_core::config::ExperimentConfig;
use brb_core::engine::EngineWorld;
use brb_core::experiment::{run_experiment_on_trace, RunResult, StrategySummary};
use brb_lab::{report, CellResult, ScenarioSpec};
use brb_perfbench::live::{self, LiveStats};
use brb_perfbench::output::{json_line, text_line, Metric, Outcome};
use brb_perfbench::spans::{self, Recorder, NO_TASK, ROOT};
use brb_perfbench::workloads::{self as wl, Workload};
use brb_perfbench::{host, layers, mean, median, quantile, sim};
use brb_rt::{RtCluster, WorkModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 9;
/// End-to-end metrics, in `BENCHMARK.json` order.
const END_TO_END: [&str; 3] = ["setup_s", "ops_per_s", "peak_rss_mb"];
/// Per-layer metrics, in `BENCHMARK.json` order.
const PER_LAYER: [&str; 44] = [
    "task_p50_ms",
    "task_p99_ms",
    "lab.lower_ms",
    "lab.report_write_us_per_line",
    "workload.trace_gen_ms",
    "workload.zipf_ns",
    "workload.mean_fanout",
    "core.world_build_ms",
    "core.run_ms",
    "core.events_per_s",
    "core.events_per_task",
    "core.dispatched_per_request",
    "sim.calendar_ns",
    "sim.calendar_depth",
    "sim.normal_ns",
    "sim.exp_ns",
    "net.hop_ns",
    "select.c3_ns",
    "select.least_outstanding_ns",
    "sched.policy_queue_ns",
    "sched.credits_epoch_us",
    "sched.global_queue_ns",
    "sched.codel_ns",
    "store.ring_ns",
    "store.service_draw_ns",
    "store.kv_get_ns",
    "metrics.hist_record_ns",
    "rt.start_ms",
    "rt.submit_us.p50",
    "rt.submit_us.p99",
    "rt.collect_us",
    "rt.cpu_us_per_task",
    "rt.request_ms.p50",
    "rt.request_ms.p99",
    "rt.queue_wait_ms",
    "rt.served_imbalance",
    "rt.busy_over_offered",
    "rt.p99_over_sim",
    "rt.gen_late_us.p50",
    "rt.gen_late_us.p99",
    "rt.dispatch_per_request",
    "bench.trace_overhead_ratio",
    "bench.samples",
    "bench.escaping_spans",
];

/// Tasks of the short live probe a traced sim workload runs on its own
/// spec (the simulator's cluster shapes outrun one client thread, so
/// the probe is a burst, not a steady state).
const LIVE_PROBE_TASKS: f64 = 400.0;
/// Tasks of the simulator run a traced live workload makes on its spec.
const SIM_SIDE_TASKS: usize = 20_000;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse::<f64>().map_err(|_| bad())?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Sorted copy of nanosecond samples as f64.
fn sorted(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&x| x as f64).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// p50 and p99 (ms) of nanosecond latencies.
fn p50_p99_ms(ns: &[u64]) -> (f64, f64) {
    let v = sorted(ns);
    (ms(quantile(&v, 0.5)), ms(quantile(&v, 0.99)))
}

// ---------------------------------------------------------------------------
// Untraced runs: end-to-end metrics
// ---------------------------------------------------------------------------

fn untraced(a: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(false);
    match a.workload {
        Workload::SimPaper | Workload::SimOverload => sim_untraced(a, &mut out, &mut rec)?,
        Workload::RtService => service_untraced(a, &mut out, &mut rec)?,
        Workload::RtLoopback => loopback_untraced(a, &mut out, &mut rec)?,
    }
    out.metrics
        .push(Metric::new("peak_rss_mb", host::peak_rss_mb(), "MB"));
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.info.push(Metric::over(
        "failed_ratio",
        failed_ratio,
        "ratio",
        out.attempted,
    ));
    Ok(out)
}

fn sim_untraced(a: &Args, out: &mut Outcome, rec: &mut Recorder) -> Result<(), String> {
    let mut setup_s = Vec::new();
    let mut setup = None;
    for _ in 0..SETUPS {
        drop(setup.take());
        let t = Instant::now();
        let specs = wl::sim_specs(a.workload, a.seed).map_err(|e| e.to_string())?;
        setup = Some(sim::setup(specs, rec)?);
        setup_s.push(secs(t.elapsed()));
    }
    let setup = setup.expect("at least one set-up");
    let start = Instant::now();
    let cpu0 = host::process_cpu();
    let mut task_rates = Vec::new();
    let mut run_rates = Vec::new();
    let mut requests = 0u64;
    let mut digests = Vec::new();
    let mut first: Option<sim::Round> = None;
    while task_rates.is_empty() || start.elapsed().as_secs_f64() < a.seconds {
        let r = sim::round(&setup, rec);
        sim::check_round(&setup, &r, out);
        let wall = secs(r.wall);
        for ((_, run), w) in r.runs.iter().zip(&r.run_walls) {
            run_rates.push(run.events as f64 / secs(*w));
        }
        task_rates.push(r.tasks as f64 / wall);
        requests += r.requests;
        digests.push(sim::digest(&r.reports));
        first.get_or_insert(r);
    }
    let cpu = host::process_cpu().saturating_sub(cpu0);
    if digests.iter().any(|d| *d != digests[0]) {
        out.problem("simulator output differs between rounds of one seed".into());
    }
    let (p50, p99, samples) = simulated_tails(&first.expect("at least one round"));
    let rounds = task_rates.len() as u64;
    let nruns = run_rates.len() as u64;
    out.metrics.push(Metric::over(
        "setup_s",
        median(&mut setup_s),
        "s",
        SETUPS as u64,
    ));
    // Simulated events per wall second of the median run. Events, not
    // tasks or requests: how hard a cell overloads depends on the seed's
    // hot playlists, and retries multiply the work per request; the
    // median, so the few retry-heavy runs of a hot seed do not set it.
    out.metrics.push(Metric::over(
        "ops_per_s",
        median(&mut run_rates),
        "1/s",
        nruns,
    ));
    out.info.push(Metric::over(
        "sim_tasks_per_s",
        median(&mut task_rates),
        "1/s",
        rounds,
    ));
    out.info.push(Metric::over(
        "cpu_us_per_request",
        secs(cpu) * 1e6 / requests as f64,
        "us",
        requests,
    ));
    out.info
        .push(Metric::over("sim.task_p50_ms", p50, "ms", samples));
    out.info
        .push(Metric::over("sim.task_p99_ms", p99, "ms", samples));
    out.notes.push(format!(
        "report digest seed {} = {:016x}",
        a.seed, digests[0]
    ));
    Ok(())
}

/// The simulator's own task latencies (simulated ms) averaged over a
/// round's runs, with the measured tasks behind them.
fn simulated_tails(round: &sim::Round) -> (f64, f64, u64) {
    let runs = || round.runs.iter().map(|(_, r)| r);
    let p50: Vec<f64> = runs().map(|r| r.task_latency_ms.p50).collect();
    let p99: Vec<f64> = runs().map(|r| r.task_latency_ms.p99).collect();
    let samples = runs().map(|r| r.measured_tasks).sum();
    (mean(&p50), mean(&p99), samples)
}

/// Starts `SETUPS` clusters for `base` (lowering `spec` each time) and
/// keeps the last; returns it with the median set-up time.
fn live_setups(
    spec: impl Fn() -> Result<ScenarioSpec, String>,
    work: impl Fn(&ExperimentConfig) -> WorkModel,
    rec: &mut Recorder,
) -> Result<(RtCluster, Vec<brb_lab::ScenarioCell>, f64), String> {
    let mut setup_s = Vec::new();
    let mut kept: Option<(RtCluster, Vec<brb_lab::ScenarioCell>)> = None;
    for _ in 0..SETUPS {
        if let Some((c, _)) = kept.take() {
            c.shutdown_checked().map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        let span = rec.open("lab.lower", ROOT, NO_TASK);
        let cells = spec()?.lower().map_err(|e| e.to_string())?;
        rec.close(span, cells.len() as u64);
        let base = &cells[0].base;
        let cluster = live::start_cluster(
            wl::live_cluster(base, work(base)),
            &wl::key_shape(base),
            rec,
        );
        setup_s.push(secs(t.elapsed()));
        kept = Some((cluster, cells));
    }
    let (cluster, cells) = kept.expect("at least one set-up");
    Ok((cluster, cells, median(&mut setup_s)))
}

/// Books a live run's checks: conservation always, and no failures on a
/// cluster without overload knobs.
fn check_live(what: &str, s: &LiveStats, overload: bool, out: &mut Outcome) {
    out.attempted += s.issued;
    out.failed += if overload { s.wrong } else { s.failures() };
    if !s.conserved() {
        out.problem(format!(
            "{what}: {} completed + {} dropped + {} timed out + {} shed != {} issued",
            s.completed, s.dropped, s.timed_out, s.shed, s.issued
        ));
    }
    if s.wrong > 0 {
        out.problem(format!("{what}: {} tasks returned wrong values", s.wrong));
    }
}

/// The `rt-service` ladder: one schedule per rung, lows first. Low
/// rungs get a quarter of `seconds` each, the high rung half.
fn service_schedules(
    cells: &[brb_lab::ScenarioCell],
    seconds: f64,
    seed: u64,
) -> Vec<live::Schedule> {
    let shape = wl::key_shape(&cells[0].base);
    let last = cells.len() - 1;
    cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let rate = c.base.workload.task_rate(&c.base.cluster);
            let share = if i == last { 0.5 } else { 0.25 };
            live::schedule(&shape, rate, seconds * share, seed.wrapping_add(i as u64))
        })
        .collect()
}

/// Whether a rung's backlog grew: the median latency of its last third
/// of tasks exceeds twice that of its first third plus a millisecond.
fn backlog_grew(s: &LiveStats) -> bool {
    let n = s.lat_ns.len();
    if n < 30 {
        return false;
    }
    let (first, _) = p50_p99_ms(&s.lat_ns[..n / 3]);
    let (last, _) = p50_p99_ms(&s.lat_ns[n - n / 3..]);
    last > 2.0 * first + 1.0
}

fn service_untraced(a: &Args, out: &mut Outcome, rec: &mut Recorder) -> Result<(), String> {
    let (cluster, cells, setup_s) = live_setups(
        || wl::live_spec(Workload::RtService, a.seed, 0.5, 2_000).map_err(|e| e.to_string()),
        wl::simulated_service,
        rec,
    )?;
    let shape = wl::key_shape(&cells[0].base);
    let schedules = service_schedules(&cells, a.seconds, a.seed);
    let client = cluster.client();
    let mut rungs = Vec::new();
    for (c, sched) in cells.iter().zip(&schedules) {
        let s = live::run_open(&cluster, &client, sched, &shape, rec).map_err(|e| e.to_string())?;
        let load = c.axes.load.unwrap_or(0.0);
        check_live(&format!("rt-service load {load}"), &s, false, out);
        rungs.push((load, s));
    }
    drop(client);
    cluster.shutdown_checked().map_err(|e| e.to_string())?;

    let (hi_load, hi) = rungs.last().expect("a high rung");
    let lo: Vec<u64> = rungs[..rungs.len() - 1]
        .iter()
        .flat_map(|(_, s)| s.lat_ns.iter().copied())
        .collect();
    let (lo50, lo99) = p50_p99_ms(&lo);
    let (hi50, hi99) = p50_p99_ms(&hi.lat_ns);
    let wall: f64 = rungs.iter().map(|(_, s)| secs(s.wall)).sum();
    let requests: u64 = rungs.iter().map(|(_, s)| s.requests).sum();
    let cpu: f64 = rungs.iter().map(|(_, s)| secs(s.cpu)).sum();
    let n_hi = hi.lat_ns.len() as u64;
    out.metrics
        .push(Metric::over("setup_s", setup_s, "s", SETUPS as u64));
    out.metrics.push(Metric::over(
        "ops_per_s",
        requests as f64 / wall,
        "1/s",
        requests,
    ));
    out.info.push(Metric::over(
        "cpu_us_per_request",
        cpu * 1e6 / requests as f64,
        "us",
        requests,
    ));
    out.info
        .push(Metric::over("task_p50_ms.lo", lo50, "ms", lo.len() as u64));
    out.info
        .push(Metric::over("task_p99_ms.lo", lo99, "ms", lo.len() as u64));
    out.info
        .push(Metric::over("task_p50_ms.hi", hi50, "ms", n_hi));
    out.info
        .push(Metric::over("task_p99_ms.hi", hi99, "ms", n_hi));
    let mut best = 0.0;
    for (load, s) in &rungs {
        let (_, p99) = p50_p99_ms(&s.lat_ns);
        let late = sorted(&s.late_ns);
        out.info.push(Metric::over(
            &format!("gen_late_us.p99.load{load}"),
            quantile(&late, 0.99) / 1e3,
            "us",
            late.len() as u64,
        ));
        if p99 <= wl::RT_SERVICE_SLO_P99_MS && s.failures() == 0 && !backlog_grew(s) {
            best = f64::max(best, *load);
        }
    }
    out.info
        .push(Metric::new("max_load_under_slo", best, "load"));
    out.info
        .push(Metric::new("slo_p99_ms", wl::RT_SERVICE_SLO_P99_MS, "ms"));
    out.info.push(Metric::new("hi_load", *hi_load, "load"));
    Ok(())
}

/// Draws the `rt-loopback` key-list pool from the seed.
fn loopback_keys(cells: &[brb_lab::ScenarioCell], seed: u64) -> Vec<Vec<u64>> {
    let shape = wl::key_shape(&cells[0].base);
    live::key_lists(&shape, 50_000, &mut StdRng::seed_from_u64(seed))
}

fn loopback_untraced(a: &Args, out: &mut Outcome, rec: &mut Recorder) -> Result<(), String> {
    let (cluster, cells, setup_s) = live_setups(
        || wl::live_spec(Workload::RtLoopback, a.seed, 0.5, 20_000).map_err(|e| e.to_string()),
        |_| WorkModel::Instant,
        rec,
    )?;
    let shape = wl::key_shape(&cells[0].base);
    let keys = loopback_keys(&cells, a.seed);
    let client = cluster.client();
    // Warm-up: fill caches and let the selector settle; checked, not timed.
    let warm = live::run_closed(
        &cluster,
        &client,
        &keys,
        wl::LOOPBACK_WINDOW,
        Duration::from_millis(500),
        &shape,
        rec,
    )
    .map_err(|e| e.to_string())?;
    check_live("rt-loopback warm-up", &warm, false, out);
    let s = live::run_closed(
        &cluster,
        &client,
        &keys,
        wl::LOOPBACK_WINDOW,
        Duration::from_secs_f64(a.seconds),
        &shape,
        rec,
    )
    .map_err(|e| e.to_string())?;
    check_live("rt-loopback", &s, false, out);
    drop(client);
    cluster.shutdown_checked().map_err(|e| e.to_string())?;
    let (p50, p99) = p50_p99_ms(&s.lat_ns);
    let n = s.lat_ns.len() as u64;
    let tps = s.completed as f64 / secs(s.wall);
    out.metrics
        .push(Metric::over("setup_s", setup_s, "s", SETUPS as u64));
    out.metrics.push(Metric::over(
        "ops_per_s",
        s.requests as f64 / secs(s.wall),
        "1/s",
        s.requests,
    ));
    out.info.push(Metric::over(
        "cpu_us_per_request",
        secs(s.cpu) * 1e6 / s.requests as f64,
        "us",
        s.requests,
    ));
    out.info
        .push(Metric::over("rt_tasks_per_s", tps, "1/s", s.completed));
    out.info.push(Metric::over("task_p50_ms", p50, "ms", n));
    out.info.push(Metric::over("task_p99_ms", p99, "ms", n));
    Ok(())
}

// ---------------------------------------------------------------------------
// Traced runs: per-layer metrics
// ---------------------------------------------------------------------------

/// The simulator's side of a traced run: one config, its trace, and a
/// run of it, with the layer spans around each call.
struct SimSide {
    run: RunResult,
    mean_fanout: f64,
}

/// Lowers `spec`, generates cell `cell`'s trace, builds its world, runs
/// BRB's realizable strategy on it and writes its report — each call
/// under its layer's span.
fn sim_side(
    spec: &ScenarioSpec,
    cell: usize,
    seed: u64,
    rec: &mut Recorder,
) -> Result<(SimSide, ExperimentConfig), String> {
    let span = rec.open("lab.lower", ROOT, NO_TASK);
    let cells = spec.lower().map_err(|e| e.to_string())?;
    rec.close(span, cells.len() as u64);
    let c = &cells[cell];
    let cfg = c.config_for(wl::brb_direct(), seed);
    let span = rec.open("workload.trace_gen", ROOT, NO_TASK);
    let trace = EngineWorld::generate_trace(&cfg);
    rec.close(span, trace.len() as u64);
    let requests: usize = trace.iter().map(|t| t.fanout()).sum();
    let mean_fanout = requests as f64 / trace.len() as f64;
    let span = rec.open("core.world_build", ROOT, NO_TASK);
    let world = EngineWorld::with_shared_trace(cfg.clone(), Arc::new(trace.clone()));
    rec.close(span, 1);
    drop(world);
    let span = rec.open("core.run", ROOT, NO_TASK);
    let run = run_experiment_on_trace(cfg.clone(), trace);
    rec.close(span, run.events);
    let result = CellResult {
        index: c.index,
        axes: c.axes,
        summaries: vec![StrategySummary::from_runs(vec![run.clone()])],
    };
    let span = rec.open("lab.report_write", ROOT, NO_TASK);
    let text = report::to_jsonl_string(spec, std::slice::from_ref(&result));
    rec.close(span, text.lines().count() as u64);
    Ok((SimSide { run, mean_fanout }, c.base.clone()))
}

/// Live-runtime layer metrics of one measured run.
fn rt_metrics(
    s: &LiveStats,
    workers: u32,
    offered: f64,
    sim_p99_ms: f64,
    spans: &[spans::Span],
) -> Vec<Metric> {
    let start_ms = mean(
        &spans::named(spans, "rt.start")
            .map(|x| ms(x.duration_ns() as f64))
            .collect::<Vec<_>>(),
    );
    let submit = sorted(&s.submit_ns);
    let late = sorted(&s.late_ns);
    let req = sorted(&s.req_ns);
    let (_, p99) = p50_p99_ms(&s.lat_ns);
    let resolved = (s.completed + s.dropped + s.timed_out + s.shed).max(1);
    let served: u64 = s.served.iter().sum();
    let served_mean = served as f64 / s.served.len().max(1) as f64;
    let served_max = s.served.iter().copied().max().unwrap_or(0) as f64;
    let busy_ratio = s.busy_ns as f64 / (secs(s.wall) * 1e9 * f64::from(workers));
    let n_req = req.len() as u64;
    vec![
        Metric::new("rt.start_ms", start_ms, "ms"),
        Metric::over(
            "rt.submit_us.p50",
            quantile(&submit, 0.5) / 1e3,
            "us",
            submit.len() as u64,
        ),
        Metric::over(
            "rt.submit_us.p99",
            quantile(&submit, 0.99) / 1e3,
            "us",
            submit.len() as u64,
        ),
        Metric::over(
            "rt.collect_us",
            s.collect_ns as f64 / resolved as f64 / 1e3,
            "us",
            resolved,
        ),
        Metric::over(
            "rt.cpu_us_per_task",
            secs(s.cpu) * 1e6 / s.issued.max(1) as f64,
            "us",
            s.issued,
        ),
        Metric::over("rt.request_ms.p50", ms(quantile(&req, 0.5)), "ms", n_req),
        Metric::over("rt.request_ms.p99", ms(quantile(&req, 0.99)), "ms", n_req),
        Metric::over(
            "rt.queue_wait_ms",
            ms(mean(&req) - s.busy_ns as f64 / served.max(1) as f64),
            "ms",
            n_req,
        ),
        Metric::new(
            "rt.served_imbalance",
            served_max / served_mean.max(1e-9),
            "ratio",
        ),
        Metric::new("rt.busy_over_offered", busy_ratio / offered, "ratio"),
        Metric::new("rt.p99_over_sim", p99 / sim_p99_ms, "ratio"),
        Metric::over(
            "rt.gen_late_us.p50",
            quantile(&late, 0.5) / 1e3,
            "us",
            late.len() as u64,
        ),
        Metric::over(
            "rt.gen_late_us.p99",
            quantile(&late, 0.99) / 1e3,
            "us",
            late.len() as u64,
        ),
        Metric::new(
            "rt.dispatch_per_request",
            s.dispatched as f64 / s.requests.max(1) as f64,
            "ratio",
        ),
    ]
}

/// Layer metrics read off the recorded spans.
fn span_metrics(
    spans: &[spans::Span],
    mean_fanout: f64,
    runs: &[&RunResult],
    requests: u64,
) -> Vec<Metric> {
    let selfs = spans::self_times(spans);
    let total = |name: &str| -> f64 {
        spans::named(spans, name)
            .map(|s| s.duration_ns() as f64)
            .sum()
    };
    let mut build: Vec<f64> = spans::named(spans, "core.world_build")
        .map(|s| s.duration_ns() as f64)
        .collect();
    let mut run_self: Vec<f64> = spans::named(spans, "core.run")
        .map(|s| selfs[&s.id] as f64)
        .collect();
    let run_ns: f64 = total("core.run");
    let events: u64 = runs.iter().map(|r| r.events).sum();
    let tasks: u64 = runs
        .iter()
        .map(|r| {
            r.completed_tasks as u64
                + r.overload
                    .as_ref()
                    .map_or(0, |o| o.dropped + o.timed_out + o.shed)
        })
        .sum();
    let dispatched: u64 = runs.iter().map(|r| r.dispatched).sum();
    let lines: u64 = spans::named(spans, "lab.report_write")
        .map(|s| s.count)
        .sum();
    vec![
        Metric::new("lab.lower_ms", ms(total("lab.lower")), "ms"),
        Metric::over(
            "lab.report_write_us_per_line",
            total("lab.report_write") / 1e3 / lines.max(1) as f64,
            "us",
            lines,
        ),
        Metric::new(
            "workload.trace_gen_ms",
            ms(total("workload.trace_gen")),
            "ms",
        ),
        Metric::new("workload.mean_fanout", mean_fanout, "count"),
        Metric::over(
            "core.world_build_ms",
            ms(median(&mut build)),
            "ms",
            build.len() as u64,
        ),
        Metric::over(
            "core.run_ms",
            ms(median(&mut run_self)),
            "ms",
            run_self.len() as u64,
        ),
        Metric::new("core.events_per_s", events as f64 / (run_ns / 1e9), "1/s"),
        Metric::new(
            "core.events_per_task",
            events as f64 / tasks.max(1) as f64,
            "count",
        ),
        Metric::new(
            "core.dispatched_per_request",
            dispatched as f64 / requests.max(1) as f64,
            "ratio",
        ),
    ]
}

fn traced(a: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut rec = Recorder::new(true);
    let mut metrics = match a.workload {
        Workload::SimPaper | Workload::SimOverload => sim_traced(a, &mut out, &mut rec)?,
        Workload::RtService | Workload::RtLoopback => live_traced(a, &mut out, &mut rec)?,
    };
    let escaping = spans::escaping_children(rec.spans());
    metrics.push(Metric::new(
        "bench.escaping_spans",
        escaping.len() as f64,
        "count",
    ));
    let tasks = spans::by_task(rec.spans()).len();
    out.info
        .push(Metric::new("bench.traced_tasks", tasks as f64, "count"));
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("spans-{}-seed{}.jsonl", a.workload.name(), a.seed));
    let file = std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    spans::write_jsonl(rec.spans(), std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
    println!("spans {} written to {}", rec.spans().len(), path.display());
    for name in PER_LAYER {
        let m = metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
        out.metrics.push(m.clone());
    }
    Ok(out)
}

fn sim_traced(a: &Args, out: &mut Outcome, rec: &mut Recorder) -> Result<Vec<Metric>, String> {
    let specs = wl::sim_specs(a.workload, a.seed).map_err(|e| e.to_string())?;
    let setup = sim::setup(specs, rec)?;
    let plain = sim::round(&setup, &mut Recorder::new(false));
    sim::check_round(&setup, &plain, out);
    let traced = sim::round(&setup, rec);
    sim::check_round(&setup, &traced, out);
    let overhead = secs(traced.wall) / secs(plain.wall);

    let requests: u64 = traced
        .runs
        .iter()
        .map(|(ci, _)| {
            setup.cells[*ci]
                .trace
                .iter()
                .map(|t| t.fanout() as u64)
                .sum::<u64>()
        })
        .sum();
    let tasks: u64 = setup.cells.iter().map(|c| c.trace.len() as u64).sum();
    let fanout_requests: u64 = setup
        .cells
        .iter()
        .flat_map(|c| c.trace.iter())
        .map(|t| t.fanout() as u64)
        .sum();
    let mean_fanout = fanout_requests as f64 / tasks as f64;
    let runs: Vec<&RunResult> = traced.runs.iter().map(|(_, r)| r).collect();
    let mut metrics = span_metrics(rec.spans(), mean_fanout, &runs, requests);
    let (p50, p99, samples) = simulated_tails(&traced);
    metrics.push(Metric::over("task_p50_ms", p50, "ms", samples));
    metrics.push(Metric::over("task_p99_ms", p99, "ms", samples));

    // The probe cell: the first spec's highest-load cell.
    let probe = setup
        .cells
        .iter()
        .rposition(|c| c.spec == 0)
        .expect("a cell of the first spec");
    let cell = &setup.cells[probe];
    let base = &cell.cell.base;
    let brb = run_experiment_on_trace(
        cell.cell.config_for(wl::brb_direct(), cell.seed),
        Vec::clone(&cell.trace),
    );
    let shape = wl::key_shape(base);
    let cluster = live::start_cluster(
        wl::live_cluster(base, wl::simulated_service(base)),
        &shape,
        rec,
    );
    let client = cluster.client();
    let rate = base.workload.task_rate(&base.cluster);
    let sched = live::schedule(&shape, rate, LIVE_PROBE_TASKS / rate, a.seed);
    let s = live::run_open(&cluster, &client, &sched, &shape, rec).map_err(|e| e.to_string())?;
    drop(client);
    cluster.shutdown_checked().map_err(|e| e.to_string())?;
    check_live(
        "live probe",
        &s,
        base.overload.timeout.is_some() || base.overload.queue.is_some(),
        out,
    );
    let workers = base.cluster.num_servers * base.cluster.cores_per_server;
    metrics.extend(rt_metrics(
        &s,
        workers,
        base.workload.load,
        brb.task_latency_ms.p99,
        rec.spans(),
    ));

    let first_run = traced
        .runs
        .iter()
        .find(|(ci, _)| *ci == probe)
        .map(|(_, r)| r)
        .expect("a run of the probe cell");
    let shape = layers::Shape {
        base,
        run: first_run,
        mean_fanout,
    };
    metrics.extend(layers::measure(&shape, a.seed, rec));
    metrics.push(Metric::new("bench.trace_overhead_ratio", overhead, "ratio"));
    metrics.push(Metric::new("bench.samples", samples as f64, "count"));
    Ok(metrics)
}

fn live_traced(a: &Args, out: &mut Outcome, rec: &mut Recorder) -> Result<Vec<Metric>, String> {
    let w = a.workload;
    let spec = wl::live_spec(w, a.seed, 0.5, 2_000).map_err(|e| e.to_string())?;
    let span = rec.open("lab.lower", ROOT, NO_TASK);
    let cells = spec.lower().map_err(|e| e.to_string())?;
    rec.close(span, cells.len() as u64);
    let base = cells[0].base.clone();
    let shape = wl::key_shape(&base);
    let work = match w {
        Workload::RtService => wl::simulated_service(&base),
        _ => WorkModel::Instant,
    };
    let cluster = live::start_cluster(wl::live_cluster(&base, work), &shape, rec);
    let client = cluster.client();
    let workers = base.cluster.num_servers * base.cluster.cores_per_server;
    let (measured, overhead, offered, sim_load) = if w == Workload::RtService {
        let schedules = service_schedules(&cells, a.seconds, a.seed);
        let hi = schedules.len() - 1;
        let plain = live::run_open(
            &cluster,
            &client,
            &schedules[hi],
            &shape,
            &mut Recorder::new(false),
        )
        .map_err(|e| e.to_string())?;
        check_live("rt-service untraced high rung", &plain, false, out);
        let mut last = None;
        for sched in &schedules {
            let s =
                live::run_open(&cluster, &client, sched, &shape, rec).map_err(|e| e.to_string())?;
            check_live("rt-service", &s, false, out);
            last = Some(s);
        }
        let s = last.expect("a high rung");
        let overhead = secs(s.wall) / secs(plain.wall);
        let load = cells[hi].base.workload.load;
        (s, overhead, load, load)
    } else {
        let keys = loopback_keys(&cells, a.seed);
        let half = Duration::from_secs_f64(a.seconds / 2.0);
        let plain = live::run_closed(
            &cluster,
            &client,
            &keys,
            wl::LOOPBACK_WINDOW,
            half,
            &shape,
            &mut Recorder::new(false),
        )
        .map_err(|e| e.to_string())?;
        check_live("rt-loopback untraced", &plain, false, out);
        let s = live::run_closed(
            &cluster,
            &client,
            &keys,
            wl::LOOPBACK_WINDOW,
            half,
            &shape,
            rec,
        )
        .map_err(|e| e.to_string())?;
        check_live("rt-loopback", &s, false, out);
        // Wall per task, traced over untraced.
        let overhead = (secs(s.wall) / s.completed.max(1) as f64)
            / (secs(plain.wall) / plain.completed.max(1) as f64);
        // The load the loop reached against the spec's stand-in capacity.
        let load =
            (s.requests as f64 / secs(s.wall) / base.cluster.capacity_rps()).clamp(0.02, 0.9);
        (s, overhead, load, load)
    };
    drop(client);
    cluster.shutdown_checked().map_err(|e| e.to_string())?;

    let sim_spec = wl::live_spec(w, a.seed, sim_load, SIM_SIDE_TASKS).map_err(|e| e.to_string())?;
    let cell = if w == Workload::RtService {
        cells.len() - 1
    } else {
        0
    };
    let (side, sim_base) = sim_side(&sim_spec, cell, a.seed, rec)?;
    out.attempted += 1;
    if side.run.completed_tasks != SIM_SIDE_TASKS {
        out.failed += 1;
        out.problem(format!(
            "simulator side: {} of {SIM_SIDE_TASKS} tasks completed",
            side.run.completed_tasks
        ));
    }
    let requests = (side.mean_fanout * SIM_SIDE_TASKS as f64).round() as u64;
    let mut metrics = span_metrics(rec.spans(), side.mean_fanout, &[&side.run], requests);
    let (p50, p99) = p50_p99_ms(&measured.lat_ns);
    let n = measured.lat_ns.len() as u64;
    metrics.push(Metric::over("task_p50_ms", p50, "ms", n));
    metrics.push(Metric::over("task_p99_ms", p99, "ms", n));
    metrics.extend(rt_metrics(
        &measured,
        workers,
        offered,
        side.run.task_latency_ms.p99,
        rec.spans(),
    ));
    let shape = layers::Shape {
        base: &sim_base,
        run: &side.run,
        mean_fanout: side.mean_fanout,
    };
    metrics.extend(layers::measure(&shape, a.seed, rec));
    metrics.push(Metric::new("bench.trace_overhead_ratio", overhead, "ratio"));
    metrics.push(Metric::new(
        "bench.samples",
        measured.lat_ns.len() as f64,
        "count",
    ));
    Ok(metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <sim-paper|sim-overload|rt-service|rt-loopback> [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    let probe = host::probe();
    println!("host nproc = {}", probe.nproc);
    println!("host two_thread_scaling = {:.3}", probe.two_thread_scaling);
    println!("host spin_reserve_us = {:.1}", probe.spin_reserve_us);
    println!("host cpu_model = {}", probe.cpu_model);
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    let out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.trace {
        let names: Vec<&str> = out.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(
            names, END_TO_END,
            "end-to-end metric set drifted from BENCHMARK.json"
        );
    }
    for note in &out.notes {
        println!("{note}");
    }
    for m in out.info.iter().chain(&out.metrics) {
        println!("{}", text_line(m));
    }
    for p in &out.problems {
        eprintln!("check failed: {p}");
    }
    println!("{}", json_line(&out));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
