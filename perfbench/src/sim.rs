//! Simulator workloads: set-up (spec lowering, trace generation, world
//! build), measured rounds of `run_experiment_on_trace` plus report
//! emission, and the output checks behind `failed_ratio`.

use crate::output::Outcome;
use crate::spans::{Recorder, NO_TASK, ROOT};
use brb_core::engine::EngineWorld;
use brb_core::experiment::{run_experiment_on_trace, RunResult, StrategySummary};
use brb_lab::spec::ScenarioCell;
use brb_lab::{parse_jsonl, report, CellResult, ScenarioSpec};
use brb_workload::TaskSpec;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One lowered cell under one of its spec's seeds, with that seed's
/// generated trace.
#[derive(Debug)]
pub struct SimCell {
    /// Index of the spec the cell came from.
    pub spec: usize,
    /// The lowered cell.
    pub cell: ScenarioCell,
    /// The run seed.
    pub seed: u64,
    /// The seed's task trace, shared by every strategy of the cell.
    pub trace: Arc<Vec<TaskSpec>>,
}

/// Everything a round needs, built before the first event.
#[derive(Debug)]
pub struct SimSetup {
    /// The workload's specs.
    pub specs: Vec<ScenarioSpec>,
    /// Their (cell × seed) pairs: spec-major, then cell, then seed.
    pub cells: Vec<SimCell>,
}

/// Lowers `specs`, generates each (cell × seed) trace, and builds one
/// world per trace (the cost each run pays before its first event).
pub fn setup(specs: Vec<ScenarioSpec>, rec: &mut Recorder) -> Result<SimSetup, String> {
    let mut cells = Vec::new();
    for (si, spec) in specs.iter().enumerate() {
        let span = rec.open("lab.lower", ROOT, NO_TASK);
        let lowered = spec.lower().map_err(|e| format!("{}: {e}", spec.name))?;
        rec.close(span, lowered.len() as u64);
        for cell in lowered {
            for &seed in &spec.seeds {
                let cfg = cell.config_for(cell.strategies[0].clone(), seed);
                let span = rec.open("workload.trace_gen", ROOT, NO_TASK);
                let trace = Arc::new(EngineWorld::generate_trace(&cfg));
                rec.close(span, trace.len() as u64);
                let span = rec.open("core.world_build", ROOT, NO_TASK);
                let world = EngineWorld::with_shared_trace(cfg, Arc::clone(&trace));
                rec.close(span, 1);
                drop(world);
                cells.push(SimCell {
                    spec: si,
                    cell: cell.clone(),
                    seed,
                    trace,
                });
            }
        }
    }
    Ok(SimSetup { specs, cells })
}

/// One measured round: every (cell × seed × strategy) run once, then
/// every spec's report-v1 written.
#[derive(Debug)]
pub struct Round {
    /// Wall time of the runs plus the report writes (trace copies made
    /// before each run are excluded).
    pub wall: Duration,
    /// Tasks resolved across the round's runs.
    pub tasks: u64,
    /// Requests (key reads) those tasks issued; each resolves once.
    pub requests: u64,
    /// Wall time of each run, in run order.
    pub run_walls: Vec<Duration>,
    /// `(index into `SimSetup::cells`, result)` per run, in run order.
    pub runs: Vec<(usize, RunResult)>,
    /// One report-v1 document per spec.
    pub reports: Vec<String>,
}

/// Runs one round.
pub fn round(setup: &SimSetup, rec: &mut Recorder) -> Round {
    let mut wall = Duration::ZERO;
    let mut runs = Vec::new();
    let mut run_walls = Vec::new();
    let mut tasks = 0u64;
    let mut requests = 0u64;
    for (ci, c) in setup.cells.iter().enumerate() {
        let cell_requests: u64 = c.trace.iter().map(|t| t.fanout() as u64).sum();
        for strategy in &c.cell.strategies {
            let cfg = c.cell.config_for(strategy.clone(), c.seed);
            let trace = Vec::clone(&c.trace);
            let span = rec.open("core.run", ROOT, NO_TASK);
            let t = Instant::now();
            let result = run_experiment_on_trace(cfg, trace);
            let run_wall = t.elapsed();
            wall += run_wall;
            run_walls.push(run_wall);
            rec.close(span, result.events);
            tasks += c.cell.base.workload.num_tasks as u64;
            requests += cell_requests;
            runs.push((ci, result));
        }
    }
    let mut reports = Vec::with_capacity(setup.specs.len());
    for (si, spec) in setup.specs.iter().enumerate() {
        let results = cell_results(setup, &runs, si);
        let span = rec.open("lab.report_write", ROOT, NO_TASK);
        let t = Instant::now();
        let text = report::to_jsonl_string(spec, &results);
        wall += t.elapsed();
        rec.close(span, text.lines().count() as u64);
        reports.push(text);
    }
    Round {
        wall,
        tasks,
        requests,
        run_walls,
        runs,
        reports,
    }
}

/// The report-v1 input for spec `si`: per cell, one summary per
/// strategy over the spec's seeds (in seed order).
fn cell_results(setup: &SimSetup, runs: &[(usize, RunResult)], si: usize) -> Vec<CellResult> {
    let spec = &setup.specs[si];
    let mut out: Vec<CellResult> = Vec::new();
    for c in setup.cells.iter().filter(|c| c.spec == si) {
        if out.last().is_some_and(|r| r.index == c.cell.index) {
            continue;
        }
        let summaries = (0..c.cell.strategies.len())
            .map(|k| {
                let per_seed = spec.seeds.iter().map(|&seed| {
                    let (_, r) = runs
                        .iter()
                        .filter(|(i, _)| {
                            let x = &setup.cells[*i];
                            x.spec == si && x.cell.index == c.cell.index && x.seed == seed
                        })
                        .nth(k)
                        .expect("every strategy ran under every seed");
                    r.clone()
                });
                StrategySummary::from_runs(per_seed.collect())
            })
            .collect();
        out.push(CellResult {
            index: c.cell.index,
            axes: c.cell.axes,
            summaries,
        });
    }
    out
}

/// Checks a round's outputs, counting each run as attempted and each
/// run that fails a check as failed:
///
/// * every run conserves tasks (`completed + dropped + timed_out + shed
///   == issued`), and runs without the overload knobs complete all;
/// * every report round-trips byte for byte through `parse_jsonl`.
pub fn check_round(setup: &SimSetup, round: &Round, out: &mut Outcome) {
    let mut bad_spec = vec![false; setup.specs.len()];
    for (si, text) in round.reports.iter().enumerate() {
        let same = parse_jsonl(text)
            .map(|p| report::to_jsonl_string(&p.spec, &p.results) == *text)
            .unwrap_or(false);
        if !same {
            bad_spec[si] = true;
            out.problem(format!(
                "{}: report does not round-trip through parse_jsonl",
                setup.specs[si].name
            ));
        }
    }
    for (ci, r) in &round.runs {
        out.attempted += 1;
        let c = &setup.cells[*ci];
        let issued = c.cell.base.workload.num_tasks as u64;
        let resolved = r.completed_tasks as u64
            + r.overload
                .as_ref()
                .map_or(0, |o| o.dropped + o.timed_out + o.shed);
        let complete = r.overload.is_some() || r.completed_tasks as u64 == issued;
        if resolved != issued || !complete || bad_spec[c.spec] {
            out.failed += 1;
            out.problem(format!(
                "{} cell {} {}: {} of {issued} tasks resolved ({} completed)",
                setup.specs[c.spec].name, c.cell.index, r.strategy, resolved, r.completed_tasks
            ));
        }
    }
}

/// FNV-1a digest of a round's reports (printed per seed; equal across
/// rounds because the simulator is deterministic).
pub fn digest(reports: &[String]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in reports.iter().flat_map(|r| r.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}
