//! The paper's quantitative figure-2 claims and the sweep trends behind
//! them, checked on scenarios run through `run_spec`.
//!
//! Figure 2 compares C3 with BRB's two priority policies (EqualMax,
//! UniformIncr) in two realizations: the practical credits controller
//! and the ideal global-queue model. The paper claims that credits land
//! within 38% of the model at p99, and that BRB beats C3 at every
//! percentile. The first claim already holds on `figure2-small` at 12k
//! tasks. The second needs runs long enough for C3's rate-control
//! oscillations to surface, so its test is ignored by default.
//!
//! `brb-lab run figure2-small` prints the table these tests read, and
//! `brb-lab compare figure2-small --baseline C3` scores each strategy's
//! gap to C3 with confidence intervals.

use brb_core::config::Strategy;
use brb_core::experiment::StrategySummary;
use brb_lab::registry;
use brb_lab::runner::run_spec;
use brb_lab::ScenarioBuilder;
use std::sync::OnceLock;

/// `figure2-small` at `tasks` per run: one cell, five strategies.
fn figure2_small(tasks: usize, seeds: &[u64]) -> Vec<StrategySummary> {
    let spec = registry::builder("figure2-small")
        .expect("registry preset")
        .tasks(tasks)
        .seeds(seeds)
        .build()
        .expect("valid scenario");
    let mut cells = run_spec(&spec).expect("figure2-small runs");
    assert_eq!(cells.len(), 1);
    cells.remove(0).summaries
}

/// The 12k-task, two-seed run both default-on figure-2 tests read.
fn figure2_12k() -> &'static [StrategySummary] {
    static RUN: OnceLock<Vec<StrategySummary>> = OnceLock::new();
    RUN.get_or_init(|| figure2_small(12_000, &[1, 2]))
}

fn find<'a>(summaries: &'a [StrategySummary], name: &str) -> &'a StrategySummary {
    summaries
        .iter()
        .find(|s| s.strategy == name)
        .unwrap_or_else(|| panic!("missing strategy {name}"))
}

/// The orderings that are stable even on short runs: the ideal model
/// never loses to its credits realization, and both models beat
/// task-oblivious C3.
#[test]
fn figure2_small_models_lead_credits_and_c3() {
    let summaries = figure2_12k();
    assert_eq!(summaries.len(), 5);
    let c3 = find(summaries, "C3");
    let emc = find(summaries, "EqualMax - Credits");
    let emm = find(summaries, "EqualMax - Model");
    let uim = find(summaries, "UniformIncr - Model");
    assert!(
        emm.p99_ms.mean <= emc.p99_ms.mean * 1.05,
        "model {:.2} must not lose to credits {:.2}",
        emm.p99_ms.mean,
        emc.p99_ms.mean
    );
    for model in [emm, uim] {
        assert!(
            model.p99_ms.mean < c3.p99_ms.mean,
            "{} {:.2} must beat C3 {:.2}",
            model.strategy,
            model.p99_ms.mean,
            c3.p99_ms.mean
        );
    }
}

/// "The credits strategy is at most 38% of an ideal model": per
/// policy, credits p99 ≤ 1.38 × model p99 (measured: 1.13 for
/// EqualMax, 1.26 for UniformIncr).
#[test]
fn credits_land_within_38_percent_of_the_model_at_p99() {
    let summaries = figure2_12k();
    for policy in ["EqualMax", "UniformIncr"] {
        let credits = find(summaries, &format!("{policy} - Credits"));
        let model = find(summaries, &format!("{policy} - Model"));
        let ratio = credits.p99_ms.mean / model.p99_ms.mean;
        assert!(
            ratio <= 1.38,
            "{policy}: credits {:.2}ms vs model {:.2}ms is ratio {ratio:.2} (claim ≤ 1.38)",
            credits.p99_ms.mean,
            model.p99_ms.mean
        );
    }
}

/// The paper's full ordering (Model ≤ Credits < C3 at every
/// percentile) needs several virtual seconds to emerge. Expensive in
/// debug builds; run with
/// `cargo test -p brb-lab --release --test paper_claims -- --ignored`.
#[test]
#[ignore = "expensive: ~60k-task runs; run with --release -- --ignored"]
fn credits_beat_c3_at_every_percentile_at_scale() {
    let summaries = figure2_small(60_000, &[1]);
    let c3 = find(&summaries, "C3");
    for policy in ["EqualMax", "UniformIncr"] {
        let credits = find(&summaries, &format!("{policy} - Credits"));
        let model = find(&summaries, &format!("{policy} - Model"));
        assert!(model.p99_ms.mean <= credits.p99_ms.mean);
        assert!(
            credits.p99_ms.mean < c3.p99_ms.mean,
            "{policy}: credits {:.2} must beat C3 {:.2}",
            credits.p99_ms.mean,
            c3.p99_ms.mean
        );
        assert!(credits.p50_ms.mean < c3.p50_ms.mean);
        assert!(credits.p95_ms.mean < c3.p95_ms.mean);
    }
}

/// p99 of the single strategy at each cell of a one-strategy sweep.
fn sweep_p99s(builder: ScenarioBuilder) -> Vec<f64> {
    let spec = builder.seeds(&[1]).build().expect("valid sweep");
    run_spec(&spec)
        .expect("sweep runs")
        .iter()
        .map(|cell| cell.summaries[0].p99_ms.mean)
        .collect()
}

/// Queueing grows with offered load, and the tail with it.
#[test]
fn p99_grows_with_load() {
    let p99 = sweep_p99s(
        ScenarioBuilder::new("load-sweep")
            .tasks(4_000)
            .scale_catalog(true)
            .strategies(vec![Strategy::equal_max_model()])
            .sweep_load(&[0.3, 0.8]),
    );
    assert!(
        p99[1] > p99[0],
        "p99 must grow with load: {:.2} → {:.2}",
        p99[0],
        p99[1]
    );
}

/// A task is as slow as its slowest request, so bigger fan-outs hurt
/// the tail.
#[test]
fn p99_grows_with_fanout() {
    let p99 = sweep_p99s(
        ScenarioBuilder::new("fanout-sweep")
            .tasks(3_000)
            .scale_catalog(true)
            .strategies(vec![Strategy::c3()])
            .sweep_mean_fanout(&[1, 32]),
    );
    assert!(
        p99[1] > p99[0],
        "bigger fan-out must hurt the tail: {:.2} → {:.2}",
        p99[0],
        p99[1]
    );
}
