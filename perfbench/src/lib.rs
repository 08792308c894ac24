//! # brb-perfbench — one benchmark for both backends
//!
//! Drives the workspace only through public functions of its crates and
//! times each call from outside: `brb-lab` spec lowering and report
//! emission, `brb_core`'s trace generation and `run_experiment_on_trace`,
//! and the live `brb-rt` cluster (`RtCluster::start`/`populate`/`client`,
//! `RtClient::fetch_async`, `TaskTicket::poll_outcome`/
//! `wait_outcome_from`). See `README.md` for workloads, metrics and the
//! trace file format.

pub mod host;
pub mod layers;
pub mod live;
pub mod output;
pub mod sim;
pub mod spans;
pub mod workloads;

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); 0.0
/// for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values (sorts in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// Mean of the values; 0.0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
