//! # brb-bench — the paper's worked example and the repo's own tools
//!
//! The library holds [`figure1`]: the worked scheduling example
//! (task-oblivious vs task-aware), rendered as ASCII timelines and
//! asserted exactly. The binaries are
//! `cargo run --release -p brb-bench --bin <name>`:
//!
//! * `figure1` prints the example and self-checks it;
//! * `kernel_bench` times the simulator kernel into `BENCH_kernel.json`;
//! * `rt_bench` is a coordinated-omission demo on the live runtime;
//! * `tracegen` writes and summarizes JSONL workload traces;
//! * `timeline` dumps the simulator's telemetry as per-strategy CSVs.
//!
//! Experiments live in `brb-lab`: `brb-lab run figure2-small` prints the
//! figure-2 table, `brb-lab compare figure2-small --baseline C3` scores
//! each strategy against C3, and the spec files under `specs/` hold the
//! load, fan-out and selector × policy sweeps. The paper's figure-2
//! claims are checked by `crates/lab/tests/paper_claims.rs`.

pub mod figure1;

pub use figure1::{run_figure1, Figure1Outcome};
