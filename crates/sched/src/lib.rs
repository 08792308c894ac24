//! # brb-sched — task-aware scheduling policies
//!
//! The paper's contribution lives here:
//!
//! * [`priority::Priority`] — a totally-ordered priority (lower serves
//!   first), derived from forecast costs in nanoseconds.
//! * [`policy`] — priority-assignment algorithms. The paper's two:
//!   **EqualMax** (every request inherits the bottleneck sub-task's cost —
//!   bottleneck-SJF over tasks) and **UnifIncr** (requests ranked by slack
//!   behind the bottleneck). Plus the task-oblivious **FIFO** baseline and
//!   two natural extensions used in ablations: per-request **SJF** and
//!   **EDF** on forecast completion deadlines.
//! * [`queue`] — server-side queue disciplines: plain FIFO and a *stable*
//!   priority queue (FIFO among equal priorities, so determinism survives
//!   priority ties).
//! * [`credits`] — the practical realization: a logically-centralized
//!   controller assigning clients credit rates proportional to reported
//!   demand, with congestion-triggered multiplicative backoff, adapted at
//!   1 s intervals; clients gate dispatch through token buckets.
//! * [`global_queue`] — the ideal *model* realization: one global
//!   priority queue; idle servers work-pull the highest-priority request
//!   they are allowed to serve (replica constraint), with zero
//!   coordination cost.
//! * [`overload`] — the overload lane: bounded queues with typed
//!   enqueue outcomes, admission-control load shedding, a CoDel-style
//!   AQM (sojourn-time target, inverse-sqrt drop cadence), and the
//!   client's retry and hedging gates shared by both backends.

pub mod credits;
pub mod global_queue;
pub mod overload;
pub mod policy;
pub mod priority;
pub mod queue;

pub use credits::{CreditBucket, CreditController, CreditsConfig, GrantTable};
pub use global_queue::GlobalQueue;
pub use overload::{
    Bounded, CoDel, CoDelConfig, DropReason, EnqueueOutcome, QueueBound, TaskFailure,
};
pub use policy::{PolicyKind, PriorityPolicy, TaskView};
pub use priority::Priority;
pub use queue::{FifoQueue, PriorityQueue, RequestQueue};
