//! Overload controls: bounded queues with typed enqueue outcomes,
//! admission-control load shedding, and a CoDel-style adaptive
//! queue-management policy.
//!
//! The paper evaluates BRB below saturation only; these pieces let the
//! engine express what production stores do past the knee:
//!
//! * [`QueueBound`] — a tail-drop capacity plus an optional
//!   admission-control watermark (`shed_above`) below it. [`QueueBound::admit`]
//!   returns a typed [`EnqueueOutcome`] so callers distinguish
//!   "enqueued", "tail-dropped at capacity" and "shed by admission
//!   control" instead of silently growing without limit.
//! * [`CoDel`] — the controller of Nichols & Jacobson's CoDel AQM,
//!   adapted to request queues: it watches each dequeued item's
//!   *sojourn time* (enqueue → dequeue) and, once sojourn stays above
//!   `target_ns` for a full `interval_ns`, enters a dropping state that
//!   discards head-of-line items at a cadence that shrinks with the
//!   inverse square root of the drop count — the classic control law
//!   that backs off load proportionally to how persistent the standing
//!   queue is.
//! * [`Bounded`] — a thin wrapper gluing a [`QueueBound`] onto any
//!   [`RequestQueue`] discipline, for callers that own their queue
//!   directly.
//! * The client's retry and hedging policy — [`retry_backoff`],
//!   [`may_retry`], [`may_hedge`] and the terminal [`TaskFailure`]
//!   classification — written once for the simulator's engine and the
//!   live runtime's client, which differ only in the clock that drives
//!   them.
//!
//! Everything here is deterministic and allocation-free: decisions are
//! pure functions of queue length, virtual time and the controller's
//! own counters, so simulations with identical seeds drop identical
//! requests.

use crate::priority::Priority;
use crate::queue::RequestQueue;
use serde::{Deserialize, Serialize};

/// Why an enqueue attempt (or an AQM inspection at dequeue) rejected a
/// request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Tail drop: the queue was at capacity.
    QueueFull,
    /// Admission control shed the request at the watermark, before the
    /// queue filled.
    Shed,
    /// The AQM dropped the request at dequeue because its sojourn time
    /// exceeded the target for a sustained interval.
    Sojourn,
}

/// Typed outcome of offering a request to a bounded queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// The request was (or may be) enqueued.
    Enqueued,
    /// The request was rejected; the reason says by which mechanism.
    Dropped(DropReason),
}

/// Capacity bound and admission-control watermark for one queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueBound {
    /// Hard capacity: arrivals finding this many queued are tail-dropped.
    pub capacity: usize,
    /// Admission-control watermark: arrivals finding at least this many
    /// queued are shed *before* the queue fills (`None` disables
    /// shedding). Must not exceed `capacity` to be meaningful.
    pub shed_above: Option<usize>,
}

impl QueueBound {
    /// A bound with no shedding watermark.
    pub fn tail_drop(capacity: usize) -> Self {
        QueueBound {
            capacity,
            shed_above: None,
        }
    }

    /// The admission decision for an arrival finding `len` items queued.
    /// Shedding is checked first: a watermark below capacity means the
    /// queue sheds before it ever tail-drops.
    pub fn admit(&self, len: usize) -> EnqueueOutcome {
        if let Some(watermark) = self.shed_above {
            if len >= watermark {
                return EnqueueOutcome::Dropped(DropReason::Shed);
            }
        }
        if len >= self.capacity {
            return EnqueueOutcome::Dropped(DropReason::QueueFull);
        }
        EnqueueOutcome::Enqueued
    }

    /// Validates structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.capacity == 0 {
            return Err("queue capacity must be positive".into());
        }
        if let Some(w) = self.shed_above {
            if w == 0 {
                return Err("shed watermark must be positive".into());
            }
            if w > self.capacity {
                return Err(format!(
                    "shed watermark {w} above capacity {}",
                    self.capacity
                ));
            }
        }
        Ok(())
    }
}

/// CoDel knobs: the sojourn-time target and the observation interval.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoDelConfig {
    /// Acceptable standing sojourn time (ns). Sojourns below this never
    /// trigger drops.
    pub target_ns: u64,
    /// How long sojourn must stay above target before dropping starts;
    /// also the base of the drop cadence (ns).
    pub interval_ns: u64,
}

impl CoDelConfig {
    /// The canonical CoDel constants: 5 ms target, 100 ms interval.
    pub fn paper_default() -> Self {
        CoDelConfig {
            target_ns: 5_000_000,
            interval_ns: 100_000_000,
        }
    }

    /// Validates structural invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.target_ns == 0 {
            return Err("CoDel target must be positive".into());
        }
        if self.interval_ns == 0 {
            return Err("CoDel interval must be positive".into());
        }
        Ok(())
    }
}

/// The CoDel drop controller for one queue. Feed it every dequeue via
/// [`CoDel::on_dequeue`]; it answers "drop this one?".
#[derive(Debug, Clone)]
pub struct CoDel {
    cfg: CoDelConfig,
    /// When sojourn first rose above target plus one interval — the
    /// moment dropping may begin. `None` while sojourn is below target.
    first_above_ns: Option<u64>,
    /// Whether the controller is in its dropping state.
    dropping: bool,
    /// Next scheduled drop time while dropping.
    drop_next_ns: u64,
    /// Drops in the current dropping episode (drives the control law).
    drop_count: u32,
    /// Total drops over the controller's lifetime.
    total_dropped: u64,
}

/// The control law: the gap to the next drop shrinks with the inverse
/// square root of the episode's drop count, halving the cadence time
/// after four drops, and so on.
fn control_law(interval_ns: u64, drop_count: u32) -> u64 {
    ((interval_ns as f64 / (drop_count.max(1) as f64).sqrt()) as u64).max(1)
}

impl CoDel {
    /// A fresh controller in the non-dropping state.
    pub fn new(cfg: CoDelConfig) -> Self {
        CoDel {
            cfg,
            first_above_ns: None,
            dropping: false,
            drop_next_ns: 0,
            drop_count: 0,
            total_dropped: 0,
        }
    }

    /// The configured knobs.
    pub fn config(&self) -> CoDelConfig {
        self.cfg
    }

    /// Total drops decided over the controller's lifetime.
    pub fn total_dropped(&self) -> u64 {
        self.total_dropped
    }

    /// Decides the fate of an item dequeued at `now_ns` after waiting
    /// `sojourn_ns` in the queue: `true` means drop it (the caller
    /// should discard it and dequeue the next), `false` means serve it.
    pub fn on_dequeue(&mut self, now_ns: u64, sojourn_ns: u64) -> bool {
        if sojourn_ns < self.cfg.target_ns {
            // Below target: leave the dropping state and rearm.
            self.first_above_ns = None;
            self.dropping = false;
            return false;
        }
        match self.first_above_ns {
            None => {
                // First observation above target: give the queue one full
                // interval to drain on its own.
                self.first_above_ns = Some(now_ns + self.cfg.interval_ns);
                false
            }
            Some(first_above) => {
                if self.dropping {
                    if now_ns >= self.drop_next_ns {
                        self.drop_count += 1;
                        self.total_dropped += 1;
                        self.drop_next_ns =
                            now_ns + control_law(self.cfg.interval_ns, self.drop_count);
                        true
                    } else {
                        false
                    }
                } else if now_ns >= first_above {
                    // Sojourn stayed above target for a whole interval:
                    // enter the dropping state and drop immediately.
                    self.dropping = true;
                    self.drop_count = 1;
                    self.total_dropped += 1;
                    self.drop_next_ns = now_ns + control_law(self.cfg.interval_ns, self.drop_count);
                    true
                } else {
                    false
                }
            }
        }
    }
}

/// A queue discipline wrapped with a [`QueueBound`]: `try_push` returns
/// a typed outcome instead of growing without limit.
#[derive(Debug, Clone)]
pub struct Bounded<Q> {
    inner: Q,
    bound: QueueBound,
}

impl<Q> Bounded<Q> {
    /// Wraps `inner` with `bound`.
    pub fn new(inner: Q, bound: QueueBound) -> Self {
        Bounded { inner, bound }
    }

    /// The wrapped bound.
    pub fn bound(&self) -> QueueBound {
        self.bound
    }

    /// Offers `item`; rejections report which mechanism fired.
    pub fn try_push<T>(&mut self, priority: Priority, item: T) -> EnqueueOutcome
    where
        Q: RequestQueue<T>,
    {
        match self.bound.admit(self.inner.len()) {
            EnqueueOutcome::Enqueued => {
                self.inner.push(priority, item);
                EnqueueOutcome::Enqueued
            }
            dropped => dropped,
        }
    }

    /// Dequeues the next item.
    pub fn pop<T>(&mut self) -> Option<(Priority, T)>
    where
        Q: RequestQueue<T>,
    {
        self.inner.pop()
    }

    /// Queued item count.
    pub fn len<T>(&self) -> usize
    where
        Q: RequestQueue<T>,
    {
        self.inner.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty<T>(&self) -> bool
    where
        Q: RequestQueue<T>,
    {
        self.inner.is_empty()
    }
}

impl<Q: Default> Bounded<Q> {
    /// A bounded queue over `Q`'s default construction.
    pub fn with_bound(bound: QueueBound) -> Self {
        Bounded {
            inner: Q::default(),
            bound,
        }
    }
}

/// Typed terminal failure of a task (overload lane). Every task ends in
/// exactly one of {completed} ∪ these — the conservation invariant
/// `completed + dropped + shed + timed_out == issued` is test-enforced
/// on both backends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskFailure {
    /// A required request was tail-dropped or AQM-dropped with no retry
    /// left.
    Dropped,
    /// A required request was shed by admission control with no retry
    /// left.
    Shed,
    /// A required attempt timed out with no retries configured.
    TimedOut,
    /// A required attempt timed out after its retries (or the client's
    /// retry budget) ran out.
    RetriesExhausted,
}

impl TaskFailure {
    /// The failure a drop or shed notice causes when no retry is left.
    pub fn from_drop(reason: DropReason) -> Self {
        match reason {
            DropReason::QueueFull | DropReason::Sojourn => TaskFailure::Dropped,
            DropReason::Shed => TaskFailure::Shed,
        }
    }

    /// The failure a missed deadline causes when no retry is left: a
    /// single-attempt config times out, a retrying config exhausts.
    pub fn from_deadline(max_retries: u32) -> Self {
        if max_retries == 0 {
            TaskFailure::TimedOut
        } else {
            TaskFailure::RetriesExhausted
        }
    }
}

/// Capped exponential backoff before retry `attempt` (1-based):
/// `min(base · 2^(attempt-1), cap)`, in whatever unit `base` and `cap`
/// share. A zero base retries immediately; a zero cap means uncapped.
/// The doubling stops at 2³² and the product saturates at `u64::MAX`.
pub fn retry_backoff(base: u64, cap: u64, attempt: u32) -> u64 {
    if base == 0 {
        return 0;
    }
    let shift = attempt.saturating_sub(1).min(32);
    let backoff = base.saturating_mul(1u64 << shift);
    if cap > 0 {
        backoff.min(cap)
    } else {
        backoff
    }
}

/// Whether the attempt numbered `attempt` (0 = the original) may be
/// retried: the per-request cap `max_retries` has room, and the
/// client's retry budget is not spent. The budget is dry once
/// `retried · 100 ≥ max(dispatched, 1) · percent`; it is what keeps a
/// retry storm from amplifying itself. `None` means unbudgeted.
pub fn may_retry(
    attempt: u32,
    max_retries: u32,
    budget_percent: Option<u32>,
    retried: u64,
    dispatched: u64,
) -> bool {
    attempt < max_retries
        && budget_percent.is_none_or(|p| retried * 100 < dispatched.max(1) * p as u64)
}

/// Whether a request still unanswered when its hedge timer (`delay_ns`)
/// fires may be duplicated. Requests forecast to take at least the
/// delay are never hedged: they are intrinsically slow, not straggling,
/// and doubling the biggest requests alone can push the cluster past
/// saturation. Duplicates are capped at 5% of the client's dispatches
/// (Dean & Barroso's safeguard): without the budget, hedges add load,
/// load adds latency and latency fires more hedges.
pub fn may_hedge(forecast_ns: u64, delay_ns: u64, hedged: u64, dispatched: u64) -> bool {
    forecast_ns < delay_ns && hedged * 20 < dispatched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::FifoQueue;

    #[test]
    fn tail_drop_fires_at_capacity() {
        let bound = QueueBound::tail_drop(2);
        assert_eq!(bound.admit(0), EnqueueOutcome::Enqueued);
        assert_eq!(bound.admit(1), EnqueueOutcome::Enqueued);
        assert_eq!(
            bound.admit(2),
            EnqueueOutcome::Dropped(DropReason::QueueFull)
        );
        assert_eq!(
            bound.admit(100),
            EnqueueOutcome::Dropped(DropReason::QueueFull)
        );
    }

    #[test]
    fn shed_watermark_fires_before_capacity() {
        let bound = QueueBound {
            capacity: 10,
            shed_above: Some(4),
        };
        assert_eq!(bound.admit(3), EnqueueOutcome::Enqueued);
        assert_eq!(bound.admit(4), EnqueueOutcome::Dropped(DropReason::Shed));
        // Shedding masks the tail drop entirely when the watermark is
        // below capacity — by design, admission control acts first.
        assert_eq!(bound.admit(10), EnqueueOutcome::Dropped(DropReason::Shed));
    }

    #[test]
    fn bound_validation_rejects_nonsense() {
        assert!(QueueBound::tail_drop(0).validate().is_err());
        assert!(QueueBound {
            capacity: 4,
            shed_above: Some(5)
        }
        .validate()
        .is_err());
        assert!(QueueBound {
            capacity: 4,
            shed_above: Some(0)
        }
        .validate()
        .is_err());
        assert!(QueueBound {
            capacity: 4,
            shed_above: Some(4)
        }
        .validate()
        .is_ok());
    }

    #[test]
    fn bounded_queue_reports_typed_outcomes() {
        let mut q: Bounded<FifoQueue<u32>> = Bounded::with_bound(QueueBound {
            capacity: 2,
            shed_above: None,
        });
        assert_eq!(q.try_push(Priority(1), 10), EnqueueOutcome::Enqueued);
        assert_eq!(q.try_push(Priority(1), 11), EnqueueOutcome::Enqueued);
        assert_eq!(
            q.try_push(Priority(1), 12),
            EnqueueOutcome::Dropped(DropReason::QueueFull)
        );
        assert_eq!(q.len::<u32>(), 2);
        assert_eq!(q.pop::<u32>().unwrap().1, 10);
        assert_eq!(q.try_push(Priority(1), 12), EnqueueOutcome::Enqueued);
    }

    #[test]
    fn codel_never_drops_below_target() {
        let mut c = CoDel::new(CoDelConfig {
            target_ns: 5_000_000,
            interval_ns: 100_000_000,
        });
        let mut now = 0;
        for _ in 0..1_000 {
            now += 1_000_000;
            assert!(!c.on_dequeue(now, 4_999_999));
        }
        assert_eq!(c.total_dropped(), 0);
    }

    #[test]
    fn codel_waits_one_interval_then_drops() {
        let cfg = CoDelConfig {
            target_ns: 5_000_000,
            interval_ns: 100_000_000,
        };
        let mut c = CoDel::new(cfg);
        // Sojourn rises above target at t=0: no drop for one interval.
        assert!(!c.on_dequeue(0, 10_000_000));
        assert!(!c.on_dequeue(50_000_000, 10_000_000));
        // A full interval above target: dropping starts.
        assert!(c.on_dequeue(100_000_000, 10_000_000));
    }

    #[test]
    fn codel_drop_cadence_shrinks_with_inverse_sqrt() {
        assert_eq!(control_law(100, 1), 100);
        assert_eq!(control_law(100, 4), 50);
        assert_eq!(control_law(100, 16), 25);
        // Never zero, even at absurd counts.
        assert_eq!(control_law(1, u32::MAX), 1);
    }

    #[test]
    fn codel_sustained_overload_drops_faster_and_faster() {
        let cfg = CoDelConfig {
            target_ns: 1_000,
            interval_ns: 1_000_000,
        };
        let mut c = CoDel::new(cfg);
        let mut now = 0u64;
        let mut drop_times = Vec::new();
        // Inspect a dequeue every 10µs with sojourn stuck above target.
        for _ in 0..2_000 {
            now += 10_000;
            if c.on_dequeue(now, 50_000) {
                drop_times.push(now);
            }
        }
        assert!(drop_times.len() >= 4, "only {} drops", drop_times.len());
        // Gaps between consecutive drops must not grow: the control law
        // tightens the cadence as the episode persists.
        let gaps: Vec<u64> = drop_times.windows(2).map(|w| w[1] - w[0]).collect();
        for w in gaps.windows(2) {
            assert!(w[1] <= w[0], "drop cadence widened: {gaps:?}");
        }
        assert_eq!(c.total_dropped(), drop_times.len() as u64);
    }

    #[test]
    fn codel_recovers_when_queue_drains() {
        let cfg = CoDelConfig {
            target_ns: 1_000,
            interval_ns: 1_000_000,
        };
        let mut c = CoDel::new(cfg);
        let mut now = 0u64;
        let mut dropped_any = false;
        for _ in 0..500 {
            now += 10_000;
            dropped_any |= c.on_dequeue(now, 50_000);
        }
        assert!(dropped_any, "sustained overload must drop");
        // One below-target sojourn exits the dropping state…
        assert!(!c.on_dequeue(now + 10_000, 500));
        let before = c.total_dropped();
        // …and the next excursion gets a fresh full-interval grace.
        for i in 0..50 {
            let t = now + 20_000 + i * 10_000;
            assert!(
                !c.on_dequeue(t, 50_000) || t >= now + 20_000 + cfg.interval_ns,
                "dropped before the grace interval elapsed"
            );
        }
        assert!(c.total_dropped() >= before);
    }

    /// One curve for both backends: the simulator passes µs (and scales
    /// to ns afterwards), the live runtime passes ns.
    #[test]
    fn retry_backoff_is_capped_exponential() {
        // Simulator case: base 100µs, cap 800µs.
        assert_eq!(retry_backoff(100, 800, 1), 100);
        assert_eq!(retry_backoff(100, 800, 2), 200);
        assert_eq!(retry_backoff(100, 800, 4), 800);
        assert_eq!(retry_backoff(100, 800, 10), 800, "cap must hold");
        assert_eq!(retry_backoff(0, 800, 3), 0, "base 0 retries immediately");
        assert_eq!(retry_backoff(100, 0, 4), 800, "cap 0 = uncapped");
        assert_eq!(retry_backoff(100, 0, 5), 1_600);
        // Live case: base 100ns, cap 1000ns.
        assert_eq!(retry_backoff(100, 1_000, 3), 400);
        assert_eq!(retry_backoff(100, 1_000, 5), 1_000, "cap binds");
        assert_eq!(retry_backoff(100, 0, 5), 1_600);
        assert_eq!(retry_backoff(0, 1_000, 1), 0);
        // The shift stops at 32 and the product saturates.
        assert_eq!(retry_backoff(1, 0, 40), 1 << 32);
        assert_eq!(retry_backoff(u64::MAX / 2, 0, 3), u64::MAX);
    }

    #[test]
    fn retry_gate_checks_the_cap_then_the_budget() {
        assert!(may_retry(0, 1, None, 0, 0));
        assert!(!may_retry(1, 1, None, 0, 0), "cap reached");
        assert!(!may_retry(0, 0, None, 0, 0), "retries disabled");
        // 25% budget: 2 retries over 10 dispatches leave room, 3 of 12
        // spend it.
        assert!(may_retry(0, 4, Some(25), 2, 10));
        assert!(!may_retry(0, 4, Some(25), 3, 12));
        // No dispatches yet counts as one.
        assert!(may_retry(0, 4, Some(100), 0, 0));
        assert!(!may_retry(0, 4, Some(100), 1, 0));
    }

    #[test]
    fn hedge_gate_skips_big_requests_and_holds_the_budget() {
        assert!(may_hedge(100, 1_000, 0, 1));
        assert!(!may_hedge(1_000, 1_000, 0, 1), "forecast ≥ delay");
        assert!(may_hedge(100, 1_000, 4, 100));
        assert!(!may_hedge(100, 1_000, 5, 100), "5% budget spent");
        assert!(!may_hedge(100, 1_000, 0, 0), "nothing dispatched yet");
    }

    #[test]
    fn failures_classify_drops_and_deadlines() {
        assert_eq!(
            TaskFailure::from_drop(DropReason::QueueFull),
            TaskFailure::Dropped
        );
        assert_eq!(
            TaskFailure::from_drop(DropReason::Sojourn),
            TaskFailure::Dropped
        );
        assert_eq!(TaskFailure::from_drop(DropReason::Shed), TaskFailure::Shed);
        assert_eq!(TaskFailure::from_deadline(0), TaskFailure::TimedOut);
        assert_eq!(TaskFailure::from_deadline(1), TaskFailure::RetriesExhausted);
    }
}
