//! The live credits lane: `brb-sched`'s controller math on real threads.
//!
//! The simulator and the runtime share ONE credits implementation —
//! [`brb_sched::CreditController`] / [`brb_sched::CreditBucket`] — with
//! two clocks. Here the controller runs as its own thread: clients send
//! [`CreditMsg::Demand`] reports and server admission sends
//! [`CreditMsg::Congestion`] signals over a channel; the thread parks in
//! `recv_deadline` until a message or its next adaptation epoch, runs
//! one `allocate_into` per epoch and publishes the grant table on a
//! shared [`GrantBoard`]. Clients poll the board's
//! epoch counter on their dispatch path (one atomic load when nothing
//! changed) and enforce their grants with per-server token buckets,
//! exactly as the sim engine does.
//!
//! The admission rule is kept line-for-line equivalent to the sim's
//! credits realization: among replicas holding at least one token, pick
//! the one with the lowest `queue_ewma + outstanding × num_clients`
//! (ties to the lower server id), spend a token, dispatch; otherwise
//! rate-limit for the earliest token's ETA. The sim parks rate-limited
//! requests in a client hold queue and folds the backlog into its
//! demand reports (`held / (replication × dt)` per replica); the rt
//! client blocks in `select_replica` instead, so the live proxy for
//! that backlog is the rate-limited attempt count — each refused
//! select adds `1 / candidates` to every candidate's demand, and the
//! retry cadence (one attempt per token ETA) keeps the two estimates
//! within a small factor of each other.

#[cfg(test)]
use crate::timing;
use brb_sched::{CreditBucket, CreditController, CreditsConfig, GrantTable};
use brb_select::{ReplicaSelector, ResponseFeedback, Selection, SelectionCtx};
use brb_store::ids::{ClientId, ServerId};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Credits tuning for the live runtime: the shared controller config
/// plus the two cluster-level numbers the sim derives from its own
/// config — per-server capacity (grants are shares of it) and the queue
/// depth at which admission raises a congestion signal.
#[derive(Debug, Clone, Copy)]
pub struct RtCreditsConfig {
    /// Controller tuning (intervals, AIMD constants, burst).
    pub config: CreditsConfig,
    /// Full capacity of each server, requests/second (the sim's
    /// `server_capacity_rps()`).
    pub server_capacity_rps: f64,
    /// Queue depth at admission at/above which an arrival counts as
    /// congested (the sim's `congestion_queue_threshold`).
    pub congestion_queue_threshold: usize,
}

impl Default for RtCreditsConfig {
    fn default() -> Self {
        RtCreditsConfig {
            config: CreditsConfig::default(),
            // Paper cluster: 4 cores × 3500 req/s per core.
            server_capacity_rps: 14_000.0,
            congestion_queue_threshold: 96,
        }
    }
}

/// What flows *to* the controller thread.
#[derive(Debug)]
pub(crate) enum CreditMsg {
    /// One client's demand report for one measurement tick: the >0
    /// per-server EWMA rates, requests/second. One message per client
    /// per tick, mirroring the sim's one report event per client.
    Demand {
        /// Reporting client.
        client: ClientId,
        /// `(server index, rate_rps)` pairs, only servers with demand.
        rates: Vec<(u32, f64)>,
    },
    /// Admission observed congestion at a server.
    Congestion {
        /// Congested server index.
        server: u32,
    },
    /// Cluster shutdown: the thread exits even though clients may still
    /// hold senders.
    Stop,
}

/// The published allocation: grant table plus an epoch counter so
/// clients can skip the lock when nothing changed since their last look.
pub(crate) struct GrantBoard {
    epoch: AtomicU64,
    grants: Mutex<GrantTable>,
}

impl GrantBoard {
    fn new() -> Self {
        GrantBoard {
            epoch: AtomicU64::new(0),
            grants: Mutex::new(GrantTable::new()),
        }
    }
}

/// Everything the cluster and its clients need to participate in the
/// credits lane. Held by `RtCluster`; clients clone the channel sender
/// and share the board.
pub(crate) struct CreditsHub {
    pub(crate) board: Arc<GrantBoard>,
    pub(crate) tx: Sender<CreditMsg>,
    pub(crate) demand_reports: Arc<AtomicU64>,
    pub(crate) congestion_signals: Arc<AtomicU64>,
    pub(crate) cfg: RtCreditsConfig,
}

/// Spawns the controller thread. It adapts every
/// `adaptation_interval_ns`, publishing each epoch's grants on the
/// board, and exits on [`CreditMsg::Stop`] (cluster shutdown) — not
/// only when every sender is gone, because clients may outlive the
/// cluster handle and still hold senders.
pub(crate) fn spawn_controller(
    cfg: RtCreditsConfig,
    num_servers: usize,
    panicked: Arc<AtomicBool>,
) -> (CreditsHub, JoinHandle<()>) {
    let (tx, rx) = unbounded();
    let board = Arc::new(GrantBoard::new());
    let demand_reports = Arc::new(AtomicU64::new(0));
    let congestion_signals = Arc::new(AtomicU64::new(0));
    let hub = CreditsHub {
        board: Arc::clone(&board),
        tx,
        demand_reports: Arc::clone(&demand_reports),
        congestion_signals: Arc::clone(&congestion_signals),
        cfg,
    };
    let handle = std::thread::Builder::new()
        .name("brb-credits".into())
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                controller_loop(
                    cfg,
                    num_servers,
                    &rx,
                    &board,
                    &demand_reports,
                    &congestion_signals,
                );
            }));
            if result.is_err() {
                panicked.store(true, Ordering::Release);
            }
        })
        .expect("spawn credits controller");
    (hub, handle)
}

fn controller_loop(
    cfg: RtCreditsConfig,
    num_servers: usize,
    rx: &Receiver<CreditMsg>,
    board: &GrantBoard,
    demand_reports: &AtomicU64,
    congestion_signals: &AtomicU64,
) {
    let mut controller =
        CreditController::new(vec![cfg.server_capacity_rps; num_servers], cfg.config);
    // Pooled table: epochs swap it with the board's, so steady state
    // allocates nothing (the two tables ping-pong).
    let mut table = GrantTable::new();
    let interval = Duration::from_nanos(cfg.config.adaptation_interval_ns);
    let mut next_epoch = Instant::now() + interval;
    loop {
        match rx.recv_deadline(next_epoch) {
            Ok(CreditMsg::Demand { client, rates }) => {
                demand_reports.fetch_add(1, Ordering::Relaxed);
                for (server, rate) in rates {
                    controller.report_demand(client, ServerId::new(server as u64), rate);
                }
            }
            Ok(CreditMsg::Congestion { server }) => {
                congestion_signals.fetch_add(1, Ordering::Relaxed);
                controller.signal_congestion(ServerId::new(server as u64));
            }
            // Shutdown, or every sender gone (the cluster and every
            // client dropped): nothing left to serve.
            Ok(CreditMsg::Stop) | Err(RecvTimeoutError::Disconnected) => break,
            Err(RecvTimeoutError::Timeout) => {
                controller.allocate_into(&mut table);
                {
                    let mut published = board.grants.lock();
                    std::mem::swap(&mut *published, &mut table);
                }
                board.epoch.fetch_add(1, Ordering::Release);
                next_epoch += interval;
            }
        }
    }
}

/// The credits realization as a [`ReplicaSelector`], so the existing
/// client dispatch path (select → dispatch, `RateLimited` → bounded
/// wait → re-select) needs no new plumbing. State and update rules
/// mirror the sim engine's credits client exactly; only the clock
/// (client-epoch nanoseconds from `SelectionCtx::now_ns`) differs.
pub(crate) struct CreditSelector {
    client: ClientId,
    board: Arc<GrantBoard>,
    tx: Sender<CreditMsg>,
    measurement_interval_ns: u64,
    burst_secs: f64,
    /// Load weight on outstanding requests: one in-flight request of
    /// ours stands in for `num_clients` cluster-wide (the sim's `w`).
    weight: f64,
    seen_epoch: u64,
    buckets: Vec<CreditBucket>,
    queue_ewma: Vec<f64>,
    outstanding: Vec<u64>,
    dispatched_since: Vec<u64>,
    /// Rate-limited attempts this interval, `1 / candidates` per
    /// candidate — the live stand-in for the sim's held-request backlog,
    /// so starved clients still report the demand they could not send.
    unmet_since: Vec<f64>,
    demand_ewma: Vec<f64>,
    last_measure_ns: u64,
}

impl CreditSelector {
    /// Builds a selector for `client` against `num_servers` servers.
    /// Buckets start at the fair share — capacity ÷ clients — exactly
    /// as the sim seeds its buckets before the first epoch lands.
    pub(crate) fn new(
        client: ClientId,
        hub: &CreditsHub,
        num_servers: usize,
        num_clients: usize,
    ) -> Self {
        let num_clients = num_clients.max(1);
        let burst_secs = hub.cfg.config.burst_secs;
        let fair_rate = hub.cfg.server_capacity_rps / num_clients as f64;
        CreditSelector {
            client,
            board: Arc::clone(&hub.board),
            tx: hub.tx.clone(),
            measurement_interval_ns: hub.cfg.config.measurement_interval_ns,
            burst_secs,
            weight: num_clients as f64,
            seen_epoch: 0,
            buckets: (0..num_servers)
                .map(|_| CreditBucket::new(fair_rate, (fair_rate * burst_secs).max(1.0)))
                .collect(),
            queue_ewma: vec![0.0; num_servers],
            outstanding: vec![0; num_servers],
            dispatched_since: vec![0; num_servers],
            unmet_since: vec![0.0; num_servers],
            demand_ewma: vec![0.0; num_servers],
            last_measure_ns: 0,
        }
    }

    /// Applies the latest grant epoch, if one landed since we last
    /// looked. Servers absent from our grant row keep their old rate
    /// (sim behavior: `set_rate` only for granted servers).
    fn refresh_grants(&mut self, now_ns: u64) {
        let epoch = self.board.epoch.load(Ordering::Acquire);
        if epoch == self.seen_epoch {
            return;
        }
        let table = self.board.grants.lock();
        for (i, bucket) in self.buckets.iter_mut().enumerate() {
            if let Some(rate) = table.rate(ServerId::new(i as u64), self.client) {
                bucket.set_rate(now_ns, rate, self.burst_secs);
            }
        }
        drop(table);
        self.seen_epoch = epoch;
    }

    /// Flushes one demand report if a measurement interval elapsed:
    /// per-server instantaneous dispatch rate folded into a
    /// fast-attack / slow-decay EWMA (the sim's demand estimator), sent
    /// as one message carrying only the >0 rates.
    fn maybe_report(&mut self, now_ns: u64) {
        if now_ns
            < self
                .last_measure_ns
                .saturating_add(self.measurement_interval_ns)
        {
            return;
        }
        let dt_secs = (now_ns - self.last_measure_ns) as f64 / 1e9;
        self.last_measure_ns = now_ns;
        if dt_secs <= 0.0 {
            return;
        }
        let mut rates = Vec::new();
        for i in 0..self.buckets.len() {
            let inst = (self.dispatched_since[i] as f64 + self.unmet_since[i]) / dt_secs;
            self.dispatched_since[i] = 0;
            self.unmet_since[i] = 0.0;
            let ewma = &mut self.demand_ewma[i];
            *ewma = if inst > *ewma {
                inst
            } else {
                0.3 * inst + 0.7 * *ewma
            };
            if *ewma > 0.0 {
                rates.push((i as u32, *ewma));
            }
        }
        if !rates.is_empty() {
            // Send failure means the controller is gone (shutdown mid-
            // flight); the dispatch path handles that via the cluster's
            // own channels, so the lost report is irrelevant.
            let _ = self.tx.send(CreditMsg::Demand {
                client: self.client,
                rates,
            });
        }
    }
}

impl ReplicaSelector for CreditSelector {
    fn name(&self) -> &'static str {
        "credits"
    }

    fn select(&mut self, ctx: &SelectionCtx<'_>) -> Selection {
        debug_assert!(!ctx.candidates.is_empty());
        let now_ns = ctx.now_ns;
        self.refresh_grants(now_ns);
        self.maybe_report(now_ns);
        // Sim-exact admission: among candidates holding a token, lowest
        // queue_ewma + outstanding × num_clients wins; ties to the
        // lower server id.
        let mut best: Option<(f64, ServerId)> = None;
        for &s in ctx.candidates {
            let i = s.index();
            if self.buckets[i].tokens_at(now_ns) >= 1.0 {
                let load = self.queue_ewma[i] + self.outstanding[i] as f64 * self.weight;
                let better = match best {
                    None => true,
                    Some((bl, br)) => load < bl || (load == bl && s.raw() < br.raw()),
                };
                if better {
                    best = Some((load, s));
                }
            }
        }
        if let Some((_, s)) = best {
            let i = s.index();
            if self.buckets[i].try_take(now_ns) {
                self.outstanding[i] += 1;
                self.dispatched_since[i] += 1;
                return Selection::Dispatch(s);
            }
        }
        // Refused: this attempt is demand the grants could not carry.
        // Attribute it across the group like the sim spreads a held
        // request across its replicas.
        let share = 1.0 / ctx.candidates.len() as f64;
        let mut retry_in_ns = u64::MAX;
        for &s in ctx.candidates {
            self.unmet_since[s.index()] += share;
            retry_in_ns = retry_in_ns.min(self.buckets[s.index()].ns_until_token(now_ns));
        }
        if retry_in_ns == u64::MAX {
            // Every candidate granted at rate zero: probe again in 1 ms
            // (the sim's fallback for the same corner).
            retry_in_ns = 1_000_000;
        }
        Selection::RateLimited { retry_in_ns }
    }

    fn on_response(&mut self, server: ServerId, _now_ns: u64, feedback: &ResponseFeedback) {
        let i = server.index();
        self.queue_ewma[i] = 0.3 * feedback.queue_len as f64 + 0.7 * self.queue_ewma[i];
        self.outstanding[i] = self.outstanding[i].saturating_sub(1);
    }

    fn on_abandon(&mut self, server: ServerId) {
        let i = server.index();
        self.outstanding[i] = self.outstanding[i].saturating_sub(1);
    }

    fn outstanding(&self, server: ServerId) -> u64 {
        self.outstanding[server.index()]
    }
}

/// Waits (bounded) until the board has published at least `epoch`
/// epochs. Test helper; uses the hybrid sleep so short intervals are
/// honored.
#[cfg(test)]
fn wait_for_epoch(board: &GrantBoard, epoch: u64, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while board.epoch.load(Ordering::Acquire) < epoch {
        if Instant::now() >= deadline {
            return false;
        }
        timing::wait_for(Duration::from_micros(200));
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg(adaptation_ms: u64) -> RtCreditsConfig {
        RtCreditsConfig {
            config: CreditsConfig {
                adaptation_interval_ns: adaptation_ms * 1_000_000,
                measurement_interval_ns: 10_000_000, // 10 ms
                ..CreditsConfig::default()
            },
            server_capacity_rps: 10_000.0,
            congestion_queue_threshold: 4,
        }
    }

    fn bare_hub(cfg: RtCreditsConfig) -> (CreditsHub, Receiver<CreditMsg>) {
        let (tx, rx) = unbounded();
        let hub = CreditsHub {
            board: Arc::new(GrantBoard::new()),
            tx,
            demand_reports: Arc::new(AtomicU64::new(0)),
            congestion_signals: Arc::new(AtomicU64::new(0)),
            cfg,
        };
        (hub, rx)
    }

    fn ctx(candidates: &[ServerId], now_ns: u64) -> SelectionCtx<'_> {
        SelectionCtx {
            now_ns,
            candidates,
            value_bytes: 100,
            oracle_queue_depths: None,
        }
    }

    #[test]
    fn controller_thread_adapts_and_publishes_grants() {
        let panicked = Arc::new(AtomicBool::new(false));
        let (hub, handle) = spawn_controller(test_cfg(5), 2, Arc::clone(&panicked));
        hub.tx
            .send(CreditMsg::Demand {
                client: ClientId::new(0),
                rates: vec![(0, 4_000.0), (1, 1_000.0)],
            })
            .unwrap();
        hub.tx.send(CreditMsg::Congestion { server: 1 }).unwrap();
        assert!(
            wait_for_epoch(&hub.board, 3, Duration::from_secs(10)),
            "controller never published an epoch"
        );
        {
            let table = hub.board.grants.lock();
            let g0 = table.rate(ServerId::new(0), ClientId::new(0)).unwrap();
            // Uncontended: demand × headroom.
            assert!(
                (g0 - 4_000.0 * hub.cfg.config.headroom).abs() < 1e-6,
                "{g0}"
            );
            // Client never reported for a third server — and there is
            // none; the row for server 1 exists.
            assert!(table.rate(ServerId::new(1), ClientId::new(0)).is_some());
        }
        assert_eq!(hub.demand_reports.load(Ordering::Relaxed), 1);
        assert_eq!(hub.congestion_signals.load(Ordering::Relaxed), 1);
        // A stop message ends the thread even though `hub` (and its
        // sender) is still alive — the client-outlives-cluster shutdown
        // path.
        hub.tx.send(CreditMsg::Stop).unwrap();
        handle.join().unwrap();
        assert!(!panicked.load(Ordering::Acquire));
    }

    #[test]
    fn selector_enforces_buckets_and_rate_limits() {
        // Capacity 10k over 1000 clients → fair rate 10 rps, burst 1:
        // exactly one token banked at t=0.
        let mut cfg = test_cfg(1_000);
        cfg.server_capacity_rps = 10_000.0;
        let (hub, _rx) = bare_hub(cfg);
        let mut sel = CreditSelector::new(ClientId::new(0), &hub, 1, 1000);
        let servers = [ServerId::new(0)];
        assert_eq!(
            sel.select(&ctx(&servers, 0)),
            Selection::Dispatch(ServerId::new(0))
        );
        // Bucket drained; next token ~100 ms out at 10 rps.
        match sel.select(&ctx(&servers, 1)) {
            Selection::RateLimited { retry_in_ns } => {
                assert!(
                    (50_000_000..=150_000_000).contains(&retry_in_ns),
                    "{retry_in_ns}"
                );
            }
            other => panic!("expected rate limit, got {other:?}"),
        }
        assert_eq!(sel.outstanding(ServerId::new(0)), 1);
    }

    #[test]
    fn selector_applies_published_grants() {
        let mut cfg = test_cfg(1_000);
        cfg.server_capacity_rps = 10_000.0;
        let (hub, _rx) = bare_hub(cfg);
        let mut sel = CreditSelector::new(ClientId::new(7), &hub, 1, 1000);
        let servers = [ServerId::new(0)];
        // Drain the single fair-share token.
        assert!(matches!(
            sel.select(&ctx(&servers, 0)),
            Selection::Dispatch(_)
        ));
        assert!(matches!(
            sel.select(&ctx(&servers, 1)),
            Selection::RateLimited { .. }
        ));
        // Controller grants this client 2000 rps; publish epoch 1.
        let mut controller = CreditController::new(vec![10_000.0], cfg.config);
        controller.report_demand(ClientId::new(7), ServerId::new(0), 2_000.0);
        controller.allocate_into(&mut hub.board.grants.lock());
        hub.board.epoch.fetch_add(1, Ordering::Release);
        // At 2600 rps (2000 × 1.3 headroom) the next token is ~0.4 ms
        // out where the old 10 rps rate needed ~100 ms; following the
        // rate-limit hint once must reach a dispatch.
        let now = 5_000_000;
        match sel.select(&ctx(&servers, now)) {
            Selection::Dispatch(s) => assert_eq!(s, ServerId::new(0)),
            Selection::RateLimited { retry_in_ns } => {
                assert!(retry_in_ns < 2_000_000, "grant not applied: {retry_in_ns}");
                assert_eq!(
                    sel.select(&ctx(&servers, now + retry_in_ns)),
                    Selection::Dispatch(ServerId::new(0))
                );
            }
        }
    }

    #[test]
    fn selector_reports_demand_once_per_interval() {
        let cfg = test_cfg(1_000); // measurement interval 10 ms
        let (hub, rx) = bare_hub(cfg);
        let mut sel = CreditSelector::new(ClientId::new(3), &hub, 2, 2);
        let servers = [ServerId::new(0), ServerId::new(1)];
        // Dispatches inside the first interval accumulate...
        for t in [0u64, 1_000_000, 2_000_000] {
            let _ = sel.select(&ctx(&servers, t));
        }
        assert!(rx.try_recv().is_err(), "no report before the interval");
        // ...and flush as ONE message when a select crosses it.
        let _ = sel.select(&ctx(&servers, 11_000_000));
        let msg = rx.try_recv().expect("demand report after interval");
        let CreditMsg::Demand { client, rates } = msg else {
            panic!("expected a demand report");
        };
        assert_eq!(client, ClientId::new(3));
        assert!(!rates.is_empty());
        assert!(rates.iter().all(|&(_, r)| r > 0.0));
        assert!(rx.try_recv().is_err(), "one message per tick");
    }

    #[test]
    fn rate_limited_attempts_fold_into_demand_reports() {
        // Capacity 10k over 1000 clients → 10 rps fair share: one
        // banked token, then starvation. The starved attempts must
        // still show up as demand, or the controller can never learn
        // this client wants more than it is granted.
        let mut cfg = test_cfg(1_000); // measurement interval 10 ms
        cfg.server_capacity_rps = 10_000.0;
        let (hub, rx) = bare_hub(cfg);
        let mut sel = CreditSelector::new(ClientId::new(0), &hub, 1, 1000);
        let servers = [ServerId::new(0)];
        assert!(matches!(
            sel.select(&ctx(&servers, 0)),
            Selection::Dispatch(_)
        ));
        for t in [1_000_000u64, 2_000_000, 3_000_000] {
            assert!(matches!(
                sel.select(&ctx(&servers, t)),
                Selection::RateLimited { .. }
            ));
        }
        let _ = sel.select(&ctx(&servers, 11_000_000));
        let CreditMsg::Demand { rates, .. } = rx.try_recv().expect("report after interval") else {
            panic!("expected a demand report");
        };
        // 1 dispatch + 3 refused attempts over 11 ms ≈ 363 rps; the
        // dispatch alone would report ~91 rps.
        assert!(
            rates[0].1 > 250.0,
            "unmet demand missing from report: {} rps",
            rates[0].1
        );
    }

    #[test]
    fn selector_balances_by_outstanding_and_releases_on_abandon() {
        let cfg = test_cfg(1_000);
        let (hub, _rx) = bare_hub(cfg);
        // 2 clients → fair rate 5000 rps each, plenty of burst.
        let mut sel = CreditSelector::new(ClientId::new(0), &hub, 2, 2);
        let servers = [ServerId::new(0), ServerId::new(1)];
        let Selection::Dispatch(first) = sel.select(&ctx(&servers, 0)) else {
            panic!("expected dispatch");
        };
        let Selection::Dispatch(second) = sel.select(&ctx(&servers, 0)) else {
            panic!("expected dispatch");
        };
        // Outstanding weighting spreads consecutive picks.
        assert_ne!(first, second);
        sel.on_abandon(first);
        assert_eq!(sel.outstanding(first), 0);
        sel.on_response(
            second,
            10,
            &ResponseFeedback {
                response_time_ns: 10,
                queue_len: 6,
                service_time_ns: 5,
            },
        );
        assert_eq!(sel.outstanding(second), 0);
        // Queue EWMA from piggybacked feedback steers the next pick
        // away from the slow server.
        assert_eq!(sel.select(&ctx(&servers, 20)), Selection::Dispatch(first));
    }
}
