//! The credits realization: demand-proportional capacity shares.
//!
//! From §2.2: "we develop a credits strategy where clients report their
//! demands at measurement intervals and are assigned credits (i.e., shares
//! of server capacity) proportionally to demands via a logically-
//! centralized controller; once demand exceeds server capacity, a
//! congestion signal is sent to the controller and the credits allocations
//! are adapted accordingly at 1s intervals."
//!
//! Mechanics (our realization: the quote above is all the paper
//! specifies, so the details below are our choices):
//!
//! * Clients report per-server demand *rates* every measurement interval
//!   (100 ms default).
//! * Every adaptation interval (1 s), the controller grants each client a
//!   credit *rate* per server: the server's usable capacity split
//!   proportionally to reported demands, with a headroom multiplier so
//!   demand can grow, and a per-client floor so idle clients can probe.
//! * A congested server (signal raised since the last epoch) has its
//!   usable capacity scaled down multiplicatively; calm servers recover
//!   multiplicatively toward full capacity — AIMD-flavored, as hinted by
//!   "adapted accordingly".
//! * Clients enforce their grants with token buckets ([`CreditBucket`]):
//!   a request may be dispatched to server *s* only by spending a token
//!   from the bucket for *s*; otherwise it waits in the client's local
//!   priority queue (that wait is part of task latency).

use crate::priority::Priority;
use brb_store::ids::{ClientId, ServerId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Grant rates for one adaptation epoch: per server, the granted
/// requests/second of every reporting client, **sorted by client id**.
///
/// The sorted dense layout replaces the old `Vec<HashMap<ClientId, f64>>`
/// for two reasons recorded in ROADMAP's open items: iteration order (and
/// therefore every f64 summation the engine derives from a table) is
/// deterministic, and the table can be **pooled** —
/// [`CreditController::allocate_into`] refills a caller-owned table
/// without allocating once its vectors are warm.
#[derive(Debug, Clone, Default)]
pub struct GrantTable {
    per_server: Vec<Vec<(ClientId, f64)>>,
}

impl GrantTable {
    /// An empty table (fills on the first [`CreditController::allocate_into`]).
    pub fn new() -> Self {
        GrantTable::default()
    }

    /// Number of servers covered by the table.
    pub fn num_servers(&self) -> usize {
        self.per_server.len()
    }

    /// The `(client, rate)` grants of one server, sorted by client id.
    pub fn server(&self, server: ServerId) -> &[(ClientId, f64)] {
        &self.per_server[server.index()]
    }

    /// Grant rows in server order: `(server index, sorted grants)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[(ClientId, f64)])> {
        self.per_server
            .iter()
            .enumerate()
            .map(|(s, g)| (s, g.as_slice()))
    }

    /// The rate granted to `client` at `server`, if the client reported.
    pub fn rate(&self, server: ServerId, client: ClientId) -> Option<f64> {
        let grants = self.per_server.get(server.index())?;
        grants
            .binary_search_by_key(&client, |&(c, _)| c)
            .ok()
            .map(|i| grants[i].1)
    }

    /// Sum of granted rates at one server.
    pub fn total_rate(&self, server: ServerId) -> f64 {
        self.per_server[server.index()]
            .iter()
            .map(|&(_, r)| r)
            .sum()
    }

    /// Clears all rows, keeping their capacity, and sizes the table for
    /// `num_servers` rows.
    fn reset(&mut self, num_servers: usize) {
        for row in &mut self.per_server {
            row.clear();
        }
        self.per_server.resize_with(num_servers, Vec::new);
    }
}

/// Controller tuning.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CreditsConfig {
    /// How often clients report demand, nanoseconds (paper: "measurement
    /// intervals"; we default to 100 ms).
    pub measurement_interval_ns: u64,
    /// How often allocations adapt, nanoseconds (paper: 1 s).
    pub adaptation_interval_ns: u64,
    /// Multiplicative decrease applied to a congested server's usable
    /// capacity.
    pub backoff: f64,
    /// Multiplicative recovery toward full capacity when calm.
    pub recovery: f64,
    /// Floor on the usable-capacity scale. Must stay above the offered
    /// load fraction or sustained backoff makes client backlogs diverge
    /// (grants below arrival rate can never drain a queue).
    pub min_scale: f64,
    /// Grant headroom: grants = demand-share × headroom (≥ 1) so clients
    /// can ramp up between epochs.
    pub headroom: f64,
    /// Minimum grant rate (requests/s) per (client, server) so every
    /// client can always probe every server.
    pub min_rate: f64,
    /// Token-bucket burst, in seconds of granted rate.
    pub burst_secs: f64,
}

impl Default for CreditsConfig {
    fn default() -> Self {
        CreditsConfig {
            measurement_interval_ns: 100_000_000,  // 100 ms
            adaptation_interval_ns: 1_000_000_000, // 1 s (paper)
            backoff: 0.9,
            recovery: 1.25,
            min_scale: 0.8,
            headroom: 1.3,
            min_rate: 10.0,
            burst_secs: 0.1,
        }
    }
}

impl CreditsConfig {
    /// Validates tuning invariants.
    pub fn validate(&self) -> Result<(), String> {
        if self.measurement_interval_ns == 0 || self.adaptation_interval_ns == 0 {
            return Err("intervals must be positive".into());
        }
        if !(0.0 < self.backoff && self.backoff < 1.0) {
            return Err(format!("backoff must be in (0,1): {}", self.backoff));
        }
        if self.recovery < 1.0 {
            return Err(format!("recovery must be >= 1: {}", self.recovery));
        }
        if !(0.0 < self.min_scale && self.min_scale <= 1.0) {
            return Err(format!("min_scale must be in (0,1]: {}", self.min_scale));
        }
        if self.headroom < 1.0 {
            return Err(format!("headroom must be >= 1: {}", self.headroom));
        }
        if self.min_rate < 0.0 || self.burst_secs <= 0.0 {
            return Err("min_rate must be >= 0 and burst_secs > 0".into());
        }
        Ok(())
    }
}

/// The logically-centralized credit controller.
#[derive(Debug, Clone)]
pub struct CreditController {
    config: CreditsConfig,
    /// Full capacity of each server (requests/s).
    capacities: Vec<f64>,
    /// Latest reported demand rate per server per client, **sorted by
    /// client id** — dense pairs instead of a hash map, so demand sums
    /// run in one deterministic order and epoch allocation is
    /// allocation-free once the rows are warm.
    demands: Vec<Vec<(ClientId, f64)>>,
    /// Usable-capacity scale per server, in (0, 1].
    scales: Vec<f64>,
    /// Congestion signals received since the last adaptation.
    congested: Vec<bool>,
    epochs: u64,
}

impl CreditController {
    /// Creates a controller for servers with the given full capacities
    /// (requests/second each).
    ///
    /// # Panics
    /// Panics if the config is invalid or any capacity is non-positive.
    pub fn new(capacities: Vec<f64>, config: CreditsConfig) -> Self {
        config.validate().expect("invalid credits config");
        assert!(!capacities.is_empty(), "need at least one server");
        assert!(
            capacities.iter().all(|&c| c > 0.0),
            "capacities must be positive"
        );
        let n = capacities.len();
        CreditController {
            config,
            capacities,
            demands: vec![Vec::new(); n],
            scales: vec![1.0; n],
            congested: vec![false; n],
            epochs: 0,
        }
    }

    /// The controller's configuration.
    pub fn config(&self) -> &CreditsConfig {
        &self.config
    }

    /// Records a demand report: `client` wants `rate_rps` requests/second
    /// of `server`. Overwrites the client's previous report for that
    /// server (reports are absolute, not deltas).
    pub fn report_demand(&mut self, client: ClientId, server: ServerId, rate_rps: f64) {
        let s = server.index();
        assert!(s < self.capacities.len(), "unknown server {server}");
        let row = &mut self.demands[s];
        match row.binary_search_by_key(&client, |&(c, _)| c) {
            Ok(i) => row[i].1 = rate_rps.max(0.0),
            Err(i) => row.insert(i, (client, rate_rps.max(0.0))),
        }
    }

    /// Records a congestion signal from `server` ("once demand exceeds
    /// server capacity, a congestion signal is sent to the controller").
    pub fn signal_congestion(&mut self, server: ServerId) {
        let s = server.index();
        assert!(s < self.capacities.len(), "unknown server {server}");
        self.congested[s] = true;
    }

    /// Usable-capacity scale of a server (diagnostics).
    pub fn scale_of(&self, server: ServerId) -> f64 {
        self.scales[server.index()]
    }

    /// Number of adaptation epochs completed.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Runs one adaptation epoch into a caller-pooled table: updates
    /// per-server scales from congestion state and refills `grants`
    /// in place — the steady-state tick allocates nothing once the
    /// table's rows have warmed to the client population. Congestion
    /// flags reset; demand reports persist until overwritten.
    pub fn allocate_into(&mut self, grants: &mut GrantTable) {
        grants.reset(self.capacities.len());
        for s in 0..self.capacities.len() {
            // AIMD-flavored usable capacity.
            if self.congested[s] {
                self.scales[s] = (self.scales[s] * self.config.backoff).max(self.config.min_scale);
            } else {
                self.scales[s] = (self.scales[s] * self.config.recovery).min(1.0);
            }
            self.congested[s] = false;

            let total_demand: f64 = self.demands[s].iter().map(|&(_, d)| d).sum();
            // Backoff exists to spread transient hot spots, not to cap
            // throughput: never throttle usable capacity below demand
            // pressure, or sustained high load (demand ≈ capacity) makes
            // client backlogs diverge — grants below the arrival rate can
            // never drain a queue.
            let pressure = (total_demand / self.capacities[s]).min(1.0);
            let usable = self.capacities[s] * self.scales[s].max(pressure);
            let row = &mut grants.per_server[s];
            for &(client, demand) in &self.demands[s] {
                let share = if total_demand <= usable {
                    // Uncontended: grant demand plus headroom.
                    demand * self.config.headroom
                } else {
                    // Contended: proportional share of usable capacity.
                    usable * demand / total_demand
                };
                // Demands are sorted by client id, so pushing in order
                // keeps the row sorted.
                row.push((client, share.max(self.config.min_rate)));
            }
        }
        self.epochs += 1;
    }

    /// [`Self::allocate_into`] into a fresh table — the convenience form
    /// for tests and cold paths.
    pub fn allocate(&mut self) -> GrantTable {
        let mut grants = GrantTable::new();
        self.allocate_into(&mut grants);
        grants
    }
}

/// A client-side token bucket enforcing one server's grant rate.
#[derive(Debug, Clone, Copy)]
pub struct CreditBucket {
    rate_rps: f64,
    burst: f64,
    tokens: f64,
    last_refill_ns: u64,
}

impl CreditBucket {
    /// Creates a bucket with the given rate and burst (tokens), starting
    /// full.
    pub fn new(rate_rps: f64, burst: f64) -> Self {
        let burst = burst.max(1.0);
        CreditBucket {
            rate_rps: rate_rps.max(0.0),
            burst,
            tokens: burst,
            last_refill_ns: 0,
        }
    }

    /// Applies a new grant rate (at an adaptation epoch). The burst is
    /// re-derived from the rate and `burst_secs`; accumulated tokens are
    /// clamped to the new burst.
    pub fn set_rate(&mut self, now_ns: u64, rate_rps: f64, burst_secs: f64) {
        self.refill(now_ns);
        self.rate_rps = rate_rps.max(0.0);
        self.burst = (self.rate_rps * burst_secs).max(1.0);
        self.tokens = self.tokens.min(self.burst);
    }

    fn refill(&mut self, now_ns: u64) {
        if now_ns > self.last_refill_ns {
            let dt = (now_ns - self.last_refill_ns) as f64 / 1e9;
            self.tokens = (self.tokens + self.rate_rps * dt).min(self.burst);
            self.last_refill_ns = now_ns;
        }
    }

    /// Attempts to spend one token at time `now_ns`.
    pub fn try_take(&mut self, now_ns: u64) -> bool {
        self.refill(now_ns);
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens available at `now_ns` (after refill).
    pub fn tokens_at(&mut self, now_ns: u64) -> f64 {
        self.refill(now_ns);
        self.tokens
    }

    /// Nanoseconds until one token accrues (0 if available now;
    /// `u64::MAX` if the rate is zero).
    pub fn ns_until_token(&mut self, now_ns: u64) -> u64 {
        self.refill(now_ns);
        if self.tokens >= 1.0 {
            0
        } else if self.rate_rps <= 0.0 {
            u64::MAX
        } else {
            let deficit = 1.0 - self.tokens;
            (deficit / self.rate_rps * 1e9).ceil() as u64
        }
    }

    /// The current grant rate.
    pub fn rate(&self) -> f64 {
        self.rate_rps
    }
}

/// Bookkeeping helper: a client's local holding queue while it waits for
/// credits, keyed by server. Entries keep their task priority so the
/// highest-priority request dispatches first once tokens arrive.
#[derive(Debug, Default)]
pub struct HoldQueue<T> {
    by_server: BTreeMap<ServerId, crate::queue::PriorityQueue<T>>,
    len: usize,
}

impl<T> HoldQueue<T> {
    /// Creates an empty hold queue.
    pub fn new() -> Self {
        HoldQueue {
            by_server: BTreeMap::new(),
            len: 0,
        }
    }

    /// Holds `item` destined for `server`.
    pub fn hold(&mut self, server: ServerId, priority: Priority, item: T) {
        use crate::queue::RequestQueue;
        self.by_server
            .entry(server)
            .or_insert_with(crate::queue::PriorityQueue::new)
            .push(priority, item);
        self.len += 1;
    }

    /// Releases the highest-priority held item for `server`, if any.
    pub fn release(&mut self, server: ServerId) -> Option<(Priority, T)> {
        use crate::queue::RequestQueue;
        let q = self.by_server.get_mut(&server)?;
        let out = q.pop();
        if out.is_some() {
            self.len -= 1;
        }
        out
    }

    /// Held items destined for `server`.
    pub fn held_for(&self, server: ServerId) -> usize {
        use crate::queue::RequestQueue;
        self.by_server.get(&server).map_or(0, |q| q.len())
    }

    /// Total held items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller(n: usize, cap: f64) -> CreditController {
        CreditController::new(vec![cap; n], CreditsConfig::default())
    }

    #[test]
    fn uncontended_grants_demand_plus_headroom() {
        let mut c = controller(1, 14_000.0);
        let headroom = c.config().headroom;
        c.report_demand(ClientId::new(0), ServerId::new(0), 1_000.0);
        c.report_demand(ClientId::new(1), ServerId::new(0), 2_000.0);
        let g = c.allocate();
        let s0 = ServerId::new(0);
        let g0 = g.rate(s0, ClientId::new(0)).unwrap();
        let g1 = g.rate(s0, ClientId::new(1)).unwrap();
        assert!((g0 - 1_000.0 * headroom).abs() < 1e-9);
        assert!((g1 - 2_000.0 * headroom).abs() < 1e-9);
    }

    #[test]
    fn demand_pressure_floors_usable_capacity() {
        // Even after sustained congestion, grants must sum to (at least)
        // capacity when demand saturates it — backoff redistributes load,
        // it must not suppress throughput.
        let mut c = controller(1, 10_000.0);
        c.report_demand(ClientId::new(0), ServerId::new(0), 8_000.0);
        c.report_demand(ClientId::new(1), ServerId::new(0), 4_000.0);
        for _ in 0..20 {
            c.signal_congestion(ServerId::new(0));
            c.allocate();
        }
        c.signal_congestion(ServerId::new(0));
        let g = c.allocate();
        let total = g.total_rate(ServerId::new(0));
        assert!(
            total >= 10_000.0 - 1e-6,
            "grants {total} fell below saturated capacity"
        );
    }

    #[test]
    fn contended_grants_are_proportional_shares() {
        let mut c = controller(1, 10_000.0);
        c.report_demand(ClientId::new(0), ServerId::new(0), 30_000.0);
        c.report_demand(ClientId::new(1), ServerId::new(0), 10_000.0);
        let g = c.allocate();
        let g0 = g.rate(ServerId::new(0), ClientId::new(0)).unwrap();
        let g1 = g.rate(ServerId::new(0), ClientId::new(1)).unwrap();
        // Proportional 3:1 split of capacity.
        assert!((g0 / g1 - 3.0).abs() < 1e-9, "{g0} vs {g1}");
        assert!((g0 + g1 - 10_000.0).abs() < 1e-6);
    }

    #[test]
    fn congestion_backs_off_then_recovers() {
        let mut c = controller(1, 10_000.0);
        let backoff = c.config().backoff;
        c.report_demand(ClientId::new(0), ServerId::new(0), 20_000.0);
        c.signal_congestion(ServerId::new(0));
        c.allocate();
        let after_backoff = c.scale_of(ServerId::new(0));
        assert!((after_backoff - backoff).abs() < 1e-9);
        // Calm epochs recover multiplicatively, capped at 1.
        for _ in 0..10 {
            c.allocate();
        }
        assert!((c.scale_of(ServerId::new(0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_congestion_floors_at_min_scale() {
        let mut c = controller(1, 10_000.0);
        let floor = c.config().min_scale;
        for _ in 0..50 {
            c.signal_congestion(ServerId::new(0));
            c.allocate();
        }
        let scale = c.scale_of(ServerId::new(0));
        assert!(
            (scale - floor).abs() < 1e-9,
            "scale {scale} vs floor {floor}"
        );
    }

    #[test]
    fn min_rate_floor_applies() {
        let mut c = controller(1, 10_000.0);
        c.report_demand(ClientId::new(0), ServerId::new(0), 0.0);
        let g = c.allocate();
        assert_eq!(g.rate(ServerId::new(0), ClientId::new(0)), Some(10.0));
        // A client that never reported has no grant row entry.
        assert_eq!(g.rate(ServerId::new(0), ClientId::new(9)), None);
    }

    #[test]
    fn grants_conserve_capacity_under_contention() {
        let mut c = controller(3, 14_000.0);
        for client in 0..18u64 {
            for server in 0..3u64 {
                c.report_demand(ClientId::new(client), ServerId::new(server), 5_000.0);
            }
        }
        let g = c.allocate();
        for (s, row) in g.iter() {
            let total: f64 = row.iter().map(|&(_, r)| r).sum();
            // min_rate floors can push slightly above usable capacity, but
            // never above capacity + clients × min_rate.
            assert!(
                total <= 14_000.0 + 18.0 * 10.0 + 1e-6,
                "server {s} total {total}"
            );
        }
    }

    /// `allocate_into` must be a drop-in for `allocate`: refilling a
    /// reused (dirty) table yields exactly the rates a fresh table gets,
    /// with rows sorted by client id.
    #[test]
    fn allocate_into_reuses_table_without_residue() {
        let mut a = controller(2, 10_000.0);
        let mut b = controller(2, 10_000.0);
        let mut pooled = GrantTable::new();
        for epoch in 0..5u64 {
            // Vary the reporting population so rows shrink and grow.
            for client in 0..(2 + epoch % 3) {
                // Out-of-order reports must still produce sorted rows.
                let client = (2 + epoch % 3) - 1 - client;
                for server in 0..2u64 {
                    let rate = 1_000.0 * (client + 1) as f64;
                    a.report_demand(ClientId::new(client), ServerId::new(server), rate);
                    b.report_demand(ClientId::new(client), ServerId::new(server), rate);
                }
            }
            if epoch % 2 == 0 {
                a.signal_congestion(ServerId::new(1));
                b.signal_congestion(ServerId::new(1));
            }
            a.allocate_into(&mut pooled);
            let fresh = b.allocate();
            assert_eq!(pooled.num_servers(), fresh.num_servers());
            for server in 0..2u64 {
                let s = ServerId::new(server);
                assert_eq!(pooled.server(s), fresh.server(s), "epoch {epoch}");
                assert!(
                    pooled.server(s).windows(2).all(|w| w[0].0 < w[1].0),
                    "row not sorted at epoch {epoch}"
                );
            }
        }
        assert_eq!(a.epochs(), 5);
    }

    #[test]
    fn bucket_accrues_and_spends() {
        let mut b = CreditBucket::new(1_000.0, 5.0); // 1 token/ms, burst 5
        assert!(b.try_take(0));
        for _ in 0..4 {
            assert!(b.try_take(0));
        }
        assert!(!b.try_take(0), "burst exhausted");
        // After 2ms, two tokens accrued.
        assert!(b.try_take(2_000_000));
        assert!(b.try_take(2_000_000));
        assert!(!b.try_take(2_000_000));
    }

    #[test]
    fn bucket_burst_caps_accrual() {
        let mut b = CreditBucket::new(1_000.0, 3.0);
        // A long idle period cannot bank more than burst.
        assert!((b.tokens_at(10_000_000_000) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn bucket_ns_until_token() {
        let mut b = CreditBucket::new(1_000.0, 1.0);
        assert_eq!(b.ns_until_token(0), 0);
        assert!(b.try_take(0));
        // Next token in 1ms.
        let eta = b.ns_until_token(0);
        assert!((900_000..=1_100_000).contains(&eta), "{eta}");
        let mut zero = CreditBucket::new(0.0, 1.0);
        assert!(zero.try_take(0)); // initial burst token
        assert_eq!(zero.ns_until_token(0), u64::MAX);
    }

    #[test]
    fn set_rate_rescales_burst_and_clamps_tokens() {
        let mut b = CreditBucket::new(10_000.0, 500.0);
        b.set_rate(0, 100.0, 0.05);
        // New burst = 100 × 0.05 = 5; banked tokens clamp down.
        assert!((b.tokens_at(0) - 5.0).abs() < 1e-9);
        assert_eq!(b.rate(), 100.0);
    }

    #[test]
    fn hold_queue_releases_by_priority() {
        let mut h = HoldQueue::new();
        let s = ServerId::new(2);
        h.hold(s, Priority(30), "low");
        h.hold(s, Priority(10), "high");
        h.hold(ServerId::new(1), Priority(1), "other-server");
        assert_eq!(h.len(), 3);
        assert_eq!(h.held_for(s), 2);
        assert_eq!(h.release(s).unwrap().1, "high");
        assert_eq!(h.release(s).unwrap().1, "low");
        assert!(h.release(s).is_none());
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn config_validation() {
        let mut c = CreditsConfig::default();
        assert!(c.validate().is_ok());
        c.backoff = 1.5;
        assert!(c.validate().is_err());
        c = CreditsConfig {
            recovery: 0.5,
            ..Default::default()
        };
        assert!(c.validate().is_err());
        c = CreditsConfig {
            adaptation_interval_ns: 0,
            ..Default::default()
        };
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "unknown server")]
    fn demand_for_unknown_server_panics() {
        let mut c = controller(1, 100.0);
        c.report_demand(ClientId::new(0), ServerId::new(5), 1.0);
    }
}
