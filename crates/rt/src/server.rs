//! The threaded storage cluster: servers, worker pools, shared queues.
//!
//! Each server owns a [`ShardedStore`] replica of its partitions, a
//! condvar-guarded *stable* priority queue and `workers_per_server` OS
//! threads that pull the most urgent request, read the value, optionally
//! simulate a size-proportional service cost and reply over the request's
//! channel. Clients enqueue straight into that queue on their own thread
//! ([`ServerShared::enqueue`]), so a request crosses one thread hop —
//! client to worker — and its priority takes effect on arrival.
//!
//! The overload lane runs on real queues: admission applies the
//! configured [`QueueBound`] under the queue lock (tail-drop at
//! capacity, shed at the watermark) and workers feed a [`CoDel`]
//! controller with each dequeued request's *measured* sojourn time —
//! drops and sheds NACK back over the transport as typed [`RtNack`]
//! replies instead of silently growing the queue.
//!
//! Two further lanes complete the figure-2 strategy set natively:
//!
//! * **Credits** ([`crate::credits`]): a controller thread adapts grant
//!   allocations from live demand reports and admission-raised
//!   congestion signals; clients gate dispatch through token buckets.
//!   Admission detects congestion exactly as the sim server does —
//!   queue depth at arrival against the threshold, plus an arrival-rate
//!   window.
//! * **Model** ([`RtQueueMode::Global`]): one [`GlobalQueue`] shared by
//!   every server; idle workers pull the highest-priority request their
//!   replica constraint allows — the paper's unrealizable ideal, made
//!   "realizable" here only because the cluster is in-process.
//!
//! Hedged requests whose twin already won are purged from the queue in
//! place ([`ServerShared::cancel`], O(n), cold path), so duplicate work
//! is bounded by in-service requests.

use crate::client::RtClient;
use crate::credits::{self, CreditMsg, CreditSelector, CreditsHub, RtCreditsConfig};
use crate::error::RtError;
use crate::timing;
use crate::transport::{RtNack, RtReply, RtRequest, RtResponse};
use brb_sched::overload::{CoDel, CoDelConfig, DropReason, EnqueueOutcome, QueueBound};
use brb_sched::{GlobalQueue, PolicyKind, PriorityQueue, RequestQueue};
use brb_select::{ReplicaSelector, SelectorSpec};
use brb_store::cost::{CostModel, ForecastQuality};
use brb_store::ids::{ClientId, ServerId};
use brb_store::partition::Ring;
use brb_store::service::{ServiceModel, ServiceNoise};
use brb_store::ShardedStore;
use brb_workload::taskgen::SizeModel;
use bytes::Bytes;
use crossbeam::channel::Sender;
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How servers spend service time.
#[derive(Debug, Clone, Copy)]
pub enum WorkModel {
    /// Serve as fast as the store allows (unit tests, throughput benches).
    Instant,
    /// Wait out a service time *sampled* from the model for the value's
    /// size (noise included — the same service process the simulator
    /// draws, so sim-vs-rt comparisons face the same distribution) —
    /// turns the cluster into a scale model of the paper's servers. The
    /// wait is a hybrid sleep/spin ([`crate::timing`]): a raw
    /// `thread::sleep` overshoots tens-of-µs services by 50µs–1ms of OS
    /// timer slack, which would drown every strategy difference.
    SimulateService(ServiceModel),
}

/// Which queue topology the cluster runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RtQueueMode {
    /// One priority queue per server (the realizable deployments:
    /// direct dispatch, credits).
    #[default]
    PerServer,
    /// One global priority queue shared by all servers; workers pull
    /// the best request their replica constraint allows — the paper's
    /// "model" realization.
    Global,
}

/// Bounded-queue knobs for every live server queue (the overload lane).
#[derive(Debug, Clone, Copy)]
pub struct RtQueueConfig {
    /// Tail-drop capacity and optional shed watermark, applied at
    /// admission against the queue length.
    pub bound: QueueBound,
    /// CoDel AQM at dequeue (`None` disables it), driven by measured
    /// sojourn timestamps (enqueue `Instant` → dequeue `Instant`).
    pub codel: Option<CoDelConfig>,
}

/// Client-side timeout/retry knobs (the overload lane), in wall-clock
/// nanoseconds. Mirrors the simulator's `TimeoutConfig` semantics:
/// per-attempt deadlines, capped exponential backoff, and a per-client
/// retry budget as a percentage of dispatches.
#[derive(Debug, Clone, Copy)]
pub struct RtTimeoutConfig {
    /// Per-attempt timeout, dispatch → reply (ns).
    pub timeout_ns: u64,
    /// Retries allowed after the first attempt (0 = a single timeout is
    /// terminal).
    pub max_retries: u32,
    /// First-retry backoff (ns); doubles per retry. 0 retries
    /// immediately — the retry-storm configuration.
    pub backoff_base_ns: u64,
    /// Cap on the exponential backoff (ns); 0 = uncapped.
    pub backoff_cap_ns: u64,
    /// Retry budget: a client stops retrying once its retries reach
    /// this percentage of its dispatches (`None` = unbudgeted).
    pub retry_budget_percent: Option<u32>,
}

/// Transient service spikes: with probability `p_spike` a request's
/// service wait stretches by a uniform `[extra_lo_ns, extra_hi_ns]`
/// draw. This is the live lowering of the simulator's in-network spike
/// fault — the in-process transport has no wire to delay, so the spike
/// occupies the serving worker instead (a deliberate, documented
/// approximation: spiked requests still hit client deadlines and still
/// consume server capacity).
#[derive(Debug, Clone, Copy)]
pub struct SpikeModel {
    /// Per-request spike probability in `[0, 1]`.
    pub p_spike: f64,
    /// Minimum additional delay (ns).
    pub extra_lo_ns: u64,
    /// Maximum additional delay (ns), inclusive.
    pub extra_hi_ns: u64,
}

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct RtClusterConfig {
    /// Number of servers.
    pub num_servers: u32,
    /// Worker threads per server (the paper's "cores").
    pub workers_per_server: u32,
    /// Replication factor.
    pub replication: u32,
    /// Partitions on the ring; `None` = one per server.
    pub num_partitions: Option<u32>,
    /// Priority-assignment policy clients use.
    pub policy: PolicyKind,
    /// Replica selection strategy clients run (fed by the piggybacked
    /// `queue_len` / `service_ns` response fields).
    pub selector: SelectorSpec,
    /// Service-time behaviour.
    pub work: WorkModel,
    /// Store shards per server.
    pub store_shards: usize,
    /// Value-size model used by `populate_etc` and client cost
    /// forecasts.
    pub sizes: SizeModel,
    /// How accurately clients forecast service costs from value sizes.
    pub forecast: ForecastQuality,
    /// Declared client population — C3's concurrency-compensation
    /// weight (`q̂ = 1 + outstanding·w + q̄`). Keeping it equal to the
    /// scenario's client count makes the live C3 the *same algorithm*
    /// the simulator runs, even when fewer live clients exist.
    pub num_clients: u32,
    /// Constant network round trip accounted per request (ns). The
    /// in-process transport has no real propagation delay; for a
    /// constant-latency mesh a uniform shift leaves queueing dynamics
    /// untouched, so the RTT is *added to the recorded latencies*
    /// (request, task completion, selector feedback) rather than slept.
    pub network_rtt_ns: u64,
    /// Queue topology: per-server queues or the model realization's
    /// single global work-pull queue.
    pub queue_mode: RtQueueMode,
    /// Credits lane (`None` = no controller): spawns the controller
    /// thread and replaces each client's selector with the token-bucket
    /// credits admission.
    pub credits: Option<RtCreditsConfig>,
    /// Hedged requests: after this many nanoseconds without a response,
    /// a client duplicates the request to another replica; first
    /// response wins, the loser is cancelled (`None` = no hedging).
    pub hedge_delay_ns: Option<u64>,
    /// Bounded server queues + AQM (`None` = unbounded, the legacy
    /// behavior).
    pub queue: Option<RtQueueConfig>,
    /// Client-side deadline timers and retries (`None` = clients wait
    /// forever, the legacy behavior).
    pub timeout: Option<RtTimeoutConfig>,
    /// Per-server speed factors: service times divide by the factor
    /// (0.5 = half speed, the degraded-node fault). Empty or shorter
    /// than the server count means nominal speed for the rest.
    pub speed_factors: Vec<f64>,
    /// Transient service spikes (`None` = no spikes).
    pub spike: Option<SpikeModel>,
    /// Fault injection for panic-safety tests: a worker that pops this
    /// key panics mid-service. Never set outside tests.
    pub panic_on_key: Option<u64>,
}

impl Default for RtClusterConfig {
    fn default() -> Self {
        RtClusterConfig {
            num_servers: 3,
            workers_per_server: 2,
            replication: 2,
            num_partitions: None,
            policy: PolicyKind::UnifIncr,
            selector: SelectorSpec::LeastOutstanding,
            work: WorkModel::Instant,
            store_shards: 16,
            sizes: SizeModel::facebook_etc(),
            forecast: ForecastQuality::Exact,
            num_clients: 1,
            network_rtt_ns: 0,
            queue_mode: RtQueueMode::PerServer,
            credits: None,
            hedge_delay_ns: None,
            queue: None,
            timeout: None,
            speed_factors: Vec::new(),
            spike: None,
            panic_on_key: None,
        }
    }
}

/// A queued request plus the instant it entered the queue — the AQM's
/// sojourn clock.
pub(crate) struct Queued {
    pub(crate) req: RtRequest,
    pub(crate) enqueued: Instant,
}

/// The priority queue and its (optional) CoDel controller, guarded by
/// one mutex: drop decisions must serialize with dequeues anyway, so a
/// second lock would only add an acquisition per request.
pub(crate) struct ServerQueue {
    pub(crate) pq: PriorityQueue<Queued>,
    pub(crate) codel: Option<CoDel>,
}

/// Shared state of one server.
pub(crate) struct ServerShared {
    /// This server's index.
    pub(crate) id: u32,
    pub(crate) queue: Mutex<ServerQueue>,
    pub(crate) available: Condvar,
    /// Queue length mirror, written under the queue lock and read
    /// without it, so the piggybacked feedback read costs no queue lock.
    pub(crate) queue_len: AtomicUsize,
    /// Admission bound (`None` = unbounded).
    pub(crate) bound: Option<QueueBound>,
    /// Credits-lane congestion detection (`None` without credits). Its
    /// own lock, never held together with the queue lock.
    congestion: Option<Mutex<CongestionMonitor>>,
    /// Time base for the CoDel controller's `now_ns`.
    pub(crate) epoch: Instant,
    pub(crate) store: ShardedStore,
    /// Set by shutdown; admission checks it under the queue lock, so no
    /// request can enter a queue whose workers are leaving.
    pub(crate) stop: AtomicBool,
    pub(crate) served: AtomicU64,
    /// Requests tail-dropped at capacity or CoDel-dropped at dequeue.
    pub(crate) dropped: AtomicU64,
    /// Requests shed by the admission watermark.
    pub(crate) shed: AtomicU64,
    /// Total nanoseconds workers spent in service (utilization).
    pub(crate) busy_ns: AtomicU64,
}

impl ServerShared {
    fn new(id: u32, config: &RtClusterConfig, congestion: Option<CongestionMonitor>) -> Self {
        ServerShared {
            id,
            queue: Mutex::new(ServerQueue {
                pq: PriorityQueue::new(),
                codel: config.queue.and_then(|q| q.codel).map(CoDel::new),
            }),
            available: Condvar::new(),
            queue_len: AtomicUsize::new(0),
            bound: config.queue.map(|q| q.bound),
            congestion: congestion.map(Mutex::new),
            epoch: Instant::now(),
            store: ShardedStore::new(config.store_shards),
            stop: AtomicBool::new(false),
            served: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
        }
    }

    /// Admits `req` on the caller's thread: congestion detection, then
    /// the bounded-admission check and the push into the stable priority
    /// queue (the server's own, or the cluster's global queue) under the
    /// queue lock, so the priority takes effect the moment the request
    /// arrives. A dropped or shed request is NACKed on its reply channel
    /// after the lock is released. Returns [`RtError::ClusterDown`] once
    /// the cluster has shut down: the stop flag is read under the queue
    /// lock, so the request is refused rather than stranded.
    pub(crate) fn enqueue(
        &self,
        global: Option<&GlobalShared>,
        req: RtRequest,
    ) -> Result<(), RtError> {
        if let Some(monitor) = &self.congestion {
            // The same length feedback responses piggyback; global mode
            // watches the cluster-wide backlog.
            let len = match global {
                Some(g) => g.queue_len.load(Ordering::Relaxed),
                None => self.queue_len.load(Ordering::Relaxed),
            };
            monitor.lock().on_arrival(self.id, len);
        }
        let refused = match global {
            None => {
                let mut q = self.queue.lock();
                if self.stop.load(Ordering::SeqCst) {
                    return Err(RtError::ClusterDown);
                }
                match self.admit(q.pq.len()) {
                    Some(reason) => Some((req, reason)),
                    None => {
                        q.pq.push(
                            req.priority,
                            Queued {
                                req,
                                enqueued: Instant::now(),
                            },
                        );
                        self.queue_len.fetch_add(1, Ordering::Relaxed);
                        drop(q);
                        self.available.notify_one();
                        None
                    }
                }
            }
            Some(g) => {
                let mut q = g.queue.lock();
                if self.stop.load(Ordering::SeqCst) {
                    return Err(RtError::ClusterDown);
                }
                match self.admit(q.gq.len()) {
                    Some(reason) => Some((req, reason)),
                    None => {
                        q.gq.push(
                            g.ring.group_of_key(req.key),
                            req.priority,
                            Queued {
                                req,
                                enqueued: Instant::now(),
                            },
                        );
                        g.queue_len.fetch_add(1, Ordering::Relaxed);
                        drop(q);
                        // notify_all, not notify_one: a single wake could
                        // land on a worker outside this group's replica
                        // set, which would re-park and strand the request.
                        g.available.notify_all();
                        None
                    }
                }
            }
        };
        if let Some((req, reason)) = refused {
            send_nack(self.id, &req, reason);
        }
        Ok(())
    }

    /// The bounded-admission verdict for a queue holding `len` requests:
    /// `Some(reason)` refuses (and counts) the arrival.
    fn admit(&self, len: usize) -> Option<DropReason> {
        let EnqueueOutcome::Dropped(reason) = self.bound?.admit(len) else {
            return None;
        };
        let counter = match reason {
            DropReason::Shed => &self.shed,
            DropReason::QueueFull | DropReason::Sojourn => &self.dropped,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        Some(reason)
    }

    /// Purges the still-queued attempt `(task_id, req_idx, attempt)` —
    /// the losing twin of a hedged pair. The client enqueued it on its
    /// own thread before cancelling, so a miss just means a worker got
    /// there first. Hedging never lowers to global mode, so only the
    /// server's own queue is searched.
    pub(crate) fn cancel(&self, task_id: u64, req_idx: u32, attempt: u32) {
        let mut q = self.queue.lock();
        let removed = q.pq.retain(|queued| {
            !(queued.req.task_id == task_id
                && queued.req.req_idx == req_idx
                && queued.req.attempt == attempt)
        });
        if removed > 0 {
            self.queue_len.fetch_sub(removed, Ordering::Relaxed);
        }
    }
}

/// The model realization's single work-pull queue, shared by every
/// server's workers.
pub(crate) struct GlobalServerQueue {
    pub(crate) gq: GlobalQueue<Queued>,
    pub(crate) codel: Option<CoDel>,
}

/// Shared state of the global queue mode: one mutex + condvar for the
/// whole cluster (the coordination cost the paper calls unrealizable —
/// here it is one in-process lock).
pub(crate) struct GlobalShared {
    pub(crate) queue: Mutex<GlobalServerQueue>,
    pub(crate) available: Condvar,
    /// Cluster-wide queue length mirror (admission + piggyback).
    pub(crate) queue_len: AtomicUsize,
    /// Ring copy for the replica-constrained pull.
    pub(crate) ring: Ring,
    /// Time base for the shared CoDel controller.
    pub(crate) epoch: Instant,
}

/// Admission-side congestion detection for the credits lane, mirroring
/// the sim server's two triggers: queue depth at arrival ≥ threshold, and a
/// windowed arrival rate above capacity. Signals are rate-limited to
/// one per measurement interval, as in the sim.
struct CongestionMonitor {
    tx: Sender<CreditMsg>,
    threshold: usize,
    capacity_rps: f64,
    interval: Duration,
    window_start: Instant,
    arrivals: u64,
    last_signal: Option<Instant>,
}

impl CongestionMonitor {
    fn new(hub: &CreditsHub) -> Self {
        CongestionMonitor {
            tx: hub.tx.clone(),
            threshold: hub.cfg.congestion_queue_threshold,
            capacity_rps: hub.cfg.server_capacity_rps,
            interval: Duration::from_nanos(hub.cfg.config.measurement_interval_ns),
            window_start: Instant::now(),
            arrivals: 0,
            last_signal: None,
        }
    }

    fn on_arrival(&mut self, server_id: u32, queue_len: usize) {
        let now = Instant::now();
        self.arrivals += 1;
        let mut congested = queue_len >= self.threshold;
        let elapsed = now.saturating_duration_since(self.window_start);
        if elapsed >= self.interval {
            let rate = self.arrivals as f64 / elapsed.as_secs_f64();
            // The 5% margin keeps rate jitter at exactly-capacity from
            // flapping the signal (sim semantics).
            if rate > self.capacity_rps * 1.05 {
                congested = true;
            }
            self.arrivals = 0;
            self.window_start = now;
        }
        if congested
            && self
                .last_signal
                .is_none_or(|t| now.saturating_duration_since(t) >= self.interval)
        {
            let _ = self.tx.send(CreditMsg::Congestion { server: server_id });
            self.last_signal = Some(now);
        }
    }
}

/// A running in-process cluster.
pub struct RtCluster {
    config: RtClusterConfig,
    ring: Ring,
    cost: CostModel,
    servers: Vec<Arc<ServerShared>>,
    /// The global queue when `queue_mode == Global`, else `None`.
    global: Option<Arc<GlobalShared>>,
    /// Credits lane state when `credits` is configured, else `None`.
    credits: Option<CreditsHub>,
    credits_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// Sticky flag set when any worker or controller thread panics;
    /// clients poll it so a dead thread fails runs fast instead of
    /// hanging them.
    panicked: Arc<AtomicBool>,
    next_task_id: Arc<AtomicU64>,
    next_client_id: AtomicU64,
}

impl std::fmt::Debug for RtCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RtCluster")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl RtCluster {
    /// Starts the cluster: spawns `workers_per_server` worker threads
    /// per server, plus the credits controller thread when configured.
    ///
    /// # Panics
    /// Panics on a structurally invalid configuration.
    pub fn start(config: RtClusterConfig) -> RtCluster {
        assert!(config.num_servers > 0, "need at least one server");
        assert!(config.workers_per_server > 0, "need at least one worker");
        if let Some(q) = &config.queue {
            q.bound.validate().expect("invalid queue bound");
            if let Some(codel) = &q.codel {
                codel.validate().expect("invalid CoDel config");
            }
        }
        if let Some(t) = &config.timeout {
            assert!(t.timeout_ns > 0, "timeout must be positive");
        }
        assert!(
            config.speed_factors.len() <= config.num_servers as usize,
            "more speed factors than servers"
        );
        assert!(
            config
                .speed_factors
                .iter()
                .all(|f| f.is_finite() && *f > 0.0),
            "speed factors must be positive and finite"
        );
        if let Some(s) = &config.spike {
            assert!(
                (0.0..=1.0).contains(&s.p_spike) && s.extra_lo_ns <= s.extra_hi_ns,
                "invalid spike model"
            );
        }
        let ring = Ring::new(
            config.num_servers,
            config.num_partitions.unwrap_or(config.num_servers),
            config.replication,
        );
        let service = match config.work {
            WorkModel::SimulateService(m) => m,
            WorkModel::Instant => ServiceModel::calibrated_size_linear(
                1e9 / 3500.0,
                config.sizes.mean_bytes(),
                0.2,
                ServiceNoise::None,
            ),
        };
        let cost = CostModel::new(service, config.forecast);

        let mut servers = Vec::with_capacity(config.num_servers as usize);
        let mut workers = Vec::new();
        let panicked = Arc::new(AtomicBool::new(false));

        let global = match config.queue_mode {
            RtQueueMode::PerServer => None,
            RtQueueMode::Global => Some(Arc::new(GlobalShared {
                queue: Mutex::new(GlobalServerQueue {
                    gq: GlobalQueue::new(ring.num_groups()),
                    codel: config.queue.and_then(|q| q.codel).map(CoDel::new),
                }),
                available: Condvar::new(),
                queue_len: AtomicUsize::new(0),
                ring: ring.clone(),
                epoch: Instant::now(),
            })),
        };

        let (credits_hub, credits_thread) = match config.credits {
            Some(cfg) => {
                let (hub, handle) = credits::spawn_controller(
                    cfg,
                    config.num_servers as usize,
                    Arc::clone(&panicked),
                );
                (Some(hub), Some(handle))
            }
            None => (None, None),
        };

        for s in 0..config.num_servers {
            let shared = Arc::new(ServerShared::new(
                s,
                &config,
                credits_hub.as_ref().map(CongestionMonitor::new),
            ));
            let speed = config.speed_factors.get(s as usize).copied().unwrap_or(1.0);
            for w in 0..config.workers_per_server {
                let shared = Arc::clone(&shared);
                let global = global.clone();
                let work = config.work;
                let spike = config.spike;
                let panic_on_key = config.panic_on_key;
                let panicked = Arc::clone(&panicked);
                // Per-worker service-noise stream, seeded by position so
                // the draw sequences are reproducible run to run.
                let noise_seed = ((s as u64) << 32) | w as u64;
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("brb-worker-{s}-{w}"))
                        .spawn(move || {
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    worker_loop(
                                        &shared,
                                        global.as_deref(),
                                        work,
                                        noise_seed,
                                        speed,
                                        spike,
                                        panic_on_key,
                                    )
                                }));
                            if result.is_err() {
                                panicked.store(true, Ordering::SeqCst);
                                // Wake sibling workers parked on the
                                // condvar so a fully-dead server cannot
                                // strand them (lock bracket for the same
                                // lost-wakeup reason as shutdown).
                                wake_workers(&shared, global.as_deref());
                            }
                        })
                        .expect("spawn worker"),
                );
            }
            servers.push(shared);
        }

        RtCluster {
            config,
            ring,
            cost,
            servers,
            global,
            credits: credits_hub,
            credits_thread,
            workers,
            panicked,
            next_task_id: Arc::new(AtomicU64::new(0)),
            next_client_id: AtomicU64::new(0),
        }
    }

    /// Populates every replica with `num_keys` keys; the value of key `k`
    /// is a zero-filled buffer of `size_of(k)` bytes, stored on exactly
    /// the `R` servers that replicate `k`. All values are slices of one
    /// shared zeroed buffer, so the store's footprint does not grow with
    /// the total value bytes.
    pub fn populate<F: Fn(u64) -> u64>(&self, num_keys: u64, size_of: F) {
        let mut zeros = Bytes::new();
        for key in 0..num_keys {
            let size = size_of(key).max(1) as usize;
            if size > zeros.len() {
                zeros = Bytes::from(vec![0u8; size.next_power_of_two()]);
            }
            let value = zeros.slice(..size);
            for server in self.ring.replicas_of_key(key) {
                self.servers[server.index()].store.put(key, value.clone());
            }
        }
    }

    /// Populates with the configured size model (the paper's ETC sizes by
    /// default).
    pub fn populate_etc(&self, num_keys: u64) {
        let m = self.config.sizes;
        self.populate(num_keys, |k| m.size_of(k));
    }

    /// Creates a client handle sharing the cluster's task-id counter.
    /// Each client runs its own selector instance (the decentralized
    /// setting): the selector's random stream is seeded by the client's
    /// creation index, so clusters behave reproducibly run to run.
    pub fn client(&self) -> RtClient {
        let client_idx = self.next_client_id.fetch_add(1, Ordering::Relaxed);
        self.build_client(client_idx, client_idx)
    }

    /// [`Self::client`] with an explicit selector seed — the load
    /// generator passes the run seed through here so a random selector
    /// draws a different stream per seeded run (matching the
    /// simulator's per-run selector seeding), not the same stream for
    /// every run of a fresh cluster.
    pub fn client_seeded(&self, selector_seed: u64) -> RtClient {
        let client_idx = self.next_client_id.fetch_add(1, Ordering::Relaxed);
        self.build_client(client_idx, selector_seed)
    }

    fn build_client(&self, client_idx: u64, selector_seed: u64) -> RtClient {
        // With the credits lane on, every client runs the token-bucket
        // credits admission (identified to the controller by its
        // creation index); the configured selector only applies to the
        // direct-dispatch realizations.
        let selector: Box<dyn ReplicaSelector + Send> = match &self.credits {
            Some(hub) => Box::new(CreditSelector::new(
                ClientId::new(client_idx),
                hub,
                self.config.num_servers as usize,
                self.config.num_clients.max(1) as usize,
            )),
            None => self
                .config
                .selector
                .build(selector_seed, self.config.num_clients.max(1)),
        };
        RtClient::new(
            self.ring.clone(),
            self.cost,
            self.config.policy,
            self.config.sizes,
            self.servers.clone(),
            self.global.clone(),
            Arc::clone(&self.next_task_id),
            selector,
            self.config.network_rtt_ns,
            self.config.timeout,
            self.config.hedge_delay_ns,
            Arc::clone(&self.panicked),
        )
    }

    /// Requests served per server.
    pub fn served_per_server(&self) -> Vec<u64> {
        self.servers
            .iter()
            .map(|s| s.served.load(Ordering::Relaxed))
            .collect()
    }

    /// Requests tail-dropped or CoDel-dropped per server (overload lane).
    pub fn dropped_per_server(&self) -> Vec<u64> {
        self.servers
            .iter()
            .map(|s| s.dropped.load(Ordering::Relaxed))
            .collect()
    }

    /// Requests shed by admission control per server (overload lane).
    pub fn shed_per_server(&self) -> Vec<u64> {
        self.servers
            .iter()
            .map(|s| s.shed.load(Ordering::Relaxed))
            .collect()
    }

    /// Nanoseconds each server's workers have spent in service so far.
    pub fn busy_ns_per_server(&self) -> Vec<u64> {
        self.servers
            .iter()
            .map(|s| s.busy_ns.load(Ordering::Relaxed))
            .collect()
    }

    /// Demand reports the credits controller has received (0 when the
    /// credits lane is off).
    pub fn demand_reports(&self) -> u64 {
        self.credits
            .as_ref()
            .map_or(0, |h| h.demand_reports.load(Ordering::Relaxed))
    }

    /// Congestion signals the credits controller has received (0 when
    /// the credits lane is off).
    pub fn congestion_signals(&self) -> u64 {
        self.credits
            .as_ref()
            .map_or(0, |h| h.congestion_signals.load(Ordering::Relaxed))
    }

    /// Whether any worker or controller thread has panicked.
    pub fn panicked(&self) -> bool {
        self.panicked.load(Ordering::SeqCst)
    }

    /// The cluster's configuration.
    pub fn config(&self) -> &RtClusterConfig {
        &self.config
    }

    /// The cluster's ring (for tests and demos).
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// The size model used by `populate_etc` and client forecasts.
    pub fn size_model(&self) -> &SizeModel {
        &self.config.sizes
    }

    /// Stops all threads and joins them, reporting a panicked thread as
    /// a typed error instead of a harness panic. Workers drain their
    /// queues before they exit; enqueues after shutdown starts fail with
    /// [`RtError::ClusterDown`].
    pub fn shutdown_checked(mut self) -> Result<(), RtError> {
        if self.stop_and_join() {
            Err(RtError::WorkerPanicked)
        } else {
            Ok(())
        }
    }

    /// [`Self::shutdown_checked`], panicking on a panicked thread (test
    /// ergonomics).
    pub fn shutdown(self) {
        self.shutdown_checked().expect("worker panicked");
    }

    /// Stops the credits controller and every worker and joins them;
    /// returns whether any thread panicked. Idempotent: a second call
    /// finds nothing left to join.
    fn stop_and_join(&mut self) -> bool {
        if let Some(hub) = &self.credits {
            // A send error means the controller already exited.
            let _ = hub.tx.send(CreditMsg::Stop);
        }
        if let Some(h) = self.credits_thread.take() {
            // The catch_unwind wrapper makes join errors impossible in
            // practice; a failed join still counts as a panic.
            if h.join().is_err() {
                self.panicked.store(true, Ordering::SeqCst);
            }
        }
        // Raise every stop flag before waking anyone: global-mode
        // admission checks the target server's flag under the shared
        // lock, so all flags must be up before that lock is bracketed.
        for s in &self.servers {
            s.stop.store(true, Ordering::SeqCst);
        }
        for s in &self.servers {
            wake_workers(s, self.global.as_deref());
        }
        for w in self.workers.drain(..) {
            if w.join().is_err() {
                self.panicked.store(true, Ordering::SeqCst);
            }
        }
        self.panicked.load(Ordering::SeqCst)
    }
}

impl Drop for RtCluster {
    /// A cluster dropped without [`RtCluster::shutdown`] still stops and
    /// joins its threads: clients may outlive it, but its workers don't.
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Wakes every worker parked on `shared`'s queue (and on the global
/// queue in global mode) so it re-checks the stop flag. The queue lock
/// MUST be taken between the caller's store and the notify: a worker
/// that checked `stop` and is about to park holds it, so locking here
/// blocks until the worker is actually parked — otherwise the notify can
/// land in that window and be lost forever (lost-wakeup deadlock; the
/// stop flag is the one predicate not written under the mutex).
fn wake_workers(shared: &ServerShared, global: Option<&GlobalShared>) {
    drop(shared.queue.lock());
    shared.available.notify_all();
    if let Some(g) = global {
        drop(g.queue.lock());
        g.available.notify_all();
    }
}

/// Sends a typed drop/shed notice back to the request's owner. The
/// client may have given up (dropped receiver); ignore errors.
fn send_nack(server_id: u32, req: &RtRequest, reason: DropReason) {
    let _ = req.reply.send(RtReply::Nack(RtNack {
        key: req.key,
        req_idx: req.req_idx,
        task_id: req.task_id,
        attempt: req.attempt,
        server: server_id,
        reason,
    }));
}

fn worker_loop(
    shared: &ServerShared,
    global: Option<&GlobalShared>,
    work: WorkModel,
    noise_seed: u64,
    speed: f64,
    spike: Option<SpikeModel>,
    panic_on_key: Option<u64>,
) {
    let mut service_rng = StdRng::seed_from_u64(noise_seed);
    // CoDel rejects collected under the queue lock, NACKed after it
    // drops — the reply channel's own lock stays out of the queue's
    // critical section.
    let mut codel_rejects: Vec<RtRequest> = Vec::new();
    loop {
        let popped = match global {
            None => {
                let mut q = shared.queue.lock();
                loop {
                    if let Some((_, queued)) = q.pq.pop() {
                        shared.queue_len.fetch_sub(1, Ordering::Relaxed);
                        if let Some(codel) = q.codel.as_mut() {
                            let now = Instant::now();
                            let now_ns =
                                now.saturating_duration_since(shared.epoch).as_nanos() as u64;
                            let sojourn_ns =
                                now.saturating_duration_since(queued.enqueued).as_nanos() as u64;
                            if codel.on_dequeue(now_ns, sojourn_ns) {
                                codel_rejects.push(queued.req);
                                continue; // drop head-of-line, pop the next
                            }
                        }
                        break Some(queued.req);
                    }
                    if shared.stop.load(Ordering::SeqCst) {
                        break None;
                    }
                    shared.available.wait(&mut q);
                }
            }
            Some(g) => {
                // Work-pulling against the global queue: take the best
                // request this server's replica constraint allows.
                let me = ServerId::new(shared.id as u64);
                let mut q = g.queue.lock();
                loop {
                    if let Some((_, _, queued)) = q.gq.pull_for(me, &g.ring) {
                        g.queue_len.fetch_sub(1, Ordering::Relaxed);
                        if let Some(codel) = q.codel.as_mut() {
                            let now = Instant::now();
                            let now_ns = now.saturating_duration_since(g.epoch).as_nanos() as u64;
                            let sojourn_ns =
                                now.saturating_duration_since(queued.enqueued).as_nanos() as u64;
                            if codel.on_dequeue(now_ns, sojourn_ns) {
                                codel_rejects.push(queued.req);
                                continue;
                            }
                        }
                        break Some(queued.req);
                    }
                    if shared.stop.load(Ordering::SeqCst) {
                        break None;
                    }
                    g.available.wait(&mut q);
                }
            }
        };
        for rejected in codel_rejects.drain(..) {
            shared.dropped.fetch_add(1, Ordering::Relaxed);
            send_nack(shared.id, &rejected, DropReason::Sojourn);
        }
        let Some(req) = popped else {
            return;
        };
        if panic_on_key == Some(req.key) {
            panic!("injected worker fault on key {}", req.key);
        }
        let started = Instant::now();
        let value = shared.store.get(req.key);
        if let WorkModel::SimulateService(model) = work {
            let bytes = value.as_ref().map_or(0, |v| v.len() as u64);
            // Sample, not expected_ns: the simulator draws noisy service
            // times, and the live lane must face the same distribution.
            let mut ns = model.sample(bytes, &mut service_rng).as_nanos();
            // Degraded-node fault: service times divide by the speed
            // factor, the simulator's semantics exactly.
            if speed != 1.0 {
                ns = ((ns as f64) / speed).round() as u64;
            }
            // Transient spike fault: the extra delay occupies the worker
            // (see `SpikeModel` for why the live lane spikes service, not
            // the wire).
            if let Some(spike) = spike {
                if service_rng.random::<f64>() < spike.p_spike {
                    ns = ns.saturating_add(
                        service_rng.random_range(spike.extra_lo_ns..=spike.extra_hi_ns),
                    );
                }
            }
            timing::wait_for(std::time::Duration::from_nanos(ns));
        }
        let completed = Instant::now();
        let service_ns = (completed - started).as_nanos() as u64;
        let total_ns = completed
            .saturating_duration_since(req.submitted)
            .as_nanos() as u64;
        // Piggyback feedback from the atomic mirror — no second trip
        // through the queue mutex per request. Global mode piggybacks
        // the cluster-wide backlog (the only queue that exists there).
        let queue_len = match global {
            Some(g) => g.queue_len.load(Ordering::Relaxed),
            None => shared.queue_len.load(Ordering::Relaxed),
        };
        shared.served.fetch_add(1, Ordering::Relaxed);
        shared.busy_ns.fetch_add(service_ns, Ordering::Relaxed);
        // The client may have given up (dropped receiver); ignore errors.
        let _ = req.reply.send(RtReply::Served(RtResponse {
            key: req.key,
            req_idx: req.req_idx,
            task_id: req.task_id,
            attempt: req.attempt,
            value,
            server: shared.id,
            queue_len,
            service_ns,
            total_ns,
            completed,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cluster(policy: PolicyKind) -> RtCluster {
        RtCluster::start(RtClusterConfig {
            num_servers: 3,
            workers_per_server: 2,
            replication: 2,
            policy,
            work: WorkModel::Instant,
            store_shards: 8,
            ..Default::default()
        })
    }

    #[test]
    fn populate_places_replicas_on_ring() {
        let c = cluster(PolicyKind::Fifo);
        c.populate(300, |_| 8);
        for key in 0..300u64 {
            let replicas = c.ring.replicas_of_key(key);
            assert_eq!(replicas.len(), 2);
            for s in 0..3u64 {
                let has = c.servers[s as usize].store.contains(key);
                let should = replicas.contains(&brb_store::ids::ServerId::new(s));
                assert_eq!(has, should, "key {key} server {s}");
            }
        }
        c.shutdown();
    }

    #[test]
    fn serves_and_counts() {
        let c = cluster(PolicyKind::EqualMax);
        c.populate(100, |_| 16);
        let client = c.client();
        for _ in 0..50 {
            let resp = client.fetch(&[1, 2, 3, 4, 5]);
            assert_eq!(resp.values.len(), 5);
            assert!(resp.values.iter().all(|v| v.is_some()));
        }
        let served: u64 = c.served_per_server().iter().sum();
        assert_eq!(served, 250);
        c.shutdown();
    }

    #[test]
    fn missing_keys_return_none() {
        let c = cluster(PolicyKind::Fifo);
        c.populate(10, |_| 4);
        let client = c.client();
        let resp = client.fetch(&[99_999]);
        assert!(resp.values[0].is_none());
        c.shutdown();
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let c = cluster(PolicyKind::UnifIncr);
        c.populate(10, |_| 4);
        let client = c.client();
        let _ = client.fetch(&[0, 1]);
        c.shutdown(); // must not hang or panic
    }

    #[test]
    fn partition_count_is_honored() {
        // Default: one partition per server.
        let c = cluster(PolicyKind::Fifo);
        assert_eq!(c.ring().num_partitions(), 3);
        c.shutdown();
        // Explicit partition counts reshape the ring (the lab shim
        // passes the scenario's num_partitions through here).
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 2,
            num_partitions: Some(8),
            replication: 2,
            ..Default::default()
        });
        assert_eq!(c.ring().num_partitions(), 8);
        c.populate(100, |_| 8);
        let client = c.client();
        let resp = client.fetch(&[1, 2, 3]);
        assert!(resp.values.iter().all(|v| v.is_some()));
        c.shutdown();
    }

    #[test]
    fn busy_time_accumulates_under_simulated_service() {
        let service =
            ServiceModel::calibrated_size_linear(100_000.0, 64.0, 1.0, ServiceNoise::None);
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 2,
            workers_per_server: 1,
            replication: 1,
            work: WorkModel::SimulateService(service),
            store_shards: 4,
            ..Default::default()
        });
        c.populate(20, |_| 64);
        let client = c.client();
        for k in 0..20u64 {
            let _ = client.fetch(&[k]);
        }
        let busy: u64 = c.busy_ns_per_server().iter().sum();
        // 20 requests at ~100µs each.
        assert!(busy >= 20 * 90_000, "busy {busy}ns");
        c.shutdown();
    }

    #[test]
    fn concurrent_clients_share_the_cluster() {
        let c = Arc::new(cluster(PolicyKind::UnifIncr));
        c.populate(1_000, |k| (k % 100) + 1);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                let client = c.client();
                for i in 0..100u64 {
                    let keys: Vec<u64> = (0..5).map(|j| (t * 211 + i * 7 + j) % 1_000).collect();
                    let resp = client.fetch(&keys);
                    assert_eq!(resp.values.len(), 5);
                    assert!(resp.values.iter().all(|v| v.is_some()));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let served: u64 = c.served_per_server().iter().sum();
        assert_eq!(served, 4 * 100 * 5);
        match Arc::try_unwrap(c) {
            Ok(cluster) => cluster.shutdown(),
            Err(_) => panic!("sole owner"),
        }
    }

    /// A degraded server (speed factor 0.25) must take ~4× the nominal
    /// service time — the live lowering of the degraded-node fault.
    #[test]
    fn speed_factor_slows_service() {
        let service =
            ServiceModel::calibrated_size_linear(200_000.0, 64.0, 1.0, ServiceNoise::None);
        let mut busy = Vec::new();
        for factors in [vec![], vec![0.25]] {
            let c = RtCluster::start(RtClusterConfig {
                num_servers: 1,
                workers_per_server: 1,
                replication: 1,
                work: WorkModel::SimulateService(service),
                store_shards: 4,
                speed_factors: factors,
                ..Default::default()
            });
            c.populate(10, |_| 64);
            let client = c.client();
            for k in 0..10u64 {
                let _ = client.fetch(&[k]);
            }
            busy.push(c.busy_ns_per_server()[0]);
            c.shutdown();
        }
        assert!(
            busy[1] as f64 >= busy[0] as f64 * 2.5,
            "degraded server not slower: nominal {}ns vs degraded {}ns",
            busy[0],
            busy[1]
        );
    }

    /// The model realization: one global work-pull queue. Every request
    /// must still land on a replica of its key and be served exactly
    /// once.
    #[test]
    fn global_queue_mode_serves_with_replica_constraint() {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 3,
            workers_per_server: 2,
            replication: 2,
            policy: PolicyKind::EqualMax,
            selector: SelectorSpec::RoundRobin,
            queue_mode: RtQueueMode::Global,
            work: WorkModel::Instant,
            store_shards: 8,
            ..Default::default()
        });
        c.populate(300, |k| (k % 64) + 1);
        let client = c.client();
        for i in 0..60u64 {
            let keys: Vec<u64> = (0..5).map(|j| (i * 5 + j) % 300).collect();
            let resp = client.fetch(&keys);
            assert!(resp.values.iter().all(|v| v.is_some()));
        }
        let served: u64 = c.served_per_server().iter().sum();
        assert_eq!(served, 300);
        c.shutdown();
    }

    /// The credits lane end to end: clients run the token-bucket
    /// admission, demand reports reach the controller thread, and the
    /// run completes without starving (grants adapt upward from the
    /// fair-share seed).
    #[test]
    fn credits_cluster_serves_and_reports_demand() {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 3,
            workers_per_server: 2,
            replication: 2,
            policy: PolicyKind::EqualMax,
            work: WorkModel::Instant,
            store_shards: 8,
            num_clients: 2,
            credits: Some(RtCreditsConfig {
                config: brb_sched::CreditsConfig {
                    measurement_interval_ns: 2_000_000, // 2 ms
                    adaptation_interval_ns: 10_000_000, // 10 ms
                    ..Default::default()
                },
                server_capacity_rps: 50_000.0,
                congestion_queue_threshold: 96,
            }),
            ..Default::default()
        });
        c.populate(200, |_| 16);
        let client = c.client();
        let t0 = Instant::now();
        while t0.elapsed() < std::time::Duration::from_millis(40) {
            let resp = client.fetch(&[1, 2, 3, 4, 5]);
            assert!(resp.values.iter().all(|v| v.is_some()));
        }
        assert!(
            c.demand_reports() >= 1,
            "no demand report reached the controller"
        );
        c.shutdown();
    }

    /// A cancel for a queued request must remove exactly that attempt
    /// and fix the length mirror; a cancel that matches nothing (wrong
    /// attempt) must be a no-op. The server has no workers, so the queue
    /// holds exactly what the direct enqueues put there.
    #[test]
    fn cancel_dequeues_matching_attempt_only() {
        let shared = ServerShared::new(0, &RtClusterConfig::default(), None);
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        let req = |req_idx: u32, attempt: u32| RtRequest {
            key: 1,
            priority: brb_sched::Priority(1),
            req_idx,
            task_id: 7,
            attempt,
            submitted: Instant::now(),
            reply: reply_tx.clone(),
        };
        shared.enqueue(None, req(0, 0)).unwrap();
        shared.enqueue(None, req(1, 0)).unwrap();
        assert_eq!(shared.queue_len.load(Ordering::Relaxed), 2);
        // Wrong attempt: must remove nothing.
        shared.cancel(7, 0, 9);
        assert_eq!(shared.queue_len.load(Ordering::Relaxed), 2);
        // Exact match: removes req_idx 0.
        shared.cancel(7, 0, 0);
        assert_eq!(shared.queue_len.load(Ordering::Relaxed), 1);
        {
            let q = shared.queue.lock();
            assert_eq!(q.pq.len(), 1);
            assert_eq!(q.pq.peek_item().unwrap().req.req_idx, 1);
        }
        // No reply was ever sent for the cancelled request.
        drop(reply_tx);
        assert!(reply_rx.try_recv().is_err());
    }

    /// Once shutdown has raised the stop flag, an enqueue is refused
    /// with `ClusterDown` instead of stranding the request in a queue no
    /// worker will pop — both at the server and through a client that
    /// outlived its cluster.
    #[test]
    fn enqueue_after_shutdown_is_cluster_down() {
        let c = cluster(PolicyKind::Fifo);
        c.populate(10, |_| 4);
        let server = Arc::clone(&c.servers[0]);
        let client = c.client();
        c.shutdown();
        let (reply_tx, reply_rx) = crossbeam::channel::unbounded();
        let refused = server.enqueue(
            None,
            RtRequest {
                key: 1,
                priority: brb_sched::Priority(1),
                req_idx: 0,
                task_id: 0,
                attempt: 0,
                submitted: Instant::now(),
                reply: reply_tx,
            },
        );
        assert_eq!(refused, Err(RtError::ClusterDown));
        assert_eq!(server.queue_len.load(Ordering::Relaxed), 0);
        // The refused request was dropped, not queued: its reply channel
        // is disconnected.
        assert!(reply_rx.recv().is_err());
        let outcome = client.fetch_async(&[1, 2]).wait_outcome();
        assert_eq!(outcome.err(), Some(RtError::ClusterDown));
    }

    /// Several client threads enqueue into one bounded server at once
    /// (a barrier lines them up) while its workers drain it: every
    /// request is served or NACKed exactly once, so the server's
    /// counters and the clients' resolutions both conserve.
    #[test]
    fn concurrent_enqueues_resolve_exactly_once() {
        const THREADS: u64 = 4;
        const TASKS: u64 = 200;
        let c = Arc::new(RtCluster::start(RtClusterConfig {
            num_servers: 1,
            workers_per_server: 2,
            replication: 1,
            work: WorkModel::Instant,
            store_shards: 4,
            queue: Some(RtQueueConfig {
                bound: QueueBound {
                    capacity: 4,
                    shed_above: None,
                },
                codel: None,
            }),
            ..Default::default()
        }));
        c.populate(64, |_| 8);
        let barrier = Arc::new(std::sync::Barrier::new(THREADS as usize));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let c = Arc::clone(&c);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let client = c.client();
                    barrier.wait();
                    let tickets: Vec<_> = (0..TASKS)
                        .map(|i| client.fetch_async(&[(t * TASKS + i) % 64]))
                        .collect();
                    let mut completed = 0u64;
                    for ticket in tickets {
                        match ticket.wait_outcome().expect("live run failed").outcome {
                            crate::TaskOutcome::Completed(resp) => {
                                assert!(resp.values[0].is_some());
                                completed += 1;
                            }
                            crate::TaskOutcome::Failed { failure } => {
                                assert_eq!(failure, crate::TaskFailureKind::Dropped)
                            }
                        }
                    }
                    completed
                })
            })
            .collect();
        let completed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        let served: u64 = c.served_per_server().iter().sum();
        let dropped: u64 = c.dropped_per_server().iter().sum();
        assert_eq!(
            served, completed,
            "a served request resolved twice or not at all"
        );
        assert_eq!(
            served + dropped,
            THREADS * TASKS,
            "a request was lost or doubled"
        );
        assert_eq!(c.servers[0].queue_len.load(Ordering::Relaxed), 0);
        match Arc::try_unwrap(c) {
            Ok(cluster) => cluster.shutdown(),
            Err(_) => panic!("sole owner"),
        }
    }

    /// A panicking worker must trip the cluster's sticky panic flag and
    /// surface from `shutdown_checked` as a typed error — never a
    /// harness panic, never a hang.
    #[test]
    fn injected_worker_panic_is_reported_typed() {
        let c = RtCluster::start(RtClusterConfig {
            num_servers: 1,
            workers_per_server: 2,
            replication: 1,
            work: WorkModel::Instant,
            store_shards: 4,
            panic_on_key: Some(3),
            ..Default::default()
        });
        c.populate(10, |_| 8);
        let client = c.client();
        // Benign traffic first, then the poisoned key; the sibling
        // worker keeps the server alive for the benign requests.
        let _ = client.fetch(&[1, 2]);
        let ticket = client.fetch_async(&[3]);
        // The poisoned request never gets a reply; the flag goes up.
        let t0 = Instant::now();
        while !c.panicked() && t0.elapsed() < std::time::Duration::from_secs(5) {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(c.panicked(), "worker panic not observed");
        drop(ticket);
        assert_eq!(c.shutdown_checked(), Err(RtError::WorkerPanicked));
    }
}
