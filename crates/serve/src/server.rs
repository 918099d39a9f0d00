//! The serving daemon: a readiness-polled event loop (epoll on Linux,
//! `poll(2)` elsewhere on unix) front-ending a bounded request queue
//! drained by batcher threads, with multi-model tenancy and
//! zero-downtime hot reload.
//!
//! # Threads — a fixed count, independent of connection count
//!
//! ```text
//!                    ┌───────────────────────────────────────────┐
//! clients ══ TCP ══► │ event loop (1 thread, epoll/poll)         │
//!                    │  accept · per-conn read/write state       │
//!                    │  machines · frame assembly · admission    │
//!                    └──────┬───────────────────────────▲────────┘
//!                 try_push  │                           │ completions + waker
//!                           ▼                           │
//!                    BoundedQueue ──pop/drain_matching──► batcher × W
//!                                                        (cached execs per
//!                                                         model × generation)
//! ```
//!
//! * The **event loop** owns every socket. Each connection is a small
//!   state machine: a [`FrameAssembler`] buffers partial frames (a
//!   slow-loris sender occupies one slot and some buffer, never a
//!   thread), a write buffer absorbs replies and drains on writability
//!   (a slow *reader* pauses its own admission once the buffer passes a
//!   cap — per-connection backpressure, no global stall). Thousands of
//!   idle probe connections cost one registration each.
//! * **Admission** is unchanged in spirit from the thread-per-connection
//!   daemon: non-blocking `try_push`, `Full` → `BUSY`, closed →
//!   `DRAINING`. Load is shed at admission or not at all.
//! * Each **batcher** pops a job, resolves the job's model in the
//!   `ModelRegistry`, lingers briefly and tops the
//!   batch up with *same-model* jobs (`drain_matching`), then replays a
//!   cached executor for that model's current plan generation over
//!   exactly the lanes the batch occupies — a lone request costs one
//!   lane of compute, not a padded batch. Replies are stamped
//!   `(model, generation)`; per-sample kernels keep them bit-identical
//!   to offline inference under that exact plan.
//! * **Hot reload** (`RELOAD` frame or `SIGHUP`) re-plans a checkpoint
//!   on a throwaway thread and atomically swaps the slot's
//!   `Arc<InferPlan>`, bumping its generation. In-flight batches finish
//!   on the `Arc` they already cloned — no pause, no torn plan.
//!
//! Shutdown (SHUTDOWN frame, [`ServerHandle::request_shutdown`], or a
//! signal forwarded by the binary) closes the queue: nothing new is
//! admitted, batchers drain every already-admitted job to a terminal
//! reply, the event loop flushes every reply buffer, and
//! [`ServerHandle::join`] returns once all threads are done.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mtsr_telemetry::WindowedHist;
use zipnet_core::{AdaptPair, FusePolicy, InferExec, InferPlan};

use crate::drift::{holdout_nrmse, TruthOutcome};
use crate::poller::{raw_fd, wake_pair, PollEvent, Poller, Token, WakeReceiver, Waker};
use crate::protocol::{
    write_response, Assembled, FrameAssembler, FrameFatal, InferRequest, InferResponse, Opcode,
    ReloadRequest, Request, RespStatus, Response, ServerInfo, TruthAck, TruthRequest,
};
use crate::queue::{BoundedQueue, Pop, PushError};
use crate::registry::{ModelRegistry, ModelSpec, Planner};

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address, e.g. `"127.0.0.1:7878"`; port 0 picks a free port.
    pub addr: String,
    /// Bounded queue capacity; requests beyond it are answered `BUSY`.
    pub queue_cap: usize,
    /// Number of batcher threads (executor replicas per hot model).
    pub workers: usize,
    /// Default per-request deadline when the client sends `deadline_ms=0`.
    pub deadline: Duration,
    /// How long after its first job was admitted a batch departs, so
    /// that more can coalesce; time the job already spent queued counts.
    /// Zero disables coalescing waits (first-come batches only).
    pub linger: Duration,
    /// Event-loop wait granularity and batcher pop interval. Also the
    /// worst-case completion latency if a wake datagram is dropped.
    pub poll: Duration,
    /// Maximum simultaneously open connections; excess accepts are
    /// closed immediately (counted as `conns_rejected`).
    pub max_conns: usize,
    /// Online-adaptation parameters; `None` (the default) disables the
    /// drift monitor and `TRUTH` frames are refused.
    pub adapt: Option<AdaptConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            queue_cap: 64,
            workers: 2,
            deadline: Duration::from_secs(2),
            linger: Duration::from_millis(2),
            poll: Duration::from_millis(10),
            max_conns: 4096,
            adapt: None,
        }
    }
}

/// Drift-monitor and fine-tune trigger parameters (per daemon, applied
/// to every registered model).
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// Rolling-NRMSE level above which a fine-tune is triggered.
    pub threshold: f32,
    /// Matched pairs in the rolling gauge; the trigger needs a full
    /// window of evidence.
    pub window: usize,
    /// Minimum buffered pairs for the fine-tune corpus (beyond the
    /// holdout) before a trigger can fire.
    pub min_pairs: usize,
    /// Newest matched pairs held out as the promotion gate's
    /// evaluation slice.
    pub holdout: usize,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            threshold: 0.5,
            window: 32,
            min_pairs: 32,
            holdout: 8,
        }
    }
}

/// What a [`Tuner`] hands back: a freshly planned candidate and the
/// checkpoint source it was written to (recorded in the registry on
/// promotion so later reloads and adaptations resume from it).
pub struct TunedModel {
    /// The candidate plan (same geometry as the live slot).
    pub plan: Arc<InferPlan>,
    /// Source string for the registry (a path for the CLI tuner).
    pub source: String,
}

/// Fine-tunes a model from buffered `(input, truth)` pairs — how the
/// daemon turns a drift trigger into a candidate plan. Invoked on a
/// background adaptation thread, never on the event loop or a batcher.
/// Arguments are the model id, its recorded checkpoint source, and the
/// fine-tune corpus.
pub type Tuner = Arc<dyn Fn(u32, &str, &[AdaptPair]) -> io::Result<TunedModel> + Send + Sync>;

/// One admitted inference job, routed by model id.
struct Job {
    /// Connection id (not slot) the reply goes back to.
    conn: u64,
    id: u64,
    model: u32,
    data: Vec<f32>,
    enqueued: Instant,
    deadline: Instant,
}

/// A reply produced off the event loop, waiting to be written into its
/// connection's buffer. `conn == NO_CONN` discards the reply (used by
/// signal-triggered reloads that have no requesting client).
struct Completion {
    conn: u64,
    resp: Response,
}

const NO_CONN: u64 = u64::MAX;

/// Pause reading a connection once its un-flushed reply backlog passes
/// this; resumes when the peer drains it. Per-connection backpressure.
const WRITE_PAUSE: usize = 1 << 20;

/// After a drain has answered everything, how long the event loop keeps
/// polling to flush reply buffers toward peers that stopped reading.
const DRAIN_FLUSH_GRACE: Duration = Duration::from_secs(2);

/// Monotonic counters for the STATUS report. `in_flight` is derived as
/// `admitted - finished`, so it is exact: every admitted job is finished
/// by exactly one terminal reply (OK, TIMEOUT or ERR).
#[derive(Default)]
struct Stats {
    admitted: AtomicU64,
    finished: AtomicU64,
    served: AtomicU64,
    busy: AtomicU64,
    timeouts: AtomicU64,
    errors: AtomicU64,
    /// Executor runs, and the lanes they carried: realised batch
    /// occupancy is `exec_lanes / exec_batches`. Every lane ends as one
    /// `served` reply, or one ERR reply when its run failed.
    exec_batches: AtomicU64,
    exec_lanes: AtomicU64,
    conns_accepted: AtomicU64,
    conns_closed: AtomicU64,
    conns_rejected: AtomicU64,
    protocol_errors: AtomicU64,
    reloads_ok: AtomicU64,
    reloads_failed: AtomicU64,
}

struct Shared {
    shutdown: AtomicBool,
    queue: BoundedQueue<Job>,
    stats: Stats,
    registry: ModelRegistry,
    planner: Option<Planner>,
    /// Drift/adaptation parameters; `None` disables `TRUTH` handling.
    adapt: Option<AdaptConfig>,
    /// Fine-tune driver; without it drift is monitored but never acted on.
    tuner: Option<Tuner>,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    /// Reload and adaptation worker threads, joined by
    /// [`ServerHandle::join`].
    reloaders: Mutex<Vec<JoinHandle<()>>>,
    pending_reloads: AtomicU64,
    /// Server-local latency histogram for STATUS percentiles (all
    /// models), with a windowed shadow reset by every STATUS read.
    /// Kept apart from the process-global telemetry registry
    /// (which tests may reset concurrently); mirrored into the registry
    /// when telemetry is on.
    latency: Mutex<WindowedHist>,
    queue_cap: u32,
    deadline_ms: u32,
    started: Instant,
    poll: Duration,
    linger: Duration,
}

/// Derives the in-flight count from the two monotonic counters.
/// `finished > admitted` cannot happen in a correct server — every
/// `finished` increment is preceded by exactly one `admitted` increment
/// for the same job — so it is asserted in debug builds rather than
/// silently clamped (release builds still clamp so a corrupted STATUS
/// counter cannot wrap to ~2⁶⁴).
fn in_flight_from(admitted: u64, finished: u64) -> u64 {
    debug_assert!(
        finished <= admitted,
        "in_flight underflow: finished {finished} > admitted {admitted}"
    );
    admitted.saturating_sub(finished)
}

impl Shared {
    fn in_flight(&self) -> u64 {
        in_flight_from(
            self.stats.admitted.load(Ordering::SeqCst),
            self.stats.finished.load(Ordering::SeqCst),
        )
    }

    /// Queues a reply for delivery by the event loop and nudges it.
    fn complete(&self, conn: u64, resp: Response) {
        self.completions
            .lock()
            .expect("completions poisoned")
            .push(Completion { conn, resp });
        self.waker.wake();
    }

    /// Terminal reply for an *admitted* job: bumps the terminal counter
    /// then `finished`, so `in_flight` stays exact even if the client is
    /// already gone.
    fn finish(&self, conn: u64, resp: Response, terminal: &AtomicU64) {
        terminal.fetch_add(1, Ordering::SeqCst);
        self.stats.finished.fetch_add(1, Ordering::SeqCst);
        self.complete(conn, resp);
    }

    /// The geometry report for one registered model.
    fn info_for(&self, model: u32) -> Option<ServerInfo> {
        let (generation, plan) = self.registry.current(model)?;
        let fuse = match plan.fuse_policy() {
            FusePolicy::Exact => 0,
            FusePolicy::Folded => 1,
            FusePolicy::Quantized => 2,
        };
        let (ind, outd) = (plan.input_dims(), plan.output_dims());
        Some(ServerInfo {
            model,
            generation,
            model_count: self.registry.len() as u32,
            s: ind[2] as u32,
            h: ind[3] as u32,
            w: ind[4] as u32,
            out_h: outd[2] as u32,
            out_w: outd[3] as u32,
            batch: ind[0] as u32,
            queue_cap: self.queue_cap,
            deadline_ms: self.deadline_ms,
            fuse,
        })
    }

    fn status_text(&self) -> String {
        // Cumulative percentiles describe the whole lifetime; the
        // windowed pair covers exactly the interval since the previous
        // STATUS read (consecutive reads partition the stream).
        let (lat, lat_w) = {
            let mut g = self.latency.lock().expect("latency mutex poisoned");
            (g.cumulative().clone(), g.take_window())
        };
        let s = &self.stats;
        let accepted = s.conns_accepted.load(Ordering::SeqCst);
        let closed = s.conns_closed.load(Ordering::SeqCst);
        let mut text = format!(
            "mtsr-serve status\n\
             uptime_ms: {}\n\
             draining: {}\n\
             queue_depth: {}\n\
             in_flight: {}\n\
             admitted: {}\n\
             served: {}\n\
             busy: {}\n\
             timeouts: {}\n\
             errors: {}\n\
             exec_batches: {}\n\
             exec_lanes: {}\n\
             conns_open: {}\n\
             conns_accepted: {}\n\
             conns_closed: {}\n\
             conns_rejected: {}\n\
             protocol_errors: {}\n\
             reloads_ok: {}\n\
             reloads_failed: {}\n\
             latency_count: {}\n\
             latency_mean_ns: {}\n\
             latency_p50_ns: {}\n\
             latency_p90_ns: {}\n\
             latency_p99_ns: {}\n\
             latency_max_ns: {}\n\
             latency_w_count: {}\n\
             latency_w_mean_ns: {}\n\
             latency_w_p50_ns: {}\n\
             latency_w_p90_ns: {}\n\
             latency_w_p99_ns: {}\n\
             latency_w_max_ns: {}\n\
             models: {}\n",
            self.started.elapsed().as_millis(),
            self.shutdown.load(Ordering::SeqCst),
            self.queue.depth(),
            self.in_flight(),
            s.admitted.load(Ordering::SeqCst),
            s.served.load(Ordering::SeqCst),
            s.busy.load(Ordering::SeqCst),
            s.timeouts.load(Ordering::SeqCst),
            s.errors.load(Ordering::SeqCst),
            s.exec_batches.load(Ordering::SeqCst),
            s.exec_lanes.load(Ordering::SeqCst),
            accepted.saturating_sub(closed),
            accepted,
            closed,
            s.conns_rejected.load(Ordering::SeqCst),
            s.protocol_errors.load(Ordering::SeqCst),
            s.reloads_ok.load(Ordering::SeqCst),
            s.reloads_failed.load(Ordering::SeqCst),
            lat.count,
            lat.mean() as u64,
            lat.percentile(50.0),
            lat.percentile(90.0),
            lat.percentile(99.0),
            if lat.count == 0 { 0 } else { lat.max },
            lat_w.count,
            lat_w.mean() as u64,
            lat_w.percentile(50.0),
            lat_w.percentile(90.0),
            lat_w.percentile(99.0),
            if lat_w.count == 0 { 0 } else { lat_w.max },
            self.registry.len(),
        );
        for (id, entry) in self.registry.entries().iter().enumerate() {
            let (generation, plan) = self.registry.current(id as u32).expect("entry exists");
            let mst = &entry.stats;
            let (mlat, mlat_w) = {
                let mut g = mst.latency.lock().expect("model latency poisoned");
                (g.cumulative().clone(), g.take_window())
            };
            let (drift, drift_n, pairs) = {
                let mon = entry.drift.lock().expect("drift monitor poisoned");
                (mon.rolling(), mon.samples(), mon.pairs_len())
            };
            text.push_str(&format!(
                "model[{id}]: name={} fuse={} generation={generation} served={} errors={} \
                 timeouts={} reloads={} p50_ns={} p90_ns={} p99_ns={} w_p50_ns={} w_p90_ns={} \
                 w_p99_ns={} drift={drift:.4} drift_n={drift_n} pairs={pairs} truth_ok={} \
                 truth_miss={} adapting={} drift_triggers={} promotions_ok={} \
                 promotions_rejected={} exec_batches={} exec_lanes={}\n",
                entry.name,
                plan.fuse_policy().name(),
                mst.served.load(Ordering::SeqCst),
                mst.errors.load(Ordering::SeqCst),
                mst.timeouts.load(Ordering::SeqCst),
                mst.reloads.load(Ordering::SeqCst),
                mlat.percentile(50.0),
                mlat.percentile(90.0),
                mlat.percentile(99.0),
                mlat_w.percentile(50.0),
                mlat_w.percentile(90.0),
                mlat_w.percentile(99.0),
                mst.truth_matched.load(Ordering::SeqCst),
                mst.truth_unmatched.load(Ordering::SeqCst),
                mst.adapting.load(Ordering::SeqCst),
                mst.drift_triggers.load(Ordering::SeqCst),
                mst.promotions_ok.load(Ordering::SeqCst),
                mst.promotions_rejected.load(Ordering::SeqCst),
                mst.exec_batches.load(Ordering::SeqCst),
                mst.exec_lanes.load(Ordering::SeqCst),
            ));
        }
        text
    }

    fn begin_drain(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
        self.waker.wake();
    }

    /// Spawns a background re-plan of `model` from `source`, swapping
    /// the slot on success. The reply (new generation, or ERR) goes to
    /// `conn`/`id` — or nowhere for signal-triggered reloads.
    fn spawn_reload(self: &Arc<Self>, model: u32, source: String, conn: u64, id: u64) {
        let shared = Arc::clone(self);
        self.pending_reloads.fetch_add(1, Ordering::SeqCst);
        let handle = std::thread::Builder::new()
            .name(format!("mtsr-serve-reload{model}"))
            .spawn(move || {
                let planner = shared.planner.as_ref().expect("reload requires planner");
                let resp = match planner(model, &source)
                    .and_then(|plan| shared.registry.swap(model, plan, Some(source)))
                {
                    Ok(generation) => {
                        shared.stats.reloads_ok.fetch_add(1, Ordering::SeqCst);
                        mtsr_telemetry::add_counter("serve.reloads", 1);
                        Response {
                            status: RespStatus::Ok,
                            id,
                            payload: generation.to_le_bytes().to_vec(),
                        }
                    }
                    Err(e) => {
                        shared.stats.reloads_failed.fetch_add(1, Ordering::SeqCst);
                        Response::error(id, format!("reload failed: {e}"))
                    }
                };
                shared.complete(conn, resp);
                shared.pending_reloads.fetch_sub(1, Ordering::SeqCst);
            })
            .expect("spawn reload thread");
        self.reloaders
            .lock()
            .expect("reloaders poisoned")
            .push(handle);
    }

    /// Spawns the background fine-tune → gate → promote sequence for
    /// `model`. Caller has already set the model's `adapting` flag (the
    /// single-flight guard) and bumped `drift_triggers`. The thread is
    /// tracked like a reload worker: a graceful drain waits for it, and
    /// `join` reaps it. The live model keeps serving throughout; a
    /// failed or rejected candidate changes nothing but counters.
    fn spawn_adapt(self: &Arc<Self>, model: u32) {
        let shared = Arc::clone(self);
        self.pending_reloads.fetch_add(1, Ordering::SeqCst);
        let handle = std::thread::Builder::new()
            .name(format!("mtsr-serve-adapt{model}"))
            .spawn(move || {
                let entry = shared.registry.entry(model).expect("model exists");
                let source = entry.source.lock().expect("model source poisoned").clone();
                let (train, held) = entry
                    .drift
                    .lock()
                    .expect("drift monitor poisoned")
                    .take_pairs();
                let tuner = shared.tuner.as_ref().expect("adapt requires tuner");
                let promoted = (|| -> io::Result<u32> {
                    let tuned = tuner(model, &source, &train)?;
                    let (_, live_plan) = shared
                        .registry
                        .current(model)
                        .ok_or_else(|| io::Error::other("model vanished"))?;
                    // The acceptance gate: the candidate must beat the
                    // live plan on the held-out newest pairs, else the
                    // fine-tune is discarded wholesale.
                    let live_score = holdout_nrmse(&live_plan, &held)?;
                    let cand_score = holdout_nrmse(&tuned.plan, &held)?;
                    if cand_score >= live_score {
                        return Err(io::Error::other(format!(
                            "candidate holdout NRMSE {cand_score:.4} does not beat live \
                             {live_score:.4}"
                        )));
                    }
                    shared.registry.swap(model, tuned.plan, Some(tuned.source))
                })();
                match promoted {
                    Ok(_generation) => {
                        shared.stats.reloads_ok.fetch_add(1, Ordering::SeqCst);
                        entry.stats.promotions_ok.fetch_add(1, Ordering::SeqCst);
                        // The gauge and pairs scored the *old* weights;
                        // start clean for the promoted generation.
                        entry.drift.lock().expect("drift monitor poisoned").reset();
                        mtsr_telemetry::add_counter("serve.promotions", 1);
                    }
                    Err(_e) => {
                        entry
                            .stats
                            .promotions_rejected
                            .fetch_add(1, Ordering::SeqCst);
                        // Rejection cooldown: demand a fresh full window
                        // of bad scores before the next attempt.
                        entry
                            .drift
                            .lock()
                            .expect("drift monitor poisoned")
                            .reset_gauge();
                        mtsr_telemetry::add_counter("serve.promotions_rejected", 1);
                    }
                }
                entry.stats.adapting.store(false, Ordering::SeqCst);
                shared.pending_reloads.fetch_sub(1, Ordering::SeqCst);
                shared.waker.wake();
            })
            .expect("spawn adapt thread");
        self.reloaders
            .lock()
            .expect("reloaders poisoned")
            .push(handle);
    }
}

/// Handle to a running [`Server`]; dropping it does **not** stop the
/// daemon — call [`request_shutdown`](Self::request_shutdown) then
/// [`join`](Self::join).
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    event: Option<JoinHandle<()>>,
    batchers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Triggers a graceful drain: stop admitting, answer everything
    /// already admitted, then let every thread exit.
    pub fn request_shutdown(&self) {
        self.shared.begin_drain();
    }

    /// True once a drain has been requested (by any path).
    pub fn draining(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Requests admitted and not yet answered.
    pub fn in_flight(&self) -> u64 {
        self.shared.in_flight()
    }

    /// Atomically swaps a freshly built plan into a model slot without
    /// going over the wire — the programmatic face of hot reload.
    /// Returns the new plan generation.
    pub fn swap_model(
        &self,
        model: u32,
        plan: Arc<InferPlan>,
        source: Option<String>,
    ) -> io::Result<u32> {
        self.shared.registry.swap(model, plan, source)
    }

    /// The current plan generation of a registered model.
    pub fn model_generation(&self, model: u32) -> Option<u32> {
        self.shared.registry.current(model).map(|(g, _)| g)
    }

    /// Blocks until the event loop, every batcher and every reload
    /// worker have exited. Call after
    /// [`request_shutdown`](Self::request_shutdown) (or after a client
    /// sent SHUTDOWN).
    pub fn join(mut self) {
        if let Some(h) = self.event.take() {
            let _ = h.join();
        }
        for h in self.batchers.drain(..) {
            let _ = h.join();
        }
        loop {
            let drained: Vec<_> = {
                let mut g = self.shared.reloaders.lock().expect("reloaders poisoned");
                g.drain(..).collect()
            };
            if drained.is_empty() {
                break;
            }
            for h in drained {
                let _ = h.join();
            }
        }
    }
}

/// The daemon constructor; see the module docs for the architecture.
pub struct Server;

impl Server {
    /// Binds `cfg.addr` and starts serving the registered `models`
    /// (each a generator inference plan from
    /// [`zipnet_core::plan_zipnet`], shape `[batch, 1, S, cw, cw]` →
    /// `[batch, 1, fh, fw]`). `planner` enables over-the-wire `RELOAD`
    /// and `SIGHUP` reloads; without it only
    /// [`ServerHandle::swap_model`] can swap plans. Returns once the
    /// listener is live.
    pub fn start(
        cfg: &ServeConfig,
        models: Vec<ModelSpec>,
        planner: Option<Planner>,
    ) -> io::Result<ServerHandle> {
        Server::start_adaptive(cfg, models, planner, None)
    }

    /// [`Server::start`] plus online adaptation: when `cfg.adapt` is set
    /// the daemon pairs `TRUTH` frames with served predictions, tracks a
    /// rolling drift gauge per model, and — when the gauge trips and a
    /// `tuner` is present — fine-tunes in the background and
    /// hot-promotes the candidate through the acceptance gate.
    pub fn start_adaptive(
        cfg: &ServeConfig,
        models: Vec<ModelSpec>,
        planner: Option<Planner>,
        tuner: Option<Tuner>,
    ) -> io::Result<ServerHandle> {
        if cfg.workers == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "serve needs at least one worker",
            ));
        }
        let registry = ModelRegistry::new(models)?;
        if let Some(ac) = &cfg.adapt {
            if ac.threshold <= 0.0 || !ac.threshold.is_finite() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "adapt threshold must be a positive finite NRMSE",
                ));
            }
            for entry in registry.entries() {
                entry
                    .drift
                    .lock()
                    .expect("drift monitor poisoned")
                    .configure(ac.window, ac.min_pairs, ac.holdout);
            }
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        let (waker, wake_rx) = wake_pair()?;

        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            queue: BoundedQueue::new(cfg.queue_cap),
            stats: Stats::default(),
            registry,
            planner,
            adapt: cfg.adapt.clone(),
            tuner,
            completions: Mutex::new(Vec::new()),
            waker,
            reloaders: Mutex::new(Vec::new()),
            pending_reloads: AtomicU64::new(0),
            latency: Mutex::new(WindowedHist::new()),
            queue_cap: cfg.queue_cap as u32,
            deadline_ms: cfg.deadline.as_millis() as u32,
            started: Instant::now(),
            poll: cfg.poll,
            linger: cfg.linger,
        });

        let mut batchers = Vec::with_capacity(cfg.workers);
        for wi in 0..cfg.workers {
            let shared = Arc::clone(&shared);
            batchers.push(
                std::thread::Builder::new()
                    .name(format!("mtsr-serve-batch{wi}"))
                    .spawn(move || batcher_loop(&shared))
                    .expect("spawn batcher"),
            );
        }

        let event = {
            let shared = Arc::clone(&shared);
            let max_conns = cfg.max_conns;
            std::thread::Builder::new()
                .name("mtsr-serve-event".into())
                .spawn(move || {
                    let mut ev =
                        EventLoop::new(shared.clone(), listener, poller, wake_rx, max_conns);
                    if let Err(e) = ev.run() {
                        // A dead event loop must still release the
                        // batchers, or join() would hang forever.
                        mtsr_telemetry::add_counter("serve.event_loop_errors", 1);
                        let _ = e;
                        shared.begin_drain();
                    }
                })
                .expect("spawn event loop")
        };

        Ok(ServerHandle {
            shared,
            addr,
            event: Some(event),
            batchers,
        })
    }

    /// Single-tenant convenience: registers `exec`'s plan as model 0
    /// (named `default`) with no reload planner.
    pub fn start_single(cfg: &ServeConfig, exec: InferExec) -> io::Result<ServerHandle> {
        let plan = Arc::clone(exec.plan());
        drop(exec);
        Server::start(
            cfg,
            vec![ModelSpec {
                name: "default".into(),
                source: String::new(),
                plan,
            }],
            None,
        )
    }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

const TOKEN_LISTENER: Token = u64::MAX;
const TOKEN_WAKE: Token = u64::MAX - 1;

/// One connection's state machine. No thread sleeps on its behalf: all
/// progress happens on readiness events.
struct Conn {
    cid: u64,
    stream: TcpStream,
    asm: FrameAssembler,
    /// Pending reply bytes: `out[out_start..]` is un-flushed.
    out: Vec<u8>,
    out_start: usize,
    /// Peer sent EOF (or shut down its write half); we still flush and
    /// answer everything already admitted before closing.
    read_closed: bool,
    /// Fatal protocol violation: flush the final ERR, then close.
    closing: bool,
    /// Jobs/reloads admitted from this connection not yet answered.
    inflight: u64,
    reg_read: bool,
    reg_write: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_start
    }

    fn queue_reply(&mut self, resp: &Response) {
        write_response(&mut self.out, resp).expect("Vec write is infallible");
    }

    fn paused(&self) -> bool {
        self.pending_out() >= WRITE_PAUSE
    }
}

struct EventLoop {
    shared: Arc<Shared>,
    listener: TcpListener,
    poller: Poller,
    wake_rx: WakeReceiver,
    conns: Vec<Option<Conn>>,
    free: Vec<usize>,
    by_cid: HashMap<u64, usize>,
    next_cid: u64,
    max_conns: usize,
    listener_live: bool,
    drain_flush_started: Option<Instant>,
}

impl EventLoop {
    fn new(
        shared: Arc<Shared>,
        listener: TcpListener,
        poller: Poller,
        wake_rx: WakeReceiver,
        max_conns: usize,
    ) -> EventLoop {
        EventLoop {
            shared,
            listener,
            poller,
            wake_rx,
            conns: Vec::new(),
            free: Vec::new(),
            by_cid: HashMap::new(),
            next_cid: 0,
            max_conns: max_conns.max(1),
            listener_live: false,
            drain_flush_started: None,
        }
    }

    fn run(&mut self) -> io::Result<()> {
        self.poller
            .register(raw_fd(&self.listener), TOKEN_LISTENER, true, false)?;
        self.listener_live = true;
        self.poller
            .register(raw_fd(self.wake_rx.socket()), TOKEN_WAKE, true, false)?;

        let mut events: Vec<PollEvent> = Vec::new();
        loop {
            events.clear();
            self.poller.wait(&mut events, Some(self.shared.poll))?;
            for &ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKE => self.wake_rx.drain(),
                    token => self.conn_ready(token as usize, ev),
                }
            }
            self.deliver_completions();
            if signals::take_hup() {
                self.reload_all();
            }
            if self.shared.shutdown.load(Ordering::SeqCst) {
                if self.listener_live {
                    let _ = self.poller.deregister(raw_fd(&self.listener));
                    self.listener_live = false;
                }
                if self.drain_complete() {
                    return Ok(());
                }
            }
        }
    }

    /// During a drain the loop exits once every admitted job and reload
    /// is answered and every reply buffer is flushed — or after a grace
    /// period if some peer stopped reading its replies.
    fn drain_complete(&mut self) -> bool {
        let answered = self.shared.in_flight() == 0
            && self.shared.pending_reloads.load(Ordering::SeqCst) == 0
            && self
                .shared
                .completions
                .lock()
                .expect("completions poisoned")
                .is_empty();
        if !answered {
            return false;
        }
        let started = *self.drain_flush_started.get_or_insert_with(Instant::now);
        let unflushed: Vec<usize> = (0..self.conns.len())
            .filter(|&s| self.conns[s].as_ref().is_some_and(|c| c.pending_out() > 0))
            .collect();
        if unflushed.is_empty() {
            return true;
        }
        for slot in unflushed {
            self.try_flush(slot);
            self.update_interest(slot);
        }
        started.elapsed() >= DRAIN_FLUSH_GRACE
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if self.shared.shutdown.load(Ordering::SeqCst)
                        || self.by_cid.len() >= self.max_conns
                    {
                        self.shared
                            .stats
                            .conns_rejected
                            .fetch_add(1, Ordering::SeqCst);
                        continue; // stream drops: refused at capacity
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    stream.set_nodelay(true).ok();
                    let slot = match self.free.pop() {
                        Some(s) => s,
                        None => {
                            self.conns.push(None);
                            self.conns.len() - 1
                        }
                    };
                    let cid = self.next_cid;
                    self.next_cid += 1;
                    if self
                        .poller
                        .register(raw_fd(&stream), slot as Token, true, false)
                        .is_err()
                    {
                        self.free.push(slot);
                        continue;
                    }
                    self.shared
                        .stats
                        .conns_accepted
                        .fetch_add(1, Ordering::SeqCst);
                    self.by_cid.insert(cid, slot);
                    self.conns[slot] = Some(Conn {
                        cid,
                        stream,
                        asm: FrameAssembler::new(),
                        out: Vec::new(),
                        out_start: 0,
                        read_closed: false,
                        closing: false,
                        inflight: 0,
                        reg_read: true,
                        reg_write: false,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_ready(&mut self, slot: usize, ev: PollEvent) {
        if self.conns.get(slot).map(Option::is_some) != Some(true) {
            return; // closed earlier in this batch
        }
        if ev.writable && !self.try_flush(slot) {
            return;
        }
        if (ev.readable || ev.hangup) && !self.conn_read(slot) {
            return;
        }
        self.update_interest(slot);
    }

    /// Reads until `WouldBlock`, feeding the frame assembler and
    /// dispatching complete frames. Returns false if the slot closed.
    fn conn_read(&mut self, slot: usize) -> bool {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let conn = self.conns[slot].as_mut().expect("conn checked by caller");
            if conn.closing || conn.read_closed || conn.paused() {
                break;
            }
            match conn.stream.read(&mut buf) {
                Ok(0) => {
                    conn.read_closed = true;
                    break;
                }
                Ok(n) => {
                    conn.asm.push(&buf[..n]);
                    self.process_frames(slot);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot, true);
                    return false;
                }
            }
        }
        // Flush whatever the frames above queued; may close the slot
        // (fatal protocol error with an empty backlog, or a finished
        // half-closed connection).
        self.try_flush(slot)
    }

    fn process_frames(&mut self, slot: usize) {
        loop {
            let conn = self.conns[slot].as_mut().expect("conn alive in read loop");
            match conn.asm.next() {
                Ok(None) => return,
                Ok(Some(Assembled::Frame(req))) => {
                    let shared = Arc::clone(&self.shared);
                    let conn = self.conns[slot].as_mut().expect("conn alive");
                    dispatch(&shared, conn, req);
                }
                Ok(Some(Assembled::UnknownOpcode { op, id })) => {
                    self.shared.stats.errors.fetch_add(1, Ordering::SeqCst);
                    conn.queue_reply(&Response::error(id, format!("unknown opcode {op}")));
                }
                Err(fatal) => {
                    self.shared
                        .stats
                        .protocol_errors
                        .fetch_add(1, Ordering::SeqCst);
                    mtsr_telemetry::add_counter("serve.conn_errors", 1);
                    let id = match fatal {
                        FrameFatal::Oversized { id, .. } => id,
                        FrameFatal::BadMagic(_) => 0,
                    };
                    conn.queue_reply(&Response::error(id, fatal.to_string()));
                    conn.closing = true;
                    return;
                }
            }
        }
    }

    /// Writes as much buffered reply data as the socket accepts.
    /// Returns false if the slot closed.
    fn try_flush(&mut self, slot: usize) -> bool {
        loop {
            let conn = self.conns[slot].as_mut().expect("conn checked by caller");
            if conn.pending_out() == 0 {
                break;
            }
            match conn.stream.write(&conn.out[conn.out_start..]) {
                Ok(0) => {
                    self.close_conn(slot, true);
                    return false;
                }
                Ok(n) => {
                    conn.out_start += n;
                    if conn.out_start == conn.out.len() {
                        conn.out.clear();
                        conn.out_start = 0;
                    } else if conn.out_start >= WRITE_PAUSE {
                        conn.out.drain(..conn.out_start);
                        conn.out_start = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(slot, true);
                    return false;
                }
            }
        }
        let conn = self.conns[slot].as_ref().expect("conn alive after flush");
        let done = conn.pending_out() == 0;
        if done && (conn.closing || (conn.read_closed && conn.inflight == 0)) {
            self.close_conn(slot, false);
            return false;
        }
        true
    }

    fn update_interest(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let want_read = !conn.closing && !conn.read_closed && !conn.paused();
        let want_write = conn.pending_out() > 0;
        if (want_read, want_write) != (conn.reg_read, conn.reg_write)
            && self
                .poller
                .reregister(raw_fd(&conn.stream), slot as Token, want_read, want_write)
                .is_ok()
        {
            conn.reg_read = want_read;
            conn.reg_write = want_write;
        }
    }

    fn close_conn(&mut self, slot: usize, errored: bool) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        let _ = self.poller.deregister(raw_fd(&conn.stream));
        self.by_cid.remove(&conn.cid);
        self.free.push(slot);
        self.shared
            .stats
            .conns_closed
            .fetch_add(1, Ordering::SeqCst);
        if errored {
            mtsr_telemetry::add_counter("serve.conn_errors", 1);
        }
        // conn drops here, closing the socket.
    }

    /// Moves batcher/reload replies into their connections' write
    /// buffers and flushes opportunistically.
    fn deliver_completions(&mut self) {
        let done: Vec<Completion> = {
            let mut g = self
                .shared
                .completions
                .lock()
                .expect("completions poisoned");
            std::mem::take(&mut *g)
        };
        if done.is_empty() {
            return;
        }
        let mut touched: Vec<usize> = Vec::with_capacity(done.len());
        for c in done {
            let Some(&slot) = self.by_cid.get(&c.conn) else {
                continue; // client is gone; accounting already closed out
            };
            let conn = self.conns[slot].as_mut().expect("slot maps to live conn");
            conn.inflight = conn.inflight.saturating_sub(1);
            conn.queue_reply(&c.resp);
            touched.push(slot);
        }
        touched.sort_unstable();
        touched.dedup();
        for slot in touched {
            if self.try_flush(slot) {
                self.update_interest(slot);
            }
        }
    }

    /// SIGHUP semantics: re-plan every model from its recorded source.
    fn reload_all(&mut self) {
        if self.shared.planner.is_none() {
            return;
        }
        for (id, entry) in self.shared.registry.entries().iter().enumerate() {
            let source = entry.source.lock().expect("model source poisoned").clone();
            self.shared.spawn_reload(id as u32, source, NO_CONN, 0);
        }
    }
}

/// Handles one complete, well-formed frame on the event loop. Only
/// admission work happens here — anything heavier runs on batcher or
/// reload threads.
fn dispatch(shared: &Arc<Shared>, conn: &mut Conn, req: Request) {
    match req.op {
        Opcode::Info => {
            let model = match req.payload.len() {
                0 => Some(0u32),
                4 => Some(u32::from_le_bytes([
                    req.payload[0],
                    req.payload[1],
                    req.payload[2],
                    req.payload[3],
                ])),
                _ => None,
            };
            let reply = match model.and_then(|m| shared.info_for(m).map(|i| (m, i))) {
                Some((_, info)) => Response {
                    status: RespStatus::Ok,
                    id: req.id,
                    payload: info.encode(),
                },
                None => {
                    shared.stats.errors.fetch_add(1, Ordering::SeqCst);
                    Response::error(
                        req.id,
                        format!(
                            "INFO wants an empty or 4-byte model-id payload naming one of \
                             {} models",
                            shared.registry.len()
                        ),
                    )
                }
            };
            conn.queue_reply(&reply);
        }
        Opcode::Status => {
            conn.queue_reply(&Response {
                status: RespStatus::Ok,
                id: req.id,
                payload: shared.status_text().into_bytes(),
            });
        }
        Opcode::Shutdown => {
            shared.begin_drain();
            conn.queue_reply(&Response::empty(RespStatus::Ok, req.id));
        }
        Opcode::Reload => match ReloadRequest::decode(&req.payload) {
            Err(e) => {
                shared.stats.errors.fetch_add(1, Ordering::SeqCst);
                conn.queue_reply(&Response::error(req.id, e.to_string()));
            }
            Ok(parsed) => {
                if shared.planner.is_none() {
                    shared.stats.errors.fetch_add(1, Ordering::SeqCst);
                    conn.queue_reply(&Response::error(
                        req.id,
                        "this daemon has no reload planner configured",
                    ));
                    return;
                }
                let Some(entry) = shared.registry.entry(parsed.model) else {
                    shared.stats.errors.fetch_add(1, Ordering::SeqCst);
                    conn.queue_reply(&Response::error(
                        req.id,
                        format!(
                            "unknown model id {} ({} registered)",
                            parsed.model,
                            shared.registry.len()
                        ),
                    ));
                    return;
                };
                let source = if parsed.source.is_empty() {
                    entry.source.lock().expect("model source poisoned").clone()
                } else {
                    parsed.source
                };
                conn.inflight += 1;
                shared.spawn_reload(parsed.model, source, conn.cid, req.id);
            }
        },
        Opcode::Truth => observe_truth(shared, conn, &req),
        Opcode::Infer => admit_infer(shared, conn, &req),
    }
}

/// Handles a `TRUTH` frame on the event loop: pair the ground truth
/// with the buffered prediction sharing its id, fold the score into the
/// model's drift gauge, and — when the gauge trips — kick off the
/// background fine-tune. All O(buffer) work; the fine-tune itself runs
/// on its own thread.
fn observe_truth(shared: &Arc<Shared>, conn: &mut Conn, req: &Request) {
    let parsed = match TruthRequest::decode(&req.payload) {
        Ok(p) => p,
        Err(e) => {
            shared.stats.errors.fetch_add(1, Ordering::SeqCst);
            conn.queue_reply(&Response::error(req.id, e.to_string()));
            return;
        }
    };
    let Some(ac) = shared.adapt.as_ref() else {
        shared.stats.errors.fetch_add(1, Ordering::SeqCst);
        conn.queue_reply(&Response::error(
            req.id,
            "online adaptation disabled (start the daemon with --adapt)",
        ));
        return;
    };
    let Some(entry) = shared.registry.entry(parsed.model) else {
        shared.stats.errors.fetch_add(1, Ordering::SeqCst);
        conn.queue_reply(&Response::error(
            req.id,
            format!(
                "unknown model id {} ({} registered)",
                parsed.model,
                shared.registry.len()
            ),
        ));
        return;
    };
    // One NaN would poison the rolling gauge and the fine-tune corpus:
    // refuse it before the monitor sees it (the buffered prediction stays
    // claimable by a well-formed retry).
    if !all_finite(&parsed.data) {
        reject_non_finite(shared, conn, req.id, parsed.model);
        return;
    }
    let (outcome, trigger) = {
        let mut mon = entry.drift.lock().expect("drift monitor poisoned");
        let outcome = mon.observe_truth(req.id, &parsed.data);
        let trigger = matches!(outcome, TruthOutcome::Scored { .. })
            && shared.tuner.is_some()
            && mon.should_trigger(ac.threshold);
        (outcome, trigger)
    };
    match outcome {
        TruthOutcome::Unmatched => {
            entry.stats.truth_unmatched.fetch_add(1, Ordering::SeqCst);
            conn.queue_reply(&Response::empty(RespStatus::Ok, req.id));
        }
        TruthOutcome::BadLength { have, want } => {
            shared.stats.errors.fetch_add(1, Ordering::SeqCst);
            entry.stats.errors.fetch_add(1, Ordering::SeqCst);
            conn.queue_reply(&Response::error(
                req.id,
                format!(
                    "TRUTH window has {have} values but prediction {} has {want}",
                    req.id
                ),
            ));
        }
        TruthOutcome::Scored {
            window_nrmse,
            rolling,
        } => {
            entry.stats.truth_matched.fetch_add(1, Ordering::SeqCst);
            mtsr_telemetry::record_gauge("serve.drift_nrmse", f64::from(rolling));
            conn.queue_reply(&Response {
                status: RespStatus::Ok,
                id: req.id,
                payload: TruthAck {
                    window_nrmse,
                    rolling_nrmse: rolling,
                }
                .encode(),
            });
            // Single-flight: only the thread that flips `adapting` may
            // spawn; concurrent triggers on other truths are no-ops.
            if trigger && !entry.stats.adapting.swap(true, Ordering::SeqCst) {
                entry.stats.drift_triggers.fetch_add(1, Ordering::SeqCst);
                mtsr_telemetry::add_counter("serve.drift_triggers", 1);
                shared.spawn_adapt(parsed.model);
            }
        }
    }
}

fn all_finite(data: &[f32]) -> bool {
    data.iter().all(|v| v.is_finite())
}

/// ERR reply for an `INFER` or `TRUTH` frame carrying NaN/±Inf, counted
/// like any other rejected payload; nothing is enqueued or scored.
fn reject_non_finite(shared: &Shared, conn: &mut Conn, id: u64, model: u32) {
    shared.stats.errors.fetch_add(1, Ordering::SeqCst);
    if let Some(entry) = shared.registry.entry(model) {
        entry.stats.errors.fetch_add(1, Ordering::SeqCst);
    }
    conn.queue_reply(&Response::error(id, "non-finite payload"));
}

fn admit_infer(shared: &Arc<Shared>, conn: &mut Conn, req: &Request) {
    let parsed = match InferRequest::decode(&req.payload) {
        Ok(p) => p,
        Err(e) => {
            shared.stats.errors.fetch_add(1, Ordering::SeqCst);
            conn.queue_reply(&Response::error(req.id, e.to_string()));
            return;
        }
    };
    let Some((_, plan)) = shared.registry.current(parsed.model) else {
        shared.stats.errors.fetch_add(1, Ordering::SeqCst);
        conn.queue_reply(&Response::error(
            req.id,
            format!(
                "unknown model id {} ({} registered)",
                parsed.model,
                shared.registry.len()
            ),
        ));
        return;
    };
    let ind = plan.input_dims();
    let (es, eh, ew) = (ind[2] as u32, ind[3] as u32, ind[4] as u32);
    let window_elems: usize = ind[1..].iter().product();
    if (parsed.s, parsed.h, parsed.w) != (es, eh, ew) || parsed.data.len() != window_elems {
        shared.stats.errors.fetch_add(1, Ordering::SeqCst);
        if let Some(entry) = shared.registry.entry(parsed.model) {
            entry.stats.errors.fetch_add(1, Ordering::SeqCst);
        }
        conn.queue_reply(&Response::error(
            req.id,
            format!(
                "window [{}, {}, {}] does not match model {} plan [{es}, {eh}, {ew}]",
                parsed.s, parsed.h, parsed.w, parsed.model
            ),
        ));
        return;
    }
    if !all_finite(&parsed.data) {
        reject_non_finite(shared, conn, req.id, parsed.model);
        return;
    }
    let now = Instant::now();
    let deadline_ms = if parsed.deadline_ms == 0 {
        shared.deadline_ms
    } else {
        parsed.deadline_ms
    };
    let job = Job {
        conn: conn.cid,
        id: req.id,
        model: parsed.model,
        data: parsed.data,
        enqueued: now,
        deadline: now + Duration::from_millis(u64::from(deadline_ms)),
    };
    match shared.queue.try_push(job) {
        Ok(()) => {
            shared.stats.admitted.fetch_add(1, Ordering::SeqCst);
            conn.inflight += 1;
            mtsr_telemetry::record_gauge("serve.queue_depth", shared.queue.depth() as f64);
        }
        Err(PushError::Full) => {
            shared.stats.busy.fetch_add(1, Ordering::SeqCst);
            mtsr_telemetry::add_counter("serve.busy", 1);
            conn.queue_reply(&Response::empty(RespStatus::Busy, req.id));
        }
        Err(PushError::Closed) => {
            conn.queue_reply(&Response::empty(RespStatus::Draining, req.id));
        }
    }
}

// ---------------------------------------------------------------------------
// Batchers
// ---------------------------------------------------------------------------

/// One batcher's cached executor for one model at one plan generation.
struct CachedExec {
    generation: u32,
    exec: InferExec,
    input: Vec<f32>,
    output: Vec<f32>,
}

fn batcher_loop(shared: &Arc<Shared>) {
    let mut cache: HashMap<u32, CachedExec> = HashMap::new();
    loop {
        let first = match shared.queue.pop(shared.poll) {
            Pop::Item(job) => job,
            Pop::Empty => continue,
            // Closed is only reported once the queue has fully drained,
            // so exiting here completes the graceful-drain contract.
            Pop::Closed => return,
        };
        let model = first.model;
        let Some((generation, plan)) = shared.registry.current(model) else {
            shared.finish(
                first.conn,
                Response::error(first.id, format!("model {model} is not registered")),
                &shared.stats.errors,
            );
            continue;
        };
        // (Re)build the cached executor when this model's plan moved to
        // a new generation — the moment a hot reload becomes visible to
        // this batcher. Geometry is stable across reloads (registry
        // invariant), so buffer sizes never change for a model.
        let entry = cache.entry(model).or_insert_with(|| {
            let exec = InferExec::from_plan(Arc::clone(&plan));
            let in_len: usize = exec.input_dims().iter().product();
            let out_len: usize = exec.output_dims().iter().product();
            CachedExec {
                generation,
                exec,
                input: vec![0.0f32; in_len],
                output: vec![0.0f32; out_len],
            }
        });
        if entry.generation != generation {
            entry.exec = InferExec::from_plan(Arc::clone(&plan));
            entry.generation = generation;
        }
        let batch = entry.exec.input_dims()[0];
        let crop_len: usize = entry.exec.input_dims()[1..].iter().product();
        let win_len: usize = entry.exec.output_dims()[1..].iter().product();
        let (out_h, out_w) = (
            entry.exec.output_dims()[2] as u32,
            entry.exec.output_dims()[3] as u32,
        );

        let admitted = first.enqueued;
        let mut jobs = vec![first];
        if batch > 1 {
            // The batch departs `linger` after its first job was admitted:
            // one that already queued that long (any backlog) leaves at
            // once, a fresh one waits out the remainder. Deciding on the
            // queue depth seen at pop instead raced near-simultaneous
            // arrivals against this thread's wake-up, and two closed-loop
            // clients drifted in and out of a lockstep that skipped the
            // wait for both.
            let due = admitted + shared.linger;
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            // Same-model top-up only: other tenants' jobs keep their
            // FIFO position for the next worker.
            jobs.extend(shared.queue.drain_matching(batch - 1, |j| j.model == model));
        }

        // Expired jobs are answered TIMEOUT and never occupy a lane.
        let now = Instant::now();
        let mut live = Vec::with_capacity(jobs.len());
        for job in jobs {
            if job.deadline <= now {
                if let Some(me) = shared.registry.entry(job.model) {
                    me.stats.timeouts.fetch_add(1, Ordering::SeqCst);
                }
                shared.finish(
                    job.conn,
                    Response::empty(RespStatus::Timeout, job.id),
                    &shared.stats.timeouts,
                );
                mtsr_telemetry::add_counter("serve.timeouts", 1);
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            continue;
        }

        for (job, lane) in live.iter().zip(entry.input.chunks_exact_mut(crop_len)) {
            lane.copy_from_slice(&job.data);
        }
        // Only the occupied lanes execute; a lone lane is one chunk, which
        // the kernels run inline on this thread without the shared pool.
        let lanes = live.len();
        let ran = {
            let _t = mtsr_telemetry::span("serve.exec");
            entry.exec.run_into(
                &entry.input[..lanes * crop_len],
                &mut entry.output[..lanes * win_len],
            )
        };
        let me = shared.registry.entry(model).expect("model exists");
        let lane_count = lanes as u64;
        shared.stats.exec_batches.fetch_add(1, Ordering::SeqCst);
        shared
            .stats
            .exec_lanes
            .fetch_add(lane_count, Ordering::SeqCst);
        me.stats.exec_batches.fetch_add(1, Ordering::SeqCst);
        me.stats.exec_lanes.fetch_add(lane_count, Ordering::SeqCst);
        mtsr_telemetry::add_counter("serve.exec.lanes", lane_count);
        match ran {
            Ok(()) => {
                for (job, window) in live.iter().zip(entry.output.chunks_exact(win_len)) {
                    // Drift monitoring buffers the served prediction so a
                    // later TRUTH frame with this job's id can score it.
                    if shared.adapt.is_some() {
                        me.drift
                            .lock()
                            .expect("drift monitor poisoned")
                            .record_prediction(job.id, &job.data, window);
                    }
                    let payload =
                        InferResponse::encode_window(model, generation, out_h, out_w, window);
                    let ns = job.enqueued.elapsed().as_nanos() as u64;
                    shared
                        .latency
                        .lock()
                        .expect("latency mutex poisoned")
                        .observe(ns);
                    me.observe_latency(ns);
                    me.stats.served.fetch_add(1, Ordering::SeqCst);
                    mtsr_telemetry::record_hist("serve.latency_ns", ns);
                    shared.finish(
                        job.conn,
                        Response {
                            status: RespStatus::Ok,
                            id: job.id,
                            payload,
                        },
                        &shared.stats.served,
                    );
                }
            }
            Err(e) => {
                for job in &live {
                    me.stats.errors.fetch_add(1, Ordering::SeqCst);
                    shared.finish(
                        job.conn,
                        Response::error(job.id, format!("inference failed: {e}")),
                        &shared.stats.errors,
                    );
                }
            }
        }
    }
}

/// SIGTERM/SIGINT → graceful drain, SIGHUP → hot reload of every model,
/// with no dependency beyond the libc that std already links. Handlers
/// only store to atomics; the serve binary polls [`triggered`] and the
/// event loop polls [`take_hup`].
///
/// [`triggered`]: signals::triggered
/// [`take_hup`]: signals::take_hup
#[cfg(unix)]
pub mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);
    static HUP: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" fn on_hup(_signum: i32) {
        HUP.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    const SIGHUP: i32 = 1;
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    /// Installs the termination handler for SIGTERM and SIGINT and the
    /// reload handler for SIGHUP.
    pub fn install() {
        unsafe {
            signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
            signal(SIGINT, on_term as extern "C" fn(i32) as usize);
            signal(SIGHUP, on_hup as extern "C" fn(i32) as usize);
        }
    }

    /// True once a termination signal has been delivered.
    pub fn triggered() -> bool {
        TERM.load(Ordering::SeqCst)
    }

    /// Consumes a pending SIGHUP, returning true at most once per
    /// delivery — the event loop turns this into a reload of every
    /// registered model from its recorded source.
    pub fn take_hup() -> bool {
        HUP.swap(false, Ordering::SeqCst)
    }

    /// Raises SIGHUP in-process (test hook for the reload path).
    pub fn raise_hup() {
        HUP.store(true, Ordering::SeqCst);
    }
}

/// Portable stub so the serve binary compiles off-unix; signals simply
/// never trigger.
#[cfg(not(unix))]
pub mod signals {
    /// No-op off unix.
    pub fn install() {}

    /// Always false off unix.
    pub fn triggered() -> bool {
        false
    }

    /// Always false off unix.
    pub fn take_hup() -> bool {
        false
    }

    /// No-op off unix.
    pub fn raise_hup() {}
}

#[cfg(test)]
mod tests {
    use super::in_flight_from;

    #[test]
    fn in_flight_is_admitted_minus_finished() {
        assert_eq!(in_flight_from(0, 0), 0);
        assert_eq!(in_flight_from(5, 3), 2);
        assert_eq!(in_flight_from(7, 7), 0);
    }

    /// Regression: an underflow (more jobs finished than admitted) is an
    /// accounting bug and must trip loudly in debug builds instead of
    /// being silently clamped to zero.
    #[test]
    #[should_panic(expected = "in_flight underflow")]
    #[cfg(debug_assertions)]
    fn in_flight_underflow_panics_in_debug() {
        let _ = in_flight_from(1, 2);
    }
}
