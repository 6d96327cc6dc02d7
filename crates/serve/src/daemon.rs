//! The `fleetd` daemon core: TCP acceptor, per-shard bounded ingress
//! queues with admission control, worker loops, and the control plane.
//!
//! ## Threading shape
//!
//! One acceptor thread owns the listener; each connection gets one
//! reader thread (buffered frame parse + dispatch). Its write half sits
//! behind a mutex: a shard worker writes each `Response` with one
//! `write_all` as soon as it has it (Nagle is off), and the reader
//! writes `Rejected` and control replies the same way. A write that
//! fails or times out shuts the connection down and marks it dead.
//! Each shard worker owns its [`ShardRunner`] and drains a bounded
//! [`std::sync::mpsc::sync_channel`] — the *only* buffering between the
//! socket and the simulated system, so memory stays bounded no matter
//! the offered load: when every live queue is at its depth watermark
//! the request is rejected with a typed frame instead of queued.
//!
//! ## Write-ahead discipline
//!
//! A worker appends each request to its ingress log *before* delivering
//! it, so the log is always a superset of what influenced the simulated
//! state: replay can only over-approximate, never miss. Checkpoints
//! (`checkpoint_every` served requests) sync the log first, then write
//! the snapshot whose progress cursor points into it — a crash between
//! the two replays a little more of the log, landing in the same state.

use std::collections::BTreeSet;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use indra_core::RecoveryLevel;
use indra_fleet::{aggregate_stats, FleetStats, ShardError, ShardOutput};
use indra_persist::{
    IngressKind, IngressRecord, IngressWriter, PersistError, ShardCheckpointWriter, SnapshotStore,
    WireReader, WireWriter, INGRESS_FILE,
};
use indra_replica::DigestCache;

use crate::engine::{
    decode_engine_meta, encode_engine_meta, Disposition, EngineConfig, ShardRunner,
};
use crate::proto::{
    encode_frame, read_frame, Frame, FrameError, HealthReply, RejectReason, Verdict,
};

/// Host-side daemon configuration (everything that does *not* influence
/// the simulated trajectory lives here; the sim-deterministic knobs are
/// in [`EngineConfig`], which is what gets persisted to `serve.meta`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Sim-deterministic engine knobs (persisted; replay reuses them).
    /// One app for the whole daemon: attack payloads embed
    /// image-specific addresses, and admission routes round-robin, so
    /// heterogeneous shards would misroute exploits.
    pub engine: EngineConfig,
    /// Initial live shard count.
    pub shards: usize,
    /// Ingress queue depth per shard (the admission watermark).
    pub queue_depth: usize,
    /// Durably checkpoint a shard after every N served requests
    /// (0 = log-only; replay then recovers from the log alone).
    pub checkpoint_every: u32,
    /// State directory: `serve.meta` + one `shard-NNNN/` per shard
    /// (ingress log, base snapshot, journal).
    pub state_dir: PathBuf,
    /// TCP port to bind on loopback (0 = ephemeral).
    pub port: u16,
    /// Replicas per shard (1 = unreplicated). The extra K-1 followers
    /// shadow the authoritative primary from the same admitted stream
    /// and vote on (disposition, state digest) after every request; a
    /// divergent follower is masked and rebuilt from the primary's
    /// durable checkpoint + ingress history. The primary alone owns the
    /// log and the reply path, so `--replay` output stays byte-identical
    /// whatever K is.
    pub replicas: usize,
    /// Proactively rebuild one follower every N admitted requests,
    /// round-robin (None = never). A no-op at `replicas: 1`.
    pub rejuvenate_every: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            engine: EngineConfig::default(),
            shards: 4,
            queue_depth: 16,
            checkpoint_every: 8,
            state_dir: PathBuf::from("fleetd-state"),
            port: 0,
            replicas: 1,
            rejuvenate_every: None,
        }
    }
}

/// Daemon-level error.
#[derive(Debug)]
pub enum ServeError {
    /// Socket / filesystem failure.
    Io(std::io::Error),
    /// Durable state store failure.
    Persist(PersistError),
    /// A shard failed to build or persist.
    Shard(ShardError),
    /// A shard worker thread panicked outside the guarded deliver path.
    WorkerPanicked {
        /// Which shard.
        shard: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Persist(e) => write!(f, "persist error: {e}"),
            ServeError::Shard(e) => write!(f, "shard error: {e}"),
            ServeError::WorkerPanicked { shard } => write!(f, "shard {shard} worker panicked"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> ServeError {
        ServeError::Io(e)
    }
}

impl From<PersistError> for ServeError {
    fn from(e: PersistError) -> ServeError {
        ServeError::Persist(e)
    }
}

impl From<ShardError> for ServeError {
    fn from(e: ShardError) -> ServeError {
        ServeError::Shard(e)
    }
}

/// Final report of a daemon run. `stats` obeys the fleet determinism
/// contract (pure function of the admitted ingress logs); wall-clock
/// figures stay outside it.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Deterministic fleet statistics (replay reproduces these bytes).
    pub stats: FleetStats,
    /// Requests turned away at admission (host-side, not replayed —
    /// rejected requests never touch simulated state).
    pub rejected: u64,
    /// Wall-clock daemon lifetime.
    pub wall_seconds: f64,
}

/// How long one reply write may block on a client that stops reading
/// before the connection is shut down.
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// A connection's write half, shared by its reader and every shard
/// worker holding one of its requests; `None` once a write failed.
type Replies = Arc<Mutex<Option<TcpStream>>>;

/// One request admitted to a shard queue.
struct WorkItem {
    id: u64,
    malicious: bool,
    data: Vec<u8>,
    /// Where the worker writes the reply frame.
    reply: Replies,
}

/// Live counters one shard worker publishes for the control plane.
#[derive(Debug, Default)]
struct ShardShared {
    served: AtomicU64,
    detections: AtomicU64,
    revivals: AtomicU64,
    quarantined: AtomicU64,
    divergences: AtomicU64,
    divergent_masked: AtomicU64,
    rejuvenations: AtomicU64,
    detection_insns: AtomicU64,
}

struct Slot {
    shard: usize,
    tx: Option<SyncSender<WorkItem>>,
    shared: Arc<ShardShared>,
    handle: JoinHandle<Result<ShardOutput, ShardError>>,
}

struct Router {
    slots: Vec<Slot>,
    next_shard_id: usize,
}

impl Router {
    fn live(&self) -> usize {
        self.slots.iter().filter(|s| s.tx.is_some()).count()
    }

    fn draining(&self) -> usize {
        self.slots.iter().filter(|s| s.tx.is_none()).count()
    }
}

struct Inner {
    cfg: ServeConfig,
    router: Mutex<Router>,
    rr: AtomicUsize,
    rejected: AtomicU64,
    stop: AtomicBool,
    shutdown_requested: AtomicBool,
}

impl Inner {
    fn health(&self) -> HealthReply {
        let router = self.router.lock().expect("router lock");
        let sum = |counter: fn(&ShardShared) -> &AtomicU64| {
            router.slots.iter().map(|slot| counter(&slot.shared).load(Ordering::SeqCst)).sum()
        };
        let live = router.live() as u32;
        HealthReply {
            ok: live > 0,
            app: self.cfg.engine.app.name().to_string(),
            scale: self.cfg.engine.scale,
            shards_live: live,
            shards_draining: router.draining() as u32,
            served: sum(|s| &s.served),
            detections: sum(|s| &s.detections),
            revivals: sum(|s| &s.revivals),
            quarantined: sum(|s| &s.quarantined),
            rejected: self.rejected.load(Ordering::SeqCst),
            replicas: self.cfg.replicas.max(1) as u32,
            divergences: sum(|s| &s.divergences),
            divergent_masked: sum(|s| &s.divergent_masked),
            rejuvenations: sum(|s| &s.rejuvenations),
            detection_insns: sum(|s| &s.detection_insns),
        }
    }

    fn stats_json(&self) -> String {
        let h = self.health();
        indra_core::json::JsonObject::new()
            .str("app", &h.app)
            .u64("scale", u64::from(h.scale))
            .u64("shards_live", u64::from(h.shards_live))
            .u64("shards_draining", u64::from(h.shards_draining))
            .u64("served", h.served)
            .u64("detections", h.detections)
            .u64("revivals", h.revivals)
            .u64("quarantined", h.quarantined)
            .u64("rejected", h.rejected)
            .u64("replicas", u64::from(h.replicas))
            .u64("divergences", h.divergences)
            .u64("divergent_masked", h.divergent_masked)
            .u64("rejuvenations", h.rejuvenations)
            .u64("detection_insns", h.detection_insns)
            .finish()
    }

    /// Routes a request round-robin across live shards; every live
    /// queue full → typed rejection (never unbounded buffering).
    fn route(&self, item: WorkItem) -> Result<(), (WorkItem, RejectReason)> {
        let router = self.router.lock().expect("router lock");
        let live = router.live();
        if live == 0 {
            return Err((item, RejectReason::NoShards));
        }
        let start = self.rr.fetch_add(1, Ordering::Relaxed) % live;
        let mut item = item;
        let txs = router.slots.iter().filter_map(|s| s.tx.as_ref());
        for tx in txs.cycle().skip(start).take(live) {
            match tx.try_send(item) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Full(back)) | Err(TrySendError::Disconnected(back)) => {
                    item = back;
                }
            }
        }
        Err((item, RejectReason::QueueFull))
    }

    /// `DRAIN`: closes one live shard's queue; it checkpoints and exits.
    fn drain(&self, shard: usize) -> Frame {
        let mut router = self.router.lock().expect("router lock");
        match router.slots.iter_mut().find(|s| s.shard == shard) {
            Some(slot) if slot.tx.is_some() => {
                slot.tx = None;
                Frame::ControlOk { detail: format!("draining shard {shard}") }
            }
            Some(_) => Frame::ControlErr { msg: format!("shard {shard} already draining") },
            None => Frame::ControlErr { msg: format!("no such shard {shard}") },
        }
    }

    /// `SCALE`: spawns fresh shards, or drains the highest-numbered live
    /// ones, until `target` are live.
    fn scale(&self, target: usize) -> Frame {
        let mut router = self.router.lock().expect("router lock");
        let live = router.live();
        if target == 0 {
            return Frame::ControlErr { msg: "target must be at least 1".into() };
        }
        if target == live {
            return Frame::ControlOk { detail: format!("already at {live} shards") };
        }
        for _ in live..target {
            let shard = router.next_shard_id;
            router.next_shard_id += 1;
            match spawn_shard(&self.cfg, shard) {
                Ok(slot) => router.slots.push(slot),
                Err(e) => return Frame::ControlErr { msg: format!("spawn shard {shard}: {e}") },
            }
        }
        let excess = live.saturating_sub(target);
        for slot in router.slots.iter_mut().rev().filter(|s| s.tx.is_some()).take(excess) {
            slot.tx = None;
        }
        Frame::ControlOk { detail: format!("scaling {live} -> {target} live shards") }
    }
}

/// A running `fleetd` instance. Dropping it without [`Daemon::stop`]
/// leaks the worker threads; always stop.
pub struct Daemon {
    inner: Arc<Inner>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    started: Instant,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon").field("addr", &self.addr).finish_non_exhaustive()
    }
}

/// Shard directories present in a state dir, in shard order.
pub(crate) fn discover_shards(root: &Path) -> Result<Vec<usize>, ServeError> {
    let mut ids = Vec::new();
    for entry in std::fs::read_dir(root)? {
        let entry = entry?;
        if !entry.file_type()?.is_dir() {
            continue;
        }
        let name = entry.file_name();
        if let Some(num) = name.to_string_lossy().strip_prefix("shard-") {
            if let Ok(id) = num.parse::<usize>() {
                ids.push(id);
            }
        }
    }
    ids.sort_unstable();
    Ok(ids)
}

impl Daemon {
    /// Binds the listener, spawns (or resumes) the shard workers and
    /// the acceptor, and returns immediately.
    ///
    /// A state dir that already holds `serve.meta` is *resumed*: the
    /// stored [`EngineConfig`] wins over `cfg.engine` (replay identity
    /// requires the original sim knobs), every existing shard directory
    /// gets a worker (recovering checkpoint + ingress log), and new
    /// shards are added only if `cfg.shards` exceeds the existing count.
    ///
    /// # Errors
    ///
    /// Bind failure, store corruption, or a shard that cannot deploy.
    pub fn start(mut cfg: ServeConfig) -> Result<Daemon, ServeError> {
        let store = SnapshotStore::create(&cfg.state_dir)?;
        match store.read_meta() {
            Ok(meta) => cfg.engine = decode_engine_meta(&meta)?,
            Err(PersistError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {
                store.write_meta(&encode_engine_meta(&cfg.engine))?;
            }
            Err(e) => return Err(e.into()),
        }
        let mut shard_ids: BTreeSet<usize> = discover_shards(store.root())?.into_iter().collect();
        let mut next_fresh = 0usize;
        while shard_ids.len() < cfg.shards {
            shard_ids.insert(next_fresh);
            next_fresh += 1;
        }
        let next_shard_id = shard_ids.last().map_or(0, |m| m + 1);

        let listener = TcpListener::bind(("127.0.0.1", cfg.port))?;
        let addr = listener.local_addr()?;
        let slots =
            shard_ids.into_iter().map(|s| spawn_shard(&cfg, s)).collect::<Result<_, _>>()?;

        let inner = Arc::new(Inner {
            cfg,
            router: Mutex::new(Router { slots, next_shard_id }),
            rr: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
        });

        let acceptor = {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || {
                let open = |_: &std::io::Result<TcpStream>| !inner.stop.load(Ordering::SeqCst);
                for stream in listener.incoming().take_while(open).flatten() {
                    let inner = Arc::clone(&inner);
                    std::thread::spawn(move || handle_conn(&inner, stream));
                }
            })
        };

        Ok(Daemon { inner, addr, acceptor: Some(acceptor), started: Instant::now() })
    }

    /// The bound listen address (loopback; port may be ephemeral).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// True once a client sent a `SHUTDOWN` frame (or
    /// [`Daemon::request_shutdown`] ran); the owner should then call
    /// [`Daemon::stop`].
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Raises the shutdown flag (e.g. from a signal handler's poll
    /// loop).
    pub fn request_shutdown(&self) {
        self.inner.shutdown_requested.store(true, Ordering::SeqCst);
    }

    /// Stops accepting, drains every shard queue, flushes final
    /// checkpoints, joins the workers and folds the deterministic fleet
    /// stats (shard order, like the batch executor).
    ///
    /// # Errors
    ///
    /// The first shard worker failure, if any.
    pub fn stop(mut self) -> Result<ServeReport, ServeError> {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor out of accept().
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // Dropping every sender ends each worker's recv loop once its
        // queue drains; workers then checkpoint and exit.
        let slots = std::mem::take(&mut self.inner.router.lock().expect("router lock").slots);
        let handles: Vec<_> = slots.into_iter().map(|slot| (slot.shard, slot.handle)).collect();
        let mut outputs = Vec::new();
        for (shard, handle) in handles {
            match handle.join() {
                Ok(Ok(out)) => outputs.push(out),
                Ok(Err(e)) => return Err(e.into()),
                Err(_) => return Err(ServeError::WorkerPanicked { shard }),
            }
        }
        outputs.sort_by_key(|o| o.plan.shard);
        Ok(ServeReport {
            stats: aggregate_stats(&outputs),
            rejected: self.inner.rejected.load(Ordering::SeqCst),
            wall_seconds: self.started.elapsed().as_secs_f64(),
        })
    }
}

fn spawn_shard(cfg: &ServeConfig, shard: usize) -> Result<Slot, ServeError> {
    let (tx, rx) = mpsc::sync_channel::<WorkItem>(cfg.queue_depth.max(1));
    let shared = Arc::new(ShardShared::default());
    let worker_shared = Arc::clone(&shared);
    let worker_cfg = cfg.clone();
    let handle = std::thread::Builder::new()
        .name(format!("shard-{shard:04}"))
        .spawn(move || shard_worker(&worker_cfg, shard, &worker_shared, &rx))
        .map_err(ServeError::Io)?;
    Ok(Slot { shard, tx: Some(tx), shared, handle })
}

/// Running `insns_into_request` sum over the engine's detections, so a
/// publish costs O(new detections). A revival rebuilds the list.
#[derive(Default)]
struct DetectionTally {
    revivals: u64,
    counted: usize,
    insns: u64,
}

fn publish(shared: &ShardShared, runner: &ShardRunner, tally: &mut DetectionTally) {
    let report = runner.engine().report();
    if tally.revivals != runner.revivals || report.detections.len() < tally.counted {
        *tally = DetectionTally { revivals: runner.revivals, ..DetectionTally::default() };
    }
    tally.insns +=
        report.detections[tally.counted..].iter().map(|d| d.insns_into_request).sum::<u64>();
    tally.counted = report.detections.len();
    // Before the counts: whoever reads the final counts reads this too.
    shared.detection_insns.store(tally.insns, Ordering::SeqCst);
    shared.served.store(report.served, Ordering::SeqCst);
    shared.detections.store(report.detections.len() as u64, Ordering::SeqCst);
    shared.revivals.store(runner.revivals, Ordering::SeqCst);
    shared.quarantined.store(runner.quarantined(), Ordering::SeqCst);
}

fn quarantine_record(seq: u64) -> IngressRecord {
    IngressRecord {
        seq,
        kind: IngressKind::Quarantine,
        request_id: 0,
        malicious: false,
        data: Vec::new(),
    }
}

/// Durably checkpoints the runner, its cursor as the progress blob.
fn checkpoint(w: &mut ShardCheckpointWriter, runner: &mut ShardRunner) -> Result<(), ShardError> {
    let (state, cursor) = runner.freeze();
    let mut blob = WireWriter::new();
    blob.u64(cursor);
    runner.wal.absorb(w.checkpoint(&state, &blob.finish())?);
    Ok(())
}

/// Recovers a runner from the shard's durable checkpoint (when it has
/// one) plus the admitted history `records`; returns it with the seqs
/// the recovery newly quarantined.
fn recover(
    cfg: &ServeConfig,
    store: &SnapshotStore,
    shard: usize,
    records: Vec<IngressRecord>,
) -> Result<(ShardRunner, Vec<u64>), ShardError> {
    let checkpoint = match store.load_shard(shard)? {
        Some(loaded) => {
            let mut r = WireReader::new(&loaded.progress);
            let cursor = r.u64("serve progress cursor")?;
            r.expect_exhausted("serve progress trailing bytes")?;
            Some((loaded.state, cursor))
        }
        None => None,
    };
    ShardRunner::from_log(cfg.engine.clone(), shard, records, checkpoint)
}

/// One shadow replica: a [`ShardRunner`] fed the identical admitted
/// stream as the authoritative primary, plus the incremental digest
/// cache it votes with.
struct Follower {
    runner: ShardRunner,
    cache: DigestCache,
}

/// Builds (or rebuilds) one shadow follower from the shard's durable
/// checkpoint plus the in-memory admitted history — exactly the state a
/// crash-restart of the primary would recover, which the replay
/// determinism contract makes byte-identical to the live primary.
fn build_follower(
    cfg: &ServeConfig,
    store: &SnapshotStore,
    shard: usize,
    history: &[IngressRecord],
) -> Result<Follower, ShardError> {
    let (runner, _already_tombstoned) = recover(cfg, store, shard, history.to_vec())?;
    Ok(Follower { runner, cache: DigestCache::new() })
}

/// One shard worker: recover durable state, then serve the queue until
/// every sender is gone, checkpointing as configured.
///
/// With `cfg.replicas > 1` the worker also runs K-1 shadow followers:
/// each follower admits the same record right after the primary, then
/// the worker compares (disposition, state digest). Any mismatch is a
/// divergence — the follower is masked and rebuilt from the durable
/// checkpoint + history. The primary stays authoritative for the log,
/// the reply and the final stats, so replay identity is untouched.
fn shard_worker(
    cfg: &ServeConfig,
    shard: usize,
    shared: &ShardShared,
    rx: &Receiver<WorkItem>,
) -> Result<ShardOutput, ShardError> {
    let store = SnapshotStore::open(&cfg.state_dir)?;
    let dir = store.shard_dir(shard);
    std::fs::create_dir_all(&dir).map_err(|e| ShardError::Persist(e.into()))?;
    let (mut log, records) = IngressWriter::recover(&dir.join(INGRESS_FILE), shard as u32)?;
    let follower_count = cfg.replicas.max(1) - 1;
    // The in-memory mirror of the ingress log, maintained only when
    // followers exist (it is what divergent followers rebuild from).
    let mut history: Vec<IngressRecord> =
        if follower_count > 0 { records.clone() } else { Vec::new() };
    let (mut runner, fresh) = recover(cfg, &store, shard, records)?;
    // Recovery may have quarantined entries that killed the engine
    // deterministically; durably tombstone them before serving.
    for seq in fresh {
        let q = quarantine_record(seq);
        log.append(&q)?;
        if follower_count > 0 {
            history.push(q);
        }
    }
    log.sync()?;
    let mut writer = if cfg.checkpoint_every > 0 { Some(store.shard_writer(shard)?) } else { None };
    let mut followers = Vec::with_capacity(follower_count);
    for _ in 0..follower_count {
        followers.push(build_follower(cfg, &store, shard, &history)?);
    }
    let mut primary_cache = DigestCache::new();
    let mut admitted = 0u64;
    let mut rejuvenate_rr = 0usize;
    let mut tally = DetectionTally::default();
    publish(shared, &runner, &mut tally);

    let mut since_checkpoint = 0u32;
    while let Ok(item) = rx.recv() {
        let rec = IngressRecord {
            seq: runner.next_seq(),
            kind: IngressKind::Request,
            request_id: item.id,
            malicious: item.malicious,
            data: item.data,
        };
        let shadow_rec = (follower_count > 0).then(|| rec.clone());
        // Write-ahead: log the admission before the sim sees it.
        log.append(&rec)?;
        if let Some(r) = &shadow_rec {
            history.push(r.clone());
        }
        let (disp, tombstones) = runner.admit(rec);
        for seq in tombstones {
            let q = quarantine_record(seq);
            log.append(&q)?;
            log.sync()?;
            if follower_count > 0 {
                history.push(q);
            }
        }
        if let Some(shadow) = shadow_rec {
            let primary_digest = primary_cache.digest(runner.engine().system()).value;
            for f in &mut followers {
                let (fdisp, _ftombstones) = f.runner.admit(shadow.clone());
                let fdigest = f.cache.digest(f.runner.engine().system()).value;
                if fdisp != disp || fdigest != primary_digest {
                    shared.divergences.fetch_add(1, Ordering::SeqCst);
                    *f = build_follower(cfg, &store, shard, &history)?;
                    shared.divergent_masked.fetch_add(1, Ordering::SeqCst);
                }
            }
            admitted += 1;
            if let Some(n) = cfg.rejuvenate_every {
                if n > 0 && admitted.is_multiple_of(n) {
                    let idx = rejuvenate_rr % followers.len();
                    rejuvenate_rr += 1;
                    followers[idx] = build_follower(cfg, &store, shard, &history)?;
                    shared.rejuvenations.fetch_add(1, Ordering::SeqCst);
                }
            }
        }
        let (verdict, latency_cycles) = match disp {
            Disposition::Served { cycles } => (Verdict::Served, cycles),
            Disposition::Detected { level: RecoveryLevel::Micro } => (Verdict::DetectedMicro, 0),
            Disposition::Detected { level: RecoveryLevel::Macro } => (Verdict::DetectedMacro, 0),
            Disposition::Quarantined => (Verdict::Quarantined, 0),
        };
        let frame = Frame::Response { id: item.id, shard: shard as u32, verdict, latency_cycles };
        // A vanished client is not a shard problem; the request is
        // already part of durable history either way.
        send(&item.reply, &frame);
        publish(shared, &runner, &mut tally);
        since_checkpoint += 1;
        if let Some(w) = writer.as_mut() {
            if since_checkpoint >= cfg.checkpoint_every {
                since_checkpoint = 0;
                log.sync()?;
                checkpoint(w, &mut runner)?;
            }
        }
    }

    // Drained (all senders gone): final flush + checkpoint.
    log.sync()?;
    if let Some(w) = writer.as_mut() {
        checkpoint(w, &mut runner)?;
    }
    Ok(runner.finish(true))
}

/// Per-connection socket setup: Nagle off (a reply leaves when it is
/// ready), reply writes bounded by [`WRITE_TIMEOUT`]; returns the
/// buffered read half and the shared write half.
fn setup_conn(stream: TcpStream) -> std::io::Result<(BufReader<TcpStream>, Replies)> {
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let write_half = stream.try_clone()?;
    Ok((BufReader::new(stream), Arc::new(Mutex::new(Some(write_half)))))
}

/// Writes one frame to a connection; false once it is dead. A failed or
/// timed-out write shuts the socket down (which also ends its reader)
/// and marks the connection dead, so later replies cost no syscall.
fn send(replies: &Mutex<Option<TcpStream>>, frame: &Frame) -> bool {
    let mut conn = replies.lock().expect("reply lock");
    if conn.as_mut().is_some_and(|s| s.write_all(&encode_frame(frame)).is_ok()) {
        return true;
    }
    let _ = conn.take().map(|s| s.shutdown(Shutdown::Both));
    false
}

/// Per-connection reader loop: parse frames, dispatch. A malformed
/// frame gets a typed `ControlErr` and closes the connection (framing
/// is unrecoverable once desynced). Replies still in flight keep the
/// write half open until the last one is written.
fn handle_conn(inner: &Inner, stream: TcpStream) {
    let Ok((mut reader, replies)) = setup_conn(stream) else { return };
    loop {
        match read_frame(&mut reader) {
            Ok(frame) => {
                if !dispatch(inner, frame, &replies) {
                    break;
                }
            }
            Err(FrameError::Closed) => break,
            Err(e) => {
                send(&replies, &Frame::ControlErr { msg: e.to_string() });
                break;
            }
        }
    }
}

/// Handles one inbound frame; returns false to close the connection.
fn dispatch(inner: &Inner, frame: Frame, replies: &Replies) -> bool {
    let reply = match frame {
        Frame::Request { id, malicious, data } => {
            match inner.route(WorkItem { id, malicious, data, reply: Arc::clone(replies) }) {
                Ok(()) => return true,
                Err((item, reason)) => {
                    inner.rejected.fetch_add(1, Ordering::SeqCst);
                    Frame::Rejected { id: item.id, reason }
                }
            }
        }
        Frame::Stats => Frame::StatsReply { json: inner.stats_json() },
        Frame::Health => Frame::HealthReply(inner.health()),
        Frame::Drain { shard } => inner.drain(shard as usize),
        Frame::Scale { shards } => inner.scale(shards as usize),
        Frame::Shutdown => {
            inner.shutdown_requested.store(true, Ordering::SeqCst);
            Frame::ControlOk { detail: "shutting down".into() }
        }
        Frame::Response { .. }
        | Frame::Rejected { .. }
        | Frame::StatsReply { .. }
        | Frame::HealthReply(_)
        | Frame::ControlOk { .. }
        | Frame::ControlErr { .. } => {
            send(replies, &Frame::ControlErr { msg: "server-side frame on client path".into() });
            return false;
        }
    };
    send(replies, &reply)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepted_connection_has_nagle_off_and_dies_on_a_vanished_client() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (reader, replies) = setup_conn(listener.accept().expect("accept").0).expect("setup");
        assert!(reader.get_ref().nodelay().expect("read half nodelay"));
        {
            let conn = replies.lock().expect("reply lock");
            let write_half = conn.as_ref().expect("fresh connection is live");
            assert!(write_half.nodelay().expect("write half nodelay"));
            assert_eq!(write_half.write_timeout().expect("timeout"), Some(WRITE_TIMEOUT));
        }
        // The peer is gone: the first reply may still be accepted by the
        // kernel, the RST it provokes fails a later one, and from then on
        // the connection is dead.
        drop(client);
        let frame = Frame::ControlOk { detail: "x".into() };
        assert!((0..100).any(|_| !send(&replies, &frame)), "writes to a closed peer must fail");
        assert!(replies.lock().expect("reply lock").is_none(), "a failed write marks it dead");
        assert!(!send(&replies, &frame));
    }
}
