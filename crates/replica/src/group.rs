//! A replica group: K cells of one logical shard, voted per request.
//!
//! The group feeds every cell the identical admitted request stream and
//! votes on the resulting [`Ballot`]s — (verdict, output hash, state
//! digest). Byte-for-byte determinism (the repo's standing contract)
//! means agreement is the *only* correct outcome, so any disagreement
//! is a detection:
//!
//! * **K ≥ 3, strict majority** — the minority replicas are *masked*:
//!   revived from the durable majority checkpoint and replayed through
//!   the admitted tail (including the divergent request), after which
//!   their state matches the majority bit-for-bit. Service continues
//!   uninterrupted.
//! * **K = 2, or no majority** — divergence is *detected* but cannot be
//!   attributed. Every replica is revived to the pre-request checkpoint
//!   state and the request is retried once; transient corruption (the
//!   stealth-chaos case) is gone after revival, so the retry agrees. A
//!   repeat disagreement marks the request poison: it is quarantined on
//!   all replicas and the group moves on.
//!
//! Proactive rejuvenation restarts one replica at a time from the base
//! snapshot + WAL (the existing [`SnapshotStore`] path) on a staggered
//! cadence — replica `r` of `K` fires `r·N/K` requests out of phase —
//! so the group never loses its voting quorum to maintenance.
//!
//! Every revival is checked, in release builds too: a checkpoint's
//! progress blob carries the writing group's run nonce next to the
//! cursor, so a checkpoint from another run is refused, and a revived
//! replica whose digest misses the group's agreed one is an error —
//! never a silent continuation on contaminated state.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use indra_core::RecoveryLevel;
use indra_fleet::{par_map, shard_schedule, FleetConfig, ShardOutput, ShardPlan, StealthEvent};
use indra_persist::{
    CheckpointReceipt, PersistError, ShardCheckpointWriter, SnapshotStore, WireReader, WireWriter,
};
use indra_rng::derive_seed;

use crate::cell::{CellVerdict, ReplicaCell, TAG_DEAD, TAG_DETECTED, TAG_QUARANTINED, TAG_SERVED};

/// A failed or refused revival — typed, so a contaminated replica can
/// never pass for a healed one.
#[derive(Debug)]
pub enum ReplicaError {
    /// The checkpoint store failed.
    Persist(PersistError),
    /// The shard's latest checkpoint carries another run's nonce.
    ForeignCheckpoint {
        /// The group's shard.
        shard: usize,
        /// This run's nonce.
        expected: u64,
        /// The checkpoint's nonce.
        found: u64,
    },
    /// A replica revived through `cursor` requests missed the digest the
    /// group agreed on.
    ReviveMismatch {
        /// The group's shard.
        shard: usize,
        /// The revived replica.
        replica: usize,
        /// Requests the replica was revived through.
        cursor: u64,
        /// The agreed digest.
        expected: u64,
        /// The revived replica's digest.
        found: u64,
    },
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicaError::Persist(e) => write!(f, "{e}"),
            ReplicaError::ForeignCheckpoint { expected, found, .. } => write!(
                f,
                "checkpoint written by another run (nonce {found:016x}, this run {expected:016x})"
            ),
            ReplicaError::ReviveMismatch { replica, cursor, expected, found, .. } => write!(
                f,
                "replica {replica} revived through request {cursor} has digest {found:016x}, \
                 the group agreed on {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for ReplicaError {}

impl From<PersistError> for ReplicaError {
    fn from(e: PersistError) -> ReplicaError {
        ReplicaError::Persist(e)
    }
}

/// A nonce unique to one group's run: process id and wall clock, plus a
/// process-wide counter so two groups built in the same instant differ.
fn run_nonce() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos() as u64);
    let salt = nanos ^ (u64::from(std::process::id()) << 32);
    derive_seed(salt, NEXT.fetch_add(1, Ordering::Relaxed))
}

/// The progress blob of a group checkpoint: run nonce, then cursor.
fn encode_progress(nonce: u64, cursor: u64) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(nonce);
    w.u64(cursor);
    w.finish()
}

fn decode_progress(bytes: &[u8]) -> Result<(u64, u64), PersistError> {
    let mut r = WireReader::new(bytes);
    let nonce = r.u64("replica progress nonce")?;
    let cursor = r.u64("replica progress cursor")?;
    r.expect_exhausted("replica progress trailing bytes")?;
    Ok((nonce, cursor))
}

/// What one replica submits to the vote for one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ballot {
    /// Verdict tag (see the `TAG_*` constants).
    pub verdict_tag: u8,
    /// Verdict payload (latency cycles when served, recovery level
    /// when detected).
    pub verdict_val: u64,
    /// Hash over the drained response bytes.
    pub output_hash: u64,
    /// Whole-state digest after the delivery.
    pub digest: u64,
}

/// Group-level counters surfaced into the fleet's supervision stats.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupCounters {
    /// Requests on which any ballot disagreed.
    pub divergences: u64,
    /// Divergent replicas masked and revived from a majority checkpoint.
    pub divergent_masked: u64,
    /// Scheduled proactive rejuvenations performed.
    pub rejuvenations: u64,
    /// Requests quarantined after a persistent (post-retry) divergence.
    pub quarantined: u64,
    /// Stealth corruption strikes actually applied to a replica.
    pub stealth_applied: u64,
    /// Total wall milliseconds spent in revivals (masking, retries and
    /// rejuvenations).
    pub revive_wall_ms: f64,
    /// Number of revive events behind `revive_wall_ms`.
    pub revive_events: u64,
}

/// Collapses a verdict into the `(tag, value)` pair a ballot carries.
/// Latency cycles are deterministic, so they vote too.
fn ballot_key(verdict: CellVerdict) -> (u8, u64) {
    match verdict {
        CellVerdict::Served { cycles } => (TAG_SERVED, cycles),
        CellVerdict::Detected { level: RecoveryLevel::Micro } => (TAG_DETECTED, 0),
        CellVerdict::Detected { level: RecoveryLevel::Macro } => (TAG_DETECTED, 1),
        CellVerdict::Dead => (TAG_DEAD, 0),
    }
}

/// Returns the ballot held by a strict majority (> K/2), if any.
fn majority(ballots: &[Ballot]) -> Option<Ballot> {
    for b in ballots {
        if ballots.iter().filter(|o| *o == b).count() * 2 > ballots.len() {
            return Some(*b);
        }
    }
    None
}

fn all_equal(ballots: &[Ballot]) -> bool {
    ballots.windows(2).all(|w| w[0] == w[1])
}

/// K replicas of one logical shard plus the voting/revival protocol.
#[derive(Debug)]
pub struct ReplicaGroup {
    cfg: FleetConfig,
    plan: ShardPlan,
    k: usize,
    cells: Vec<ReplicaCell>,
    /// The full deterministic schedule; `cursor` admitted so far.
    schedule: Vec<(Vec<u8>, bool)>,
    tombstones: BTreeSet<u64>,
    cursor: u64,
    store: SnapshotStore,
    writer: ShardCheckpointWriter,
    /// This run's nonce, stamped into every checkpoint it writes.
    nonce: u64,
    /// Whether this run has checkpointed yet; until it has, revivals
    /// start from a fresh cell and never read the store.
    checkpointed: bool,
    checkpoint_every: u32,
    rejuvenate_every: Option<u64>,
    stealth: Vec<StealthEvent>,
    stealth_next: usize,
    wal: CheckpointReceipt,
    /// Counters the runner folds into [`indra_fleet::SupervisionStats`].
    pub counters: GroupCounters,
}

impl ReplicaGroup {
    /// Builds a K-cell group for `plan` over the store at `store`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(
        cfg: &FleetConfig,
        plan: ShardPlan,
        k: usize,
        checkpoint_every: u32,
        rejuvenate_every: Option<u64>,
        store: SnapshotStore,
        stealth: Vec<StealthEvent>,
    ) -> Result<ReplicaGroup, PersistError> {
        assert!(k >= 1, "a replica group needs at least one cell");
        let cells = (0..k)
            .map(|_| ReplicaCell::build(cfg, &plan).expect("replica cell builds from a valid plan"))
            .collect();
        let writer = store.shard_writer(plan.shard)?;
        let schedule =
            shard_schedule(cfg, &plan).into_iter().map(|t| (t.data, t.malicious)).collect();
        Ok(ReplicaGroup {
            cfg: cfg.clone(),
            plan,
            k,
            cells,
            schedule,
            tombstones: BTreeSet::new(),
            cursor: 0,
            store,
            writer,
            nonce: run_nonce(),
            checkpointed: false,
            checkpoint_every,
            rejuvenate_every,
            stealth,
            stealth_next: 0,
            wal: CheckpointReceipt::default(),
            counters: GroupCounters::default(),
        })
    }

    /// Drives the rest of the schedule through the group. Returns
    /// whether the run completed (false = a majority of replicas died,
    /// which under determinism means the service itself
    /// deterministically dies).
    ///
    /// # Errors
    ///
    /// As [`Self::step`].
    pub fn run(&mut self) -> Result<bool, ReplicaError> {
        while self.cursor < self.schedule.len() as u64 {
            if !self.step()? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Admits the next scheduled request: stealth strikes due now,
    /// parallel delivery on every replica, the vote, then checkpoint and
    /// rejuvenation bookkeeping. Returns whether the group is alive.
    ///
    /// # Errors
    ///
    /// A store failure, a foreign checkpoint, or a revival that missed
    /// the group's agreed state.
    pub fn step(&mut self) -> Result<bool, ReplicaError> {
        let seq = self.cursor;
        while let Some(ev) = self.stealth.get(self.stealth_next).copied() {
            if ev.at_served > seq {
                break;
            }
            let victim = usize::try_from(ev.replica_salt % self.k as u64).expect("index fits");
            if self.cells[victim].corrupt_bit(ev.frame_salt, ev.byte_salt, ev.bit) {
                self.counters.stealth_applied += 1;
            }
            self.stealth_next += 1;
        }

        let mut ballots = self.deliver_all(seq);
        if self.k >= 2 && !all_equal(&ballots) {
            self.counters.divergences += 1;
            ballots = self.resolve_divergence(seq, ballots)?;
        }
        self.cursor = seq + 1;
        let Some(agreed) = majority(&ballots).filter(|b| b.verdict_tag != TAG_DEAD) else {
            return Ok(false);
        };
        self.maybe_checkpoint()?;
        // A quarantine ballot carries no digest to check revivals against.
        self.maybe_rejuvenate((agreed.verdict_tag != TAG_QUARANTINED).then_some(agreed.digest))?;
        Ok(true)
    }

    /// Delivers request `seq` on every replica in parallel (one scoped
    /// worker thread per cell) and collects ballots. A panicking cell
    /// votes Dead.
    fn deliver_all(&mut self, seq: u64) -> Vec<Ballot> {
        let (data, malicious) = &self.schedule[usize::try_from(seq).expect("seq fits")];
        par_map(self.cells.iter_mut(), |cell| {
            catch_unwind(AssertUnwindSafe(|| {
                let (verdict, output_hash) = cell.deliver(data.clone(), *malicious);
                let (verdict_tag, verdict_val) = ballot_key(verdict);
                let digest = cell.digest().value;
                Ballot { verdict_tag, verdict_val, output_hash, digest }
            }))
            .unwrap_or(Ballot { verdict_tag: TAG_DEAD, ..Ballot::default() })
        })
    }

    /// The divergence protocol (see the module docs for the policy).
    fn resolve_divergence(
        &mut self,
        seq: u64,
        mut ballots: Vec<Ballot>,
    ) -> Result<Vec<Ballot>, ReplicaError> {
        if self.k >= 3 {
            if let Some(maj) = majority(&ballots) {
                // Mask-and-revive: replay *through* the divergent
                // request so the minority lands on the majority state.
                #[allow(clippy::needless_range_loop)] // r indexes both ballots and cells
                for r in 0..self.k {
                    if ballots[r] != maj {
                        self.revive_replica(r, seq + 1, Some(maj.digest))?;
                        self.counters.divergent_masked += 1;
                        ballots[r] = maj;
                    }
                }
                return Ok(ballots);
            }
        }
        // K = 2 (or a K-way split): rewind everyone to the pre-request
        // state and retry once — transient corruption dies in revival.
        for r in 0..self.k {
            self.revive_replica(r, seq, None)?;
        }
        let retry = self.deliver_all(seq);
        if all_equal(&retry) {
            return Ok(retry);
        }
        // Persistent divergence: the request itself is poison for the
        // vote. Quarantine it everywhere and move on.
        for r in 0..self.k {
            self.revive_replica(r, seq, None)?;
        }
        self.tombstones.insert(seq);
        for cell in &mut self.cells {
            cell.quarantine(seq);
        }
        self.counters.quarantined += 1;
        Ok(vec![Ballot { verdict_tag: TAG_QUARANTINED, ..Ballot::default() }; self.k])
    }

    /// Revives replica `r` from this run's latest durable checkpoint
    /// (base snapshot + WAL via [`SnapshotStore::load_shard`]; a fresh
    /// cell if this run has not checkpointed yet), replays the admitted
    /// stream up to — excluding — `upto`, honoring tombstones, and
    /// checks the result against the `agreed` digest when there is one.
    /// A checkpoint stamped with another run's nonce is refused.
    fn revive_replica(
        &mut self,
        r: usize,
        upto: u64,
        agreed: Option<u64>,
    ) -> Result<(), ReplicaError> {
        let t0 = Instant::now();
        let shard = self.plan.shard;
        let mut from = 0u64;
        match if self.checkpointed { self.store.load_shard(shard)? } else { None } {
            Some(loaded) => {
                let (nonce, cursor) = decode_progress(&loaded.progress)?;
                if nonce != self.nonce {
                    let (expected, found) = (self.nonce, nonce);
                    return Err(ReplicaError::ForeignCheckpoint { shard, expected, found });
                }
                self.cells[r].restore(&loaded.state);
                from = cursor;
            }
            None => {
                self.cells[r] = ReplicaCell::build(&self.cfg, &self.plan)
                    .expect("replica cell rebuilds from the same plan");
            }
        }
        for seq in from..upto {
            if self.tombstones.contains(&seq) {
                self.cells[r].quarantine(seq);
            } else {
                let (data, malicious) =
                    self.schedule[usize::try_from(seq).expect("seq fits")].clone();
                let _ = self.cells[r].deliver(data, malicious);
            }
        }
        if let Some(expected) = agreed {
            let found = self.cells[r].digest().value;
            if found != expected {
                let cursor = upto;
                return Err(ReplicaError::ReviveMismatch {
                    shard,
                    replica: r,
                    cursor,
                    expected,
                    found,
                });
            }
        }
        self.counters.revive_events += 1;
        self.counters.revive_wall_ms += t0.elapsed().as_secs_f64() * 1e3;
        Ok(())
    }

    /// Checkpoints the leader's (post-agreement) state every
    /// `checkpoint_every` admitted requests, run nonce and cursor in the
    /// progress blob. Any replica would do — they agree — the leader is
    /// just the canonical pick.
    fn maybe_checkpoint(&mut self) -> Result<(), PersistError> {
        if self.checkpoint_every == 0
            || !self.cursor.is_multiple_of(u64::from(self.checkpoint_every))
        {
            return Ok(());
        }
        let state = self.cells[0].freeze();
        let progress = encode_progress(self.nonce, self.cursor);
        self.wal.absorb(self.writer.checkpoint(&state, &progress)?);
        self.checkpointed = true;
        Ok(())
    }

    /// Fires due scheduled rejuvenations. Replica `r` restarts when
    /// `cursor + r·N/K ≡ 0 (mod N)` — the offsets interleave restarts
    /// so at most one replica is down per request boundary and the
    /// group keeps its quorum. Each restarted replica must land on the
    /// `agreed` digest, when there is one.
    fn maybe_rejuvenate(&mut self, agreed: Option<u64>) -> Result<(), ReplicaError> {
        let Some(n) = self.rejuvenate_every else { return Ok(()) };
        for r in 0..self.k {
            let offset = (r as u64 * n) / self.k as u64;
            if (self.cursor + offset).is_multiple_of(n) {
                self.revive_replica(r, self.cursor, agreed)?;
                self.counters.rejuvenations += 1;
            }
        }
        Ok(())
    }

    /// Collapses the group into the leader's [`ShardOutput`] (the same
    /// shape an unreplicated shard emits) plus the group counters.
    #[must_use]
    pub fn finish(self, completed: bool) -> (ShardOutput, GroupCounters) {
        let sent = self.schedule.iter().map(|(_, malicious)| *malicious);
        let output = self.cells[0].engine().output(self.plan, sent, 0, completed, self.wal);
        (output, self.counters)
    }
}
