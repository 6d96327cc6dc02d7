//! The deterministic per-shard service runner shared by live serving
//! and offline replay.
//!
//! Byte-identical record/replay holds *by construction*: the live
//! worker and the replay path drive the same [`Engine`] through the
//! same operation sequence — deliver one request and run the system to
//! idle under a fixed slice size and step budget, or quarantine a seq —
//! and the ingress log records exactly that operation sequence. No sim
//! arrival clock is involved (a live service cannot know simulated
//! inter-arrival gaps), so a shard's trajectory is a pure function of
//! the ordered admitted byte sequence plus the [`EngineConfig`].
//!
//! [`ShardRunner`] layers the revival protocol on top: a delivery that
//! kills the engine (service halt, hang past the budget, or a panic)
//! triggers a rebuild — restore-from-scratch replay of the admitted
//! prefix — and one retry; a second death marks the request as poison,
//! quarantines its seq (a durable tombstone in the log) and moves on.
//! Replay applies tombstones at the same positional point, so live and
//! replayed trajectories stay identical even through deaths.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use indra_core::{RecoveryLevel, SystemState};
pub use indra_fleet::{decode_engine_meta, encode_engine_meta, EngineConfig};
use indra_fleet::{CellVerdict, Engine, ShardError, ShardOutput};
use indra_persist::{CheckpointReceipt, IngressKind, IngressRecord, PersistError};

/// What one guarded delivery produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Response produced.
    Served {
        /// Delivery-to-response resurrectee cycles.
        cycles: u64,
    },
    /// A recovery episode fired on this request.
    Detected {
        /// Micro (per-request rollback) or macro recovery.
        level: RecoveryLevel,
    },
    /// The request killed the shard twice and was quarantined.
    Quarantined,
}

/// Drives one shard through its admitted-request history, live or
/// replayed, with the full revival/quarantine protocol.
#[derive(Debug)]
pub struct ShardRunner {
    shard: usize,
    engine: Engine,
    /// Request records in seq order (`requests[i].seq == i`).
    requests: Vec<IngressRecord>,
    tombstones: BTreeSet<u64>,
    /// Requests with `seq < cursor` are already part of engine history.
    cursor: u64,
    /// Engine rebuilds performed (each is one revival).
    pub revivals: u64,
    /// WAL-delta volume the daemon's checkpoints wrote for this shard.
    /// Host-side observation: the daemon absorbs each checkpoint's
    /// receipt here, and it flows to [`ShardOutput::wal`] — never into
    /// the deterministic stats.
    pub wal: CheckpointReceipt,
}

impl ShardRunner {
    /// A fresh runner with no history.
    ///
    /// # Errors
    ///
    /// [`ShardError::Deploy`] when the service image fails to load.
    pub fn new(cfg: EngineConfig, shard: usize) -> Result<ShardRunner, ShardError> {
        let engine = Engine::new(&cfg)?;
        Ok(ShardRunner {
            shard,
            engine,
            requests: Vec::new(),
            tombstones: BTreeSet::new(),
            cursor: 0,
            revivals: 0,
            wal: CheckpointReceipt::default(),
        })
    }

    /// Rebuilds a runner from a parsed ingress log, optionally starting
    /// from a checkpoint (`state` + the cursor it was taken at) instead
    /// of replaying from scratch. Any entry that deterministically
    /// kills the engine during recovery is quarantined exactly as it
    /// would have been live; the newly created tombstone seqs are
    /// returned so a live caller can append them to the log (offline
    /// replay ignores them — the log is read-only there).
    ///
    /// # Errors
    ///
    /// [`ShardError`] from engine construction, or a corrupt log whose
    /// request seqs are not dense.
    pub fn from_log(
        cfg: EngineConfig,
        shard: usize,
        records: Vec<IngressRecord>,
        checkpoint: Option<(SystemState, u64)>,
    ) -> Result<(ShardRunner, Vec<u64>), ShardError> {
        let mut requests = Vec::new();
        let mut tombstones = BTreeSet::new();
        for rec in records {
            match rec.kind {
                IngressKind::Request => {
                    if rec.seq != requests.len() as u64 {
                        return Err(ShardError::Persist(PersistError::Corrupt {
                            context: "ingress log seqs are not dense",
                        }));
                    }
                    requests.push(rec);
                }
                IngressKind::Quarantine => {
                    tombstones.insert(rec.seq);
                }
            }
        }
        let mut runner = ShardRunner::new(cfg, shard)?;
        runner.requests = requests;
        runner.tombstones = tombstones;
        if let Some((state, cursor)) = checkpoint {
            runner.engine.restore(&state);
            runner.cursor = cursor;
        }
        let mut new_tombstones = Vec::new();
        while runner.cursor < runner.requests.len() as u64 {
            if let (Disposition::Quarantined, fresh) = runner.process_next() {
                new_tombstones.extend(fresh);
            }
        }
        Ok((runner, new_tombstones))
    }

    /// The next admission seq this runner will assign.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.requests.len() as u64
    }

    /// The engine the runner drives.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Mutable access to the engine's simulated system, for the replica
    /// layer's state digests.
    pub fn system_mut(&mut self) -> &mut indra_core::IndraSystem {
        self.engine.system_mut()
    }

    /// Admits one already-logged request record and processes it.
    /// Returns its disposition plus any tombstone seq newly created (at
    /// most one — this request's own, if it proved poisonous).
    ///
    /// # Panics
    ///
    /// Panics when `rec` is not the next dense request seq — the caller
    /// logs before admitting, so a gap is a harness bug.
    pub fn admit(&mut self, rec: IngressRecord) -> (Disposition, Vec<u64>) {
        assert_eq!(rec.kind, IngressKind::Request, "admit takes request records");
        assert_eq!(rec.seq, self.next_seq(), "admission seqs must be dense");
        self.requests.push(rec);
        self.process_next()
    }

    /// Processes the request at `cursor` with the guarded
    /// revive-retry-quarantine protocol.
    fn process_next(&mut self) -> (Disposition, Vec<u64>) {
        let seq = self.cursor;
        let outcome = if self.tombstones.contains(&seq) {
            self.engine.quarantine(seq);
            (Disposition::Quarantined, Vec::new())
        } else if let Some(disp) = self.try_deliver(seq).or_else(|| {
            // First death: revive (rebuild to just before this seq) and
            // retry once.
            self.rebuild();
            self.try_deliver(seq)
        }) {
            (disp, Vec::new())
        } else {
            // Second death: poison. Quarantine the seq and revive
            // without it.
            self.tombstones.insert(seq);
            self.rebuild();
            self.engine.quarantine(seq);
            (Disposition::Quarantined, vec![seq])
        };
        self.cursor += 1;
        outcome
    }

    /// One guarded delivery of `requests[seq]`; `None` means the engine
    /// died (halt, hang, panic) and must be rebuilt.
    fn try_deliver(&mut self, seq: u64) -> Option<Disposition> {
        let rec = &self.requests[seq as usize];
        let (data, malicious) = (rec.data.clone(), rec.malicious);
        let engine = &mut self.engine;
        let outcome = catch_unwind(AssertUnwindSafe(|| engine.deliver(data, malicious).0));
        match outcome {
            Ok(CellVerdict::Served { cycles }) => Some(Disposition::Served { cycles }),
            Ok(CellVerdict::Detected { level }) => Some(Disposition::Detected { level }),
            Ok(CellVerdict::Dead) | Err(_) => None,
        }
    }

    /// Rebuilds the engine from scratch and replays history up to (not
    /// including) `cursor`. Deterministic: every replayed entry already
    /// succeeded on an identical trajectory, so the replay is unguarded.
    fn rebuild(&mut self) {
        self.revivals += 1;
        self.engine =
            Engine::new(self.engine.config()).expect("engine rebuilt from the same config");
        for seq in 0..self.cursor {
            if self.tombstones.contains(&seq) {
                self.engine.quarantine(seq);
            } else {
                let rec = &self.requests[seq as usize];
                let (data, malicious) = (rec.data.clone(), rec.malicious);
                let _ = self.engine.deliver(data, malicious);
            }
        }
    }

    /// Quarantined request count so far.
    #[must_use]
    pub fn quarantined(&self) -> u64 {
        self.tombstones.len() as u64
    }

    /// Freezes the engine state for a checkpoint, paired with the
    /// cursor to store as the progress blob.
    #[must_use]
    pub fn freeze(&self) -> (SystemState, u64) {
        (self.engine.freeze(), self.cursor)
    }

    /// Collapses the runner into the fleet-shaped [`ShardOutput`] the
    /// aggregator consumes. `benign_sent`/`attacks_sent` count every
    /// admitted request (quarantined ones included — they were sent).
    #[must_use]
    pub fn finish(self, completed: bool) -> ShardOutput {
        let plan = self.engine.config().plan(self.shard);
        let sent = self.requests.iter().map(|r| r.malicious);
        self.engine.output(plan, sent, 0, completed, self.wal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use indra_core::SchemeKind;
    use indra_persist::IngressKind;
    use indra_workloads::{benign_request, build_app_scaled, detectable_attack_suite, ServiceApp};

    fn quick_cfg() -> EngineConfig {
        EngineConfig { scale: 60, ..EngineConfig::default() }
    }

    fn req(seq: u64, malicious: bool, data: Vec<u8>) -> IngressRecord {
        IngressRecord { seq, kind: IngressKind::Request, request_id: seq, malicious, data }
    }

    #[test]
    fn meta_roundtrip() {
        let cfg = EngineConfig {
            app: ServiceApp::Bind,
            scale: 17,
            scheme: SchemeKind::UndoLog,
            fast_paths: false,
            superblocks: false,
            compartments: false,
            ..EngineConfig::default()
        };
        assert_eq!(decode_engine_meta(&encode_engine_meta(&cfg)).unwrap(), cfg);
        assert!(decode_engine_meta(&[9, 9]).is_err());
    }

    #[test]
    fn live_and_replayed_runners_agree_byte_for_byte() {
        let cfg = quick_cfg();
        let image = build_app_scaled(cfg.app, cfg.scale);
        let attacks = detectable_attack_suite(&image);
        let mut records = Vec::new();
        for seq in 0..6u64 {
            let malicious = seq == 2;
            let data = if malicious {
                indra_workloads::attack_request(attacks[0], &image)
            } else {
                benign_request(seq as u8, 0x20 + seq as u8)
            };
            records.push(req(seq, malicious, data));
        }

        // Live path: admit one by one.
        let mut live = ShardRunner::new(cfg.clone(), 0).unwrap();
        for rec in &records {
            let (_disp, tombs) = live.admit(rec.clone());
            assert!(tombs.is_empty(), "benign+detectable traffic must not quarantine");
        }
        let live_out = live.finish(true);

        // Replay path: whole log at once.
        let (replayed, fresh) = ShardRunner::from_log(cfg, 0, records, None).unwrap();
        assert!(fresh.is_empty());
        let replay_out = replayed.finish(true);

        assert_eq!(live_out.summary().to_json(), replay_out.summary().to_json());
        assert_eq!(live_out.report.samples, replay_out.report.samples);
        assert_eq!(live_out.sim_cycles, replay_out.sim_cycles);
    }

    #[test]
    fn checkpoint_resume_matches_straight_replay() {
        let cfg = quick_cfg();
        let records: Vec<IngressRecord> =
            (0..5u64).map(|s| req(s, false, benign_request(s as u8, 0x11))).collect();

        // Straight replay.
        let (straight, _) = ShardRunner::from_log(cfg.clone(), 1, records.clone(), None).unwrap();
        let straight_out = straight.finish(true);

        // Run half live, freeze, then resume from the checkpoint.
        let mut half = ShardRunner::new(cfg.clone(), 1).unwrap();
        for rec in &records[..3] {
            half.admit(rec.clone());
        }
        let (state, cursor) = half.freeze();
        assert_eq!(cursor, 3);
        let (resumed, _) = ShardRunner::from_log(cfg, 1, records, Some((state, cursor))).unwrap();
        let resumed_out = resumed.finish(true);

        assert_eq!(straight_out.summary().to_json(), resumed_out.summary().to_json());
        assert_eq!(straight_out.report.samples, resumed_out.report.samples);
    }

    #[test]
    fn tombstoned_seq_is_skipped_and_counted() {
        let cfg = quick_cfg();
        let mut records: Vec<IngressRecord> =
            (0..3u64).map(|s| req(s, false, benign_request(s as u8, 0x22))).collect();
        records.push(IngressRecord {
            seq: 1,
            kind: IngressKind::Quarantine,
            request_id: 0,
            malicious: false,
            data: Vec::new(),
        });
        let (runner, fresh) = ShardRunner::from_log(cfg, 0, records, None).unwrap();
        assert!(fresh.is_empty());
        assert_eq!(runner.quarantined(), 1);
        let out = runner.finish(true);
        assert_eq!(out.report.served, 2);
        assert_eq!(out.report.quarantined, vec![1]);
        assert_eq!(out.benign_sent, 3, "quarantined requests still count as sent");
    }
}
