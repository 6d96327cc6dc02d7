//! Fleet-level durability: checkpoint metadata, shard progress blobs
//! and crash-safe resume.
//!
//! The snapshot machinery in `indra-persist` captures a frozen
//! [`indra_core::SystemState`]; this module adds the two pieces the
//! *fleet* needs on top:
//!
//! * `fleet.meta` — the [`FleetConfig`] that produced the run, so
//!   `--resume <dir>` needs no other flags. Determinism makes this
//!   sufficient: the schedule, images and seeds are all pure functions
//!   of the config. Its engine knobs go through the same knob block as
//!   the service daemon's `serve.meta` ([`encode_engine_meta`]).
//! * a per-shard progress blob (stored opaquely alongside each
//!   snapshot) carrying the harness-side loop variables that live
//!   outside the simulated system: the schedule cursor, the
//!   fault-injection bookkeeping and the remaining step budget.
//!
//! [`resume_fleet`] reopens a store, rebuilds the config, restores
//! every shard that managed to checkpoint (shards that never reached
//! their first checkpoint simply start over — same result, by
//! determinism) and runs the fleet to the original quota. The stats of
//! a killed-and-resumed run are byte-identical to an uninterrupted one.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use indra_core::{SchemeKind, SystemState};
use indra_persist::{PersistError, SnapshotStore, WireReader, WireWriter};
use indra_workloads::ServiceApp;

use crate::executor::run_fleet_with;
use crate::{EngineConfig, FleetConfig, FleetReport};

/// A store directory one run created for itself and removes when
/// dropped, so no two runs (same-seed concurrent ones included) ever
/// share checkpoints.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates `indra-{label}-{pid}-{n}` in the temp dir with
    /// `create_dir`, `n` a process-wide counter; a taken name is
    /// skipped, never adopted.
    ///
    /// # Errors
    ///
    /// Any creation failure other than the name being taken.
    pub fn create(label: &str) -> std::io::Result<ScratchDir> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        loop {
            let n = NEXT.fetch_add(1, Ordering::Relaxed);
            let name = format!("indra-{label}-{}-{n}", std::process::id());
            let dir = std::env::temp_dir().join(name);
            match std::fs::create_dir(&dir) {
                Ok(()) => return Ok(ScratchDir(dir)),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// The directory.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Harness-side loop state of one shard at a checkpoint boundary —
/// everything the open-loop shard loop tracks outside the simulated
/// system.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardProgress {
    /// Schedule entries already consumed (delivered into the system).
    pub cursor: u64,
    /// Hardware faults injected so far.
    pub faults_injected: u64,
    /// `report().served` when the last fault was injected.
    pub served_at_last_fault: u64,
    /// Remaining instruction-step budget.
    pub steps_left: u64,
    /// `report().served` when this checkpoint was taken.
    pub served_at_last_ckpt: u64,
    /// Guest-level chaos bursts already injected (see
    /// [`crate::chaos::GuestBurst`]): bursts are simulated history, so
    /// a revival must replay exactly the ones the checkpoint had not
    /// yet absorbed. Zero outside chaos runs.
    pub chaos_cursor: u64,
}

/// A shard's restored starting point: the thawed system plus the
/// harness loop state that goes with it.
#[derive(Debug)]
pub struct RestoredShard {
    /// The frozen system at the last valid checkpoint.
    pub state: SystemState,
    /// Harness loop variables at that checkpoint.
    pub progress: ShardProgress,
}

pub(crate) fn encode_progress(p: &ShardProgress) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u64(p.cursor);
    w.u64(p.faults_injected);
    w.u64(p.served_at_last_fault);
    w.u64(p.steps_left);
    w.u64(p.served_at_last_ckpt);
    w.u64(p.chaos_cursor);
    w.finish()
}

pub(crate) fn decode_progress(bytes: &[u8]) -> Result<ShardProgress, PersistError> {
    let mut r = WireReader::new(bytes);
    let p = ShardProgress {
        cursor: r.u64("progress cursor")?,
        faults_injected: r.u64("progress faults")?,
        served_at_last_fault: r.u64("progress fault mark")?,
        steps_left: r.u64("progress budget")?,
        served_at_last_ckpt: r.u64("progress ckpt mark")?,
        chaos_cursor: r.u64("progress chaos cursor")?,
    };
    r.expect_exhausted("progress trailing bytes")?;
    Ok(p)
}

fn app_tag(app: ServiceApp) -> u8 {
    ServiceApp::ALL.iter().position(|&a| a == app).expect("app in ALL") as u8
}

fn app_from_tag(tag: u8) -> Result<ServiceApp, PersistError> {
    ServiceApp::ALL
        .get(usize::from(tag))
        .copied()
        .ok_or(PersistError::Corrupt { context: "unknown service app" })
}

fn scheme_tag(scheme: SchemeKind) -> u8 {
    match scheme {
        SchemeKind::None => 0,
        SchemeKind::Delta => 1,
        SchemeKind::VirtualCheckpoint => 2,
        SchemeKind::SoftwareCheckpoint => 3,
        SchemeKind::UndoLog => 4,
    }
}

fn scheme_from_tag(tag: u8) -> Result<SchemeKind, PersistError> {
    Ok(match tag {
        0 => SchemeKind::None,
        1 => SchemeKind::Delta,
        2 => SchemeKind::VirtualCheckpoint,
        3 => SchemeKind::SoftwareCheckpoint,
        4 => SchemeKind::UndoLog,
        _ => return Err(PersistError::Corrupt { context: "unknown scheme kind" }),
    })
}

/// The knob block `fleet.meta` and `serve.meta` share: every engine
/// knob except the app and the seed, which each file stores its own way.
fn write_knobs(w: &mut WireWriter, e: &EngineConfig) {
    w.u32(e.scale);
    w.u8(scheme_tag(e.scheme));
    w.usize(e.fifo_entries);
    w.usize(e.cam_entries);
    w.bool(e.fast_paths);
    w.u64(e.run_slice_steps);
    w.bool(e.superblocks);
    w.bool(e.compartments);
}

/// Reads the knob block into `base` (whose app and seed are kept).
fn read_knobs(r: &mut WireReader<'_>, base: EngineConfig) -> Result<EngineConfig, PersistError> {
    Ok(EngineConfig {
        scale: r.u32("meta scale")?,
        scheme: scheme_from_tag(r.u8("meta scheme")?)?,
        fifo_entries: r.usize("meta fifo")?,
        cam_entries: r.usize("meta cam")?,
        fast_paths: r.bool("meta fast paths")?,
        run_slice_steps: r.u64("meta slice")?,
        superblocks: r.bool("meta superblocks")?,
        compartments: r.bool("meta compartments")?,
        ..base
    })
}

/// Serializes an [`EngineConfig`] for `serve.meta`: app, seed, then
/// the shared knob block.
#[must_use]
pub fn encode_engine_meta(cfg: &EngineConfig) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.u8(app_tag(cfg.app));
    w.u64(cfg.seed);
    write_knobs(&mut w, cfg);
    w.finish()
}

/// Deserializes `serve.meta` back into an [`EngineConfig`].
///
/// # Errors
///
/// Typed [`PersistError`] on truncation, trailing bytes or unknown tags.
pub fn decode_engine_meta(bytes: &[u8]) -> Result<EngineConfig, PersistError> {
    let mut r = WireReader::new(bytes);
    let app = app_from_tag(r.u8("serve meta app")?)?;
    let seed = r.u64("serve meta seed")?;
    let cfg = read_knobs(&mut r, EngineConfig { app, seed, ..EngineConfig::default() })?;
    r.expect_exhausted("serve meta trailing bytes")?;
    Ok(cfg)
}

/// Serializes the deterministic portion of a [`FleetConfig`] for
/// `fleet.meta`: the shared engine knob block, then the fleet's own
/// knobs. `store_dir` and `halt_after_checkpoints` are excluded on
/// purpose: the first is supplied by `--resume <dir>` itself, the
/// second is a crash-simulation knob that must not survive a resume.
pub(crate) fn encode_meta(cfg: &FleetConfig) -> Vec<u8> {
    let mut w = WireWriter::new();
    write_knobs(&mut w, &cfg.engine(cfg.plan(0).app));
    w.usize(cfg.shards);
    w.seq(cfg.apps.len());
    for &app in &cfg.apps {
        w.u8(app_tag(app));
    }
    w.u32(cfg.requests_per_shard);
    w.u32(cfg.attack_per_mille);
    w.u64(cfg.mean_gap_cycles);
    w.u64(cfg.seed);
    w.opt_u32(cfg.fault_every);
    w.bool(cfg.include_dormant_attacks);
    w.u32(cfg.checkpoint_every);
    w.finish()
}

pub(crate) fn decode_meta(bytes: &[u8]) -> Result<FleetConfig, PersistError> {
    let mut r = WireReader::new(bytes);
    let e = read_knobs(&mut r, EngineConfig::default())?;
    let shards = r.usize("meta shards")?;
    let apps = (0..r.seq(1, "meta apps")?)
        .map(|_| app_from_tag(r.u8("meta app")?))
        .collect::<Result<Vec<_>, _>>()?;
    let cfg = FleetConfig {
        shards,
        apps,
        requests_per_shard: r.u32("meta requests")?,
        attack_per_mille: r.u32("meta attack rate")?,
        mean_gap_cycles: r.u64("meta gap")?,
        seed: r.u64("meta seed")?,
        fault_every: r.opt_u32("meta fault every")?,
        include_dormant_attacks: r.bool("meta dormant")?,
        checkpoint_every: r.u32("meta ckpt every")?,
        scale: e.scale,
        scheme: e.scheme,
        fifo_entries: e.fifo_entries,
        cam_entries: e.cam_entries,
        run_slice_steps: e.run_slice_steps,
        fast_paths: e.fast_paths,
        superblocks: e.superblocks,
        compartments: e.compartments,
        store_dir: None,
        halt_after_checkpoints: None,
        shutdown: None,
    };
    r.expect_exhausted("meta trailing bytes")?;
    Ok(cfg)
}

/// Resumes a fleet from a checkpoint directory and runs it to the
/// original quota.
///
/// Reads `fleet.meta`, recovers every shard's last valid checkpoint
/// (base snapshot + journal replay), and re-runs the fleet with those
/// shards thawed mid-flight; shards with no checkpoint on disk start
/// from scratch. Because every shard is deterministic, the resulting
/// [`FleetStats`](crate::FleetStats) — and its JSON — are byte-identical
/// to the run that was killed, had it been left to finish.
///
/// # Errors
///
/// Typed [`PersistError`] when the directory, metadata, a base
/// snapshot or a progress blob is unreadable or corrupt. A torn
/// journal tail is *not* an error (that is the normal crash shape); a
/// config whose shard count disagrees with the on-disk layout is.
///
/// # Panics
///
/// Panics only where [`crate::run_fleet`] does (zero shards, shard
/// thread panic).
pub fn resume_fleet(dir: impl AsRef<Path>) -> Result<FleetReport, PersistError> {
    let dir = dir.as_ref();
    let store = SnapshotStore::open(dir)?;
    let mut cfg = decode_meta(&store.read_meta()?)?;
    cfg.store_dir = Some(dir.to_string_lossy().into_owned());

    let restored = (0..cfg.shards).map(|shard| load_restored(&store, shard));
    Ok(run_fleet_with(&cfg, restored.collect::<Result<_, _>>()?))
}

/// Shard `shard`'s last valid checkpoint with its decoded progress
/// (`None` when it never checkpointed).
pub(crate) fn load_restored(
    store: &SnapshotStore,
    shard: usize,
) -> Result<Option<RestoredShard>, PersistError> {
    let Some(loaded) = store.load_shard(shard)? else { return Ok(None) };
    let progress = decode_progress(&loaded.progress)?;
    Ok(Some(RestoredShard { state: loaded.state, progress }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_roundtrip() {
        let cfg = FleetConfig {
            shards: 3,
            apps: vec![ServiceApp::Bind, ServiceApp::Imap],
            fault_every: Some(5),
            checkpoint_every: 4,
            store_dir: Some("/tmp/x".into()),
            halt_after_checkpoints: Some(2),
            fast_paths: false,
            superblocks: false,
            compartments: false,
            ..FleetConfig::quick()
        };
        let back = decode_meta(&encode_meta(&cfg)).unwrap();
        assert_eq!(back.shards, 3);
        assert_eq!(back.apps, vec![ServiceApp::Bind, ServiceApp::Imap]);
        assert_eq!(back.fault_every, Some(5));
        assert_eq!(back.checkpoint_every, 4);
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.scheme, cfg.scheme);
        assert!(!back.fast_paths, "fast_paths must survive the meta roundtrip");
        assert!(!back.superblocks, "superblocks must survive the meta roundtrip");
        assert!(!back.compartments, "compartments must survive the meta roundtrip");
        // Resume-supplied fields never travel through the meta file.
        assert_eq!(back.store_dir, None);
        assert_eq!(back.halt_after_checkpoints, None);
    }

    #[test]
    fn progress_roundtrip() {
        let p = ShardProgress {
            cursor: 17,
            faults_injected: 2,
            served_at_last_fault: 12,
            steps_left: 1_000_000,
            served_at_last_ckpt: 16,
            chaos_cursor: 3,
        };
        assert_eq!(decode_progress(&encode_progress(&p)).unwrap(), p);
        assert!(decode_progress(&[1, 2, 3]).is_err());
    }
}
