//! The replicated fleet runner: one [`ReplicaGroup`] per shard.
//!
//! Mirrors [`indra_fleet::run_fleet`]'s aggregation exactly — leader
//! outputs fold through [`FleetReport::from_outputs`] in shard
//! order — so [`indra_fleet::FleetStats`] keeps its determinism
//! contract: for K ≥ 2 a stealth-corrupted run's stats are
//! byte-identical to an undisturbed run's, because every corrupted
//! replica is revived onto the majority trajectory before it can steer
//! the group. Replication/rejuvenation counters are wall-clock-ish
//! host observations and live in [`SupervisionStats`] on the outer
//! [`FleetReport`], never inside `stats`.

use std::path::PathBuf;
use std::time::Instant;

use indra_fleet::{
    par_map, plan_for_shard, ChaosConfig, FleetConfig, FleetReport, ScratchDir, ShardOutput,
    ShardSupervision, SupervisionStats,
};
use indra_persist::SnapshotStore;

use crate::group::{GroupCounters, ReplicaGroup};

/// Replication knobs layered on top of a [`FleetConfig`].
#[derive(Debug, Clone)]
pub struct ReplicaOptions {
    /// Replicas per shard (K). 1 disables voting (baseline), 2
    /// detects-and-quarantines, 3 masks via majority.
    pub replicas: usize,
    /// Proactively rejuvenate each replica every N admitted requests
    /// (staggered across the group); `None` disables.
    pub rejuvenate_every: Option<u64>,
    /// Chaos plan source — only the `stealth` leg is consumed here; the
    /// host-level legs (kills, stalls, tears) belong to the supervisor.
    pub chaos: ChaosConfig,
}

impl Default for ReplicaOptions {
    fn default() -> ReplicaOptions {
        ReplicaOptions { replicas: 3, rejuvenate_every: None, chaos: ChaosConfig::off() }
    }
}

/// Runs the fleet with K replicas per shard and per-request divergence
/// voting. Returns the standard [`FleetReport`] with `supervision`
/// populated (divergence/rejuvenation counters, availability).
///
/// # Errors
///
/// Returns a message when the checkpoint store cannot be created, a
/// group's persistence fails, or a revival is refused (a checkpoint
/// from another run) or lands off the group's agreed state.
///
/// # Panics
///
/// Panics if `opts.replicas == 0` or a shard worker thread dies outside
/// the group's own panic containment.
pub fn run_fleet_replicated(
    cfg: &FleetConfig,
    opts: &ReplicaOptions,
) -> Result<FleetReport, String> {
    assert!(opts.replicas >= 1, "--replicas must be at least 1");
    let started = Instant::now();

    // Groups need durable checkpoints for revival; default a cadence
    // when the config doesn't set one, and a scratch store of this
    // run's own when the config names no directory.
    let checkpoint_every = if cfg.checkpoint_every > 0 { cfg.checkpoint_every } else { 4 };
    let (store_dir, scratch) = match &cfg.store_dir {
        Some(dir) => (PathBuf::from(dir), None),
        None => {
            let scratch = ScratchDir::create(&format!("replica-{:08x}", cfg.seed))
                .map_err(|e| format!("scratch store: {e}"))?;
            (scratch.path().to_path_buf(), Some(scratch))
        }
    };

    let rows = par_map(0..cfg.shards, |shard| -> Result<(ShardOutput, GroupCounters), String> {
        let store =
            SnapshotStore::create(&store_dir).map_err(|e| format!("shard {shard}: store: {e}"))?;
        let plan = cfg.plan(shard);
        let stealth = plan_for_shard(&opts.chaos, cfg, shard).stealth;
        let mut group = ReplicaGroup::new(
            cfg,
            plan,
            opts.replicas,
            checkpoint_every,
            opts.rejuvenate_every,
            store,
            stealth,
        )
        .map_err(|e| format!("shard {shard}: {e}"))?;
        let completed = group.run().map_err(|e| format!("shard {shard}: {e}"))?;
        Ok(group.finish(completed))
    });
    let (outputs, counters): (Vec<ShardOutput>, Vec<GroupCounters>) =
        rows.into_iter().collect::<Result<Vec<_>, String>>()?.into_iter().unzip();

    drop(scratch);
    let mut report = FleetReport::from_outputs(&outputs, started);
    let saturate = |n: u64| u32::try_from(n).unwrap_or(u32::MAX);
    let per_shard = outputs.iter().zip(&counters).map(|(out, c)| ShardSupervision {
        shard: out.plan.shard,
        quarantined: out.report.quarantined.clone(),
        divergences: saturate(c.divergences),
        divergent_masked: saturate(c.divergent_masked),
        rejuvenations: saturate(c.rejuvenations),
        ..ShardSupervision::default()
    });
    let mut sup = SupervisionStats::from_shards(per_shard.collect());
    let s = &report.stats;
    let scheduled = s.benign_sent + s.attacks_sent;
    if scheduled > 0 {
        sup.availability = (s.served + s.detections) as f64 / scheduled as f64;
    }
    let revive_events: u64 = counters.iter().map(|c| c.revive_events).sum();
    if revive_events > 0 {
        let revive_ms: f64 = counters.iter().map(|c| c.revive_wall_ms).sum();
        sup.mean_time_to_revive_ms = revive_ms / revive_events as f64;
    }
    report.supervision = Some(sup);
    Ok(report)
}
