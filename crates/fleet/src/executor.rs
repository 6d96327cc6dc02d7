//! The parallel fleet executor: one OS thread per shard.
//!
//! Shards run under [`std::thread::scope`] ([`par_map`]) so they may
//! borrow the config; their [`ShardOutput`]s come back in shard order,
//! so the final [`FleetStats`] is schedule-independent.

use std::time::Instant;

use indra_bench::Histogram;
use indra_persist::SnapshotStore;

use crate::persist::{encode_meta, RestoredShard};
use crate::shard::{run_shard_inner, ShardHarness, ShardOutput};
use crate::{FleetConfig, FleetReport, FleetStats};

/// Runs the whole fleet and aggregates the result.
///
/// # Panics
///
/// Panics if `cfg.shards == 0`, `cfg.apps` is empty, or a shard thread
/// panics (shard panics propagate — a broken shard must not silently
/// vanish from the aggregate).
#[must_use]
pub fn run_fleet(cfg: &FleetConfig) -> FleetReport {
    run_fleet_with(cfg, (0..cfg.shards).map(|_| None).collect())
}

/// [`run_fleet`], with some shards thawed from checkpoints (`None`
/// entries start fresh). When `cfg.store_dir` is set the fleet config
/// is persisted to `fleet.meta` before any shard starts, so a crash at
/// any later point leaves a resumable directory.
pub(crate) fn run_fleet_with(
    cfg: &FleetConfig,
    restored: Vec<Option<RestoredShard>>,
) -> FleetReport {
    assert!(cfg.shards > 0, "fleet needs at least one shard");
    assert_eq!(restored.len(), cfg.shards, "one restore slot per shard");
    let started = Instant::now();
    let plans = cfg.plans();

    if let Some(dir) = &cfg.store_dir {
        if cfg.checkpoint_every > 0 {
            let store = SnapshotStore::create(dir.as_str()).expect("checkpoint store");
            store.write_meta(&encode_meta(cfg)).expect("checkpoint meta");
        }
    }

    let outputs = par_map(plans.into_iter().zip(restored), |(plan, thawed)| {
        let shard = plan.shard;
        run_shard_inner(cfg, plan, thawed, ShardHarness::default(), |_| {})
            .unwrap_or_else(|e| panic!("shard {shard}: {e}"))
            .expect("an uncancellable shard always reports")
    });
    FleetReport::from_outputs(&outputs, started)
}

/// Runs `work` on every input in a scoped thread of its own and returns
/// the results in input order; a worker's panic propagates to the
/// caller once every worker has finished.
pub fn par_map<I: Send, T: Send>(
    inputs: impl IntoIterator<Item = I>,
    work: impl Fn(I) -> T + Sync,
) -> Vec<T> {
    let work = &work;
    std::thread::scope(|scope| {
        let workers: Vec<_> =
            inputs.into_iter().map(|input| scope.spawn(move || work(input))).collect();
        workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

/// Folds shard outputs (already in shard order) into fleet-wide
/// [`FleetStats`], the latency digest included (recorded from every
/// served request of the final reports). Public because the replica
/// runner and the service daemon (`indra-serve`) aggregate their live
/// and replayed shards through the exact same fold — byte-identity of
/// those paths depends on sharing this code.
#[must_use]
pub fn aggregate_stats(outputs: &[ShardOutput]) -> FleetStats {
    let mut latency = Histogram::new();
    for out in outputs {
        for s in &out.report.samples {
            latency.record(s.cycles);
        }
    }
    let per_shard: Vec<_> = outputs.iter().map(ShardOutput::summary).collect();
    let sum = |f: fn(&crate::ShardSummary) -> u64| per_shard.iter().map(f).sum::<u64>();
    let served = sum(|s| s.served);
    let benign_sent = sum(|s| s.benign_sent);
    let benign_served = sum(|s| s.benign_served);
    let max_shard_cycles = per_shard.iter().map(|s| s.sim_cycles).max().unwrap_or(0);
    FleetStats {
        shards: outputs.len(),
        served,
        benign_sent,
        benign_served,
        attacks_sent: sum(|s| s.attacks_sent),
        detections: sum(|s| s.detections),
        true_detections: sum(|s| s.true_detections),
        detection_latency_insns: sum(|s| s.detection_latency_insns),
        micro_recoveries: sum(|s| s.micro_recoveries),
        macro_recoveries: sum(|s| s.macro_recoveries),
        faults_injected: sum(|s| s.faults_injected),
        benign_service_ratio: if benign_sent == 0 {
            1.0
        } else {
            benign_served as f64 / benign_sent as f64
        },
        max_shard_cycles,
        total_shard_cycles: sum(|s| s.sim_cycles),
        served_per_mcycle: if max_shard_cycles == 0 {
            0.0
        } else {
            served as f64 * 1_000_000.0 / max_shard_cycles as f64
        },
        latency: latency.summary(),
        per_shard,
    }
}
