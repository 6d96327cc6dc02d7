//! Crate-level smoke: the replicated runner's determinism contract.

use indra_fleet::{ChaosConfig, FleetConfig};
use indra_replica::{run_fleet_replicated, ReplicaOptions};

fn tiny() -> FleetConfig {
    FleetConfig { shards: 2, requests_per_shard: 6, ..FleetConfig::quick() }
}

#[test]
fn clean_stats_are_identical_across_k() {
    let cfg = tiny();
    let base = run_fleet_replicated(
        &cfg,
        &ReplicaOptions { replicas: 1, rejuvenate_every: None, chaos: ChaosConfig::off() },
    )
    .expect("k=1 run");
    for k in 2..=3 {
        let rep = run_fleet_replicated(
            &cfg,
            &ReplicaOptions { replicas: k, rejuvenate_every: None, chaos: ChaosConfig::off() },
        )
        .expect("replicated run");
        assert_eq!(rep.stats.to_json(), base.stats.to_json(), "k={k} diverged from k=1");
        let sup = rep.supervision.expect("replicated runs report supervision");
        assert_eq!(sup.divergences, 0, "clean k={k} run must not diverge");
    }
}

#[test]
fn stealth_is_caught_and_masked_at_k3_and_stats_match_clean() {
    let cfg = tiny();
    let clean = run_fleet_replicated(
        &cfg,
        &ReplicaOptions { replicas: 3, rejuvenate_every: None, chaos: ChaosConfig::off() },
    )
    .expect("clean run");
    let hit = run_fleet_replicated(
        &cfg,
        &ReplicaOptions {
            replicas: 3,
            rejuvenate_every: None,
            chaos: ChaosConfig::profile("stealth").expect("profile"),
        },
    )
    .expect("stealth run");
    let sup = hit.supervision.expect("supervision");
    assert!(sup.divergences >= 1, "voting must catch the silent corruption");
    assert!(sup.divergent_masked >= 1, "k=3 masks the divergent replica");
    assert_eq!(
        hit.stats.to_json(),
        clean.stats.to_json(),
        "masking must leave deterministic stats byte-identical"
    );
}

#[test]
fn rejuvenation_fires_and_preserves_stats() {
    let cfg = tiny();
    let base = run_fleet_replicated(
        &cfg,
        &ReplicaOptions { replicas: 2, rejuvenate_every: None, chaos: ChaosConfig::off() },
    )
    .expect("base run");
    let rej = run_fleet_replicated(
        &cfg,
        &ReplicaOptions { replicas: 2, rejuvenate_every: Some(3), chaos: ChaosConfig::off() },
    )
    .expect("rejuvenated run");
    let sup = rej.supervision.expect("supervision");
    assert!(sup.rejuvenations >= 2, "cadence 3 over 6 requests must fire");
    assert_eq!(rej.stats.to_json(), base.stats.to_json(), "rejuvenation is stats-neutral");
}

#[test]
fn checkpoint_from_another_run_is_refused() {
    use indra_fleet::ScratchDir;
    use indra_persist::SnapshotStore;
    use indra_replica::{ReplicaError, ReplicaGroup};

    let cfg = FleetConfig { shards: 1, requests_per_shard: 8, ..FleetConfig::quick() };
    let dir = ScratchDir::create("replica-foreign-checkpoint").expect("scratch dir");
    let store = || SnapshotStore::create(dir.path()).expect("store");
    let group = |checkpoint_every, rejuvenate_every| {
        ReplicaGroup::new(&cfg, cfg.plan(0), 1, checkpoint_every, rejuvenate_every, store(), vec![])
            .expect("group")
    };
    // This run checkpoints at request 4 and rejuvenates every 2
    // requests, from its own checkpoint once it has one.
    let mut run = group(4, Some(2));
    for _ in 0..4 {
        assert!(run.step().expect("the run's own history revives"));
    }
    // Another run sharing the store overwrites the shard's checkpoint.
    let mut intruder = group(2, None);
    for _ in 0..2 {
        assert!(intruder.step().expect("the other run"));
    }
    assert!(run.step().expect("request 4 needs no revival"));
    match run.step() {
        Err(ReplicaError::ForeignCheckpoint { shard: 0, expected, found }) => {
            assert_ne!(expected, found);
        }
        other => panic!("a foreign checkpoint must be refused, got {other:?}"),
    }
}
