//! Every flag is honoured on every path: each simulation knob of
//! `FleetConfig` must reach the cell that every executor builds — the
//! open-loop fleet shard, a replica cell and a serve runner — through
//! the one `FleetConfig::engine` projection, and the system each of
//! them runs must be exactly `EngineConfig::system_config()`.

use indra::core::SchemeKind;
use indra::fleet::sweep::parse_args;
use indra::fleet::{run_fleet, shard_engine, Engine, EngineConfig, FleetConfig};
use indra::serve::ShardRunner;
use indra::workloads::ServiceApp;
use indra_replica::{run_fleet_replicated, ReplicaCell, ReplicaOptions};

/// The base config with one knob flipped, for every simulation knob.
fn flipped(base: &FleetConfig) -> Vec<(&'static str, FleetConfig)> {
    vec![
        ("scheme", FleetConfig { scheme: SchemeKind::UndoLog, ..base.clone() }),
        ("fifo_entries", FleetConfig { fifo_entries: base.fifo_entries * 2, ..base.clone() }),
        ("cam_entries", FleetConfig { cam_entries: base.cam_entries * 2, ..base.clone() }),
        ("fast_paths", FleetConfig { fast_paths: !base.fast_paths, ..base.clone() }),
        ("superblocks", FleetConfig { superblocks: !base.superblocks, ..base.clone() }),
        ("compartments", FleetConfig { compartments: !base.compartments, ..base.clone() }),
        ("scale", FleetConfig { scale: base.scale + 10, ..base.clone() }),
        (
            "run_slice_steps",
            FleetConfig { run_slice_steps: base.run_slice_steps / 2, ..base.clone() },
        ),
    ]
}

/// Asserts that `engine` runs exactly `want`: the engine config it was
/// built from and the system config its `IndraSystem` holds.
fn assert_runs(path: &str, knob: &str, engine: &Engine, want: &EngineConfig) {
    assert_eq!(engine.config(), want, "{path}: {knob} did not reach the engine config");
    assert_eq!(
        engine.system().config(),
        &want.system_config(),
        "{path}: {knob} did not reach the system config"
    );
}

fn assert_every_executor_runs(knob: &str, cfg: &FleetConfig) {
    let plan = cfg.plan(0);
    let want = cfg.engine(plan.app);
    assert_runs("fleet shard", knob, &shard_engine(cfg, &plan).expect("shard"), &want);
    let cell = ReplicaCell::build(cfg, &plan).expect("replica cell");
    assert_runs("replica cell", knob, cell.engine(), &want);
    let runner = ShardRunner::new(want.clone(), 0).expect("serve runner");
    assert_runs("serve runner", knob, runner.engine(), &want);
}

#[test]
fn every_sim_knob_changes_the_engine_and_reaches_every_executor() {
    let base = FleetConfig { scale: 60, ..FleetConfig::quick() };
    assert_every_executor_runs("defaults", &base);
    for (knob, cfg) in flipped(&base) {
        assert_ne!(
            cfg.engine(ServiceApp::Httpd),
            base.engine(ServiceApp::Httpd),
            "flipping {knob} must change the engine config"
        );
        assert_every_executor_runs(knob, &cfg);
    }
}

#[test]
fn no_compartments_reaches_replica_cells_at_k1_and_k3() {
    for k in ["1", "3"] {
        let argv = ["--quick", "--replicas", k, "--no-compartments"];
        let args = parse_args(argv.iter().map(|a| (*a).to_string())).expect("flags parse");
        assert!(!args.base.compartments, "--no-compartments must clear the fleet knob");
        assert_every_executor_runs("--no-compartments", &args.base);
    }
}

#[test]
fn replicated_runs_without_compartments_match_the_plain_executor() {
    // Dormant plants are where compartments change outcomes, so this
    // mix tells a replicated run that ignored the flag from one that
    // honoured it.
    let on = FleetConfig {
        shards: 1,
        requests_per_shard: 12,
        attack_per_mille: 400,
        include_dormant_attacks: true,
        ..FleetConfig::quick()
    };
    let off = FleetConfig { compartments: false, ..on.clone() };
    let plain_on = run_fleet(&on).stats.to_json();
    let plain_off = run_fleet(&off).stats.to_json();
    assert_ne!(plain_on, plain_off, "the mix must make compartments matter");
    for replicas in [1, 3] {
        let opts = ReplicaOptions { replicas, ..ReplicaOptions::default() };
        let voted = run_fleet_replicated(&off, &opts).expect("replicated run");
        assert_eq!(voted.stats.to_json(), plain_off, "K={replicas} ignored --no-compartments");
    }
}
