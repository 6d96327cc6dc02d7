//! `vote_k3`: `indra_replica::run_fleet_replicated` with K = 3 and one
//! shard per call, cycling through the six stock services, with
//! periodic checkpoints and staggered rejuvenation every 16 requests.
//! Chaos is off.
//!
//! It does the delivery work of `fleet_mix` three times over, plus
//! state digests, checkpoint freeze, encode and write, and restores: a
//! digest or codec speed-up shows here and should show nothing on
//! `fleet_mix`.

use indra_fleet::{run_fleet, shard_schedule, ChaosConfig, FleetConfig};
use indra_persist::{CheckpointReceipt, SnapshotStore};
use indra_replica::{run_fleet_replicated, CellVerdict, ReplicaCell, ReplicaOptions};
use indra_rng::derive_seed;
use indra_workloads::ServiceApp;

use crate::batch;
use crate::host::StateDirs;
use crate::layers;
use crate::trace::{Tracer, NO_REQUEST};
use crate::{fleet_mix, Metrics, Outcome, Settings};

/// Replicas per shard.
pub const K: usize = 3;
/// Requests per call.
pub const REQUESTS: u32 = 96;
/// Durable checkpoint cadence, in requests.
pub const CHECKPOINT_EVERY: u32 = 8;
/// Rejuvenation cadence, in requests (staggered across the replicas).
pub const REJUVENATE_EVERY: u64 = 16;

/// The six one-shard configs of one round (store directories are
/// filled in per call).
#[must_use]
pub fn configs(seed: u64) -> Vec<FleetConfig> {
    ServiceApp::ALL
        .iter()
        .enumerate()
        .map(|(i, &app)| FleetConfig {
            shards: 1,
            apps: vec![app],
            requests_per_shard: REQUESTS,
            scale: fleet_mix::SCALE,
            attack_per_mille: 125,
            seed: derive_seed(seed, i as u64),
            checkpoint_every: CHECKPOINT_EVERY,
            store_dir: None,
            ..FleetConfig::default()
        })
        .collect()
}

/// Runs the workload.
///
/// # Errors
///
/// A state directory that cannot be created, or a failed fleet call.
pub fn run(s: &Settings) -> Result<Outcome, String> {
    let cfgs = configs(s.seed);
    let mut dirs =
        StateDirs::new(&s.state_root, "vote_k3", s.seed).map_err(|e| format!("state dir: {e}"))?;
    let mut t = Tracer::new(s.trace);
    let mut out = Outcome::default();
    let setup = batch::measure_setup(&mut t, &cfgs, K);
    let window = if s.trace { s.seconds * 0.5 } else { s.seconds };
    let opts = ReplicaOptions {
        replicas: K,
        rejuvenate_every: Some(REJUVENATE_EVERY),
        chaos: ChaosConfig::off(),
    };
    let calls = batch::run_rounds(&mut t, &cfgs, window, s.trace, |t, i, cfg| {
        let dir = dirs.fresh().map_err(|e| format!("state dir: {e}"))?;
        let cfg = FleetConfig { store_dir: Some(dir.as_string()), ..cfg.clone() };
        t.span("replica.run_fleet_replicated", i as u64, |_| run_fleet_replicated(&cfg, &opts))
    })?;
    let outcomes = batch::check_calls(&mut out, &calls);
    for c in &calls {
        let sup = c.report.supervision.as_ref();
        out.check(sup.is_some_and(|s| s.divergences == 0 && s.quarantined_requests == 0), || {
            format!("config {}: replicas diverged with chaos off", c.cfg)
        });
        out.check(sup.is_some_and(|s| s.rejuvenations > 0), || {
            format!("config {}: no rejuvenation ran", c.cfg)
        });
    }
    // The voted stats must equal an unreplicated run of the same config.
    for (i, cfg) in cfgs.iter().enumerate() {
        let Some(voted) = calls.iter().find(|c| c.cfg == i) else { continue };
        let dir = dirs.fresh().map_err(|e| format!("state dir: {e}"))?;
        let plain = run_fleet(&FleetConfig { store_dir: Some(dir.as_string()), ..cfg.clone() });
        out.check(plain.stats.to_json() == voted.report.stats.to_json(), || {
            format!("config {i} ({}): K=3 FleetStats differ from run_fleet's", cfg.apps[0])
        });
    }
    out.attempted = outcomes.attempted();
    out.failed = outcomes.failed();
    eprintln!("perfbench: fail_ratio {:.6}: {}", outcomes.fail_ratio(), outcomes.describe());
    batch::report_end_to_end(&mut out.metrics, &calls, &setup);
    if s.trace {
        let counts =
            t.span("phase.core_probe", NO_REQUEST, |t| fleet_mix::core_probe(t, &cfgs, &mut out));
        counts.report(&mut out.metrics);
        let probe = t.span("phase.replica_probe", NO_REQUEST, |t| {
            replica_probe(t, &cfgs, &mut dirs, &mut out)
        })?;
        let m = &mut out.metrics;
        layers::report_deliver(&t, m);
        layers::report_checkpoints(&t, &probe.receipts, m);
        report_replica_layers(&t, probe.rejuvenations, m);
        batch::report_setup_layers(&t, m);
        batch::report_fleet_layers(m, &calls);
        batch::report_coverage(&t, m);
        out.tracer = Some(t);
    }
    Ok(out)
}

/// What the replica probe produced besides spans.
struct Probe {
    receipts: Vec<CheckpointReceipt>,
    rejuvenations: u64,
}

/// Drives one round through three `ReplicaCell`s per config the way a
/// replica group does — parallel delivery and digest, a vote, periodic
/// checkpoints of the leader and staggered rejuvenation from the store —
/// with a span around each public call.
fn replica_probe(
    t: &mut Tracer,
    cfgs: &[FleetConfig],
    dirs: &mut StateDirs,
    out: &mut Outcome,
) -> Result<Probe, String> {
    let mut probe = Probe { receipts: Vec::new(), rejuvenations: 0 };
    let mut request = 0u64;
    for cfg in cfgs {
        let plan = cfg.plan(0);
        let build = || ReplicaCell::build(cfg, &plan).map_err(|e| format!("replica cell: {e}"));
        let mut cells = (0..K).map(|_| build()).collect::<Result<Vec<_>, _>>()?;
        let schedule: Vec<(Vec<u8>, bool)> =
            shard_schedule(cfg, &plan).into_iter().map(|r| (r.data, r.malicious)).collect();
        let dir = dirs.fresh().map_err(|e| format!("state dir: {e}"))?;
        let store = SnapshotStore::create(dir.path()).map_err(|e| format!("store: {e}"))?;
        let mut writer = store.shard_writer(0).map_err(|e| format!("store: {e}"))?;
        for (seq, (data, malicious)) in schedule.iter().enumerate() {
            let ballots: Vec<(CellVerdict, u64, u64)> = std::thread::scope(|scope| {
                let workers: Vec<_> = cells
                    .iter_mut()
                    .map(|cell| {
                        let mut tt = t.child();
                        let data = data.clone();
                        scope.spawn(move || {
                            let (verdict, output) = tt.span("replica.deliver", request, |_| {
                                cell.deliver(data, *malicious)
                            });
                            let digest =
                                tt.span("replica.digest", request, |_| cell.digest().value);
                            (tt, (verdict, output, digest))
                        })
                    })
                    .collect();
                workers
                    .into_iter()
                    .map(|w| {
                        let (tt, ballot) = w.join().expect("replica probe thread does not panic");
                        t.absorb(tt);
                        ballot
                    })
                    .collect()
            });
            out.check(ballots.windows(2).all(|w| w[0] == w[1]), || {
                format!("{} request {seq}: replicas disagree", plan.app)
            });
            let served = matches!(ballots[0].0, CellVerdict::Served { .. });
            let detected = matches!(ballots[0].0, CellVerdict::Detected { .. });
            out.check(if *malicious { detected } else { served }, || {
                format!(
                    "{} request {seq}: {:?} for a {} request",
                    plan.app,
                    ballots[0].0,
                    if *malicious { "malicious" } else { "benign" }
                )
            });
            let cursor = seq as u64 + 1;
            if cursor.is_multiple_of(u64::from(CHECKPOINT_EVERY)) {
                let receipt =
                    layers::checkpoint(t, &mut writer, || cells[0].freeze(), &cursor.to_le_bytes())
                        .map_err(|e| format!("checkpoint: {e}"))?;
                probe.receipts.push(receipt);
            }
            for (r, cell) in cells.iter_mut().enumerate() {
                if !(cursor + r as u64 * REJUVENATE_EVERY / K as u64)
                    .is_multiple_of(REJUVENATE_EVERY)
                {
                    continue;
                }
                t.span("replica.revive", request, |t| -> Result<(), String> {
                    let loaded =
                        t.span("persist.restore", request, |_| -> Result<u64, String> {
                            match store.load_shard(0).map_err(|e| format!("load: {e}"))? {
                                Some(l) => {
                                    cell.restore(&l.state);
                                    let bytes: [u8; 8] = l
                                        .progress
                                        .as_slice()
                                        .try_into()
                                        .map_err(|_| "progress blob")?;
                                    Ok(u64::from_le_bytes(bytes))
                                }
                                None => {
                                    *cell = build()?;
                                    Ok(0)
                                }
                            }
                        })?;
                    for s in loaded..cursor {
                        let (d, m) = schedule[usize::try_from(s).expect("fits")].clone();
                        t.span("replica.replay", request, |_| cell.deliver(d, m));
                    }
                    Ok(())
                })?;
                probe.rejuvenations += 1;
                let healed = cell.digest().value;
                out.check(healed == ballots[0].2, || {
                    format!(
                        "{} request {seq}: revived replica {r} differs from the group",
                        plan.app
                    )
                });
            }
            request += 1;
        }
    }
    Ok(probe)
}

fn report_replica_layers(t: &Tracer, rejuvenations: u64, m: &mut Metrics) {
    let deliver = t.durations_s("replica.deliver");
    let digest = t.durations_s("replica.digest");
    layers::put_us_percentiles(m, "replica.deliver_us.p50", "replica.deliver_us.p99", &deliver);
    layers::put_us_percentiles(m, "replica.digest_us.p50", "replica.digest_us.p99", &digest);
    let (dg, dl) = (digest.iter().sum::<f64>(), deliver.iter().sum::<f64>());
    if dg + dl > 0.0 {
        m.put("replica.digest_share", dg / (dg + dl));
    }
    m.put("replica.revive_ms", layers::mean_s(t, "replica.revive") * 1e3);
    m.put("persist.restore_ms", layers::mean_s(t, "persist.restore") * 1e3);
    m.put("replica.rejuvenations", rejuvenations as f64);
}
