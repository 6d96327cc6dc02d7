//! `fleet_mix`: `indra_fleet::run_fleet` with two shards, the 125‰
//! detectable-attack mix and no checkpointing, once per stock service
//! (both shards serve it) so all six are served.
//!
//! One service per call keeps each call's latency digest unimodal: a
//! median pooled over two services whose request lengths differ (bind's
//! are a quarter of sendmail's) falls between them and flips from one
//! to the other with the seed.
//!
//! Almost all of its work is the monitored interpreter: the simulator,
//! the memory model, the monitor and the delta or compartment backup.
//! Persistence, digests and framing are bypassed, so it is the control
//! for every other optimisation.

use indra_fleet::{run_fleet, shard_schedule, FleetConfig};
use indra_rng::derive_seed;
use indra_workloads::{build_app_scaled, ServiceApp};

use crate::batch;
use crate::layers::{self, Counts, Delivered};
use crate::trace::{Tracer, NO_REQUEST};
use crate::{Outcome, Settings};

/// Requests per shard per call.
pub const REQUESTS_PER_SHARD: u32 = 128;
/// Work-scale divisor of every service image.
pub const SCALE: u32 = 40;

/// The six two-shard configs of one round.
#[must_use]
pub fn configs(seed: u64) -> Vec<FleetConfig> {
    ServiceApp::ALL
        .iter()
        .enumerate()
        .map(|(i, &app)| FleetConfig {
            shards: 2,
            apps: vec![app],
            requests_per_shard: REQUESTS_PER_SHARD,
            scale: SCALE,
            attack_per_mille: 125,
            seed: derive_seed(seed, i as u64),
            checkpoint_every: 0,
            store_dir: None,
            ..FleetConfig::default()
        })
        .collect()
}

/// Runs the workload.
///
/// # Errors
///
/// Never; a failed check is reported through the outcome.
pub fn run(s: &Settings) -> Result<Outcome, String> {
    let cfgs = configs(s.seed);
    let mut t = Tracer::new(s.trace);
    let mut out = Outcome::default();
    let setup = batch::measure_setup(&mut t, &cfgs, 1);
    let window = if s.trace { s.seconds * 0.5 } else { s.seconds };
    let calls = batch::run_rounds(&mut t, &cfgs, window, s.trace, |t, i, cfg| {
        Ok(t.span("fleet.run_fleet", i as u64, |_| run_fleet(cfg)))
    })?;
    let outcomes = batch::check_calls(&mut out, &calls);
    out.attempted = outcomes.attempted();
    out.failed = outcomes.failed();
    eprintln!("perfbench: fail_ratio {:.6}: {}", outcomes.fail_ratio(), outcomes.describe());
    batch::report_end_to_end(&mut out.metrics, &calls, &setup);
    if s.trace {
        let counts = t.span("phase.core_probe", NO_REQUEST, |t| core_probe(t, &cfgs, &mut out));
        let m = &mut out.metrics;
        counts.report(m);
        layers::report_deliver(&t, m);
        batch::report_setup_layers(&t, m);
        batch::report_fleet_layers(m, &calls);
        batch::report_coverage(&t, m);
        out.tracer = Some(t);
    }
    Ok(out)
}

/// Drives every shard of one round directly through `indra_core`, one
/// request pushed and run to idle at a time, the shards of a config on
/// their own threads as `run_fleet` runs them. Returns the cells'
/// deterministic counts.
pub fn core_probe(t: &mut Tracer, cfgs: &[FleetConfig], out: &mut Outcome) -> Counts {
    let mut total = Counts::default();
    let mut next_request = 0u64;
    for cfg in cfgs {
        let plans = cfg.plans();
        let results: Vec<(Tracer, Counts, Vec<String>)> = std::thread::scope(|scope| {
            let workers: Vec<_> = plans
                .iter()
                .map(|plan| {
                    let mut tt = t.child();
                    let first = next_request;
                    next_request += u64::from(cfg.requests_per_shard) * 2;
                    scope.spawn(move || {
                        let image = build_app_scaled(plan.app, cfg.scale);
                        let schedule = shard_schedule(cfg, plan);
                        let mut sys = layers::deploy(&mut tt, &image);
                        let mut problems = Vec::new();
                        let n = schedule.len() as u64;
                        for (k, r) in schedule.into_iter().enumerate() {
                            let got = layers::deliver(
                                &mut tt,
                                &mut sys,
                                r.data,
                                r.malicious,
                                first + k as u64,
                            );
                            let want =
                                if r.malicious { Delivered::Detected } else { Delivered::Served };
                            if got != want {
                                problems.push(format!(
                                    "{} request {k}: {got:?}, expected {want:?}",
                                    plan.app
                                ));
                            }
                        }
                        let counts = Counts::of(&sys, n);
                        (tt, counts, problems)
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("probe thread does not panic")).collect()
        });
        for (tt, counts, problems) in results {
            t.absorb(tt);
            total.absorb(&counts);
            out.problems.extend(problems);
        }
    }
    total
}
