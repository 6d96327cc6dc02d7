//! What the two batch workloads (`fleet_mix`, `vote_k3`) share: set-up
//! timing through the same public calls a shard makes before its first
//! request, rounds of fleet calls until the window is spent, the
//! correctness checks on every `FleetStats`, and the end-to-end metrics.

use std::time::Instant;

use indra_fleet::{shard_schedule, FleetConfig, FleetReport};
use indra_workloads::build_app_scaled;

use crate::calib;
use crate::layers;
use crate::stats::{median, quartiles, Outcomes};
use crate::trace::{Tracer, NO_REQUEST};
use crate::{Metrics, Outcome};

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Builds every shard of `cfgs` the way a fleet call does before its
/// first request: the service image and traffic schedule
/// (`workloads.build`), then `cells` deployed systems per shard
/// (`core.deploy`).
pub fn set_up(t: &mut Tracer, cfgs: &[FleetConfig], cells: usize) {
    for cfg in cfgs {
        for plan in cfg.plans() {
            let image = t.span("workloads.build", NO_REQUEST, |_| {
                let image = build_app_scaled(plan.app, cfg.scale);
                std::hint::black_box(shard_schedule(cfg, &plan).len());
                image
            });
            for _ in 0..cells {
                std::hint::black_box(layers::deploy(t, &image));
            }
        }
    }
}

/// Times [`SETUP_REPS`] set-ups, with the host-speed kernel run
/// between them; returns each one's seconds at the reference speed.
pub fn measure_setup(t: &mut Tracer, cfgs: &[FleetConfig], cells: usize) -> Vec<f64> {
    let mut before = calib::kernel_s();
    (0..SETUP_REPS)
        .map(|_| {
            let t0 = Instant::now();
            t.span("phase.setup", NO_REQUEST, |t| set_up(t, cfgs, cells));
            let host_s = layers::since(t0);
            let after = calib::kernel_s();
            let kernel_s = (before + after) / 2.0;
            before = after;
            calib::at_reference(host_s, kernel_s)
        })
        .collect()
}

/// The `workloads.build_ms` and `core.deploy_ms` metrics: per set-up,
/// the time spent in each, medians over the set-ups.
pub fn report_setup_layers(t: &Tracer, m: &mut Metrics) {
    let spans = t.spans();
    let mut build = Vec::new();
    let mut deploy = Vec::new();
    for (i, _) in spans.iter().enumerate().filter(|(_, s)| s.name == "phase.setup") {
        let within = |name: &str| {
            spans
                .iter()
                .filter(|s| s.name == name && s.parent == Some(i))
                .map(|s| s.duration_ns() as f64 * 1e-6)
                .sum::<f64>()
        };
        build.push(within("workloads.build"));
        deploy.push(within("core.deploy"));
    }
    if !build.is_empty() {
        m.put("workloads.build_ms", median(&build));
        m.put("core.deploy_ms", median(&deploy));
    }
}

/// One fleet call.
#[derive(Debug)]
pub struct Call {
    /// Index into the round's configs.
    pub cfg: usize,
    /// Whether the call ran traced.
    pub traced: bool,
    /// Host seconds from call to return.
    pub wall_s: f64,
    /// The host-speed kernel's time beside the call: the mean of its
    /// runs just before and just after.
    pub kernel_s: f64,
    /// Peak resident set, in MiB, while the call ran.
    pub peak_rss_mb: f64,
    /// What it returned.
    pub report: FleetReport,
}

/// Runs whole rounds (every config once, in order) until `seconds`
/// have passed, with the host-speed kernel run between calls. With
/// `alternate`, odd rounds run traced and even ones untraced, so the two
/// can be compared.
///
/// # Errors
///
/// The first failed call.
pub fn run_rounds(
    t: &mut Tracer,
    cfgs: &[FleetConfig],
    seconds: f64,
    alternate: bool,
    mut call: impl FnMut(&mut Tracer, usize, &FleetConfig) -> Result<FleetReport, String>,
) -> Result<Vec<Call>, String> {
    let traced = t.is_on();
    let started = Instant::now();
    let mut calls = Vec::new();
    let mut round = 0usize;
    let mut before = calib::kernel_s();
    while round < 1 + usize::from(alternate) || layers::since(started) < seconds {
        let on = traced && (!alternate || round % 2 == 1);
        t.set_on(on);
        for (i, cfg) in cfgs.iter().enumerate() {
            let req = (round * cfgs.len() + i) as u64;
            crate::host::reset_peak_rss();
            let t0 = Instant::now();
            let report = t.span("phase.round", req, |t| call(t, i, cfg))?;
            let wall_s = layers::since(t0);
            let after = calib::kernel_s();
            calls.push(Call {
                cfg: i,
                traced: on,
                wall_s,
                kernel_s: (before + after) / 2.0,
                peak_rss_mb: crate::host::peak_rss_mb(),
                report,
            });
            before = after;
        }
        round += 1;
    }
    t.set_on(traced);
    Ok(calls)
}

/// Checks every call: each benign request served, each attack
/// detected, every shard completed, and the stats of a config identical
/// on every repeat. Returns the summed outcome counts.
pub fn check_calls(out: &mut Outcome, calls: &[Call]) -> Outcomes {
    let mut first: Vec<Option<String>> = Vec::new();
    let mut total = Outcomes::default();
    for c in calls {
        let s = &c.report.stats;
        total.absorb(Outcomes {
            benign_sent: s.benign_sent,
            benign_served: s.benign_served,
            attacks_sent: s.attacks_sent,
            attacks_detected: s.true_detections,
            ..Outcomes::default()
        });
        out.check(s.benign_served == s.benign_sent, || {
            format!(
                "config {}: {} of {} benign requests served",
                c.cfg, s.benign_served, s.benign_sent
            )
        });
        out.check(s.true_detections == s.attacks_sent, || {
            format!(
                "config {}: {} of {} attacks detected",
                c.cfg, s.true_detections, s.attacks_sent
            )
        });
        out.check(s.per_shard.iter().all(|p| p.completed), || {
            format!("config {}: a shard did not complete", c.cfg)
        });
        if first.len() <= c.cfg {
            first.resize(c.cfg + 1, None);
        }
        let json = s.to_json();
        match &first[c.cfg] {
            None => first[c.cfg] = Some(json),
            Some(seen) => out.check(*seen == json, || {
                format!("config {}: FleetStats differ between repeats", c.cfg)
            }),
        }
    }
    total
}

/// The end-to-end metrics of a batch workload from its calls and
/// set-up samples.
///
/// Every config of a round repeats with identical work (the stats are
/// checked byte for byte), so each config's host time is the median
/// over its repeats, each scaled to the reference host speed with the
/// kernel run beside it. Rates divide one round's work by the sum of
/// those times.
pub fn report_end_to_end(m: &mut Metrics, calls: &[Call], setup: &[f64]) {
    let cfgs = calls.iter().map(|c| c.cfg).max().map_or(0, |n| n + 1);
    let (mut wall, mut disposed, mut good, mut insns, mut cycles, mut served, mut samples) =
        (0.0, 0, 0, 0, 0, 0, 0);
    let (mut p50, mut raw_wall) = (0.0, 0.0);
    for cfg in 0..cfgs {
        let mine: Vec<&Call> = calls.iter().filter(|c| c.cfg == cfg).collect();
        let s = &mine[0].report.stats;
        let w = median(
            &mine.iter().map(|c| calib::at_reference(c.wall_s, c.kernel_s)).collect::<Vec<_>>(),
        );
        raw_wall += median(&mine.iter().map(|c| c.wall_s).collect::<Vec<_>>());
        // Host seconds per simulated cycle the config's shards ran at.
        let per_cycle = median(
            &mine
                .iter()
                .map(|c| {
                    let host_s: f64 = c.report.shard_host.iter().map(|h| h.wall_seconds).sum();
                    let sim: u64 = c.report.stats.per_shard.iter().map(|p| p.sim_cycles).sum();
                    calib::at_reference(host_s / sim.max(1) as f64, c.kernel_s)
                })
                .collect::<Vec<_>>(),
        );
        wall += w;
        disposed += s.served + s.true_detections;
        good += s.benign_served + s.true_detections;
        insns += mine[0].report.shard_host.iter().map(|h| h.insns).sum::<u64>();
        cycles += s.total_shard_cycles;
        served += s.served;
        samples += s.latency.count;
        p50 += s.latency.count as f64 * s.latency.p50 as f64 * per_cycle * 1e3;
    }
    m.put("setup_s", median(setup));
    // Allocator state left by earlier calls inflates a call's peak by
    // an amount that varies from run to run; the least inflated call is
    // the steadiest estimate of the memory the work keeps live.
    m.put("peak_rss_mb", calls.iter().map(|c| c.peak_rss_mb).fold(f64::INFINITY, f64::min));
    m.put("throughput_rps", disposed as f64 / wall);
    m.put("goodput_rps", good as f64 / wall);
    m.put("host_mips", insns as f64 / wall / 1e6);
    m.put("sim_kcycles_per_req", cycles as f64 / served as f64 / 1e3);
    // A request's host-time latency is its delivery-to-response cycles
    // at the host seconds per cycle its config ran at; the p50 is each
    // config's, weighted by the requests it served.
    m.put("lat_p50_ms", p50 / samples.max(1) as f64);
    let [q1, q2, q3] = quartiles(setup);
    let kernel = median(&calls.iter().map(|c| c.kernel_s).collect::<Vec<_>>());
    eprintln!(
        "perfbench: {} calls over {cfgs} configs; one round: {disposed} requests, {wall:.3} s at the \
         reference speed, {raw_wall:.3} s as timed (medians); host-speed kernel {kernel:.4} s \
         (reference {}); {samples} latency samples; setup_s quartiles {q1:.4} {q2:.4} {q3:.4}",
        calls.len(),
        calib::REFERENCE_S
    );
}

/// The `fleet.*` metrics and `trace.overhead` from the calls.
pub fn report_fleet_layers(m: &mut Metrics, calls: &[Call]) {
    let traced: Vec<&Call> = calls.iter().filter(|c| c.traced).collect();
    let mut shard_wall = Vec::new();
    let mut imbalance = Vec::new();
    let mut overhead = Vec::new();
    for c in &traced {
        let walls: Vec<f64> = c.report.shard_host.iter().map(|h| h.wall_seconds).collect();
        let max = walls.iter().copied().fold(0.0, f64::max);
        let mean = walls.iter().sum::<f64>() / walls.len() as f64;
        shard_wall.extend(&walls);
        imbalance.push(if mean > 0.0 { max / mean } else { 1.0 });
        overhead.push(c.wall_s - max);
    }
    if !traced.is_empty() {
        m.put("fleet.shard_wall_s", shard_wall.iter().sum::<f64>() / shard_wall.len() as f64);
        m.put("fleet.imbalance", imbalance.iter().sum::<f64>() / imbalance.len() as f64);
        m.put("fleet.executor_overhead_s", overhead.iter().sum::<f64>() / overhead.len() as f64);
    }
    // Traced wall over untraced wall, per config, over the same work.
    let mean_wall = |on: bool, cfg: usize| {
        let v: Vec<f64> =
            calls.iter().filter(|c| c.traced == on && c.cfg == cfg).map(|c| c.wall_s).collect();
        (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
    };
    let cfgs = calls.iter().map(|c| c.cfg).max().map_or(0, |m| m + 1);
    let (mut on, mut off) = (0.0, 0.0);
    for cfg in 0..cfgs {
        if let (Some(a), Some(b)) = (mean_wall(true, cfg), mean_wall(false, cfg)) {
            on += a;
            off += b;
        }
    }
    if off > 0.0 {
        m.put("trace.overhead", on / off);
    }
}

/// `trace.coverage`: share of the traced phases' wall covered by layer
/// spans.
pub fn report_coverage(t: &Tracer, m: &mut Metrics) {
    let phases: Vec<(u64, u64)> = t
        .spans()
        .iter()
        .filter(|s| s.name.starts_with("phase."))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    let total: u64 = phases.iter().map(|(a, b)| b - a).sum();
    if total == 0 {
        return;
    }
    let covered: f64 = phases
        .iter()
        .map(|&(a, b)| t.coverage(a, b, |n| !n.starts_with("phase.")) * (b - a) as f64)
        .sum();
    m.put("trace.coverage", covered / total as f64);
}
