//! `service_open`: an in-process `indra_serve::Daemon` running httpd
//! with two shards, a bounded queue, checkpoints every 8 requests and
//! one replica, reached over loopback TCP by an open-loop client at a
//! steady rate well below the knee and at an overload rate above it.
//!
//! It is the only workload where framing, admission queues, the
//! write-ahead ingress log and fsync'd checkpoints sit on the request
//! path, so a stall there shows up as queueing delay on later requests.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use indra_fleet::FleetStats;
use indra_persist::{
    read_ingress_log, IngressKind, IngressRecord, IngressWriter, SnapshotStore, INGRESS_FILE,
};
use indra_rng::{derive_seed, Rng};
use indra_serve::{replay_state_dir, Daemon, EngineConfig, ServeConfig, ShardRunner, Verdict};
use indra_workloads::{
    attack_request, benign_request, build_app_scaled, detectable_attack_suite, ServiceApp,
};

use crate::batch;
use crate::calib;
use crate::client::{self, Answer, PhaseRun};
use crate::host::{StateDir, StateDirs};
use crate::layers::{self, Counts};
use crate::stats::{median, percentile, tail, Outcomes};
use crate::trace::{Tracer, NO_REQUEST};
use crate::{Metrics, Outcome, Settings};

/// Live shards.
pub const SHARDS: usize = 2;
/// Ingress queue depth per shard.
pub const QUEUE_DEPTH: usize = 16;
/// Durable checkpoint cadence, in admitted requests.
pub const CHECKPOINT_EVERY: u32 = 8;
/// Daemon set-ups per run beyond the two measured phases.
const EXTRA_SETUPS: usize = 3;
/// Share of the window spent at the steady rate.
const STEADY_SHARE: f64 = 0.6;
/// Share of the window spent at the overload rate.
const OVERLOAD_SHARE: f64 = 0.35;
/// Every this many requests, the client sends two at once.
const PAIR_EVERY: usize = 32;
/// How long the client waits for answers after its last send.
const DRAIN: Duration = Duration::from_secs(10);

fn engine(seed: u64) -> EngineConfig {
    EngineConfig { app: ServiceApp::Httpd, seed, ..EngineConfig::default() }
}

/// The request mix: 125‰ detectable attacks, the rest benign.
fn payloads(seed: u64, n: usize, image: &indra_isa::Image) -> Vec<(bool, Vec<u8>)> {
    let attacks = detectable_attack_suite(image);
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let malicious = rng.ratio(125, 1000) && !attacks.is_empty();
            let data = if malicious {
                attack_request(*rng.pick(&attacks), image)
            } else {
                benign_request(rng.gen_u8(), rng.gen_u8())
            };
            (malicious, data)
        })
        .collect()
}

/// A started daemon whose every shard has answered one request.
struct Live {
    daemon: Daemon,
    dir: StateDir,
    setup_s: f64,
}

/// `Daemon::start` plus one warm-up request per shard (round-robin
/// routing sends them to different shards): set-up ends when every
/// shard can serve. Its time is scaled to the reference host speed
/// with the host-speed kernel run just before and just after.
fn start(dirs: &mut StateDirs, seed: u64) -> Result<Live, String> {
    let dir = dirs.fresh().map_err(|e| format!("state dir: {e}"))?;
    let before = calib::kernel_s();
    let t0 = Instant::now();
    let daemon = Daemon::start(ServeConfig {
        engine: engine(seed),
        shards: SHARDS,
        queue_depth: QUEUE_DEPTH,
        checkpoint_every: CHECKPOINT_EVERY,
        state_dir: dir.path().to_path_buf(),
        port: 0,
        replicas: 1,
        rejuvenate_every: None,
    })
    .map_err(|e| format!("daemon start: {e}"))?;
    let warm: Vec<(bool, Vec<u8>)> =
        (0..SHARDS as u8).map(|i| (false, benign_request(i, i))).collect();
    let offsets = client::paced_offsets(Duration::ZERO, warm.len(), 0);
    let run = client::run_phase(daemon.addr(), &offsets, &warm, 0, DRAIN, false)
        .map_err(|e| format!("warm-up: {e}"))?;
    let host_s = layers::since(t0);
    let setup_s = calib::at_reference(host_s, (before + calib::kernel_s()) / 2.0);
    if !run
        .samples
        .iter()
        .all(|s| matches!(s.answer, Answer::Response { verdict: Verdict::Served, .. }))
    {
        return Err("warm-up requests were not served".into());
    }
    Ok(Live { daemon, dir, setup_s })
}

/// Stops the daemon and checks that replaying its state directory
/// reproduces the live stats byte for byte.
fn stop(live: Live, out: &mut Outcome, phase: &str) -> Result<(FleetStats, StateDir), String> {
    let report = live.daemon.stop().map_err(|e| format!("daemon stop: {e}"))?;
    let replay = replay_state_dir(live.dir.path()).map_err(|e| format!("replay: {e}"))?;
    out.check(replay.stats.to_json() == report.stats.to_json(), || {
        format!("{phase}: replay_state_dir does not reproduce the live stats")
    });
    Ok((report.stats, live.dir))
}

/// Runs the workload.
///
/// # Errors
///
/// Daemon, socket or state-directory failure.
pub fn run(s: &Settings) -> Result<Outcome, String> {
    let mut dirs = StateDirs::new(&s.state_root, "service_open", s.seed)
        .map_err(|e| format!("state dir: {e}"))?;
    let mut t = Tracer::new(s.trace);
    let mut out = Outcome::default();
    let image = build_app_scaled(ServiceApp::Httpd, engine(0).scale);
    let n_steady = (s.steady_rps * s.seconds * STEADY_SHARE).round() as usize;
    let n_over = (s.overload_rps * s.seconds * OVERLOAD_SHARE).round() as usize;
    let steady_load = payloads(derive_seed(s.seed, 0), n_steady, &image);
    let over_load = payloads(derive_seed(s.seed, 1), n_over, &image);
    // The client paces evenly but sends every PAIR_EVERY-th request
    // together with the one before it; the README explains what the
    // pairs do to the connection.
    let steady_due =
        client::paced_offsets(Duration::from_secs_f64(1.0 / s.steady_rps), n_steady, PAIR_EVERY);
    let over_due =
        client::paced_offsets(Duration::from_secs_f64(1.0 / s.overload_rps), n_over, PAIR_EVERY);

    // The steady phase runs first, in a process that has served nothing
    // yet; the peak resident set is the steady daemon's.
    let mut setup = Vec::new();
    crate::host::reset_peak_rss();
    let live = start(&mut dirs, s.seed)?;
    setup.push(live.setup_s);
    let steady =
        phase(&mut t, "phase.steady", live.daemon.addr(), &steady_due, &steady_load, s.trace)?;
    let peak_rss = crate::host::peak_rss_mb();
    let (steady_stats, steady_dir) = stop(live, &mut out, "steady")?;
    let live = start(&mut dirs, s.seed)?;
    setup.push(live.setup_s);
    let over = phase(&mut t, "phase.overload", live.daemon.addr(), &over_due, &over_load, s.trace)?;
    stop(live, &mut out, "overload")?;
    for _ in 0..EXTRA_SETUPS {
        let live = start(&mut dirs, s.seed)?;
        setup.push(live.setup_s);
        live.daemon.stop().map_err(|e| format!("daemon stop: {e}"))?;
    }
    if s.trace {
        for _ in 0..batch::SETUP_REPS {
            t.span("phase.setup", NO_REQUEST, |t| {
                let image = t.span("workloads.build", NO_REQUEST, |_| {
                    let image = build_app_scaled(ServiceApp::Httpd, engine(0).scale);
                    std::hint::black_box(payloads(derive_seed(s.seed, 0), n_steady, &image).len());
                    image
                });
                for _ in 0..SHARDS {
                    std::hint::black_box(layers::deploy(t, &image));
                }
            });
        }
    }
    let replayed = t.span("phase.replay_probe", NO_REQUEST, |t| {
        replay_probe(t, steady_dir.path(), s.seed, &mut dirs)
    })?;
    drop(steady_dir);

    let steady_o = tally(&steady, &steady_load, &mut out, "steady");
    let over_o = tally(&over, &over_load, &mut out, "overload");
    let mut all = steady_o;
    all.absorb(over_o);
    out.attempted = all.attempted();
    // Shedding at the overload rate is the admission control doing its
    // job: it counts in fail_ratio, not as a failed operation.
    out.failed = all.failed() - over_o.rejected;
    eprintln!("perfbench: fail_ratio {:.6}: {}", all.fail_ratio(), all.describe());

    let m = &mut out.metrics;
    m.put("setup_s", median(&setup));
    m.put("peak_rss_mb", peak_rss);
    let lat: Vec<f64> = steady
        .samples
        .iter()
        .filter(|x| matches!(x.answer, Answer::Response { .. }))
        .filter_map(client::Sample::latency_ms)
        .collect();
    if lat.is_empty() {
        return Err("no answers at the steady rate".into());
    }
    let tl = tail(&lat);
    m.put("lat_p50_ms", percentile(&lat, 50.0));
    m.put("serve.lat_p99_ms", tl.value);
    eprintln!(
        "perfbench: steady latency p{} {:.3} ms of {} samples",
        tl.percentile, tl.value, tl.samples
    );
    m.put("goodput_rps", goodput(&over, &over_load, s.p99_limit_ms));
    let responses = |r: &PhaseRun| {
        r.samples.iter().filter(|x| matches!(x.answer, Answer::Response { .. })).count()
    };
    let span = steady.span_s() + over.span_s();
    m.put("throughput_rps", (responses(&steady) + responses(&over)) as f64 / span);
    m.put("host_mips", replayed.insns as f64 / steady.span_s() / 1e6);
    m.put(
        "sim_kcycles_per_req",
        steady_stats.total_shard_cycles as f64 / steady_stats.served as f64 / 1e3,
    );

    if s.trace {
        replayed.counts.report(m);
        layers::report_deliver(&t, m);
        layers::report_checkpoints(&t, &replayed.receipts, m);
        m.put("persist.ingress_append_us", layers::mean_s(&t, "persist.ingress_append") * 1e6);
        m.put("persist.ingress_sync_ms", layers::mean_s(&t, "persist.ingress_sync") * 1e3);
        batch::report_setup_layers(&t, m);
        report_serve_layers(m, &steady, &over, &replayed.service_s);
        batch::report_coverage(&t, m);
        m.put("trace.overhead", tracing_overhead(&t));
        out.tracer = Some(t);
    }
    Ok(out)
}

/// One open-loop phase; with tracing, each answered request becomes a
/// `serve.request` span from its due time to its answer.
fn phase(
    t: &mut Tracer,
    name: &'static str,
    addr: SocketAddr,
    offsets: &[Duration],
    load: &[(bool, Vec<u8>)],
    timed: bool,
) -> Result<PhaseRun, String> {
    t.span(name, NO_REQUEST, |t| {
        let run = client::run_phase(addr, offsets, load, 1_000, DRAIN, timed)
            .map_err(|e| format!("client: {e}"))?;
        for (i, x) in run.samples.iter().enumerate() {
            if let Some(at) = x.answered {
                t.record("serve.request", i as u64, x.due, at);
            }
        }
        Ok(run)
    })
}

/// Correct answers within `limit_ms` of their due time per second: the
/// median over the phase's whole one-second windows (by due time), so a
/// host stall in one window does not decide the figure.
fn goodput(run: &PhaseRun, load: &[(bool, Vec<u8>)], limit_ms: f64) -> f64 {
    let window = |x: &client::Sample| x.due.saturating_duration_since(run.start).as_secs() as usize;
    let windows = run.samples.last().map_or(0, window).max(1);
    let mut good = vec![0u32; windows];
    for (x, (malicious, _)) in run.samples.iter().zip(load) {
        if correct(x.answer, *malicious) && x.latency_ms().is_some_and(|l| l <= limit_ms) {
            if let Some(slot) = good.get_mut(window(x)) {
                *slot += 1;
            }
        }
    }
    median(&good.into_iter().map(f64::from).collect::<Vec<_>>())
}

fn correct(answer: Answer, malicious: bool) -> bool {
    match answer {
        Answer::Response { verdict: Verdict::Served, .. } => !malicious,
        Answer::Response { verdict: Verdict::DetectedMicro | Verdict::DetectedMacro, .. } => {
            malicious
        }
        _ => false,
    }
}

/// Outcome counts of one phase; a wrong or quarantined verdict on an
/// admitted request fails the run.
fn tally(run: &PhaseRun, load: &[(bool, Vec<u8>)], out: &mut Outcome, phase: &str) -> Outcomes {
    let mut o = Outcomes::default();
    for (i, (x, (malicious, _))) in run.samples.iter().zip(load).enumerate() {
        if *malicious {
            o.attacks_sent += 1;
        } else {
            o.benign_sent += 1;
        }
        match x.answer {
            Answer::Rejected => o.rejected += 1,
            Answer::Lost => o.lost += 1,
            Answer::Response { verdict: Verdict::Quarantined, .. } => o.quarantined += 1,
            Answer::Response { .. } if correct(x.answer, *malicious) => {
                if *malicious {
                    o.attacks_detected += 1;
                } else {
                    o.benign_served += 1;
                }
            }
            Answer::Response { verdict, .. } => {
                out.problems.push(format!(
                    "{phase} request {i}: {verdict:?} for a malicious={malicious} request"
                ));
            }
        }
    }
    out.check(o.quarantined == 0, || format!("{phase}: {} requests quarantined", o.quarantined));
    o
}

/// What replaying the steady phase's admitted history produced.
struct Replayed {
    insns: u64,
    counts: Counts,
    /// Host seconds each request's `admit` took, by client request id.
    service_s: HashMap<u64, f64>,
    receipts: Vec<indra_persist::CheckpointReceipt>,
}

/// Re-runs each shard's ingress log through a fresh `ShardRunner` the
/// way the live worker did — append to the ingress log, admit, and
/// every [`CHECKPOINT_EVERY`] requests sync the log and checkpoint —
/// with a span around each public call. The log and checkpoint writes
/// happen only when traced, into a scratch directory.
fn replay_probe(
    t: &mut Tracer,
    dir: &Path,
    seed: u64,
    dirs: &mut StateDirs,
) -> Result<Replayed, String> {
    let store = SnapshotStore::open(dir).map_err(|e| format!("store: {e}"))?;
    let scratch = dirs.fresh().map_err(|e| format!("state dir: {e}"))?;
    let scratch_store = SnapshotStore::create(scratch.path()).map_err(|e| format!("store: {e}"))?;
    let mut r = Replayed {
        insns: 0,
        counts: Counts::default(),
        service_s: HashMap::new(),
        receipts: Vec::new(),
    };
    for shard in 0..SHARDS {
        let bytes = std::fs::read(store.shard_dir(shard).join(INGRESS_FILE))
            .map_err(|e| format!("ingress log: {e}"))?;
        let records: Vec<IngressRecord> = read_ingress_log(&bytes)
            .map_err(|e| format!("ingress log: {e}"))?
            .records
            .into_iter()
            .filter(|rec| rec.kind == IngressKind::Request)
            .collect();
        let mut runner =
            ShardRunner::new(engine(seed), shard).map_err(|e| format!("engine: {e}"))?;
        let mut persist = if t.is_on() {
            let dir = scratch_store.shard_dir(shard);
            std::fs::create_dir_all(&dir).map_err(|e| format!("state dir: {e}"))?;
            let (log, _) = IngressWriter::recover(&dir.join(INGRESS_FILE), shard as u32)
                .map_err(|e| format!("{e}"))?;
            let writer = scratch_store.shard_writer(shard).map_err(|e| format!("{e}"))?;
            Some((log, writer))
        } else {
            None
        };
        let n = records.len() as u64;
        for (k, rec) in records.into_iter().enumerate() {
            let id = rec.request_id;
            if let Some((log, _)) = persist.as_mut() {
                t.span("persist.ingress_append", id, |_| log.append(&rec))
                    .map_err(|e| format!("{e}"))?;
            }
            let t0 = Instant::now();
            t.span("core.deliver", id, |_| runner.admit(rec));
            r.service_s.insert(id, layers::since(t0));
            if let Some((log, writer)) = persist.as_mut() {
                if (k as u64 + 1).is_multiple_of(u64::from(CHECKPOINT_EVERY)) {
                    t.span("persist.ingress_sync", id, |_| log.sync())
                        .map_err(|e| format!("{e}"))?;
                    let cursor = (k as u64 + 1).to_le_bytes();
                    let receipt = layers::checkpoint(t, writer, || runner.freeze().0, &cursor)
                        .map_err(|e| format!("{e}"))?;
                    r.receipts.push(receipt);
                }
            }
        }
        r.counts.absorb(&Counts::of(runner.system_mut(), n));
        r.insns += runner.finish(true).insns;
    }
    Ok(r)
}

fn report_serve_layers(
    m: &mut Metrics,
    steady: &PhaseRun,
    over: &PhaseRun,
    service_s: &HashMap<u64, f64>,
) {
    let mean_us = |ns: Vec<u64>| {
        if ns.is_empty() {
            0.0
        } else {
            ns.iter().sum::<u64>() as f64 / ns.len() as f64 / 1e3
        }
    };
    let enc = steady.encode_ns.iter().chain(&over.encode_ns).copied().collect();
    let dec = steady.decode_ns.iter().chain(&over.decode_ns).copied().collect();
    m.put("serve.frame_encode_us", mean_us(enc));
    m.put("serve.frame_decode_us", mean_us(dec));
    let waits: Vec<f64> = steady
        .samples
        .iter()
        .enumerate()
        .filter_map(|(i, x)| Some(x.latency_ms()? - service_s.get(&(1_000 + i as u64))? * 1e3))
        .collect();
    if !waits.is_empty() {
        m.put("serve.queue_wait_ms", waits.iter().sum::<f64>() / waits.len() as f64);
    }
    let rejected = |r: &PhaseRun| r.samples.iter().filter(|x| x.answer == Answer::Rejected).count();
    m.put("serve.rejected", (rejected(steady) + rejected(over)) as f64);
    let lags: Vec<f64> =
        steady.samples.iter().chain(&over.samples).map(client::Sample::lag_ms).collect();
    m.put("gen.lag_p99_ms", tail(&lags).value);
}

/// Traced wall over the wall it would take without the tracer: one plus
/// the spans recorded times the measured cost of recording one, over
/// the traced wall.
fn tracing_overhead(t: &Tracer) -> f64 {
    const N: u64 = 20_000;
    let mut probe = Tracer::new(true);
    let t0 = Instant::now();
    for i in 0..N {
        probe.span("probe", i, |_| ());
    }
    let per_span = layers::since(t0) / N as f64;
    let spans = t.spans();
    let wall = spans
        .iter()
        .map(|s| s.end_ns)
        .max()
        .unwrap_or(0)
        .saturating_sub(spans.iter().map(|s| s.start_ns).min().unwrap_or(0));
    let wall_s = wall as f64 * 1e-9;
    if wall_s <= 0.0 {
        1.0
    } else {
        wall_s / (wall_s - spans.len() as f64 * per_span).max(wall_s * 0.5)
    }
}
