//! Open-loop load generator for `fleetd`.
//!
//! Open loop means the send schedule follows the offered rate, not the
//! server: request `i` of a point goes out at `start + i/rate`
//! regardless of how many responses have come back. That is the only
//! honest way to find a saturation knee — a closed-loop client slows
//! down with the server and never overloads it. Past the knee the
//! daemon's bounded ingress queues push back with typed rejections, so
//! the latency of *admitted* requests stays bounded while the rejection
//! ratio (not queueing delay) absorbs the overload.
//!
//! Latency is timed from each request's *due* time, not from when it
//! actually left: a sender that falls behind schedule would otherwise
//! hide the queueing it caused (coordinated omission). Nagle is off on
//! the request connection, so a request leaves when it is due.
//!
//! The payload mix is seeded ([`indra_rng`]) but pacing is wall-clock:
//! determinism of the *served* trajectory is the daemon's ingress-log
//! job, not the client's.

use std::collections::HashMap;
use std::io::Write as _;
use std::net::{Shutdown, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use indra_bench::{Histogram, HistogramSummary};
use indra_core::json::{json_array, json_f64, JsonObject};
use indra_rng::Rng;
use indra_workloads::{attack_request, benign_request, build_app_scaled, detectable_attack_suite};

use crate::args::{app_by_name, LoadgenArgs};
use crate::proto::{read_frame, write_frame, Frame, HealthReply, Verdict};

/// Measurements for one offered-load point.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Offered load, requests per wall-clock second.
    pub offered_rps: f64,
    /// Requests sent.
    pub sent: u64,
    /// Requests admitted (got a `Response`).
    pub admitted: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Requests that never got an answer within the drain timeout.
    pub lost: u64,
    /// Admitted requests served normally.
    pub served: u64,
    /// Admitted requests that triggered a detection.
    pub detections: u64,
    /// Admitted requests quarantined as poison.
    pub quarantined: u64,
    /// Responses per second over the point's wall time.
    pub achieved_rps: f64,
    /// Wall-clock latency of admitted requests from their due time,
    /// microseconds.
    pub wall_us: HistogramSummary,
}

/// Full sweep report.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Daemon health snapshot taken before the sweep.
    pub health: HealthReply,
    /// One entry per offered rate, in sweep order.
    pub points: Vec<SweepPoint>,
    /// Saturation knee: highest offered rate whose rejection ratio
    /// stayed within 1% (None if even the lowest rate overloaded).
    pub knee_rps: Option<f64>,
}

impl LoadgenReport {
    /// Fixed-field-order JSON (deterministic given the measurements).
    #[must_use]
    pub fn to_json(&self, args: &LoadgenArgs) -> String {
        let points = json_array(self.points.iter().map(|p| {
            JsonObject::new()
                .f64("offered_rps", p.offered_rps)
                .u64("sent", p.sent)
                .u64("admitted", p.admitted)
                .u64("rejected", p.rejected)
                .u64("lost", p.lost)
                .f64(
                    "rejection_ratio",
                    if p.sent == 0 { 0.0 } else { p.rejected as f64 / p.sent as f64 },
                )
                .u64("served", p.served)
                .u64("detections", p.detections)
                .u64("quarantined", p.quarantined)
                .f64("achieved_rps", p.achieved_rps)
                .u64("wall_us_p50", p.wall_us.p50)
                .u64("wall_us_p95", p.wall_us.p95)
                .u64("wall_us_p99", p.wall_us.p99)
                .u64("wall_us_max", p.wall_us.max)
                .finish()
        }));
        JsonObject::new()
            .str("app", &self.health.app)
            .u64("scale", u64::from(self.health.scale))
            .u64("shards_live", u64::from(self.health.shards_live))
            .u64("requests_per_point", u64::from(args.requests))
            .u64("attack_per_mille", u64::from(args.attack_per_mille))
            .u64("seed", args.seed)
            .raw("points", &points)
            .raw("knee_rps", &self.knee_rps.map_or("null".to_string(), json_f64))
            .finish()
    }

    /// Detections observed across the whole sweep.
    #[must_use]
    pub fn total_detections(&self) -> u64 {
        self.points.iter().map(|p| p.detections).sum()
    }
}

fn io_err(context: &str, e: impl std::fmt::Display) -> String {
    format!("loadgen: {context}: {e}")
}

/// One round-trip of a control frame on a fresh connection.
fn control_roundtrip(addr: &str, frame: &Frame) -> Result<Frame, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    write_frame(&mut stream, frame).map_err(|e| io_err("send", e))?;
    read_frame(&mut stream).map_err(|e| io_err("reply", e))
}

/// Fetches the daemon's health snapshot (app + scale drive payloads).
///
/// # Errors
///
/// Connection or protocol failure, or an unhealthy daemon.
pub fn fetch_health(addr: &str) -> Result<HealthReply, String> {
    match control_roundtrip(addr, &Frame::Health)? {
        Frame::HealthReply(h) => Ok(h),
        other => Err(format!("loadgen: expected HealthReply, got {other:?}")),
    }
}

/// Asks the daemon to drain and exit.
///
/// # Errors
///
/// Connection or protocol failure, or a `ControlErr` reply.
pub fn send_shutdown(addr: &str) -> Result<(), String> {
    match control_roundtrip(addr, &Frame::Shutdown)? {
        Frame::ControlOk { .. } => Ok(()),
        other => Err(format!("loadgen: shutdown refused: {other:?}")),
    }
}

#[derive(Default)]
struct Collected {
    admitted: u64,
    rejected: u64,
    served: u64,
    detections: u64,
    quarantined: u64,
    hist: Histogram,
    last_response_at: Option<Instant>,
}

fn run_point(
    addr: &str,
    rate: f64,
    args: &LoadgenArgs,
    payloads: &[(bool, Vec<u8>)],
) -> Result<SweepPoint, String> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    stream.set_nodelay(true).map_err(|e| io_err("set nodelay", e))?;
    let mut write_half = stream.try_clone().map_err(|e| io_err("clone socket", e))?;
    let mut read_half = stream.try_clone().map_err(|e| io_err("clone socket", e))?;
    let pending: Arc<Mutex<HashMap<u64, Instant>>> = Arc::new(Mutex::new(HashMap::new()));
    let collected: Arc<Mutex<Collected>> = Arc::new(Mutex::new(Collected::default()));

    let reader = {
        let pending = Arc::clone(&pending);
        let collected = Arc::clone(&collected);
        std::thread::spawn(move || loop {
            match read_frame(&mut read_half) {
                Ok(Frame::Response { id, verdict, .. }) => {
                    let due = pending.lock().expect("pending lock").remove(&id);
                    let mut c = collected.lock().expect("collected lock");
                    c.admitted += 1;
                    c.last_response_at = Some(Instant::now());
                    if let Some(due) = due {
                        c.hist.record(due.elapsed().as_micros() as u64);
                    }
                    match verdict {
                        Verdict::Served => c.served += 1,
                        Verdict::DetectedMicro | Verdict::DetectedMacro => c.detections += 1,
                        Verdict::Quarantined => c.quarantined += 1,
                    }
                }
                Ok(Frame::Rejected { id, .. }) => {
                    pending.lock().expect("pending lock").remove(&id);
                    let mut c = collected.lock().expect("collected lock");
                    c.rejected += 1;
                    c.last_response_at = Some(Instant::now());
                }
                Ok(_) => {}
                Err(_) => break,
            }
        })
    };

    let start = Instant::now();
    for (i, (malicious, data)) in payloads.iter().enumerate() {
        let target = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if target > now {
            std::thread::sleep(target - now);
        }
        // Open loop: if we are behind schedule we send immediately and
        // never try to "catch up" by bursting ahead of real time.
        let id = i as u64;
        pending.lock().expect("pending lock").insert(id, target);
        let frame = Frame::Request { id, malicious: *malicious, data: data.clone() };
        write_frame(&mut write_half, &frame).map_err(|e| io_err("send request", e))?;
    }
    let _ = write_half.flush();

    let deadline = Instant::now() + Duration::from_millis(args.drain_timeout_ms);
    while Instant::now() < deadline {
        if pending.lock().expect("pending lock").is_empty() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    // Unblock the reader (a mid-frame read timeout would desync the
    // stream; a shutdown gives it a clean error instead).
    let _ = stream.shutdown(Shutdown::Both);
    let _ = reader.join();

    let lost = pending.lock().expect("pending lock").len() as u64;
    let c = collected.lock().expect("collected lock");
    let span = c.last_response_at.map_or_else(|| start.elapsed(), |t| t - start);
    let responses = c.admitted + c.rejected;
    let achieved_rps =
        if span.as_secs_f64() > 0.0 { responses as f64 / span.as_secs_f64() } else { 0.0 };
    Ok(SweepPoint {
        offered_rps: rate,
        sent: payloads.len() as u64,
        admitted: c.admitted,
        rejected: c.rejected,
        lost,
        served: c.served,
        detections: c.detections,
        quarantined: c.quarantined,
        achieved_rps,
        wall_us: c.hist.summary(),
    })
}

/// Runs the whole sweep: health fetch, one connection per offered rate,
/// knee computation, optional JSON dump / shutdown / assertion.
///
/// # Errors
///
/// Connection or protocol failure, an unwritable `--out` path, or a
/// failed `--assert-min-detections`.
pub fn run_loadgen(args: &LoadgenArgs) -> Result<LoadgenReport, String> {
    let health = fetch_health(&args.addr)?;
    if !health.ok {
        return Err("loadgen: daemon reports no live shards".into());
    }
    let app = app_by_name(&health.app)
        .ok_or_else(|| format!("loadgen: daemon runs unknown app {:?}", health.app))?;
    let image = build_app_scaled(app, health.scale);
    let attacks = detectable_attack_suite(&image);
    println!(
        "loadgen: {} @ scale {} ({} live shards), sweeping {} rates x {} requests",
        health.app,
        health.scale,
        health.shards_live,
        args.rates.len(),
        args.requests
    );

    let mut rng = Rng::seed_from_u64(args.seed);
    let mut points = Vec::new();
    for &rate in &args.rates {
        // Payloads are pre-built so pacing jitter never includes
        // payload-construction time.
        let payloads: Vec<(bool, Vec<u8>)> = (0..args.requests)
            .map(|_| {
                let malicious = rng.ratio(args.attack_per_mille, 1000) && !attacks.is_empty();
                let data = if malicious {
                    attack_request(*rng.pick(&attacks), &image)
                } else {
                    benign_request(rng.gen_u8(), rng.gen_u8())
                };
                (malicious, data)
            })
            .collect();
        let point = run_point(&args.addr, rate, args, &payloads)?;
        println!(
            "loadgen: offered {:>7.1}/s -> admitted {} rejected {} lost {} p99 {}us",
            point.offered_rps, point.admitted, point.rejected, point.lost, point.wall_us.p99
        );
        points.push(point);
    }

    let knee_rps = points
        .iter()
        .filter(|p| p.sent > 0 && (p.rejected as f64 / p.sent as f64) <= 0.01 && p.lost == 0)
        .map(|p| p.offered_rps)
        .fold(None, |best: Option<f64>, r| Some(best.map_or(r, |b| b.max(r))));

    let report = LoadgenReport { health, points, knee_rps };
    if let Some(path) = &args.out {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| io_err("create out dir", e))?;
            }
        }
        std::fs::write(path, report.to_json(args) + "\n").map_err(|e| io_err("write out", e))?;
        println!("loadgen: wrote {}", path.display());
    }
    if args.shutdown {
        send_shutdown(&args.addr)?;
        println!("loadgen: daemon acknowledged shutdown");
    }
    if let Some(min) = args.assert_min_detections {
        let got = report.total_detections();
        if got < min {
            return Err(format!("loadgen: expected at least {min} detections, observed {got}"));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_has_fixed_shape() {
        let args = LoadgenArgs {
            addr: "x".into(),
            rates: vec![1.0],
            requests: 4,
            attack_per_mille: 0,
            seed: 7,
            out: None,
            quick: false,
            shutdown: false,
            assert_min_detections: None,
            drain_timeout_ms: 1,
        };
        let report = LoadgenReport {
            health: HealthReply {
                ok: true,
                app: "httpd".into(),
                scale: 40,
                shards_live: 2,
                shards_draining: 0,
                served: 0,
                detections: 0,
                revivals: 0,
                quarantined: 0,
                rejected: 0,
                replicas: 1,
                divergences: 0,
                divergent_masked: 0,
                rejuvenations: 0,
                detection_insns: 0,
            },
            points: vec![SweepPoint {
                offered_rps: 1.0,
                sent: 4,
                admitted: 4,
                rejected: 0,
                lost: 0,
                served: 4,
                detections: 0,
                quarantined: 0,
                achieved_rps: 1.0,
                wall_us: Histogram::new().summary(),
            }],
            knee_rps: Some(1.0),
        };
        let json = report.to_json(&args);
        for key in
            ["\"app\"", "\"points\"", "\"knee_rps\"", "\"rejection_ratio\"", "\"wall_us_p99\""]
        {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let none = LoadgenReport { knee_rps: None, ..report };
        assert!(none.to_json(&args).contains("\"knee_rps\":null"));
    }
}
