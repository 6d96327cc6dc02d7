//! compartmentbench — per-request compartment rewind-and-discard
//! benchmark.
//!
//! Measures what the compartment machinery buys across Table 2's
//! attack families: for each family, an interleaved benign/attack
//! request stream is served twice — compartments off (global-rollback
//! baseline) and on — and the run reports
//!
//! * **benign requests lost**: benign requests that never produced a
//!   response because a recovery episode swallowed them. With
//!   compartments on, a detection discards only the guilty
//!   compartment's pages and arena and requeues the innocent in-flight
//!   request, so this should be zero.
//! * **compartment discards**: recovery episodes that attributed the
//!   fault to a sealed compartment and surgically discarded it.
//! * **checkpoint volume**: WAL bytes/pages written by a fixed-cadence
//!   checkpoint discipline against a scratch store (host-side
//!   observation; the sim stats never see it).
//!
//! Results go to `results/BENCH_compartment.json`.
//! `--assert-discards-min N` / `--assert-benign-lost-max N` turn the
//! run into a self-checking smoke test over the compartments-on leg.

use std::time::Instant;

use indra_core::json::{json_array, JsonObject};
use indra_fleet::{Engine, EngineConfig, ScratchDir};
use indra_persist::{CheckpointReceipt, SnapshotStore};
use indra_workloads::{
    attack_request, benign_request, build_app_scaled, Attack, ServiceApp, UNMAPPED_ADDR,
};

struct Args {
    quick: bool,
    out: String,
    assert_discards_min: Option<u64>,
    assert_benign_lost_max: Option<u64>,
}

const USAGE: &str = "\
compartmentbench — per-request compartment rewind-and-discard benchmark

USAGE: compartmentbench [--quick] [--out PATH]
                        [--assert-discards-min N]
                        [--assert-benign-lost-max N]

Serves an interleaved benign/attack stream per Table 2 attack family,
compartments off vs on, and reports benign requests lost, compartment
discards and checkpoint WAL volume. Writes
results/BENCH_compartment.json. The assert flags exit non-zero when
the compartments-on leg discards fewer than N compartments or loses
more than N benign requests.";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        out: "results/BENCH_compartment.json".into(),
        assert_discards_min: None,
        assert_benign_lost_max: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = it.next().ok_or("--out needs a value")?,
            "--assert-discards-min" => {
                let v = it.next().ok_or("--assert-discards-min needs a value")?;
                args.assert_discards_min =
                    Some(v.parse().map_err(|e| format!("--assert-discards-min: {e}"))?);
            }
            "--assert-benign-lost-max" => {
                let v = it.next().ok_or("--assert-benign-lost-max needs a value")?;
                args.assert_benign_lost_max =
                    Some(v.parse().map_err(|e| format!("--assert-benign-lost-max: {e}"))?);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Table 2's attack families, each paired with its payload builder.
fn families(image: &indra_isa::Image) -> Vec<(&'static str, Attack)> {
    let mid_function = image.addr_of("handler_0").expect("service image has handler_0") + 8;
    vec![
        ("stack_smash", Attack::StackSmash { target: mid_function }),
        ("code_injection", Attack::CodeInjection),
        ("handler_hijack", Attack::HandlerHijack { target: mid_function }),
        ("injected_handler", Attack::InjectedHandler),
        ("wild_write", Attack::WildWrite { addr: UNMAPPED_ADDR }),
        ("format_string", Attack::FormatString { value: mid_function }),
        ("dormant", Attack::Dormant { addr: UNMAPPED_ADDR }),
    ]
}

/// One leg's measured outcome.
struct Outcome {
    benign_sent: u64,
    benign_served: u64,
    attacks_sent: u64,
    detections: u64,
    discards: u64,
    retried: u64,
    wal: CheckpointReceipt,
    wall_seconds: f64,
}

impl Outcome {
    fn benign_lost(&self) -> u64 {
        self.benign_sent.saturating_sub(self.benign_served)
    }
}

/// Serves `requests` requests (every 4th an attack of `attack`'s
/// family) through one INDRA cell, checkpointing every 4 requests to a
/// scratch store, and collapses the run report into an [`Outcome`].
fn run_family(attack: Attack, requests: u32, compartments: bool) -> Outcome {
    let cfg = EngineConfig {
        app: ServiceApp::Httpd,
        scale: 40,
        run_slice_steps: 20_000,
        compartments,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(&cfg).expect("compartmentbench deploy");
    let image = build_app_scaled(cfg.app, cfg.scale);

    let dir = ScratchDir::create("compartmentbench").expect("scratch checkpoint store");
    let store = SnapshotStore::create(dir.path()).expect("scratch checkpoint store");
    let mut writer = store.shard_writer(0).expect("scratch shard writer");
    let mut wal = CheckpointReceipt::default();

    let started = Instant::now();
    let mut benign_sent = 0u64;
    let mut attacks_sent = 0u64;
    for i in 0..requests {
        // Position 1 of every group of 4 is the attack; for the
        // dormant family the following benign request is the victim.
        let malicious = i % 4 == 1;
        let data = if malicious {
            attacks_sent += 1;
            attack_request(attack, &image)
        } else {
            benign_sent += 1;
            benign_request(i as u8, 0x20 + (i % 64) as u8)
        };
        let _ = engine.deliver(data, malicious);
        if (i + 1) % 4 == 0 {
            let receipt = writer
                .checkpoint(&engine.freeze(), &u64::from(i + 1).to_le_bytes())
                .expect("scratch checkpoint");
            wal.absorb(receipt);
        }
    }
    let report = engine.report();
    let out = Outcome {
        benign_sent,
        benign_served: report.benign_served,
        attacks_sent,
        detections: report.detections.len() as u64,
        discards: report.detections.iter().filter(|d| d.discarded.is_some()).count() as u64,
        retried: report.detections.iter().filter(|d| d.retried).count() as u64,
        wal,
        wall_seconds: started.elapsed().as_secs_f64(),
    };
    out
}

fn leg_json(o: &Outcome) -> String {
    JsonObject::new()
        .u64("benign_sent", o.benign_sent)
        .u64("benign_served", o.benign_served)
        .u64("benign_lost", o.benign_lost())
        .u64("attacks_sent", o.attacks_sent)
        .u64("detections", o.detections)
        .u64("discards", o.discards)
        .u64("retried", o.retried)
        .u64("wal_bytes", o.wal.bytes)
        .u64("wal_pages", o.wal.pages)
        .f64("wall_seconds", o.wall_seconds)
        .finish()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let requests = if args.quick { 12 } else { 32 };
    let image = build_app_scaled(ServiceApp::Httpd, 40);

    println!("compartmentbench: {} requests/family, attacks every 4th request", requests);
    println!(
        "{:>16} {:>4} {:>7} {:>7} {:>6} {:>7} {:>8} {:>7} {:>10} {:>8}",
        "family",
        "cmp",
        "benign",
        "served",
        "lost",
        "detect",
        "discard",
        "retried",
        "wal KB",
        "wal pg"
    );

    let mut rows = Vec::new();
    let mut lost_on = 0u64;
    let mut lost_off = 0u64;
    let mut discards_on = 0u64;
    let mut detections_on = 0u64;
    for (name, attack) in families(&image) {
        let off = run_family(attack, requests, false);
        let on = run_family(attack, requests, true);
        for (label, o) in [("off", &off), ("on", &on)] {
            println!(
                "{:>16} {:>4} {:>7} {:>7} {:>6} {:>7} {:>8} {:>7} {:>10.1} {:>8}",
                name,
                label,
                o.benign_sent,
                o.benign_served,
                o.benign_lost(),
                o.detections,
                o.discards,
                o.retried,
                o.wal.bytes as f64 / 1024.0,
                o.wal.pages,
            );
        }
        lost_off += off.benign_lost();
        lost_on += on.benign_lost();
        discards_on += on.discards;
        detections_on += on.detections;
        rows.push(
            JsonObject::new()
                .str("family", name)
                .raw("off", &leg_json(&off))
                .raw("on", &leg_json(&on))
                .finish(),
        );
    }

    let lost_per_detection_on =
        if detections_on > 0 { lost_on as f64 / detections_on as f64 } else { 0.0 };
    println!(
        "totals: benign lost off {lost_off}, on {lost_on} \
         ({lost_per_detection_on:.3}/detection), compartment discards {discards_on}"
    );

    let json = JsonObject::new()
        .str("bench", "compartment")
        .bool("quick", args.quick)
        .u64("requests_per_family", u64::from(requests))
        .raw("families", &json_array(rows))
        .u64("benign_lost_off", lost_off)
        .u64("benign_lost_on", lost_on)
        .f64("benign_lost_per_detection_on", lost_per_detection_on)
        .u64("discards_on", discards_on)
        .finish();
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create results dir");
        }
    }
    std::fs::write(&args.out, format!("{json}\n")).expect("write results json");
    println!("wrote {}", args.out);

    if let Some(min) = args.assert_discards_min {
        if discards_on < min {
            eprintln!("compartmentbench: {discards_on} discards, below floor {min}");
            std::process::exit(1);
        }
    }
    if let Some(max) = args.assert_benign_lost_max {
        if lost_on > max {
            eprintln!("compartmentbench: lost {lost_on} benign requests, above cap {max}");
            std::process::exit(1);
        }
    }
}
