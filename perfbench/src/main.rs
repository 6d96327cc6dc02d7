//! `perfbench` — the repository's benchmark: three workloads, each
//! measured end to end (untraced) or layer by layer (traced).
//!
//! ```text
//! perfbench --workload <fleet_mix|vote_k3|service_open> --seed <n>
//!           --seconds <s> --trace <0|1> [--steady-rps <r>]
//!           [--overload-rps <r>] [--p99-limit-ms <ms>]
//!           [--default-seed <n>] [--held-out-seed <n>]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it holds the
//! host facts. A failed correctness check prints `"correct": false`
//! and exits with code 1; a usage error exits with code 2.

mod batch;
mod calib;
mod client;
mod fleet_mix;
mod host;
mod layers;
mod service_open;
mod stats;
mod trace;
mod vote_k3;

use std::path::PathBuf;
use std::process::ExitCode;

use host::HostFacts;
use trace::Tracer;

/// End-to-end metrics, printed by every untraced run: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("host_mips", "Minsn/s"),
    ("lat_p50_ms", "ms"),
    ("goodput_rps", "req/s"),
    ("sim_kcycles_per_req", "kcycles"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run: name and unit. A
/// workload that does not exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_ms", "ms"),
    ("core.deploy_ms", "ms"),
    ("core.deliver_us.p50", "us"),
    ("core.deliver_us.p99", "us"),
    ("core.deliver_busy_s", "s"),
    ("core.deliver_calls", "count"),
    ("sim.insns_per_req", "insns"),
    ("sim.superblock_coverage", "ratio"),
    ("sim.superblock_stale", "count"),
    ("sim.predecode_hit_ratio", "ratio"),
    ("sim.fifo_full_stalls", "count"),
    ("sim.cam_filter_ratio", "ratio"),
    ("mem.il1_miss_ratio", "ratio"),
    ("mem.dl1_miss_ratio", "ratio"),
    ("mem.l2_miss_ratio", "ratio"),
    ("core.monitor_events_per_req", "count"),
    ("core.monitor_busy_cycles_per_req", "cycles"),
    ("core.line_copies_per_req", "count"),
    ("core.rollbacks", "count"),
    ("core.recovery_cycles", "cycles"),
    ("persist.freeze_us", "us"),
    ("persist.encode_ms", "ms"),
    ("persist.checkpoint_ms", "ms"),
    ("persist.checkpoint_kb", "KiB"),
    ("persist.checkpoint_pages", "count"),
    ("persist.ingress_append_us", "us"),
    ("persist.ingress_sync_ms", "ms"),
    ("persist.restore_ms", "ms"),
    ("replica.deliver_us.p50", "us"),
    ("replica.deliver_us.p99", "us"),
    ("replica.digest_us.p50", "us"),
    ("replica.digest_us.p99", "us"),
    ("replica.digest_share", "ratio"),
    ("replica.revive_ms", "ms"),
    ("replica.rejuvenations", "count"),
    ("fleet.shard_wall_s", "s"),
    ("fleet.imbalance", "ratio"),
    ("fleet.executor_overhead_s", "s"),
    ("serve.frame_encode_us", "us"),
    ("serve.frame_decode_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.lat_p99_ms", "ms"),
    ("serve.rejected", "count"),
    ("gen.lag_p99_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

const USAGE: &str = "usage: perfbench --workload <fleet_mix|vote_k3|service_open> --seed <n> \
--seconds <s> --trace <0|1> [--steady-rps <r>] [--overload-rps <r>] [--p99-limit-ms <ms>] \
[--default-seed <n>] [--held-out-seed <n>]";

/// Named metric values, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    /// Sets `name` (replacing an earlier value).
    pub fn put(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// Settings shared by every workload.
#[derive(Debug)]
pub struct Settings {
    /// Workload seed; every input is derived from it.
    pub seed: u64,
    /// How long the measured window runs.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
    /// Service steady rate, requests per second.
    pub steady_rps: f64,
    /// Service overload rate, requests per second.
    pub overload_rps: f64,
    /// Due-time latency limit a response must meet to count as goodput.
    pub p99_limit_ms: f64,
    /// Root of the per-run state directories and span files.
    pub state_root: PathBuf,
}

/// What a workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests attempted.
    pub attempted: u64,
    /// Requests whose outcome was wrong (see each workload).
    pub failed: u64,
    /// Metric values.
    pub metrics: Metrics,
    /// Failed correctness checks.
    pub problems: Vec<String>,
    /// The run's spans (empty when untraced).
    pub tracer: Option<Tracer>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

struct Args {
    workload: String,
    settings: Settings,
    seeds: (u64, u64),
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut settings = Settings {
        seed: 0,
        seconds: 0.0,
        trace: false,
        steady_rps: 128.0,
        overload_rps: 1024.0,
        p99_limit_ms: 100.0,
        state_root: PathBuf::from(".perfbench"),
    };
    let mut seeds = (1, 20_061);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: String| v.parse::<f64>().map_err(|_| format!("bad number {v:?}"));
        let int = |v: String| v.parse::<u64>().map_err(|_| format!("bad integer {v:?}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(int(value()?)?),
            "--seconds" => seconds = Some(num(value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--steady-rps" => settings.steady_rps = num(value()?)?,
            "--overload-rps" => settings.overload_rps = num(value()?)?,
            "--p99-limit-ms" => settings.p99_limit_ms = num(value()?)?,
            "--default-seed" => seeds.0 = int(value()?)?,
            "--held-out-seed" => seeds.1 = int(value()?)?,
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    settings.seed = seed.unwrap_or(seeds.0);
    settings.seconds = seconds.ok_or("--seconds is required")?;
    settings.trace = trace.unwrap_or(false);
    if !(settings.seconds >= 1.0 && settings.seconds <= 600.0) {
        return Err("--seconds must be within 1..=600".into());
    }
    if !(settings.steady_rps > 0.0 && settings.overload_rps > settings.steady_rps) {
        return Err("need 0 < --steady-rps < --overload-rps".into());
    }
    if settings.p99_limit_ms <= 0.0 {
        return Err("--p99-limit-ms must be positive".into());
    }
    Ok(Args { workload, settings, seeds })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let s = &args.settings;
    if let Err(e) = std::fs::create_dir_all(&s.state_root) {
        eprintln!("perfbench: cannot create {}: {e}", s.state_root.display());
        return ExitCode::from(2);
    }
    let facts = HostFacts::collect(&s.state_root);
    let run = match args.workload.as_str() {
        "fleet_mix" => fleet_mix::run(s),
        "vote_k3" => vote_k3::run(s),
        "service_open" => service_open::run(s),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut out = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };

    let table = if s.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) => v,
            None if s.trace => 0.0,
            None => {
                out.problems.push(format!("workload did not measure {name}"));
                continue;
            }
        };
        out.problems.extend((!value.is_finite()).then(|| format!("{name} is not finite")));
        eprintln!("  {name:<34} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    if let Some(tracer) = &out.tracer {
        report_spans(tracer, &s.state_root, &args.workload, s.seed);
    }
    for p in &out.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = out.problems.is_empty();
    println!("host: {}", facts.to_json(&args.workload, s.seed, args.seeds));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// A finite `f64` as JSON, with every digit Rust's shortest round-trip
/// form has.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Prints the per-span-name totals and writes every span out.
fn report_spans(tracer: &Tracer, root: &std::path::Path, workload: &str, seed: u64) {
    eprintln!("  {:<28} {:>9} {:>12} {:>12}", "span", "count", "total_s", "self_s");
    for (name, (count, total, self_ns)) in tracer.summary() {
        eprintln!(
            "  {name:<28} {count:>9} {:>12.6} {:>12.6}",
            total as f64 * 1e-9,
            self_ns as f64 * 1e-9
        );
    }
    let path = root.join(format!("spans-{workload}-{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => {
            eprintln!("perfbench: wrote {} spans to {}", tracer.spans().len(), path.display())
        }
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_run_flags_and_rejects_bad_ones() {
        let a = parse(&["--workload", "vote_k3", "--seed", "7", "--seconds", "10", "--trace", "1"])
            .expect("valid");
        assert_eq!((a.workload.as_str(), a.settings.seed, a.settings.trace), ("vote_k3", 7, true));
        assert!(parse(&["--workload", "x", "--seconds", "10", "--bogus"]).is_err());
        assert!(parse(&["--workload", "x", "--seconds", "10", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "x"]).is_err());
        let d =
            parse(&["--workload", "x", "--seconds", "3", "--default-seed", "5"]).expect("valid");
        assert_eq!(d.settings.seed, 5, "the default seed applies without --seed");
    }

    /// Every metric this program prints is declared in `BENCHMARK.json`
    /// with the same unit, and the file declares no other.
    #[test]
    fn tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let declared = json.matches("\"unit\"").count();
        assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let at = json
                .find(&format!("\"name\": \"{name}\""))
                .unwrap_or_else(|| panic!("{name} missing"));
            let rest = &json[at..];
            let unit_at = rest.find("\"unit\": \"").expect("a unit follows") + 9;
            let got = &rest[unit_at..unit_at + rest[unit_at..].find('"').expect("closing quote")];
            assert_eq!(got, unit, "unit of {name}");
        }
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
