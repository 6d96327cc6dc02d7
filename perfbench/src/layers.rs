//! Layer probes shared by the traced runs: a cell driven one request at
//! a time through `indra_core`'s public calls, the deterministic counts
//! read back from its public stats, and a durable checkpoint split into
//! its freeze, encode and write steps.

use std::time::Instant;

use indra_core::{IndraSystem, RunState, SystemConfig};
use indra_isa::Image;
use indra_persist::{encode_snapshot, CheckpointReceipt, PersistError, ShardCheckpointWriter};

use crate::trace::{Tracer, NO_REQUEST};
use crate::Metrics;

/// Run-slice size of every cell (the fleet and service default).
pub const SLICE: u64 = 200_000;

/// What one delivery ended in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Delivered {
    /// A response came back.
    Served,
    /// The monitor fired and recovery ran.
    Detected,
    /// Neither within the step budget.
    Dead,
}

/// `IndraSystem::new` plus `deploy` (which runs the deploy-time policy
/// analysis), inside a `core.deploy` span. The default configuration is
/// the one every fleet shard, replica cell and service engine builds
/// with the default knobs.
///
/// # Panics
///
/// Panics if the image fails to deploy; the stock images always do.
pub fn deploy(t: &mut Tracer, image: &Image) -> IndraSystem {
    t.span("core.deploy", NO_REQUEST, |_| {
        let mut sys = IndraSystem::new(SystemConfig::default());
        sys.deploy(image).expect("stock service images deploy");
        sys
    })
}

/// Pushes one request and runs the system to idle, inside a
/// `core.deliver` span.
pub fn deliver(
    t: &mut Tracer,
    sys: &mut IndraSystem,
    data: Vec<u8>,
    malicious: bool,
    request: u64,
) -> Delivered {
    t.span("core.deliver", request, |_| {
        let s0 = sys.report().samples.len();
        let d0 = sys.report().detections.len();
        let rid = sys.push_request(data, malicious);
        // The same generous budget the shard engines use.
        for _ in 0..1_000 {
            match sys.run(SLICE) {
                RunState::Idle => {
                    let _ = sys.take_responses();
                    let report = sys.report();
                    if report.samples[s0..].iter().any(|s| s.request_id == rid) {
                        return Delivered::Served;
                    }
                    return if report.detections.len() > d0 {
                        Delivered::Detected
                    } else {
                        Delivered::Dead
                    };
                }
                RunState::Halted => return Delivered::Dead,
                RunState::BudgetExhausted => {}
            }
        }
        Delivered::Dead
    })
}

/// Raw deterministic counters of one or more cells, read from their
/// public stats after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests delivered.
    pub requests: u64,
    /// Instructions retired over every core.
    pub insns: u64,
    /// Instructions retired inside superblocks.
    pub block_insns: u64,
    /// Superblock dispatches that found stale pins.
    pub superblock_stale: u64,
    /// Predecode-cache hits.
    pub predecode_hits: u64,
    /// Predecode-cache misses.
    pub predecode_misses: u64,
    /// Trace-FIFO producer stalls.
    pub fifo_full_stalls: u64,
    /// CAM-filter lookups.
    pub cam_lookups: u64,
    /// CAM-filter hits (fills that never reached the monitor).
    pub cam_hits: u64,
    /// IL1 accesses and misses.
    pub il1: (u64, u64),
    /// DL1 accesses and misses.
    pub dl1: (u64, u64),
    /// L2 accesses and misses.
    pub l2: (u64, u64),
    /// Monitor events consumed.
    pub monitor_events: u64,
    /// Monitor busy cycles.
    pub monitor_busy_cycles: u64,
    /// Backup line copies.
    pub line_copies: u64,
    /// Rollbacks.
    pub rollbacks: u64,
    /// Recovery cycles charged.
    pub recovery_cycles: u64,
}

impl Counts {
    /// Reads the counters of one system that served `requests`.
    #[must_use]
    pub fn of(sys: &IndraSystem, requests: u64) -> Counts {
        let m = sys.machine();
        let mut c = Counts { requests, ..Counts::default() };
        for core in 0..m.num_cores() {
            c.insns += m.core(core).retired();
            let sb = m.superblock_stats(core);
            c.block_insns += sb.block_insns;
            c.superblock_stale += sb.stale;
            let pd = m.predecode_stats(core);
            c.predecode_hits += pd.hits;
            c.predecode_misses += pd.misses;
            let cam = m.cam(core).stats();
            c.cam_lookups += cam.lookups;
            c.cam_hits += cam.hits;
            let mem = m.core_mem(core);
            for (slot, stats) in [
                (&mut c.il1, mem.il1().stats()),
                (&mut c.dl1, mem.dl1().stats()),
                (&mut c.l2, mem.l2().stats()),
            ] {
                slot.0 += stats.accesses;
                slot.1 += stats.misses;
            }
        }
        c.fifo_full_stalls = m.fifo().stats().full_stalls;
        let mon = sys.monitor().stats();
        c.monitor_events = mon.events;
        c.monitor_busy_cycles = mon.busy_cycles;
        let scheme = sys.scheme().stats();
        c.line_copies = scheme.line_copies;
        c.rollbacks = scheme.rollbacks;
        c.recovery_cycles = scheme.recovery_cycles;
        c
    }

    /// Adds another cell's counters.
    pub fn absorb(&mut self, o: &Counts) {
        self.requests += o.requests;
        self.insns += o.insns;
        self.block_insns += o.block_insns;
        self.superblock_stale += o.superblock_stale;
        self.predecode_hits += o.predecode_hits;
        self.predecode_misses += o.predecode_misses;
        self.fifo_full_stalls += o.fifo_full_stalls;
        self.cam_lookups += o.cam_lookups;
        self.cam_hits += o.cam_hits;
        for (a, b) in [(&mut self.il1, o.il1), (&mut self.dl1, o.dl1), (&mut self.l2, o.l2)] {
            a.0 += b.0;
            a.1 += b.1;
        }
        self.monitor_events += o.monitor_events;
        self.monitor_busy_cycles += o.monitor_busy_cycles;
        self.line_copies += o.line_copies;
        self.rollbacks += o.rollbacks;
        self.recovery_cycles += o.recovery_cycles;
    }

    /// The `sim.*`, `mem.*` and deterministic `core.*` metrics.
    pub fn report(&self, m: &mut Metrics) {
        let per_req = |v: u64| ratio(v, self.requests);
        m.put("sim.insns_per_req", per_req(self.insns));
        m.put("sim.superblock_coverage", ratio(self.block_insns, self.insns));
        m.put("sim.superblock_stale", self.superblock_stale as f64);
        m.put(
            "sim.predecode_hit_ratio",
            ratio(self.predecode_hits, self.predecode_hits + self.predecode_misses),
        );
        m.put("sim.fifo_full_stalls", self.fifo_full_stalls as f64);
        m.put("sim.cam_filter_ratio", ratio(self.cam_hits, self.cam_lookups));
        m.put("mem.il1_miss_ratio", ratio(self.il1.1, self.il1.0));
        m.put("mem.dl1_miss_ratio", ratio(self.dl1.1, self.dl1.0));
        m.put("mem.l2_miss_ratio", ratio(self.l2.1, self.l2.0));
        m.put("core.monitor_events_per_req", per_req(self.monitor_events));
        m.put("core.monitor_busy_cycles_per_req", per_req(self.monitor_busy_cycles));
        m.put("core.line_copies_per_req", per_req(self.line_copies));
        m.put("core.rollbacks", self.rollbacks as f64);
        m.put("core.recovery_cycles", self.recovery_cycles as f64);
    }
}

/// `num / den`, 0 when `den` is 0.
#[must_use]
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The `core.deliver_*` metrics from the recorded `core.deliver` spans.
pub fn report_deliver(t: &Tracer, m: &mut Metrics) {
    let d = t.durations_s("core.deliver");
    put_us_percentiles(m, "core.deliver_us.p50", "core.deliver_us.p99", &d);
    m.put("core.deliver_busy_s", d.iter().sum());
    m.put("core.deliver_calls", d.len() as f64);
}

/// Puts the p50 and the tail (by the ten-beyond rule) of `seconds`, in
/// microseconds; 0 when nothing was recorded.
pub fn put_us_percentiles(m: &mut Metrics, p50: &'static str, p99: &'static str, seconds: &[f64]) {
    if seconds.is_empty() {
        return;
    }
    m.put(p50, crate::stats::percentile(seconds, 50.0) * 1e6);
    m.put(p99, crate::stats::tail(seconds).value * 1e6);
}

/// One durable checkpoint split into its steps: `freeze`
/// (`persist.freeze`), `encode_snapshot` (`persist.encode`) and
/// `ShardCheckpointWriter::checkpoint`, fsync included
/// (`persist.checkpoint`).
///
/// # Errors
///
/// The writer's I/O failure.
pub fn checkpoint(
    t: &mut Tracer,
    writer: &mut ShardCheckpointWriter,
    freeze: impl FnOnce() -> indra_core::SystemState,
    progress: &[u8],
) -> Result<CheckpointReceipt, PersistError> {
    let state = t.span("persist.freeze", NO_REQUEST, |_| freeze());
    t.span("persist.encode", NO_REQUEST, |_| {
        std::hint::black_box(encode_snapshot(&state, progress).len())
    });
    t.span("persist.checkpoint", NO_REQUEST, |_| writer.checkpoint(&state, progress))
}

/// The `persist.freeze_us`, `encode_ms` and `checkpoint_*` metrics.
pub fn report_checkpoints(t: &Tracer, receipts: &[CheckpointReceipt], m: &mut Metrics) {
    m.put("persist.freeze_us", mean_s(t, "persist.freeze") * 1e6);
    m.put("persist.encode_ms", mean_s(t, "persist.encode") * 1e3);
    m.put("persist.checkpoint_ms", mean_s(t, "persist.checkpoint") * 1e3);
    if !receipts.is_empty() {
        let n = receipts.len() as f64;
        m.put(
            "persist.checkpoint_kb",
            receipts.iter().map(|r| r.bytes).sum::<u64>() as f64 / 1024.0 / n,
        );
        m.put("persist.checkpoint_pages", receipts.iter().map(|r| r.pages).sum::<u64>() as f64 / n);
    }
}

/// Mean of the spans named `name`, in seconds (0 when none).
#[must_use]
pub fn mean_s(t: &Tracer, name: &str) -> f64 {
    let d = t.durations_s(name);
    if d.is_empty() {
        0.0
    } else {
        d.iter().sum::<f64>() / d.len() as f64
    }
}

/// Elapsed seconds since `t0`.
#[must_use]
pub fn since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}
