//! Aggregated fleet reporting.
//!
//! The deterministic measurements live in [`FleetStats`]: for a fixed
//! [`crate::FleetConfig`] (seed included), `stats` — and therefore its
//! JSON rendering — is byte-identical across runs and across any thread
//! interleaving, because every shard's traffic is a pure function of its
//! derived seed and shards are folded in shard order. Wall-clock numbers
//! (which *do* vary run to run) are quarantined in the outer
//! [`FleetReport`] so determinism stays assertable.

use std::time::Instant;

use indra_bench::HistogramSummary;
use indra_core::json::{json_array, JsonObject};
use indra_workloads::ServiceApp;

use crate::{aggregate_stats, ShardOutput};

/// One shard's contribution to the fleet aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSummary {
    /// Shard index (0-based).
    pub shard: usize,
    /// The service this shard ran.
    pub app: ServiceApp,
    /// Requests fully served.
    pub served: u64,
    /// Benign requests queued by the traffic schedule.
    pub benign_sent: u64,
    /// Benign requests served.
    pub benign_served: u64,
    /// Attack requests queued by the traffic schedule.
    pub attacks_sent: u64,
    /// Recovery episodes on this shard.
    pub detections: u64,
    /// Detections whose in-flight request was genuinely malicious.
    pub true_detections: u64,
    /// Instructions attackers got retired before detection, summed over
    /// this shard's recovery episodes (per-detection
    /// `insns_into_request`) — the fleet-level detection-latency
    /// scoring counter the red-team campaign drives down.
    pub detection_latency_insns: u64,
    /// Micro (per-request rollback) recoveries.
    pub micro_recoveries: u64,
    /// Macro (application checkpoint) recoveries.
    pub macro_recoveries: u64,
    /// Injected hardware faults survived.
    pub faults_injected: u64,
    /// Resurrectee cycles this shard's service consumed.
    pub sim_cycles: u64,
    /// Fraction of honest clients served, in `[0, 1]`.
    pub benign_service_ratio: f64,
    /// Whether the shard finished its whole schedule (a `false` here
    /// means the service halted or ran out of budget — it is *not*
    /// silently dropped from the aggregate).
    pub completed: bool,
}

impl ShardSummary {
    /// JSON with fixed field order.
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .u64("shard", self.shard as u64)
            .str("app", self.app.name())
            .u64("served", self.served)
            .u64("benign_sent", self.benign_sent)
            .u64("benign_served", self.benign_served)
            .u64("attacks_sent", self.attacks_sent)
            .u64("detections", self.detections)
            .u64("true_detections", self.true_detections)
            .u64("detection_latency_insns", self.detection_latency_insns)
            .u64("micro_recoveries", self.micro_recoveries)
            .u64("macro_recoveries", self.macro_recoveries)
            .u64("faults_injected", self.faults_injected)
            .u64("sim_cycles", self.sim_cycles)
            .f64("benign_service_ratio", self.benign_service_ratio)
            .bool("completed", self.completed)
            .finish()
    }
}

/// The deterministic fleet-wide aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetStats {
    /// Shard count the fleet ran with.
    pub shards: usize,
    /// Per-shard summaries, in shard order.
    pub per_shard: Vec<ShardSummary>,
    /// Requests fully served, fleet-wide.
    pub served: u64,
    /// Benign requests queued, fleet-wide.
    pub benign_sent: u64,
    /// Benign requests served, fleet-wide.
    pub benign_served: u64,
    /// Attack requests queued, fleet-wide.
    pub attacks_sent: u64,
    /// Recovery episodes, fleet-wide.
    pub detections: u64,
    /// Detections that hit genuinely malicious requests.
    pub true_detections: u64,
    /// Instructions attackers retired before detection, fleet-wide (sum
    /// of per-detection `insns_into_request`).
    pub detection_latency_insns: u64,
    /// Micro recoveries, fleet-wide.
    pub micro_recoveries: u64,
    /// Macro recoveries, fleet-wide.
    pub macro_recoveries: u64,
    /// Injected hardware faults, fleet-wide.
    pub faults_injected: u64,
    /// Fleet benign-service ratio (served honest clients over queued).
    pub benign_service_ratio: f64,
    /// The slowest shard's resurrectee cycle count — the fleet's
    /// sim-time makespan.
    pub max_shard_cycles: u64,
    /// Sum of all shards' cycles (total simulated work).
    pub total_shard_cycles: u64,
    /// Requests served per million simulated cycles of makespan — the
    /// sim-time throughput that scales with shard count.
    pub served_per_mcycle: f64,
    /// Latency digest over every served request (resurrectee cycles,
    /// delivery → response).
    pub latency: HistogramSummary,
}

impl FleetStats {
    /// JSON with fixed field order; equal stats give equal bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .u64("shards", self.shards as u64)
            .u64("served", self.served)
            .u64("benign_sent", self.benign_sent)
            .u64("benign_served", self.benign_served)
            .u64("attacks_sent", self.attacks_sent)
            .u64("detections", self.detections)
            .u64("true_detections", self.true_detections)
            .u64("detection_latency_insns", self.detection_latency_insns)
            .u64("micro_recoveries", self.micro_recoveries)
            .u64("macro_recoveries", self.macro_recoveries)
            .u64("faults_injected", self.faults_injected)
            .f64("benign_service_ratio", self.benign_service_ratio)
            .u64("max_shard_cycles", self.max_shard_cycles)
            .u64("total_shard_cycles", self.total_shard_cycles)
            .f64("served_per_mcycle", self.served_per_mcycle)
            .raw("latency", &self.latency.to_json())
            .raw("per_shard", &json_array(self.per_shard.iter().map(ShardSummary::to_json)))
            .finish()
    }
}

/// One shard's host-side performance: simulated instructions over the
/// shard loop's wall clock. Wall-clock data varies run to run, so it
/// lives here in the outer report, never in [`FleetStats`].
#[derive(Debug, Clone, Copy)]
pub struct ShardHostPerf {
    /// Shard index.
    pub shard: usize,
    /// Instructions retired across the shard machine's cores.
    pub insns: u64,
    /// Host wall-clock seconds the shard loop ran.
    pub wall_seconds: f64,
    /// Superblock-engine counters (translations, hits, block
    /// instructions, invalidations, fallback reasons) summed over the
    /// shard machine's cores. Host-side observability only.
    pub superblocks: indra_sim::SuperblockStats,
    /// Predecode-cache counters summed over the shard machine's cores.
    pub predecode: indra_sim::PredecodeStats,
    /// WAL-delta bytes this shard's durable checkpoints wrote (0 when
    /// checkpointing is off). Host-side observability only.
    pub wal_bytes: u64,
    /// Page frames serialized across this shard's checkpoints — with
    /// compartment-scoped deltas upstream, only pages dirtied since the
    /// previous cut.
    pub wal_pages: u64,
}

impl From<&ShardOutput> for ShardHostPerf {
    fn from(o: &ShardOutput) -> ShardHostPerf {
        ShardHostPerf {
            shard: o.plan.shard,
            insns: o.insns,
            wall_seconds: o.wall_seconds,
            superblocks: o.superblocks,
            predecode: o.predecode,
            wal_bytes: o.wal.bytes,
            wal_pages: o.wal.pages,
        }
    }
}

impl ShardHostPerf {
    /// Host MIPS (million simulated instructions per wall second).
    #[must_use]
    pub fn mips(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.insns as f64 / self.wall_seconds / 1.0e6
        } else {
            0.0
        }
    }

    /// Fraction of retired instructions executed inside superblocks, in
    /// `[0, 1]` — the engine's coverage of the dynamic instruction
    /// stream.
    #[must_use]
    pub fn superblock_coverage(&self) -> f64 {
        if self.insns > 0 {
            self.superblocks.block_insns as f64 / self.insns as f64
        } else {
            0.0
        }
    }

    /// JSON with fixed field order.
    #[must_use]
    pub fn to_json(&self) -> String {
        let sb = &self.superblocks;
        let pd = &self.predecode;
        JsonObject::new()
            .u64("shard", self.shard as u64)
            .u64("insns", self.insns)
            .f64("wall_seconds", self.wall_seconds)
            .f64("mips", self.mips())
            .raw(
                "superblocks",
                &JsonObject::new()
                    .u64("translations", sb.translations)
                    .u64("hits", sb.hits)
                    .u64("block_insns", sb.block_insns)
                    .f64("coverage", self.superblock_coverage())
                    .u64("stale", sb.stale)
                    .u64("invalidations", sb.invalidations)
                    .u64("exit_events", sb.exit_events)
                    .u64("exit_self_modified", sb.exit_self_modified)
                    .u64("exit_traps", sb.exit_traps)
                    .u64("exit_faults", sb.exit_faults)
                    .finish(),
            )
            .raw(
                "predecode",
                &JsonObject::new()
                    .u64("hits", pd.hits)
                    .u64("misses", pd.misses)
                    .u64("invalidations", pd.invalidations)
                    .finish(),
            )
            .raw(
                "wal",
                &JsonObject::new()
                    .u64("bytes", self.wal_bytes)
                    .u64("pages", self.wal_pages)
                    .finish(),
            )
            .finish()
    }
}

/// One shard's view of the supervision run: how often it died, how it
/// died, and what the supervisor did about it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardSupervision {
    /// Shard index.
    pub shard: usize,
    /// Times the supervisor respawned this shard.
    pub revivals: u32,
    /// Deaths by panic (caught via `catch_unwind`).
    pub crashes: u32,
    /// Deaths by missed heartbeat deadline (hung shard cancelled).
    pub hangs: u32,
    /// Deaths by typed harness error (e.g. an unreadable checkpoint).
    pub harness_errors: u32,
    /// Schedule indices quarantined as poison requests (a request whose
    /// delivery killed the shard twice in a row).
    pub quarantined: Vec<u64>,
    /// Whether the supervisor gave up on this shard after exhausting
    /// its revival budget.
    pub abandoned: bool,
    /// Mean wall-clock milliseconds from death detection to respawn
    /// (includes drain wait and backoff); 0 if the shard never died.
    pub mean_time_to_revive_ms: f64,
    /// Replica-vote divergences observed on this shard's group (0 when
    /// the shard ran unreplicated).
    pub divergences: u32,
    /// Divergent replicas masked and revived from the majority
    /// checkpoint.
    pub divergent_masked: u32,
    /// Scheduled proactive rejuvenations performed on this group.
    pub rejuvenations: u32,
}

impl ShardSupervision {
    /// JSON with fixed field order.
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .u64("shard", self.shard as u64)
            .u64("revivals", u64::from(self.revivals))
            .u64("crashes", u64::from(self.crashes))
            .u64("hangs", u64::from(self.hangs))
            .u64("harness_errors", u64::from(self.harness_errors))
            .raw("quarantined", &json_array(self.quarantined.iter().map(u64::to_string)))
            .bool("abandoned", self.abandoned)
            .f64("mean_time_to_revive_ms", self.mean_time_to_revive_ms)
            .u64("divergences", u64::from(self.divergences))
            .u64("divergent_masked", u64::from(self.divergent_masked))
            .u64("rejuvenations", u64::from(self.rejuvenations))
            .finish()
    }
}

/// Fleet-wide supervision outcome, produced only by
/// [`crate::run_fleet_supervised`]. Wall-clock derived (MTTR,
/// availability under real kills), so it lives in [`FleetReport`],
/// never in [`FleetStats`].
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisionStats {
    /// Total shard revivals across the fleet.
    pub revivals: u64,
    /// Total panic deaths.
    pub crashes: u64,
    /// Total hang deaths (heartbeat deadline missed).
    pub hangs: u64,
    /// Total typed harness-error deaths.
    pub harness_errors: u64,
    /// Chaos host events that actually fired (kills + stalls + WAL
    /// tears), summed over shards.
    pub chaos_host_events: u64,
    /// Requests quarantined as poison, fleet-wide.
    pub quarantined_requests: u64,
    /// Shards abandoned after exhausting their revival budget.
    pub abandoned_shards: u64,
    /// Requests *disposed of* — served, or neutralized as detected
    /// attacks — over requests scheduled, in `[0, 1]`. 1.0 means no
    /// request was lost to quarantine or abandonment; chaos that only
    /// kills and revives leaves it at 1.0 because revival replays are
    /// exact.
    pub availability: f64,
    /// Mean time-to-revive over every revival in the run, in wall
    /// milliseconds (0 when nothing died).
    pub mean_time_to_revive_ms: f64,
    /// Replica-vote divergences detected fleet-wide (0 unless the fleet
    /// ran with `--replicas >= 2`).
    pub divergences: u64,
    /// Divergent replicas masked and revived from a majority checkpoint
    /// (K >= 3 only; 2-way groups quarantine instead of masking).
    pub divergent_masked: u64,
    /// Scheduled proactive rejuvenations performed fleet-wide.
    pub rejuvenations: u64,
    /// Per-shard supervision rows, in shard order.
    pub per_shard: Vec<ShardSupervision>,
}

impl SupervisionStats {
    /// Fleet totals over the per-shard rows (in shard order). The
    /// executor-specific figures start neutral — no chaos events,
    /// availability 1.0, no revival time — for the caller to fill in.
    #[must_use]
    pub fn from_shards(per_shard: Vec<ShardSupervision>) -> SupervisionStats {
        let sum = |f: fn(&ShardSupervision) -> u32| {
            per_shard.iter().map(|s| u64::from(f(s))).sum::<u64>()
        };
        SupervisionStats {
            revivals: sum(|s| s.revivals),
            crashes: sum(|s| s.crashes),
            hangs: sum(|s| s.hangs),
            harness_errors: sum(|s| s.harness_errors),
            chaos_host_events: 0,
            quarantined_requests: per_shard.iter().map(|s| s.quarantined.len() as u64).sum(),
            abandoned_shards: per_shard.iter().filter(|s| s.abandoned).count() as u64,
            availability: 1.0,
            mean_time_to_revive_ms: 0.0,
            divergences: sum(|s| s.divergences),
            divergent_masked: sum(|s| s.divergent_masked),
            rejuvenations: sum(|s| s.rejuvenations),
            per_shard,
        }
    }

    /// JSON with fixed field order.
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .u64("revivals", self.revivals)
            .u64("crashes", self.crashes)
            .u64("hangs", self.hangs)
            .u64("harness_errors", self.harness_errors)
            .u64("chaos_host_events", self.chaos_host_events)
            .u64("quarantined_requests", self.quarantined_requests)
            .u64("abandoned_shards", self.abandoned_shards)
            .f64("availability", self.availability)
            .f64("mean_time_to_revive_ms", self.mean_time_to_revive_ms)
            .u64("divergences", self.divergences)
            .u64("divergent_masked", self.divergent_masked)
            .u64("rejuvenations", self.rejuvenations)
            .raw("per_shard", &json_array(self.per_shard.iter().map(ShardSupervision::to_json)))
            .finish()
    }
}

impl std::fmt::Display for SupervisionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "supervision: {} revivals ({} crashes, {} hangs, {} harness errors), \
             {} quarantined, {} abandoned; availability {:.4}, mean revive {:.1} ms; \
             {} divergences ({} masked), {} rejuvenations",
            self.revivals,
            self.crashes,
            self.hangs,
            self.harness_errors,
            self.quarantined_requests,
            self.abandoned_shards,
            self.availability,
            self.mean_time_to_revive_ms,
            self.divergences,
            self.divergent_masked,
            self.rejuvenations
        )
    }
}

/// A full fleet run: the deterministic stats plus this run's wall-clock
/// measurements.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The deterministic aggregate.
    pub stats: FleetStats,
    /// Wall-clock seconds the fleet took.
    pub wall_seconds: f64,
    /// Wall-clock throughput in requests per second.
    pub wall_req_per_sec: f64,
    /// Per-shard host MIPS rows, in shard order (wall-clock data —
    /// deliberately outside `stats`).
    pub shard_host: Vec<ShardHostPerf>,
    /// Supervision outcome — `Some` only for supervised and replicated
    /// runs.
    pub supervision: Option<SupervisionStats>,
}

impl FleetReport {
    /// The report of a run that started at `started` and produced
    /// `outputs` (in shard order): folded stats, per-shard host rows and
    /// wall clock. `supervision` is left for the supervising executors
    /// to fill in.
    #[must_use]
    pub fn from_outputs(outputs: &[ShardOutput], started: Instant) -> FleetReport {
        let stats = aggregate_stats(outputs);
        let shard_host = outputs.iter().map(ShardHostPerf::from).collect();
        let wall_seconds = started.elapsed().as_secs_f64();
        let wall_req_per_sec =
            if wall_seconds > 0.0 { stats.served as f64 / wall_seconds } else { 0.0 };
        FleetReport { stats, wall_seconds, wall_req_per_sec, shard_host, supervision: None }
    }

    /// Fleet-wide host MIPS: every shard's instructions over the whole
    /// run's wall clock.
    #[must_use]
    pub fn host_mips(&self) -> f64 {
        let insns: u64 = self.shard_host.iter().map(|h| h.insns).sum();
        if self.wall_seconds > 0.0 {
            insns as f64 / self.wall_seconds / 1.0e6
        } else {
            0.0
        }
    }

    /// Fleet-wide superblock coverage: instructions executed inside
    /// superblocks over all instructions retired, in `[0, 1]`.
    #[must_use]
    pub fn superblock_coverage(&self) -> f64 {
        let insns: u64 = self.shard_host.iter().map(|h| h.insns).sum();
        let block: u64 = self.shard_host.iter().map(|h| h.superblocks.block_insns).sum();
        if insns > 0 {
            block as f64 / insns as f64
        } else {
            0.0
        }
    }

    /// JSON of the whole report (stats plus wall clock).
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .raw("stats", &self.stats.to_json())
            .f64("wall_seconds", self.wall_seconds)
            .f64("wall_req_per_sec", self.wall_req_per_sec)
            .f64("host_mips", self.host_mips())
            .raw("shard_host", &json_array(self.shard_host.iter().map(ShardHostPerf::to_json)))
            .raw(
                "supervision",
                &self.supervision.as_ref().map_or_else(|| "null".into(), SupervisionStats::to_json),
            )
            .finish()
    }
}

impl std::fmt::Display for FleetStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "fleet of {} shards: {} served ({} benign of {} sent, ratio {:.3})",
            self.shards,
            self.served,
            self.benign_served,
            self.benign_sent,
            self.benign_service_ratio
        )?;
        writeln!(
            f,
            "attacks: {} sent, {} detections ({} true, {} micro / {} macro recoveries, {} faults injected)",
            self.attacks_sent, self.detections, self.true_detections, self.micro_recoveries,
            self.macro_recoveries, self.faults_injected
        )?;
        write!(
            f,
            "latency cycles p50/p95/p99 = {}/{}/{}; {:.1} req/Mcycle over a {}-cycle makespan",
            self.latency.p50,
            self.latency.p95,
            self.latency.p99,
            self.served_per_mcycle,
            self.max_shard_cycles
        )
    }
}
