//! One shard: a complete Fig. 2 cell (resurrector + resurrectee running
//! one service) driven by its own open-loop traffic schedule to a
//! request quota.
//!
//! A shard is deliberately a *whole* [`IndraSystem`] rather than one
//! core of a shared machine: the paper's consolidation topology puts
//! several resurrectees under one resurrector, and the fleet replicates
//! that cell per OS thread so cells never contend on simulated state.
//! Everything a shard does is a pure function of its [`ShardPlan`]
//! (derived seed, app, quota), which is what makes the fleet aggregate
//! reproducible under any thread schedule.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use indra_core::{IndraSystem, RunReport, RunState};
use indra_persist::{CheckpointReceipt, PersistError, SnapshotStore};
use indra_workloads::{
    build_app_scaled, detectable_attack_suite, standard_attack_suite, OpenLoopTraffic,
    ScheduleCursor, ServiceApp, TimedRequest,
};

use crate::chaos::ChaosRuntime;
use crate::engine::Engine;
use crate::persist::{encode_progress, RestoredShard, ShardProgress};
use crate::{FleetConfig, ShardSummary};

/// A typed failure of the shard *harness* itself — as opposed to a
/// failure of the simulated service (which the system handles) or a
/// panic (which the supervisor handles). Keeping these typed matters
/// under supervision: a stray `expect` inside `catch_unwind` would be
/// indistinguishable from a chaos-injected crash.
#[derive(Debug)]
pub enum ShardError {
    /// Deploying the service image into the fresh system failed.
    Deploy(indra_sim::LoadError),
    /// The durable checkpoint store failed.
    Persist(PersistError),
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::Deploy(e) => write!(f, "service deploy failed: {e:?}"),
            ShardError::Persist(e) => write!(f, "checkpoint store failed: {e}"),
        }
    }
}

impl std::error::Error for ShardError {}

impl From<PersistError> for ShardError {
    fn from(e: PersistError) -> ShardError {
        ShardError::Persist(e)
    }
}

/// Sentinel for "not delivering anything right now" in
/// [`ShardHarness::delivering`].
pub(crate) const NOT_DELIVERING: u64 = u64::MAX;

/// Supervision hooks threaded into the shard loop. The default (plain
/// `run_fleet`) is inert: no cancellation, nothing quarantined, no
/// chaos.
#[derive(Debug, Default)]
pub(crate) struct ShardHarness {
    /// Cooperative cancellation for this incarnation: checked at every
    /// run-slice boundary (and inside chaos stalls); when raised the
    /// loop returns quietly without an output.
    pub cancel: Option<Arc<AtomicBool>>,
    /// Quarantined schedule indices — consumed but never delivered.
    pub quarantined: Vec<u64>,
    /// The schedule index currently being delivered ([`NOT_DELIVERING`]
    /// otherwise). The supervisor reads it after a crash to attribute
    /// the death to a specific request: two consecutive deaths of one
    /// shard attributed to the same index mark that request as poison.
    pub delivering: Option<Arc<AtomicU64>>,
    /// This shard's chaos schedule, when running under a chaos profile.
    pub chaos: Option<ChaosRuntime>,
}

impl ShardHarness {
    fn cancelled(&self) -> bool {
        self.cancel.as_ref().is_some_and(|c| c.load(Ordering::SeqCst))
    }

    fn set_delivering(&self, index: u64) {
        if let Some(d) = &self.delivering {
            d.store(index, Ordering::SeqCst);
        }
    }
}

/// Everything that determines one shard's behavior.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Shard index.
    pub shard: usize,
    /// The service this shard runs.
    pub app: ServiceApp,
    /// This shard's traffic seed (derived from the fleet seed).
    pub seed: u64,
}

/// What one shard hands the aggregator when it finishes.
#[derive(Debug, Clone)]
pub struct ShardOutput {
    /// The plan that produced this output.
    pub plan: ShardPlan,
    /// The system's full run report.
    pub report: RunReport,
    /// Benign requests the schedule queued.
    pub benign_sent: u64,
    /// Attack requests the schedule queued.
    pub attacks_sent: u64,
    /// Hardware faults injected by the harness.
    pub faults_injected: u64,
    /// Resurrectee cycles consumed.
    pub sim_cycles: u64,
    /// Whether the schedule was fully delivered and drained.
    pub completed: bool,
    /// Instructions retired across every core of the shard machine
    /// (deterministic, but only reported host-side).
    pub insns: u64,
    /// Host wall-clock seconds this shard's loop ran. Wall-clock only —
    /// never folded into [`ShardSummary`] or [`crate::FleetStats`].
    pub wall_seconds: f64,
    /// Superblock-engine counters summed over the shard machine's cores
    /// (host-side observability — never folded into [`crate::FleetStats`]).
    pub superblocks: indra_sim::SuperblockStats,
    /// Predecode-cache counters summed over the shard machine's cores.
    pub predecode: indra_sim::PredecodeStats,
    /// Accumulated WAL-delta cost of every durable checkpoint this shard
    /// wrote (zero when checkpointing is off). Host-side observability —
    /// never folded into [`crate::FleetStats`].
    pub wal: CheckpointReceipt,
}

impl ShardOutput {
    /// Collapses the output into its aggregate summary row.
    #[must_use]
    pub fn summary(&self) -> ShardSummary {
        let benign_served = self.report.benign_served;
        ShardSummary {
            shard: self.plan.shard,
            app: self.plan.app,
            served: self.report.served,
            benign_sent: self.benign_sent,
            benign_served,
            attacks_sent: self.attacks_sent,
            detections: self.report.detections.len() as u64,
            true_detections: self.report.true_detections() as u64,
            detection_latency_insns: self
                .report
                .detections
                .iter()
                .map(|d| d.insns_into_request)
                .sum(),
            micro_recoveries: self
                .report
                .detections
                .iter()
                .filter(|d| d.level == indra_core::RecoveryLevel::Micro)
                .count() as u64,
            macro_recoveries: self
                .report
                .detections
                .iter()
                .filter(|d| d.level == indra_core::RecoveryLevel::Macro)
                .count() as u64,
            faults_injected: self.faults_injected,
            sim_cycles: self.sim_cycles,
            benign_service_ratio: if self.benign_sent == 0 {
                1.0
            } else {
                benign_served as f64 / self.benign_sent as f64
            },
            completed: self.completed,
        }
    }
}

/// A progress heartbeat: emitted at every run-slice boundary so a
/// supervisor can tell a slow shard from a hung one.
#[derive(Debug, Clone, Copy)]
pub struct BeatMsg {
    /// Originating shard.
    pub shard: usize,
    /// Schedule entries consumed so far (delivered or quarantined).
    pub cursor: u64,
    /// Requests served so far.
    pub served: u64,
}

/// Builds the deterministic traffic schedule for `plan`.
#[must_use]
pub fn shard_schedule(cfg: &FleetConfig, plan: &ShardPlan) -> Vec<TimedRequest> {
    let image = build_app_scaled(plan.app, cfg.scale);
    let attacks = if cfg.include_dormant_attacks {
        standard_attack_suite(&image)
    } else {
        detectable_attack_suite(&image)
    };
    OpenLoopTraffic::with_attack_mix(
        cfg.requests_per_shard,
        attacks,
        cfg.attack_per_mille,
        cfg.mean_gap_cycles,
        plan.seed,
    )
    .generate(&image)
}

/// Builds the engine shard `plan` runs: the fleet knobs projected
/// through [`FleetConfig::engine`] for the plan's service.
///
/// # Errors
///
/// [`ShardError::Deploy`] when the service image fails to load.
pub fn shard_engine(cfg: &FleetConfig, plan: &ShardPlan) -> Result<Engine, ShardError> {
    Engine::new(&cfg.engine(plan.app))
}

/// The open-loop shard loop, optionally thawed from a checkpoint.
/// Returns `None` when the incarnation was cancelled (a newer one owns
/// the result); `beat` receives a heartbeat at every run-slice boundary.
///
/// A `restored` shard rebuilds the same engine (same config, same
/// deployed image — both pure functions of the plan), overwrites its
/// state with the frozen capture and re-enters the loop with the saved
/// harness cursors; from there execution is cycle-for-cycle identical
/// to the run that was killed.
pub(crate) fn run_shard_inner(
    cfg: &FleetConfig,
    plan: ShardPlan,
    restored: Option<RestoredShard>,
    harness: ShardHarness,
    mut beat: impl FnMut(BeatMsg),
) -> Result<Option<ShardOutput>, ShardError> {
    // The schedule first: its scratch allocations are freed before the
    // engine's system takes up residence, keeping peak memory down.
    let schedule = shard_schedule(cfg, &plan);
    let mut engine = shard_engine(cfg, &plan)?;
    let sent: Vec<bool> = schedule.iter().map(|r| r.malicious).collect();
    // Unlike the closed-loop per-request budget, the open-loop shard
    // draws one budget for its whole schedule.
    let steps_left = engine.config().per_request_steps() * (schedule.len() as u64 + 4) * 8;
    let sys = engine.system_mut();
    let core = sys.service_cores()[0];

    // The harness loop state lives in its checkpointed form throughout.
    let mut queue = ScheduleCursor::new(schedule, harness.quarantined.clone());
    let mut p = ShardProgress { steps_left, ..ShardProgress::default() };
    if let Some(r) = &restored {
        sys.restore_state(&r.state);
        queue.seek(r.progress.cursor);
        p = r.progress;
    }

    let mut writer = match (&cfg.store_dir, cfg.checkpoint_every) {
        (Some(dir), every) if every > 0 => {
            let store = SnapshotStore::create(dir.as_str())?;
            Some(store.shard_writer(plan.shard)?)
        }
        _ => None,
    };
    let mut ckpts_written = 0u64;
    let mut wal = CheckpointReceipt::default();
    let mut completed = true;

    loop {
        // Cooperative cancellation: the supervisor revoked this
        // incarnation (hang recovery, or end-of-run cleanup). Exit
        // without an output — a newer incarnation owns the result.
        if harness.cancelled() {
            return Ok(None);
        }

        // Graceful shutdown (signal handler raised the flag): stop at
        // this slice boundary. The boundary is also the checkpoint
        // boundary, so everything durable is already consistent — the
        // final checkpoint below (if due) or the last one written makes
        // the store resumable with no torn state.
        if cfg.shutdown.is_some_and(|f| f.load(Ordering::SeqCst)) {
            completed = false;
            break;
        }

        // Heartbeat at every run-slice boundary.
        beat(BeatMsg { shard: plan.shard, cursor: queue.consumed(), served: sys.report().served });

        // Host-level chaos: kills and journal tears panic out of here
        // (the supervisor's catch_unwind picks them up); a stall just
        // burns wall clock until the heartbeat deadline trips.
        if let Some(chaos) = &harness.chaos {
            if chaos.fire_host(sys.report().served, harness.cancel.as_ref()) {
                return Ok(None); // cancelled mid-stall
            }
        }

        // Guest-level chaos bursts are simulated history: their cursor
        // is persisted, so a revival replays them at the same point.
        if let Some(chaos) = &harness.chaos {
            let served = sys.report().served;
            while let Some(b) = chaos.plan.bursts.get(p.chaos_cursor as usize) {
                if served < b.at_served {
                    break;
                }
                for _ in 0..b.faults {
                    sys.inject_fault(core);
                }
                p.faults_injected += u64::from(b.faults);
                p.chaos_cursor += 1;
            }
        }

        // Quarantined entries are consumed (and recorded in the system
        // report) *before* the checkpoint, so the frozen state always
        // explains the cursor it is stored with.
        while let Some(idx) = queue.skip_quarantined_head() {
            sys.note_quarantined(idx);
        }

        // Durable checkpoint at the run-slice boundary. `freeze` never
        // mutates, so a checkpointed run is sim-cycle-identical to an
        // unchekpointed one; only wall-clock pays for the file writes.
        if let Some(w) = writer.as_mut() {
            let served = sys.report().served;
            if served.saturating_sub(p.served_at_last_ckpt) >= u64::from(cfg.checkpoint_every) {
                p.served_at_last_ckpt = served;
                p.cursor = queue.consumed();
                wal.absorb(w.checkpoint(&sys.freeze(), &encode_progress(&p))?);
                ckpts_written += 1;
                if cfg.halt_after_checkpoints.is_some_and(|halt| ckpts_written >= halt) {
                    // Simulated crash: die between two slices, exactly
                    // where a real kill -9 would land.
                    completed = false;
                    break;
                }
            }
        }

        // Open-loop delivery: everything whose arrival time has passed
        // goes into the inbox, regardless of service progress.
        let now = sys.service_cycles();
        let mut delivered = false;
        loop {
            while let Some(idx) = queue.skip_quarantined_head() {
                sys.note_quarantined(idx);
            }
            if queue.peek().is_none_or(|r| r.arrival_cycle > now) {
                break;
            }
            deliver_next(&mut queue, sys, &harness);
            delivered = true;
        }

        let state = sys.run(cfg.run_slice_steps.min(p.steps_left.max(1)));
        p.steps_left = p.steps_left.saturating_sub(cfg.run_slice_steps);

        // Optional rejuvenation-under-fault pressure.
        if let Some(every) = cfg.fault_every {
            let served = sys.report().served;
            if every > 0 && served.saturating_sub(p.served_at_last_fault) >= u64::from(every) {
                sys.inject_fault(core);
                p.faults_injected += 1;
                p.served_at_last_fault = served;
            }
        }

        match state {
            RunState::Idle => {
                while let Some(idx) = queue.skip_quarantined_head() {
                    sys.note_quarantined(idx);
                }
                match queue.peek() {
                    // The service outpaced the arrival process: the next
                    // client's clock becomes "now" (idle sim cores cannot
                    // burn cycles waiting, so the gap collapses).
                    Some(_) if !delivered => deliver_next(&mut queue, sys, &harness),
                    Some(_) => {}
                    None => break,
                }
            }
            RunState::Halted => {
                // Service died (e.g. undetected kill with monitoring off).
                completed = false;
                break;
            }
            RunState::BudgetExhausted => {
                if p.steps_left == 0 {
                    completed = false;
                    break;
                }
            }
        }
    }

    let completed = completed && queue.peek().is_none();
    Ok(Some(engine.output(plan, sent, p.faults_injected, completed, wal)))
}

/// Consumes and delivers the schedule head (which the caller has
/// already verified exists and is not quarantined), flagging the
/// in-flight index so a crash mid-delivery is attributable to this
/// request — and striking first when the head is the poison request.
fn deliver_next(queue: &mut ScheduleCursor, sys: &mut IndraSystem, harness: &ShardHarness) {
    let index = queue.consumed();
    harness.set_delivering(index);
    if let Some(chaos) = &harness.chaos {
        if chaos.poison() == Some(index) {
            chaos.poison_strike();
        }
    }
    let r = queue.pop().expect("caller peeked");
    sys.push_request(r.data, r.malicious);
    harness.set_delivering(NOT_DELIVERING);
}
