//! The self-healing executor: shard threads under supervision, with
//! checkpoint-based revival.
//!
//! [`run_fleet_supervised`] runs every shard inside
//! [`std::panic::catch_unwind`] and watches a progress-heartbeat
//! channel. Three death shapes are handled:
//!
//! * **crash** — the shard thread panicked; the panic payload and the
//!   in-flight schedule index (if the death happened mid-delivery) are
//!   captured for attribution.
//! * **hang** — no heartbeat within the configured wall-clock deadline;
//!   the zombie incarnation is cancelled cooperatively and replaced.
//! * **harness error** — the shard returned a typed
//!   [`ShardError`](crate::shard::ShardError) (deploy or checkpoint-store
//!   failure).
//!
//! A dead shard is revived from its latest durable checkpoint (when the
//! fleet checkpoints; from scratch otherwise — determinism makes both
//! converge on the same [`crate::FleetStats`]) after a bounded
//! exponential backoff. A shard that keeps dying is *abandoned* once it
//! exhausts [`SupervisorConfig::max_revivals`]: the fleet degrades but
//! finishes, salvaging the abandoned shard's last checkpointed report.
//!
//! **Poison requests** get special treatment, mirroring the paper's
//! rollback *past* the malicious request (§3.3.2): when two deaths of
//! one shard are attributed to delivering the same schedule index, that
//! index is quarantined — the next incarnation consumes it without
//! delivery and the fleet keeps its availability instead of crash-looping.
//!
//! The deterministic aggregate is folded from each shard's *final*
//! report, so a kill-and-revive run yields byte-identical
//! [`crate::FleetStats`] to an undisturbed one.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use indra_core::RunReport;
use indra_persist::{SnapshotStore, JOURNAL_FILE};

use crate::chaos::{
    install_chaos_panic_hook, plan_for_shard, ChaosConfig, ChaosRuntime, ShardChaosPlan,
};
use crate::persist::{decode_progress, encode_meta, load_restored, RestoredShard};
use crate::report::{ShardSupervision, SupervisionStats};
use crate::shard::{run_shard_inner, shard_schedule, ShardHarness, ShardOutput, NOT_DELIVERING};
use crate::{FleetConfig, FleetReport};

/// Supervision policy: how patiently shards are watched and how hard
/// the supervisor tries before giving up on one.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Revivals allowed per shard before it is abandoned (the fleet
    /// then finishes degraded instead of crash-looping forever).
    pub max_revivals: u32,
    /// Heartbeat deadline in wall milliseconds: a shard that emits no
    /// run-slice heartbeat for this long is declared hung.
    pub deadline_ms: u64,
    /// First revival backoff in wall milliseconds (doubles per revival
    /// of the same shard).
    pub backoff_base_ms: u64,
    /// Backoff ceiling in wall milliseconds.
    pub backoff_cap_ms: u64,
    /// The chaos schedule to inject (see [`ChaosConfig`]);
    /// [`ChaosConfig::off`] for plain supervision.
    pub chaos: ChaosConfig,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            max_revivals: 10,
            deadline_ms: 5_000,
            backoff_base_ms: 5,
            backoff_cap_ms: 100,
            chaos: ChaosConfig::off(),
        }
    }
}

impl SupervisorConfig {
    /// The revival delay before revival number `n` (1-based), doubling
    /// from the base and saturating at the cap.
    fn backoff(&self, n: u32) -> Duration {
        let exp = n.saturating_sub(1).min(20);
        Duration::from_millis(
            self.backoff_base_ms.saturating_mul(1 << exp).min(self.backoff_cap_ms),
        )
    }
}

/// What a shard incarnation can report upward.
enum SupEvent {
    /// A run-slice-boundary heartbeat.
    Beat,
    /// The incarnation finished its schedule (or gave up).
    Done(Box<ShardOutput>),
    /// The incarnation panicked; `delivering` is the schedule index it
    /// was delivering when it died, if the death was mid-delivery.
    Crashed { delivering: Option<u64> },
    /// The incarnation failed with a typed harness error.
    Fault,
    /// The incarnation's thread is gone (always the last message).
    Exited,
}

struct SupMsg {
    shard: usize,
    gen: u64,
    event: SupEvent,
}

enum SlotState {
    /// An incarnation is (believed) alive.
    Running,
    /// Death observed; waiting for the incarnation's `Exited` so the
    /// checkpoint store has exactly one writer per shard.
    Draining,
    /// Dead and drained; respawn when the backoff elapses.
    Backoff {
        until: Instant,
    },
    Done,
    Abandoned,
}

/// The supervisor's per-shard bookkeeping.
struct Slot {
    gen: u64,
    state: SlotState,
    cancel: Arc<AtomicBool>,
    delivering: Arc<AtomicU64>,
    revivals: u32,
    crashes: u32,
    hangs: u32,
    harness_errors: u32,
    last_beat: Instant,
    /// Schedule index attributed to the most recent *attributable*
    /// death. A second death at the same index marks it poison.
    last_death_attr: Option<u64>,
    quarantined: BTreeSet<u64>,
    died_at: Option<Instant>,
    revive_ms: Vec<f64>,
    output: Option<Box<ShardOutput>>,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            gen: 0,
            state: SlotState::Running,
            cancel: Arc::new(AtomicBool::new(false)),
            delivering: Arc::new(AtomicU64::new(NOT_DELIVERING)),
            revivals: 0,
            crashes: 0,
            hangs: 0,
            harness_errors: 0,
            last_beat: Instant::now(),
            last_death_attr: None,
            quarantined: BTreeSet::new(),
            died_at: None,
            revive_ms: Vec::new(),
            output: None,
        }
    }

    fn finished(&self) -> bool {
        matches!(self.state, SlotState::Done | SlotState::Abandoned)
    }
}

/// The mean of `xs`, 0 when empty.
fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Shared per-fleet context the spawn/revive paths need.
struct Ctx<'a> {
    sup: &'a SupervisorConfig,
    store: Option<SnapshotStore>,
    plans: Vec<Arc<ShardChaosPlan>>,
    fired: Vec<Arc<Vec<AtomicBool>>>,
    stall_ms: u64,
}

impl Ctx<'_> {
    fn harness(&self, shard: usize, slot: &Slot) -> ShardHarness {
        let chaos = (!self.sup.chaos.is_off()).then(|| {
            ChaosRuntime::new(
                self.plans[shard].clone(),
                self.fired[shard].clone(),
                self.stall_ms,
                self.store.as_ref().map(|s| s.shard_dir(shard).join(JOURNAL_FILE)),
            )
        });
        ShardHarness {
            cancel: Some(slot.cancel.clone()),
            quarantined: slot.quarantined.iter().copied().collect(),
            delivering: Some(slot.delivering.clone()),
            chaos,
        }
    }

    /// Loads the shard's latest checkpoint for revival. Any load
    /// failure (no store, nothing checkpointed yet, corrupt blob)
    /// degrades to a fresh start — determinism makes the restart
    /// converge on the same trajectory, just more slowly.
    fn thaw(&self, shard: usize) -> Option<RestoredShard> {
        load_restored(self.store.as_ref()?, shard).ok()?
    }
}

fn spawn_incarnation<'scope, 'env>(
    scope: &'scope std::thread::Scope<'scope, 'env>,
    cfg: &'env FleetConfig,
    tx: mpsc::Sender<SupMsg>,
    shard: usize,
    gen: u64,
    restored: Option<RestoredShard>,
    harness: ShardHarness,
) {
    let plan = cfg.plan(shard);
    let delivering = harness.delivering.clone();
    scope.spawn(move || {
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_shard_inner(cfg, plan, restored, harness, |_| {
                let _ = tx.send(SupMsg { shard, gen, event: SupEvent::Beat });
            })
        }));
        match result {
            Ok(Ok(Some(out))) => {
                let _ = tx.send(SupMsg { shard, gen, event: SupEvent::Done(Box::new(out)) });
            }
            Ok(Ok(None)) => {} // cancelled: a newer incarnation owns the result
            Ok(Err(_)) => {
                let _ = tx.send(SupMsg { shard, gen, event: SupEvent::Fault });
            }
            Err(_) => {
                // Attribute the death: if the loop was mid-delivery the
                // flag still holds the schedule index it was delivering.
                let at = delivering.as_ref().map_or(NOT_DELIVERING, |d| d.load(Ordering::SeqCst));
                let _ = tx.send(SupMsg {
                    shard,
                    gen,
                    event: SupEvent::Crashed { delivering: (at != NOT_DELIVERING).then_some(at) },
                });
            }
        }
        let _ = tx.send(SupMsg { shard, gen, event: SupEvent::Exited });
    });
}

/// Runs the fleet under supervision: crashes, hangs and harness errors
/// are detected, the dead shard is revived from its latest checkpoint
/// (or from scratch) with bounded exponential backoff, repeat-offender
/// "poison" requests are quarantined, and shards that exhaust their
/// revival budget are abandoned so the fleet finishes degraded rather
/// than not at all.
///
/// The returned report carries [`FleetReport::supervision`]. The
/// deterministic [`crate::FleetStats`] inside is byte-identical to an
/// unsupervised run of the same config whenever nothing was quarantined
/// or abandoned — revival replays from checkpoints are exact.
///
/// # Panics
///
/// Panics if `cfg.shards == 0`, `cfg.apps` is empty, or the checkpoint
/// store cannot be created — everything *after* setup is handled, not
/// propagated.
#[must_use]
pub fn run_fleet_supervised(cfg: &FleetConfig, sup: &SupervisorConfig) -> FleetReport {
    assert!(cfg.shards > 0, "fleet needs at least one shard");
    let started = Instant::now();
    if !sup.chaos.is_off() {
        install_chaos_panic_hook();
    }

    let store = match (&cfg.store_dir, cfg.checkpoint_every) {
        (Some(dir), every) if every > 0 => {
            let s = SnapshotStore::create(dir.as_str()).expect("checkpoint store");
            s.write_meta(&encode_meta(cfg)).expect("checkpoint meta");
            Some(s)
        }
        _ => None,
    };
    // A stall must outlive the supervisor's deadline or it would never
    // be seen as a hang; resolve `stall_ms == 0` to safely past it.
    let stall_ms =
        if sup.chaos.stall_ms > 0 { sup.chaos.stall_ms } else { sup.deadline_ms * 2 + 250 };
    let plans: Vec<Arc<ShardChaosPlan>> =
        (0..cfg.shards).map(|s| Arc::new(plan_for_shard(&sup.chaos, cfg, s))).collect();
    let fired: Vec<Arc<Vec<AtomicBool>>> = plans
        .iter()
        .map(|p| Arc::new((0..p.events.len()).map(|_| AtomicBool::new(false)).collect::<Vec<_>>()))
        .collect();
    let ctx = Ctx { sup, store, plans, fired, stall_ms };

    let deadline = Duration::from_millis(sup.deadline_ms.max(1));
    let mut slots: Vec<Slot> = (0..cfg.shards).map(|_| Slot::new()).collect();

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<SupMsg>();
        for (shard, slot) in slots.iter().enumerate() {
            spawn_incarnation(
                scope,
                cfg,
                tx.clone(),
                shard,
                slot.gen,
                None,
                ctx.harness(shard, slot),
            );
        }

        while !slots.iter().all(Slot::finished) {
            match rx.recv_timeout(Duration::from_millis(20)) {
                Ok(m) => handle(&mut slots[m.shard], m, sup),
                Err(RecvTimeoutError::Timeout) => {}
                // Unreachable while we hold `tx`, but never spin on it.
                Err(RecvTimeoutError::Disconnected) => break,
            }

            let now = Instant::now();
            for (shard, slot) in slots.iter_mut().enumerate() {
                match slot.state {
                    SlotState::Running if now.duration_since(slot.last_beat) > deadline => {
                        // Hung: cancel the zombie; its `Exited` (the
                        // stall loop polls the flag) triggers revival.
                        slot.hangs += 1;
                        slot.died_at = Some(now);
                        slot.cancel.store(true, Ordering::SeqCst);
                        slot.state = SlotState::Draining;
                    }
                    SlotState::Backoff { until } if now >= until => {
                        slot.gen += 1;
                        slot.revivals += 1;
                        slot.cancel = Arc::new(AtomicBool::new(false));
                        slot.delivering = Arc::new(AtomicU64::new(NOT_DELIVERING));
                        if let Some(d) = slot.died_at.take() {
                            slot.revive_ms.push(d.elapsed().as_secs_f64() * 1e3);
                        }
                        slot.last_beat = now;
                        slot.state = SlotState::Running;
                        spawn_incarnation(
                            scope,
                            cfg,
                            tx.clone(),
                            shard,
                            slot.gen,
                            ctx.thaw(shard),
                            ctx.harness(shard, slot),
                        );
                    }
                    _ => {}
                }
            }
        }

        // Belt and braces: no live incarnations should remain, but a
        // raised flag costs nothing and guarantees the scope join.
        for slot in &slots {
            slot.cancel.store(true, Ordering::SeqCst);
        }
    });

    assemble_report(cfg, &ctx, &mut slots, started)
}

/// Applies one incarnation message to its shard's slot.
fn handle(slot: &mut Slot, m: SupMsg, sup: &SupervisorConfig) {
    if m.gen != slot.gen {
        // A previous incarnation's leftover (it cannot outlive its
        // `Exited`, which revival waits for — but be safe, not sorry).
        return;
    }
    match m.event {
        SupEvent::Beat => slot.last_beat = Instant::now(),
        SupEvent::Done(out) => {
            slot.output = Some(out);
            slot.state = SlotState::Done;
        }
        SupEvent::Crashed { delivering } => {
            // Poison attribution: two deaths delivering the same index
            // quarantine it (loop-top deaths are never attributable, so
            // chaos kills between the two strikes cannot confuse this).
            if let Some(idx) = delivering {
                if slot.last_death_attr == Some(idx) {
                    slot.quarantined.insert(idx);
                }
                slot.last_death_attr = Some(idx);
            }
            if matches!(slot.state, SlotState::Running) {
                slot.crashes += 1;
                slot.died_at = Some(Instant::now());
                slot.state = SlotState::Draining;
            }
        }
        SupEvent::Fault => {
            if matches!(slot.state, SlotState::Running) {
                slot.harness_errors += 1;
                slot.died_at = Some(Instant::now());
                slot.state = SlotState::Draining;
            }
        }
        SupEvent::Exited => match slot.state {
            SlotState::Draining => schedule_revival(slot, sup),
            SlotState::Running => {
                // Exited with no Done and no death report: treat as a
                // crash-shaped death so the shard is not lost silently.
                slot.crashes += 1;
                slot.died_at = Some(Instant::now());
                schedule_revival(slot, sup);
            }
            _ => {}
        },
    }
}

/// The dead incarnation has fully exited: either queue a revival after
/// backoff or abandon the shard.
fn schedule_revival(slot: &mut Slot, sup: &SupervisorConfig) {
    if slot.revivals >= sup.max_revivals {
        slot.died_at = None;
        slot.state = SlotState::Abandoned;
    } else {
        slot.state = SlotState::Backoff { until: Instant::now() + sup.backoff(slot.revivals + 1) };
    }
}

/// Best-effort stand-in for an abandoned shard: its last checkpointed
/// report (served counts, detections, samples — all real history), or
/// an empty one if it never checkpointed. `completed: false` keeps the
/// degradation visible in the aggregate.
fn salvage_output(cfg: &FleetConfig, ctx: &Ctx<'_>, shard: usize) -> ShardOutput {
    let plan = cfg.plan(shard);
    let schedule = shard_schedule(cfg, &plan);
    let benign_sent = schedule.iter().filter(|r| !r.malicious).count() as u64;
    let attacks_sent = schedule.len() as u64 - benign_sent;
    let (report, faults_injected) =
        match ctx.store.as_ref().and_then(|s| s.load_shard(shard).ok().flatten()) {
            Some(l) => {
                let faults = decode_progress(&l.progress).map_or(0, |p| p.faults_injected);
                (l.state.report, faults)
            }
            None => (RunReport::default(), 0),
        };
    let sim_cycles = report.samples.last().map_or(0, |s| s.completed_at);
    ShardOutput {
        plan,
        report,
        benign_sent,
        attacks_sent,
        faults_injected,
        sim_cycles,
        completed: false,
        insns: 0,
        wall_seconds: 0.0,
        superblocks: indra_sim::SuperblockStats::default(),
        predecode: indra_sim::PredecodeStats::default(),
        wal: indra_persist::CheckpointReceipt::default(),
    }
}

fn assemble_report(
    cfg: &FleetConfig,
    ctx: &Ctx<'_>,
    slots: &mut [Slot],
    started: Instant,
) -> FleetReport {
    let outputs: Vec<ShardOutput> = slots
        .iter_mut()
        .enumerate()
        .map(|(shard, slot)| match slot.output.take() {
            Some(b) => *b,
            None => salvage_output(cfg, ctx, shard),
        })
        .collect();

    let mut report = FleetReport::from_outputs(&outputs, started);
    let per_shard = slots
        .iter()
        .enumerate()
        .map(|(shard, s)| ShardSupervision {
            shard,
            revivals: s.revivals,
            crashes: s.crashes,
            hangs: s.hangs,
            harness_errors: s.harness_errors,
            quarantined: s.quarantined.iter().copied().collect(),
            abandoned: matches!(s.state, SlotState::Abandoned),
            mean_time_to_revive_ms: mean(&s.revive_ms),
            ..ShardSupervision::default()
        })
        .collect();
    let mut sup = SupervisionStats::from_shards(per_shard);
    sup.chaos_host_events = ctx
        .fired
        .iter()
        .map(|f| f.iter().filter(|b| b.load(Ordering::SeqCst)).count() as u64)
        .sum();
    // A request is "disposed" when it was served, or when it was a
    // detected attack the system neutralized (that *is* the service
    // working); quarantined and never-delivered requests are not.
    let scheduled = cfg.shards as u64 * u64::from(cfg.requests_per_shard);
    let stats = &report.stats;
    let disposed = stats.served + stats.true_detections.min(stats.attacks_sent);
    if scheduled > 0 {
        sup.availability = disposed as f64 / scheduled as f64;
    }
    let all_revivals: Vec<f64> = slots.iter().flat_map(|s| s.revive_ms.iter().copied()).collect();
    sup.mean_time_to_revive_ms = mean(&all_revivals);
    report.supervision = Some(sup);
    report
}
