//! The integrated INDRA system (Fig. 2).
//!
//! [`IndraSystem`] wires the machine, the kernel-lite, the monitor and a
//! checkpoint scheme into the paper's run loop:
//!
//! * each **resurrectee** core executes one service; committed traces
//!   flow through its CAM filter into the shared FIFO;
//! * the **resurrector** consumes the FIFO with its own cycle clock
//!   (`max(clock, event_time) + verify_cost`), so monitoring runs
//!   *concurrently* — a resurrectee stalls only when the FIFO fills
//!   (Fig. 12) or at synchronization points (syscalls/I/O, §3.2.5);
//! * a detected violation (or a hardware fault, or a hung request)
//!   quiesces the offending core and triggers the hybrid recovery of
//!   Fig. 8: micro per-request rollback first, macro checkpoint restore
//!   after repeated failures.
//!
//! The paper's evaluation uses one resurrector and one resurrectee; the
//! design explicitly allows several resurrectees under one resurrector
//! (Fig. 2), which this implementation supports — deploy one service per
//! resurrectee core and the shared monitor multiplexes by ASID, exactly
//! as the paper's CR3-tagged trace entries do.

use std::collections::{BTreeMap, HashMap};

use indra_isa::{Image, Reg};
use indra_mem::FrameAllocator;
use indra_os::{syscall, Os, Pid, Response, SyscallEffect};
use indra_sim::{CoreStep, Machine, MachineConfig};

/// Fixed cost of one micro recovery beyond the scheme's own work: the
/// resurrector's stall IPI, the resurrectee's recovery interrupt handler,
/// the kernel walking the resource mark (closing descriptors, killing
/// children, reclaiming pages) and the context restore. Dominated by
/// kernel work, so tens of microseconds — this is what makes frequent
/// rollback visible on bind's short requests (Fig. 16's outlier).
const MICRO_RECOVERY_BASE_CYCLES: u64 = 40_000;

use crate::{
    restore_macro_checkpoint, take_macro_checkpoint, DeltaBackupEngine, DeltaConfig, HybridConfig,
    HybridController, HybridControllerState, MacroCheckpoint, MacroCheckpointState, Monitor,
    MonitorConfig, MonitorState, NoBackup, RecoveryLevel, Scheme, SchemeState, SoftwareCheckpoint,
    UndoLog, ViolationKind, VirtualCheckpoint,
};
use indra_os::OsState;
use indra_sim::MachineState;

/// Which checkpoint scheme to deploy (Table 3's rows).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// No backup hardware at all (baseline for Fig. 11).
    None,
    /// INDRA's delta-page engine.
    Delta,
    /// Hardware virtual checkpointing (page copy on first write).
    VirtualCheckpoint,
    /// libckpt-style software checkpointing.
    SoftwareCheckpoint,
    /// DIRA-style memory update log.
    UndoLog,
}

/// Full system configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    /// Machine parameters (Table 4).
    pub machine: MachineConfig,
    /// Monitor policies and per-event costs.
    pub monitor: MonitorConfig,
    /// Delta engine parameters.
    pub delta: DeltaConfig,
    /// Hybrid recovery parameters (one controller per service).
    pub hybrid: HybridConfig,
    /// The deployed scheme.
    pub scheme: SchemeKind,
    /// Master monitoring switch (off = the Fig. 11 baseline machine).
    pub monitoring: bool,
    /// Instructions a single request may retire before the resurrector
    /// declares it hung (DoS watchdog; teardrop-style freezes).
    pub request_timeout_insns: u64,
    /// The core [`IndraSystem::deploy`] targets first; additional
    /// deployments take the following resurrectee cores.
    pub service_core: usize,
    /// Register the statically-tightened policy (declared ∩ proven) with
    /// the monitor at deploy time instead of trusting the image's
    /// declarations verbatim. Default on; turn off as the escape hatch
    /// for images whose declarations must be taken at face value.
    pub strict_policy: bool,
    /// Per-request compartments: tag dirtied pages by request, seal the
    /// tag set when the response goes out, and on a fault caused by an
    /// earlier request's dormant corruption discard only the guilty
    /// compartment's lines and retry the victim — instead of dropping
    /// it. ANDed into [`DeltaConfig::compartments`]; default on.
    pub compartments: bool,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            machine: MachineConfig::default(),
            monitor: MonitorConfig::default(),
            delta: DeltaConfig::default(),
            hybrid: HybridConfig::default(),
            scheme: SchemeKind::Delta,
            monitoring: true,
            request_timeout_insns: 50_000_000,
            service_core: 1,
            strict_policy: true,
            compartments: true,
        }
    }
}

/// Why the system initiated a recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureCause {
    /// The monitor flagged a trace event.
    Violation(ViolationKind),
    /// The core faulted (illegal instruction, page fault, watchdog, …).
    Fault,
    /// The request exceeded the instruction budget (hung / DoS).
    Timeout,
}

/// One recovery episode, for the audit trail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Detection {
    /// Why.
    pub cause: FailureCause,
    /// The request being processed when it happened (if any).
    pub request_id: Option<u64>,
    /// Whether that request was actually malicious (ground truth).
    pub was_malicious: bool,
    /// The recovery level applied.
    pub level: RecoveryLevel,
    /// Resurrectee cycle time of the recovery.
    pub at_cycle: u64,
    /// Instructions the in-flight request had retired when the failure
    /// was detected (0 when no request was in flight) — the detection
    /// latency the red-team campaign scores payloads by: how much work
    /// an attack got done before the monitor or watchdog stopped it.
    pub insns_into_request: u64,
    /// The core the recovery ran on.
    pub core: usize,
    /// Whether the failed request was requeued for a retry (compartment
    /// path: the fault was attributed to an earlier request's sealed
    /// compartment, which was discarded).
    pub retried: bool,
    /// Id of the sealed request whose compartment was discarded, if any.
    pub discarded: Option<u64>,
    /// Ground truth for the discarded compartment's request.
    pub discarded_was_malicious: bool,
}

/// Timing sample for one served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestSample {
    /// Request id.
    pub request_id: u64,
    /// Resurrectee cycles from delivery to response.
    pub cycles: u64,
    /// Instructions retired for this request.
    pub instructions: u64,
    /// Ground truth tag.
    pub malicious: bool,
    /// The core that served it.
    pub core: usize,
    /// Absolute resurrectee cycle at which the response completed
    /// (availability accounting).
    pub completed_at: u64,
}

/// Static-policy statistics aggregated over every deployed service
/// (sums across deploys; the per-image numbers come from
/// [`indra_analyze::PolicyReport`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// Services deployed.
    pub services: u64,
    /// Indirect targets the images declared.
    pub declared_targets: u64,
    /// Indirect targets static analysis proved plausible.
    pub proven_targets: u64,
    /// Indirect targets actually registered with the monitor (equals
    /// `declared_targets` when `strict_policy` is off).
    pub registered_targets: u64,
    /// Executable pages registered.
    pub executable_pages: u64,
    /// Static findings across all deployed images.
    pub static_findings: u64,
}

impl PolicyStats {
    /// Fixed-field-order JSON (deterministic bytes).
    #[must_use]
    pub fn to_json(&self) -> String {
        crate::json::JsonObject::new()
            .u64("services", self.services)
            .u64("declared_targets", self.declared_targets)
            .u64("proven_targets", self.proven_targets)
            .u64("registered_targets", self.registered_targets)
            .u64("executable_pages", self.executable_pages)
            .u64("static_findings", self.static_findings)
            .finish()
    }
}

/// Aggregate results of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunReport {
    /// Requests fully served (response sent).
    pub served: u64,
    /// Benign requests among those.
    pub benign_served: u64,
    /// Recovery episodes.
    pub detections: Vec<Detection>,
    /// Per-request timing samples.
    pub samples: Vec<RequestSample>,
    /// Schedule indices the harness quarantined (poison requests never
    /// delivered to the service), in the order they were skipped.
    pub quarantined: Vec<u64>,
    /// Static-policy statistics from deploy-time analysis.
    pub policy: PolicyStats,
}

impl RunReport {
    /// Mean response cycles over benign requests (the paper's service
    /// response time metric).
    #[must_use]
    pub fn mean_benign_response(&self) -> f64 {
        let benign: Vec<u64> =
            self.samples.iter().filter(|s| !s.malicious).map(|s| s.cycles).collect();
        if benign.is_empty() {
            0.0
        } else {
            benign.iter().sum::<u64>() as f64 / benign.len() as f64
        }
    }

    /// Mean instructions per request (Fig. 13's metric).
    #[must_use]
    pub fn mean_instructions_per_request(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().map(|s| s.instructions).sum::<u64>() as f64
                / self.samples.len() as f64
        }
    }

    /// How many detections hit genuinely malicious requests.
    #[must_use]
    pub fn true_detections(&self) -> usize {
        self.detections.iter().filter(|d| d.was_malicious).count()
    }

    /// Detections on benign requests (the false-positive count; §3.2.4
    /// argues this stays at zero for behavior-based inspection — a benign
    /// request that faults *because of earlier dormant corruption* counts
    /// here and is the hybrid scheme's cue).
    #[must_use]
    pub fn false_positives(&self) -> usize {
        self.detections.iter().filter(|d| !d.was_malicious && d.request_id.is_some()).count()
    }

    /// Serializes the full report (detections and samples included) as
    /// JSON. Field order is fixed: equal reports produce identical bytes.
    #[must_use]
    pub fn to_json(&self) -> String {
        crate::json::JsonObject::new()
            .u64("served", self.served)
            .u64("benign_served", self.benign_served)
            .raw(
                "detections",
                &crate::json::json_array(self.detections.iter().map(Detection::to_json)),
            )
            .raw(
                "samples",
                &crate::json::json_array(self.samples.iter().map(RequestSample::to_json)),
            )
            .raw(
                "quarantined",
                &crate::json::json_array(self.quarantined.iter().map(u64::to_string)),
            )
            .raw("policy", &self.policy.to_json())
            .finish()
    }
}

impl Detection {
    /// One detection as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let cause = match self.cause {
            FailureCause::Violation(kind) => format!("violation:{kind:?}"),
            FailureCause::Fault => "fault".to_owned(),
            FailureCause::Timeout => "timeout".to_owned(),
        };
        let mut obj = crate::json::JsonObject::new();
        obj.str("cause", &cause);
        match self.request_id {
            Some(id) => obj.u64("request_id", id),
            None => obj.raw("request_id", "null"),
        };
        obj.bool("was_malicious", self.was_malicious)
            .str(
                "level",
                match self.level {
                    RecoveryLevel::Micro => "micro",
                    RecoveryLevel::Macro => "macro",
                },
            )
            .u64("at_cycle", self.at_cycle)
            .u64("insns_into_request", self.insns_into_request)
            .u64("core", self.core as u64)
            .bool("retried", self.retried);
        match self.discarded {
            Some(id) => obj.u64("discarded", id),
            None => obj.raw("discarded", "null"),
        };
        obj.bool("discarded_was_malicious", self.discarded_was_malicious).finish()
    }
}

impl RequestSample {
    /// One timing sample as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        crate::json::JsonObject::new()
            .u64("request_id", self.request_id)
            .u64("cycles", self.cycles)
            .u64("instructions", self.instructions)
            .bool("malicious", self.malicious)
            .u64("core", self.core as u64)
            .u64("completed_at", self.completed_at)
            .finish()
    }
}

/// Outcome of driving the system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunState {
    /// Every live service is blocked on `net_recv` with an empty inbox.
    Idle,
    /// All services exited / halted.
    Halted,
    /// The step budget ran out while work remained.
    BudgetExhausted,
}

#[derive(Debug, Clone, Copy)]
struct Service {
    pid: Pid,
    asid: u16,
    core: usize,
    entry: u32,
    initial_sp: u32,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    request_id: u64,
    malicious: bool,
    start_cycles: u64,
    start_retired: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pump {
    Progress,
    Idle,
    Halted,
}

/// The assembled INDRA machine + software stack.
pub struct IndraSystem {
    cfg: SystemConfig,
    machine: Machine,
    os: Os,
    monitor: Monitor,
    scheme: Box<dyn Scheme>,
    services: BTreeMap<usize, Service>,
    hybrids: HashMap<usize, HybridController>,
    macro_ckpts: HashMap<usize, MacroCheckpoint>,
    in_flight: HashMap<usize, InFlight>,
    blocked: HashMap<usize, bool>,
    report: RunReport,
}

impl std::fmt::Debug for IndraSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IndraSystem")
            .field("scheme", &self.scheme.name())
            .field("monitoring", &self.machine.monitoring())
            .field("services", &self.services.len())
            .finish()
    }
}

impl IndraSystem {
    /// Builds and boots the system.
    #[must_use]
    pub fn new(cfg: SystemConfig) -> IndraSystem {
        let mut machine = Machine::new(cfg.machine.clone());
        machine.boot_asymmetric();
        machine.set_monitoring(cfg.monitoring);
        let (pool_base, pool_end) = machine.backup_pool_ppns();
        let frames = || FrameAllocator::new(pool_base, pool_end);
        let mut delta = cfg.delta;
        delta.compartments = delta.compartments && cfg.compartments;
        let scheme: Box<dyn Scheme> = match cfg.scheme {
            SchemeKind::None => Box::new(NoBackup::new()),
            SchemeKind::Delta => Box::new(DeltaBackupEngine::new(delta, frames())),
            SchemeKind::VirtualCheckpoint => Box::new(VirtualCheckpoint::new(frames())),
            SchemeKind::SoftwareCheckpoint => Box::new(SoftwareCheckpoint::new(frames())),
            SchemeKind::UndoLog => Box::new(UndoLog::new()),
        };
        IndraSystem {
            monitor: Monitor::new(cfg.monitor),
            machine,
            os: Os::new(),
            scheme,
            services: BTreeMap::new(),
            hybrids: HashMap::new(),
            macro_ckpts: HashMap::new(),
            in_flight: HashMap::new(),
            blocked: HashMap::new(),
            report: RunReport::default(),
            cfg,
        }
    }

    /// The machine (stats access).
    #[must_use]
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable machine access (test fixtures).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The kernel-lite.
    #[must_use]
    pub fn os(&self) -> &Os {
        &self.os
    }

    /// The monitor.
    #[must_use]
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The active scheme.
    #[must_use]
    pub fn scheme(&self) -> &dyn Scheme {
        self.scheme.as_ref()
    }

    /// The hybrid recovery controller of the primary service.
    ///
    /// # Panics
    ///
    /// Panics when nothing is deployed.
    #[must_use]
    pub fn hybrid(&self) -> &HybridController {
        let core = self.primary().core;
        &self.hybrids[&core]
    }

    /// The hybrid controller of the service on `core`, if any.
    #[must_use]
    pub fn hybrid_for(&self, core: usize) -> Option<&HybridController> {
        self.hybrids.get(&core)
    }

    /// The run report so far.
    #[must_use]
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Cores with a deployed service, in deployment order.
    #[must_use]
    pub fn service_cores(&self) -> Vec<usize> {
        self.services.keys().copied().collect()
    }

    fn primary(&self) -> Service {
        *self.services.values().next().expect("no service deployed")
    }

    /// Resurrectee cycle count of the primary service (the evaluation's
    /// wall clock).
    #[must_use]
    pub fn service_cycles(&self) -> u64 {
        self.machine.core(self.primary().core).cycles()
    }

    /// Resets every measurement counter (caches, CAM, FIFO producers keep
    /// their contents — only statistics reset) and clears the run report.
    /// Benches call this after warm-up so Fig.-series numbers exclude
    /// cold-start effects.
    pub fn reset_measurements(&mut self) {
        for core in self.service_cores() {
            self.machine.core_mem_mut(core).reset_stats();
            self.machine.cam_mut(core).reset_stats();
        }
        self.scheme.reset_stats();
        self.monitor.reset_stats();
        self.report = RunReport::default();
    }

    /// Deploys a service image on the next free resurrectee core
    /// (starting at `cfg.service_core`), registering its metadata with
    /// the monitor and the scheme. Returns the service's pid.
    ///
    /// # Errors
    ///
    /// Propagates loader errors; errors when every resurrectee core is
    /// occupied.
    pub fn deploy(&mut self, image: &Image) -> Result<Pid, indra_sim::LoadError> {
        let core = (self.cfg.service_core..self.machine.num_cores())
            .find(|c| !self.services.contains_key(c))
            .ok_or(indra_sim::LoadError::OutOfFrames)?;
        self.deploy_on(core, image)
    }

    /// Deploys a service on a specific resurrectee core.
    ///
    /// # Errors
    ///
    /// Propagates loader errors.
    pub fn deploy_on(&mut self, core: usize, image: &Image) -> Result<Pid, indra_sim::LoadError> {
        let (pid, meta, analysis) = self.os.spawn_service_checked(
            &mut self.machine,
            core,
            image,
            self.cfg.strict_policy,
        )?;
        self.report.policy.services += 1;
        self.report.policy.declared_targets += analysis.stats.declared_indirect;
        self.report.policy.proven_targets += analysis.stats.proven_indirect;
        self.report.policy.registered_targets += meta.indirect_targets.len() as u64;
        self.report.policy.executable_pages += meta.executable_pages.len() as u64;
        self.report.policy.static_findings += analysis.findings.len() as u64;
        let asid = self.os.asid_of(pid);
        self.scheme.register(asid);
        self.monitor.register_app(asid, meta);
        self.services.insert(
            core,
            Service { pid, asid, core, entry: image.entry, initial_sp: image.initial_sp },
        );
        self.hybrids.insert(core, HybridController::new(self.cfg.hybrid));
        self.blocked.insert(core, false);
        Ok(pid)
    }

    /// Installs a custom inspection policy on the resurrector (the
    /// paper's software-upgradability story: new detection techniques
    /// deploy as monitor software, no hardware change).
    pub fn add_monitor_policy(&mut self, policy: Box<dyn crate::InspectionPolicy>) {
        self.monitor.add_policy(policy);
    }

    /// Extends the monitor's metadata with extra legitimate longjmp
    /// targets for the primary service (applications declare their setjmp
    /// sites at startup, §3.2.1).
    pub fn register_longjmp_targets(&mut self, targets: &[u32]) {
        if let Some(svc) = self.services.values().next().copied() {
            self.monitor.add_longjmp_targets(svc.asid, targets);
        }
    }

    /// Queues a request for the primary service.
    ///
    /// # Panics
    ///
    /// Panics when no service is deployed.
    pub fn push_request(&mut self, data: Vec<u8>, malicious: bool) -> u64 {
        let svc = self.primary();
        self.os.push_request(svc.pid, data, malicious)
    }

    /// Queues a request for the service on `core`.
    ///
    /// # Panics
    ///
    /// Panics when that core has no service.
    pub fn push_request_to(&mut self, core: usize, data: Vec<u8>, malicious: bool) -> u64 {
        let svc = self.services[&core];
        self.os.push_request(svc.pid, data, malicious)
    }

    /// Takes all responses produced by the primary service so far.
    pub fn take_responses(&mut self) -> Vec<Response> {
        match self.services.values().next().copied() {
            Some(svc) => self.os.take_responses(svc.pid),
            None => Vec::new(),
        }
    }

    /// Takes all responses from the service on `core`.
    ///
    /// # Panics
    ///
    /// Panics when that core has no service.
    pub fn take_responses_from(&mut self, core: usize) -> Vec<Response> {
        let svc = self.services[&core];
        self.os.take_responses(svc.pid)
    }

    /// Drives every deployed service until all are idle (blocked with no
    /// pending requests) or halted, or until `max_steps` scheduling steps
    /// are exhausted. Cores are stepped round-robin, which keeps their
    /// cycle clocks loosely synchronized.
    pub fn run(&mut self, max_steps: u64) -> RunState {
        let cores = self.service_cores();
        if cores.is_empty() {
            return RunState::Halted;
        }
        // With several services, one instruction per pump keeps their
        // clocks (and the shared DRAM/FIFO interleaving) exactly as the
        // reference interpreter orders them; a lone service has no peer
        // to interleave with and batches freely through the superblock
        // engine. `steps` counts retired instructions plus one per
        // non-executing pump, so budget consumption is identical whether
        // or not batching is on.
        let single = cores.len() == 1;
        let mut halted: Vec<bool> = vec![false; cores.len()];
        let mut steps = 0u64;
        loop {
            let mut any_progress = false;
            let mut any_idle = false;
            for (i, &core) in cores.iter().enumerate() {
                if halted[i] {
                    continue;
                }
                let budget = if single { max_steps - steps } else { 1 };
                let (pump, consumed) = self.pump(core, budget);
                match pump {
                    Pump::Progress => any_progress = true,
                    Pump::Idle => any_idle = true,
                    Pump::Halted => halted[i] = true,
                }
                steps += consumed;
                if steps >= max_steps {
                    return RunState::BudgetExhausted;
                }
            }
            if !any_progress {
                if any_idle {
                    return RunState::Idle;
                }
                if halted.iter().all(|&h| h) {
                    return RunState::Halted;
                }
            }
        }
    }

    /// One scheduling decision on one core: up to `max_insns`
    /// instructions through the superblock engine (bounded so a request
    /// can never batch past its DoS-timeout budget), or one of the
    /// non-executing transitions. Returns the scheduling outcome and the
    /// step budget consumed — instructions retired, plus one for the
    /// pump itself when nothing retired (and one extra for a faulting
    /// instruction, which occupies a pump without retiring).
    fn pump(&mut self, core: usize, max_insns: u64) -> (Pump, u64) {
        let svc = self.services[&core];

        // A service blocked in net_recv only needs attention when a
        // request arrives (re-stepping the parked syscall would re-charge
        // kernel entry).
        if self.blocked[&core] {
            return match self.os.try_deliver(&mut self.machine, svc.pid) {
                Some(eff) => {
                    self.blocked.insert(core, false);
                    self.apply_effect(core, eff);
                    (Pump::Progress, 1)
                }
                None => (Pump::Idle, 1),
            };
        }

        // DoS watchdog: a request that retires too much is declared hung.
        // A batch may run at most up to the first instruction *past* the
        // timeout budget, so the hang is declared at the same retired
        // count the one-instruction reference loop would see.
        let mut cap = max_insns;
        if let Some(inf) = self.in_flight.get(&core).copied() {
            let retired = self.machine.core(core).retired();
            if retired - inf.start_retired > self.cfg.request_timeout_insns {
                self.recover(core, FailureCause::Timeout);
                return (Pump::Progress, 1);
            }
            cap = cap.min(
                (inf.start_retired + self.cfg.request_timeout_insns + 1).saturating_sub(retired),
            );
        }

        // The resurrector drains the FIFO concurrently: everything it
        // would have finished by this core's wall-clock has already left
        // the queue. (Without this, the queue reads as full even when the
        // monitor caught up long ago, and Fig. 12's size-sensitivity
        // disappears.)
        let now = self.machine.core(core).cycles();
        while let Some(ev) = self.machine.fifo().peek() {
            if self.monitor.completion_preview(ev) > now {
                break;
            }
            let ev = self.machine.fifo_mut().pop().expect("peeked");
            let ev_asid = ev.asid;
            if let Some(v) = self.monitor.process(ev) {
                // The violation belongs to whichever core runs that ASID.
                if let Some(owner) =
                    self.services.values().find(|s| s.asid == ev_asid).map(|s| s.core)
                {
                    self.recover(owner, FailureCause::Violation(v.kind));
                    return (Pump::Progress, 1);
                }
            }
        }

        // Events still queued have completions in this core's future; a
        // batch may run only up to the boundary where the oldest one
        // falls due — the exact boundary where the reference loop's
        // drain (and any violation recovery) would interleave.
        let horizon = match self.machine.fifo().peek() {
            Some(ev) => self.monitor.completion_preview(ev),
            None => u64::MAX,
        };
        let (step, executed) =
            self.machine.step_core_batch(core, upcast(self.scheme.as_mut()), cap, horizon);
        // A faulting instruction occupies a pump without retiring, so it
        // costs one step on top of whatever the batch retired before it —
        // exactly what the one-instruction loop charges.
        let consumed = match step {
            CoreStep::Fault(_) => executed + 1,
            _ => executed.max(1),
        };
        let pump = match step {
            CoreStep::Executed => Pump::Progress,
            CoreStep::Halted => Pump::Halted,
            CoreStep::Stalled => Pump::Halted, // cannot happen outside recovery
            CoreStep::FifoStalled => {
                // Queue genuinely full: this core waits until the monitor
                // finishes the oldest entry, freeing one slot.
                if let Some(ev) = self.machine.fifo_mut().pop() {
                    let ev_asid = ev.asid;
                    let violation = self.monitor.process(ev);
                    let stall = self
                        .monitor
                        .clock()
                        .saturating_sub(self.machine.core(core).cycles())
                        .max(1);
                    self.machine.core_mut(core).add_stall_cycles(stall);
                    if let Some(v) = violation {
                        if let Some(owner) =
                            self.services.values().find(|s| s.asid == ev_asid).map(|s| s.core)
                        {
                            self.recover(owner, FailureCause::Violation(v.kind));
                        }
                    }
                }
                Pump::Progress
            }
            CoreStep::Syscall { code } => {
                // Synchronization point (§3.2.5): everything must verify
                // before the kernel acts on the resurrectee's behalf.
                if let Some((owner, kind)) = self.drain_fifo() {
                    self.recover(owner, FailureCause::Violation(kind));
                    return (Pump::Progress, consumed);
                }
                if self.machine.monitoring() {
                    let lag = self.monitor.clock().saturating_sub(self.machine.core(core).cycles());
                    if lag > 0 {
                        self.machine.core_mut(core).add_stall_cycles(lag);
                    }
                }
                self.pre_syscall_clean(svc, code);
                let effect = self.os.handle_syscall(&mut self.machine, core, code);
                match self.apply_effect(core, effect) {
                    Some(Pump::Idle) => Pump::Idle,
                    Some(p) => p,
                    None => Pump::Progress,
                }
            }
            CoreStep::Fault(_) => {
                // Drain first: often the monitor has already seen the
                // hijack that led here; prefer the violation cause.
                match self.drain_fifo() {
                    Some((owner, k)) => self.recover(owner, FailureCause::Violation(k)),
                    None => self.recover(core, FailureCause::Fault),
                }
                Pump::Progress
            }
        };
        (pump, consumed)
    }

    /// Before the OS reads service memory on the app's behalf, pending
    /// lazy restores in the affected range must materialize (the I/O
    /// synchronization rule).
    fn pre_syscall_clean(&mut self, svc: Service, code: u16) {
        let (buf, len) = match code {
            syscall::SYS_NET_SEND | syscall::SYS_LOG => {
                (self.machine.core(svc.core).reg(Reg::A0), self.machine.core(svc.core).reg(Reg::A1))
            }
            syscall::SYS_WRITE => {
                (self.machine.core(svc.core).reg(Reg::A1), self.machine.core(svc.core).reg(Reg::A2))
            }
            _ => return,
        };
        if let Some((space, phys)) = self.machine.space_and_phys_mut(svc.asid) {
            self.scheme.ensure_clean(svc.asid, buf, len, space, phys);
        }
    }

    fn apply_effect(&mut self, core: usize, effect: SyscallEffect) -> Option<Pump> {
        let svc = self.services[&core];
        match effect {
            SyscallEffect::Continue => None,
            SyscallEffect::BlockedOnRecv { pid } => {
                // Maybe requests were queued before the service blocked.
                match self.os.try_deliver(&mut self.machine, pid) {
                    Some(eff) => self.apply_effect(core, eff),
                    None => {
                        self.blocked.insert(core, true);
                        Some(Pump::Idle)
                    }
                }
            }
            SyscallEffect::RequestStarted { request_id, malicious, .. } => {
                self.begin_request_boundary(svc, request_id, malicious);
                None
            }
            SyscallEffect::ResponseSent { request_id, .. } => {
                if let Some(h) = self.hybrids.get_mut(&core) {
                    h.on_success();
                }
                // The request's private arena dies with its request;
                // forgetting the pages in the scheme keeps stale backup
                // and rollback state from bleeding into whatever maps
                // those vpns next.
                for (vpn, _) in self.os.release_arena(&mut self.machine, svc.pid) {
                    self.scheme.forget_page(svc.asid, vpn);
                }
                if let Some(inf) = self.in_flight.remove(&core) {
                    // Seal this request's compartment: its page tags are
                    // now a discardable unit should a later request fault
                    // on state it poisoned.
                    self.scheme.seal_compartment(svc.asid, request_id, inf.malicious);
                    let c = self.machine.core(core);
                    self.report.samples.push(RequestSample {
                        request_id,
                        cycles: c.cycles() - inf.start_cycles,
                        instructions: c.retired() - inf.start_retired,
                        malicious: inf.malicious,
                        core,
                        completed_at: c.cycles(),
                    });
                    self.report.served += 1;
                    if !inf.malicious {
                        self.report.benign_served += 1;
                    }
                }
                None
            }
            SyscallEffect::CheckpointRequested { .. } => {
                self.take_macro(svc);
                None
            }
            SyscallEffect::Exited { .. } => Some(Pump::Halted),
        }
    }

    fn begin_request_boundary(&mut self, svc: Service, request_id: u64, malicious: bool) {
        // GTS++ / boundary work for the scheme.
        if let Some((space, phys)) = self.machine.space_and_phys_mut(svc.asid) {
            let cost = self.scheme.begin_request(svc.asid, space, phys);
            self.machine.core_mut(svc.core).add_stall_cycles(cost);
        }
        self.monitor.snapshot_shadow(svc.asid);
        let take =
            self.hybrids.get_mut(&svc.core).is_some_and(HybridController::on_request_boundary);
        if take {
            self.take_macro(svc);
        }
        let core = self.machine.core(svc.core);
        self.in_flight.insert(
            svc.core,
            InFlight {
                request_id,
                malicious,
                start_cycles: core.cycles(),
                start_retired: core.retired(),
            },
        );
    }

    fn take_macro(&mut self, svc: Service) {
        // Prefer the OS's request-boundary context (PC parked on the
        // `net_recv` syscall): a macro restore then picks up the next
        // request cleanly instead of replaying a stale one.
        let context = self
            .os
            .process(svc.pid)
            .and_then(|p| p.mark.as_ref().map(|m| m.context))
            .unwrap_or_else(|| self.machine.core(svc.core).context());
        let seq = self.hybrids.get(&svc.core).map_or(0, HybridController::requests_seen);
        let (ckpt, cycles) = take_macro_checkpoint(&self.machine, svc.asid, context, seq);
        self.macro_ckpts.insert(svc.core, ckpt);
        self.machine.core_mut(svc.core).add_stall_cycles(cycles);
    }

    /// The recovery path (§3.3): quiesce, roll back memory + resources +
    /// context + monitoring state, resume at the request boundary.
    fn recover(&mut self, core: usize, cause: FailureCause) {
        let svc = self.services[&core];
        self.machine.quiesce_for_recovery(core);
        self.blocked.insert(core, false);

        let inf = self.in_flight.remove(&core);
        // Detection latency: how far into the in-flight request the core
        // got before the failure surfaced. Read before any rollback below
        // can touch core state.
        let insns_into_request =
            inf.map_or(0, |i| self.machine.core(core).retired().saturating_sub(i.start_retired));
        let level =
            self.hybrids.get_mut(&core).map_or(RecoveryLevel::Micro, HybridController::on_failure);
        let mut cycles = 0u64;

        let effective_level = match level {
            RecoveryLevel::Macro if self.macro_ckpts.contains_key(&core) => RecoveryLevel::Macro,
            RecoveryLevel::Macro => RecoveryLevel::Micro, // no checkpoint yet
            RecoveryLevel::Micro => RecoveryLevel::Micro,
        };

        // The failed request's private arena is torn down in every
        // recovery flavor, before memory rollback, so no lazily-pending
        // restore ever targets a freed frame.
        for (vpn, _) in self.os.release_arena(&mut self.machine, svc.pid) {
            self.scheme.forget_page(svc.asid, vpn);
        }

        let mut retried = false;
        let mut discarded = None;
        let mut discarded_was_malicious = false;
        match effective_level {
            RecoveryLevel::Micro => {
                if let Some((space, phys)) = self.machine.space_and_phys_mut(svc.asid) {
                    cycles += self.scheme.fail_and_rollback(svc.asid, space, phys);
                }
                // Rewind-and-discard (compartment path): a *fault* in a
                // request means either its own bug — or a dereference of
                // state poisoned by an earlier, already-answered request.
                // `fail_and_rollback` above has purged the failed
                // request's own tags, so if the faulting load's line was
                // last written by a *sealed* compartment, that compartment
                // is the culprit: discard exactly its lines and requeue
                // the victim, which retries on healed state. Everyone
                // else's pages are untouched.
                if matches!(cause, FailureCause::Fault) && inf.is_some() {
                    if let Some(suspect) = self.scheme.fault_suspect(svc.asid) {
                        cycles += self.scheme.discard_compartment(svc.asid, suspect.gts);
                        discarded = Some(suspect.request_id);
                        discarded_was_malicious = suspect.malicious;
                        retried = self.os.requeue_front(svc.pid);
                    }
                }
                let had_mark = self.os.rollback_resources(&mut self.machine, svc.pid);
                self.monitor.rollback_shadow(svc.asid);
                if !had_mark {
                    // Failure before any request was accepted: restart the
                    // service at its entry point.
                    self.machine.core_mut(core).set_pc(svc.entry);
                    self.machine.core_mut(core).set_reg(Reg::SP, svc.initial_sp);
                    self.machine.core_mut(core).clear_halt();
                }
            }
            RecoveryLevel::Macro => {
                self.scheme.forget(svc.asid);
                let ckpt = &self.macro_ckpts[&core];
                cycles += restore_macro_checkpoint(&mut self.machine, svc.asid, core, ckpt);
                self.os.rollback_resources(&mut self.machine, svc.pid);
                self.monitor.rollback_shadow(svc.asid);
            }
        }

        self.report.detections.push(Detection {
            cause,
            request_id: inf.map(|i| i.request_id),
            was_malicious: inf.is_some_and(|i| i.malicious),
            level: effective_level,
            at_cycle: self.machine.core(core).cycles(),
            insns_into_request,
            core,
            retried,
            discarded,
            discarded_was_malicious,
        });

        self.machine.core_mut(core).add_stall_cycles(cycles + MICRO_RECOVERY_BASE_CYCLES);
        self.machine.resume_after_recovery(core);
    }

    /// Injects a transient hardware fault on `core`, driving the full
    /// recovery path exactly as a real fault would (the fleet harness's
    /// rejuvenation-under-fault experiments; cf. continuous SoC
    /// rejuvenation in the related work). The in-flight request, if any,
    /// is rolled back and recorded as a [`FailureCause::Fault`] detection.
    ///
    /// # Panics
    ///
    /// Panics when `core` has no deployed service.
    pub fn inject_fault(&mut self, core: usize) {
        assert!(self.services.contains_key(&core), "no service on core {core}");
        self.recover(core, FailureCause::Fault);
    }

    /// Records that the harness quarantined schedule entry `index`
    /// instead of delivering it (the fleet analogue of the paper rolling
    /// back *past* a malicious request, §3.3.2). Idempotent: replaying
    /// the skip after a revival does not double-count.
    pub fn note_quarantined(&mut self, index: u64) {
        if !self.report.quarantined.contains(&index) {
            self.report.quarantined.push(index);
        }
    }

    /// Derives the availability metrics for this run, given how many
    /// benign requests the harness queued (the denominator the report
    /// cannot know by itself).
    #[must_use]
    pub fn availability(&self, benign_sent: u64) -> crate::AvailabilityReport {
        crate::AvailabilityReport::from_run(&self.report, benign_sent)
    }

    /// Drains the whole FIFO through the monitor; returns the owning core
    /// and kind of the first violation, if any (remaining backlog is
    /// still consumed — the hardware keeps streaming until the stall
    /// lands).
    fn drain_fifo(&mut self) -> Option<(usize, ViolationKind)> {
        let mut first = None;
        while let Some(ev) = self.machine.fifo_mut().pop() {
            let ev_asid = ev.asid;
            if let Some(v) = self.monitor.process(ev) {
                if first.is_none() {
                    if let Some(owner) =
                        self.services.values().find(|s| s.asid == ev_asid).map(|s| s.core)
                    {
                        first = Some((owner, v.kind));
                    }
                }
            }
        }
        first
    }

    /// Captures the system's complete mutable state — machine (cores,
    /// caches, TLBs, DRAM, physical frames, FIFO, CAM, watchdog), OS
    /// (processes, resource tables, filesystem, request queues), monitor
    /// (shadow stacks, clock), scheme backup state, hybrid controllers,
    /// macro checkpoints and the run report — without perturbing any of
    /// it. `freeze` never mutates the system, so a run that checkpoints
    /// is simulation-cycle-identical to one that does not.
    ///
    /// Configuration ([`SystemConfig`]) and deployment metadata (service
    /// table, monitor policies) are *not* captured: a thawing harness
    /// rebuilds the system with [`IndraSystem::new`] + deploys the same
    /// images, then injects this state via [`IndraSystem::restore_state`].
    #[must_use]
    pub fn freeze(&self) -> SystemState {
        self.freeze_inner(true)
    }

    /// Like [`IndraSystem::freeze`] but with `machine.phys` left empty.
    /// The replica layer digests physical frames incrementally (dirty
    /// frames only), so per-vote captures must not clone every resident
    /// frame. The result is **not** restorable — encode-only.
    #[must_use]
    pub fn freeze_sans_phys(&self) -> SystemState {
        self.freeze_inner(false)
    }

    fn freeze_inner(&self, with_phys: bool) -> SystemState {
        fn sorted<T>(mut v: Vec<(usize, T)>) -> Vec<(usize, T)> {
            v.sort_unstable_by_key(|&(core, _)| core);
            v
        }
        SystemState {
            machine: if with_phys {
                self.machine.save_state()
            } else {
                self.machine.save_state_sans_phys()
            },
            os: self.os.save_state(),
            monitor: self.monitor.save_state(),
            scheme: self.scheme.save_state(),
            hybrids: sorted(self.hybrids.iter().map(|(&core, h)| (core, h.save_state())).collect()),
            macro_ckpts: sorted(
                self.macro_ckpts.iter().map(|(&core, c)| (core, c.save_state())).collect(),
            ),
            in_flight: sorted(
                self.in_flight
                    .iter()
                    .map(|(&core, i)| {
                        (
                            core,
                            InFlightState {
                                request_id: i.request_id,
                                malicious: i.malicious,
                                start_cycles: i.start_cycles,
                                start_retired: i.start_retired,
                            },
                        )
                    })
                    .collect(),
            ),
            blocked: sorted(self.blocked.iter().map(|(&core, &b)| (core, b)).collect()),
            report: self.report.clone(),
        }
    }

    /// Overwrites every piece of mutable state with `state`, previously
    /// captured by [`IndraSystem::freeze`]. The system must first be
    /// reconstructed the same way it was built before the freeze — same
    /// [`SystemConfig`], same images deployed in the same order — so that
    /// non-captured deployment state (service table, monitor policies,
    /// scheme registration) matches; `restore_state` then replaces all
    /// run-time state, resuming execution bit-exactly where the frozen
    /// system stopped.
    ///
    /// # Panics
    ///
    /// Panics when the state's shape contradicts the rebuilt system
    /// (core-count mismatch, scheme-kind mismatch) — that means the
    /// harness rebuilt the system with a different configuration.
    pub fn restore_state(&mut self, state: &SystemState) {
        self.machine.restore_state(&state.machine);
        self.os.restore_state(&state.os);
        self.monitor.restore_state(&state.monitor);
        self.scheme.load_state(&state.scheme);
        self.hybrids.clear();
        for (core, h) in &state.hybrids {
            let mut controller = HybridController::new(self.cfg.hybrid);
            controller.restore_state(h);
            self.hybrids.insert(*core, controller);
        }
        self.macro_ckpts.clear();
        for (core, c) in &state.macro_ckpts {
            self.macro_ckpts.insert(*core, MacroCheckpoint::from_state(c));
        }
        self.in_flight.clear();
        for (core, i) in &state.in_flight {
            self.in_flight.insert(
                *core,
                InFlight {
                    request_id: i.request_id,
                    malicious: i.malicious,
                    start_cycles: i.start_cycles,
                    start_retired: i.start_retired,
                },
            );
        }
        self.blocked.clear();
        for &(core, b) in &state.blocked {
            self.blocked.insert(core, b);
        }
        self.report = state.report.clone();
    }
}

/// A request in flight on one core, in durable form.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InFlightState {
    /// Request id.
    pub request_id: u64,
    /// Ground-truth tag.
    pub malicious: bool,
    /// Core cycle count when processing began.
    pub start_cycles: u64,
    /// Instructions retired when processing began.
    pub start_retired: u64,
}

/// Complete mutable state of an [`IndraSystem`], captured by
/// [`IndraSystem::freeze`] for the durable-checkpoint subsystem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemState {
    /// Hardware state: cores, caches, TLBs, DRAM, physical memory,
    /// trace FIFO, CAM filters, watchdog, page tables, frame allocators.
    pub machine: MachineState,
    /// Kernel-lite state: processes, descriptors, filesystem, queues.
    pub os: OsState,
    /// Resurrector state: shadow stacks, metadata, clock, violations.
    pub monitor: MonitorState,
    /// Backup-scheme state, tagged by scheme kind.
    pub scheme: SchemeState,
    /// Per-core hybrid recovery controllers, sorted by core.
    pub hybrids: Vec<(usize, HybridControllerState)>,
    /// Per-core macro checkpoints, sorted by core.
    pub macro_ckpts: Vec<(usize, MacroCheckpointState)>,
    /// Per-core in-flight requests, sorted by core.
    pub in_flight: Vec<(usize, InFlightState)>,
    /// Per-core blocked-on-recv flags, sorted by core.
    pub blocked: Vec<(usize, bool)>,
    /// The run report so far.
    pub report: RunReport,
}

/// Upcasts a scheme to its hook supertrait (explicit function keeps the
/// coercion site obvious).
fn upcast(scheme: &mut dyn Scheme) -> &mut dyn indra_sim::BackupHook {
    scheme
}

#[cfg(test)]
mod tests {
    use super::*;
    use indra_isa::assemble;
    use indra_sim::CoreRole;

    /// Echo server in IR32 assembly.
    const ECHO: &str = "
    main:
        la  s0, buf
    loop:
        mv  a0, s0
        li  a1, 64
        syscall 1
        mv  a2, a0
        mv  a0, s0
        mv  a1, a2
        syscall 2
        j loop
    .data
    buf: .space 64
    ";

    fn system(scheme: SchemeKind) -> IndraSystem {
        let cfg = SystemConfig { scheme, ..SystemConfig::default() };
        let mut sys = IndraSystem::new(cfg);
        let img = assemble("echo", ECHO).unwrap();
        sys.deploy(&img).unwrap();
        sys
    }

    #[test]
    fn serves_benign_requests() {
        let mut sys = system(SchemeKind::Delta);
        for i in 0..5u8 {
            sys.push_request(vec![b'a' + i; 8], false);
        }
        let state = sys.run(1_000_000);
        assert_eq!(state, RunState::Idle);
        let report = sys.report();
        assert_eq!(report.served, 5);
        assert_eq!(report.benign_served, 5);
        assert!(report.detections.is_empty());
        let responses = sys.take_responses();
        assert_eq!(responses.len(), 5);
        assert_eq!(responses[0].data, vec![b'a'; 8]);
        assert!(sys.report().mean_benign_response() > 0.0);
    }

    #[test]
    fn idle_then_more_requests() {
        let mut sys = system(SchemeKind::Delta);
        assert_eq!(sys.run(100_000), RunState::Idle);
        sys.push_request(b"x".to_vec(), false);
        assert_eq!(sys.run(1_000_000), RunState::Idle);
        assert_eq!(sys.report().served, 1);
    }

    #[test]
    fn monitoring_off_still_serves() {
        let cfg =
            SystemConfig { scheme: SchemeKind::None, monitoring: false, ..SystemConfig::default() };
        let mut sys = IndraSystem::new(cfg);
        let img = assemble("echo", ECHO).unwrap();
        sys.deploy(&img).unwrap();
        sys.push_request(b"hello".to_vec(), false);
        assert_eq!(sys.run(1_000_000), RunState::Idle);
        assert_eq!(sys.report().served, 1);
        assert_eq!(sys.monitor().stats().events, 0, "no trace with monitoring off");
    }

    #[test]
    fn fifo_backpressure_counts_stalls() {
        let mut cfg = SystemConfig::default();
        cfg.machine.fifo_entries = 4;
        let mut sys = IndraSystem::new(cfg);
        // A call-dense program to flood the FIFO.
        let img = assemble(
            "callheavy",
            "
        main:
            la  s0, buf
        loop:
            mv  a0, s0
            li  a1, 16
            syscall 1
            call f
            call f
            call f
            call f
            call f
            call f
            mv  a0, s0
            li  a1, 4
            syscall 2
            j loop
        f:
            addi sp, sp, -4
            sw ra, 0(sp)
            call g
            lw ra, 0(sp)
            addi sp, sp, 4
            ret
        g:
            ret
        .data
        buf: .space 16
        ",
        )
        .unwrap();
        sys.deploy(&img).unwrap();
        for _ in 0..10 {
            sys.push_request(b"req".to_vec(), false);
        }
        assert_eq!(sys.run(10_000_000), RunState::Idle);
        assert_eq!(sys.report().served, 10);
        assert!(sys.machine().fifo().stats().full_stalls > 0, "4-entry FIFO must stall");
        assert_eq!(sys.report().false_positives(), 0);
    }

    #[test]
    fn two_services_share_one_resurrector() {
        // The Fig. 2 topology: one resurrector, several resurrectees.
        let mut cfg = SystemConfig::default();
        cfg.machine.cores =
            vec![CoreRole::Resurrector, CoreRole::Resurrectee, CoreRole::Resurrectee];
        let mut sys = IndraSystem::new(cfg);
        let img = assemble("echo", ECHO).unwrap();
        let pid_a = sys.deploy(&img).unwrap();
        let pid_b = sys.deploy(&img).unwrap();
        assert_ne!(pid_a, pid_b);
        assert_eq!(sys.service_cores(), vec![1, 2]);

        for i in 0..4u8 {
            sys.push_request_to(1, vec![b'A' + i; 4], false);
            sys.push_request_to(2, vec![b'a' + i; 4], false);
        }
        let state = sys.run(5_000_000);
        assert_eq!(state, RunState::Idle);
        assert_eq!(sys.report().served, 8);

        let from_a = sys.take_responses_from(1);
        let from_b = sys.take_responses_from(2);
        assert_eq!(from_a.len(), 4);
        assert_eq!(from_b.len(), 4);
        assert_eq!(from_a[0].data, b"AAAA");
        assert_eq!(from_b[0].data, b"aaaa");
        // Samples are attributed to the right cores.
        assert!(sys.report().samples.iter().any(|s| s.core == 1));
        assert!(sys.report().samples.iter().any(|s| s.core == 2));
    }

    #[test]
    fn indra_system_is_send() {
        // The fleet executor moves whole systems onto worker threads.
        fn assert_send<T: Send>() {}
        assert_send::<IndraSystem>();
        assert_send::<RunReport>();
    }

    #[test]
    fn fault_injection_recovers_and_is_audited() {
        let mut sys = system(SchemeKind::Delta);
        sys.push_request(b"before".to_vec(), false);
        assert_eq!(sys.run(1_000_000), RunState::Idle);
        let core = sys.service_cores()[0];
        sys.inject_fault(core);
        sys.push_request(b"after".to_vec(), false);
        assert_eq!(sys.run(1_000_000), RunState::Idle);
        assert_eq!(sys.report().served, 2, "service must survive the injected fault");
        assert_eq!(sys.report().detections.len(), 1);
        assert_eq!(sys.report().detections[0].cause, FailureCause::Fault);
        let avail = sys.availability(2);
        assert_eq!(avail.recoveries, 1);
        assert!((avail.benign_service_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run_report_json_is_deterministic() {
        let mut sys = system(SchemeKind::Delta);
        sys.push_request(b"x".to_vec(), false);
        assert_eq!(sys.run(1_000_000), RunState::Idle);
        let a = sys.report().to_json();
        let b = sys.report().clone().to_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"served\":1,"));
        assert!(a.contains("\"samples\":[{\"request_id\":"));
    }

    #[test]
    fn deploy_fails_when_cores_exhausted() {
        let mut sys = system(SchemeKind::Delta);
        let img = assemble("echo", ECHO).unwrap();
        assert!(sys.deploy(&img).is_err(), "the dual-core machine has one resurrectee");
    }
}
