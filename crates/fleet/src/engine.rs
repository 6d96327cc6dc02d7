//! The INDRA cell engine: one resurrector/resurrectee system serving one
//! request stream, built from one [`EngineConfig`].
//!
//! Every executor runs its cells through this type. [`Engine::new`]
//! builds ([`EngineConfig::system_config`] is the one place a cell's
//! [`SystemConfig`] is assembled), deploys and fixes the per-request
//! step budget; [`Engine::deliver`] is the closed-loop drive
//! discipline; [`Engine::output`] accounts the run as the
//! [`ShardOutput`] every aggregator folds. Fleet knobs reach it through
//! one projection, [`crate::FleetConfig::engine`].
//!
//! Serve runners and replica cells deliver through the engine. The
//! open-loop fleet shard is the one deliberate sibling: it builds and
//! accounts through the engine but keeps its own arrival-time delivery
//! loop, because the fleet's [`crate::FleetStats`] are defined by it.

use std::time::Instant;

use indra_core::{
    IndraSystem, RecoveryLevel, Response, RunReport, RunState, SchemeKind, SystemConfig,
    SystemState,
};
use indra_persist::CheckpointReceipt;
use indra_rng::derive_seed;
use indra_workloads::{build_app_scaled, ServiceApp, WorkloadSpec};

use crate::shard::{ShardError, ShardOutput, ShardPlan};

/// Everything that determines one cell's simulated behavior. Persisted
/// ([`crate::encode_engine_meta`]) so a replay needs no other flags;
/// host-side concerns like queue depth live elsewhere.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineConfig {
    /// The service the cell runs.
    pub app: ServiceApp,
    /// Work-scale divisor (1 = paper scale).
    pub scale: u32,
    /// Checkpoint scheme the cell deploys.
    pub scheme: SchemeKind,
    /// Trace FIFO entries of the cell machine.
    pub fifo_entries: usize,
    /// CAM filter entries of the cell machine.
    pub cam_entries: usize,
    /// Host-side fast paths (sim-identical either way).
    pub fast_paths: bool,
    /// Run-slice granularity of the deliver loop.
    pub run_slice_steps: u64,
    /// Master seed (only labels [`ShardPlan`]s — traffic comes from the
    /// caller, not from a seeded schedule).
    pub seed: u64,
    /// Superblock execution engine (sim-identical either way, like
    /// `fast_paths`; only the host's speed moves).
    pub superblocks: bool,
    /// Per-request compartments: fine-grained rewind-and-discard on
    /// detection. Sim-identical on attack-free fault-free traffic; under
    /// attack it changes recovery outcomes by design, so it is a
    /// deterministic knob and must be persisted.
    pub compartments: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            app: ServiceApp::Httpd,
            scale: 40,
            scheme: SchemeKind::Delta,
            fifo_entries: 32,
            cam_entries: 32,
            fast_paths: true,
            run_slice_steps: 200_000,
            seed: 0x5e71_ce00,
            superblocks: true,
            compartments: true,
        }
    }
}

impl EngineConfig {
    /// The cell's full system configuration — the only place one is
    /// assembled from engine knobs.
    #[must_use]
    pub fn system_config(&self) -> SystemConfig {
        SystemConfig {
            machine: indra_sim::MachineConfig {
                fifo_entries: self.fifo_entries,
                cam_entries: self.cam_entries,
                fast_paths: self.fast_paths,
                superblocks: self.superblocks,
                ..indra_sim::MachineConfig::default()
            },
            scheme: self.scheme,
            monitoring: true,
            compartments: self.compartments,
            ..SystemConfig::default()
        }
    }

    /// The workload's nominal per-request work (at least 50k steps).
    /// Step budgets are generous multiples of it: recoveries and
    /// restarts fit, only a harness bug or an undetected kill exhausts
    /// one.
    #[must_use]
    pub fn per_request_steps(&self) -> u64 {
        WorkloadSpec::for_app(self.app)
            .scaled_down(self.scale.max(1))
            .approx_insns_per_request()
            .max(50_000)
    }

    /// The plan label of shard `shard` (derived seed, like
    /// [`crate::FleetConfig::plan`]).
    #[must_use]
    pub fn plan(&self, shard: usize) -> ShardPlan {
        ShardPlan { shard, app: self.app, seed: derive_seed(self.seed, shard as u64) }
    }
}

/// What one closed-loop delivery concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellVerdict {
    /// Served; payload is the response latency in resurrectee cycles.
    Served {
        /// Delivery-to-response resurrectee cycles.
        cycles: u64,
    },
    /// The monitor fired and recovery ran at `level`.
    Detected {
        /// The recovery level applied.
        level: RecoveryLevel,
    },
    /// The cell halted, exhausted its step budget, or lost the request.
    Dead,
}

/// One deployed cell plus its fixed drive discipline.
pub struct Engine {
    cfg: EngineConfig,
    sys: IndraSystem,
    slice: u64,
    budget_slices: u64,
    started: Instant,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine").field("cfg", &self.cfg).finish_non_exhaustive()
    }
}

impl Engine {
    /// Builds the system, deploys the service image and fixes the
    /// per-request budget.
    ///
    /// # Errors
    ///
    /// [`ShardError::Deploy`] when the service image fails to load.
    pub fn new(cfg: &EngineConfig) -> Result<Engine, ShardError> {
        let started = Instant::now();
        let image = build_app_scaled(cfg.app, cfg.scale);
        let mut sys = IndraSystem::new(cfg.system_config());
        sys.deploy(&image).map_err(ShardError::Deploy)?;
        let slice = cfg.run_slice_steps.max(1);
        let budget_slices = (cfg.per_request_steps() * 16).div_ceil(slice) + 2;
        Ok(Engine { cfg: cfg.clone(), sys, slice, budget_slices, started })
    }

    /// Delivers one request, runs the system to idle under the fixed
    /// step budget, and classifies the outcome. The responses drained
    /// on going idle come back with the verdict (none if the cell died
    /// first).
    pub fn deliver(&mut self, data: Vec<u8>, malicious: bool) -> (CellVerdict, Vec<Response>) {
        let s0 = self.sys.report().samples.len();
        let d0 = self.sys.report().detections.len();
        let rid = self.sys.push_request(data, malicious);
        let mut slices_left = self.budget_slices;
        loop {
            match self.sys.run(self.slice) {
                RunState::Idle => break,
                RunState::Halted => return (CellVerdict::Dead, Vec::new()),
                RunState::BudgetExhausted => {
                    slices_left -= 1;
                    if slices_left == 0 {
                        return (CellVerdict::Dead, Vec::new());
                    }
                }
            }
        }
        let responses = self.sys.take_responses();
        let report = self.sys.report();
        let verdict = if let Some(s) = report.samples[s0..].iter().find(|s| s.request_id == rid) {
            CellVerdict::Served { cycles: s.cycles }
        } else if let Some(d) = report.detections[d0..].last() {
            CellVerdict::Detected { level: d.level }
        } else {
            CellVerdict::Dead
        };
        (verdict, responses)
    }

    /// Records a quarantined request seq in the cell's report.
    pub fn quarantine(&mut self, seq: u64) {
        self.sys.note_quarantined(seq);
    }

    /// Freezes the full system state (for checkpointing).
    #[must_use]
    pub fn freeze(&self) -> SystemState {
        self.sys.freeze()
    }

    /// Overwrites the system with a frozen capture.
    pub fn restore(&mut self, state: &SystemState) {
        self.sys.restore_state(state);
    }

    /// The config the engine was built from.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The simulated system.
    #[must_use]
    pub fn system(&self) -> &IndraSystem {
        &self.sys
    }

    /// Mutable access to the simulated system (the open-loop shard runs
    /// it directly; the replica layer digests and corrupts it).
    pub fn system_mut(&mut self) -> &mut IndraSystem {
        &mut self.sys
    }

    /// The run report so far.
    #[must_use]
    pub fn report(&self) -> &RunReport {
        self.sys.report()
    }

    /// Accounts the run as the [`ShardOutput`] aggregators fold. `sent`
    /// yields the malicious flag of every request sent (quarantined ones
    /// included); host counters are summed over the machine's cores.
    #[must_use]
    pub fn output(
        &self,
        plan: ShardPlan,
        sent: impl IntoIterator<Item = bool>,
        faults_injected: u64,
        completed: bool,
        wal: CheckpointReceipt,
    ) -> ShardOutput {
        let (mut benign_sent, mut attacks_sent) = (0, 0);
        for malicious in sent {
            if malicious {
                attacks_sent += 1;
            } else {
                benign_sent += 1;
            }
        }
        let machine = self.sys.machine();
        let mut insns = 0;
        let mut superblocks = indra_sim::SuperblockStats::default();
        let mut predecode = indra_sim::PredecodeStats::default();
        for c in 0..machine.num_cores() {
            insns += machine.core(c).retired();
            superblocks += machine.superblock_stats(c);
            predecode += machine.predecode_stats(c);
        }
        ShardOutput {
            plan,
            report: self.sys.report().clone(),
            benign_sent,
            attacks_sent,
            faults_injected,
            sim_cycles: self.sys.service_cycles(),
            completed,
            insns,
            wall_seconds: self.started.elapsed().as_secs_f64(),
            superblocks,
            predecode,
            wal,
        }
    }
}
