#![warn(missing_docs)]
//! # indra-core — the INDRA framework
//!
//! The paper's primary contribution, assembled from the substrate crates:
//!
//! * [`Monitor`] — the resurrector's behavior-based inspection software
//!   (call/return pairing, code-origin checks, control-transfer policy —
//!   §3.2, Table 2), with a concurrent-execution cycle model.
//! * [`DeltaBackupEngine`] — the delta-page backup/rollback-on-demand
//!   engine (§3.3.1, Figs. 3–7): GTS/LTS timestamps, dirty & rollback
//!   bitvectors, lazy line restore, zero-copy rollback.
//! * [`VirtualCheckpoint`], [`SoftwareCheckpoint`], [`UndoLog`] — the
//!   Table 3 baselines INDRA is measured against.
//! * [`HybridController`] + macro checkpoints — the dual recovery scheme
//!   of Fig. 8 (micro per-request rollback, macro application checkpoint
//!   for dormant attacks).
//! * [`IndraSystem`] — the integrated machine + OS + monitor + scheme
//!   run loop used by every example and benchmark.
//!
//! ```no_run
//! use indra_core::{IndraSystem, SystemConfig};
//! use indra_isa::assemble;
//!
//! let mut sys = IndraSystem::new(SystemConfig::default());
//! let img = assemble("svc", "main:\n halt\n").unwrap();
//! sys.deploy(&img).unwrap();
//! sys.push_request(b"GET /".to_vec(), false);
//! sys.run(1_000_000);
//! println!("served {} requests", sys.report().served);
//! ```

mod availability;
mod baselines;
mod delta;
pub mod json;
mod monitor;
mod recovery;
mod scheme;
mod system;

pub use availability::AvailabilityReport;
pub use baselines::{
    PageCkptProcState, PageCkptState, SoftwareCheckpoint, UndoEntryState, UndoLog, UndoLogState,
    VirtualCheckpoint, LOG_APPEND_CYCLES, LOG_UNDO_CYCLES, PAGE_COPY_CYCLES, REMAP_CYCLES,
    SW_TRAP_CYCLES, VC_TRAP_CYCLES,
};
pub use delta::{
    DeltaBackupEngine, DeltaConfig, DeltaConfigError, DeltaPageState, DeltaProcState, DeltaState,
    SealedCompartment,
};
/// A drained service response ([`IndraSystem::take_responses`]).
pub use indra_os::Response;
pub use monitor::{
    AppMetadata, InspectionPolicy, Monitor, MonitorAppState, MonitorConfig, MonitorState,
    MonitorStats, ShadowFrameState, SyscallSitePolicy, Violation, ViolationKind,
};
pub use recovery::{
    restore_macro_checkpoint, take_macro_checkpoint, HybridConfig, HybridController,
    HybridControllerState, HybridStats, MacroCheckpoint, MacroCheckpointState, MacroStateError,
    RecoveryLevel,
};
pub use scheme::{NoBackup, Scheme, SchemeState, SchemeStats};
pub use system::{
    Detection, FailureCause, InFlightState, IndraSystem, PolicyStats, RequestSample, RunReport,
    RunState, SchemeKind, SystemConfig, SystemState,
};
