//! One replica: an [`Engine`] cell plus its digest cache.
//!
//! A cell is the unit the voting layer replicates — the very engine a
//! fleet shard runs ([`shard_engine`]: same config, same deployed
//! image, both pure functions of the [`ShardPlan`]), driven closed-loop
//! one request at a time so the group can vote between deliveries.
//! Replicas of one group are built identically and fed the identical
//! admitted stream; any ballot disagreement is therefore evidence of
//! corruption, not of scheduling.

use indra_core::{RunReport, SystemState};
pub use indra_fleet::CellVerdict;
use indra_fleet::{shard_engine, Engine, FleetConfig, ShardError, ShardPlan};
use indra_mem::{PAGE_SHIFT, PAGE_SIZE};

use crate::digest::{fnv1a, DigestCache, StateDigest, FNV_OFFSET};

/// Ballot verdict tag: request served.
pub const TAG_SERVED: u8 = 0;
/// Ballot verdict tag: attack detected and recovered.
pub const TAG_DETECTED: u8 = 1;
/// Ballot verdict tag: request quarantined by the group protocol.
pub const TAG_QUARANTINED: u8 = 2;
/// Ballot verdict tag: the cell died (halt, budget, or panic).
pub const TAG_DEAD: u8 = 255;

/// One deterministic replica of a logical shard.
#[derive(Debug)]
pub struct ReplicaCell {
    engine: Engine,
    cache: DigestCache,
}

impl ReplicaCell {
    /// Builds a fresh cell for `plan`: the fleet shard's engine, with
    /// phys dirty tracking enabled so digests are incremental from the
    /// first request.
    ///
    /// # Errors
    ///
    /// [`ShardError::Deploy`] when the service image fails to load.
    pub fn build(cfg: &FleetConfig, plan: &ShardPlan) -> Result<ReplicaCell, ShardError> {
        let mut engine = shard_engine(cfg, plan)?;
        engine.system_mut().machine_mut().phys_mut().enable_dirty_tracking();
        Ok(ReplicaCell { engine, cache: DigestCache::new() })
    }

    /// Delivers one request and runs the system to idle. Returns the
    /// verdict plus an FNV digest over the drained response bytes (the
    /// "output" leg of the ballot).
    pub fn deliver(&mut self, data: Vec<u8>, malicious: bool) -> (CellVerdict, u64) {
        let (verdict, responses) = self.engine.deliver(data, malicious);
        let mut output_hash = FNV_OFFSET;
        for r in &responses {
            output_hash = fnv1a(output_hash, &r.request_id.to_le_bytes());
            output_hash = fnv1a(output_hash, &r.data);
        }
        (verdict, output_hash)
    }

    /// Incrementally digests the cell's current state.
    pub fn digest(&mut self) -> StateDigest {
        self.cache.digest(self.engine.system_mut())
    }

    /// The per-section small-state blobs the digest hashes (frames
    /// excluded) — what the property tests corrupt byte-by-byte.
    #[must_use]
    pub fn small_state_sections(&self) -> Vec<(&'static str, Vec<u8>)> {
        indra_persist::encode_state_sections(&self.engine.system().freeze_sans_phys())
    }

    /// Full restorable freeze (frames included) for checkpointing.
    #[must_use]
    pub fn freeze(&self) -> SystemState {
        self.engine.freeze()
    }

    /// Overwrites the cell with a frozen capture. The phys generation
    /// bump invalidates the digest cache automatically.
    pub fn restore(&mut self, state: &SystemState) {
        self.engine.restore(state);
    }

    /// Records a quarantined schedule index in the cell's report.
    pub fn quarantine(&mut self, seq: u64) {
        self.engine.quarantine(seq);
    }

    /// Flips one bit of one resident physical frame, selected by the
    /// salts — the stealth-chaos strike. Goes through the ordinary
    /// phys write path, so *no* trace record, fault event, or panic is
    /// produced: the trace monitor is structurally blind to it and only
    /// divergence voting can catch it. Returns `false` if no frame is
    /// resident yet (the strike is dropped).
    pub fn corrupt_bit(&mut self, frame_salt: u64, byte_salt: u64, bit: u8) -> bool {
        let sys = self.engine.system_mut();
        let ppns = sys.machine().phys().resident_ppns();
        if ppns.is_empty() {
            return false;
        }
        let ppn = ppns[usize::try_from(frame_salt % ppns.len() as u64).expect("index fits")];
        let offset = u32::try_from(byte_salt % u64::from(PAGE_SIZE)).expect("offset fits");
        let paddr = (ppn << PAGE_SHIFT) | offset;
        let phys = sys.machine_mut().phys_mut();
        let old = phys.read_u8(paddr);
        phys.write_u8(paddr, old ^ (1 << (bit % 8)));
        true
    }

    /// The cell's run report.
    #[must_use]
    pub fn report(&self) -> &RunReport {
        self.engine.report()
    }

    /// The engine the cell drives.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}
