//! The asymmetric multicore machine.
//!
//! [`Machine`] owns the hardware: cores, per-core hierarchies, shared
//! SDRAM, physical memory, the memory watchdog, the trace FIFO and the
//! per-core CAM filters. Physical memory is partitioned at boot exactly
//! as §3.1.2 describes: the resurrector's runtime system occupies a
//! region hidden from every resurrectee; backup pages live in a second
//! hidden pool; service frames make up the rest and are the only range
//! the watchdog lets resurrectees touch.

use indra_isa::Image;
use indra_mem::{
    CoreMemState, CoreMemory, DramState, FrameAllocator, FrameAllocatorState, PhysMemState,
    PhysicalMemory, Sdram, PAGE_SHIFT, PAGE_SIZE,
};

use crate::cpu::BlockExit;
use crate::superblock::{self, Enter};
use crate::{
    AddressSpace, BackupHook, CamFilter, CamState, Core, CoreRole, CoreState, EventBuf, Fault,
    FifoState, MachineConfig, MemoryWatchdog, NoopHook, PhysRange, PredecodeCache, PredecodeStats,
    Pte, StepEnv, StepOutcome, SuperblockCache, SuperblockStats, TraceEvent, TraceFifo,
    WatchdogState,
};

/// Address-space registry indexed directly by ASID: the per-step
/// `asid → AddressSpace` resolution is an array index, not a hash-map
/// walk. Spaces are boxed so a sparse high ASID costs one pointer slot.
#[derive(Debug, Default)]
struct SpaceTable {
    slots: Vec<Option<Box<AddressSpace>>>,
}

impl SpaceTable {
    fn get(&self, asid: u16) -> Option<&AddressSpace> {
        self.slots.get(asid as usize)?.as_deref()
    }

    fn get_mut(&mut self, asid: u16) -> Option<&mut AddressSpace> {
        self.slots.get_mut(asid as usize)?.as_deref_mut()
    }

    fn insert(&mut self, asid: u16, space: AddressSpace) {
        let i = asid as usize;
        if self.slots.len() <= i {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i] = Some(Box::new(space));
    }

    fn remove(&mut self, asid: u16) -> Option<AddressSpace> {
        self.slots.get_mut(asid as usize)?.take().map(|b| *b)
    }

    fn iter(&self) -> impl Iterator<Item = &AddressSpace> {
        self.slots.iter().filter_map(Option::as_deref)
    }

    fn clear(&mut self) {
        self.slots.clear();
    }
}

/// Frames reserved for the resurrector's runtime system (the paper's RTS
/// is "less than 10 MB" including the stripped-down OS).
const RTS_FRAMES: u32 = 2560; // 10 MiB
/// Frames reserved for delta backup pages (hidden from resurrectees).
const BACKUP_FRAMES: u32 = 16 * 1024; // 64 MiB

/// Outcome of advancing one core by one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreStep {
    /// One instruction retired.
    Executed,
    /// The core is halted.
    Halted,
    /// The resurrector has this core stalled.
    Stalled,
    /// The trace FIFO had no room; nothing executed. The caller decides
    /// how much wall-clock the stall costs (it depends on the monitor).
    FifoStalled,
    /// The core is parked on a `syscall`; the OS must service it.
    Syscall {
        /// Syscall code.
        code: u16,
    },
    /// The core faulted.
    Fault(Fault),
}

/// Error from loading an image into an address space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// Physical frames exhausted.
    OutOfFrames,
    /// The image failed validation.
    BadImage(String),
    /// No such address space.
    NoSpace(u16),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::OutOfFrames => f.write_str("out of physical frames"),
            LoadError::BadImage(m) => write!(f, "invalid image: {m}"),
            LoadError::NoSpace(asid) => write!(f, "no address space with asid {asid}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// The simulated multicore.
pub struct Machine {
    cfg: MachineConfig,
    cores: Vec<Core>,
    mems: Vec<CoreMemory>,
    cams: Vec<CamFilter>,
    dram: Sdram,
    phys: PhysicalMemory,
    watchdog: MemoryWatchdog,
    fifo: TraceFifo,
    spaces: SpaceTable,
    predecode: Vec<PredecodeCache>,
    superblocks: Vec<SuperblockCache>,
    rts_frames: FrameAllocator,
    backup_frames: FrameAllocator,
    service_frames: FrameAllocator,
    monitoring: bool,
    booted: bool,
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cores.len())
            .field("booted", &self.booted)
            .field("monitoring", &self.monitoring)
            .finish()
    }
}

impl Machine {
    /// Builds the machine described by `cfg` (cold caches, nothing booted).
    ///
    /// # Panics
    ///
    /// Panics when `cfg.phys_frames` is too small to hold the RTS and
    /// backup pools.
    #[must_use]
    pub fn new(cfg: MachineConfig) -> Machine {
        assert!(
            cfg.phys_frames > RTS_FRAMES + BACKUP_FRAMES + 1024,
            "need more physical frames than the reserved pools"
        );
        let n = cfg.cores.len();
        let cores = (0..n).map(|_| Core::new(cfg.core)).collect();
        let mems = (0..n).map(|_| CoreMemory::new(cfg.mem)).collect();
        let cams = (0..n)
            .map(|_| {
                if cfg.cam_entries == 0 {
                    CamFilter::disabled()
                } else {
                    CamFilter::new(cfg.cam_entries)
                }
            })
            .collect();
        Machine {
            cores,
            mems,
            cams,
            dram: Sdram::new(cfg.dram),
            phys: PhysicalMemory::new(),
            watchdog: MemoryWatchdog::new(n),
            fifo: TraceFifo::new(cfg.fifo_entries),
            spaces: SpaceTable::default(),
            predecode: (0..n).map(|_| PredecodeCache::new(cfg.fast_paths)).collect(),
            superblocks: (0..n).map(|_| SuperblockCache::new(cfg.superblocks)).collect(),
            rts_frames: FrameAllocator::new(0, RTS_FRAMES),
            backup_frames: FrameAllocator::new(RTS_FRAMES, RTS_FRAMES + BACKUP_FRAMES),
            service_frames: FrameAllocator::new(RTS_FRAMES + BACKUP_FRAMES, cfg.phys_frames),
            monitoring: false,
            booted: false,
            cfg,
        }
    }

    /// The INDRA boot sequence (§3.1.2): the resurrector boots first from
    /// flash, takes privileged access, hides the RTS and backup pools, and
    /// only then releases the resurrectees with watchdog ranges covering
    /// the service pool alone.
    pub fn boot_asymmetric(&mut self) {
        let service_base = (RTS_FRAMES + BACKUP_FRAMES) << PAGE_SHIFT;
        let service_end = self.cfg.phys_frames << PAGE_SHIFT;
        for (id, role) in self.cfg.cores.clone().into_iter().enumerate() {
            match role {
                CoreRole::Resurrector => self.watchdog.set_privileged(id, true),
                CoreRole::Resurrectee => {
                    self.watchdog.set_privileged(id, false);
                    self.watchdog.clear(id);
                    // An empty service pool (misconfigured frame split)
                    // grants the resurrectee nothing: its first access
                    // trips the watchdog instead of panicking the host.
                    if let Ok(range) = PhysRange::try_new(service_base, service_end) {
                        self.watchdog.allow(id, range);
                    }
                }
            }
        }
        self.monitoring = self.cfg.resurrector().is_some();
        self.booted = true;
    }

    /// Boots every core with equal privilege and monitoring off
    /// (reconfigurability, §2.3.4).
    pub fn boot_symmetric(&mut self) {
        for id in 0..self.cores.len() {
            self.watchdog.set_privileged(id, true);
        }
        self.monitoring = false;
        self.booted = true;
    }

    /// Whether trace monitoring is active.
    #[must_use]
    pub fn monitoring(&self) -> bool {
        self.monitoring
    }

    /// Enables or disables trace monitoring (events are dropped when off —
    /// the "without monitoring support" baseline of Fig. 11).
    pub fn set_monitoring(&mut self, on: bool) {
        self.monitoring = on;
    }

    /// The machine configuration.
    #[must_use]
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    // ---- component access ------------------------------------------------

    /// Core `id`.
    #[must_use]
    pub fn core(&self, id: usize) -> &Core {
        &self.cores[id]
    }

    /// Mutable core `id`.
    pub fn core_mut(&mut self, id: usize) -> &mut Core {
        &mut self.cores[id]
    }

    /// Core count.
    #[must_use]
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Core `id`'s cache hierarchy.
    #[must_use]
    pub fn core_mem(&self, id: usize) -> &CoreMemory {
        &self.mems[id]
    }

    /// Mutable cache hierarchy (stat resets, rollback flushes).
    pub fn core_mem_mut(&mut self, id: usize) -> &mut CoreMemory {
        &mut self.mems[id]
    }

    /// Core `id`'s code-origin CAM filter.
    #[must_use]
    pub fn cam(&self, id: usize) -> &CamFilter {
        &self.cams[id]
    }

    /// Mutable CAM filter.
    pub fn cam_mut(&mut self, id: usize) -> &mut CamFilter {
        &mut self.cams[id]
    }

    /// The shared trace FIFO.
    #[must_use]
    pub fn fifo(&self) -> &TraceFifo {
        &self.fifo
    }

    /// Mutable trace FIFO (the monitor pops from here).
    pub fn fifo_mut(&mut self) -> &mut TraceFifo {
        &mut self.fifo
    }

    /// Shared DRAM.
    #[must_use]
    pub fn dram(&self) -> &Sdram {
        &self.dram
    }

    /// Physical memory contents.
    #[must_use]
    pub fn phys(&self) -> &PhysicalMemory {
        &self.phys
    }

    /// Mutable physical memory (DMA, loaders, backup engine).
    pub fn phys_mut(&mut self) -> &mut PhysicalMemory {
        &mut self.phys
    }

    /// The memory watchdog.
    #[must_use]
    pub fn watchdog(&self) -> &MemoryWatchdog {
        &self.watchdog
    }

    /// Mutable watchdog (boot/reassignment).
    pub fn watchdog_mut(&mut self) -> &mut MemoryWatchdog {
        &mut self.watchdog
    }

    // ---- address spaces ----------------------------------------------------

    /// Creates an empty address space; replaces any existing one with the
    /// same ASID.
    pub fn create_space(&mut self, asid: u16) {
        let mut space = AddressSpace::new(asid);
        space.set_fast_paths(self.cfg.fast_paths);
        self.spaces.insert(asid, space);
        // A fresh space restarts its generation counter, so a superblock
        // pinned under a *previous* space with this ASID could validate
        // falsely; ASID creation is rare enough to flush wholesale.
        for s in &mut self.superblocks {
            s.flush();
        }
    }

    /// Destroys an address space.
    pub fn destroy_space(&mut self, asid: u16) -> Option<AddressSpace> {
        self.spaces.remove(asid)
    }

    /// The address space for `asid`.
    #[must_use]
    pub fn space(&self, asid: u16) -> Option<&AddressSpace> {
        self.spaces.get(asid)
    }

    /// Mutable address space.
    pub fn space_mut(&mut self, asid: u16) -> Option<&mut AddressSpace> {
        self.spaces.get_mut(asid)
    }

    /// Splits mutable borrows of one address space and physical memory —
    /// the signature checkpoint schemes need for rollback work.
    pub fn space_and_phys_mut(
        &mut self,
        asid: u16,
    ) -> Option<(&mut AddressSpace, &mut PhysicalMemory)> {
        let space = self.spaces.get_mut(asid)?;
        Some((space, &mut self.phys))
    }

    /// Start and end physical page numbers of the hidden backup-page pool.
    /// The INDRA backup engine claims this pool at construction; the
    /// machine itself never allocates from it afterwards.
    #[must_use]
    pub fn backup_pool_ppns(&self) -> (u32, u32) {
        (RTS_FRAMES, RTS_FRAMES + BACKUP_FRAMES)
    }

    /// Allocates a frame from the service pool (resurrectee-visible).
    pub fn alloc_service_frame(&mut self) -> Option<u32> {
        self.service_frames.alloc()
    }

    /// Releases a service frame.
    pub fn release_service_frame(&mut self, ppn: u32) {
        self.service_frames.release(ppn);
    }

    /// Allocates a frame from the hidden backup pool (§3.3.1: backup pages
    /// are invisible to service applications).
    pub fn alloc_backup_frame(&mut self) -> Option<u32> {
        self.backup_frames.alloc()
    }

    /// Releases a backup frame.
    pub fn release_backup_frame(&mut self, ppn: u32) {
        self.backup_frames.release(ppn);
    }

    /// Allocates a frame from the resurrector's private pool.
    pub fn alloc_rts_frame(&mut self) -> Option<u32> {
        self.rts_frames.alloc()
    }

    /// Live frames in the backup pool (memory overhead accounting).
    #[must_use]
    pub fn backup_frames_live(&self) -> u32 {
        self.backup_frames.live_frames()
    }

    /// Maps `image` into address space `asid` using service-pool frames
    /// and returns the mapped page count.
    ///
    /// # Errors
    ///
    /// [`LoadError::BadImage`] if validation fails, [`LoadError::NoSpace`]
    /// for an unknown ASID, [`LoadError::OutOfFrames`] when the pool runs
    /// dry.
    pub fn load_image(&mut self, asid: u16, image: &Image) -> Result<u32, LoadError> {
        image.validate().map_err(LoadError::BadImage)?;
        if self.spaces.get(asid).is_none() {
            return Err(LoadError::NoSpace(asid));
        }
        let mut mapped = 0;
        for seg in &image.segments {
            let pages = seg.size.div_ceil(PAGE_SIZE);
            for p in 0..pages {
                let vpn = (seg.vaddr >> PAGE_SHIFT) + p;
                let ppn = self.service_frames.alloc().ok_or(LoadError::OutOfFrames)?;
                let pte = Pte {
                    ppn,
                    read: seg.perms.read,
                    write: seg.perms.write,
                    // Pre-NX hardware executes anything readable; the
                    // image's intended attributes still reach the monitor.
                    execute: seg.perms.execute || !self.cfg.enforce_nx,
                };
                self.spaces.get_mut(asid).expect("checked above").map(vpn, pte);
                mapped += 1;
                // Copy initialized bytes for this page.
                let off = p * PAGE_SIZE;
                if off < seg.data.len() as u32 {
                    let len = ((seg.data.len() as u32) - off).min(PAGE_SIZE) as usize;
                    let start = off as usize;
                    self.phys.write_bytes(ppn << PAGE_SHIFT, &seg.data[start..start + len]);
                }
            }
        }
        Ok(mapped)
    }

    /// Maps one fresh zeroed service page at `vpn` with permissions
    /// `(r, w, x)`, returning its PPN.
    pub fn map_fresh_page(
        &mut self,
        asid: u16,
        vpn: u32,
        r: bool,
        w: bool,
        x: bool,
    ) -> Result<u32, LoadError> {
        if self.spaces.get(asid).is_none() {
            return Err(LoadError::NoSpace(asid));
        }
        let ppn = self.service_frames.alloc().ok_or(LoadError::OutOfFrames)?;
        // Zero the frame: it may be recycled from a killed child.
        self.phys.write_bytes(ppn << PAGE_SHIFT, &[0u8; PAGE_SIZE as usize]);
        let execute = x || !self.cfg.enforce_nx;
        self.spaces
            .get_mut(asid)
            .expect("checked above")
            .map(vpn, Pte { ppn, read: r, write: w, execute });
        Ok(ppn)
    }

    // ---- execution -------------------------------------------------------

    /// Whether core `id` is subject to trace monitoring.
    fn is_monitored(&self, id: usize) -> bool {
        self.monitoring && self.cfg.cores[id] == CoreRole::Resurrectee
    }

    /// Advances core `id` by one instruction, threading `hook` through its
    /// memory accesses. Events from monitored cores go through the CAM
    /// filter and into the FIFO; if the FIFO might not fit them, the core
    /// does not execute and [`CoreStep::FifoStalled`] is returned.
    pub fn step_core(&mut self, id: usize, hook: &mut dyn BackupHook) -> CoreStep {
        if self.cores[id].is_halted() {
            return CoreStep::Halted;
        }
        if self.cores[id].is_stalled() {
            return CoreStep::Stalled;
        }
        let monitored = self.is_monitored(id);
        // An instruction can emit at most 2 events (code fill + control).
        if monitored && self.fifo.free() < 2 {
            self.fifo.note_full_stall();
            return CoreStep::FifoStalled;
        }
        let asid = self.cores[id].asid();
        let Some(space) = self.spaces.get(asid) else {
            return CoreStep::Fault(Fault::PageFault {
                vaddr: self.cores[id].pc(),
                kind: crate::AccessKind::Execute,
            });
        };
        let mut env = StepEnv {
            space,
            mem: &mut self.mems[id],
            dram: &mut self.dram,
            phys: &mut self.phys,
            watchdog: &mut self.watchdog,
            hook,
            predecode: &mut self.predecode[id],
            superblocks: &mut self.superblocks[id],
            core_id: id,
        };
        let result = self.cores[id].step(&mut env);
        self.route_events(id, asid, monitored, &result.events);

        match result.outcome {
            StepOutcome::Executed => CoreStep::Executed,
            StepOutcome::Halted => CoreStep::Halted,
            StepOutcome::Syscall { code } => CoreStep::Syscall { code },
            StepOutcome::Fault(f) => CoreStep::Fault(f),
        }
    }

    /// Routes one instruction's trace events: through the core's CAM
    /// filter (which mutates whether or not the core is monitored) and —
    /// for monitored cores — into the trace FIFO at the core's current
    /// cycle stamp, charging the per-event producer cost.
    fn route_events(&mut self, id: usize, asid: u16, monitored: bool, events: &EventBuf) {
        let cycle = self.cores[id].cycles();
        let mut pushed_events = 0u32;
        for &event in events.iter() {
            // The CAM filter squashes redundant code-origin checks in the
            // resurrectee before they consume FIFO slots (§3.2.2).
            if let TraceEvent::CodeFill { page_vaddr, .. } = event {
                if self.cams[id].filter(page_vaddr) {
                    continue;
                }
            }
            if monitored {
                let pushed = self.fifo.push(event, cycle, asid);
                debug_assert!(pushed, "capacity reserved before stepping");
                pushed_events += 1;
            }
        }
        if pushed_events > 0 {
            // Commit-stage trace-packet cost (port arbitration into the
            // shared FIFO) — per-event, producer side.
            self.cores[id].add_stall_cycles(u64::from(pushed_events * self.cfg.trace_push_cycles));
        }
    }

    /// Advances core `id` by *up to* `max_insns` instructions through the
    /// superblock engine, falling back to exactly one [`Machine::step_core`]
    /// when no valid block covers the PC (or batching is unsafe).
    /// Returns the step outcome and how many instructions retired.
    ///
    /// Batching preserves the interpreter's observable order: a block
    /// stops after the first event-producing instruction (events then
    /// reach the FIFO at their exact interpreted cycle stamps), FIFO
    /// occupancy is constant while a block runs (nothing pops at machine
    /// level, and a pushing instruction is always the last), and
    /// syscalls, faults and halts end the block where the interpreter
    /// would have stopped.
    ///
    /// `cycle_horizon` additionally ends the block at the first
    /// instruction boundary at or past that core-clock value. The INDRA
    /// control loop passes the monitor's completion preview of the
    /// oldest queued trace event so its between-instruction FIFO drain
    /// (and any violation recovery) observes the same core state as the
    /// one-instruction reference loop; pass `u64::MAX` when nothing
    /// drains the FIFO concurrently.
    pub fn step_core_batch(
        &mut self,
        id: usize,
        hook: &mut dyn BackupHook,
        max_insns: u64,
        cycle_horizon: u64,
    ) -> (CoreStep, u64) {
        if self.cores[id].is_halted() {
            return (CoreStep::Halted, 0);
        }
        if self.cores[id].is_stalled() {
            return (CoreStep::Stalled, 0);
        }
        let monitored = self.is_monitored(id);
        if monitored && self.fifo.free() < 2 {
            self.fifo.note_full_stall();
            return (CoreStep::FifoStalled, 0);
        }
        let asid = self.cores[id].asid();
        // Chained block dispatch: a clean block end whose instruction
        // produced no trace events changes nothing any concurrent
        // observer can see (FIFO occupancy is constant, the horizon
        // check bounds the drain loop's view), so the next block starts
        // without returning to the caller. Everything else — events,
        // traps, faults, self-modification, budget, horizon — falls out
        // of the loop at the interpreter-identical boundary.
        let mut total = 0u64;
        if self.cfg.superblocks && max_insns > 1 {
            while let Some(space) = self.spaces.get(asid) {
                let pc = self.cores[id].pc();
                match self.superblocks[id].enter(
                    pc,
                    asid,
                    space.generation(),
                    self.watchdog.generation(),
                    &self.phys,
                ) {
                    Enter::Run(block) => {
                        let mut events = EventBuf::new();
                        let (executed, exit) = {
                            let mut env = StepEnv {
                                space,
                                mem: &mut self.mems[id],
                                dram: &mut self.dram,
                                phys: &mut self.phys,
                                watchdog: &mut self.watchdog,
                                hook,
                                predecode: &mut self.predecode[id],
                                superblocks: &mut self.superblocks[id],
                                core_id: id,
                            };
                            self.cores[id].run_block(
                                &block,
                                &mut env,
                                &mut events,
                                max_insns - total,
                                cycle_horizon,
                            )
                        };
                        self.superblocks[id].note_block(executed, &exit);
                        self.superblocks[id].restore(block);
                        total += executed;
                        let quiet = events.is_empty();
                        self.route_events(id, asid, monitored, &events);
                        match exit {
                            BlockExit::Syscall { code } => {
                                return (CoreStep::Syscall { code }, total);
                            }
                            BlockExit::Halted => return (CoreStep::Halted, total),
                            BlockExit::Fault(f) => return (CoreStep::Fault(f), total),
                            BlockExit::End
                                if quiet
                                    && total < max_insns
                                    && self.cores[id].cycles() < cycle_horizon => {}
                            _ => return (CoreStep::Executed, total),
                        }
                    }
                    Enter::Translate => {
                        match superblock::translate(space, &self.watchdog, &self.phys, id, pc) {
                            Some(b) => self.superblocks[id].insert(Box::new(b)),
                            None => break,
                        }
                    }
                    Enter::Interpret => {
                        // Cold code interprets inline under the same
                        // continuation rules as a block: stop the moment
                        // an event reaches the FIFO (the next boundary
                        // may drain it), at the horizon, at budget, or at
                        // any trap. One `enter` per interpreted
                        // instruction keeps the heat dynamics identical
                        // to one-instruction dispatch.
                        let queued = self.fifo.len();
                        let step = self.step_core(id, hook);
                        match step {
                            CoreStep::Executed => {
                                total += 1;
                                if total >= max_insns
                                    || self.cores[id].cycles() >= cycle_horizon
                                    || self.fifo.len() != queued
                                {
                                    return (CoreStep::Executed, total);
                                }
                            }
                            CoreStep::Syscall { .. } | CoreStep::Halted => {
                                return (step, total + 1);
                            }
                            other => return (other, total),
                        }
                    }
                }
            }
            // Only reachable when the space vanished or translation
            // refused the entry; the interpreter below reproduces the
            // fault or makes one instruction of progress.
            if total > 0 && self.cores[id].cycles() >= cycle_horizon {
                return (CoreStep::Executed, total);
            }
        }
        let step = self.step_core(id, hook);
        let executed = match step {
            CoreStep::Executed | CoreStep::Syscall { .. } | CoreStep::Halted => 1,
            _ => 0,
        };
        (step, total + executed)
    }

    /// Steps an *unmonitored* core with no backup engine — convenience for
    /// baselines and tests.
    pub fn step_core_simple(&mut self, id: usize) -> CoreStep {
        let mut hook = NoopHook;
        self.step_core(id, &mut hook)
    }

    /// [`Machine::step_core_batch`] with no backup engine.
    pub fn step_core_batch_simple(&mut self, id: usize, max_insns: u64) -> (CoreStep, u64) {
        let mut hook = NoopHook;
        self.step_core_batch(id, &mut hook, max_insns, u64::MAX)
    }

    /// Stalls/flushes a resurrectee for recovery: freezes the core, clears
    /// its pending trace, invalidates its CAM (stale "verified" pages may
    /// be lies after rollback) and flushes its caches so rolled-back
    /// memory is re-read from DRAM.
    pub fn quiesce_for_recovery(&mut self, id: usize) {
        self.cores[id].set_stalled(true);
        // Only this service's pending (now meaningless) trace is dropped;
        // other resurrectees' events stay queued.
        let asid = self.cores[id].asid();
        self.fifo.clear_asid(asid);
        self.cams[id].invalidate();
        self.mems[id].flush_l1s();
        // Rolled-back memory may hold different code at the same
        // physical addresses; drop every derived decode with the CAM.
        self.predecode[id].flush();
        self.superblocks[id].flush();
    }

    /// Resumes a quiesced core after its context has been restored.
    pub fn resume_after_recovery(&mut self, id: usize) {
        self.cores[id].set_stalled(false);
    }

    /// Superblock-engine statistics for core `id` (host-side
    /// observability; never part of simulated state).
    #[must_use]
    pub fn superblock_stats(&self, id: usize) -> SuperblockStats {
        self.superblocks[id].stats()
    }

    /// Predecode-cache statistics for core `id` (host-side observability;
    /// never part of simulated state).
    #[must_use]
    pub fn predecode_stats(&self, id: usize) -> PredecodeStats {
        self.predecode[id].stats()
    }

    /// The store-tracking call site for machine-level write paths: drops
    /// every derived decode — predecoded instructions *and* superblocks —
    /// overlapping a physically written range, on every core (these
    /// paths are not tied to one core's store stream).
    fn invalidate_code(&mut self, paddr: u32, len: u32) {
        for (p, s) in self.predecode.iter_mut().zip(&mut self.superblocks) {
            superblock::invalidate_written_code(p, s, paddr, len);
        }
    }

    /// Verifies image placement by reading back the entry word through the
    /// address space — a loader self-check used by tests and the OS.
    #[must_use]
    pub fn read_virtual_u32(&self, asid: u16, vaddr: u32) -> Option<u32> {
        let space = self.spaces.get(asid)?;
        let paddr = space.translate(vaddr, crate::AccessKind::Read).ok()?;
        Some(self.phys.read_u32(paddr))
    }

    /// Writes a u32 through an address space (loader/DMA path, unchecked
    /// by the watchdog — this models privileged DMA used by the OS).
    pub fn write_virtual_u32(&mut self, asid: u16, vaddr: u32, value: u32) -> bool {
        let Some(space) = self.spaces.get(asid) else { return false };
        match space.translate(vaddr, crate::AccessKind::Write) {
            Ok(paddr) => {
                self.phys.write_u32(paddr, value);
                self.invalidate_code(paddr, 4);
                true
            }
            Err(_) => false,
        }
    }

    /// DMA-writes `data` into an address space, charging SDRAM burst time
    /// per line. `checked_core` models a DMA channel assigned to an
    /// unprivileged core: its physical targets go through the watchdog
    /// (§2.3.1 — only high-privilege cores command unrestricted DMA).
    /// Returns the transfer's cycle cost.
    ///
    /// # Errors
    ///
    /// Translation faults and watchdog violations abort the transfer
    /// (partial data may have landed, as real DMA would).
    pub fn dma_write_virtual(
        &mut self,
        asid: u16,
        vaddr: u32,
        data: &[u8],
        checked_core: Option<usize>,
    ) -> Result<u64, Fault> {
        let mut cycles = 0u64;
        let mut off = 0usize;
        while off < data.len() {
            let addr = vaddr + off as u32;
            let chunk = (64 - (addr % 64) as usize).min(data.len() - off);
            let paddr = {
                let space = self
                    .spaces
                    .get(asid)
                    .ok_or(Fault::PageFault { vaddr: addr, kind: crate::AccessKind::Write })?;
                space.translate(addr, crate::AccessKind::Write)?
            };
            if let Some(core) = checked_core {
                self.watchdog.check(core, paddr, crate::AccessKind::Write)?;
            }
            let (c, _) = self.dram.access(paddr, chunk as u32);
            cycles += u64::from(c);
            self.phys.write_bytes(paddr, &data[off..off + chunk]);
            self.invalidate_code(paddr, chunk as u32);
            off += chunk;
        }
        Ok(cycles)
    }

    /// DMA-reads `len` bytes out of an address space (NIC transmit, disk
    /// write), with the same watchdog semantics as
    /// [`Machine::dma_write_virtual`].
    ///
    /// # Errors
    ///
    /// Translation faults and watchdog violations abort the transfer.
    pub fn dma_read_virtual(
        &mut self,
        asid: u16,
        vaddr: u32,
        len: u32,
        checked_core: Option<usize>,
    ) -> Result<(Vec<u8>, u64), Fault> {
        let mut out = Vec::with_capacity(len as usize);
        let mut cycles = 0u64;
        let mut off = 0u32;
        while off < len {
            let addr = vaddr + off;
            let chunk = (64 - (addr % 64)).min(len - off);
            let paddr = {
                let space = self
                    .spaces
                    .get(asid)
                    .ok_or(Fault::PageFault { vaddr: addr, kind: crate::AccessKind::Read })?;
                space.translate(addr, crate::AccessKind::Read)?
            };
            if let Some(core) = checked_core {
                self.watchdog.check(core, paddr, crate::AccessKind::Read)?;
            }
            let (c, _) = self.dram.access(paddr, chunk);
            cycles += u64::from(c);
            let start = out.len();
            out.resize(start + chunk as usize, 0);
            self.phys.read_bytes(paddr, &mut out[start..]);
            off += chunk;
        }
        Ok((out, cycles))
    }

    /// Reads `len` bytes through an address space (read-only perms are
    /// sufficient; used by the OS to pull request buffers out).
    #[must_use]
    pub fn read_virtual_bytes(&self, asid: u16, vaddr: u32, len: u32) -> Option<Vec<u8>> {
        let space = self.spaces.get(asid)?;
        let mut out = Vec::with_capacity(len as usize);
        for i in 0..len {
            let paddr = space.translate(vaddr + i, crate::AccessKind::Read).ok()?;
            out.push(self.phys.read_u8(paddr));
        }
        Some(out)
    }

    /// Writes bytes through an address space (request delivery by the NIC
    /// model).
    pub fn write_virtual_bytes(&mut self, asid: u16, vaddr: u32, data: &[u8]) -> bool {
        // Translation is still per byte (a partial write lands exactly as
        // before on a mid-buffer fault), but store-tracking invalidation
        // batches contiguous physical runs through the shared call site.
        let mut run_start = 0u32;
        let mut run_len = 0u32;
        for (i, &b) in data.iter().enumerate() {
            let Some(space) = self.spaces.get(asid) else { return false };
            let paddr = match space.translate(vaddr + i as u32, crate::AccessKind::Write) {
                Ok(p) => p,
                Err(_) => {
                    self.invalidate_code(run_start, run_len);
                    return false;
                }
            };
            self.phys.write_u8(paddr, b);
            if run_len > 0 && paddr == run_start + run_len {
                run_len += 1;
            } else {
                self.invalidate_code(run_start, run_len);
                run_start = paddr;
                run_len = 1;
            }
        }
        self.invalidate_code(run_start, run_len);
        true
    }

    // ---- durable checkpoint state ----------------------------------------

    /// Captures the machine's complete mutable state — every core, cache,
    /// TLB, CAM, the DRAM row registers, physical memory contents, the
    /// watchdog, the trace FIFO, all address spaces and the three frame
    /// allocators. Restoring this state into a machine built with the same
    /// [`MachineConfig`] reproduces execution bit-exactly, including
    /// timing (warm caches, open rows, issue-group position).
    #[must_use]
    pub fn save_state(&self) -> MachineState {
        self.save_state_inner(true)
    }

    /// Like [`Machine::save_state`] but with `phys` left empty — for
    /// callers (e.g. the replica layer's state digest, which re-hashes
    /// only frames whose write epoch moved) that read physical memory
    /// in place and must not pay a full frame copy per capture. The
    /// result is **not** restorable; it exists to be encoded.
    #[must_use]
    pub fn save_state_sans_phys(&self) -> MachineState {
        self.save_state_inner(false)
    }

    fn save_state_inner(&self, with_phys: bool) -> MachineState {
        let mut spaces: Vec<SpaceState> = self
            .spaces
            .iter()
            .map(|s| {
                let mut pages: Vec<(u32, Pte)> = s.iter().collect();
                pages.sort_unstable_by_key(|&(vpn, _)| vpn);
                SpaceState { asid: s.asid(), pages }
            })
            .collect();
        spaces.sort_unstable_by_key(|s| s.asid);
        MachineState {
            cores: self.cores.iter().map(Core::save_state).collect(),
            mems: self.mems.iter().map(CoreMemory::save_state).collect(),
            cams: self.cams.iter().map(CamFilter::save_state).collect(),
            dram: self.dram.save_state(),
            phys: if with_phys { self.phys.save_state() } else { PhysMemState::default() },
            watchdog: self.watchdog.save_state(),
            fifo: self.fifo.save_state(),
            spaces,
            rts_frames: self.rts_frames.save_state(),
            backup_frames: self.backup_frames.save_state(),
            service_frames: self.service_frames.save_state(),
            monitoring: self.monitoring,
            booted: self.booted,
        }
    }

    /// Restores state captured by [`Machine::save_state`] into a machine
    /// built with the same configuration.
    ///
    /// # Panics
    ///
    /// Panics when the saved core count does not match this machine's.
    pub fn restore_state(&mut self, state: &MachineState) {
        assert_eq!(state.cores.len(), self.cores.len(), "machine state core-count mismatch");
        for (core, s) in self.cores.iter_mut().zip(&state.cores) {
            core.restore_state(s);
        }
        for (mem, s) in self.mems.iter_mut().zip(&state.mems) {
            mem.restore_state(s);
        }
        for (cam, s) in self.cams.iter_mut().zip(&state.cams) {
            cam.restore_state(s);
        }
        self.dram.restore_state(&state.dram);
        self.phys.restore_state(&state.phys);
        self.watchdog.restore_state(&state.watchdog);
        self.fifo.restore_state(&state.fifo);
        self.spaces.clear();
        for s in &state.spaces {
            let mut space = AddressSpace::new(s.asid);
            space.set_fast_paths(self.cfg.fast_paths);
            for &(vpn, pte) in &s.pages {
                space.map(vpn, pte);
            }
            self.spaces.insert(s.asid, space);
        }
        // Physical memory was just replaced wholesale: no derived
        // decode may survive the thaw.
        for p in &mut self.predecode {
            p.flush();
        }
        for s in &mut self.superblocks {
            s.flush();
        }
        self.rts_frames.restore_state(&state.rts_frames);
        self.backup_frames.restore_state(&state.backup_frames);
        self.service_frames.restore_state(&state.service_frames);
        self.monitoring = state.monitoring;
        self.booted = state.booted;
    }
}

/// One address space's saved page table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpaceState {
    /// The address-space tag.
    pub asid: u16,
    /// `(vpn, pte)` mappings sorted by virtual page number.
    pub pages: Vec<(u32, Pte)>,
}

/// Complete mutable state of a [`Machine`], captured by
/// [`Machine::save_state`] for the durable-checkpoint subsystem.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MachineState {
    /// Per-core architectural and accounting state.
    pub cores: Vec<CoreState>,
    /// Per-core cache/TLB hierarchies.
    pub mems: Vec<CoreMemState>,
    /// Per-core code-origin CAM filters.
    pub cams: Vec<CamState>,
    /// Shared SDRAM open-row registers and stats.
    pub dram: DramState,
    /// Physical memory contents.
    pub phys: PhysMemState,
    /// Watchdog policies and stats.
    pub watchdog: WatchdogState,
    /// Trace FIFO contents and stats.
    pub fifo: FifoState,
    /// Address spaces, sorted by ASID.
    pub spaces: Vec<SpaceState>,
    /// Resurrector private frame pool.
    pub rts_frames: FrameAllocatorState,
    /// Hidden backup frame pool.
    pub backup_frames: FrameAllocatorState,
    /// Service (resurrectee-visible) frame pool.
    pub service_frames: FrameAllocatorState,
    /// Whether trace monitoring is active.
    pub monitoring: bool,
    /// Whether a boot sequence has run.
    pub booted: bool,
}

#[cfg(test)]
mod tests {
    use super::*;
    use indra_isa::assemble;

    fn booted_machine() -> Machine {
        let mut m = Machine::new(MachineConfig::default());
        m.boot_asymmetric();
        m
    }

    fn load_and_start(m: &mut Machine, core: usize, asid: u16, src: &str) {
        let img = assemble("t", src).unwrap();
        m.create_space(asid);
        m.load_image(asid, &img).unwrap();
        m.core_mut(core).set_asid(asid);
        m.core_mut(core).set_pc(img.entry);
        let sp = img.initial_sp;
        m.core_mut(core).set_reg(indra_isa::Reg::SP, sp);
    }

    fn run_until_halt(m: &mut Machine, core: usize, max: usize) {
        for _ in 0..max {
            match m.step_core_simple(core) {
                CoreStep::Executed => continue,
                CoreStep::Halted => return,
                other => panic!("unexpected outcome: {other:?}"),
            }
        }
        panic!("no halt in {max} steps");
    }

    #[test]
    fn boot_partitions_memory() {
        let m = booted_machine();
        assert!(m.watchdog().is_privileged(0));
        assert!(!m.watchdog().is_privileged(1));
        assert!(m.monitoring());
    }

    #[test]
    fn program_runs_on_resurrectee() {
        let mut m = booted_machine();
        load_and_start(&mut m, 1, 10, "main:\n li a0, 5\n addi a0, a0, 2\n halt\n");
        run_until_halt(&mut m, 1, 100);
        assert_eq!(m.core(1).reg(indra_isa::Reg::A0), 7);
    }

    #[test]
    fn resurrectee_cannot_touch_rts_memory() {
        let mut m = booted_machine();
        // A program whose data page is force-remapped onto an RTS frame.
        load_and_start(
            &mut m,
            1,
            10,
            "main:\n la t0, buf\n lw a0, 0(t0)\n halt\n.data\nbuf: .word 1\n",
        );
        // Remap the data page to physical frame 0 (RTS pool).
        let data_vpn = indra_isa::DATA_BASE >> PAGE_SHIFT;
        m.space_mut(10)
            .unwrap()
            .map(data_vpn, Pte { ppn: 0, read: true, write: true, execute: false });
        let mut last = CoreStep::Executed;
        for _ in 0..100 {
            last = m.step_core_simple(1);
            if !matches!(last, CoreStep::Executed) {
                break;
            }
        }
        assert!(matches!(last, CoreStep::Fault(Fault::Watchdog { .. })), "got {last:?}");
    }

    #[test]
    fn resurrector_may_touch_everything() {
        let mut m = booted_machine();
        load_and_start(
            &mut m,
            0,
            9,
            "main:\n la t0, buf\n lw a0, 0(t0)\n halt\n.data\nbuf: .word 42\n",
        );
        let data_vpn = indra_isa::DATA_BASE >> PAGE_SHIFT;
        m.space_mut(9)
            .unwrap()
            .map(data_vpn, Pte { ppn: 0, read: true, write: true, execute: false });
        run_until_halt(&mut m, 0, 100);
    }

    #[test]
    fn monitored_core_fills_fifo() {
        let mut m = booted_machine();
        load_and_start(&mut m, 1, 10, "main:\n call f\n call f\n halt\nf:\n ret\n");
        for _ in 0..100 {
            match m.step_core_simple(1) {
                CoreStep::Executed => continue,
                CoreStep::Halted => break,
                CoreStep::FifoStalled => break,
                other => panic!("{other:?}"),
            }
        }
        assert!(m.fifo().stats().pushes > 0, "calls/returns/code fills were traced");
    }

    #[test]
    fn fifo_stall_when_full() {
        let cfg = MachineConfig { fifo_entries: 2, ..MachineConfig::default() };
        let mut m = Machine::new(cfg);
        m.boot_asymmetric();
        load_and_start(&mut m, 1, 10, "main:\n call f\n halt\nf:\n ret\n");
        // Without a monitor draining, the tiny FIFO fills and stalls.
        let mut saw_stall = false;
        for _ in 0..50 {
            match m.step_core_simple(1) {
                CoreStep::FifoStalled => {
                    saw_stall = true;
                    break;
                }
                CoreStep::Halted => break,
                _ => continue,
            }
        }
        assert!(saw_stall, "2-entry FIFO must backpressure");
        assert!(m.fifo().stats().full_stalls > 0);
    }

    #[test]
    fn unmonitored_machine_never_fifo_stalls() {
        let cfg = MachineConfig { fifo_entries: 2, ..MachineConfig::default() };
        let mut m = Machine::new(cfg);
        m.boot_asymmetric();
        m.set_monitoring(false);
        load_and_start(&mut m, 1, 10, "main:\n call f\n call f\n call f\n halt\nf:\n ret\n");
        run_until_halt(&mut m, 1, 200);
        assert_eq!(m.fifo().stats().pushes, 0);
    }

    #[test]
    fn syscall_surfaces_to_caller() {
        let mut m = booted_machine();
        load_and_start(&mut m, 1, 10, "main:\n li a0, 1\n syscall 5\n halt\n");
        let mut outcome = CoreStep::Executed;
        for _ in 0..50 {
            outcome = m.step_core_simple(1);
            if !matches!(outcome, CoreStep::Executed) {
                break;
            }
        }
        assert_eq!(outcome, CoreStep::Syscall { code: 5 });
        m.core_mut(1).finish_syscall(Some(0));
        run_until_halt(&mut m, 1, 50);
    }

    #[test]
    fn quiesce_clears_trace_state() {
        let mut m = booted_machine();
        // An endless request loop, so the core is still live when quiesced.
        load_and_start(&mut m, 1, 10, "main:\n call f\n j main\nf:\n ret\n");
        for _ in 0..20 {
            if !matches!(m.step_core_simple(1), CoreStep::Executed) {
                break;
            }
        }
        assert!(!m.fifo().is_empty());
        m.quiesce_for_recovery(1);
        assert!(m.fifo().is_empty());
        assert!(m.core(1).is_stalled());
        assert_eq!(m.step_core_simple(1), CoreStep::Stalled);
        m.resume_after_recovery(1);
        assert!(!m.core(1).is_stalled());
    }

    #[test]
    fn virtual_io_helpers() {
        let mut m = booted_machine();
        load_and_start(&mut m, 1, 10, "main:\n halt\n.data\nbuf: .space 16\n");
        let img_buf = indra_isa::DATA_BASE;
        assert!(m.write_virtual_bytes(10, img_buf, b"ping"));
        let back = m.read_virtual_bytes(10, img_buf, 4).unwrap();
        assert_eq!(&back, b"ping");
        assert!(m.write_virtual_u32(10, img_buf + 8, 0xABCD));
        assert_eq!(m.read_virtual_u32(10, img_buf + 8), Some(0xABCD));
        assert_eq!(m.read_virtual_u32(10, 0xFFFF_0000), None);
    }

    #[test]
    fn fresh_pages_are_zeroed() {
        let mut m = booted_machine();
        m.create_space(10);
        let ppn = m.map_fresh_page(10, 0x70000, true, true, false).unwrap();
        m.phys_mut().write_u32(ppn << PAGE_SHIFT, 7);
        m.space_mut(10).unwrap().unmap(0x70000);
        m.release_service_frame(ppn);
        // Next allocation may reuse the frame; it must come back zeroed.
        let ppn2 = m.map_fresh_page(10, 0x70001, true, true, false).unwrap();
        assert_eq!(m.phys().read_u32(ppn2 << PAGE_SHIFT), 0);
    }
}

#[cfg(test)]
mod dma_tests {
    use super::*;
    use indra_isa::assemble;

    fn booted() -> Machine {
        let mut m = Machine::new(MachineConfig::default());
        m.boot_asymmetric();
        m
    }

    fn loaded(m: &mut Machine) -> u32 {
        let img = assemble("t", "main:\n halt\n.data\nbuf: .space 256\n").unwrap();
        m.create_space(10);
        m.load_image(10, &img).unwrap();
        img.addr_of("buf").unwrap()
    }

    #[test]
    fn dma_roundtrip_charges_cycles() {
        let mut m = booted();
        let buf = loaded(&mut m);
        let payload = vec![0xAB; 200];
        let wc = m.dma_write_virtual(10, buf, &payload, None).unwrap();
        assert!(wc > 0, "DMA pays SDRAM time");
        let (back, rc) = m.dma_read_virtual(10, buf, 200, None).unwrap();
        assert_eq!(back, payload);
        assert!(rc > 0);
    }

    #[test]
    fn dma_crossing_lines_and_pages() {
        let mut m = booted();
        let buf = loaded(&mut m);
        // Unaligned start, crossing several 64B bursts.
        let payload: Vec<u8> = (0..130).map(|i| i as u8).collect();
        m.dma_write_virtual(10, buf + 3, &payload, None).unwrap();
        let (back, _) = m.dma_read_virtual(10, buf + 3, 130, None).unwrap();
        assert_eq!(back, payload);
    }

    #[test]
    fn unprivileged_dma_channel_is_watchdogged() {
        let mut m = booted();
        let buf = loaded(&mut m);
        // Remap the buffer's page onto RTS frame 0: a DMA channel owned by
        // the resurrectee (core 1) must be blocked; the kernel's own
        // channel is not.
        let vpn = buf >> PAGE_SHIFT;
        m.space_mut(10).unwrap().map(vpn, Pte { ppn: 0, read: true, write: true, execute: false });
        let err = m.dma_write_virtual(10, buf, b"x", Some(1));
        assert!(matches!(err, Err(Fault::Watchdog { .. })));
        assert!(m.dma_write_virtual(10, buf, b"x", None).is_ok());
    }

    #[test]
    fn dma_to_unmapped_faults() {
        let mut m = booted();
        m.create_space(10);
        assert!(matches!(
            m.dma_write_virtual(10, 0xDEAD_0000, b"x", None),
            Err(Fault::PageFault { .. })
        ));
        assert!(m.dma_read_virtual(10, 0xDEAD_0000, 4, None).is_err());
        assert!(m.dma_write_virtual(99, 0x1000, b"x", None).is_err(), "unknown asid");
    }

    // ---- superblock staleness audit, one test per write path -------------
    //
    // Each test gets a loop's superblock hot through the batch dispatch
    // path, rewrites the loop body through one machine-level write path,
    // reruns, and requires the *patched* semantics — a stale block (or
    // stale predecode entry) surviving any of these paths would produce
    // the old sum.

    use indra_isa::{AluOp, Cond, Instruction, Reg};

    const LOOP_BASE: u32 = 0x8000;
    const BODY: u32 = LOOP_BASE + 4;

    /// `a0 += step` fifty times, then halt. The loop body at [`BODY`] is
    /// the superblock under test; `step` is the patched immediate.
    fn loop_words(step: i32) -> Vec<u32> {
        vec![
            Instruction::AluImm { op: AluOp::Add, rd: Reg::T0, rs1: Reg::ZERO, imm: 50 }
                .encode()
                .unwrap(),
            Instruction::AluImm { op: AluOp::Add, rd: Reg::A0, rs1: Reg::A0, imm: step }
                .encode()
                .unwrap(),
            Instruction::AluImm { op: AluOp::Add, rd: Reg::T0, rs1: Reg::T0, imm: -1 }
                .encode()
                .unwrap(),
            Instruction::Branch { cond: Cond::Ne, rs1: Reg::T0, rs2: Reg::ZERO, offset: -8 }
                .encode()
                .unwrap(),
            Instruction::Halt.encode().unwrap(),
        ]
    }

    /// Boots a machine with the `step = 1` loop on core 1 (monitoring off
    /// so the batch path engages without a monitor draining the FIFO).
    fn hot_loop_machine() -> Machine {
        let mut m = booted();
        m.set_monitoring(false);
        m.create_space(7);
        m.map_fresh_page(7, LOOP_BASE >> PAGE_SHIFT, true, true, true).unwrap();
        for (i, w) in loop_words(1).iter().enumerate() {
            assert!(m.write_virtual_u32(7, LOOP_BASE + 4 * i as u32, *w));
        }
        m.core_mut(1).set_asid(7);
        m.core_mut(1).set_pc(LOOP_BASE);
        m
    }

    fn run_to_halt_batched(m: &mut Machine) -> u32 {
        for _ in 0..10_000 {
            match m.step_core_batch_simple(1, u64::MAX).0 {
                CoreStep::Halted => return m.core(1).reg(Reg::A0),
                CoreStep::Executed => {}
                other => panic!("unexpected step outcome {other:?}"),
            }
        }
        panic!("loop did not halt");
    }

    fn rearm(m: &mut Machine) {
        m.core_mut(1).clear_halt();
        m.core_mut(1).set_reg(Reg::A0, 0);
        m.core_mut(1).set_pc(LOOP_BASE);
    }

    #[test]
    fn write_virtual_u32_invalidates_hot_superblocks() {
        let mut m = hot_loop_machine();
        assert_eq!(run_to_halt_batched(&mut m), 50);
        assert!(m.superblock_stats(1).hits > 0, "loop must actually run batched");
        assert!(m.write_virtual_u32(7, BODY, loop_words(2)[1]));
        rearm(&mut m);
        assert_eq!(run_to_halt_batched(&mut m), 100, "stale superblock served old code");
    }

    #[test]
    fn write_virtual_bytes_invalidates_hot_superblocks() {
        let mut m = hot_loop_machine();
        assert_eq!(run_to_halt_batched(&mut m), 50);
        assert!(m.superblock_stats(1).hits > 0, "loop must actually run batched");
        assert!(m.write_virtual_bytes(7, BODY, &loop_words(3)[1].to_le_bytes()));
        rearm(&mut m);
        assert_eq!(run_to_halt_batched(&mut m), 150, "stale superblock served old code");
    }

    #[test]
    fn dma_write_virtual_invalidates_hot_superblocks() {
        let mut m = hot_loop_machine();
        assert_eq!(run_to_halt_batched(&mut m), 50);
        assert!(m.superblock_stats(1).hits > 0, "loop must actually run batched");
        m.dma_write_virtual(7, BODY, &loop_words(4)[1].to_le_bytes(), None).unwrap();
        rearm(&mut m);
        assert_eq!(run_to_halt_batched(&mut m), 200, "stale superblock served old code");
    }

    #[test]
    fn committed_stores_invalidate_hot_superblocks() {
        // The in-pipeline path: the loop itself stores a patched immediate
        // over its own body (via a second, straight-line patcher program),
        // exercising the shared store-tracking call site from
        // `execute_decoded` rather than a machine-level writer.
        let mut m = hot_loop_machine();
        assert_eq!(run_to_halt_batched(&mut m), 50);
        assert!(m.superblock_stats(1).hits > 0, "loop must actually run batched");
        // Patcher at a fresh page: lw the patched word from a data slot,
        // sw it over the loop body, halt. (i16 offsets reach neither
        // address from zero, so t2 is built up to LOOP_BASE first.)
        let patch_base = 0x9000u32;
        m.map_fresh_page(7, patch_base >> PAGE_SHIFT, true, true, true).unwrap();
        let word = loop_words(5)[1];
        let data_addr = patch_base + 0x100;
        assert!(m.write_virtual_u32(7, data_addr, word));
        let patcher = [
            Instruction::AluImm { op: AluOp::Add, rd: Reg::T2, rs1: Reg::ZERO, imm: 0x7FFF }
                .encode()
                .unwrap(),
            Instruction::AluImm { op: AluOp::Add, rd: Reg::T2, rs1: Reg::T2, imm: 1 }
                .encode()
                .unwrap(),
            Instruction::Load {
                width: indra_isa::Width::Word,
                signed: false,
                rd: Reg::T1,
                rs1: Reg::T2,
                offset: (data_addr - LOOP_BASE) as i32,
            }
            .encode()
            .unwrap(),
            Instruction::Store {
                width: indra_isa::Width::Word,
                rs2: Reg::T1,
                rs1: Reg::T2,
                offset: (BODY - LOOP_BASE) as i32,
            }
            .encode()
            .unwrap(),
            Instruction::Halt.encode().unwrap(),
        ];
        for (i, w) in patcher.iter().enumerate() {
            assert!(m.write_virtual_u32(7, patch_base + 4 * i as u32, *w));
        }
        m.core_mut(1).clear_halt();
        m.core_mut(1).set_pc(patch_base);
        for _ in 0..100 {
            if m.step_core_batch_simple(1, u64::MAX).0 == CoreStep::Halted {
                break;
            }
        }
        assert_eq!(m.read_virtual_u32(7, BODY), Some(word), "patcher must have landed");
        rearm(&mut m);
        assert_eq!(run_to_halt_batched(&mut m), 250, "stale superblock served old code");
    }
}
