#![warn(missing_docs)]
//! # indra-replica — replicated cells, divergence voting, rejuvenation
//!
//! The paper's architecture detects *monitored* failure modes: the
//! trace monitor sees control-flow and pointer violations because they
//! pass through instrumented paths. A corruption that never crosses a
//! monitored path — a flipped bit in a resident page, silently planted
//! — is invisible to it. This crate adds the classic systems answer,
//! adapted to the repo's determinism contract: run K byte-for-byte
//! deterministic replicas of each logical shard, feed them the
//! identical admitted request stream, and vote after every request on
//! (verdict, output hash, state digest). Under determinism, *any*
//! disagreement is a detection.
//!
//! * [`digest`] — O(dirty-state) incremental state digests (FNV-1a/64
//!   chained per persist-codec section + per dirty frame).
//! * [`cell`] — one replica: a complete [`indra_core::IndraSystem`]
//!   driven closed-loop, one request per ballot.
//! * [`group`] — the voting/revival protocol: majority masks (K ≥ 3),
//!   2-way detects, retries once and quarantines; plus staggered
//!   proactive rejuvenation from the durable checkpoint store.
//! * [`runner`] — the fleet-shaped entry point
//!   ([`run_fleet_replicated`]) whose [`indra_fleet::FleetStats`]
//!   remain a pure function of the config: stealth corruption at
//!   K ≥ 2 leaves them byte-identical to an undisturbed run.
//! * [`bench`] — the `BENCH_replica.json` sweep: detection rate and
//!   wall overhead at K = 1/2/3 and a rejuvenation-cadence sweep.

pub mod bench;
pub mod cell;
pub mod digest;
pub mod group;
pub mod runner;

pub use bench::replica_bench_json;
pub use cell::{CellVerdict, ReplicaCell, TAG_DEAD, TAG_DETECTED, TAG_QUARANTINED, TAG_SERVED};
pub use digest::{fnv1a, fnv1a_u64, DigestCache, StateDigest, FNV_OFFSET};
pub use group::{Ballot, GroupCounters, ReplicaError, ReplicaGroup};
pub use runner::{run_fleet_replicated, ReplicaOptions};
