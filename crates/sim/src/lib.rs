//! # cgra-sim
//!
//! Cycle-driven simulation of the reconfigurable tile array:
//!
//! * [`engine`] — the synchronous array simulator (one instruction per
//!   tile per cycle, link-routed remote writes, reconfiguration stalls),
//! * [`epoch`] — epoch schedules, partial-reconfiguration switches with
//!   compute overlap, and the paper's Eq. 1 runtime decomposition,
//! * [`active`] — the event-driven core: executes a certified schedule
//!   under its activity certificate, skipping provably-inactive tiles,
//!   pre-decoding programs once per image, and stepping independence
//!   classes in parallel — bit-exact with the serial engine, with
//!   automatic serial fallback when the runner is not in the state the
//!   schedule was certified for,
//! * [`certify`] — [`CertifiedSchedule`]: a schedule's verifier, lint,
//!   footprint, WCET and activity proofs built once on one schedule
//!   walk and carried as a value, and placed onto a composed fabric by
//!   translation,
//! * [`compose`] — co-resident execution of certified tenants on one
//!   fabric,
//! * [`trace`] — per-tile activity traces with ASCII Gantt rendering,
//! * [`lint`] — whole-schedule `cgra-lint` integration: the inter-epoch
//!   lifetime/redundancy pass over [`Epoch`] schedules and the auto-fix
//!   that drops redundant ICAP patch words.
//!
//! The simulator is instrumented with `cgra-telemetry`: the epoch
//! runner always records cheap per-epoch summary events (fold them
//! with [`EpochRunner::trace`] / [`EpochRunner::counters`]), and
//! attaching a sink ([`ArraySim::attach_sink`]) additionally streams
//! per-tile busy/stall segments and per-word link transfers.

#![warn(missing_docs)]

pub mod active;
pub mod certify;
pub mod compose;
pub mod engine;
pub mod epoch;
pub mod lint;
pub mod trace;

pub use active::{DecodedProgram, EventOptions, ProgramCache};
pub use certify::{CertifiedSchedule, TenantProof};
pub use cgra_telemetry::{Event, EventSink, Recorder};
pub use compose::{ComposedReport, ComposedTenant, TenantOutcome};
pub use engine::{ArraySim, SimError, TileStats, VerifyMode};
pub use epoch::{
    bound_epochs, epoch_spec, verify_epochs, Epoch, EpochReport, EpochRunner, RunReport, TileSetup,
};
pub use lint::{apply_lint_fixes, lint_epochs};
pub use trace::{EpochTrace, TileActivity, Trace};
