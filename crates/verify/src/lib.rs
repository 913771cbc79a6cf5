//! # cgra-verify
//!
//! Static verifier for reMORPH PE programs and epoch schedules.
//!
//! The simulator executes whatever it is handed; a malformed program or
//! schedule surfaces as a hung epoch, a garbage FFT, or a deadline trip
//! deep inside a design-space sweep. This crate front-loads those
//! failures: it analyzes assembled [`cgra_isa::Instr`] programs and
//! epoch-schedule descriptions *before* anything runs and reports
//! machine-readable [`Diagnostic`]s with tile/epoch/pc locations.
//!
//! ## Program-level passes ([`verify_program`])
//!
//! 1. per-instruction validation (typed [`cgra_isa::IsaError`] findings),
//! 2. capacity — non-empty and within the 512-slot instruction memory,
//! 3. control flow — CFG construction, reachability, "every path reaches
//!    `halt`", no falling off the end ([`mod@cfg`], [`term`]),
//! 4. address registers — must-be-loaded dataflow flagging uses before
//!    any `ldar` ([`ars`]),
//! 5. data memory — abstract interpretation over the 512-word memory
//!    flagging reads of words nothing initialized ([`dmem`]).
//!
//! ## Schedule-level passes ([`verify_schedule`] / [`ScheduleChecker`])
//!
//! Epoch sequences are checked for link legality on the mesh, remote
//! writes without an active outgoing link, data-patch range/overlap
//! errors, and memory budgets — threading the may-initialized word sets
//! and known word constants across epochs so that patches, earlier
//! stores and inbound neighbour writes all count as initializing
//! ([`schedule`]).
//!
//! Every schedule-level analysis runs as an [`EpochPass`] on one
//! checker walk ([`walk_schedule`], [`walk`]): the verdicts
//! ([`Verdicts`]), the footprint ([`FootprintPass`]), the WCET bound
//! ([`BoundPass`]), the activity certificate ([`ActivityPass`], which
//! extends the WCET pass), and `cgra-lint`'s lint
//! and hoist-window passes. Run alone, each is its public entry point;
//! run together, they share the walk.
//!
//! ## Concurrency pass ([`races`], V10x codes)
//!
//! Each epoch's remote-write / local-read-write effects are intersected
//! across the link topology: write/write clashes on one destination word
//! ([`Code::RaceWriteWrite`]), lost updates ([`Code::RaceLostUpdate`]),
//! read/write ordering hazards ([`Code::RaceReadWrite`]) and cyclic
//! spin-wait patterns ([`Code::CyclicWait`]).
//!
//! ## Timing pass ([`timing`], V11x codes)
//!
//! A WCET engine bounds each program's cycles and remote traffic as
//! `[best, worst]` intervals — exact single-path execution when control
//! flow is input-independent, CFG loop-bound inference otherwise — and
//! [`timing::bound_schedule`] composes them with `fabric::cost`
//! reconfiguration charges into an analytic Eq. 1 bound per schedule.
//!
//! Findings split into [`Severity::Error`] (the simulator or hardware
//! would reject or hang on this) and [`Severity::Warning`] (well-defined
//! but almost certainly a generator bug, e.g. reading a word nothing
//! wrote). See `DESIGN.md` for the soundness caveats of the abstract
//! domains.

#![warn(missing_docs)]

pub mod activity;
pub mod ars;
pub mod capacity;
pub mod cfg;
pub mod diag;
pub mod dmem;
pub mod effects;
pub mod footprint;
pub mod program;
pub mod races;
pub mod schedule;
pub mod term;
pub mod timing;
pub mod walk;
pub mod work;

pub use activity::{
    analyze_activity, verify_activity, ActivityAnalysis, ActivityCertificate, ActivityInterval,
    ActivityPass, EpochActivity, IndependenceClass, TileActivity,
};
pub use capacity::check_data_budget;
pub use cfg::Cfg;
pub use diag::{errors, has_errors, Code, Diagnostic, Severity};
pub use dmem::{ConstMap, DmemSummary, WordSet};
pub use footprint::{
    analyze_footprint, analyze_footprint_with_shadow, check_contained, check_disjoint,
    footprint_summary, verify_footprint, FootprintAnalysis, FootprintCertificate, FootprintPass,
    LinkClaim, ShadowClaim, TileFootprint,
};
pub use program::{analyze_program, verify_program, verify_program_with, DmemInit, VerifyOptions};
pub use races::{check_epoch_races, TileEffects};
pub use schedule::{
    verify_schedule, EpochAnalysis, EpochSpec, ScheduleChecker, TileAnalysis, TileSpec,
};
pub use timing::{
    bound_program, bound_schedule, bound_schedule_with, BoundCache, BoundPass, CycleInterval,
    EpochBound, LoopBound, NsInterval, ProgramBound, ScheduleBound,
};
pub use walk::{walk_schedule, EpochPass, Verdicts};
pub use work::{WalkCounts, Work, WorkCounts};
