//! # cgra-lint
//!
//! Whole-schedule, inter-epoch dataflow lints for reMORPH epoch
//! schedules — the layer above `cgra-verify`: where the verifier checks
//! each epoch for *legality* (and threads may-init/const state forward),
//! this crate checks the schedule as one program for *waste and
//! lifetime hazards*, and can rewrite it:
//!
//! * **Lifetime / clobber analysis** — tracks every data-memory word's
//!   current definition (ICAP patch, program store, or inbound `T_copy`
//!   write) across the whole schedule and reports kills of data nothing
//!   ever read, with provenance: [`cgra_verify::Code::ClobberByPatch`]
//!   (L001, deny by default — patch writes are must-writes),
//!   [`cgra_verify::Code::ClobberByCopy`] (L002),
//!   [`cgra_verify::Code::ClobberByStore`] (L003) and
//!   [`cgra_verify::Code::DeadInit`] (L004) for patched words no program
//!   ever consumes.
//! * **Reconfiguration-diff minimizer** — a patch word whose payload
//!   equals the value the word statically already holds is a no-op
//!   rewrite ([`cgra_verify::Code::RedundantPatch`], L005). Each is
//!   recorded as a [`Removal`]; [`minimize_patches`] rewrites the patch
//!   list without them, and [`TransitionSavings`] prices the Eq. 1
//!   reconfiguration-time reduction per epoch switch.
//! * **Dead configuration state** — byte-identical program reloads
//!   ([`cgra_verify::Code::RedundantReload`], L006, allow by default:
//!   a reload is also what re-arms a halted PE) and instruction slots
//!   unreachable from the entry that the ICAP streams anyway
//!   ([`cgra_verify::Code::UnreachableImem`], L007).
//! * **Idle-window analysis and proof-gated hoisting** — [`overlap`]
//!   derives per-tile/per-epoch provably-idle cycle windows from the
//!   verifier effect summaries and the WCET bounds
//!   ([`cgra_verify::Code::IdleWindow`], L008), and [`plan_hoists`]
//!   prefetches tile rewrites into those windows through a background
//!   configuration port; every [`Hoist`] carries a machine-checkable
//!   [`HoistCertificate`] that [`verify_hoists`] re-derives
//!   independently ([`cgra_verify::Code::HoistRefused`], L011, deny by
//!   default), with refusals narrated as
//!   [`cgra_verify::Code::HoistInterference`] (L009) and applied moves
//!   as [`cgra_verify::Code::HoistApplied`] (L010).
//!
//! Every lint has a deny/warn/allow [`LintLevel`]; [`LintLevels`] is the
//! mutable table the `cgra-lint` driver binary exposes as `--level
//! name=deny` / `--deny-warnings`. Deny findings materialize as
//! [`cgra_verify::Severity::Error`] diagnostics, so
//! `cgra_sim::EpochRunner` can gate strict runs on them exactly as it
//! gates on verifier errors.
//!
//! The soundness argument for the minimizer (why dropping a [`Removal`]
//! is bit-exact at every cycle, not just at the end) is DESIGN.md
//! Section 11; the hoisting soundness argument (idle-window lattice,
//! non-interference obligations, double-buffer commit semantics) is
//! Section 13.

#![warn(missing_docs)]

pub mod fix;
pub mod level;
pub mod overlap;
pub mod pass;

pub use fix::minimize_patches;
pub use level::{default_level, LintLevel, LintLevels, LINT_CODES};
pub use overlap::{
    hoisted_bound, plan_hoists, verify_hoists, Claim, ClaimProof, Hoist, HoistCertificate,
    HoistOptions, HoistPlan, IdleWindow, Refusal, Segment,
};
pub use pass::{lint_schedule, LintPass, LintReport, Removal, TransitionSavings};
