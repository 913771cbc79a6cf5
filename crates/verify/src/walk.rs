//! The schedule walk: one [`ScheduleChecker`] pass that every
//! schedule-level analysis consumes.
//!
//! Verification, lint, footprint, WCET, activity and hoist-window
//! analyses all need the same per-epoch facts — the preconditions each
//! loaded program was verified under and its memory-effect summary —
//! and the checker derives them by analyzing every loaded program
//! twice per epoch. [`walk_schedule`] runs that derivation once per
//! schedule and hands each epoch to a list of [`EpochPass`]es in
//! order, so analyses that are wanted together share one walk instead
//! of each replaying the checker on its own.
//!
//! Each pass sees an epoch twice: [`EpochPass::before_epoch`] with the
//! checker holding the state going *into* the epoch (the lint pass
//! compares patch payloads against [`ScheduleChecker::known_value`]
//! there), and [`EpochPass::epoch`] with the epoch's [`EpochAnalysis`].
//! The analysis borrows the epoch and lives only for that call, so a
//! pass streams: it keeps what it derives, never the analysis itself.

use crate::diag::Diagnostic;
use crate::schedule::{EpochAnalysis, EpochSpec, ScheduleChecker};
use crate::timing::BoundCache;
use cgra_fabric::Mesh;

/// One consumer of the schedule walk.
pub trait EpochPass {
    /// Epoch `ei` is next; `pre` holds the checker's state going into
    /// it (nothing of the epoch applied yet).
    fn before_epoch(&mut self, _ei: usize, _e: &EpochSpec, _pre: &ScheduleChecker) {}

    /// Epoch `ei`'s analysis. `bounds` is the walk's program-bound memo,
    /// shared by every pass that bounds the loaded programs.
    fn epoch(
        &mut self,
        ei: usize,
        e: &EpochSpec,
        analysis: &EpochAnalysis,
        bounds: &mut BoundCache,
    );
}

/// Walks `epochs` on a cold array on `mesh` once, feeding every epoch
/// to each pass in `passes` order (all `before_epoch` hooks, the
/// checker's analysis, then all `epoch` hooks). Returns the checker in
/// its end-of-schedule state.
pub fn walk_schedule(
    mesh: Mesh,
    epochs: &[EpochSpec],
    bounds: &mut BoundCache,
    passes: &mut [&mut dyn EpochPass],
) -> ScheduleChecker {
    crate::work::tally(crate::work::Work::ScheduleWalk);
    let mut checker = ScheduleChecker::new(mesh);
    for (ei, e) in epochs.iter().enumerate() {
        for p in passes.iter_mut() {
            p.before_epoch(ei, e, &checker);
        }
        let analysis = checker.analyze_epoch(e);
        for p in passes.iter_mut() {
            p.epoch(ei, e, &analysis, bounds);
        }
    }
    checker
}

/// The verdict pass: every schedule-verifier finding, in walk order —
/// what [`crate::verify_schedule`] returns. Counts one
/// [`crate::Work::CheckedEpoch`] per epoch it gates.
#[derive(Debug, Default)]
pub struct Verdicts {
    diags: Vec<Diagnostic>,
}

impl Verdicts {
    /// An empty collector.
    pub fn new() -> Verdicts {
        Verdicts::default()
    }

    /// The findings collected so far.
    pub fn finish(self) -> Vec<Diagnostic> {
        self.diags
    }
}

impl EpochPass for Verdicts {
    fn epoch(&mut self, _: usize, _: &EpochSpec, analysis: &EpochAnalysis, _: &mut BoundCache) {
        crate::work::tally(crate::work::Work::CheckedEpoch);
        self.diags.extend(analysis.diags.iter().cloned());
    }
}
