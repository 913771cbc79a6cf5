//! Deterministic work counters for the static analyses.
//!
//! Every schedule-level analysis entry point tallies one unit of work
//! on a thread-local counter when it runs: the schedule checker per
//! epoch it gates (the verdict pass and
//! [`crate::ScheduleChecker::check_epoch`]), the lint pass, the
//! footprint derivation and its re-proof, the WCET bound, and the hoist
//! planner and its re-proof (the lint and hoist counts tallied from
//! `cgra-lint`). Below those proofs, the walks that build them are
//! counted too ([`walk_snapshot`]): each run of the schedule walk
//! ([`crate::walk_schedule`]) and each [`crate::analyze_program`] call.
//! The counters never reset; a caller measures a stretch of work as the
//! difference of two snapshots taken on the same thread. They are
//! always on and cost one thread-local increment per analysis — they
//! exist so tests can pin *how often* a proof is built, which a wall
//! clock cannot.

use std::cell::Cell;

/// One kind of counted analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Work {
    /// One epoch fed to a gating [`crate::ScheduleChecker`].
    CheckedEpoch,
    /// One `cgra_lint::lint_schedule` run.
    LintRun,
    /// One footprint derivation ([`crate::analyze_footprint_with_shadow`]).
    FootprintDerive,
    /// One footprint re-proof ([`crate::verify_footprint`]).
    FootprintReproof,
    /// One schedule WCET bound ([`crate::bound_schedule_with`]).
    WcetBound,
    /// One `cgra_lint::plan_hoists` run.
    HoistPlan,
    /// One `cgra_lint::verify_hoists` re-proof.
    HoistReproof,
    /// One run of the schedule walk ([`crate::walk_schedule`]).
    ScheduleWalk,
    /// One [`crate::analyze_program`] call.
    ProgramAnalysis,
}

/// The counters at one point in time, per kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkCounts {
    /// Epochs fed to a gating schedule checker.
    pub checked_epochs: u64,
    /// Lint passes run.
    pub lint_runs: u64,
    /// Footprint certificates derived.
    pub footprint_derives: u64,
    /// Footprint certificates re-proved.
    pub footprint_reproofs: u64,
    /// Schedule WCET bounds derived.
    pub wcet_bounds: u64,
    /// Hoist plans built.
    pub hoist_plans: u64,
    /// Hoist plans re-proved.
    pub hoist_reproofs: u64,
}

impl WorkCounts {
    /// The work done between `earlier` and `self`.
    pub fn since(&self, earlier: &WorkCounts) -> WorkCounts {
        WorkCounts {
            checked_epochs: self.checked_epochs - earlier.checked_epochs,
            lint_runs: self.lint_runs - earlier.lint_runs,
            footprint_derives: self.footprint_derives - earlier.footprint_derives,
            footprint_reproofs: self.footprint_reproofs - earlier.footprint_reproofs,
            wcet_bounds: self.wcet_bounds - earlier.wcet_bounds,
            hoist_plans: self.hoist_plans - earlier.hoist_plans,
            hoist_reproofs: self.hoist_reproofs - earlier.hoist_reproofs,
        }
    }
}

/// The walk-level counters at one point in time: the work the proofs
/// in [`WorkCounts`] are built from.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkCounts {
    /// Schedule walks run.
    pub schedule_walks: u64,
    /// Program analyses run.
    pub program_analyses: u64,
}

impl WalkCounts {
    /// The walks and analyses between `earlier` and `self`.
    pub fn since(&self, earlier: &WalkCounts) -> WalkCounts {
        WalkCounts {
            schedule_walks: self.schedule_walks - earlier.schedule_walks,
            program_analyses: self.program_analyses - earlier.program_analyses,
        }
    }
}

thread_local! {
    static WALKS: Cell<WalkCounts> = const {
        Cell::new(WalkCounts {
            schedule_walks: 0,
            program_analyses: 0,
        })
    };
    static COUNTS: Cell<WorkCounts> = const {
        Cell::new(WorkCounts {
            checked_epochs: 0,
            lint_runs: 0,
            footprint_derives: 0,
            footprint_reproofs: 0,
            wcet_bounds: 0,
            hoist_plans: 0,
            hoist_reproofs: 0,
        })
    };
}

/// Tallies one unit of `work` on this thread.
pub fn tally(work: Work) {
    fn bump<T: Copy>(cell: &'static std::thread::LocalKey<Cell<T>>, slot: impl FnOnce(&mut T)) {
        cell.with(|c| {
            let mut n = c.get();
            slot(&mut n);
            c.set(n);
        });
    }
    match work {
        Work::CheckedEpoch => bump(&COUNTS, |n| n.checked_epochs += 1),
        Work::LintRun => bump(&COUNTS, |n| n.lint_runs += 1),
        Work::FootprintDerive => bump(&COUNTS, |n| n.footprint_derives += 1),
        Work::FootprintReproof => bump(&COUNTS, |n| n.footprint_reproofs += 1),
        Work::WcetBound => bump(&COUNTS, |n| n.wcet_bounds += 1),
        Work::HoistPlan => bump(&COUNTS, |n| n.hoist_plans += 1),
        Work::HoistReproof => bump(&COUNTS, |n| n.hoist_reproofs += 1),
        Work::ScheduleWalk => bump(&WALKS, |n| n.schedule_walks += 1),
        Work::ProgramAnalysis => bump(&WALKS, |n| n.program_analyses += 1),
    }
}

/// This thread's counters so far.
pub fn snapshot() -> WorkCounts {
    COUNTS.with(Cell::get)
}

/// This thread's walk-level counters so far.
pub fn walk_snapshot() -> WalkCounts {
    WALKS.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_are_per_kind_and_differences_measure_a_stretch() {
        let before = snapshot();
        tally(Work::LintRun);
        tally(Work::LintRun);
        tally(Work::HoistPlan);
        let d = snapshot().since(&before);
        assert_eq!(d.lint_runs, 2);
        assert_eq!(d.hoist_plans, 1);
        assert_eq!(d.checked_epochs + d.wcet_bounds + d.footprint_derives, 0);
    }

    #[test]
    fn walk_counters_are_kept_apart_from_the_proof_counters() {
        let (before, walks) = (snapshot(), walk_snapshot());
        tally(Work::ScheduleWalk);
        tally(Work::ProgramAnalysis);
        tally(Work::ProgramAnalysis);
        assert_eq!(snapshot(), before, "walks are not proofs");
        assert_eq!(
            walk_snapshot().since(&walks),
            WalkCounts {
                schedule_walks: 1,
                program_analyses: 2,
            }
        );
    }
}
