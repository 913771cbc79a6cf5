//! Certify once: a schedule's static proofs as a value that travels.
//!
//! [`CertifiedSchedule::certify`] is the one place a schedule's static
//! proofs are built — the schedule verifier's verdicts, the inter-epoch
//! lint report, the footprint certificate, the Eq. 1 WCET bound and the
//! activity certificate — as passes on one schedule walk
//! ([`cgra_verify::walk_schedule`]), in that order, with the footprint
//! and WCET passes sharing one program-bound memo and the activity pass
//! built on the WCET pass's pricing of each epoch. Its fields are
//! private, so a `CertifiedSchedule` holds exactly what that
//! constructor derived from the epochs it owns.
//!
//! The event-driven core ([`EpochRunner::run_schedule_certified`])
//! runs a certified schedule under its activity certificate without
//! re-deriving any of it, on a runner in the state it was certified
//! for: the same mesh and cost model, nothing run yet, every tile
//! quiesced.
//!
//! Admission (`cgra-serve`) certifies each cold submission once.
//! Composition (`cgra-explore`) then *places* the certified schedule
//! into a column band of the composed fabric
//! ([`CertifiedSchedule::place`]): the epochs, the footprint
//! certificate and the bound are translated through the placement —
//! translation moves tiles, not work — and only the hoist plan, which
//! depends on the composed coordinates, is built there. The placed
//! [`ComposedTenant`] carries a [`TenantProof`], which
//! [`EpochRunner::run_composed_schedule`] trusts instead of re-proving
//! when it covers exactly the epochs, certificate and plan the tenant
//! holds (compared by value, never by hash). Anything else — a
//! hand-built tenant, or one edited after placement — is re-derived at
//! the runner's full gate, as are schedules that arrive over the wire,
//! from disk, or as raw `(mesh, epochs)` handles: those are certified
//! afresh, never trusted.
//!
//! [`EpochRunner::run_composed_schedule`]: crate::EpochRunner::run_composed_schedule
//! [`EpochRunner::run_schedule_certified`]: crate::EpochRunner::run_schedule_certified

use std::sync::Arc;

use cgra_fabric::{CostModel, LinkConfig, Mesh, TileId};
use cgra_lint::{
    default_level, HoistOptions, HoistPlan, LintLevel, LintLevels, LintPass, LintReport,
};
use cgra_verify::{
    walk_schedule, ActivityCertificate, ActivityPass, BoundCache, Diagnostic, EpochAnalysis,
    EpochPass, EpochSpec, FootprintAnalysis, FootprintCertificate, FootprintPass, ScheduleBound,
    ScheduleChecker, Verdicts,
};

use crate::compose::ComposedTenant;
use crate::engine::VerifyMode;
use crate::epoch::{add_deadline_risks, epoch_spec, Epoch, EpochRunner};

/// A schedule together with the static proofs certified for it on its
/// own mesh. Only [`CertifiedSchedule::certify`] makes one.
#[derive(Debug)]
pub struct CertifiedSchedule {
    mesh: Mesh,
    cost: CostModel,
    epochs: Vec<Epoch>,
    verdicts: Vec<Diagnostic>,
    checker: ScheduleChecker,
    lint: LintReport,
    /// The lint report clears the runner's cold lint gate: nothing was
    /// denied at levels that deny at least what the default levels deny.
    clears_default_lint: bool,
    footprint: FootprintAnalysis,
    bound: ScheduleBound,
    activity: ActivityCertificate,
}

impl CertifiedSchedule {
    /// Certifies `epochs` for a cold array on `mesh`: one schedule walk
    /// runs the schedule verifier, the lint pass at `levels`, the
    /// footprint derivation, the WCET bound (priced under `cost`, with
    /// [`crate::bound_epochs`]'s deadline findings) and the activity
    /// analysis on that bound's pricing, and every verdict is kept.
    ///
    /// A schedule the verifier rejects is refused with the verifier's
    /// findings (warnings included): nothing past the verifier is
    /// meaningful on a malformed schedule, so the other passes stop at
    /// the first epoch with a verifier error and what they built is
    /// dropped. Every later verdict is kept as found — a lint denial or
    /// a bound error does not refuse, so each caller applies its own
    /// policy to it.
    pub fn certify(
        mesh: Mesh,
        epochs: Vec<Epoch>,
        cost: &CostModel,
        levels: &LintLevels,
    ) -> Result<CertifiedSchedule, Vec<Diagnostic>> {
        let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
        let mut verdicts = Verdicts::new();
        let mut lint = UntilRejected::new(LintPass::new(mesh, levels, cost));
        let mut footprint = UntilRejected::new(FootprintPass::new(mesh));
        let mut activity = UntilRejected::new(ActivityPass::new(mesh, cost));
        let checker = walk_schedule(
            mesh,
            &specs,
            &mut BoundCache::new(),
            &mut [&mut verdicts, &mut lint, &mut footprint, &mut activity],
        );
        drop(specs);
        let verdicts = verdicts.finish();
        if cgra_verify::has_errors(&verdicts) {
            return Err(verdicts);
        }
        let lint = lint.pass.finish();
        let clears_default_lint = !lint.denied()
            && cgra_lint::LINT_CODES
                .iter()
                .all(|&c| default_level(c) != LintLevel::Deny || levels.get(c) == LintLevel::Deny);
        let footprint = FootprintAnalysis::from(footprint.pass.finish(&[]));
        let (mut bound, activity) = activity.pass.finish();
        add_deadline_risks(&mut bound, &epochs);
        Ok(CertifiedSchedule {
            mesh,
            cost: *cost,
            epochs,
            verdicts,
            checker,
            lint,
            clears_default_lint,
            footprint,
            bound,
            activity,
        })
    }

    /// The mesh the schedule was certified on.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The schedule verifier's findings (warnings only: a schedule with
    /// verifier errors is never certified).
    pub fn verdicts(&self) -> &[Diagnostic] {
        &self.verdicts
    }

    /// The lint report, at the levels the schedule was certified under.
    pub fn lint(&self) -> &LintReport {
        &self.lint
    }

    /// The footprint certificate and its V130 summary.
    pub fn footprint(&self) -> &FootprintAnalysis {
        &self.footprint
    }

    /// The Eq. 1 WCET bound, with its deadline findings.
    pub fn bound(&self) -> &ScheduleBound {
        &self.bound
    }

    /// The activity certificate the event-driven core runs under.
    pub fn activity(&self) -> &ActivityCertificate {
        &self.activity
    }

    /// The certified epochs.
    pub(crate) fn epochs(&self) -> &[Epoch] {
        &self.epochs
    }

    /// The schedule checker's state after the certified epochs.
    pub(crate) fn checker(&self) -> &ScheduleChecker {
        &self.checker
    }

    /// Why `runner` may not run this schedule under its proofs, or
    /// `None` when it may: it must be in the state the schedule was
    /// certified for — the same mesh and cost model, no epoch run yet,
    /// a lint verdict that clears its default gate (unless it verifies
    /// nothing) and every tile quiesced.
    pub(crate) fn refusal(&self, runner: &EpochRunner) -> Option<String> {
        let fallback = "falling back to the serial engine";
        let mesh = runner.sim.mesh;
        if mesh != self.mesh {
            Some(format!(
                "schedule certified for a {}x{} mesh, the array is {}x{}; the activity \
                 certificate does not cover it — {fallback}",
                self.mesh.rows(),
                self.mesh.cols(),
                mesh.rows(),
                mesh.cols()
            ))
        } else if runner.cost != self.cost {
            Some(format!(
                "schedule certified under a different cost model; the activity certificate \
                 does not price this runner's switches — {fallback}"
            ))
        } else if runner.epochs_run != 0 || runner.checker.epochs_seen() != 0 {
            Some(format!(
                "runner has already executed epochs; the activity certificate covers a cold \
                 array — {fallback}"
            ))
        } else if runner.sim.verify != VerifyMode::Off && !self.clears_default_lint {
            Some(format!(
                "schedule certified at lint levels whose verdict does not clear the runner's \
                 default lint gate — {fallback}"
            ))
        } else if !runner.sim.quiesced() {
            Some(format!(
                "array not quiesced at schedule entry; the activity certificate does not \
                 cover pre-armed tiles — {fallback}"
            ))
        } else {
            None
        }
    }

    /// Places the schedule in the column band of `composed` that starts
    /// at column `col0` and returns the tenant `name` ready for
    /// [`crate::EpochRunner::run_composed_schedule`], with the bound on
    /// the composed coordinates.
    ///
    /// The epochs, the footprint certificate and the bound are
    /// translated, not re-derived; the bound's findings move their
    /// `tile` fields, while their message text keeps naming tiles in the
    /// schedule's own numbering. With `hoist`, the hoist
    /// plan is built once on the composed coordinates (default lint
    /// levels and planner options, this schedule's cost model) and its
    /// shadow-plane claims are folded into the certificate. The tenant
    /// carries a [`TenantProof`] of all of it. `None` when the band does
    /// not fit the composed mesh.
    pub fn place(
        self: &Arc<Self>,
        name: &str,
        composed: Mesh,
        col0: usize,
        hoist: bool,
    ) -> Option<(ComposedTenant, ScheduleBound)> {
        if self.mesh.rows() > composed.rows() || col0 + self.mesh.cols() > composed.cols() {
            return None;
        }
        let map = band(self.mesh, composed, col0);
        let epochs = self
            .epochs
            .iter()
            .map(|e| place_epoch(e, composed, &map))
            .collect::<Option<Vec<Epoch>>>()?;
        let plan = hoist.then(|| {
            let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
            cgra_lint::plan_hoists(
                composed,
                &specs,
                &LintLevels::default(),
                &self.cost,
                &HoistOptions::default(),
            )
        });
        let shadow = plan.as_ref().map(|p| p.shadow_claims()).unwrap_or_default();
        let cert = self.footprint.cert.translated(composed, &map, &shadow)?;
        let mut bound = self.bound.clone();
        for d in &mut bound.diags {
            d.tile = d.tile.and_then(&map);
        }
        let proof = TenantProof {
            certified: Arc::clone(self),
            mesh: composed,
            col0,
            cert: cert.clone(),
            hoist: plan.clone(),
        };
        let tenant = ComposedTenant {
            name: name.to_string(),
            epochs,
            cert,
            hoist: plan,
            proof: Some(proof),
        };
        Some((tenant, bound))
    }
}

/// A pass fed epochs only until the verifier finds an error: past that
/// the schedule is refused, so its result is never read.
struct UntilRejected<P> {
    pass: P,
    rejected: bool,
}

impl<P> UntilRejected<P> {
    fn new(pass: P) -> UntilRejected<P> {
        UntilRejected {
            pass,
            rejected: false,
        }
    }
}

impl<P: EpochPass> EpochPass for UntilRejected<P> {
    fn before_epoch(&mut self, ei: usize, e: &EpochSpec, pre: &ScheduleChecker) {
        if !self.rejected {
            self.pass.before_epoch(ei, e, pre);
        }
    }

    fn epoch(
        &mut self,
        ei: usize,
        e: &EpochSpec,
        analysis: &EpochAnalysis,
        bounds: &mut BoundCache,
    ) {
        self.rejected |= cgra_verify::has_errors(&analysis.diags);
        if !self.rejected {
            self.pass.epoch(ei, e, analysis, bounds);
        }
    }
}

/// The tile map of a column band: tile `t` of `own` lands at the same
/// row, `col0` columns to the right, on `composed`.
fn band(own: Mesh, composed: Mesh, col0: usize) -> impl Fn(TileId) -> Option<TileId> {
    move |t| {
        let (r, c) = own.coords(t).ok()?;
        composed.id(r, col0 + c).ok()
    }
}

/// One epoch moved onto `composed` through `map`: setups move to the
/// band's tiles, links keep their directions (the band is a contiguous
/// rectangle, so every verified in-mesh link stays in-band).
fn place_epoch(e: &Epoch, composed: Mesh, map: impl Fn(TileId) -> Option<TileId>) -> Option<Epoch> {
    let setups = e
        .setups
        .iter()
        .map(|(t, s)| Some((map(*t)?, s.clone())))
        .collect::<Option<Vec<_>>>()?;
    Some(Epoch {
        name: e.name.clone(),
        links: place_links(&e.links, composed, map)?,
        setups,
        budget: e.budget,
    })
}

/// A link configuration moved onto `composed` through `map`.
fn place_links(
    links: &LinkConfig,
    composed: Mesh,
    map: impl Fn(TileId) -> Option<TileId>,
) -> Option<LinkConfig> {
    let mut placed = composed.disconnected();
    for (t, dir) in links.iter_active() {
        placed.set(map(t)?, Some(dir));
    }
    Some(placed)
}

/// The proof a placed tenant carries: its certified schedule, where it
/// was placed, and the certificate and hoist plan built for it there.
/// Only [`CertifiedSchedule::place`] makes one.
#[derive(Debug, Clone)]
pub struct TenantProof {
    certified: Arc<CertifiedSchedule>,
    mesh: Mesh,
    col0: usize,
    cert: FootprintCertificate,
    hoist: Option<HoistPlan>,
}

impl TenantProof {
    /// True when this proof vouches for `t` on a runner over `mesh`
    /// pricing with `cost`: same fabric and cost model as the proof,
    /// a lint verdict that clears the runner's gate, and exactly the
    /// epochs (the certified ones, translated), certificate and hoist
    /// plan the proof was placed with — compared by value.
    pub(crate) fn covers(&self, t: &ComposedTenant, mesh: Mesh, cost: &CostModel) -> bool {
        let c = &*self.certified;
        let map = band(c.mesh, self.mesh, self.col0);
        self.mesh == mesh
            && c.cost == *cost
            && c.clears_default_lint
            && t.cert == self.cert
            && t.hoist == self.hoist
            && t.epochs.len() == c.epochs.len()
            && t.epochs.iter().zip(&c.epochs).all(|(e, own)| {
                e.name == own.name
                    && e.budget == own.budget
                    && e.setups.len() == own.setups.len()
                    && e.setups
                        .iter()
                        .zip(&own.setups)
                        .all(|((tile, s), (own_tile, own_s))| {
                            map(*own_tile) == Some(*tile) && s == own_s
                        })
                    && place_links(&own.links, mesh, &map).is_some_and(|l| l == e.links)
            })
    }

    /// Carries the certified checker state onto `checker` through the
    /// placement: what feeding it the placed epochs would have left.
    pub(crate) fn graft_onto(&self, checker: &mut ScheduleChecker) {
        let c = &*self.certified;
        checker.graft(&c.checker, band(c.mesh, self.mesh, self.col0));
    }
}
