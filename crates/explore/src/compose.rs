//! Certified schedule composition: pack K verified schedules onto one
//! fabric with pairwise-disjoint footprints.
//!
//! [`compose_certified`] places already-certified tenants side by side
//! (column bands) and *translates* each one's proofs onto the composed
//! mesh through its [`Placement`] (`CertifiedSchedule::place`): the
//! epochs, the [`FootprintCertificate`] and the Eq. 1 WCET bound move
//! with the tiles, because translation moves tiles, not work — which is
//! the paper's multi-tenant promise: co-residency costs a tenant
//! nothing that its own schedule didn't already cost. Only the hoist
//! plan is built here, once per tenant on the composed coordinates, and
//! its shadow-plane claims join the tenant's certificate. The pack-level
//! proofs stay: the certificates must be pairwise disjoint and the
//! merged schedule's own footprint must be contained in the tenants'
//! union.
//!
//! [`compose_schedules`] is the same path for raw `(name, mesh,
//! epochs)` handles: it certifies each through
//! `CertifiedSchedule::certify` first.
//!
//! The output feeds `cgra_sim::EpochRunner::run_composed_schedule`.
//! Each tenant carries the proof it was placed with, which the runner
//! trusts instead of re-deriving as long as the tenant is unchanged; a
//! tenant edited after composition is re-verified in full.

use std::sync::Arc;

use cgra_fabric::{CostModel, Mesh, TileId};
use cgra_lint::LintLevels;
use cgra_sim::epoch::{epoch_spec, Epoch};
use cgra_sim::{CertifiedSchedule, ComposedTenant};
use cgra_verify::{
    analyze_footprint, check_contained, check_disjoint, footprint_summary, Code, Diagnostic,
    EpochSpec, FootprintCertificate, ScheduleBound,
};

/// Where one tenant landed on the composed mesh.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    /// The tenant's own mesh (its private coordinate system).
    pub mesh: Mesh,
    /// First column of the tenant's band on the composed mesh.
    pub col0: usize,
}

impl Placement {
    /// Maps a tile from the tenant's coordinates onto the composed
    /// mesh. `None` if `t` is not a tile of the tenant's mesh.
    pub fn tile(&self, composed: Mesh, t: TileId) -> Option<TileId> {
        let (r, c) = self.mesh.coords(t).ok()?;
        composed.id(r, self.col0 + c).ok()
    }
}

/// A verified, certified co-resident packing of K schedules.
#[derive(Debug, Clone)]
pub struct Composition {
    /// The composed fabric.
    pub mesh: Mesh,
    /// Per-tenant placements, in input order.
    pub placements: Vec<Placement>,
    /// The tenants, remapped and certified, ready for
    /// `EpochRunner::run_composed_schedule`.
    pub tenants: Vec<ComposedTenant>,
    /// The merged schedule (epochs zipped by index; finished tenants
    /// keep their final links frozen) — the static view a verifier or
    /// driver can inspect as one schedule.
    pub merged: Vec<Epoch>,
    /// Per-tenant Eq. 1 WCET bounds on the composed mesh; equal to the
    /// tenant's isolated bounds.
    pub bounds: Vec<ScheduleBound>,
    /// Informational findings (per-tenant `V130` footprint summaries,
    /// hoist-planner notes).
    pub diags: Vec<Diagnostic>,
}

/// Refuses an empty tenant list and duplicate tenant names.
fn check_names<'a>(names: impl Iterator<Item = &'a str>) -> Result<(), Vec<Diagnostic>> {
    let names: Vec<&str> = names.collect();
    if names.is_empty() {
        return Err(vec![Diagnostic::error(
            Code::FootprintRefused,
            "cannot compose an empty tenant list".to_string(),
        )]);
    }
    // Tenant names are the composition's identity space: results,
    // certificates and placements are all keyed by name. A duplicate
    // would silently compose a schedule with itself and alias two
    // tenants' results, so it is refused outright.
    for (i, name) in names.iter().enumerate() {
        if names[..i].contains(name) {
            return Err(vec![Diagnostic::error(
                Code::FootprintRefused,
                format!("duplicate tenant name '{name}' in composition"),
            )]);
        }
    }
    Ok(())
}

/// Prefixes an error finding with the tenant it concerns.
fn tenant_error(name: &str, d: &Diagnostic) -> Diagnostic {
    let mut d = d.clone();
    d.message = format!("tenant '{name}': {}", d.message);
    d
}

/// Packs K verified schedules onto one composed fabric.
///
/// Each tenant `(name, mesh, epochs)` is first certified in isolation
/// (`CertifiedSchedule::certify` under `cost` and the default lint
/// levels) and then composed by [`compose_certified`]. The packing is
/// rejected (`Err` with the findings) if any tenant fails verification,
/// or for any of [`compose_certified`]'s reasons.
pub fn compose_schedules(
    tenants: &[(String, Mesh, Vec<Epoch>)],
    cost: &CostModel,
    hoist: bool,
) -> Result<Composition, Vec<Diagnostic>> {
    check_names(tenants.iter().map(|(name, _, _)| name.as_str()))?;
    // Every tenant must verify on its own mesh before placement.
    let mut errs: Vec<Diagnostic> = Vec::new();
    let mut certified = Vec::with_capacity(tenants.len());
    for (name, mesh, epochs) in tenants {
        match CertifiedSchedule::certify(*mesh, epochs.clone(), cost, &LintLevels::default()) {
            Ok(c) => certified.push((name.clone(), Arc::new(c))),
            Err(verdicts) => {
                errs.extend(cgra_verify::errors(&verdicts).map(|d| tenant_error(name, d)))
            }
        }
    }
    if !errs.is_empty() {
        return Err(errs);
    }
    compose_certified(&certified, hoist)
}

/// Packs K certified schedules onto one composed fabric.
///
/// The tenants are placed into column bands (composed mesh: `max` rows
/// by `sum` of columns) and each one's epochs, footprint certificate and
/// Eq. 1 WCET bound are translated onto the composed coordinates. With
/// `hoist`, each tenant's hoist plan is built there (under the cost
/// model it was certified with) and its shadow-plane slots join its
/// certificate. The packing is rejected (`Err` with the findings) if
/// the list is empty or names a tenant twice, any WCET bound breaks its
/// epoch budget, any two certificates collide
/// ([`Code::OverlapConflict`]), or the merged schedule's own footprint
/// escapes the tenants' union ([`Code::FootprintExceeded`]).
pub fn compose_certified(
    tenants: &[(String, Arc<CertifiedSchedule>)],
    hoist: bool,
) -> Result<Composition, Vec<Diagnostic>> {
    check_names(tenants.iter().map(|(name, _)| name.as_str()))?;
    let rows = tenants
        .iter()
        .map(|(_, c)| c.mesh().rows())
        .max()
        .unwrap_or(1);
    let cols: usize = tenants.iter().map(|(_, c)| c.mesh().cols()).sum();
    let composed = Mesh::new(rows, cols.max(1));
    let mut col0 = 0;
    let placements: Vec<Placement> = tenants
        .iter()
        .map(|(_, c)| {
            let p = Placement {
                mesh: c.mesh(),
                col0,
            };
            col0 += c.mesh().cols();
            p
        })
        .collect();

    let mut errs: Vec<Diagnostic> = Vec::new();
    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut out_tenants: Vec<ComposedTenant> = Vec::new();
    let mut bounds: Vec<ScheduleBound> = Vec::new();
    for ((name, c), p) in tenants.iter().zip(&placements) {
        let Some((tenant, bound)) = c.place(name, composed, p.col0, hoist) else {
            return Err(vec![Diagnostic::error(
                Code::FootprintRefused,
                format!("tenant '{name}' does not fit its placement on the composed mesh"),
            )]);
        };
        if let Some(plan) = &tenant.hoist {
            diags.extend(plan.diags.iter().cloned());
        }
        diags.push(footprint_summary(&tenant.cert));
        errs.extend(cgra_verify::errors(&bound.diags).map(|d| tenant_error(name, d)));
        bounds.push(bound);
        out_tenants.push(tenant);
    }
    if !errs.is_empty() {
        return Err(errs);
    }

    // Pairwise disjointness over the certified footprints.
    let parts: Vec<(&str, &FootprintCertificate)> = out_tenants
        .iter()
        .map(|t| (t.name.as_str(), &t.cert))
        .collect();
    let disjoint = check_disjoint(&parts, None);
    if cgra_verify::has_errors(&disjoint) {
        return Err(disjoint);
    }
    diags.extend(disjoint);

    // The merged static schedule: epochs zipped by index, finished
    // tenants' links frozen at their final configuration.
    let merged_len = out_tenants
        .iter()
        .map(|t| t.epochs.len())
        .max()
        .unwrap_or(0);
    let mut merged: Vec<Epoch> = Vec::with_capacity(merged_len);
    for j in 0..merged_len {
        let mut links = composed.disconnected();
        let mut setups = Vec::new();
        let mut names = Vec::new();
        let mut budget = 0u64;
        for t in &out_tenants {
            let frozen = t.epochs.len().saturating_sub(1);
            let src = &t.epochs[j.min(frozen)];
            for (tile, dir) in src.links.iter_active() {
                links.set(tile, Some(dir));
            }
            if let Some(e) = t.epochs.get(j) {
                setups.extend(e.setups.iter().cloned());
                names.push(format!("{}:{}", t.name, e.name));
                budget = budget.max(e.budget);
            }
        }
        merged.push(Epoch {
            name: names.join(" + "),
            links,
            setups,
            budget,
        });
    }

    // The merged schedule's own footprint must not escape the union of
    // the tenants' certificates.
    let merged_specs: Vec<EpochSpec> = merged.iter().map(epoch_spec).collect();
    let merged_cert = analyze_footprint(composed, &merged_specs).cert;
    let contained = check_contained(&merged_cert, &parts);
    if cgra_verify::has_errors(&contained) {
        return Err(contained);
    }
    diags.extend(contained);

    Ok(Composition {
        mesh: composed,
        placements,
        tenants: out_tenants,
        merged,
        bounds,
        diags,
    })
}

/// [`compose_schedules`] over named example schedules
/// ([`crate::schedule::EXAMPLE_SCHEDULES`]). Unknown names are
/// refused.
pub fn compose_examples(
    names: &[&str],
    cost: &CostModel,
    hoist: bool,
) -> Result<Composition, Vec<Diagnostic>> {
    let mut tenants = Vec::with_capacity(names.len());
    for name in names {
        let Some((mesh, epochs)) = crate::schedule::build_example_schedule(name) else {
            return Err(vec![Diagnostic::error(
                Code::FootprintRefused,
                format!(
                    "unknown example schedule '{name}' (known: {})",
                    crate::schedule::EXAMPLE_SCHEDULES.join(", ")
                ),
            )]);
        };
        tenants.push((name.to_string(), mesh, epochs));
    }
    compose_schedules(&tenants, cost, hoist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_fabric::mem::DATA_WORDS;
    use cgra_sim::{ArraySim, EpochRunner};

    fn snapshot(sim: &ArraySim, tile: TileId) -> Vec<i64> {
        (0..DATA_WORDS)
            .map(|a| sim.tiles[tile].dmem.peek(a).map(|w| w.value()).unwrap_or(0))
            .collect()
    }

    #[test]
    fn composed_examples_are_per_tenant_bit_exact_and_within_bounds() {
        let cost = CostModel::with_link_cost(150.0);
        let names = ["fft-16", "jpeg"];
        let comp = compose_examples(&names, &cost, false).expect("disjoint examples compose");
        let band_cols: usize = comp.placements.iter().map(|p| p.mesh.cols()).sum();
        assert_eq!(comp.mesh.cols(), band_cols);
        // Isolated baselines on each tenant's own mesh.
        let mut baselines: Vec<Vec<(TileId, Vec<i64>)>> = Vec::new();
        for name in names {
            let (mesh, epochs) = crate::schedule::build_example_schedule(name).unwrap();
            let mut runner = EpochRunner::new(ArraySim::new(mesh), cost);
            runner.run_schedule(&epochs).unwrap();
            baselines.push(
                (0..mesh.tiles())
                    .map(|t| (t, snapshot(&runner.sim, t)))
                    .collect(),
            );
        }
        // Composed run.
        let mut runner = EpochRunner::new(ArraySim::new(comp.mesh), cost);
        let rep = runner.run_composed_schedule(&comp.tenants).unwrap();
        // Per-tenant dmem is bit-exact under the placement map.
        for (k, p) in comp.placements.iter().enumerate() {
            for (t, want) in &baselines[k] {
                let mapped = p.tile(comp.mesh, *t).unwrap();
                assert_eq!(
                    &snapshot(&runner.sim, mapped),
                    want,
                    "tenant {k} tile {t} (mapped {mapped}) differs from isolated run"
                );
            }
        }
        // Observed per-tenant spans sit inside the certified Eq. 1
        // envelopes (stall + worst-case compute, per epoch).
        for (k, out) in rep.tenants.iter().enumerate() {
            let bound = &comp.bounds[k];
            let worst: u64 = bound
                .epochs
                .iter()
                .map(|e| e.stall_cycles + e.compute.worst.expect("examples are bounded"))
                .sum();
            assert!(
                out.observed_cycles <= worst,
                "tenant '{}' observed {} cycles, bound {worst}",
                out.name,
                out.observed_cycles
            );
        }
    }

    #[test]
    fn borrowed_certificate_is_refused_by_the_runner() {
        let cost = CostModel::with_link_cost(150.0);
        let comp = compose_examples(&["fft-16", "jpeg"], &cost, false).unwrap();
        let mut tenants = comp.tenants.clone();
        // Tenant 1 presents tenant 0's certificate: footprint
        // re-verification must refuse it (V133), not run it.
        tenants[1].cert = tenants[0].cert.clone();
        let mut sim = ArraySim::new(comp.mesh);
        sim.verify = cgra_sim::VerifyMode::Strict;
        let mut runner = EpochRunner::new(sim, cost);
        let err = runner.run_composed_schedule(&tenants).unwrap_err();
        match err {
            cgra_sim::SimError::Verify(diags) => assert!(
                diags.iter().any(|d| d.code == Code::FootprintRefused),
                "want V133, got {diags:?}"
            ),
            other => panic!("want Verify error, got {other:?}"),
        }
    }

    #[test]
    fn unknown_example_is_refused() {
        let err = compose_examples(&["fft-16", "nope"], &CostModel::default(), false).unwrap_err();
        assert!(err.iter().any(|d| d.code == Code::FootprintRefused));
    }

    #[test]
    fn hoisted_composition_certifies_shadow_slots() {
        let cost = CostModel::with_link_cost(150.0);
        let comp = compose_examples(&["fft-64", "jpeg-stream"], &cost, true).unwrap();
        // At least one tenant hoists, and its certificate carries the
        // shadow-plane claims.
        let hoisted: Vec<_> = comp
            .tenants
            .iter()
            .filter(|t| t.hoist.as_ref().is_some_and(|p| !p.hoists.is_empty()))
            .collect();
        assert!(!hoisted.is_empty(), "expected hoists in fft-64/jpeg-stream");
        for t in &hoisted {
            assert!(
                !t.cert.shadow.is_empty(),
                "tenant '{}' hoists uncertified",
                t.name
            );
        }
        // And the whole pack still runs, strictly gated.
        let mut runner = EpochRunner::new(ArraySim::new(comp.mesh), cost);
        runner.run_composed_schedule(&comp.tenants).unwrap();
    }
}
