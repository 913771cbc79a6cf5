//! Certified co-resident execution of disjoint-footprint schedules.
//!
//! [`EpochRunner::run_composed_schedule`] runs K verified tenant
//! schedules side by side on one fabric. Soundness rests entirely on
//! the footprint certificates (`cgra_verify::footprint`) and on the
//! tenants' schedules having been verified and linted on a cold array.
//! A tenant placed by `CertifiedSchedule::place` carries a
//! [`TenantProof`] of all of that, built once at certification; the
//! runner trusts it, without re-deriving anything, when it covers
//! exactly the epochs, certificate and hoist plan the tenant holds
//! (compared by value) on this fabric, cost model and a fresh runner.
//! Every other tenant — hand-built, or edited after placement — passes
//! the full gate before anything is applied: its [`FootprintCertificate`]
//! is strictly re-derived from its epochs (a refused certificate aborts
//! with `V133`), its hoist plan is re-proved, it passes the cold lint
//! gate, and each of its epochs is checked before it runs. Whatever the
//! tenants carry, the certificates are checked pairwise disjoint
//! (`V132`) and every merged epoch is enforced against them at run
//! time. Disjointness is what makes the merged run *per-tenant
//! bit-exact*: no tile, link, dmem word or shadow slot is shared, so
//! each region executes cycle-for-cycle as it would alone.
//!
//! Reconfiguration is **region-gated**: each tenant owns a
//! configuration port, so at a merged switch point every region streams
//! its own payloads in parallel and stalls only its own tiles for its
//! own switch time. That is why the pack finishes in roughly
//! `max`-of-tenants rather than `sum`: the Eq. 1 reconfiguration terms
//! of the tenants overlap each other as well as the surviving
//! computation.

use crate::active::ProgramCache;
use crate::certify::TenantProof;
use crate::engine::{SimError, VerifyMode};
use crate::epoch::{epoch_spec, gate, payloads, Epoch, EpochRunner, Hoisting, RunReport, Switch};
use cgra_fabric::TileId;
use cgra_verify::{
    check_disjoint, verify_footprint, Code, Diagnostic, EpochSpec, FootprintCertificate,
};

/// One tenant of a composed run: a verified schedule already remapped
/// onto the composed mesh, its footprint certificate on those
/// coordinates, (optionally) a hoisting plan proved on the same
/// coordinates, and (optionally) the proof that vouches for all three.
#[derive(Debug, Clone)]
pub struct ComposedTenant {
    /// Tenant name (used in merged epoch names and diagnostics).
    pub name: String,
    /// The tenant's schedule, in composed-mesh coordinates.
    pub epochs: Vec<Epoch>,
    /// The tenant's fabric footprint, in composed-mesh coordinates.
    /// Re-verified against `epochs` before anything runs, unless
    /// `proof` covers it.
    pub cert: FootprintCertificate,
    /// Optional reconfiguration-hoisting plan (shadow-plane prefetch),
    /// proved on the same coordinates. Its shadow slots are part of the
    /// certified footprint.
    pub hoist: Option<cgra_lint::HoistPlan>,
    /// The certification this tenant was placed from
    /// (`CertifiedSchedule::place`); `None` for a hand-built tenant.
    /// Only trusted while it covers `epochs`, `cert` and `hoist`
    /// exactly — a tenant edited after placement is fully re-gated.
    pub proof: Option<TenantProof>,
}

impl ComposedTenant {
    /// The tiles this tenant's certificate claims, ascending.
    pub fn tiles(&self) -> Vec<TileId> {
        self.cert.tiles.iter().map(|t| t.tile).collect()
    }
}

/// Per-tenant outcome of a composed run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// Tenant name.
    pub name: String,
    /// The tenant's own Eq. 1 accounting: per epoch, its region's
    /// foreground switch time and the longest-running claimed tile's
    /// compute time. Comparable directly against the tenant's isolated
    /// [`RunReport`] and its `bound_epochs` WCET envelope.
    pub report: RunReport,
    /// Observed region cycles: per epoch, the region's stall plus its
    /// longest tile-busy delta, summed over the tenant's epochs.
    pub observed_cycles: u64,
    /// Busy tile-cycles summed over the tenant's claimed tiles, all
    /// merged epochs.
    pub busy_tile_cycles: u64,
    /// The tenant's utilization of its own region for the duration of
    /// the pack: `busy_tile_cycles / (claimed tiles x wall_cycles)`.
    /// 0 when nothing ran.
    pub utilization: f64,
}

/// What a composed run returns.
#[derive(Debug, Clone, PartialEq)]
pub struct ComposedReport {
    /// Merged epochs executed (the longest tenant's epoch count).
    pub merged_epochs: usize,
    /// Wall-clock cycles for the whole pack.
    pub wall_cycles: u64,
    /// Wall-clock time for the whole pack, ns.
    pub wall_ns: f64,
    /// Per-tenant accounting, in input order.
    pub tenants: Vec<TenantOutcome>,
}

impl EpochRunner {
    /// Runs K tenant schedules co-resident on one fabric, gated by
    /// their footprint certificates.
    ///
    /// Under any verify mode other than [`VerifyMode::Off`], before
    /// anything is applied, every tenant that is not covered by its
    /// [`TenantProof`] (on this mesh and cost model, with no epoch run
    /// on this runner yet) passes the full gate: its certificate is
    /// re-derived from its epochs ([`Code::FootprintRefused`] aborts),
    /// its hoist plan is re-proved (`cgra_lint::verify_hoists`), it
    /// passes the cold inter-epoch lint gate, and each of its epochs is
    /// checked before it runs. A covered tenant's proofs stand; its
    /// certified checker state is carried onto the runner's checker.
    /// All certificates are checked pairwise disjoint
    /// ([`Code::OverlapConflict`] aborts).
    ///
    /// Execution zips the tenants' epochs by index. Each region's
    /// configuration port streams its own payloads, so a region stalls
    /// only for its *own* switch time; the merged interconnect is the
    /// overlay of the regions' link settings (finished tenants keep
    /// their final links frozen). After every merged epoch the runtime
    /// re-checks the certificates' claims against observed tile stats:
    /// activity on an unclaimed tile, or more traffic than a tenant's
    /// certified worst-case link words, aborts with
    /// [`Code::FootprintExceeded`].
    pub fn run_composed_schedule(
        &mut self,
        tenants: &[ComposedTenant],
    ) -> Result<ComposedReport, SimError> {
        let mesh = self.sim.mesh;
        // The proofs that cover their tenants; the rest are re-gated.
        let fresh = self.epochs_run == 0 && self.checker.epochs_seen() == 0;
        let trusted: Vec<Option<&TenantProof>> = tenants
            .iter()
            .map(|t| {
                let gated = self.sim.verify != VerifyMode::Off && fresh;
                let cost = &self.cost;
                t.proof
                    .as_ref()
                    .filter(|p| gated && p.covers(t, mesh, cost))
            })
            .collect();
        // --- certificate gate: nothing is applied past this block ---
        if self.sim.verify != VerifyMode::Off {
            let mut errs: Vec<Diagnostic> = Vec::new();
            for (t, _) in tenants.iter().zip(&trusted).filter(|(_, p)| p.is_none()) {
                let specs: Vec<EpochSpec> = t.epochs.iter().map(epoch_spec).collect();
                if let Some(plan) = &t.hoist {
                    let refused = cgra_lint::verify_hoists(mesh, &specs, plan, &self.cost);
                    errs.extend(self.record(refused));
                }
                let shadow = t
                    .hoist
                    .as_ref()
                    .map(|p| p.shadow_claims())
                    .unwrap_or_default();
                let found = verify_footprint(mesh, &specs, &shadow, &t.cert);
                errs.extend(self.record(found));
                errs.extend(self.cold_lint_gate(&t.epochs));
            }
            let parts: Vec<(&str, &FootprintCertificate)> =
                tenants.iter().map(|t| (t.name.as_str(), &t.cert)).collect();
            let disjoint = check_disjoint(&parts, None);
            errs.extend(self.record(disjoint));
            gate(errs)?;
            for p in trusted.iter().flatten() {
                p.graft_onto(&mut self.checker);
            }
        }

        let n = tenants.len();
        let tile_sets: Vec<Vec<TileId>> = tenants.iter().map(|t| t.tiles()).collect();
        let mut claimed = vec![false; mesh.tiles()];
        for set in &tile_sets {
            for &t in set {
                if t < claimed.len() {
                    claimed[t] = true;
                }
            }
        }
        // Per-tenant link state: each region's port diffs against its
        // own previous configuration, exactly as the tenant would
        // isolated on a cold array.
        let mut prev: Vec<_> = (0..n).map(|_| mesh.disconnected()).collect();
        let mut hoists: Vec<Option<Hoisting>> = tenants
            .iter()
            .map(|t| t.hoist.as_ref().map(|p| Hoisting::new(p, mesh.tiles())))
            .collect();
        let merged_epochs = tenants.iter().map(|t| t.epochs.len()).max().unwrap_or(0);
        let base = self.epochs_run;
        let run_start = self.sim.now;
        let mut progs = ProgramCache::new();
        let mut outcomes: Vec<TenantOutcome> = tenants
            .iter()
            .map(|t| TenantOutcome {
                name: t.name.clone(),
                report: RunReport::default(),
                observed_cycles: 0,
                busy_tile_cycles: 0,
                utilization: 0.0,
            })
            .collect();

        for j in 0..merged_epochs {
            // Strict verification of each untrusted tenant, threading
            // the checker's initialized-memory state (regions are
            // tile-disjoint, so interleaving the tenants is per-tile
            // equivalent to checking each alone).
            let mut errs: Vec<Diagnostic> = Vec::new();
            for (t, _) in tenants.iter().zip(&trusted).filter(|(_, p)| p.is_none()) {
                if let Some(e) = t.epochs.get(j) {
                    errs.extend(self.check(e));
                }
            }
            gate(errs)?;
            let merged_name: String = tenants
                .iter()
                .filter_map(|t| t.epochs.get(j).map(|e| format!("{}:{}", t.name, e.name)))
                .collect::<Vec<_>>()
                .join(" + ");
            let epoch_idx = self.begin(&merged_name);

            // Region-gated switch: every active region streams its own
            // payloads through its own port, in parallel with the
            // other regions' switches and their surviving computation,
            // and stalls only its own tiles for its own switch time.
            let mut budget = 0u64;
            let mut switches: Vec<Option<Switch>> = Vec::with_capacity(n);
            for (i, t) in tenants.iter().enumerate() {
                let Some(e) = t.epochs.get(j) else {
                    switches.push(None);
                    continue;
                };
                budget = budget.max(e.budget);
                let payloads = payloads(e, j, hoists[i].as_mut())?;
                let sw = self.switch(epoch_idx, &prev[i], &e.links, payloads, &mut progs, false)?;
                for &tile in &sw.stalled {
                    self.sim.stall_tile(tile, sw.stall_cycles);
                }
                prev[i] = e.links.clone();
                switches.push(Some(sw));
            }
            // Merged interconnect: overlay each active region's link
            // settings on its claimed tiles; finished tenants keep
            // their final-epoch links frozen.
            let mut merged = self.prev_links.clone();
            for (i, t) in tenants.iter().enumerate() {
                let Some(e) = t.epochs.get(j) else { continue };
                for &tile in &tile_sets[i] {
                    merged.set(tile, e.links.get(tile));
                }
            }
            self.sim.set_links(merged.clone())?;
            self.prev_links = merged;

            let stats_before = self.sim.stats.clone();
            self.sim.run_until_quiesced(budget)?;
            let deltas = self.finish_epoch(epoch_idx, &merged_name, &stats_before);

            // Runtime enforcement of the certificates' claims.
            for (tile, d) in deltas.iter().enumerate() {
                let moved = d.busy_cycles + d.reconfig_cycles + d.words_sent + d.words_received;
                if !claimed[tile] && moved != 0 {
                    let diag = Diagnostic::error(
                        Code::FootprintExceeded,
                        format!(
                            "tile {tile} is outside every tenant footprint but was active in \
                             merged epoch {j} ({} busy cycles, {} words moved)",
                            d.busy_cycles,
                            d.words_sent + d.words_received
                        ),
                    )
                    .on_tile(tile)
                    .in_epoch(j);
                    return Err(SimError::Verify(self.record(vec![diag])));
                }
            }
            for (i, t) in tenants.iter().enumerate() {
                let (Some(e), Some(sw)) = (t.epochs.get(j), &switches[i]) else {
                    continue;
                };
                let busy_max = tile_sets[i]
                    .iter()
                    .map(|&tile| deltas[tile].busy_cycles)
                    .max()
                    .unwrap_or(0);
                let sent: u64 = tile_sets[i]
                    .iter()
                    .map(|&tile| deltas[tile].words_sent)
                    .sum();
                let ceiling: Option<u64> = t
                    .cert
                    .links
                    .iter()
                    .filter(|c| c.epoch == j)
                    .try_fold(0u64, |a, c| c.words.worst.map(|w| a.saturating_add(w)));
                if let Some(w) = ceiling {
                    if sent > w {
                        let diag = Diagnostic::error(
                            Code::FootprintExceeded,
                            format!(
                                "tenant '{}' moved {sent} words in epoch {j} but its \
                                 certificate's worst-case ceiling is {w}",
                                t.name
                            ),
                        )
                        .in_epoch(j);
                        return Err(SimError::Verify(self.record(vec![diag])));
                    }
                }
                outcomes[i].observed_cycles += sw.stall_cycles + busy_max;
                outcomes[i].busy_tile_cycles += tile_sets[i]
                    .iter()
                    .map(|&tile| deltas[tile].busy_cycles)
                    .sum::<u64>();
                let rep = sw.report(&e.name, &self.cost, busy_max, sent);
                outcomes[i].report.epochs.push(rep);
            }
            // Stage hoisted payloads whose last donor window closed in
            // this merged epoch.
            for (t, h) in tenants.iter().zip(hoists.iter_mut()) {
                if let Some(h) = h {
                    self.stage_hoists(&t.epochs, h, j, base)?;
                }
            }
        }
        let wall_cycles = self.sim.now - run_start;
        for (i, o) in outcomes.iter_mut().enumerate() {
            let avail = wall_cycles.saturating_mul(tile_sets[i].len() as u64);
            o.utilization = if avail == 0 {
                0.0
            } else {
                o.busy_tile_cycles as f64 / avail as f64
            };
        }
        Ok(ComposedReport {
            merged_epochs,
            wall_cycles,
            wall_ns: self.cost.exec_ns(wall_cycles),
            tenants: outcomes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ArraySim;
    use crate::epoch::TileSetup;
    use cgra_fabric::{CostModel, Direction, Mesh, Word};
    use cgra_isa::ops::{at_off, d, rem_off};
    use cgra_isa::{Instr, ProgramBuilder};
    use cgra_verify::analyze_footprint;

    fn copy_prog(src: u16, dst: u16, n: i32) -> Vec<Instr> {
        let mut p = ProgramBuilder::new();
        p.ldar(0, src);
        p.ldar(1, dst);
        p.ldi(d(500), n);
        let l = p.here_label();
        p.mov(rem_off(1, 0), at_off(0, 0));
        p.adar(0, 1);
        p.adar(1, 1);
        p.djnz(d(500), l);
        p.halt();
        p.build().unwrap()
    }

    fn idle_prog() -> Vec<Instr> {
        let mut p = ProgramBuilder::new();
        p.halt();
        p.build().unwrap()
    }

    /// One-epoch tenant copying `n` seeded words from `src` into `dst`
    /// (both in composed-mesh coordinates, `src` immediately west of
    /// `dst`).
    fn copy_tenant(mesh: Mesh, name: &str, src: TileId, dst: TileId, n: i32) -> ComposedTenant {
        let epochs = vec![Epoch {
            name: format!("{name}-copy"),
            links: mesh.disconnected().with(src, Direction::East),
            setups: vec![
                (
                    src,
                    TileSetup {
                        program: Some(copy_prog(0, 100, n)),
                        data_patches: vec![],
                    },
                ),
                (
                    dst,
                    TileSetup {
                        program: Some(idle_prog()),
                        data_patches: vec![],
                    },
                ),
            ],
            budget: 100_000,
        }];
        let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
        let cert = analyze_footprint(mesh, &specs).cert;
        ComposedTenant {
            name: name.into(),
            epochs,
            cert,
            hoist: None,
            proof: None,
        }
    }

    fn seed(sim: &mut ArraySim, tile: TileId, base: i64) {
        for i in 0..4 {
            sim.tiles[tile]
                .dmem
                .poke(i, Word::wrap(base + i as i64))
                .unwrap();
        }
    }

    #[test]
    fn composed_run_is_per_tenant_bit_exact() {
        let mesh = Mesh::new(1, 4);
        let cost = CostModel::with_link_cost(100.0);
        let a = copy_tenant(mesh, "alpha", 0, 1, 4);
        let b = copy_tenant(mesh, "beta", 2, 3, 4);

        // Isolated baselines on the same mesh, one tenant at a time.
        let mut isolated: Vec<Vec<i64>> = Vec::new();
        for (t, src, base) in [(&a, 0usize, 7i64), (&b, 2usize, 40i64)] {
            let mut sim = ArraySim::new(mesh);
            seed(&mut sim, src, base);
            let mut runner = EpochRunner::new(sim, cost);
            runner.run_schedule(&t.epochs).unwrap();
            let dst = src + 1;
            isolated.push(
                (0..4)
                    .map(|i| runner.sim.tiles[dst].dmem.peek(100 + i).unwrap().value())
                    .collect(),
            );
        }

        let mut sim = ArraySim::new(mesh);
        seed(&mut sim, 0, 7);
        seed(&mut sim, 2, 40);
        let mut runner = EpochRunner::new(sim, cost);
        let rep = runner
            .run_composed_schedule(&[a, b])
            .expect("disjoint tenants must compose");
        assert_eq!(rep.merged_epochs, 1);
        assert_eq!(rep.tenants.len(), 2);
        // Per-tenant results are bit-exact with the isolated runs.
        for (k, dst) in [(0usize, 1usize), (1, 3)] {
            let got: Vec<i64> = (0..4)
                .map(|i| runner.sim.tiles[dst].dmem.peek(100 + i).unwrap().value())
                .collect();
            assert_eq!(
                got, isolated[k],
                "tenant {k} dmem differs from isolated run"
            );
        }
        // The pack's wall clock is the max of the regions, not the sum.
        let spans: Vec<u64> = rep.tenants.iter().map(|t| t.observed_cycles).collect();
        let max = *spans.iter().max().unwrap();
        let sum: u64 = spans.iter().sum();
        assert!(rep.wall_cycles >= max);
        assert!(
            rep.wall_cycles < sum,
            "wall {} vs sum {sum}",
            rep.wall_cycles
        );
        // Each tenant moved its 4 words, attributed separately.
        for t in &rep.tenants {
            assert_eq!(t.report.epochs[0].words_copied, 4);
        }
    }

    #[test]
    fn fabricated_certificate_is_refused_before_anything_runs() {
        let mesh = Mesh::new(1, 4);
        let a = copy_tenant(mesh, "alpha", 0, 1, 4);
        let mut b = copy_tenant(mesh, "beta", 2, 3, 4);
        // Forge the certificate: claim one tile fewer than the schedule uses.
        b.cert.tiles.pop();
        let mut sim = ArraySim::new(mesh);
        sim.verify = VerifyMode::Strict;
        seed(&mut sim, 0, 7);
        seed(&mut sim, 2, 40);
        let mut runner = EpochRunner::new(sim, CostModel::with_link_cost(100.0));
        let err = runner.run_composed_schedule(&[a, b]).unwrap_err();
        match err {
            SimError::Verify(diags) => {
                assert!(
                    diags.iter().any(|d| d.code == Code::FootprintRefused),
                    "want V133, got {diags:?}"
                );
            }
            other => panic!("want Verify error, got {other:?}"),
        }
        // Nothing ran.
        assert_eq!(runner.sim.now, 0);
    }

    #[test]
    fn overlapping_tenants_are_rejected_with_the_shared_tile_named() {
        let mesh = Mesh::new(1, 4);
        let a = copy_tenant(mesh, "alpha", 0, 1, 4);
        // beta claims tile 1 too: its copy runs 1 -> 2.
        let b = copy_tenant(mesh, "beta", 1, 2, 4);
        let mut sim = ArraySim::new(mesh);
        sim.verify = VerifyMode::Strict;
        seed(&mut sim, 0, 7);
        seed(&mut sim, 1, 40);
        let mut runner = EpochRunner::new(sim, CostModel::with_link_cost(100.0));
        let err = runner.run_composed_schedule(&[a, b]).unwrap_err();
        match err {
            SimError::Verify(diags) => {
                let overlap: Vec<_> = diags
                    .iter()
                    .filter(|d| d.code == Code::OverlapConflict)
                    .collect();
                assert!(!overlap.is_empty(), "want V132, got {diags:?}");
                assert!(
                    overlap.iter().any(|d| d.message.contains("alpha")
                        && d.message.contains("beta")
                        && d.message.contains("tile 1")),
                    "conflict must name both tenants and the tile: {overlap:?}"
                );
            }
            other => panic!("want Verify error, got {other:?}"),
        }
        assert_eq!(runner.sim.now, 0);
    }
}
