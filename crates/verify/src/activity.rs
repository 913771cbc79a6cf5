//! Whole-schedule activity & independence analysis (V12x codes).
//!
//! The per-cycle interpreter steps every tile every cycle, yet the
//! verifier already knows — statically — which tiles can do work when
//! and which tiles can never observe each other within an epoch. This
//! module turns that knowledge into a machine-checkable
//! [`ActivityCertificate`] the event-driven simulator core consumes:
//!
//! * **Activity intervals** ([`Code::ActivityInterval`], V120). Every
//!   tile reconfigured going into an epoch stalls behind the
//!   quiescence barrier for exactly `ceil(reconfig_ns / cycle)` cycles
//!   (the ICAP stream head), and a tile loaded with a program whose
//!   WCET abstract execution resolves the single feasible path is busy
//!   for exactly that many cycles afterwards — everything outside
//!   `[stall, stall + busy)` is provably inactive. Tiles that receive
//!   only data patches never leave the halted state: their activity
//!   interval is the stall head alone. Untouched tiles are halted for
//!   the whole epoch (the epoch barrier quiesces every tile before the
//!   next reconfiguration).
//!
//! * **Independence classes** ([`Code::IndependenceClass`], V121). The
//!   happens-before summaries name every tile that may write through
//!   its link this epoch and, via the link topology, the destination
//!   tile the words land in. Tiles connected by a may-write edge are
//!   unified; the connected components that remain provably exchange
//!   no words, so the engine may step different classes on different
//!   workers with no interleaving a serial stepper could distinguish.
//!   A tile whose memory summary did not resolve is treated as a
//!   may-writer whenever it has an active outgoing link (a write with
//!   no link faults identically in either engine and lands nowhere).
//!
//! * **Conservation obligations.** Each epoch records the
//!   parallel-max compute interval and the summed busy interval of its
//!   armed tiles; the observed per-epoch cycle count and the summed
//!   `busy_cycles` statistics of any bit-exact execution must fall
//!   inside them. A certificate whose claims drift from what the
//!   analysis re-derives is refused wholesale
//!   ([`Code::CertificateRefused`], V122) — the consumer then falls
//!   back to the serial interpreter.
//!
//! ## Soundness posture
//!
//! The certificate is derived as one pass on the schedule walk
//! ([`ActivityPass`]), which extends the WCET pass: the switch pricing
//! and the busy spans are the ones the WCET bound is built from, and
//! the derivation mirrors the simulator's own accounting
//! ([`cgra_fabric::ReconfigPlan`] + [`cgra_fabric::CostModel`]) bit for
//! bit. The event-driven core trusts a certificate only inside the
//! certified schedule that derived it, and only on an array in the
//! state it was derived for (same mesh and cost model, nothing run
//! yet, every tile quiesced). [`verify_activity`] re-derives every
//! claim from scratch and compares field by field, so a certificate
//! computed under a different cost model, a stale schedule, or a
//! fabricated interval is refused wherever one is checked.

use crate::diag::{Code, Diagnostic};
use crate::schedule::{EpochAnalysis, EpochSpec};
use crate::timing::{BoundCache, BoundPass, CycleInterval, EpochPricing, ScheduleBound};
use crate::walk::{walk_schedule, EpochPass};
use cgra_fabric::{CostModel, Mesh, TileId};

/// How a tile participates in an epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TileActivity {
    /// A program was loaded: the tile stalls through the barrier, then
    /// executes from pc 0 until `halt`.
    Programmed,
    /// Only data patches were applied: the tile stalls through the
    /// barrier but stays halted — it never executes a cycle.
    PatchOnly,
}

/// One tile's proven activity interval within one epoch. Cycle offsets
/// are relative to the epoch's first cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActivityInterval {
    /// The tile.
    pub tile: TileId,
    /// Cycles the tile is provably stalled at the epoch head (the
    /// quiescence-barrier ICAP stream), identical for every tile the
    /// reconfiguration plan touches.
    pub stall: u64,
    /// Cycles of program execution after the stall head; exact when the
    /// WCET abstract executor resolved the single feasible path,
    /// `[best, None]` when a loop's trip count could not be inferred.
    /// Always `[0, 0]` for [`TileActivity::PatchOnly`] tiles.
    pub busy: CycleInterval,
    /// Whether the busy interval is exact (single feasible path).
    pub exact: bool,
    /// How the tile participates.
    pub kind: TileActivity,
}

/// One independence class: tiles that may exchange words this epoch.
/// Tiles in *different* classes provably exchange none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndependenceClass {
    /// Member tiles, ascending. Includes armed tiles and every tile
    /// their remote writes may land in (a write target belongs to its
    /// writer's class even when it runs no program — its data memory
    /// is mutated).
    pub tiles: Vec<TileId>,
    /// Member tiles that execute a program this epoch, ascending.
    pub armed: Vec<TileId>,
    /// May-write edges inside the class (for reporting).
    pub edges: usize,
}

/// Everything proven about one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochActivity {
    /// Epoch index in the schedule.
    pub epoch: usize,
    /// Epoch name (for messages).
    pub name: String,
    /// Reconfiguration charge entering the epoch, mirroring
    /// [`cgra_fabric::ReconfigPlan::total_ns`] under the certificate's
    /// cost model.
    pub reconfig_ns: f64,
    /// `ceil(reconfig_ns / cycle)` — the stall head every reconfigured
    /// tile serves.
    pub stall_cycles: u64,
    /// Tiles the reconfiguration plan stalls, ascending.
    pub stalled: Vec<TileId>,
    /// Per-tile activity intervals (tiles the plan touches), ascending
    /// by tile.
    pub intervals: Vec<ActivityInterval>,
    /// Independence classes over armed tiles and their write targets,
    /// ascending by first member.
    pub classes: Vec<IndependenceClass>,
    /// Parallel-max of the armed tiles' busy intervals: the epoch's
    /// compute phase lasts this many cycles.
    pub compute: CycleInterval,
    /// Sum of the armed tiles' busy intervals: the epoch's total busy
    /// cycles (the conservation obligation for `busy_cycles` stats).
    pub busy_total: CycleInterval,
    /// Whole-epoch cycle count: `stall + compute` when anything stalls
    /// or runs, `[0, 0]` for a no-op epoch.
    pub total_cycles: CycleInterval,
}

impl EpochActivity {
    /// The class index `tile` belongs to, if it is in any class.
    pub fn class_of(&self, tile: TileId) -> Option<usize> {
        self.classes
            .iter()
            .position(|c| c.tiles.binary_search(&tile).is_ok())
    }

    /// True when every armed tile's busy interval is exact.
    pub fn all_exact(&self) -> bool {
        self.intervals.iter().all(|iv| iv.exact)
    }
}

/// The machine-checkable result of [`analyze_activity`]: interval
/// proofs, class non-interference obligations, and busy-cycle
/// conservation bounds for a whole schedule. [`verify_activity`]
/// checks a certificate from anywhere else against a fresh derivation.
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityCertificate {
    /// Per-epoch proofs, in execution order.
    pub epochs: Vec<EpochActivity>,
    /// Sum of every epoch's `busy_total`: the schedule-wide busy-cycle
    /// conservation obligation (observed Σ busy_cycles must fall
    /// inside).
    pub total_busy: CycleInterval,
    /// Sum of every epoch's `total_cycles`: the schedule-wide wall
    /// bound the WCET engine would also report.
    pub total_cycles: CycleInterval,
}

/// [`analyze_activity`]'s output: the certificate plus informational
/// V120/V121 findings describing what was proven.
#[derive(Debug, Clone)]
pub struct ActivityAnalysis {
    /// The certificate.
    pub cert: ActivityCertificate,
    /// V120 interval and V121 class findings (warnings, informational)
    /// plus any analysis errors that make an epoch unskippable.
    pub diags: Vec<Diagnostic>,
}

/// Minimal union-find over tile indices for class derivation.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut r = x;
        while self.parent[r] != r {
            r = self.parent[r];
        }
        let mut c = x;
        while self.parent[c] != r {
            let next = self.parent[c];
            self.parent[c] = r;
            c = next;
        }
        r
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Smaller root wins so classes come out ordered by first
            // member without a sort.
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// The activity pass: one [`EpochActivity`] per epoch walked. It
/// extends the WCET pass — it runs a [`BoundPass`] and takes each
/// epoch's switch pricing (`reconfig_ns`, `stall_cycles`, the stalled
/// tiles, `compute`) and its per-tile busy bounds from what that pass
/// priced through the walk's shared [`BoundCache`], so a schedule's
/// bound and its activity proofs come from one pricing of each epoch.
/// [`ActivityPass::finish`] returns both.
#[derive(Debug)]
pub struct ActivityPass {
    wcet: BoundPass,
    epochs: Vec<EpochActivity>,
}

impl ActivityPass {
    /// The activity facts (and the WCET bound) of a cold array on
    /// `mesh`, priced under `cost`.
    pub fn new(mesh: Mesh, cost: &CostModel) -> ActivityPass {
        ActivityPass {
            wcet: BoundPass::new(mesh, cost),
            epochs: Vec::new(),
        }
    }

    /// The WCET bound and the activity certificate over every epoch
    /// walked.
    pub fn finish(self) -> (ScheduleBound, ActivityCertificate) {
        let mut cert = ActivityCertificate {
            epochs: self.epochs,
            total_busy: CycleInterval::exact(0),
            total_cycles: CycleInterval::exact(0),
        };
        for ea in &cert.epochs {
            cert.total_busy = cert.total_busy + ea.busy_total;
            cert.total_cycles = cert.total_cycles + ea.total_cycles;
        }
        // The certificate outlives the walk (a certified schedule keeps
        // it): hand back no growth slack.
        cert.epochs.shrink_to_fit();
        (self.wcet.finish(), cert)
    }
}

impl EpochPass for ActivityPass {
    fn epoch(
        &mut self,
        ei: usize,
        e: &EpochSpec,
        analysis: &EpochAnalysis,
        cache: &mut BoundCache,
    ) {
        let priced = self.wcet.price(ei, e, analysis, cache);
        let ea = epoch_activity(self.wcet.mesh, ei, e, analysis, priced);
        self.epochs.push(ea);
    }
}

/// Every epoch's activity facts, from one schedule walk.
fn derive_activity(mesh: Mesh, cost: &CostModel, epochs: &[EpochSpec]) -> ActivityCertificate {
    let mut pass = ActivityPass::new(mesh, cost);
    walk_schedule(mesh, epochs, &mut BoundCache::new(), &mut [&mut pass]);
    pass.finish().1
}

/// Builds one epoch's activity facts on the WCET pass's pricing of it.
fn epoch_activity(
    mesh: Mesh,
    ei: usize,
    e: &EpochSpec,
    analysis: &EpochAnalysis,
    priced: EpochPricing,
) -> EpochActivity {
    let EpochPricing {
        reconfig_ns,
        stall_cycles,
        stalled,
        compute,
        tiles,
    } = priced;

    // Interval proofs: stall head for every stalled tile, plus the WCET
    // busy span for tiles that were armed with a program.
    let mut intervals: Vec<ActivityInterval> = Vec::with_capacity(stalled.len());
    let mut busy_total = CycleInterval::exact(0);
    for (tile, busy, exact) in tiles {
        busy_total = busy_total + busy;
        intervals.push(ActivityInterval {
            tile,
            stall: stall_cycles,
            busy,
            exact,
            kind: TileActivity::Programmed,
        });
    }
    let armed: Vec<TileId> = intervals.iter().map(|iv| iv.tile).collect();
    for &t in &stalled {
        if !armed.contains(&t) {
            intervals.push(ActivityInterval {
                tile: t,
                stall: stall_cycles,
                busy: CycleInterval::exact(0),
                exact: true,
                kind: TileActivity::PatchOnly,
            });
        }
    }
    intervals.sort_by_key(|iv| iv.tile);

    // Independence classes: may-write edges from the happens-before
    // summaries over the link topology. A tile whose summary did not
    // resolve may write anything reachable through its link, so it is
    // unified with its link target conservatively.
    let mut dsu = Dsu::new(mesh.tiles());
    let mut in_class = vec![false; mesh.tiles()];
    let mut edge_count = vec![0usize; mesh.tiles()];
    for ta in &analysis.tiles {
        if ta.tile >= mesh.tiles() {
            continue;
        }
        in_class[ta.tile] = true;
        let may_write = match &ta.summary {
            Some(s) => s.has_remote_write,
            None => true, // unresolved: assume the worst
        };
        if !may_write {
            continue;
        }
        let Some(dir) = e.links.get(ta.tile) else {
            // A runtime remote write without a link faults before any
            // word lands; no cross-tile effect to account for.
            continue;
        };
        let Some(dst) = mesh.neighbour(ta.tile, dir) else {
            continue;
        };
        in_class[dst] = true;
        edge_count[ta.tile] += 1;
        dsu.union(ta.tile, dst);
    }
    let mut classes: Vec<IndependenceClass> = Vec::new();
    let mut root_slot = vec![usize::MAX; mesh.tiles()];
    for t in 0..mesh.tiles() {
        if !in_class[t] {
            continue;
        }
        let r = dsu.find(t);
        if root_slot[r] == usize::MAX {
            root_slot[r] = classes.len();
            classes.push(IndependenceClass {
                tiles: Vec::new(),
                armed: Vec::new(),
                edges: 0,
            });
        }
        let c = &mut classes[root_slot[r]];
        c.tiles.push(t);
        c.edges += edge_count[t];
        if armed.contains(&t) {
            c.armed.push(t);
        }
    }
    // A certified schedule keeps the certificate: no growth slack.
    classes.shrink_to_fit();
    for c in &mut classes {
        c.tiles.shrink_to_fit();
        c.armed.shrink_to_fit();
    }

    let total_cycles = if stalled.is_empty() {
        CycleInterval::exact(0)
    } else {
        CycleInterval::exact(stall_cycles) + compute
    };
    EpochActivity {
        epoch: ei,
        name: e.name.to_string(),
        reconfig_ns,
        stall_cycles,
        stalled,
        intervals,
        classes,
        compute,
        busy_total,
        total_cycles,
    }
}

/// Derives the [`ActivityCertificate`] for a whole schedule on a cold
/// array, with informational V120/V121 findings describing the proofs.
pub fn analyze_activity(mesh: Mesh, cost: &CostModel, epochs: &[EpochSpec]) -> ActivityAnalysis {
    let cert = derive_activity(mesh, cost, epochs);
    let mut diags = Vec::new();
    for (ei, ea) in cert.epochs.iter().enumerate() {
        if !ea.intervals.is_empty() {
            let exact = ea.intervals.iter().filter(|iv| iv.exact).count();
            diags.push(
                Diagnostic::warning(
                    Code::ActivityInterval,
                    format!(
                        "epoch '{}': {} reconfigured tiles stall {} cycles, then compute for {} \
                         ({} of {} busy spans exact) — inactive everywhere else",
                        ea.name,
                        ea.intervals.len(),
                        ea.stall_cycles,
                        fmt_interval(ea.compute),
                        exact,
                        ea.intervals.len(),
                    ),
                )
                .in_epoch(ei),
            );
        }
        if !ea.classes.is_empty() {
            let largest = ea.classes.iter().map(|c| c.tiles.len()).max().unwrap_or(0);
            diags.push(
                Diagnostic::warning(
                    Code::IndependenceClass,
                    format!(
                        "epoch '{}': {} active tiles partition into {} independence classes \
                         (largest {}) — classes exchange no words and may step in parallel",
                        ea.name,
                        ea.classes.iter().map(|c| c.tiles.len()).sum::<usize>(),
                        ea.classes.len(),
                        largest,
                    ),
                )
                .in_epoch(ei),
            );
        }
    }
    ActivityAnalysis { cert, diags }
}

fn fmt_interval(iv: CycleInterval) -> String {
    match iv.worst {
        Some(w) if w == iv.best => format!("{w} cycles"),
        Some(w) => format!("[{}, {w}] cycles", iv.best),
        None => format!("[{}, unbounded) cycles", iv.best),
    }
}

/// Independently re-derives every claim of `cert` from scratch and
/// refuses the certificate ([`Code::CertificateRefused`] errors) on any
/// drift. An empty return means every interval proof, class
/// non-interference obligation, and conservation bound checked out.
pub fn verify_activity(
    mesh: Mesh,
    cost: &CostModel,
    epochs: &[EpochSpec],
    cert: &ActivityCertificate,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let mut refuse = |epoch: Option<usize>, msg: String| {
        let mut d = Diagnostic::error(Code::CertificateRefused, msg);
        if let Some(e) = epoch {
            d = d.in_epoch(e);
        }
        diags.push(d);
    };

    if cert.epochs.len() != epochs.len() {
        refuse(
            None,
            format!(
                "certificate covers {} epochs but the schedule has {}",
                cert.epochs.len(),
                epochs.len()
            ),
        );
        return diags;
    }

    let derived = derive_activity(mesh, cost, epochs);
    for (ei, (fresh, claimed)) in derived.epochs.iter().zip(&cert.epochs).enumerate() {
        if claimed.epoch != ei || claimed.name != fresh.name {
            refuse(
                Some(ei),
                format!(
                    "claim names epoch {} '{}' but the schedule has epoch {ei} '{}'",
                    claimed.epoch, claimed.name, fresh.name
                ),
            );
            continue;
        }
        if (claimed.reconfig_ns - fresh.reconfig_ns).abs() > 1e-9 {
            refuse(
                Some(ei),
                format!(
                    "claimed reconfiguration charge {} ns but the plan costs {} ns",
                    claimed.reconfig_ns, fresh.reconfig_ns
                ),
            );
        }
        if claimed.stall_cycles != fresh.stall_cycles {
            refuse(
                Some(ei),
                format!(
                    "claimed stall head of {} cycles but the barrier stalls {}",
                    claimed.stall_cycles, fresh.stall_cycles
                ),
            );
        }
        if claimed.stalled != fresh.stalled {
            refuse(
                Some(ei),
                format!(
                    "claimed stalled tiles {:?} but the plan stalls {:?}",
                    claimed.stalled, fresh.stalled
                ),
            );
        }
        if claimed.intervals != fresh.intervals {
            refuse(
                Some(ei),
                format!(
                    "claimed activity intervals disagree with the WCET derivation \
                     (claimed {}, derived {})",
                    claimed.intervals.len(),
                    fresh.intervals.len()
                ),
            );
        }
        if claimed.classes != fresh.classes {
            refuse(
                Some(ei),
                format!(
                    "claimed independence classes disagree with the happens-before \
                     derivation (claimed {}, derived {})",
                    claimed.classes.len(),
                    fresh.classes.len()
                ),
            );
        }
        if claimed.compute != fresh.compute
            || claimed.busy_total != fresh.busy_total
            || claimed.total_cycles != fresh.total_cycles
        {
            refuse(
                Some(ei),
                "claimed conservation bounds disagree with the WCET composition".to_string(),
            );
        }
    }
    if cert.total_busy != derived.total_busy {
        refuse(
            None,
            "schedule-wide busy-cycle conservation bound disagrees with the epoch sum".to_string(),
        );
    }
    if cert.total_cycles != derived.total_cycles {
        refuse(
            None,
            "schedule-wide cycle bound disagrees with the epoch sum".to_string(),
        );
    }
    diags
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::TileSpec;
    use cgra_fabric::{DataPatch, Direction, Word};
    use cgra_isa::ops::{d, imm, rem};
    use cgra_isa::Instr;

    fn compute_prog(n: i32) -> Vec<Instr> {
        // 1 + n*(add+djnz) + halt cycles, branch-deterministic.
        vec![
            Instr::Ldi { dst: d(0), imm: n },
            Instr::Add {
                dst: d(1),
                a: d(1),
                b: imm(1),
            },
            Instr::Djnz {
                dst: d(0),
                target: 1,
            },
            Instr::Halt,
        ]
    }

    fn writer_prog() -> Vec<Instr> {
        vec![
            Instr::Ldar {
                k: 0,
                src: None,
                imm: 10,
            },
            Instr::Mov {
                dst: rem(0),
                a: imm(7),
            },
            Instr::Halt,
        ]
    }

    #[test]
    fn intervals_are_exact_for_deterministic_programs() {
        let mesh = Mesh::new(1, 2);
        let links = mesh.disconnected();
        let cost = CostModel::default();
        let p0 = compute_prog(5);
        let p1 = compute_prog(3);
        let epochs = [EpochSpec {
            name: "e0",
            links: &links,
            tiles: vec![
                TileSpec {
                    tile: 0,
                    program: Some(&p0),
                    data_patches: &[],
                },
                TileSpec {
                    tile: 1,
                    program: Some(&p1),
                    data_patches: &[],
                },
            ],
        }];
        let a = analyze_activity(mesh, &cost, &epochs);
        let ea = &a.cert.epochs[0];
        assert_eq!(ea.intervals.len(), 2);
        assert!(ea.all_exact());
        // 1 + 5*2 + 1 = 12 and 1 + 3*2 + 1 = 8 cycles.
        assert_eq!(ea.intervals[0].busy, CycleInterval::exact(12));
        assert_eq!(ea.intervals[1].busy, CycleInterval::exact(8));
        assert_eq!(ea.compute, CycleInterval::exact(12));
        assert_eq!(ea.busy_total, CycleInterval::exact(20));
        assert!(ea.stall_cycles > 0, "program loads must stall the barrier");
        assert_eq!(
            ea.total_cycles,
            CycleInterval::exact(ea.stall_cycles + 12),
            "epoch wall bound is stall + parallel-max compute"
        );
        assert!(a.diags.iter().any(|d| d.code == Code::ActivityInterval));
    }

    #[test]
    fn patch_only_tiles_stall_but_never_compute() {
        let mesh = Mesh::new(1, 2);
        let links = mesh.disconnected();
        let cost = CostModel::default();
        let p0 = compute_prog(2);
        let patches = [DataPatch::new(0, vec![Word::wrap(9); 4])];
        let epochs = [EpochSpec {
            name: "e0",
            links: &links,
            tiles: vec![
                TileSpec {
                    tile: 0,
                    program: Some(&p0),
                    data_patches: &[],
                },
                TileSpec {
                    tile: 1,
                    program: None,
                    data_patches: &patches,
                },
            ],
        }];
        let a = analyze_activity(mesh, &cost, &epochs);
        let ea = &a.cert.epochs[0];
        let iv1 = ea.intervals.iter().find(|iv| iv.tile == 1).expect("tile 1");
        assert_eq!(iv1.kind, TileActivity::PatchOnly);
        assert_eq!(iv1.busy, CycleInterval::exact(0));
        assert_eq!(iv1.stall, ea.stall_cycles);
        assert_eq!(ea.stalled, vec![0, 1]);
    }

    #[test]
    fn classes_split_independent_tiles_and_merge_writer_with_target() {
        let mesh = Mesh::new(1, 4);
        // Tile 0 writes east into tile 1; tiles 2 and 3 compute locally.
        let links = mesh.disconnected().with(0, Direction::East);
        let cost = CostModel::default();
        let w = writer_prog();
        let c2 = compute_prog(4);
        let c3 = compute_prog(4);
        let epochs = [EpochSpec {
            name: "e0",
            links: &links,
            tiles: vec![
                TileSpec {
                    tile: 0,
                    program: Some(&w),
                    data_patches: &[],
                },
                TileSpec {
                    tile: 2,
                    program: Some(&c2),
                    data_patches: &[],
                },
                TileSpec {
                    tile: 3,
                    program: Some(&c3),
                    data_patches: &[],
                },
            ],
        }];
        let a = analyze_activity(mesh, &cost, &epochs);
        let ea = &a.cert.epochs[0];
        assert_eq!(ea.classes.len(), 3, "{:?}", ea.classes);
        assert_eq!(
            ea.classes[0].tiles,
            vec![0, 1],
            "writer unified with target"
        );
        assert_eq!(ea.classes[0].armed, vec![0], "target runs no program");
        assert_eq!(ea.classes[1].tiles, vec![2]);
        assert_eq!(ea.classes[2].tiles, vec![3]);
        assert_eq!(ea.class_of(1), Some(0));
        assert_eq!(ea.class_of(3), Some(2));
        assert!(a.diags.iter().any(|d| d.code == Code::IndependenceClass));
    }

    #[test]
    fn genuine_certificate_passes_reverification() {
        let mesh = Mesh::new(2, 2);
        let links = mesh.disconnected().with(0, Direction::East);
        let later = mesh.disconnected();
        let cost = CostModel::default();
        let w = writer_prog();
        let c = compute_prog(6);
        let epochs = [
            EpochSpec {
                name: "send",
                links: &links,
                tiles: vec![
                    TileSpec {
                        tile: 0,
                        program: Some(&w),
                        data_patches: &[],
                    },
                    TileSpec {
                        tile: 2,
                        program: Some(&c),
                        data_patches: &[],
                    },
                ],
            },
            EpochSpec {
                name: "crunch",
                links: &later,
                tiles: vec![TileSpec {
                    tile: 3,
                    program: Some(&c),
                    data_patches: &[],
                }],
            },
        ];
        let a = analyze_activity(mesh, &cost, &epochs);
        let diags = verify_activity(mesh, &cost, &epochs, &a.cert);
        assert_eq!(diags, vec![], "genuine certificate must verify clean");
    }

    #[test]
    fn fabricated_certificates_are_refused() {
        let mesh = Mesh::new(1, 2);
        let links = mesh.disconnected().with(0, Direction::East);
        let cost = CostModel::default();
        let w = writer_prog();
        let epochs = [EpochSpec {
            name: "e0",
            links: &links,
            tiles: vec![TileSpec {
                tile: 0,
                program: Some(&w),
                data_patches: &[],
            }],
        }];
        let a = analyze_activity(mesh, &cost, &epochs);

        let refused = |cert: &ActivityCertificate| {
            let diags = verify_activity(mesh, &cost, &epochs, cert);
            assert!(
                diags
                    .iter()
                    .any(|d| d.code == Code::CertificateRefused && d.is_error()),
                "fabrication must be refused, got {diags:?}"
            );
        };

        // Shrunk stall head (claims the tile wakes earlier than it can).
        let mut lie = a.cert.clone();
        lie.epochs[0].stall_cycles = 0;
        refused(&lie);

        // Shrunk busy span.
        let mut lie = a.cert.clone();
        lie.epochs[0].intervals[0].busy = CycleInterval::exact(1);
        refused(&lie);

        // Split the writer from its target (a forged non-interference
        // obligation).
        let mut lie = a.cert.clone();
        lie.epochs[0].classes = vec![
            IndependenceClass {
                tiles: vec![0],
                armed: vec![0],
                edges: 0,
            },
            IndependenceClass {
                tiles: vec![1],
                armed: vec![],
                edges: 0,
            },
        ];
        refused(&lie);

        // Understated conservation bound.
        let mut lie = a.cert.clone();
        lie.total_busy = CycleInterval::exact(0);
        refused(&lie);

        // Truncated certificate.
        let mut lie = a.cert.clone();
        lie.epochs.clear();
        refused(&lie);

        // The untampered certificate still verifies.
        assert_eq!(verify_activity(mesh, &cost, &epochs, &a.cert), vec![]);
    }

    #[test]
    fn unresolved_summary_is_conservatively_unified() {
        let mesh = Mesh::new(1, 2);
        let links = mesh.disconnected().with(0, Direction::East);
        let cost = CostModel::default();
        // A spin-wait on an uninitialized word keeps the summary's
        // remote set resolvable but the cycle bound unbounded; the
        // writer edge must still unify the pair.
        let spin = vec![
            Instr::Bz {
                a: d(100),
                target: 0,
            },
            Instr::Ldar {
                k: 0,
                src: None,
                imm: 10,
            },
            Instr::Mov {
                dst: rem(0),
                a: imm(1),
            },
            Instr::Halt,
        ];
        let epochs = [EpochSpec {
            name: "spin",
            links: &links,
            tiles: vec![TileSpec {
                tile: 0,
                program: Some(&spin),
                data_patches: &[],
            }],
        }];
        let a = analyze_activity(mesh, &cost, &epochs);
        let ea = &a.cert.epochs[0];
        assert_eq!(ea.classes.len(), 1);
        assert_eq!(ea.classes[0].tiles, vec![0, 1]);
        assert!(
            !ea.all_exact(),
            "spin-wait busy span must not claim exactness"
        );
        // And the certificate still re-verifies (unbounded is honest).
        assert_eq!(verify_activity(mesh, &cost, &epochs, &a.cert), vec![]);
    }
}
