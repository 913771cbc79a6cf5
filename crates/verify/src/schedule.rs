//! Schedule-level verification over epoch sequences.
//!
//! The checker walks a schedule epoch by epoch, carrying per-tile state
//! across the walk (which words may be initialized, whether the tile was
//! ever programmed — address registers persist across epochs), and
//! checks:
//!
//! * link configurations are legal for the mesh ([`Code::IllegalLink`]),
//! * every tile whose program performs a (reachable) remote write has an
//!   active outgoing link that epoch ([`Code::RemoteWriteNoLink`]),
//! * data patches stay inside the 512-word memory and don't overlap
//!   within an epoch ([`Code::PatchOutOfRange`], [`Code::PatchOverlap`]),
//! * every loaded program passes the program-level pipeline under the
//!   accumulated memory precondition — patches from this and earlier
//!   epochs, stores by earlier programs, and inbound remote writes from
//!   neighbours all count as initializing.
//!
//! The types mirror `cgra_sim::Epoch` but borrow: `cgra-sim` depends on
//! this crate (not vice versa), so the runner builds [`EpochSpec`] views
//! of its epochs and feeds them here.

use crate::diag::{Code, Diagnostic};
use crate::dmem::{ConstMap, DmemSummary, WordSet};
use crate::program::{analyze_program, DmemInit, VerifyOptions};
use crate::races::{self, TileEffects};
use crate::timing::BoundCache;
use cgra_fabric::{DataPatch, LinkConfig, Mesh, TileId, DATA_WORDS};
use cgra_isa::Instr;

/// Reconfiguration view of one tile in one epoch.
#[derive(Debug, Clone, Copy)]
pub struct TileSpec<'a> {
    /// Which tile.
    pub tile: TileId,
    /// New program loaded this epoch, if any.
    pub program: Option<&'a [Instr]>,
    /// Data patches applied during the switch.
    pub data_patches: &'a [DataPatch],
}

/// View of one epoch.
#[derive(Debug, Clone)]
pub struct EpochSpec<'a> {
    /// Epoch name (used in messages only).
    pub name: &'a str,
    /// Link configuration active during the epoch.
    pub links: &'a LinkConfig,
    /// Tiles reconfigured going into the epoch.
    pub tiles: Vec<TileSpec<'a>>,
}

/// Per-tile outcome of analyzing one epoch: the exact preconditions the
/// program was verified under (so the WCET engine can re-analyze the
/// same program under the same assumptions) and its memory summary.
#[derive(Debug, Clone)]
pub struct TileAnalysis<'a> {
    /// The tile.
    pub tile: TileId,
    /// The program loaded this epoch.
    pub prog: &'a [Instr],
    /// Preconditions the program was verified under (phase B: accumulated
    /// init set, carried word constants, AR inheritance).
    pub opts: VerifyOptions,
    /// Memory-effect summary, `None` when structural errors stopped the
    /// dataflow passes.
    pub summary: Option<DmemSummary>,
}

/// Everything [`ScheduleChecker::analyze_epoch`] learns about one epoch.
#[derive(Debug, Clone)]
pub struct EpochAnalysis<'a> {
    /// All findings for the epoch.
    pub diags: Vec<Diagnostic>,
    /// Per-tile preconditions and summaries (tiles that loaded a program).
    pub tiles: Vec<TileAnalysis<'a>>,
}

/// Incremental schedule verifier; feed epochs in execution order.
#[derive(Debug, Clone)]
pub struct ScheduleChecker {
    mesh: Mesh,
    epoch: usize,
    /// Per-tile may-initialized words, accumulated across epochs.
    init: Vec<WordSet>,
    /// Per-tile words whose value is still statically known (patched
    /// constants, surviving program stores), accumulated across epochs.
    consts: Vec<ConstMap>,
    /// Per-tile: was a program ever loaded (=> ARs carry over).
    programmed: Vec<bool>,
}

impl ScheduleChecker {
    /// A checker for a cold array on `mesh`.
    pub fn new(mesh: Mesh) -> ScheduleChecker {
        ScheduleChecker {
            mesh,
            epoch: 0,
            init: vec![WordSet::empty(); mesh.tiles()],
            consts: vec![ConstMap::empty(); mesh.tiles()],
            programmed: vec![false; mesh.tiles()],
        }
    }

    /// Marks words of `tile` as host-initialized (test harnesses poke
    /// inputs directly into tile memory before the first epoch).
    pub fn assume_initialized(&mut self, tile: TileId, base: usize, count: usize) {
        if tile < self.init.len() {
            self.init[tile].insert_range(base, count);
        }
    }

    /// The value `d[addr]` of `tile` is statically known to hold going
    /// into the *next* epoch fed to [`ScheduleChecker::analyze_epoch`]
    /// (patched constants and surviving program stores). The hook the
    /// `cgra-lint` reconfiguration-diff minimizer compares patch payloads
    /// against: a patch word whose value equals the known surviving value
    /// is a no-op rewrite.
    ///
    /// Invariant: a known word is always in the may-initialized set too
    /// (both are fed by the same patches and stores, and the init set
    /// only ever grows), so dropping a no-op patch word never introduces
    /// an uninitialized read.
    pub fn known_value(&self, tile: TileId, addr: usize) -> Option<i64> {
        self.consts.get(tile).and_then(|c| c.get(addr))
    }

    /// True when `d[addr]` of `tile` may already be initialized going
    /// into the next epoch.
    pub fn may_initialized(&self, tile: TileId, addr: usize) -> bool {
        self.init.get(tile).is_some_and(|s| s.contains(addr))
    }

    /// Carries another checker's cross-epoch state over: every tile `t`
    /// of `from`'s mesh that `map` places lands on tile `map(t)` of this
    /// checker with `from`'s may-initialized words, known constants and
    /// programmed flag, and this checker counts `from`'s epochs as seen.
    ///
    /// The state is per tile, so checking a schedule on its own mesh and
    /// grafting the result through a placement leaves exactly the state
    /// checking the placed schedule here would — provided no other
    /// schedule fed to this checker touches the placed tiles.
    pub fn graft(&mut self, from: &ScheduleChecker, map: impl Fn(TileId) -> Option<TileId>) {
        for t in 0..from.mesh.tiles() {
            let Some(u) = map(t).filter(|&u| u < self.mesh.tiles()) else {
                continue;
            };
            self.init[u] = from.init[t];
            self.consts[u] = from.consts[t].clone();
            self.programmed[u] = from.programmed[t];
        }
        self.epoch += from.epoch;
    }

    /// How many epochs have been fed to the checker so far.
    pub fn epochs_seen(&self) -> usize {
        self.epoch
    }

    /// Checks the next epoch and advances the cross-epoch state.
    pub fn check_epoch(&mut self, e: &EpochSpec) -> Vec<Diagnostic> {
        crate::work::tally(crate::work::Work::CheckedEpoch);
        self.analyze_epoch(e).diags
    }

    /// Checks the next epoch, advances the cross-epoch state, and returns
    /// the per-tile preconditions/summaries alongside the diagnostics —
    /// what [`crate::walk_schedule`] hands its passes, so the WCET pass
    /// bounds each program under exactly the assumptions it was
    /// verified under.
    pub fn analyze_epoch<'a>(&mut self, e: &EpochSpec<'a>) -> EpochAnalysis<'a> {
        let ei = self.epoch;
        self.epoch += 1;
        let mut diags = Vec::new();

        // Link legality for the mesh topology.
        if e.links.len() > self.mesh.tiles() {
            diags.push(
                Diagnostic::error(
                    Code::IllegalLink,
                    format!(
                        "epoch '{}': link config covers {} tiles but the mesh has {}",
                        e.name,
                        e.links.len(),
                        self.mesh.tiles()
                    ),
                )
                .in_epoch(ei),
            );
        }
        for (t, dir) in e.links.iter_active() {
            if t >= self.mesh.tiles() || self.mesh.neighbour(t, dir).is_none() {
                diags.push(
                    Diagnostic::error(
                        Code::IllegalLink,
                        format!("epoch '{}': link {dir} points off the mesh", e.name),
                    )
                    .on_tile(t)
                    .in_epoch(ei),
                );
            }
        }

        // Patches: range, overlap, and their init effect.
        for spec in &e.tiles {
            if spec.tile >= self.mesh.tiles() {
                diags.push(
                    Diagnostic::error(
                        Code::UnknownTile,
                        format!(
                            "epoch '{}': reconfigures tile {} outside the {}x{} mesh",
                            e.name,
                            spec.tile,
                            self.mesh.rows(),
                            self.mesh.cols()
                        ),
                    )
                    .on_tile(spec.tile)
                    .in_epoch(ei),
                );
                continue;
            }
            let mut touched = WordSet::empty();
            for p in spec.data_patches {
                if p.base + p.len() > DATA_WORDS {
                    diags.push(
                        Diagnostic::error(
                            Code::PatchOutOfRange,
                            format!(
                                "data patch {}..{} runs past the {DATA_WORDS}-word memory",
                                p.base,
                                p.base + p.len()
                            ),
                        )
                        .on_tile(spec.tile)
                        .in_epoch(ei),
                    );
                    continue;
                }
                if (p.base..p.base + p.len()).any(|a| touched.contains(a)) {
                    diags.push(
                        Diagnostic::error(
                            Code::PatchOverlap,
                            format!(
                                "data patch {}..{} overlaps an earlier patch in the same epoch",
                                p.base,
                                p.base + p.len()
                            ),
                        )
                        .on_tile(spec.tile)
                        .in_epoch(ei),
                    );
                }
                touched.insert_range(p.base, p.len());
                self.init[spec.tile].insert_range(p.base, p.len());
                // Patch values are statically known: seed the const map
                // (in patch order, so a later overlapping patch wins,
                // matching the reconfiguration engine's apply order).
                for (k, w) in p.words.iter().enumerate() {
                    self.consts[spec.tile].set(p.base + k, w.value());
                }
            }
        }

        // Phase A: summarize each loaded program's remote writes (with a
        // fully-initialized precondition — only the write sets matter
        // here) to credit inbound writes to neighbours and to catch
        // remote writes with no active link.
        let mut inbound: Vec<WordSet> = vec![WordSet::empty(); self.mesh.tiles()];
        for spec in &e.tiles {
            let (t, prog) = match (spec.tile, spec.program) {
                (t, Some(p)) if t < self.mesh.tiles() => (t, p),
                _ => continue,
            };
            let opts = VerifyOptions {
                dmem_init: DmemInit::Everything,
                dmem_consts: self.consts[t].clone(),
                ars_preloaded: self.programmed[t],
            };
            let summary = match analyze_program(prog, &opts).1 {
                Some(s) => s,
                None => continue, // structural errors reported in phase B
            };
            if summary.has_remote_write {
                match e.links.get(t) {
                    None => diags.push(
                        Diagnostic::error(
                            Code::RemoteWriteNoLink,
                            format!(
                                "epoch '{}': program writes through the link but the tile's \
                                 outgoing link is inactive",
                                e.name
                            ),
                        )
                        .on_tile(t)
                        .in_epoch(ei),
                    ),
                    Some(dir) => {
                        if let Some(dst) = self.mesh.neighbour(t, dir) {
                            if summary.remote_unknown {
                                inbound[dst] = WordSet::full();
                            } else {
                                inbound[dst].union(&summary.remote_written);
                            }
                        }
                    }
                }
            }
        }
        for (t, set) in inbound.iter().enumerate() {
            self.init[t].union(set);
            // An inbound write may replace a word whose value we thought
            // we knew: forget it before the epoch's own verification.
            self.consts[t].clear_set(set);
        }

        // Phase B: full program verification under the accumulated
        // precondition, and advance the per-tile state.
        let mut tiles: Vec<TileAnalysis<'a>> = Vec::new();
        for spec in &e.tiles {
            let (t, prog) = match (spec.tile, spec.program) {
                (t, Some(p)) if t < self.mesh.tiles() => (t, p),
                _ => continue,
            };
            let opts = VerifyOptions {
                dmem_init: DmemInit::Words(self.init[t]),
                dmem_consts: self.consts[t].clone(),
                ars_preloaded: self.programmed[t],
            };
            let (pd, summary) = analyze_program(prog, &opts);
            diags.extend(pd.into_iter().map(|d| d.on_tile(t).in_epoch(ei)));
            match &summary {
                Some(s) => {
                    self.init[t].union(&s.written);
                    // Word values surviving to halt (joined over every
                    // exit) carry into the next epoch; a program with no
                    // reachable halt leaves nothing trustworthy.
                    match &s.exit_consts {
                        Some(ec) => self.consts[t] = ec.clone(),
                        None => self.consts[t].clear_all(),
                    }
                }
                None => self.consts[t].clear_all(),
            }
            self.programmed[t] = true;
            tiles.push(TileAnalysis {
                tile: t,
                prog,
                opts,
                summary,
            });
        }

        // Concurrency pass: cross-tile races over this epoch's combined
        // effects (phase-B summaries against the link topology).
        let views: Vec<TileEffects> = tiles
            .iter()
            .filter_map(|ta| {
                ta.summary.as_ref().map(|s| TileEffects {
                    tile: ta.tile,
                    prog: ta.prog,
                    summary: s,
                })
            })
            .collect();
        diags.extend(
            races::check_epoch_races(&self.mesh, e.links, e.name, &views)
                .into_iter()
                .map(|d| d.in_epoch(ei)),
        );
        EpochAnalysis { diags, tiles }
    }
}

/// Verifies a whole schedule on a cold array: the verdict pass
/// ([`crate::walk::Verdicts`]) run alone on the schedule walk.
pub fn verify_schedule(mesh: Mesh, epochs: &[EpochSpec]) -> Vec<Diagnostic> {
    let mut verdicts = crate::walk::Verdicts::new();
    crate::walk::walk_schedule(mesh, epochs, &mut BoundCache::new(), &mut [&mut verdicts]);
    verdicts.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_fabric::{Direction, Word};
    use cgra_isa::ops::{d, imm, rem};

    fn halt_prog() -> Vec<Instr> {
        vec![Instr::Halt]
    }

    fn remote_prog() -> Vec<Instr> {
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
    fn remote_write_without_link_is_error() {
        let mesh = Mesh::new(1, 2);
        let links = mesh.disconnected(); // no active link!
        let prog = remote_prog();
        let epochs = [EpochSpec {
            name: "e0",
            links: &links,
            tiles: vec![TileSpec {
                tile: 0,
                program: Some(&prog),
                data_patches: &[],
            }],
        }];
        let diags = verify_schedule(mesh, &epochs);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::RemoteWriteNoLink && d.is_error() && d.tile == Some(0)));
    }

    #[test]
    fn remote_write_with_link_is_clean() {
        let mesh = Mesh::new(1, 2);
        let links = mesh.disconnected().with(0, Direction::East);
        let prog = remote_prog();
        let epochs = [EpochSpec {
            name: "e0",
            links: &links,
            tiles: vec![TileSpec {
                tile: 0,
                program: Some(&prog),
                data_patches: &[],
            }],
        }];
        let diags = verify_schedule(mesh, &epochs);
        assert!(!crate::diag::has_errors(&diags), "{diags:?}");
    }

    #[test]
    fn illegal_link_is_error() {
        let mesh = Mesh::new(1, 2);
        // North from row 0 points off the mesh.
        let links = mesh.disconnected().with(0, Direction::North);
        let epochs = [EpochSpec {
            name: "bad",
            links: &links,
            tiles: vec![],
        }];
        let diags = verify_schedule(mesh, &epochs);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::IllegalLink && d.is_error()));
    }

    #[test]
    fn patch_range_and_overlap_rejected() {
        let mesh = Mesh::new(1, 1);
        let links = mesh.disconnected();
        let oob = [DataPatch::new(510, vec![Word::ZERO; 4])];
        let over = [
            DataPatch::new(10, vec![Word::ZERO; 4]),
            DataPatch::new(12, vec![Word::ZERO; 4]),
        ];
        let prog = halt_prog();
        let diags = verify_schedule(
            mesh,
            &[
                EpochSpec {
                    name: "oob",
                    links: &links,
                    tiles: vec![TileSpec {
                        tile: 0,
                        program: Some(&prog),
                        data_patches: &oob,
                    }],
                },
                EpochSpec {
                    name: "overlap",
                    links: &links,
                    tiles: vec![TileSpec {
                        tile: 0,
                        program: Some(&prog),
                        data_patches: &over,
                    }],
                },
            ],
        );
        assert!(diags
            .iter()
            .any(|d| d.code == Code::PatchOutOfRange && d.epoch == Some(0)));
        assert!(diags
            .iter()
            .any(|d| d.code == Code::PatchOverlap && d.epoch == Some(1)));
    }

    #[test]
    fn unknown_tile_rejected() {
        let mesh = Mesh::new(1, 1);
        let links = mesh.disconnected();
        let prog = halt_prog();
        let epochs = [EpochSpec {
            name: "e0",
            links: &links,
            tiles: vec![TileSpec {
                tile: 5,
                program: Some(&prog),
                data_patches: &[],
            }],
        }];
        let diags = verify_schedule(mesh, &epochs);
        assert!(diags.iter().any(|d| d.code == Code::UnknownTile));
    }

    #[test]
    fn patches_initialize_across_epochs() {
        let mesh = Mesh::new(1, 1);
        let links = mesh.disconnected();
        // Epoch 0 patches d[100..104]; epoch 1's program reads d[100].
        let patches = [DataPatch::new(100, vec![Word::wrap(1); 4])];
        let reader = vec![
            Instr::Mov {
                dst: d(0),
                a: d(100),
            },
            Instr::Halt,
        ];
        let idle = halt_prog();
        let diags = verify_schedule(
            mesh,
            &[
                EpochSpec {
                    name: "patch",
                    links: &links,
                    tiles: vec![TileSpec {
                        tile: 0,
                        program: Some(&idle),
                        data_patches: &patches,
                    }],
                },
                EpochSpec {
                    name: "read",
                    links: &links,
                    tiles: vec![TileSpec {
                        tile: 0,
                        program: Some(&reader),
                        data_patches: &[],
                    }],
                },
            ],
        );
        assert_eq!(diags, vec![], "patched words must count as initialized");
    }

    #[test]
    fn inbound_remote_writes_initialize_neighbour() {
        let mesh = Mesh::new(1, 2);
        let links = mesh.disconnected().with(0, Direction::East);
        let writer = remote_prog(); // writes neighbour d[10]
        let disconnected = mesh.disconnected();
        let reader = vec![
            Instr::Mov {
                dst: d(0),
                a: d(10),
            },
            Instr::Halt,
        ];
        let idle = halt_prog();
        let diags = verify_schedule(
            mesh,
            &[
                EpochSpec {
                    name: "send",
                    links: &links,
                    tiles: vec![
                        TileSpec {
                            tile: 0,
                            program: Some(&writer),
                            data_patches: &[],
                        },
                        TileSpec {
                            tile: 1,
                            program: Some(&idle),
                            data_patches: &[],
                        },
                    ],
                },
                EpochSpec {
                    name: "consume",
                    links: &disconnected,
                    tiles: vec![TileSpec {
                        tile: 1,
                        program: Some(&reader),
                        data_patches: &[],
                    }],
                },
            ],
        );
        assert_eq!(diags, vec![], "inbound writes must count as initialized");
    }

    #[test]
    fn uninit_read_across_epochs_warned() {
        let mesh = Mesh::new(1, 1);
        let links = mesh.disconnected();
        let reader = vec![
            Instr::Mov {
                dst: d(0),
                a: d(200),
            },
            Instr::Halt,
        ];
        let epochs = [EpochSpec {
            name: "read",
            links: &links,
            tiles: vec![TileSpec {
                tile: 0,
                program: Some(&reader),
                data_patches: &[],
            }],
        }];
        let diags = verify_schedule(mesh, &epochs);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::UninitRead && d.tile == Some(0)));
    }
}
