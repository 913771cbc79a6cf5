//! The whole-schedule lint pass.
//!
//! [`lint_schedule`] walks an epoch schedule once ([`LintPass`] on
//! [`cgra_verify::walk_schedule`]), carrying a per-tile, per-word
//! *definition* state across epochs:
//!
//! * every write is a **definition** tagged with its producer kind — an
//!   ICAP data patch, a local program store, or an inbound `T_copy`
//!   remote write — and the epoch it happened in,
//! * program reads **consume** the definitions of the words they touch
//!   (reads through unresolvable registers conservatively consume every
//!   definition on the tile),
//! * a write over an **unconsumed** definition is a *kill*, classified by
//!   the killer: [`Code::ClobberByPatch`] / [`Code::ClobberByCopy`] /
//!   [`Code::ClobberByStore`] when computed data dies,
//!   [`Code::DeadInit`] when a patched word dies unread,
//! * a patch word whose payload equals the value the schedule verifier
//!   already knows the word holds is a no-op rewrite
//!   ([`Code::RedundantPatch`]) and is recorded as a [`Removal`] the
//!   fixer can apply — removing it cannot change any memory state, so
//!   the fixed schedule is bit-exact and strictly cheaper under Eq. 1.
//!
//! Two configuration-diff lints ride the same walk: a tile reloaded with
//! the byte-identical program image ([`Code::RedundantReload`], priced
//! but *not* auto-removed — a reload is what re-arms a halted PE) and
//! instruction slots unreachable from the entry that the ICAP streams
//! anyway ([`Code::UnreachableImem`]).
//!
//! Soundness notes live in `DESIGN.md` Section 11. The short form: the
//! pass never reports a deny-level finding from a may-property (patch
//! writes are exact; havocked or register-unresolvable effect summaries
//! conservatively mark everything consumed), and a [`Removal`] is only
//! emitted when the surviving value is a *must*-constant, so applying it
//! preserves every intermediate memory state, not just the final one.

use crate::level::LintLevels;
use cgra_fabric::{CostModel, LinkConfig, Mesh, TileId, TransitionBreakdown, DATA_WORDS};
use cgra_isa::encode_program;
use cgra_verify::{
    walk_schedule, BoundCache, Cfg, Code, Diagnostic, EpochAnalysis, EpochPass, EpochSpec,
    ScheduleChecker,
};

/// Who produced the value a data-memory word currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DefKind {
    /// An ICAP data patch wrote it during an epoch switch.
    Patch,
    /// The tile's own program stored it.
    Store,
    /// A neighbour's `T_copy` remote write delivered it.
    Inbound,
}

impl DefKind {
    fn describe(self) -> &'static str {
        match self {
            DefKind::Patch => "patch",
            DefKind::Store => "store",
            DefKind::Inbound => "inbound copy",
        }
    }
}

/// One live definition.
#[derive(Debug, Clone, Copy)]
struct Def {
    kind: DefKind,
    epoch: usize,
    read: bool,
}

/// A patch word the minimizer can drop: its payload equals the value the
/// word is statically known to already hold at switch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Removal {
    /// Epoch index in the schedule.
    pub epoch: usize,
    /// Index into that epoch's `tiles` list (mirrors the `setups` order
    /// of a `cgra_sim::Epoch`, which may list a tile more than once).
    pub slot: usize,
    /// The tile the patch targets.
    pub tile: TileId,
    /// Index into the slot's `data_patches`.
    pub patch: usize,
    /// Word offset within that patch.
    pub word: usize,
    /// The (unchanged) value the word holds.
    pub value: i64,
}

/// Before/after Eq. 1 decomposition of one epoch switch.
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionSavings {
    /// Epoch index.
    pub epoch: usize,
    /// Epoch name.
    pub name: String,
    /// What the switch streams as scheduled.
    pub before: TransitionBreakdown,
    /// What it would stream with the removable patch words dropped.
    pub after: TransitionBreakdown,
}

impl TransitionSavings {
    /// Predicted Eq. 1 savings of minimizing this transition, ns.
    pub fn saved_ns(&self, cost: &CostModel) -> f64 {
        cost.data_reload_ns(self.before.data_words - self.after.data_words)
    }
}

/// Everything one lint run over a schedule produced.
#[derive(Debug, Clone, PartialEq)]
pub struct LintReport {
    /// Materialized findings (allowed lints are already dropped).
    pub diags: Vec<Diagnostic>,
    /// Patch words the minimizer may drop, in schedule order.
    pub removals: Vec<Removal>,
    /// Per-transition Eq. 1 decomposition, one entry per epoch.
    pub transitions: Vec<TransitionSavings>,
    /// The cost model the savings were priced with.
    pub cost: CostModel,
}

impl LintReport {
    /// True when any finding reached deny level.
    pub fn denied(&self) -> bool {
        cgra_verify::has_errors(&self.diags)
    }

    /// Findings of one code.
    pub fn count(&self, code: Code) -> usize {
        self.diags.iter().filter(|d| d.code == code).count()
    }

    /// Total predicted Eq. 1 savings of applying every removal, ns.
    pub fn saved_ns(&self) -> f64 {
        self.transitions
            .iter()
            .map(|t| t.saved_ns(&self.cost))
            .sum()
    }

    /// The removals targeting one `(epoch, slot)`, as `(patch, word)`
    /// pairs for [`crate::fix::minimize_patches`].
    pub fn removals_for(&self, epoch: usize, slot: usize) -> Vec<(usize, usize)> {
        self.removals
            .iter()
            .filter(|r| r.epoch == epoch && r.slot == slot)
            .map(|r| (r.patch, r.word))
            .collect()
    }
}

/// A kill event buffered for range-compressed reporting.
struct Kill {
    addr: usize,
    code: Code,
    def: Def,
}

/// Compresses kills into maximal runs of consecutive addresses that share
/// the code and the definition's kind/epoch, and emits one diagnostic per
/// run at the configured level.
fn emit_kills(
    diags: &mut Vec<Diagnostic>,
    levels: &LintLevels,
    mut kills: Vec<Kill>,
    tile: TileId,
    epoch: usize,
) {
    kills.sort_by_key(|k| k.addr);
    let mut i = 0;
    while i < kills.len() {
        let mut j = i + 1;
        while j < kills.len()
            && kills[j].addr == kills[j - 1].addr + 1
            && kills[j].code == kills[i].code
            && kills[j].def.kind == kills[i].def.kind
            && kills[j].def.epoch == kills[i].def.epoch
        {
            j += 1;
        }
        let (k, count) = (&kills[i], j - i);
        if let Some(sev) = levels.severity(k.code) {
            let span = if count == 1 {
                format!("d[{}]", k.addr)
            } else {
                format!("d[{}..{}]", k.addr, k.addr + count)
            };
            let what = match k.code {
                Code::ClobberByPatch => "reconfiguration patch destroys",
                Code::ClobberByCopy => "inbound copy overwrites",
                Code::ClobberByStore => "store overwrites",
                _ => "overwrite kills",
            };
            let message = if k.code == Code::DeadInit {
                format!(
                    "{span}: patched in epoch {} but overwritten before any program read it",
                    k.def.epoch
                )
            } else {
                format!(
                    "{span}: {what} data computed in epoch {} ({}) that no program read",
                    k.def.epoch,
                    k.def.kind.describe()
                )
            };
            diags.push(
                Diagnostic {
                    severity: sev,
                    ..Diagnostic::error(k.code, message)
                }
                .on_tile(tile)
                .in_epoch(epoch),
            );
        }
        i = j;
    }
}

/// Records a kill of any unconsumed definition at `addr` and installs the
/// new definition.
fn kill_and_define(
    state: &mut [Option<Def>],
    kills: &mut Vec<Kill>,
    addr: usize,
    killer: DefKind,
    epoch: usize,
) {
    if let Some(d) = state[addr] {
        if !d.read {
            let code = match d.kind {
                DefKind::Patch => Code::DeadInit,
                DefKind::Store | DefKind::Inbound => match killer {
                    DefKind::Patch => Code::ClobberByPatch,
                    DefKind::Inbound => Code::ClobberByCopy,
                    DefKind::Store => Code::ClobberByStore,
                },
            };
            kills.push(Kill { addr, code, def: d });
        }
    }
    state[addr] = Some(Def {
        kind: killer,
        epoch,
        read: false,
    });
}

/// Runs the whole-schedule lint pass. The schedule is assumed to already
/// pass [`cgra_verify::verify_schedule`] — lint findings on a schedule
/// the verifier rejects are not meaningful (overlapping patches, illegal
/// links and unknown tiles are skipped here, not re-reported). This is
/// the [`LintPass`] run alone on the schedule walk.
pub fn lint_schedule(
    mesh: Mesh,
    epochs: &[EpochSpec],
    levels: &LintLevels,
    cost: &CostModel,
) -> LintReport {
    let mut pass = LintPass::new(mesh, levels, cost);
    walk_schedule(mesh, epochs, &mut BoundCache::new(), &mut [&mut pass]);
    pass.finish()
}

/// The lint pass on the schedule walk: carries the definition state
/// across epochs and reads the checker's pre-epoch known values for the
/// reconfiguration-diff minimizer. [`LintPass::finish`] counts one
/// [`cgra_verify::Work::LintRun`].
#[derive(Debug)]
pub struct LintPass<'l> {
    mesh: Mesh,
    levels: &'l LintLevels,
    /// Per tile, per word: the live definition, if any.
    state: Vec<Vec<Option<Def>>>,
    /// Per tile: the last program image loaded.
    last_image: Vec<Option<Vec<u128>>>,
    prev_links: LinkConfig,
    /// The epoch switch in progress: its breakdown before minimization
    /// and the patch words found removable, from `before_epoch`.
    before: TransitionBreakdown,
    removed_here: usize,
    report: LintReport,
}

impl<'l> LintPass<'l> {
    /// A lint pass for a cold array on `mesh` at `levels`, pricing its
    /// savings under `cost`.
    pub fn new(mesh: Mesh, levels: &'l LintLevels, cost: &CostModel) -> LintPass<'l> {
        LintPass {
            mesh,
            levels,
            state: vec![vec![None; DATA_WORDS]; mesh.tiles()],
            last_image: vec![None; mesh.tiles()],
            prev_links: mesh.disconnected(),
            before: TransitionBreakdown::default(),
            removed_here: 0,
            report: LintReport {
                diags: Vec::new(),
                removals: Vec::new(),
                transitions: Vec::new(),
                cost: *cost,
            },
        }
    }

    /// The report over every epoch walked, with the end-of-schedule
    /// findings (patched words nothing ever consumed).
    pub fn finish(self) -> LintReport {
        cgra_verify::work::tally(cgra_verify::Work::LintRun);
        let LintPass {
            levels,
            state,
            mut report,
            ..
        } = self;
        // The report outlives the walk (a certified schedule keeps it):
        // hand back no growth slack.
        report.transitions.shrink_to_fit();
        let last_epoch = report.transitions.len().saturating_sub(1);
        for (t, words) in state.iter().enumerate() {
            let mut kills = Vec::new();
            for (addr, d) in words.iter().enumerate() {
                if let Some(d) = d {
                    if d.kind == DefKind::Patch && !d.read {
                        kills.push(Kill {
                            addr,
                            code: Code::DeadInit,
                            def: *d,
                        });
                    }
                }
            }
            // Stores and inbound copies surviving unread are the schedule's
            // outputs — never flagged. Range-compress and rewrite the message
            // for the end-of-schedule flavour.
            let mut diags = Vec::new();
            emit_kills(&mut diags, levels, kills, t, last_epoch);
            for mut d in diags {
                if let Some((span, _)) = d.message.split_once(':') {
                    d.message = format!("{span}: patched but never read by any program");
                }
                d.epoch = None;
                report.diags.push(d);
            }
        }
        report
    }
}

impl EpochPass for LintPass<'_> {
    /// Transition decomposition, and patches — redundancy and kills —
    /// against the pre-epoch state.
    fn before_epoch(&mut self, ei: usize, e: &EpochSpec, checker: &ScheduleChecker) {
        let (mesh, levels, cost) = (self.mesh, self.levels, self.report.cost);
        self.before = TransitionBreakdown {
            data_words: 0,
            instr_words: 0,
            links: self.prev_links.delta(e.links),
        };
        self.prev_links = e.links.clone();
        self.removed_here = 0;

        for (slot, spec) in e.tiles.iter().enumerate() {
            let t = spec.tile;
            if t >= mesh.tiles() {
                continue;
            }
            self.before.instr_words += spec.program.map_or(0, <[_]>::len);
            let mut kills = Vec::new();
            for (pi, p) in spec.data_patches.iter().enumerate() {
                self.before.data_words += p.len();
                if p.base + p.len() > DATA_WORDS {
                    continue; // verifier error; nothing sound to say here
                }
                let mut redundant = 0usize;
                for (wi, w) in p.words.iter().enumerate() {
                    let addr = p.base + wi;
                    let value = w.value();
                    if checker.known_value(t, addr) == Some(value) {
                        // No-op rewrite: removable, and the definition
                        // state is deliberately left untouched (the word
                        // neither gains nor loses a pending value).
                        redundant += 1;
                        self.removed_here += 1;
                        self.report.removals.push(Removal {
                            epoch: ei,
                            slot,
                            tile: t,
                            patch: pi,
                            word: wi,
                            value,
                        });
                    } else {
                        kill_and_define(&mut self.state[t], &mut kills, addr, DefKind::Patch, ei);
                    }
                }
                if redundant > 0 {
                    if let Some(sev) = levels.severity(Code::RedundantPatch) {
                        self.report.diags.push(
                            Diagnostic {
                                severity: sev,
                                ..Diagnostic::error(
                                    Code::RedundantPatch,
                                    format!(
                                        "data patch at d[{}]: {redundant}/{} words rewrite values \
                                         the memory already holds ({:.1} ns removable)",
                                        p.base,
                                        p.len(),
                                        cost.data_reload_ns(redundant)
                                    ),
                                )
                            }
                            .on_tile(t)
                            .in_epoch(ei),
                        );
                    }
                }
            }
            emit_kills(&mut self.report.diags, levels, kills, t, ei);
        }
    }

    /// Configuration-diff lints, then reads, inbound copies and stores
    /// against the definition state, from the epoch's effect summaries.
    fn epoch(&mut self, ei: usize, e: &EpochSpec, analysis: &EpochAnalysis, _: &mut BoundCache) {
        let (mesh, levels, cost) = (self.mesh, self.levels, self.report.cost);
        let (state, report) = (&mut self.state, &mut self.report);
        // --- Configuration-diff lints on the loaded programs. ------------
        for ta in &analysis.tiles {
            let image = encode_program(ta.prog);
            if self.last_image[ta.tile].as_ref() == Some(&image) {
                if let Some(sev) = levels.severity(Code::RedundantReload) {
                    report.diags.push(
                        Diagnostic {
                            severity: sev,
                            ..Diagnostic::error(
                                Code::RedundantReload,
                                format!(
                                    "tile reloaded with the {}-instruction image it already \
                                     holds ({:.0} ns of ICAP time; the reload re-arms the PE, \
                                     so it is reported, not removed)",
                                    image.len(),
                                    cost.instr_reload_ns(image.len())
                                ),
                            )
                        }
                        .on_tile(ta.tile)
                        .in_epoch(ei),
                    );
                }
            }
            self.last_image[ta.tile] = Some(image);
            if ta.summary.is_some() {
                let cfg = Cfg::build(ta.prog);
                let reachable = cfg.reachable();
                let dead: usize = cfg
                    .blocks
                    .iter()
                    .zip(&reachable)
                    .filter(|(_, r)| !**r)
                    .map(|(b, _)| b.end - b.start)
                    .sum();
                if dead > 0 {
                    if let Some(sev) = levels.severity(Code::UnreachableImem) {
                        report.diags.push(
                            Diagnostic {
                                severity: sev,
                                ..Diagnostic::error(
                                    Code::UnreachableImem,
                                    format!(
                                        "{dead} of {} instruction slots are unreachable from \
                                         the entry ({:.0} ns of ICAP reload wasted)",
                                        ta.prog.len(),
                                        cost.instr_reload_ns(dead)
                                    ),
                                )
                            }
                            .on_tile(ta.tile)
                            .in_epoch(ei),
                        );
                    }
                }
            }
        }

        // --- Reads consume definitions. ----------------------------------
        for ta in &analysis.tiles {
            let Some(s) = &ta.summary else { continue };
            let havoc = s.written.len() == DATA_WORDS;
            if s.read_unknown || havoc {
                // The program may read (or, havocked, may have written
                // after reading) anything: conservatively consume every
                // definition on the tile.
                for d in state[ta.tile].iter_mut().flatten() {
                    d.read = true;
                }
            } else {
                for addr in s.read.iter() {
                    if let Some(d) = &mut state[ta.tile][addr] {
                        d.read = true;
                    }
                }
            }
        }

        // --- Inbound T_copy writes kill and define. ----------------------
        let mut inbound_kills: Vec<(TileId, Vec<Kill>)> = Vec::new();
        for ta in &analysis.tiles {
            let Some(s) = &ta.summary else { continue };
            if !s.has_remote_write {
                continue;
            }
            let Some(dir) = e.links.get(ta.tile) else {
                continue; // verifier error (remote write, no link)
            };
            let Some(dst) = mesh.neighbour(ta.tile, dir) else {
                continue;
            };
            if s.remote_unknown {
                // Could land anywhere: consume everything, claim nothing.
                for d in state[dst].iter_mut().flatten() {
                    d.read = true;
                }
                continue;
            }
            let mut kills = Vec::new();
            for addr in s.remote_written.iter() {
                kill_and_define(&mut state[dst], &mut kills, addr, DefKind::Inbound, ei);
            }
            inbound_kills.push((dst, kills));
        }
        for (dst, kills) in inbound_kills {
            emit_kills(&mut report.diags, levels, kills, dst, ei);
        }

        // --- Program stores kill and define. -----------------------------
        for ta in &analysis.tiles {
            let Some(s) = &ta.summary else { continue };
            if s.written.len() == DATA_WORDS {
                continue; // havoc: already consumed everything above
            }
            let mut kills = Vec::new();
            for addr in s.written.iter() {
                kill_and_define(&mut state[ta.tile], &mut kills, addr, DefKind::Store, ei);
            }
            emit_kills(&mut report.diags, levels, kills, ta.tile, ei);
        }

        let after = TransitionBreakdown {
            data_words: self.before.data_words - self.removed_here,
            ..self.before
        };
        report.transitions.push(TransitionSavings {
            epoch: ei,
            name: e.name.to_string(),
            before: self.before,
            after,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::LintLevel;
    use cgra_fabric::{DataPatch, Word};
    use cgra_isa::ops::{at, d};
    use cgra_isa::{Instr, ProgramBuilder};
    use cgra_verify::TileSpec;

    fn patch(base: usize, vals: &[i64]) -> DataPatch {
        DataPatch::new(base, vals.iter().map(|&v| Word::wrap(v)).collect())
    }

    /// Reads each listed word into scratch space, then halts.
    fn reader(addrs: &[u16]) -> Vec<Instr> {
        let mut p = ProgramBuilder::new();
        for (i, &a) in addrs.iter().enumerate() {
            p.mov(d(100 + i as u16), d(a));
        }
        p.halt();
        p.build().expect("reader is valid")
    }

    /// Stores `v` to `d[addr]` and halts.
    fn writer(addr: u16, v: i32) -> Vec<Instr> {
        let mut p = ProgramBuilder::new();
        p.ldi(d(addr), v);
        p.halt();
        p.build().expect("writer is valid")
    }

    fn halt() -> Vec<Instr> {
        vec![Instr::Halt]
    }

    fn lint(mesh: Mesh, epochs: &[EpochSpec]) -> LintReport {
        lint_schedule(mesh, epochs, &LintLevels::new(), &CostModel::default())
    }

    #[test]
    fn repatching_known_values_is_redundant_and_removable() {
        let mesh = Mesh::new(1, 1);
        let links = mesh.disconnected();
        let read = reader(&[0, 1, 2, 3]);
        let p0 = [patch(0, &[1, 2, 3, 4])];
        let epochs = [
            EpochSpec {
                name: "load",
                links: &links,
                tiles: vec![TileSpec {
                    tile: 0,
                    program: Some(&read),
                    data_patches: &p0,
                }],
            },
            EpochSpec {
                name: "reload",
                links: &links,
                tiles: vec![TileSpec {
                    tile: 0,
                    program: Some(&read),
                    data_patches: &p0,
                }],
            },
        ];
        let r = lint(mesh, &epochs);
        assert_eq!(r.count(Code::RedundantPatch), 1, "{:#?}", r.diags);
        assert_eq!(r.count(Code::DeadInit), 0, "{:#?}", r.diags);
        assert!(!r.denied());
        assert_eq!(r.removals.len(), 4);
        assert_eq!(r.removals_for(1, 0), vec![(0, 0), (0, 1), (0, 2), (0, 3)]);
        assert!(
            r.removals_for(0, 0).is_empty(),
            "first send is not redundant"
        );
        assert_eq!(r.transitions[1].before.data_words, 4);
        assert_eq!(r.transitions[1].after.data_words, 0);
        let cost = CostModel::default();
        assert!((r.saved_ns() - cost.data_reload_ns(4)).abs() < 1e-9);
    }

    #[test]
    fn patch_over_unread_store_is_denied_with_provenance() {
        let mesh = Mesh::new(1, 1);
        let links = mesh.disconnected();
        let w = writer(5, 7);
        let p1 = [patch(5, &[9])];
        let epochs = [
            EpochSpec {
                name: "compute",
                links: &links,
                tiles: vec![TileSpec {
                    tile: 0,
                    program: Some(&w),
                    data_patches: &[],
                }],
            },
            EpochSpec {
                name: "switch",
                links: &links,
                tiles: vec![TileSpec {
                    tile: 0,
                    program: None,
                    data_patches: &p1,
                }],
            },
        ];
        let r = lint(mesh, &epochs);
        assert_eq!(r.count(Code::ClobberByPatch), 1, "{:#?}", r.diags);
        assert!(r.denied(), "clobber-by-patch denies by default");
        let diag = r
            .diags
            .iter()
            .find(|d| d.code == Code::ClobberByPatch)
            .unwrap();
        assert!(diag.message.contains("epoch 0"), "{}", diag.message);
        assert!(diag.message.contains("store"), "{}", diag.message);
        assert_eq!(diag.tile, Some(0));
        assert_eq!(diag.epoch, Some(1));
        assert!(
            r.removals.is_empty(),
            "a clobbering word is never removable"
        );
    }

    #[test]
    fn store_over_unread_store_warns() {
        let mesh = Mesh::new(1, 1);
        let links = mesh.disconnected();
        let w = writer(5, 7);
        let tiles = || {
            vec![TileSpec {
                tile: 0,
                program: Some(&w[..]),
                data_patches: &[][..],
            }]
        };
        let epochs = [
            EpochSpec {
                name: "first",
                links: &links,
                tiles: tiles(),
            },
            EpochSpec {
                name: "second",
                links: &links,
                tiles: tiles(),
            },
        ];
        let r = lint(mesh, &epochs);
        assert_eq!(r.count(Code::ClobberByStore), 1, "{:#?}", r.diags);
        assert!(!r.denied(), "clobber-by-store warns by default");
    }

    #[test]
    fn patched_word_nothing_reads_is_dead_init() {
        let mesh = Mesh::new(1, 1);
        let links = mesh.disconnected();
        let h = halt();
        let p0 = [patch(0, &[5])];
        let epochs = [EpochSpec {
            name: "only",
            links: &links,
            tiles: vec![TileSpec {
                tile: 0,
                program: Some(&h),
                data_patches: &p0,
            }],
        }];
        let r = lint(mesh, &epochs);
        assert_eq!(r.count(Code::DeadInit), 1, "{:#?}", r.diags);
        let diag = r.diags.iter().find(|d| d.code == Code::DeadInit).unwrap();
        assert!(diag.message.contains("never read"), "{}", diag.message);
        assert_eq!(diag.epoch, None, "end-of-schedule finding has no epoch");
        assert!(!r.denied());
    }

    #[test]
    fn identical_reload_is_reported_only_when_levelled_up() {
        let mesh = Mesh::new(1, 1);
        let links = mesh.disconnected();
        let h = halt();
        let tile = || {
            vec![TileSpec {
                tile: 0,
                program: Some(&h[..]),
                data_patches: &[][..],
            }]
        };
        let epochs = [
            EpochSpec {
                name: "arm",
                links: &links,
                tiles: tile(),
            },
            EpochSpec {
                name: "rearm",
                links: &links,
                tiles: tile(),
            },
        ];
        let quiet = lint(mesh, &epochs);
        assert_eq!(
            quiet.count(Code::RedundantReload),
            0,
            "allowed by default: a reload is how a halted PE is re-armed"
        );
        let mut levels = LintLevels::new();
        levels.set(Code::RedundantReload, LintLevel::Warn);
        let loud = lint_schedule(mesh, &epochs, &levels, &CostModel::default());
        assert_eq!(loud.count(Code::RedundantReload), 1, "{:#?}", loud.diags);
        let diag = loud
            .diags
            .iter()
            .find(|d| d.code == Code::RedundantReload)
            .unwrap();
        assert_eq!(diag.epoch, Some(1));
    }

    #[test]
    fn instructions_after_halt_are_unreachable_imem() {
        let mesh = Mesh::new(1, 1);
        let links = mesh.disconnected();
        let prog = vec![
            Instr::Halt,
            Instr::Mov {
                dst: d(0),
                a: cgra_isa::ops::imm(1),
            },
        ];
        let epochs = [EpochSpec {
            name: "e0",
            links: &links,
            tiles: vec![TileSpec {
                tile: 0,
                program: Some(&prog),
                data_patches: &[],
            }],
        }];
        let r = lint(mesh, &epochs);
        assert_eq!(r.count(Code::UnreachableImem), 1, "{:#?}", r.diags);
        let diag = r
            .diags
            .iter()
            .find(|d| d.code == Code::UnreachableImem)
            .unwrap();
        assert!(diag.message.contains("1 of 2"), "{}", diag.message);
    }

    #[test]
    fn unresolvable_reads_conservatively_consume_everything() {
        // A loop reading through a post-incremented AR joins the register
        // to unknown, so the summary says "may read anything". The pass
        // must then treat every pending definition as consumed: no
        // dead-init finding, and no removal can be claimed later.
        let mesh = Mesh::new(1, 1);
        let links = mesh.disconnected();
        let mut p = ProgramBuilder::new();
        p.ldar(0, 0);
        p.ldi(d(120), 4);
        let l = p.here_label();
        p.mov(d(121), at(0));
        p.adar(0, 1);
        p.djnz(d(120), l);
        p.halt();
        let sweep = p.build().expect("sweeping reader is valid");
        let p0 = [patch(50, &[3])];
        let epochs = [EpochSpec {
            name: "sweep",
            links: &links,
            tiles: vec![TileSpec {
                tile: 0,
                program: Some(&sweep),
                data_patches: &p0,
            }],
        }];
        let r = lint(mesh, &epochs);
        assert_eq!(r.count(Code::DeadInit), 0, "{:#?}", r.diags);
        assert!(r.removals.is_empty());
    }
}
