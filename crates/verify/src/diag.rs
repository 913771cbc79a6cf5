//! Structured, machine-readable diagnostics.
//!
//! Every pass reports findings as [`Diagnostic`] values: a severity, a
//! stable [`Code`], a human-readable message, and an optional location
//! (tile / epoch / pc). Callers filter on [`Severity::Error`] to gate
//! execution and can match on [`Code`] without parsing strings.

use cgra_fabric::TileId;

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not certainly fatal (e.g. dead code).
    Warning,
    /// The program or schedule is certainly broken.
    Error,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable identifier of each defect class the verifier detects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Code {
    /// An instruction fails [`cgra_isa::Instr::validate`].
    InvalidInstr,
    /// The program is empty (a PE would fall straight off the end).
    EmptyProgram,
    /// The program exceeds the 512-slot instruction memory.
    ImemOverflow,
    /// A basic block can never be reached from the entry.
    Unreachable,
    /// A reachable path can loop forever without retiring `halt`.
    NoHaltPath,
    /// Execution can run past the last instruction without a `halt`.
    FallsOffEnd,
    /// An address register is used before any `ldar` defines it.
    ArUseBeforeLoad,
    /// A read of a data-memory word that no patch, store, or inbound
    /// remote write ever initialized.
    UninitRead,
    /// A program performs a remote write but the tile has no active
    /// outgoing link in that epoch.
    RemoteWriteNoLink,
    /// A link points off the mesh or the config covers unknown tiles.
    IllegalLink,
    /// An epoch reconfigures a tile outside the mesh.
    UnknownTile,
    /// A data patch runs past the 512-word data memory.
    PatchOutOfRange,
    /// Two data patches in the same epoch rewrite the same word.
    PatchOverlap,
    /// A process's data footprint exceeds the 512-word tile memory.
    DataBudget,
    /// Two tiles remote-write the same word of the same destination tile
    /// within one epoch — which value survives depends on cycle timing.
    RaceWriteWrite,
    /// A tile remote-writes a word the destination tile's own program
    /// also writes in the same epoch (a lost update).
    RaceLostUpdate,
    /// A tile remote-writes a word the destination tile's program reads
    /// in the same epoch — the value observed depends on arrival order.
    RaceReadWrite,
    /// Tiles in an epoch spin on words only each other write — a
    /// possible cross-tile deadlock on blocking links.
    CyclicWait,
    /// The WCET engine could not infer a constant trip count for a loop,
    /// so the program's worst-case cycle bound is unbounded.
    UnboundedLoop,
    /// An epoch's static cycle bound is at or over its cycle budget.
    DeadlineRisk,
    /// A reconfiguration patch overwrites computed data (an earlier store
    /// or inbound copy) that no program ever read.
    ClobberByPatch,
    /// A T_copy inbound write overwrites computed data that no program
    /// ever read.
    ClobberByCopy,
    /// A program store overwrites another epoch's computed data that no
    /// program ever read.
    ClobberByStore,
    /// A patched (ICAP-initialized) word is never read by any subsequent
    /// program before it is overwritten or the schedule ends.
    DeadInit,
    /// A patch word rewrites a value the word already holds — removable
    /// without changing any memory state (Eq. 1 savings).
    RedundantPatch,
    /// A tile is reloaded with the byte-identical program image it
    /// already holds (charged at instruction-word ICAP rates; kept
    /// because a reload is what re-arms a halted PE).
    RedundantReload,
    /// Instruction-memory slots unreachable from the entry are streamed
    /// through the ICAP anyway — wasted reconfiguration time.
    UnreachableImem,
    /// A tile has a provably-idle cycle window in an epoch that could
    /// hide reconfiguration streaming (informational; the hoisting
    /// planner's raw material).
    IdleWindow,
    /// A candidate hoist would interfere with live state or shadow-plane
    /// occupancy — the non-interference proof did not discharge.
    HoistInterference,
    /// A tile rewrite was hoisted into earlier idle epochs with all three
    /// certificates (idle-window, non-interference, WCET-containment)
    /// discharged.
    HoistApplied,
    /// A scheduled prefetch whose certificates fail re-verification — the
    /// hoisted schedule is certainly broken and must not run.
    HoistRefused,
    /// A tile's provably-inactive cycle interval within an epoch: the
    /// stall head plus any exact-WCET idle suffix. The event-driven
    /// engine may skip the tile outside its activity interval.
    ActivityInterval,
    /// Tiles of an epoch partitioned into independence classes: tiles in
    /// different classes provably exchange no words, so classes may be
    /// stepped in parallel.
    IndependenceClass,
    /// An [`crate::activity::ActivityCertificate`] failed independent
    /// re-verification — the event-driven engine must not consume it and
    /// falls back to the bit-exact serial interpreter.
    CertificateRefused,
    /// A schedule's proven fabric footprint: the tiles, directed links
    /// (with word-count bandwidth ceilings), memory regions, and shadow
    /// slots it may touch. Informational — the co-residency machinery
    /// composes schedules whose footprints are disjoint.
    Footprint,
    /// A resource claim outside a certified footprint: the merged
    /// schedule (or an observed execution) touches a tile, link, or
    /// memory region the certificate never claimed.
    FootprintExceeded,
    /// Two schedules claim the same fabric resource — a shared tile, a
    /// shared directed link (or a per-link bandwidth sum over capacity),
    /// or a shared shadow-plane slot — so they cannot co-reside.
    OverlapConflict,
    /// A [`crate::footprint::FootprintCertificate`] failed independent
    /// re-verification — no consumer may admit the schedule onto a
    /// shared fabric on its claims.
    FootprintRefused,
}

impl Code {
    /// Every defect class, in V-number then L-number order. The registry
    /// the README table is checked against; append new codes here.
    pub const ALL: [Code; 38] = [
        Code::InvalidInstr,
        Code::EmptyProgram,
        Code::ImemOverflow,
        Code::Unreachable,
        Code::NoHaltPath,
        Code::FallsOffEnd,
        Code::ArUseBeforeLoad,
        Code::UninitRead,
        Code::RemoteWriteNoLink,
        Code::IllegalLink,
        Code::UnknownTile,
        Code::PatchOutOfRange,
        Code::PatchOverlap,
        Code::DataBudget,
        Code::RaceWriteWrite,
        Code::RaceLostUpdate,
        Code::RaceReadWrite,
        Code::CyclicWait,
        Code::UnboundedLoop,
        Code::DeadlineRisk,
        Code::ActivityInterval,
        Code::IndependenceClass,
        Code::CertificateRefused,
        Code::Footprint,
        Code::FootprintExceeded,
        Code::OverlapConflict,
        Code::FootprintRefused,
        Code::ClobberByPatch,
        Code::ClobberByCopy,
        Code::ClobberByStore,
        Code::DeadInit,
        Code::RedundantPatch,
        Code::RedundantReload,
        Code::UnreachableImem,
        Code::IdleWindow,
        Code::HoistInterference,
        Code::HoistApplied,
        Code::HoistRefused,
    ];

    /// Short machine-readable identifier, e.g. `V007`.
    pub fn id(self) -> &'static str {
        match self {
            Code::InvalidInstr => "V001",
            Code::EmptyProgram => "V002",
            Code::ImemOverflow => "V003",
            Code::Unreachable => "V004",
            Code::NoHaltPath => "V005",
            Code::FallsOffEnd => "V006",
            Code::ArUseBeforeLoad => "V007",
            Code::UninitRead => "V008",
            Code::RemoteWriteNoLink => "V009",
            Code::IllegalLink => "V010",
            Code::UnknownTile => "V011",
            Code::PatchOutOfRange => "V012",
            Code::PatchOverlap => "V013",
            Code::DataBudget => "V014",
            Code::RaceWriteWrite => "V100",
            Code::RaceLostUpdate => "V101",
            Code::RaceReadWrite => "V102",
            Code::CyclicWait => "V103",
            Code::UnboundedLoop => "V110",
            Code::DeadlineRisk => "V111",
            Code::ActivityInterval => "V120",
            Code::IndependenceClass => "V121",
            Code::CertificateRefused => "V122",
            Code::Footprint => "V130",
            Code::FootprintExceeded => "V131",
            Code::OverlapConflict => "V132",
            Code::FootprintRefused => "V133",
            Code::ClobberByPatch => "L001",
            Code::ClobberByCopy => "L002",
            Code::ClobberByStore => "L003",
            Code::DeadInit => "L004",
            Code::RedundantPatch => "L005",
            Code::RedundantReload => "L006",
            Code::UnreachableImem => "L007",
            Code::IdleWindow => "L008",
            Code::HoistInterference => "L009",
            Code::HoistApplied => "L010",
            Code::HoistRefused => "L011",
        }
    }

    /// Kebab-case name of the defect class.
    pub fn name(self) -> &'static str {
        match self {
            Code::InvalidInstr => "invalid-instr",
            Code::EmptyProgram => "empty-program",
            Code::ImemOverflow => "imem-overflow",
            Code::Unreachable => "unreachable",
            Code::NoHaltPath => "no-halt-path",
            Code::FallsOffEnd => "falls-off-end",
            Code::ArUseBeforeLoad => "ar-use-before-load",
            Code::UninitRead => "uninit-read",
            Code::RemoteWriteNoLink => "remote-write-no-link",
            Code::IllegalLink => "illegal-link",
            Code::UnknownTile => "unknown-tile",
            Code::PatchOutOfRange => "patch-out-of-range",
            Code::PatchOverlap => "patch-overlap",
            Code::DataBudget => "data-budget",
            Code::RaceWriteWrite => "race-write-write",
            Code::RaceLostUpdate => "race-lost-update",
            Code::RaceReadWrite => "race-read-write",
            Code::CyclicWait => "cyclic-wait",
            Code::UnboundedLoop => "unbounded-loop",
            Code::DeadlineRisk => "deadline-risk",
            Code::ActivityInterval => "activity-interval",
            Code::IndependenceClass => "independence-class",
            Code::CertificateRefused => "certificate-refused",
            Code::Footprint => "footprint",
            Code::FootprintExceeded => "footprint-exceeded",
            Code::OverlapConflict => "overlap-conflict",
            Code::FootprintRefused => "footprint-refused",
            Code::ClobberByPatch => "clobber-by-patch",
            Code::ClobberByCopy => "clobber-by-copy",
            Code::ClobberByStore => "clobber-by-store",
            Code::DeadInit => "never-read-init",
            Code::RedundantPatch => "redundant-patch-word",
            Code::RedundantReload => "redundant-program-reload",
            Code::UnreachableImem => "unreachable-imem",
            Code::IdleWindow => "idle-window",
            Code::HoistInterference => "hoist-interference",
            Code::HoistApplied => "hoist-applied",
            Code::HoistRefused => "hoist-refused",
        }
    }

    /// One-line description of the defect class (drives the README table).
    pub fn describe(self) -> &'static str {
        match self {
            Code::InvalidInstr => "an instruction fails ISA validation",
            Code::EmptyProgram => "the program is empty",
            Code::ImemOverflow => "the program exceeds the 512-slot instruction memory",
            Code::Unreachable => "a basic block can never be reached from the entry",
            Code::NoHaltPath => "a reachable path can loop forever without retiring halt",
            Code::FallsOffEnd => "execution can run past the last instruction",
            Code::ArUseBeforeLoad => "an address register is used before any ldar defines it",
            Code::UninitRead => "a read of a data-memory word nothing initialized",
            Code::RemoteWriteNoLink => "a remote write with no active outgoing link",
            Code::IllegalLink => "a link points off the mesh or covers unknown tiles",
            Code::UnknownTile => "an epoch reconfigures a tile outside the mesh",
            Code::PatchOutOfRange => "a data patch runs past the 512-word data memory",
            Code::PatchOverlap => "two data patches in one epoch rewrite the same word",
            Code::DataBudget => "a process's data footprint exceeds the tile memory",
            Code::RaceWriteWrite => "two tiles remote-write the same destination word in one epoch",
            Code::RaceLostUpdate => "a remote write collides with the destination's own write",
            Code::RaceReadWrite => "a remote write lands on a word the destination reads",
            Code::CyclicWait => "tiles spin on words only each other write (possible deadlock)",
            Code::UnboundedLoop => "no constant trip count; worst-case cycles unbounded",
            Code::DeadlineRisk => "an epoch's static cycle bound reaches its budget",
            Code::ActivityInterval => "a tile's provably-inactive cycle interval within an epoch",
            Code::IndependenceClass => "tiles partitioned into classes that exchange no words",
            Code::CertificateRefused => "an activity certificate failed re-verification or does not cover the runner's state",
            Code::Footprint => {
                "a schedule's proven fabric footprint (tiles, links, memory, shadow slots)"
            }
            Code::FootprintExceeded => "a resource claim outside a certified footprint",
            Code::OverlapConflict => {
                "two schedules claim the same fabric resource and cannot co-reside"
            }
            Code::FootprintRefused => "a footprint certificate failed re-verification",
            Code::ClobberByPatch => "a reconfiguration patch overwrites unread computed data",
            Code::ClobberByCopy => "an inbound copy overwrites unread computed data",
            Code::ClobberByStore => "a store overwrites another epoch's unread computed data",
            Code::DeadInit => "a patched word is never read by any subsequent program",
            Code::RedundantPatch => "a patch word rewrites a value the word already holds",
            Code::RedundantReload => "a tile is reloaded with the program image it already holds",
            Code::UnreachableImem => "unreachable instruction slots waste ICAP reload time",
            Code::IdleWindow => "a tile's provably-idle cycles could hide reconfiguration",
            Code::HoistInterference => "a candidate hoist fails its non-interference proof",
            Code::HoistApplied => "a tile rewrite was hoisted with all certificates discharged",
            Code::HoistRefused => "a scheduled prefetch whose certificates fail re-verification",
        }
    }
}

/// One finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// The defect class.
    pub code: Code,
    /// Human-readable detail.
    pub message: String,
    /// Tile the finding concerns, when known.
    pub tile: Option<TileId>,
    /// Epoch index in the schedule, when schedule-level.
    pub epoch: Option<usize>,
    /// Program counter of the offending instruction, when program-level.
    pub pc: Option<usize>,
    /// Data-memory word address the finding concerns, when word-level
    /// (e.g. the first word of a hoisted or interfering patch).
    pub word: Option<usize>,
}

impl Diagnostic {
    /// Builds an error.
    pub fn error(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Error,
            code,
            message: message.into(),
            tile: None,
            epoch: None,
            pc: None,
            word: None,
        }
    }

    /// Builds a warning.
    pub fn warning(code: Code, message: impl Into<String>) -> Diagnostic {
        Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::error(code, message)
        }
    }

    /// Attaches a program counter.
    pub fn at_pc(mut self, pc: usize) -> Diagnostic {
        self.pc = Some(pc);
        self
    }

    /// Attaches a tile.
    pub fn on_tile(mut self, tile: TileId) -> Diagnostic {
        self.tile = Some(tile);
        self
    }

    /// Attaches an epoch index.
    pub fn in_epoch(mut self, epoch: usize) -> Diagnostic {
        self.epoch = Some(epoch);
        self
    }

    /// Attaches a data-memory word address.
    pub fn at_word(mut self, word: usize) -> Diagnostic {
        self.word = Some(word);
        self
    }

    /// True for [`Severity::Error`].
    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}[{} {}]",
            self.severity,
            self.code.id(),
            self.code.name()
        )?;
        if let Some(t) = self.tile {
            write!(f, " tile {t}")?;
        }
        if let Some(e) = self.epoch {
            write!(f, " epoch {e}")?;
        }
        if let Some(pc) = self.pc {
            write!(f, " pc {pc}")?;
        }
        if let Some(w) = self.word {
            write!(f, " word {w}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// True when any diagnostic is an error.
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(Diagnostic::is_error)
}

/// The errors among `diags`.
pub fn errors(diags: &[Diagnostic]) -> impl Iterator<Item = &Diagnostic> {
    diags.iter().filter(|d| d.is_error())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_location() {
        let d = Diagnostic::error(Code::UninitRead, "read of d[7]")
            .on_tile(3)
            .in_epoch(1)
            .at_pc(12);
        let s = d.to_string();
        assert!(s.contains("error"));
        assert!(s.contains("V008"));
        assert!(s.contains("uninit-read"));
        assert!(s.contains("tile 3"));
        assert!(s.contains("epoch 1"));
        assert!(s.contains("pc 12"));
        assert!(s.contains("read of d[7]"));
    }

    #[test]
    fn registry_ids_unique_stable_and_described() {
        let mut seen = std::collections::HashSet::new();
        for c in Code::ALL {
            let id = c.id();
            assert!(seen.insert(id), "duplicate diagnostic id {id}");
            assert!(
                id.len() == 4
                    && (id.starts_with('V') || id.starts_with('L'))
                    && id[1..].chars().all(|ch| ch.is_ascii_digit()),
                "malformed id {id}"
            );
            assert!(!c.name().is_empty() && !c.describe().is_empty());
            assert!(
                c.name()
                    .chars()
                    .all(|ch| ch.is_ascii_lowercase() || ch == '-'),
                "name not kebab-case: {}",
                c.name()
            );
        }
        // V-numbers are stable: program/schedule codes stay below V100,
        // concurrency codes sit at V10x, timing codes at V11x. Lint codes
        // live in their own L namespace.
        assert_eq!(Code::InvalidInstr.id(), "V001");
        assert_eq!(Code::DataBudget.id(), "V014");
        assert_eq!(Code::RaceWriteWrite.id(), "V100");
        assert_eq!(Code::UnboundedLoop.id(), "V110");
        assert_eq!(Code::ClobberByPatch.id(), "L001");
        assert_eq!(Code::UnreachableImem.id(), "L007");
    }

    #[test]
    fn severity_orders() {
        assert!(Severity::Error > Severity::Warning);
        let diags = vec![
            Diagnostic::warning(Code::Unreachable, "dead"),
            Diagnostic::error(Code::ImemOverflow, "big"),
        ];
        assert!(has_errors(&diags));
        assert_eq!(errors(&diags).count(), 1);
    }
}
