//! The program-level pass pipeline.
//!
//! [`verify_program`] runs, in order: per-instruction validation
//! ([`cgra_isa::IsaError`] findings become [`Code::InvalidInstr`]),
//! capacity checks, CFG construction, the termination pass, the
//! address-register pass, and the abstract data-memory pass. Passes that
//! need a well-formed program are skipped when an earlier pass already
//! found structural errors.

use crate::ars::check_ar_loads;
use crate::capacity::check_program_size;
use crate::cfg::Cfg;
use crate::diag::{Code, Diagnostic};
use crate::dmem::{self, ConstMap, DmemSummary, WordSet};
use cgra_isa::Instr;

/// Which data-memory words the verifier may assume initialized before
/// the program runs.
#[derive(Debug, Clone, Default)]
pub enum DmemInit {
    /// Nothing is initialized (a cold tile).
    #[default]
    Nothing,
    /// Everything may be initialized (e.g. the host poked unknown words);
    /// disables uninitialized-read findings.
    Everything,
    /// Exactly these words may be initialized.
    Words(WordSet),
}

impl DmemInit {
    /// The may-initialized word set this precondition denotes.
    pub(crate) fn as_set(&self) -> WordSet {
        match self {
            DmemInit::Nothing => WordSet::empty(),
            DmemInit::Everything => WordSet::full(),
            DmemInit::Words(w) => *w,
        }
    }
}

/// Preconditions under which a program is verified.
#[derive(Debug, Clone, Default)]
pub struct VerifyOptions {
    /// Data-memory words assumed initialized at entry.
    pub dmem_init: DmemInit,
    /// Data-memory words whose *value* is statically known at entry
    /// (data patches); lets `ldar` through a patched variable resolve
    /// and gives `djnz` counters constant trip counts.
    pub dmem_consts: ConstMap,
    /// True when the tile inherits address registers from a previous
    /// epoch (suppresses use-before-`ldar` findings and makes AR values
    /// unknown to the data-memory pass).
    pub ars_preloaded: bool,
}

/// Verifies a program under the default preconditions (cold tile,
/// nothing initialized).
pub fn verify_program(prog: &[Instr]) -> Vec<Diagnostic> {
    verify_program_with(prog, &VerifyOptions::default())
}

/// Verifies a program under explicit preconditions.
pub fn verify_program_with(prog: &[Instr], opts: &VerifyOptions) -> Vec<Diagnostic> {
    analyze_program(prog, opts).0
}

/// Full analysis: diagnostics plus the memory summary the schedule
/// verifier threads across epochs. The summary is `None` when structural
/// errors prevented the dataflow passes from running.
pub fn analyze_program(
    prog: &[Instr],
    opts: &VerifyOptions,
) -> (Vec<Diagnostic>, Option<DmemSummary>) {
    crate::work::tally(crate::work::Work::ProgramAnalysis);
    let mut diags = Vec::new();
    for (pc, i) in prog.iter().enumerate() {
        if let Err(e) = i.validate() {
            diags.push(Diagnostic::error(Code::InvalidInstr, e.to_string()).at_pc(pc));
        }
    }
    diags.extend(check_program_size(prog));
    if crate::diag::has_errors(&diags) {
        return (diags, None);
    }

    let cfg = Cfg::build(prog);
    diags.extend(crate::term::check_termination(prog, &cfg));
    diags.extend(check_ar_loads(prog, &cfg, opts.ars_preloaded));
    let summary = dmem::analyze(
        prog,
        &cfg,
        &opts.dmem_init.as_set(),
        &opts.dmem_consts,
        !opts.ars_preloaded,
    );
    diags.extend(summary.diags.clone());
    (diags, Some(summary))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_isa::ops::{d, imm};
    use cgra_isa::{Instr, Operand};

    #[test]
    fn clean_program_verifies_clean() {
        let prog = vec![
            Instr::Ldi { dst: d(0), imm: 4 },
            Instr::Ldi { dst: d(1), imm: 0 },
            Instr::Add {
                dst: d(1),
                a: d(1),
                b: imm(2),
            },
            Instr::Djnz {
                dst: d(0),
                target: 2,
            },
            Instr::Halt,
        ];
        assert_eq!(verify_program(&prog), vec![]);
    }

    #[test]
    fn invalid_instruction_reported_with_pc() {
        let prog = vec![
            Instr::Mov {
                dst: Operand::Imm(3),
                a: d(0),
            },
            Instr::Halt,
        ];
        let diags = verify_program(&prog);
        assert!(diags
            .iter()
            .any(|d| d.code == Code::InvalidInstr && d.pc == Some(0) && d.is_error()));
    }

    #[test]
    fn structural_errors_skip_dataflow() {
        let (diags, summary) = analyze_program(&[], &VerifyOptions::default());
        assert!(crate::diag::has_errors(&diags));
        assert!(summary.is_none());
    }

    #[test]
    fn options_thread_through() {
        // Reads d[100] cold: warning. With Everything: clean.
        let prog = vec![
            Instr::Mov {
                dst: d(0),
                a: d(100),
            },
            Instr::Halt,
        ];
        assert!(!verify_program(&prog).is_empty());
        let opts = VerifyOptions {
            dmem_init: DmemInit::Everything,
            ..VerifyOptions::default()
        };
        assert!(verify_program_with(&prog, &opts).is_empty());
    }
}
