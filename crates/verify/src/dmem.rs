//! Abstract interpretation over the 512-word data memory.
//!
//! The abstract state tracks, per program point:
//!
//! * a **may-init** word set — every word some path may have initialized
//!   (by the caller-supplied precondition, a local store, or — at the
//!   schedule level — a data patch or inbound remote write), joined by
//!   union,
//! * an abstract value per address register — `Const(a)` when every path
//!   agrees on the register's value, else `Unknown` — so indirect
//!   accesses with statically-known bases resolve to concrete addresses,
//! * a **must-const** map of data-memory words whose value every path
//!   agrees on ([`ConstMap`]) — seeded by data patches at the schedule
//!   level — so `ldar` through a patched variable (the paper's vcp copy
//!   variables) resolves to a constant register, and `djnz` counters
//!   loaded by `ldi` yield constant trip counts for the WCET engine.
//!
//! A read of a word **not** in the may-init set is *definitely*
//! uninitialized on every path and is reported ([`Code::UninitRead`]).
//! Because the set over-approximates, the pass never produces a false
//! positive from path merging; the price is false *negatives*: a store
//! through an `Unknown` register havocs the whole set (it may have
//! initialized anything), silencing later reads. Reads through `Unknown`
//! registers are never reported for the same reason. Remote writes are
//! collected separately so the schedule verifier can credit them to the
//! neighbour's memory; local reads are collected so the race detector
//! can intersect them with inbound writes.

use crate::cfg::Cfg;
use crate::diag::{Code, Diagnostic};
use cgra_fabric::{Word, DATA_WORDS};
use cgra_isa::{Instr, Operand, NUM_AR};

/// A set of data-memory word addresses (0..512).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordSet([u64; DATA_WORDS / 64]);

impl WordSet {
    /// The empty set.
    pub fn empty() -> WordSet {
        WordSet([0; DATA_WORDS / 64])
    }

    /// The full set (all 512 words).
    pub fn full() -> WordSet {
        WordSet([!0; DATA_WORDS / 64])
    }

    /// Adds `addr` (mod 512, matching the PE's address wrap).
    pub fn insert(&mut self, addr: usize) {
        let a = addr % DATA_WORDS;
        self.0[a / 64] |= 1 << (a % 64);
    }

    /// Adds `count` words starting at `base`.
    pub fn insert_range(&mut self, base: usize, count: usize) {
        for a in base..base + count {
            self.insert(a);
        }
    }

    /// True when `addr` is in the set.
    pub fn contains(&self, addr: usize) -> bool {
        let a = addr % DATA_WORDS;
        self.0[a / 64] & (1 << (a % 64)) != 0
    }

    /// In-place union.
    pub fn union(&mut self, other: &WordSet) {
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a |= b;
        }
    }

    /// The intersection of two sets.
    pub fn intersection(&self, other: &WordSet) -> WordSet {
        let mut out = *self;
        for (a, b) in out.0.iter_mut().zip(other.0.iter()) {
            *a &= b;
        }
        out
    }

    /// True when the two sets share at least one word.
    pub fn intersects(&self, other: &WordSet) -> bool {
        self.0.iter().zip(other.0.iter()).any(|(a, b)| a & b != 0)
    }

    /// The set as a bitmap: bit `a % 64` of word `a / 64` for address `a`.
    pub(crate) fn bits(&self) -> [u64; DATA_WORDS / 64] {
        self.0
    }

    /// Iterates the addresses in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..DATA_WORDS).filter(move |&a| self.contains(a))
    }

    /// Number of words in the set.
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True when no word is in the set.
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }
}

impl Default for WordSet {
    fn default() -> WordSet {
        WordSet::empty()
    }
}

/// Data-memory words whose value is statically known (a *must* property:
/// every path agrees). Seeded by data patches at the schedule level and
/// maintained through `ldi`/`mov`/`add`/`sub`/`djnz` transfers.
#[derive(Debug, Clone)]
pub struct ConstMap {
    known: WordSet,
    vals: Vec<i64>,
}

impl ConstMap {
    /// A map with no known words.
    pub fn empty() -> ConstMap {
        ConstMap {
            known: WordSet::empty(),
            vals: vec![0; DATA_WORDS],
        }
    }

    /// The known value of `d[addr]`, if any.
    pub fn get(&self, addr: usize) -> Option<i64> {
        let a = addr % DATA_WORDS;
        if self.known.contains(a) {
            Some(self.vals[a])
        } else {
            None
        }
    }

    /// Records `d[addr] = v`.
    pub fn set(&mut self, addr: usize, v: i64) {
        let a = addr % DATA_WORDS;
        self.known.insert(a);
        self.vals[a] = v;
    }

    /// Forgets `d[addr]`.
    pub fn clear(&mut self, addr: usize) {
        let a = addr % DATA_WORDS;
        if self.known.contains(a) {
            let mut keep = WordSet::empty();
            for w in self.known.iter().filter(|&w| w != a) {
                keep.insert(w);
            }
            self.known = keep;
        }
    }

    /// Forgets every word in `set`.
    pub fn clear_set(&mut self, set: &WordSet) {
        let mut keep = WordSet::empty();
        for w in self.known.iter().filter(|&w| !set.contains(w)) {
            keep.insert(w);
        }
        self.known = keep;
    }

    /// Forgets everything.
    pub fn clear_all(&mut self) {
        self.known = WordSet::empty();
    }

    /// True when no word is known.
    pub fn is_empty(&self) -> bool {
        self.known.is_empty()
    }

    /// The words whose value is known.
    pub fn known(&self) -> WordSet {
        self.known
    }

    /// Must-join: keeps only words both maps know with equal values.
    pub fn join(&mut self, other: &ConstMap) {
        let mut keep = WordSet::empty();
        for a in self.known.iter() {
            if other.get(a) == Some(self.vals[a]) {
                keep.insert(a);
            }
        }
        self.known = keep;
    }
}

impl Default for ConstMap {
    fn default() -> ConstMap {
        ConstMap::empty()
    }
}

impl PartialEq for ConstMap {
    fn eq(&self, other: &ConstMap) -> bool {
        self.known == other.known && self.known.iter().all(|a| self.vals[a] == other.vals[a])
    }
}

impl Eq for ConstMap {}

/// Abstract address-register value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArVal {
    Const(u16),
    Unknown,
}

impl ArVal {
    fn join(self, other: ArVal) -> ArVal {
        match (self, other) {
            (ArVal::Const(a), ArVal::Const(b)) if a == b => ArVal::Const(a),
            _ => ArVal::Unknown,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct AbsState {
    pub(crate) init: WordSet,
    pub(crate) ar: [ArVal; NUM_AR],
    pub(crate) consts: ConstMap,
}

impl AbsState {
    pub(crate) fn entry(preinit: &WordSet, preconsts: &ConstMap, ars_known_zero: bool) -> AbsState {
        AbsState {
            init: *preinit,
            ar: [if ars_known_zero {
                ArVal::Const(0)
            } else {
                ArVal::Unknown
            }; NUM_AR],
            consts: preconsts.clone(),
        }
    }

    fn join(&mut self, other: &AbsState) -> bool {
        let before = self.clone();
        self.init.union(&other.init);
        for k in 0..NUM_AR {
            self.ar[k] = self.ar[k].join(other.ar[k]);
        }
        self.consts.join(&other.consts);
        *self != before
    }

    pub(crate) fn addr_of(&self, ar: u8, disp: u8) -> Option<usize> {
        match self.ar_val(ar) {
            ArVal::Const(c) => Some((c as usize + disp as usize) % DATA_WORDS),
            ArVal::Unknown => None,
        }
    }

    /// Address register `k`'s abstract value; a register past the file
    /// (an invalid program, refused with V001) reads as unknown.
    fn ar_val(&self, k: u8) -> ArVal {
        self.ar.get(k as usize).copied().unwrap_or(ArVal::Unknown)
    }

    /// The statically-known value an operand reads as, if any.
    pub(crate) fn const_of(&self, o: &Operand) -> Option<i64> {
        match o {
            Operand::Imm(v) => Some(Word::wrap(*v as i64).value()),
            Operand::Dir(a) => self.consts.get(*a as usize),
            Operand::Ind { ar, disp } => self.addr_of(*ar, *disp).and_then(|a| self.consts.get(a)),
            Operand::Rem { .. } => None,
        }
    }
}

/// What a program may do to memory, plus any uninit-read findings.
#[derive(Debug, Clone, Default)]
pub struct DmemSummary {
    /// Local words the program may write on some path.
    pub written: WordSet,
    /// Local words the program may read on some path (statically
    /// resolvable addresses only; see `read_unknown`).
    pub read: WordSet,
    /// A read through an `Unknown` register was seen — the program may
    /// read words beyond `read`.
    pub read_unknown: bool,
    /// Neighbour words the program may write through the link.
    pub remote_written: WordSet,
    /// A remote write through an `Unknown` register was seen — the
    /// neighbour's whole memory must be treated as possibly written.
    pub remote_unknown: bool,
    /// Some reachable instruction writes through the link at all.
    pub has_remote_write: bool,
    /// Word values still statically known when the program halts (joined
    /// over every reachable `halt`); `None` when no `halt` is reachable.
    pub exit_consts: Option<ConstMap>,
    /// Uninitialized-read findings.
    pub diags: Vec<Diagnostic>,
}

/// Fixpoint over block-entry states. Shared by [`analyze`] and the WCET
/// engine (`crate::timing`), which needs the stable per-block states to
/// resolve loop-counter constants.
pub(crate) fn entry_states(
    prog: &[Instr],
    cfg: &Cfg,
    preinit: &WordSet,
    preconsts: &ConstMap,
    ars_known_zero: bool,
) -> Vec<Option<AbsState>> {
    let nb = cfg.blocks.len();
    let mut inset: Vec<Option<AbsState>> = vec![None; nb];
    if nb == 0 {
        return inset;
    }
    inset[0] = Some(AbsState::entry(preinit, preconsts, ars_known_zero));
    let mut scratch = DmemSummary::default();
    let mut work = vec![0usize];
    while let Some(b) = work.pop() {
        let mut st = match &inset[b] {
            Some(s) => s.clone(),
            None => continue,
        };
        for instr in &prog[cfg.blocks[b].start..cfg.blocks[b].end] {
            step(instr, &mut st, None, 0, &mut scratch);
        }
        for &s in &cfg.blocks[b].succs {
            match &mut inset[s] {
                Some(existing) => {
                    if existing.join(&st) {
                        work.push(s);
                    }
                }
                slot @ None => {
                    *slot = Some(st.clone());
                    work.push(s);
                }
            }
        }
    }
    inset
}

/// Runs the pass. `preinit` seeds the may-init set (data patches, host
/// pokes, inbound remote writes); `preconsts` seeds the known word
/// values (data patches); `ars_known_zero` models a cold PE whose
/// address registers are all zero (pass `false` for programs that
/// inherit ARs from a previous epoch).
pub fn analyze(
    prog: &[Instr],
    cfg: &Cfg,
    preinit: &WordSet,
    preconsts: &ConstMap,
    ars_known_zero: bool,
) -> DmemSummary {
    let mut summary = DmemSummary::default();
    if cfg.blocks.is_empty() {
        return summary;
    }
    let inset = entry_states(prog, cfg, preinit, preconsts, ars_known_zero);
    let reachable = cfg.reachable();

    // Reporting pass with the stable entry states.
    for b in 0..cfg.blocks.len() {
        if !reachable[b] {
            continue;
        }
        let mut st = match &inset[b] {
            Some(s) => s.clone(),
            None => continue,
        };
        let blk = &cfg.blocks[b];
        for (pc, instr) in prog.iter().enumerate().take(blk.end).skip(blk.start) {
            let mut diags = Vec::new();
            step(instr, &mut st, Some(&mut diags), pc, &mut summary);
            summary.diags.append(&mut diags);
            if matches!(instr, Instr::Halt) {
                match &mut summary.exit_consts {
                    Some(ec) => ec.join(&st.consts),
                    None => summary.exit_consts = Some(st.consts.clone()),
                }
            }
        }
    }
    summary
}

/// The value `i` writes to its destination, when statically known on the
/// pre-state `st` (exact `Word` arithmetic, so the domain stays sound).
fn write_value(i: &Instr, st: &AbsState) -> Option<i64> {
    let w = |v: i64| Word::wrap(v);
    match i {
        Instr::Ldi { imm, .. } => Some(w(*imm as i64).value()),
        Instr::Mov { a, .. } => st.const_of(a),
        Instr::Add { a, b, .. } => match (st.const_of(a), st.const_of(b)) {
            (Some(x), Some(y)) => Some(w(x).add(w(y)).value()),
            _ => None,
        },
        Instr::Sub { a, b, .. } => match (st.const_of(a), st.const_of(b)) {
            (Some(x), Some(y)) => Some(w(x).sub(w(y)).value()),
            _ => None,
        },
        Instr::Djnz { dst, .. } => st.const_of(dst).map(|v| w(v).sub(Word::ONE).value()),
        Instr::Movar { k, .. } => match st.ar_val(*k) {
            ArVal::Const(c) => Some(c as i64),
            ArVal::Unknown => None,
        },
        _ => None,
    }
}

/// Interprets one instruction: checks reads, applies writes and AR
/// updates, and records read/write effects into `summary`.
pub(crate) fn step(
    i: &Instr,
    st: &mut AbsState,
    mut report: Option<&mut Vec<Diagnostic>>,
    pc: usize,
    summary: &mut DmemSummary,
) {
    let check_read = |o: &Operand,
                      st: &AbsState,
                      summary: &mut DmemSummary,
                      report: &mut Option<&mut Vec<Diagnostic>>| {
        let addr = match o {
            Operand::Dir(a) => Some(*a as usize),
            Operand::Ind { ar, disp } => {
                let a = st.addr_of(*ar, *disp);
                if a.is_none() {
                    summary.read_unknown = true;
                }
                a
            }
            _ => None,
        };
        if let Some(a) = addr {
            summary.read.insert(a);
            if let Some(out) = report.as_deref_mut() {
                if !st.init.contains(a) {
                    out.push(
                        Diagnostic::warning(
                            Code::UninitRead,
                            format!(
                                "read of d[{a}], which no patch, store, or inbound write initialized"
                            ),
                        )
                        .at_pc(pc),
                    );
                }
            }
        }
    };
    for o in crate::effects::reads(i) {
        check_read(&o, st, summary, &mut report);
    }
    let value = write_value(i, st);
    if let Some(dst) = crate::effects::write(i) {
        match dst {
            Operand::Dir(a) => {
                st.init.insert(a as usize);
                summary.written.insert(a as usize);
                match value {
                    Some(v) => st.consts.set(a as usize, v),
                    None => st.consts.clear(a as usize),
                }
            }
            Operand::Ind { ar, disp } => match st.addr_of(ar, disp) {
                Some(a) => {
                    st.init.insert(a);
                    summary.written.insert(a);
                    match value {
                        Some(v) => st.consts.set(a, v),
                        None => st.consts.clear(a),
                    }
                }
                None => {
                    // A store through an unknown register may have hit
                    // any word: havoc to stay sound.
                    st.init = WordSet::full();
                    summary.written = WordSet::full();
                    st.consts.clear_all();
                }
            },
            Operand::Rem { ar, disp } => {
                summary.has_remote_write = true;
                match st.addr_of(ar, disp) {
                    Some(a) => summary.remote_written.insert(a),
                    None => summary.remote_unknown = true,
                }
            }
            Operand::Imm(_) => {}
        }
    }
    let (k, v) = match i {
        Instr::Ldar { k, src: None, imm } => (k, ArVal::Const(*imm)),
        // Mirror exec: the register takes the operand's value mod 512,
        // which resolves when the word is a known constant (e.g. a
        // patched copy variable).
        Instr::Ldar {
            k, src: Some(op), ..
        } => match st.const_of(op) {
            Some(v) => (k, ArVal::Const(v.rem_euclid(DATA_WORDS as i64) as u16)),
            None => (k, ArVal::Unknown),
        },
        Instr::Adar { k, delta } => match st.ar_val(*k) {
            ArVal::Const(c) => {
                let v = (c as i32 + *delta as i32).rem_euclid(DATA_WORDS as i32);
                (k, ArVal::Const(v as u16))
            }
            ArVal::Unknown => (k, ArVal::Unknown),
        },
        _ => return,
    };
    // A register past the file holds nothing.
    if let Some(slot) = st.ar.get_mut(*k as usize) {
        *slot = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_isa::ops::{at, at_off, d, imm, rem};

    fn run(prog: &[Instr]) -> DmemSummary {
        analyze(
            prog,
            &Cfg::build(prog),
            &WordSet::empty(),
            &ConstMap::empty(),
            true,
        )
    }

    #[test]
    fn uninit_read_flagged_and_store_silences() {
        let prog = vec![
            Instr::Mov { dst: d(1), a: d(0) }, // d[0] uninit
            Instr::Mov { dst: d(2), a: d(1) }, // d[1] now written
            Instr::Halt,
        ];
        let s = run(&prog);
        assert_eq!(s.diags.len(), 1);
        assert_eq!(s.diags[0].code, Code::UninitRead);
        assert_eq!(s.diags[0].pc, Some(0));
        assert!(s.written.contains(1) && s.written.contains(2));
        assert!(s.read.contains(0) && s.read.contains(1));
    }

    #[test]
    fn preinit_respected() {
        let mut pre = WordSet::empty();
        pre.insert(0);
        let prog = vec![Instr::Mov { dst: d(1), a: d(0) }, Instr::Halt];
        let s = analyze(&prog, &Cfg::build(&prog), &pre, &ConstMap::empty(), true);
        assert!(s.diags.is_empty());
    }

    #[test]
    fn constant_ar_resolves_indirect() {
        let prog = vec![
            Instr::Ldar {
                k: 0,
                src: None,
                imm: 100,
            },
            Instr::Adar { k: 0, delta: 2 },
            Instr::Mov {
                dst: d(0),
                a: at_off(0, 1),
            }, // reads d[103]: uninit
            Instr::Halt,
        ];
        let s = run(&prog);
        assert_eq!(s.diags.len(), 1);
        assert!(s.diags[0].message.contains("d[103]"));
    }

    #[test]
    fn unknown_store_havocs() {
        let prog = vec![
            Instr::Ldar {
                k: 0,
                src: Some(d(5)), // d[5] itself uninit: one warning
                imm: 0,
            },
            Instr::Mov {
                dst: at(0),
                a: imm(1),
            }, // store through unknown a0: havoc
            Instr::Mov { dst: d(1), a: d(9) }, // d[9] may now be written
            Instr::Halt,
        ];
        let s = run(&prog);
        assert_eq!(s.diags.len(), 1);
        assert_eq!(s.diags[0].pc, Some(0));
        assert!(s.written.contains(9));
    }

    #[test]
    fn remote_writes_summarized() {
        let prog = vec![
            Instr::Ldar {
                k: 1,
                src: None,
                imm: 200,
            },
            Instr::Mov {
                dst: rem(1),
                a: imm(7),
            },
            Instr::Halt,
        ];
        let s = run(&prog);
        assert!(s.has_remote_write);
        assert!(s.remote_written.contains(200));
        assert!(!s.remote_unknown);
        // Remote writes don't initialize local memory.
        assert!(!s.written.contains(200));
    }

    #[test]
    fn join_is_union_no_false_positives() {
        // d[10] written on only one branch; later read must NOT warn
        // (may-init over-approximates).
        let prog = vec![
            Instr::Bz {
                a: imm(0),
                target: 2,
            },
            Instr::Ldi { dst: d(10), imm: 1 },
            Instr::Mov {
                dst: d(11),
                a: d(10),
            },
            Instr::Halt,
        ];
        let s = run(&prog);
        assert!(s.diags.is_empty());
    }

    #[test]
    fn ldar_through_patched_const_resolves() {
        // The paper's vcp pattern: the copy-variable words arrive as a
        // patch; `ldar` through them must yield a *known* remote base.
        let mut pre = WordSet::empty();
        pre.insert_range(500, 2);
        let mut consts = ConstMap::empty();
        consts.set(500, 40); // src base
        consts.set(501, 300); // dst base
        let prog = vec![
            Instr::Ldar {
                k: 0,
                src: Some(d(500)),
                imm: 0,
            },
            Instr::Ldar {
                k: 1,
                src: Some(d(501)),
                imm: 0,
            },
            Instr::Mov {
                dst: Operand::Rem { ar: 1, disp: 0 },
                a: at(0),
            },
            Instr::Halt,
        ];
        let s = analyze(&prog, &Cfg::build(&prog), &pre, &consts, true);
        assert!(!s.remote_unknown, "{s:?}");
        assert!(s.remote_written.contains(300));
        assert!(s.read.contains(40));
        // d[40] was never initialized: exactly one warning.
        assert_eq!(s.diags.len(), 1);
    }

    #[test]
    fn const_join_drops_disagreement() {
        // d[20] = 1 on one path, 2 on the other; an ldar through it after
        // the join must be Unknown (remote write becomes unknown).
        let prog = vec![
            Instr::Bz {
                a: imm(0),
                target: 3,
            },
            Instr::Ldi { dst: d(20), imm: 1 },
            Instr::Jmp { target: 4 },
            Instr::Ldi { dst: d(20), imm: 2 },
            Instr::Ldar {
                k: 0,
                src: Some(d(20)),
                imm: 0,
            },
            Instr::Mov {
                dst: rem(0),
                a: imm(9),
            },
            Instr::Halt,
        ];
        let s = run(&prog);
        assert!(s.remote_unknown);
    }

    #[test]
    fn exit_consts_survive_straight_line() {
        let prog = vec![
            Instr::Ldi { dst: d(7), imm: 42 },
            Instr::Add {
                dst: d(8),
                a: d(7),
                b: imm(1),
            },
            Instr::Halt,
        ];
        let s = run(&prog);
        let ec = s.exit_consts.expect("halt reachable");
        assert_eq!(ec.get(7), Some(42));
        assert_eq!(ec.get(8), Some(43));
    }

    #[test]
    fn djnz_counter_reaches_zero_at_exit() {
        let prog = vec![
            Instr::Ldi { dst: d(0), imm: 4 },
            Instr::Nop,
            Instr::Djnz {
                dst: d(0),
                target: 1,
            },
            Instr::Halt,
        ];
        let s = run(&prog);
        // Inside the loop the counter varies, so the join drops it; the
        // counter must not be claimed constant at exit.
        let ec = s.exit_consts.expect("halt reachable");
        assert_eq!(ec.get(0), None);
    }

    #[test]
    fn wordset_basics() {
        let mut w = WordSet::empty();
        assert!(w.is_empty());
        w.insert_range(510, 4); // wraps: 510, 511, 0, 1
        assert!(w.contains(511) && w.contains(0) && w.contains(1));
        assert_eq!(w.len(), 4);
        assert_eq!(WordSet::full().len(), DATA_WORDS);
        let mut o = WordSet::empty();
        o.insert(0);
        o.insert(99);
        assert!(w.intersects(&o));
        assert_eq!(w.intersection(&o).iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn constmap_join_and_clear() {
        let mut a = ConstMap::empty();
        a.set(1, 10);
        a.set(2, 20);
        let mut b = ConstMap::empty();
        b.set(1, 10);
        b.set(2, 99);
        a.join(&b);
        assert_eq!(a.get(1), Some(10));
        assert_eq!(a.get(2), None);
        let mut dead = WordSet::empty();
        dead.insert(1);
        a.clear_set(&dead);
        assert!(a.is_empty());
    }
}
