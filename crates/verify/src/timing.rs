//! Static WCET engine: cycle and traffic bounds for programs and
//! epoch schedules.
//!
//! Two analyses cooperate, strongest first:
//!
//! 1. **Path-following abstract execution.** The ISA has no
//!    data-dependent latencies (one instruction = one cycle), so a
//!    program whose branches all resolve statically has exactly one
//!    feasible path. The executor mirrors [`cgra_isa::exec`] over
//!    `Option<Word>` values (unknown data stays unknown, but `ldi`-fed
//!    `djnz` counters and patched copy variables resolve) and, when it
//!    reaches `halt` without ever branching on an unknown value, returns
//!    an *exact* cycle and remote-word count. Every kernel in
//!    `cgra-kernels` (FFT butterflies, exchanges, JPEG stages, block
//!    copies) is branch-deterministic and lands here.
//!
//! 2. **Structural CFG bounds.** When a branch depends on runtime data
//!    (e.g. a spin-wait on a neighbour's flag), the engine falls back to
//!    interval arithmetic on the CFG: natural-loop regions are derived
//!    from back edges, `djnz`-counted loops get constant trip counts
//!    from the [`crate::dmem`] fixpoint states, and best/worst bounds
//!    compose bottom-up over the region tree. Loops whose trip count
//!    cannot be inferred make the worst bound unbounded
//!    ([`Code::UnboundedLoop`], a warning — spin-waits are legitimate
//!    handshakes).
//!
//! [`bound_schedule`] lifts program bounds to whole schedules: as a
//! pass on the schedule walk ([`BoundPass`], [`crate::walk`]) it reads
//! the exact preconditions each program runs under, mirrors the simulator's
//! reconfiguration accounting ([`cgra_fabric::ReconfigPlan`] +
//! [`cgra_fabric::CostModel`]), and composes the paper's Eq. 1
//! `Runtime = Σ T_i + Σ τ_ij` analytically. The bounds are valid for
//! schedules free of V10x race findings: a mid-epoch inbound remote
//! write could otherwise invalidate the constants the executor relies
//! on, and flagging exactly those schedules is the race detector's job.

use crate::cfg::Cfg;
use crate::diag::{Code, Diagnostic};
use crate::dmem::{self, AbsState, DmemSummary};
use crate::effects;
use crate::program::{DmemInit, VerifyOptions};
use crate::schedule::{EpochAnalysis, EpochSpec};
use crate::walk::{walk_schedule, EpochPass};
use cgra_fabric::cost::TransitionBreakdown;
use cgra_fabric::{
    CostModel, Mesh, RawInstr, ReconfigPlan, TileId, TileReconfig, Word, DATA_WORDS,
};
use cgra_isa::{encode_program, Instr, Operand, NUM_AR};
use std::collections::HashMap;

/// Abstract-executor step budget; far above any real kernel (FFT-1024
/// epochs run under 10^5 cycles) but bounds analysis time on
/// adversarial inputs.
const EXEC_CAP: u64 = 4_000_000;

/// A `[best, worst]` interval of cycles (or words); `worst == None`
/// means no static upper bound exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CycleInterval {
    /// Sound lower bound.
    pub best: u64,
    /// Sound upper bound, `None` when unbounded.
    pub worst: Option<u64>,
}

impl CycleInterval {
    /// The degenerate interval `[n, n]`.
    pub fn exact(n: u64) -> CycleInterval {
        CycleInterval {
            best: n,
            worst: Some(n),
        }
    }

    /// An interval with no upper bound.
    pub fn unbounded(best: u64) -> CycleInterval {
        CycleInterval { best, worst: None }
    }

    /// True when best and worst coincide.
    pub fn is_exact(&self) -> bool {
        self.worst == Some(self.best)
    }

    /// Parallel composition: both run concurrently, the slower wins
    /// (the per-epoch "all tiles quiesce" barrier).
    pub fn parallel_max(self, other: CycleInterval) -> CycleInterval {
        CycleInterval {
            best: self.best.max(other.best),
            worst: match (self.worst, other.worst) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// True when an observed value falls inside the interval.
    pub fn contains(&self, v: u64) -> bool {
        v >= self.best && self.worst.is_none_or(|w| v <= w)
    }
}

impl std::ops::Add for CycleInterval {
    type Output = CycleInterval;

    /// Sequential composition: both run, costs add.
    fn add(self, other: CycleInterval) -> CycleInterval {
        CycleInterval {
            best: self.best.saturating_add(other.best),
            worst: match (self.worst, other.worst) {
                (Some(a), Some(b)) => Some(a.saturating_add(b)),
                _ => None,
            },
        }
    }
}

/// One loop the analysis identified, for reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopBound {
    /// pc of the loop header (the back edge's target).
    pub header_pc: usize,
    /// Iterations of the loop body, when inferred (from a constant
    /// `djnz` counter, or observed by the exact executor).
    pub trips: Option<u64>,
}

/// Static bounds for one program under given preconditions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProgramBound {
    /// Cycles from entry to `halt`.
    pub cycles: CycleInterval,
    /// Remote words written through the link.
    pub remote_words: CycleInterval,
    /// True when the abstract executor resolved the single feasible
    /// path (both intervals are then exact).
    pub exact: bool,
    /// Loops found in the CFG, with trip counts where inferred.
    pub loops: Vec<LoopBound>,
    /// V110 findings (worst-case unbounded and why).
    pub diags: Vec<Diagnostic>,
}

// ---------------------------------------------------------------------------
// Exact path-following executor.
// ---------------------------------------------------------------------------

enum ExecOutcome {
    /// Reached `halt`; both counts are exact. `visits[pc]` counts how
    /// many times each instruction retired (loop-trip observation).
    Exact {
        cycles: u64,
        remote: u64,
        visits: Vec<u64>,
    },
    /// Branched on an unknown value, fell off the end, or hit the step
    /// cap: fall back to structural bounds.
    Undecided,
}

/// Address register `k`'s known value. A register past the file is
/// read as unknown: the verifier rejects such a program (V001), and
/// unknown is the sound answer for the analyses that bound it anyway.
fn ar_value(ar: &[Option<u16>; NUM_AR], k: u8) -> Option<u16> {
    ar.get(k as usize).copied().flatten()
}

fn exec_read(mem: &[Option<Word>], ar: &[Option<u16>; NUM_AR], o: &Operand) -> Option<Word> {
    match o {
        Operand::Imm(v) => Some(Word::wrap(*v as i64)),
        Operand::Dir(a) => mem[*a as usize % DATA_WORDS],
        Operand::Ind { ar: k, disp } => {
            let base = ar_value(ar, *k)?;
            mem[(base as usize + *disp as usize) % DATA_WORDS]
        }
        Operand::Rem { .. } => None,
    }
}

fn exec_write(
    mem: &mut [Option<Word>],
    ar: &[Option<u16>; NUM_AR],
    remote: &mut u64,
    dst: &Operand,
    v: Option<Word>,
) {
    match dst {
        Operand::Dir(a) => mem[*a as usize % DATA_WORDS] = v,
        Operand::Ind { ar: k, disp } => match ar_value(ar, *k) {
            Some(base) => mem[(base as usize + *disp as usize) % DATA_WORDS] = v,
            // A store through an unknown register may have hit any word.
            None => mem.fill(None),
        },
        // Remote destinations cost one outbound word and touch no local
        // state; the address register may stay unknown.
        Operand::Rem { .. } => *remote += 1,
        Operand::Imm(_) => {}
    }
}

fn exec_exact(prog: &[Instr], opts: &VerifyOptions) -> ExecOutcome {
    let mut mem: Vec<Option<Word>> = (0..DATA_WORDS)
        .map(|a| opts.dmem_consts.get(a).map(Word::wrap))
        .collect();
    let mut ar: [Option<u16>; NUM_AR] = if opts.ars_preloaded {
        [None; NUM_AR]
    } else {
        [Some(0); NUM_AR]
    };
    let mut acc: Option<i128> = Some(0);
    let mut visits = vec![0u64; prog.len()];
    let mut remote = 0u64;
    let mut cycles = 0u64;
    let mut pc = 0usize;

    macro_rules! binop {
        ($dst:expr, $a:expr, $b:expr, $f:expr) => {{
            let v = match (exec_read(&mem, &ar, $a), exec_read(&mem, &ar, $b)) {
                (Some(x), Some(y)) => Some($f(x, y)),
                _ => None,
            };
            exec_write(&mut mem, &ar, &mut remote, $dst, v);
        }};
    }
    macro_rules! branch_on {
        ($a:expr, $target:expr, $taken:expr) => {{
            match exec_read(&mem, &ar, $a) {
                Some(x) => {
                    if $taken(x) {
                        Some(*$target as usize)
                    } else {
                        None
                    }
                }
                None => return ExecOutcome::Undecided,
            }
        }};
    }

    loop {
        if pc >= prog.len() || cycles >= EXEC_CAP {
            return ExecOutcome::Undecided;
        }
        visits[pc] += 1;
        cycles += 1;
        let mut next = pc + 1;
        match &prog[pc] {
            Instr::Nop => {}
            Instr::Halt => {
                return ExecOutcome::Exact {
                    cycles,
                    remote,
                    visits,
                }
            }
            Instr::Add { dst, a, b } => binop!(dst, a, b, |x: Word, y: Word| x.add(y)),
            Instr::Sub { dst, a, b } => binop!(dst, a, b, |x: Word, y: Word| x.sub(y)),
            Instr::Mul { dst, a, b, frac } => {
                binop!(dst, a, b, |x: Word, y: Word| x.mul_frac(y, *frac as u32))
            }
            Instr::Mac { a, b, frac } => {
                acc = match (exec_read(&mem, &ar, a), exec_read(&mem, &ar, b), acc) {
                    (Some(x), Some(y), Some(ac)) => {
                        let prod = (x.value() as i128) * (y.value() as i128);
                        Some(ac.wrapping_add(prod >> *frac))
                    }
                    _ => None,
                };
            }
            Instr::ClrAcc => acc = Some(0),
            Instr::MovAcc { dst } => {
                let v = acc.map(|a| Word::wrap(a as i64));
                exec_write(&mut mem, &ar, &mut remote, dst, v);
            }
            Instr::And { dst, a, b } => binop!(dst, a, b, |x: Word, y: Word| x.and(y)),
            Instr::Or { dst, a, b } => binop!(dst, a, b, |x: Word, y: Word| x.or(y)),
            Instr::Xor { dst, a, b } => binop!(dst, a, b, |x: Word, y: Word| x.xor(y)),
            Instr::Not { dst, a } => {
                let v = exec_read(&mem, &ar, a).map(|x| x.not());
                exec_write(&mut mem, &ar, &mut remote, dst, v);
            }
            Instr::Shl { dst, a, b } => {
                binop!(dst, a, b, |x: Word, y: Word| x.shl((y.value() & 63) as u32))
            }
            Instr::Shr { dst, a, b } => {
                binop!(dst, a, b, |x: Word, y: Word| x.shr((y.value() & 63) as u32))
            }
            Instr::Mov { dst, a } => {
                let v = exec_read(&mem, &ar, a);
                exec_write(&mut mem, &ar, &mut remote, dst, v);
            }
            Instr::Ldi { dst, imm } => {
                exec_write(
                    &mut mem,
                    &ar,
                    &mut remote,
                    dst,
                    Some(Word::wrap(*imm as i64)),
                );
            }
            Instr::Jmp { target } => next = *target as usize,
            Instr::Bz { a, target } => {
                if let Some(t) = branch_on!(a, target, |x: Word| x.is_zero()) {
                    next = t;
                }
            }
            Instr::Bnz { a, target } => {
                if let Some(t) = branch_on!(a, target, |x: Word| !x.is_zero()) {
                    next = t;
                }
            }
            Instr::Bneg { a, target } => {
                if let Some(t) = branch_on!(a, target, |x: Word| x.is_negative()) {
                    next = t;
                }
            }
            Instr::Bgez { a, target } => {
                if let Some(t) = branch_on!(a, target, |x: Word| !x.is_negative()) {
                    next = t;
                }
            }
            Instr::Djnz { dst, target } => {
                let v = match exec_read(&mem, &ar, dst) {
                    Some(x) => x.sub(Word::ONE),
                    None => return ExecOutcome::Undecided,
                };
                exec_write(&mut mem, &ar, &mut remote, dst, Some(v));
                if !v.is_zero() {
                    next = *target as usize;
                }
            }
            Instr::Ldar { k, src, imm } => {
                let v = match src {
                    Some(s) => exec_read(&mem, &ar, s)
                        .map(|w| (w.value().rem_euclid(DATA_WORDS as i64)) as u16),
                    None => Some(imm % DATA_WORDS as u16),
                };
                if let Some(slot) = ar.get_mut(*k as usize) {
                    *slot = v;
                }
            }
            Instr::Adar { k, delta } => {
                if let Some(slot) = ar.get_mut(*k as usize) {
                    *slot = slot
                        .map(|c| (c as i32 + *delta as i32).rem_euclid(DATA_WORDS as i32) as u16);
                }
            }
            Instr::Movar { dst, k } => {
                let v = ar_value(&ar, *k).map(|c| Word::wrap(c as i64));
                exec_write(&mut mem, &ar, &mut remote, dst, v);
            }
        }
        pc = next;
    }
}

// ---------------------------------------------------------------------------
// Structural fallback: loop regions, trip inference, region-tree DP.
// ---------------------------------------------------------------------------

/// A natural-loop region: the contiguous block range `header..=last`
/// entered at `header`, with back edges from `back_srcs`.
struct Region {
    header: usize,
    last: usize,
    back_srcs: Vec<usize>,
    /// Constant body-execution count, when inferred.
    trips: Option<u64>,
    /// Why `trips` is `None` (diagnostic text).
    why: &'static str,
    /// True when the only edges leaving the range depart from the back
    /// source (a loop that cannot break early — required to multiply
    /// the *best*-case body cost by the trip count).
    exit_only_back: bool,
    /// Blocks outside the range the region can exit to.
    exits: Vec<usize>,
}

/// Groups back edges into regions and checks they nest properly.
/// `None` means the loop structure is irreducible for this analysis.
fn find_regions(cfg: &Cfg, reachable: &[bool]) -> Option<Vec<Region>> {
    let mut by_header: Vec<(usize, Vec<usize>)> = Vec::new();
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !reachable[b] {
            continue;
        }
        for &s in &blk.succs {
            if cfg.blocks[s].start <= blk.start {
                match by_header.iter_mut().find(|(h, _)| *h == s) {
                    Some((_, srcs)) => srcs.push(b),
                    None => by_header.push((s, vec![b])),
                }
            }
        }
    }
    by_header.sort_unstable_by_key(|(h, _)| *h);
    let mut regions: Vec<Region> = by_header
        .into_iter()
        .map(|(header, mut back_srcs)| {
            back_srcs.sort_unstable();
            // Non-empty by construction; fall back to the header itself
            // so an impossible empty group stays a degenerate region
            // rather than a panic.
            let last = back_srcs.last().copied().unwrap_or(header);
            Region {
                header,
                last,
                back_srcs,
                trips: None,
                why: "trip count not analyzed",
                exit_only_back: false,
                exits: Vec::new(),
            }
        })
        .collect();
    // Headers precede their back sources, so `header <= last` always;
    // distinct regions must nest or be disjoint.
    for i in 0..regions.len() {
        for j in i + 1..regions.len() {
            let (a, b) = (&regions[i], &regions[j]);
            if b.header <= a.last && b.last > a.last {
                return None;
            }
        }
    }
    for r in regions.iter_mut() {
        let mut only_back = true;
        // Indexing two parallel slices over a sub-span; enumerate-based
        // forms read worse here.
        #[allow(clippy::needless_range_loop)]
        for x in r.header..=r.last {
            for &s in &cfg.blocks[x].succs {
                if s < r.header || s > r.last {
                    r.exits.push(s);
                    if !r.back_srcs.contains(&x) {
                        only_back = false;
                    }
                }
            }
            if cfg.blocks[x].falls_off && reachable[x] {
                only_back = false;
            }
        }
        r.exits.sort_unstable();
        r.exits.dedup();
        r.exit_only_back = only_back;
    }
    Some(regions)
}

/// Abstract state at the *exit* of block `b` (entry state pushed through
/// the block's instructions).
fn out_state(prog: &[Instr], cfg: &Cfg, inset: &[Option<AbsState>], b: usize) -> Option<AbsState> {
    let mut st = inset[b].clone()?;
    let mut scratch = DmemSummary::default();
    for i in &prog[cfg.blocks[b].start..cfg.blocks[b].end] {
        dmem::step(i, &mut st, None, 0, &mut scratch);
    }
    Some(st)
}

/// Infers constant trip counts for `djnz`-counted regions from the
/// dmem fixpoint states. A region qualifies when its single back edge is
/// a `djnz` on a direct-addressed counter that nothing else in the body
/// can rewrite, entered with the same known constant on every path in.
fn infer_trips(
    prog: &[Instr],
    cfg: &Cfg,
    inset: &[Option<AbsState>],
    entry: &AbsState,
    reachable: &[bool],
    regions: &mut [Region],
) {
    let nb = cfg.blocks.len();
    let mut preds: Vec<Vec<usize>> = vec![Vec::new(); nb];
    for (b, blk) in cfg.blocks.iter().enumerate() {
        if !reachable[b] {
            continue;
        }
        for &s in &blk.succs {
            preds[s].push(b);
        }
    }
    let spans: Vec<(usize, usize)> = regions.iter().map(|r| (r.header, r.last)).collect();
    for r in regions.iter_mut() {
        if r.back_srcs.len() != 1 {
            r.why = "multiple back edges";
            continue;
        }
        let back = r.back_srcs[0];
        if spans
            .iter()
            .any(|&(h, l)| h > r.header && l <= r.last && (h..=l).contains(&back))
        {
            r.why = "back edge belongs to an inner loop";
            continue;
        }
        let djnz_pc = cfg.blocks[back].end - 1;
        let ctr = match &prog[djnz_pc] {
            Instr::Djnz {
                dst: Operand::Dir(a),
                target,
            } if *target as usize == cfg.blocks[r.header].start => *a as usize,
            _ => {
                r.why = "not a counted djnz loop";
                continue;
            }
        };
        if (r.header + 1..=r.last)
            .any(|x| reachable[x] && preds[x].iter().any(|&p| p < r.header || p > r.last))
        {
            r.why = "loop has side entries";
            continue;
        }
        // The counter must be single-writer: only the djnz decrements it.
        let mut clobbered = false;
        'scan: for x in r.header..=r.last {
            if !reachable[x] {
                continue;
            }
            let mut st = match inset[x].clone() {
                Some(s) => s,
                None => continue,
            };
            let mut scratch = DmemSummary::default();
            for (pc, i) in prog
                .iter()
                .enumerate()
                .take(cfg.blocks[x].end)
                .skip(cfg.blocks[x].start)
            {
                if pc != djnz_pc {
                    match effects::write(i) {
                        Some(Operand::Dir(a)) if a as usize == ctr => {
                            clobbered = true;
                            break 'scan;
                        }
                        Some(Operand::Ind { ar, disp }) => match st.addr_of(ar, disp) {
                            Some(a) if a == ctr => {
                                clobbered = true;
                                break 'scan;
                            }
                            Some(_) => {}
                            None => {
                                clobbered = true;
                                break 'scan;
                            }
                        },
                        _ => {}
                    }
                }
                dmem::step(i, &mut st, None, 0, &mut scratch);
            }
        }
        if clobbered {
            r.why = "loop counter may be rewritten in the body";
            continue;
        }
        // Entry value: joined over every edge into the header from
        // outside the region (plus the program entry when the header is
        // block 0).
        let mut vals: Vec<Option<i64>> = Vec::new();
        for &p in &preds[r.header] {
            if p < r.header || p > r.last {
                vals.push(out_state(prog, cfg, inset, p).and_then(|s| s.consts.get(ctr)));
            }
        }
        if r.header == 0 {
            vals.push(entry.consts.get(ctr));
        }
        let v0 = match vals.first().copied().flatten() {
            Some(v) if vals.iter().all(|v2| *v2 == Some(v)) => v,
            _ => {
                r.why = "counter entry value is not a known constant";
                continue;
            }
        };
        if !(1..=u64::from(u32::MAX) as i64).contains(&v0) {
            r.why = "counter entry value out of range";
            continue;
        }
        r.trips = Some(v0 as u64);
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Fold {
    Min,
    Max,
}

impl Fold {
    fn pick(self, a: u64, b: u64) -> u64 {
        match self {
            Fold::Min => a.min(b),
            Fold::Max => a.max(b),
        }
    }
}

/// One node of a level DP: either a plain block or a collapsed child
/// region treated as an atomic step with a precomputed cost.
struct Item {
    lo: usize,
    hi: usize,
    cost: Option<u64>,
    outs: Vec<usize>,
    block: Option<usize>,
}

fn build_items(
    lo: usize,
    hi: usize,
    kids: &[usize],
    regions: &[Region],
    region_cost: &[Option<u64>],
    cfg: &Cfg,
    w: &[u64],
) -> Vec<Item> {
    let mut items = Vec::new();
    let mut b = lo;
    while b <= hi {
        if let Some(&k) = kids.iter().find(|&&k| regions[k].header == b) {
            items.push(Item {
                lo: regions[k].header,
                hi: regions[k].last,
                cost: region_cost[k],
                outs: regions[k].exits.clone(),
                block: None,
            });
            b = regions[k].last + 1;
        } else {
            // Forward edges only; back edges always stay inside the
            // region that owns them, which at this level is a kid item.
            let outs = cfg.blocks[b]
                .succs
                .iter()
                .copied()
                .filter(|&s| cfg.blocks[s].start > cfg.blocks[b].start)
                .collect();
            items.push(Item {
                lo: b,
                hi: b,
                cost: Some(w[b]),
                outs,
                block: Some(b),
            });
            b += 1;
        }
    }
    items
}

/// Longest/shortest-path DP over one level's items (forward edges only,
/// so item order is topological). Returns per-item distances from the
/// level entry; `None` for the whole call means no sound bound exists
/// at this level (an unbounded child region lies on a live path).
fn eval_items(items: &[Item], lo: usize, hi: usize, fold: Fold) -> Option<Vec<Option<u64>>> {
    let mut item_of = vec![usize::MAX; hi - lo + 1];
    for (i, it) in items.iter().enumerate() {
        for b in it.lo..=it.hi {
            item_of[b - lo] = i;
        }
    }
    let mut dist: Vec<Option<u64>> = vec![None; items.len()];
    dist[0] = Some(0);
    for i in 0..items.len() {
        let d = match dist[i] {
            Some(d) => d,
            None => continue,
        };
        let c = items[i].cost?;
        let through = d.saturating_add(c);
        for &t in &items[i].outs {
            if t < lo || t > hi {
                continue; // exits the level; the caller charges it
            }
            let j = item_of[t - lo];
            if j <= i {
                return None; // defensive: would not be topological
            }
            dist[j] = Some(match dist[j] {
                Some(old) => fold.pick(old, through),
                None => through,
            });
        }
    }
    Some(dist)
}

/// Cost of all items that finish at `i` (entry distance plus own cost).
fn through(items: &[Item], dist: &[Option<u64>], i: usize) -> Option<u64> {
    Some(dist[i]?.saturating_add(items[i].cost?))
}

/// Whole-program structural bound under `fold`, with per-block weights
/// `w` (cycles: instruction count; traffic: remote-write count).
fn structural_bound(
    prog: &[Instr],
    cfg: &Cfg,
    regions: &[Region],
    w: &[u64],
    fold: Fold,
) -> Option<u64> {
    let nr = regions.len();
    // parent[i] = smallest region strictly containing region i.
    let mut parent: Vec<Option<usize>> = vec![None; nr];
    for (i, pi) in parent.iter_mut().enumerate() {
        let mut best: Option<usize> = None;
        for j in 0..nr {
            if j != i
                && regions[j].header <= regions[i].header
                && regions[i].last <= regions[j].last
                && (regions[j].header, regions[j].last) != (regions[i].header, regions[i].last)
            {
                let span = regions[j].last - regions[j].header;
                if best.is_none_or(|b| span < regions[b].last - regions[b].header) {
                    best = Some(j);
                }
            }
        }
        *pi = best;
    }
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); nr];
    let mut top: Vec<usize> = Vec::new();
    for (i, pi) in parent.iter().enumerate() {
        match pi {
            Some(p) => children[*p].push(i),
            None => top.push(i),
        }
    }
    // Innermost-first evaluation: children span less than parents.
    let mut order: Vec<usize> = (0..nr).collect();
    order.sort_unstable_by_key(|&i| regions[i].last - regions[i].header);
    let mut region_cost: Vec<Option<u64>> = vec![None; nr];
    for &ri in &order {
        let r = &regions[ri];
        let items = build_items(
            r.header,
            r.last,
            &children[ri],
            regions,
            &region_cost,
            cfg,
            w,
        );
        let body = match eval_items(&items, r.header, r.last, fold) {
            Some(dist) => {
                let per_iter = match fold {
                    // Any partial iteration costs at most a full one.
                    Fold::Max => (0..items.len())
                        .filter_map(|i| through(&items, &dist, i))
                        .max(),
                    // A full iteration runs entry -> back source.
                    Fold::Min => {
                        let back = r
                            .back_srcs
                            .iter()
                            .filter_map(|&b| {
                                let i = items.iter().position(|it| (it.lo..=it.hi).contains(&b))?;
                                through(&items, &dist, i)
                            })
                            .min();
                        back.or_else(|| {
                            (0..items.len())
                                .filter_map(|i| through(&items, &dist, i))
                                .min()
                        })
                    }
                };
                per_iter
            }
            None => None,
        };
        region_cost[ri] = match (fold, body) {
            (Fold::Max, Some(per_iter)) => r.trips.map(|n| n.saturating_mul(per_iter)),
            (Fold::Min, Some(per_iter)) => {
                // Without a trip count (or with early exits) the body
                // still runs at least once when entered.
                let n = if r.exit_only_back {
                    r.trips.unwrap_or(1)
                } else {
                    1
                };
                Some(n.saturating_mul(per_iter))
            }
            (_, None) => None,
        };
    }
    // Top level: fold over reachable halt blocks.
    let nb = cfg.blocks.len();
    let items = build_items(0, nb - 1, &top, regions, &region_cost, cfg, w);
    let dist = eval_items(&items, 0, nb - 1, fold)?;
    items
        .iter()
        .enumerate()
        .filter(|(_, it)| {
            it.block
                .is_some_and(|b| matches!(prog[cfg.blocks[b].end - 1], Instr::Halt))
        })
        .filter_map(|(i, _)| through(&items, &dist, i))
        .reduce(|a, b| fold.pick(a, b))
}

/// Shortest acyclic entry-to-halt path: the coarse best-case fallback
/// when the loop structure is unusable (every execution that halts
/// contains an acyclic entry-to-halt subpath, so this never exceeds the
/// true cost).
fn acyclic_min(prog: &[Instr], cfg: &Cfg, w: &[u64]) -> u64 {
    let nb = cfg.blocks.len();
    let mut dist: Vec<Option<u64>> = vec![None; nb];
    dist[0] = Some(0);
    let mut best: Option<u64> = None;
    for b in 0..nb {
        let d = match dist[b] {
            Some(d) => d,
            None => continue,
        };
        let t = d.saturating_add(w[b]);
        if matches!(prog[cfg.blocks[b].end - 1], Instr::Halt) {
            best = Some(best.map_or(t, |x: u64| x.min(t)));
        }
        for &s in &cfg.blocks[b].succs {
            if cfg.blocks[s].start > cfg.blocks[b].start {
                dist[s] = Some(dist[s].map_or(t, |x| x.min(t)));
            }
        }
    }
    best.unwrap_or(0)
}

/// Bounds one program's cycles and remote traffic under the given
/// preconditions (the same [`VerifyOptions`] the verifier checked it
/// with; [`crate::schedule::TileAnalysis::opts`] supplies these at the
/// schedule level).
pub fn bound_program(prog: &[Instr], opts: &VerifyOptions) -> ProgramBound {
    let mut out = ProgramBound {
        cycles: CycleInterval::exact(0),
        remote_words: CycleInterval::exact(0),
        exact: true,
        loops: Vec::new(),
        diags: Vec::new(),
    };
    if prog.is_empty() {
        return out; // capacity pass reports the error
    }
    let cfg = Cfg::build(prog);
    let reachable = cfg.reachable();
    let preinit = opts.dmem_init.as_set();
    let entry = AbsState::entry(&preinit, &opts.dmem_consts, !opts.ars_preloaded);
    let inset = dmem::entry_states(prog, &cfg, &preinit, &opts.dmem_consts, !opts.ars_preloaded);
    let regions = find_regions(&cfg, &reachable).map(|mut rs| {
        infer_trips(prog, &cfg, &inset, &entry, &reachable, &mut rs);
        rs
    });

    match exec_exact(prog, opts) {
        ExecOutcome::Exact {
            cycles,
            remote,
            visits,
        } => {
            out.cycles = CycleInterval::exact(cycles);
            out.remote_words = CycleInterval::exact(remote);
            if let Some(rs) = &regions {
                out.loops = rs
                    .iter()
                    .map(|r| {
                        let header_pc = cfg.blocks[r.header].start;
                        LoopBound {
                            header_pc,
                            // The single feasible path was replayed, so the
                            // observed header visit count is the trip count.
                            trips: r.trips.or(Some(visits[header_pc])),
                        }
                    })
                    .collect();
            }
        }
        ExecOutcome::Undecided => {
            out.exact = false;
            let halt_in_region = regions.as_ref().is_some_and(|rs| {
                rs.iter().any(|r| {
                    (r.header..=r.last)
                        .any(|b| reachable[b] && matches!(prog[cfg.blocks[b].end - 1], Instr::Halt))
                })
            });
            let falls_off = (0..cfg.blocks.len()).any(|b| reachable[b] && cfg.blocks[b].falls_off);
            let w_cycles: Vec<u64> = cfg
                .blocks
                .iter()
                .map(|blk| (blk.end - blk.start) as u64)
                .collect();
            let w_remote: Vec<u64> = cfg
                .blocks
                .iter()
                .map(|blk| {
                    prog[blk.start..blk.end]
                        .iter()
                        .filter(|i| effects::writes_remote(i))
                        .count() as u64
                })
                .collect();
            let usable = if halt_in_region || falls_off {
                None
            } else {
                regions.as_ref()
            };
            let (worst_c, worst_r, best_c, best_r) = if let Some(rs) = usable {
                (
                    structural_bound(prog, &cfg, rs, &w_cycles, Fold::Max),
                    structural_bound(prog, &cfg, rs, &w_remote, Fold::Max),
                    structural_bound(prog, &cfg, rs, &w_cycles, Fold::Min)
                        .unwrap_or_else(|| acyclic_min(prog, &cfg, &w_cycles)),
                    structural_bound(prog, &cfg, rs, &w_remote, Fold::Min)
                        .unwrap_or_else(|| acyclic_min(prog, &cfg, &w_remote)),
                )
            } else {
                (
                    None,
                    None,
                    acyclic_min(prog, &cfg, &w_cycles),
                    acyclic_min(prog, &cfg, &w_remote),
                )
            };
            out.cycles = CycleInterval {
                best: best_c,
                worst: worst_c,
            };
            out.remote_words = CycleInterval {
                best: best_r,
                worst: worst_r,
            };
            if let Some(rs) = &regions {
                out.loops = rs
                    .iter()
                    .map(|r| LoopBound {
                        header_pc: cfg.blocks[r.header].start,
                        trips: r.trips,
                    })
                    .collect();
            }
            if worst_c.is_none() {
                out.diags.extend(unbounded_diags(
                    &cfg,
                    regions.as_deref(),
                    halt_in_region,
                    falls_off,
                ));
            }
        }
    }
    out
}

/// V110 findings explaining why the worst-case bound is open.
fn unbounded_diags(
    cfg: &Cfg,
    regions: Option<&[Region]>,
    halt_in_region: bool,
    falls_off: bool,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let warn = |msg: String| Diagnostic::warning(Code::UnboundedLoop, msg);
    match regions {
        None => diags.push(warn(
            "loops are not properly nested; worst-case cycles unbounded".into(),
        )),
        Some(rs) => {
            if halt_in_region {
                diags.push(warn(
                    "a loop body can halt mid-loop; worst-case cycles unbounded".into(),
                ));
            }
            if falls_off {
                diags.push(warn(
                    "execution can run past the end of the program; worst-case cycles unbounded"
                        .into(),
                ));
            }
            let mut blamed = false;
            for r in rs.iter().filter(|r| r.trips.is_none()) {
                blamed = true;
                diags.push(
                    warn(format!(
                        "loop at pc {}: {}; worst-case cycles unbounded",
                        cfg.blocks[r.header].start, r.why
                    ))
                    .at_pc(cfg.blocks[r.header].start),
                );
            }
            if diags.is_empty() && !blamed {
                diags.push(warn(
                    "no reachable halt; worst-case cycles unbounded".into(),
                ));
            }
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Schedule-level composition (the paper's Eq. 1).
// ---------------------------------------------------------------------------

/// A `[best, worst]` interval of nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NsInterval {
    /// Sound lower bound.
    pub best: f64,
    /// Sound upper bound, `None` when unbounded.
    pub worst: Option<f64>,
}

impl NsInterval {
    /// The degenerate interval `[v, v]`.
    pub fn exact(v: f64) -> NsInterval {
        NsInterval {
            best: v,
            worst: Some(v),
        }
    }

    /// True when an observed value falls inside the interval, up to
    /// `tol` (floating-point slack as a fraction of the value).
    pub fn contains(&self, v: f64, tol: f64) -> bool {
        let slack = v.abs() * tol;
        v >= self.best - slack && self.worst.is_none_or(|w| v <= w + slack)
    }
}

impl std::ops::Add for NsInterval {
    type Output = NsInterval;

    /// Sequential composition.
    fn add(self, other: NsInterval) -> NsInterval {
        NsInterval {
            best: self.best + other.best,
            worst: match (self.worst, other.worst) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            },
        }
    }
}

/// Static timing of one epoch: the reconfiguration charge (exact — the
/// switch cost is data-independent) plus the compute interval of the
/// slowest reprogrammed tile.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochBound {
    /// Epoch name.
    pub name: String,
    /// Reconfiguration time in ns (ICAP memory rewrites + link rewiring),
    /// identical to what the simulator charges.
    pub reconfig_ns: f64,
    /// Cycles the reconfigured tiles stall (`ceil(reconfig_ns / cycle)`).
    pub stall_cycles: u64,
    /// Links rewired entering this epoch.
    pub links_changed: usize,
    /// Per-kind decomposition of the switch (data words, instruction
    /// words, links) — the cost-model-*independent* identity of the
    /// transition, kept so a priced bound can be repriced under a
    /// different [`CostModel`] without re-analysis ([`Self::at_cost`]).
    pub breakdown: TransitionBreakdown,
    /// Compute cycles: parallel max over the epoch's programmed tiles.
    pub compute: CycleInterval,
    /// Words pushed through the links: sum over programmed tiles.
    pub copied_words: CycleInterval,
}

impl EpochBound {
    /// The epoch's compute time in ns.
    pub fn compute_ns(&self, cost: &CostModel) -> NsInterval {
        NsInterval {
            best: cost.exec_ns(self.compute.best),
            worst: self.compute.worst.map(|w| cost.exec_ns(w)),
        }
    }

    /// The epoch's total contribution to Eq. 1: `T_i + tau_i`.
    pub fn total_ns(&self, cost: &CostModel) -> NsInterval {
        self.compute_ns(cost) + NsInterval::exact(self.reconfig_ns)
    }

    /// Reprices the epoch under a different cost model. Cycle and word
    /// intervals are cost-independent and carry over unchanged;
    /// `reconfig_ns` / `stall_cycles` are re-derived from the stored
    /// [`TransitionBreakdown`] (equal to the original plan pricing up
    /// to float rounding, `< 1e-9` relative).
    pub fn at_cost(&self, cost: &CostModel) -> EpochBound {
        let reconfig_ns = self.breakdown.total_ns(cost);
        EpochBound {
            name: self.name.clone(),
            reconfig_ns,
            stall_cycles: cost.stall_cycles(reconfig_ns),
            links_changed: self.links_changed,
            breakdown: self.breakdown,
            compute: self.compute,
            copied_words: self.copied_words,
        }
    }
}

/// Static timing of a whole schedule, composed per the paper's Eq. 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleBound {
    /// Per-epoch bounds, in execution order.
    pub epochs: Vec<EpochBound>,
    /// Everything the schedule verifier and the WCET engine reported
    /// (verification findings, V110 unbounded-loop warnings).
    pub diags: Vec<Diagnostic>,
    /// The cost model the ns figures were computed under.
    pub cost: CostModel,
}

impl ScheduleBound {
    /// Σ compute time (Eq. 1's `Σ T_i`).
    pub fn total_compute_ns(&self) -> NsInterval {
        self.epochs
            .iter()
            .map(|e| e.compute_ns(&self.cost))
            .fold(NsInterval::exact(0.0), |acc, e| acc + e)
    }

    /// Σ reconfiguration time (Eq. 1's `Σ τ_ij`, including data copies).
    pub fn total_reconfig_ns(&self) -> f64 {
        self.epochs.iter().map(|e| e.reconfig_ns).sum()
    }

    /// The full Eq. 1 bound: `Σ T_i + Σ τ_ij`.
    pub fn total_ns(&self) -> NsInterval {
        self.total_compute_ns() + NsInterval::exact(self.total_reconfig_ns())
    }

    /// True when every epoch has a finite worst-case bound.
    pub fn is_bounded(&self) -> bool {
        self.epochs.iter().all(|e| e.compute.worst.is_some())
    }

    /// Reprices the whole bound under a different cost model — the
    /// batch-pricing half of the DSE sweep: analyze a schedule once
    /// (the expensive part) and sweep the cost axis (e.g. the paper's
    /// link cost `L`) by repricing each epoch's stored
    /// [`TransitionBreakdown`]. Diagnostics carry over verbatim; they
    /// describe the schedule, not the pricing.
    pub fn at_cost(&self, cost: &CostModel) -> ScheduleBound {
        ScheduleBound {
            epochs: self.epochs.iter().map(|e| e.at_cost(cost)).collect(),
            diags: self.diags.clone(),
            cost: *cost,
        }
    }
}

/// The exact preconditions a program is bounded under, packed into
/// words as a memo key: a header (init-set shape, AR inheritance), the
/// init set's bits when it is an explicit word set, the known-word
/// set's bits, then every known word's value in address order (trip
/// counts and copy variables come from these). The header fixes where
/// each part starts, so equal keys mean equal preconditions and two
/// programs can never share an entry by accident.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct PreconditionKey(Box<[u64]>);

impl PreconditionKey {
    fn of(opts: &VerifyOptions) -> PreconditionKey {
        let (shape, init) = match &opts.dmem_init {
            DmemInit::Nothing => (0, None),
            DmemInit::Everything => (1, None),
            DmemInit::Words(set) => (2, Some(set.bits())),
        };
        let known = opts.dmem_consts.known();
        let mut words = vec![shape | (opts.ars_preloaded as u64) << 2];
        words.extend(init.into_iter().flatten());
        words.extend(known.bits());
        words.extend(
            known
                .iter()
                .filter_map(|a| opts.dmem_consts.get(a))
                .map(|v| v as u64),
        );
        PreconditionKey(words.into_boxed_slice())
    }
}

/// Memoizes [`bound_program`] across a batch of schedules.
///
/// The WCET engine re-analyzes every `(program, preconditions)` pair
/// it meets; across a DSE sweep the same kernel programs recur under
/// the same accumulated constants (identical route hops, repeated
/// stage programs), and this cache collapses those repeats into one
/// analysis each. Keys are exact on both the encoded program and the
/// preconditions (never a hash of them). [`Self::hits`] /
/// [`Self::misses`] expose the effectiveness so sweeps can report it.
#[derive(Debug, Default)]
pub struct BoundCache {
    map: HashMap<(Vec<RawInstr>, PreconditionKey), ProgramBound>,
    hits: u64,
    misses: u64,
}

impl BoundCache {
    /// An empty cache.
    pub fn new() -> BoundCache {
        BoundCache::default()
    }

    /// [`bound_program`], memoized.
    pub fn bound(&mut self, prog: &[Instr], opts: &VerifyOptions) -> ProgramBound {
        let key = (encode_program(prog), PreconditionKey::of(opts));
        if let Some(b) = self.map.get(&key) {
            self.hits += 1;
            return b.clone();
        }
        let b = bound_program(prog, opts);
        self.misses += 1;
        self.map.insert(key, b.clone());
        b
    }

    /// Lookups served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that ran the full analysis.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Distinct `(program, preconditions)` pairs analyzed.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing has been analyzed yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Bounds a whole schedule statically, mirroring the simulator's
/// `EpochRunner` accounting: the same [`ReconfigPlan`] is priced with
/// the same [`CostModel`], and each program is bounded under exactly
/// the preconditions the schedule checker verified it with (accumulated
/// patches, carried constants, inherited address registers). For
/// schedules the verifier accepts, the observed per-epoch compute
/// cycles always fall inside `compute` and the simulator's reported
/// reconfiguration time equals `reconfig_ns`.
pub fn bound_schedule(mesh: Mesh, cost: &CostModel, epochs: &[EpochSpec]) -> ScheduleBound {
    bound_schedule_with(mesh, cost, epochs, &mut BoundCache::new())
}

/// [`bound_schedule`] with an explicit program-bound memo — the batch
/// entry point: one [`BoundCache`] threaded across every schedule of a
/// sweep amortizes the per-program WCET analysis, and the returned
/// [`ScheduleBound`] can then be swept across cost models with
/// [`ScheduleBound::at_cost`] without touching the analyzer again.
pub fn bound_schedule_with(
    mesh: Mesh,
    cost: &CostModel,
    epochs: &[EpochSpec],
    cache: &mut BoundCache,
) -> ScheduleBound {
    let mut pass = BoundPass::new(mesh, cost);
    walk_schedule(mesh, epochs, cache, &mut [&mut pass]);
    pass.finish()
}

/// The WCET pass: builds a [`ScheduleBound`] epoch by epoch on the
/// schedule walk — [`bound_schedule_with`] run alone, or beside the
/// other passes of one walk. [`BoundPass::finish`] counts one
/// [`crate::Work::WcetBound`].
#[derive(Debug)]
pub struct BoundPass {
    pub(crate) mesh: Mesh,
    prev_links: cgra_fabric::LinkConfig,
    out: ScheduleBound,
}

/// [`BoundPass`]'s pricing of one epoch, as the activity pass builds
/// its proofs on it: the switch charge and its stall head, the tiles
/// the switch stalls (ascending), the compute phase, and each
/// programmed tile's cycle bound and exactness in walk order.
pub(crate) struct EpochPricing {
    pub(crate) reconfig_ns: f64,
    pub(crate) stall_cycles: u64,
    pub(crate) stalled: Vec<TileId>,
    pub(crate) compute: CycleInterval,
    pub(crate) tiles: Vec<(TileId, CycleInterval, bool)>,
}

impl BoundPass {
    /// A bound for a cold array on `mesh`, priced under `cost`.
    pub fn new(mesh: Mesh, cost: &CostModel) -> BoundPass {
        BoundPass {
            mesh,
            prev_links: mesh.disconnected(),
            out: ScheduleBound {
                epochs: Vec::new(),
                diags: Vec::new(),
                cost: *cost,
            },
        }
    }

    /// The bound over every epoch walked.
    pub fn finish(mut self) -> ScheduleBound {
        crate::work::tally(crate::work::Work::WcetBound);
        // The bound outlives the walk (a certified schedule keeps it):
        // hand back no growth slack.
        self.out.epochs.shrink_to_fit();
        self.out
    }

    /// Bounds epoch `ei` — pushes its [`EpochBound`] and findings — and
    /// returns the pricing behind it.
    pub(crate) fn price(
        &mut self,
        ei: usize,
        e: &EpochSpec,
        analysis: &EpochAnalysis,
        cache: &mut BoundCache,
    ) -> EpochPricing {
        let (mesh, cost) = (self.mesh, self.out.cost);
        self.out.diags.extend(analysis.diags.iter().cloned());

        let mut plan = ReconfigPlan::from_link_change(&self.prev_links, e.links);
        for spec in &e.tiles {
            if spec.tile >= mesh.tiles() {
                continue; // UnknownTile error already reported
            }
            plan.add_tile(
                spec.tile,
                TileReconfig {
                    program: spec.program.map(encode_program),
                    data_patches: spec.data_patches.to_vec(),
                },
            );
        }
        let reconfig_ns = plan.total_ns(&cost);
        let stall_cycles = cost.stall_cycles(reconfig_ns);
        self.prev_links = e.links.clone();

        let mut compute = CycleInterval::exact(0);
        let mut copied = CycleInterval::exact(0);
        let mut tiles = Vec::with_capacity(analysis.tiles.len());
        for ta in &analysis.tiles {
            let pb = cache.bound(ta.prog, &ta.opts);
            self.out.diags.extend(
                pb.diags
                    .into_iter()
                    .map(|d| d.on_tile(ta.tile).in_epoch(ei)),
            );
            compute = compute.parallel_max(pb.cycles);
            copied = copied + pb.remote_words;
            tiles.push((ta.tile, pb.cycles, pb.exact));
        }
        self.out.epochs.push(EpochBound {
            name: e.name.to_string(),
            reconfig_ns,
            stall_cycles,
            links_changed: plan.changed_links,
            breakdown: plan.breakdown(),
            compute,
            copied_words: copied,
        });
        let mut stalled = plan.stalled_tiles();
        stalled.sort_unstable();
        EpochPricing {
            reconfig_ns,
            stall_cycles,
            stalled,
            compute,
            tiles,
        }
    }
}

impl EpochPass for BoundPass {
    fn epoch(
        &mut self,
        ei: usize,
        e: &EpochSpec,
        analysis: &EpochAnalysis,
        cache: &mut BoundCache,
    ) {
        self.price(ei, e, analysis, cache);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::DmemInit;
    use crate::schedule::TileSpec;
    use cgra_fabric::Tile;
    use cgra_isa::ops::{at, at_off, d, imm};
    use cgra_isa::PeState;

    fn bound(prog: &[Instr]) -> ProgramBound {
        bound_program(prog, &VerifyOptions::default())
    }

    /// Runs `prog` on a real tile and checks the static bound is exact
    /// and equal to the interpreter's cycle count.
    fn assert_exact_matches_interpreter(prog: &[Instr]) {
        let pb = bound(prog);
        assert!(pb.exact, "expected exact bound, got {pb:?}");
        let mut tile = Tile::new(0);
        tile.load_program(&encode_program(prog)).expect("loads");
        let mut st = PeState::new();
        let stats = cgra_isa::run(&mut tile, &mut st, 1_000_000).expect("halts");
        assert_eq!(pb.cycles, CycleInterval::exact(stats.cycles));
    }

    #[test]
    fn straight_line_is_exact() {
        let prog = vec![
            Instr::Ldi { dst: d(0), imm: 3 },
            Instr::Add {
                dst: d(1),
                a: d(0),
                b: imm(4),
            },
            Instr::Halt,
        ];
        let pb = bound(&prog);
        assert!(pb.exact);
        assert_eq!(pb.cycles, CycleInterval::exact(3));
        assert_eq!(pb.remote_words, CycleInterval::exact(0));
        assert!(pb.diags.is_empty());
    }

    #[test]
    fn djnz_loop_matches_interpreter() {
        // 1 + 5*(add+djnz) + halt = 12 cycles.
        let prog = vec![
            Instr::Ldi { dst: d(0), imm: 5 },
            Instr::Add {
                dst: d(1),
                a: d(1),
                b: imm(2),
            },
            Instr::Djnz {
                dst: d(0),
                target: 1,
            },
            Instr::Halt,
        ];
        assert_exact_matches_interpreter(&prog);
        let pb = bound(&prog);
        assert_eq!(
            pb.loops,
            vec![LoopBound {
                header_pc: 1,
                trips: Some(5)
            }]
        );
    }

    #[test]
    fn nested_indirect_loop_matches_interpreter() {
        // AR-stepped inner loop inside a counted outer loop — the shape
        // that defeats pure fixpoint analysis (ARs join to Unknown at
        // the header) but that the path executor replays exactly.
        let prog = vec![
            Instr::Ldi { dst: d(0), imm: 3 }, // outer counter
            Instr::Ldar {
                k: 0,
                src: None,
                imm: 100,
            },
            Instr::Ldi { dst: d(1), imm: 4 }, // inner counter
            Instr::Mov {
                dst: at(0),
                a: imm(7),
            },
            Instr::Adar { k: 0, delta: 1 },
            Instr::Djnz {
                dst: d(1),
                target: 3,
            },
            Instr::Djnz {
                dst: d(0),
                target: 2,
            },
            Instr::Halt,
        ];
        assert_exact_matches_interpreter(&prog);
    }

    #[test]
    fn spin_wait_is_unbounded_with_v110() {
        // bz on a word the program never writes: a neighbour handshake.
        let prog = vec![
            Instr::Bz {
                a: d(50),
                target: 0,
            },
            Instr::Halt,
        ];
        let opts = VerifyOptions {
            dmem_init: DmemInit::Everything,
            ..VerifyOptions::default()
        };
        let pb = bound_program(&prog, &opts);
        assert!(!pb.exact);
        assert_eq!(pb.cycles.worst, None);
        // Best case: the flag is already clear, one bz + one halt.
        assert_eq!(pb.cycles.best, 2);
        assert!(
            pb.diags
                .iter()
                .any(|dg| dg.code == Code::UnboundedLoop && !dg.is_error()),
            "{:?}",
            pb.diags
        );
    }

    #[test]
    fn unknown_branch_after_counted_loop_still_bounded() {
        // djnz loop (trips inferable) then a branch on unknown data:
        // the executor gives up, the structural bound does not.
        let prog = vec![
            Instr::Ldi { dst: d(0), imm: 3 },
            Instr::Nop,
            Instr::Djnz {
                dst: d(0),
                target: 1,
            },
            Instr::Bneg { a: d(9), target: 5 },
            Instr::Nop,
            Instr::Halt,
        ];
        let opts = VerifyOptions {
            dmem_init: DmemInit::Everything,
            ..VerifyOptions::default()
        };
        let pb = bound_program(&prog, &opts);
        assert!(!pb.exact);
        // Taken: 1 + 3*2 + 1 + 1 = 9; not taken: +1 nop = 10.
        assert_eq!(pb.cycles.best, 9);
        assert_eq!(pb.cycles.worst, Some(10));
        assert!(pb.diags.is_empty(), "{:?}", pb.diags);
        assert_eq!(
            pb.loops,
            vec![LoopBound {
                header_pc: 1,
                trips: Some(3)
            }]
        );
    }

    #[test]
    fn remote_words_counted_exactly() {
        let prog = vec![
            Instr::Ldi { dst: d(0), imm: 4 },
            Instr::Ldar {
                k: 1,
                src: None,
                imm: 20,
            },
            Instr::Mov {
                dst: Operand::Rem { ar: 1, disp: 0 },
                a: imm(9),
            },
            Instr::Adar { k: 1, delta: 1 },
            Instr::Djnz {
                dst: d(0),
                target: 2,
            },
            Instr::Halt,
        ];
        let pb = bound(&prog);
        assert!(pb.exact);
        assert_eq!(pb.remote_words, CycleInterval::exact(4));
    }

    #[test]
    fn consts_precondition_resolves_copy_variables() {
        // The vcp pattern: ldar through patched variables. Without the
        // consts the trip counter resolves but the bases do not matter
        // for timing; with them the program is fully deterministic.
        let mut consts = crate::dmem::ConstMap::empty();
        consts.set(500, 40);
        let prog = vec![
            Instr::Ldar {
                k: 0,
                src: Some(d(500)),
                imm: 0,
            },
            Instr::Ldi { dst: d(1), imm: 2 },
            Instr::Mov {
                dst: d(2),
                a: at_off(0, 0),
            },
            Instr::Adar { k: 0, delta: 1 },
            Instr::Djnz {
                dst: d(1),
                target: 2,
            },
            Instr::Halt,
        ];
        let opts = VerifyOptions {
            dmem_init: DmemInit::Everything,
            dmem_consts: consts,
            ..VerifyOptions::default()
        };
        let pb = bound_program(&prog, &opts);
        assert!(pb.exact);
        assert_eq!(pb.cycles, CycleInterval::exact(2 + 2 * 3 + 1));
    }

    #[test]
    fn interval_algebra() {
        let a = CycleInterval::exact(5);
        let b = CycleInterval::unbounded(3);
        assert!(a.is_exact() && !b.is_exact());
        assert_eq!(a + b, CycleInterval::unbounded(8));
        assert_eq!(a.parallel_max(CycleInterval::exact(2)), a);
        assert_eq!(a.parallel_max(b).worst, None);
        assert!(a.contains(5) && !a.contains(6) && b.contains(1_000_000));
        let ns = NsInterval::exact(10.0)
            + NsInterval {
                best: 1.0,
                worst: Some(2.0),
            };
        assert!(ns.contains(11.5, 0.0) && !ns.contains(12.5, 0.0));
    }

    #[test]
    fn schedule_bound_mirrors_reconfig_accounting() {
        let mesh = Mesh::new(1, 1);
        let links = mesh.disconnected();
        let prog = vec![
            Instr::Ldi { dst: d(0), imm: 8 },
            Instr::Nop,
            Instr::Djnz {
                dst: d(0),
                target: 1,
            },
            Instr::Halt,
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
        let cost = CostModel::default();
        let sb = bound_schedule(mesh, &cost, &epochs);
        assert_eq!(sb.epochs.len(), 1);
        let e = &sb.epochs[0];
        // 1 + 8*2 + 1 cycles, exactly.
        assert_eq!(e.compute, CycleInterval::exact(18));
        // Loading a 4-instruction image costs 4 instruction words.
        assert!((e.reconfig_ns - cost.instr_reload_ns(4)).abs() < 1e-9);
        assert_eq!(
            e.stall_cycles,
            (e.reconfig_ns / cost.cycle_ns()).ceil() as u64
        );
        let total = sb.total_ns();
        let expect = cost.exec_ns(18) + e.reconfig_ns;
        assert!(total.contains(expect, 1e-12), "{total:?} vs {expect}");
        assert!(sb.is_bounded());
    }

    #[test]
    fn bound_cache_memoizes_and_agrees() {
        let prog = vec![
            Instr::Ldi { dst: d(0), imm: 5 },
            Instr::Add {
                dst: d(1),
                a: d(1),
                b: imm(2),
            },
            Instr::Djnz {
                dst: d(0),
                target: 1,
            },
            Instr::Halt,
        ];
        let opts = VerifyOptions::default();
        let mut cache = BoundCache::new();
        assert!(cache.is_empty());
        let first = cache.bound(&prog, &opts);
        let second = cache.bound(&prog, &opts);
        assert_eq!(first, second);
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        // The memo must be invisible: same result as the direct path.
        assert_eq!(first, bound_program(&prog, &opts));
        // Different preconditions are a different entry — a preloaded
        // AR set changes what the analyses may assume.
        let warm = VerifyOptions {
            ars_preloaded: true,
            ..VerifyOptions::default()
        };
        cache.bound(&prog, &warm);
        assert_eq!((cache.misses(), cache.len()), (2, 2));
        // ... and so is a different constant value behind a counter.
        let mut consts = crate::dmem::ConstMap::empty();
        consts.set(7, 3);
        let with_const = VerifyOptions {
            dmem_consts: consts,
            ..VerifyOptions::default()
        };
        cache.bound(&prog, &with_const);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn bound_cache_keys_on_the_exact_preconditions() {
        let prog = vec![
            Instr::Ldar {
                k: 0,
                src: Some(d(7)),
                imm: 0,
            },
            Instr::Ldi { dst: d(0), imm: 3 },
            Instr::Djnz {
                dst: d(0),
                target: 1,
            },
            Instr::Halt,
        ];
        let with = |value: i64, ars_preloaded: bool| {
            let mut consts = crate::dmem::ConstMap::empty();
            consts.set(7, value);
            consts.set(9, 1);
            VerifyOptions {
                dmem_init: DmemInit::Words(crate::dmem::WordSet::full()),
                dmem_consts: consts,
                ars_preloaded,
            }
        };
        let mut cache = BoundCache::new();
        cache.bound(&prog, &with(3, false));
        // One known constant differs: a second entry.
        cache.bound(&prog, &with(4, false));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 2, 2));
        // Only the AR flag differs: a third.
        cache.bound(&prog, &with(3, true));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 3, 3));
        // Equal preconditions, built afresh: a hit on the first entry.
        let hit = cache.bound(&prog, &with(3, false));
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 3, 3));
        assert_eq!(hit, bound_program(&prog, &with(3, false)));
        // Same may-initialized words under another init shape: another
        // entry, as the shapes are distinct preconditions.
        let everything = VerifyOptions {
            dmem_init: DmemInit::Everything,
            ..with(3, false)
        };
        cache.bound(&prog, &everything);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn schedule_bound_reprices_across_cost_models() {
        use cgra_fabric::Direction;
        let mesh = Mesh::new(1, 2);
        let links = mesh.disconnected().with(0, Direction::East);
        let prog = vec![
            Instr::Ldi { dst: d(0), imm: 4 },
            Instr::Nop,
            Instr::Djnz {
                dst: d(0),
                target: 1,
            },
            Instr::Halt,
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
        let base = CostModel::with_link_cost(0.0);
        let sb = bound_schedule(mesh, &base, &epochs);
        for link_ns in [0.0, 100.0, 400.0, 700.0] {
            let cost = CostModel::with_link_cost(link_ns);
            let repriced = sb.at_cost(&cost);
            let fresh = bound_schedule(mesh, &cost, &epochs);
            assert_eq!(repriced.epochs.len(), fresh.epochs.len());
            for (r, f) in repriced.epochs.iter().zip(&fresh.epochs) {
                // Cycle intervals are cost-independent.
                assert_eq!(r.compute, f.compute);
                assert_eq!(r.copied_words, f.copied_words);
                assert_eq!(r.breakdown, f.breakdown);
                // Prices agree up to float rounding (breakdown vs plan).
                let rel = (r.reconfig_ns - f.reconfig_ns).abs() / f.reconfig_ns.max(1.0);
                assert!(
                    rel < 1e-9,
                    "L={link_ns}: {} vs {}",
                    r.reconfig_ns,
                    f.reconfig_ns
                );
                assert_eq!(r.stall_cycles, f.stall_cycles);
            }
            assert_eq!(repriced.cost, cost);
            // Link cost must actually show up in the price.
            if link_ns > 0.0 {
                assert!(repriced.total_reconfig_ns() > sb.total_reconfig_ns());
            }
        }
    }

    #[test]
    fn batched_bound_matches_unbatched() {
        let mesh = Mesh::new(1, 1);
        let links = mesh.disconnected();
        let prog = vec![
            Instr::Ldi { dst: d(0), imm: 8 },
            Instr::Nop,
            Instr::Djnz {
                dst: d(0),
                target: 1,
            },
            Instr::Halt,
        ];
        let spec = |name| EpochSpec {
            name,
            links: &links,
            tiles: vec![TileSpec {
                tile: 0,
                program: Some(&prog),
                data_patches: &[],
            }],
        };
        let cost = CostModel::default();
        let mut cache = BoundCache::new();
        let a = bound_schedule_with(mesh, &cost, &[spec("a")], &mut cache);
        let b = bound_schedule_with(mesh, &cost, &[spec("b")], &mut cache);
        assert_eq!(a.epochs[0].compute, b.epochs[0].compute);
        // The second schedule's identical (program, preconditions)
        // pair was served from the memo.
        assert!(
            cache.hits() >= 1,
            "hits {} misses {}",
            cache.hits(),
            cache.misses()
        );
        assert_eq!(
            a.epochs[0],
            bound_schedule(mesh, &cost, &[spec("a")]).epochs[0]
        );
    }
}
