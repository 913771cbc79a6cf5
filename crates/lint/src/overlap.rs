//! `lint::overlap` — whole-schedule static idle-window analysis and the
//! proof-gated reconfiguration hoisting transformer.
//!
//! The paper's central promise (Sec. 1, Eq. 1) is that partial
//! reconfiguration of some tiles *overlaps* computation in others; the
//! example schedules barely exploit it — most epochs stream their whole
//! switch through the foreground ICAP while every touched tile stalls.
//! This module turns the overlap story into a static analysis plus a
//! schedule transformer:
//!
//! 1. **Idle-window analysis.** For each tile and epoch it derives a
//!    provably-idle window from the verifier effect summaries and the
//!    WCET engine's per-program bounds. Every epoch offers two
//!    execution-free [`Segment`]s:
//!    * the **head** `[0, stall)`: the quiescence barrier means *no*
//!      tile executes while the foreground switch streams — touched
//!      tiles are stalled (their shadow plane is separate memory, so a
//!      background stream cannot collide with the active-plane rewrite)
//!      and untouched tiles are halted. Head capacity is the epoch's
//!      final foreground stall, tile-independent;
//!    * the per-tile **tail** after the stall: an untouched or
//!      patch-only tile never runs (a patch does not re-arm a halted
//!      PE), window `compute_best`; a reprogrammed tile computes for at
//!      most its own worst-case bound and then halts, window
//!      `compute_best - worst(tile)`, provably empty when the worst
//!      case is unbounded.
//!
//!    Windows are reported as [`cgra_verify::Code::IdleWindow`] (L008)
//!    with `cycles = head + tail`.
//! 2. **Proof-gated hoisting.** A per-slot reconfiguration payload of
//!    epoch `j` can be *prefetched*: streamed through a background port
//!    into the tile's shadow configuration plane during idle windows of
//!    earlier epochs, and committed — a zero-ICAP-cost plane swap — at
//!    the switch into `j`. Every [`Hoist`] carries a machine-checkable
//!    [`HoistCertificate`]; [`verify_hoists`] re-derives all three
//!    obligations independently and refuses the plan
//!    ([`cgra_verify::Code::HoistRefused`], L011, an error) on any
//!    mismatch:
//!    * **idle-window**: the claimed cycles exist and pack (the single
//!      background port serializes each epoch's claims per segment; a
//!      claim fits iff the segment's accumulated fill stays inside the
//!      re-derived window — the final stall for a head claim, the
//!      claiming tile's idle suffix for a tail claim),
//!    * **non-interference**: the payload is byte-identical to the
//!      slot it replaces and commits exactly where the original switch
//!      applied it, so the active-plane dataflow — the L001–L003
//!      clobber lattice and the V100–V103 race analysis — is untouched
//!      by construction; the shadow plane itself never exceeds its slot
//!      budget and never holds two payloads for one (tile, target),
//!    * **WCET-containment**: the hoisted epoch's recomputed
//!      reconfiguration charge and stall still bound the run (compute
//!      intervals are invariant — the same programs run — and the
//!      foreground charge only shrinks), checked exactly against the
//!      certificate's recorded before/after figures.
//!
//! Soundness of the fixed point: targets are processed in increasing
//! epoch order and claims only reach *earlier* epochs, so every window
//! is evaluated against the claimed epoch's **final** (post-hoisting)
//! stall — durations shrink before they are read, never after. The
//! committed payloads are applied at the original switch points, and
//! every re-armed tile still waits out the (shorter) foreground stall,
//! so the execution is cycle-aligned with the original schedule and the
//! replay is bit-exact (DESIGN.md Sec. 13).

use crate::level::LintLevels;
use cgra_fabric::{CostModel, LinkConfig, Mesh, TileId};
use cgra_verify::{
    walk_schedule, BoundCache, Code, Diagnostic, EpochAnalysis, EpochPass, EpochSpec,
    ScheduleBound, Severity,
};

/// How a tile spends one epoch, as far as the static analysis can prove.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TileBusy {
    /// No setup touches the tile: halted for the whole epoch.
    Untouched,
    /// Patched but not reprogrammed: stalls, never runs.
    PatchOnly,
    /// Reprogrammed: busy up to `worst` cycles after the stall
    /// (`None` = no static bound; the tile is never provably idle).
    Programmed {
        /// Worst-case compute cycles of the loaded program.
        worst: Option<u64>,
    },
}

/// Per-slot payload sizes, aligned with [`EpochSpec::tiles`].
#[derive(Debug, Clone, Copy)]
struct SlotPayload {
    tile: TileId,
    data_words: usize,
    instr_words: usize,
}

/// Static per-epoch facts the planner and the re-verifier share.
struct EpochFacts {
    slots: Vec<SlotPayload>,
    links_changed: usize,
    /// Parallel-max best-case compute cycles over programmed tiles.
    compute_best: u64,
    busy: Vec<TileBusy>,
}

/// One analysis pass over the schedule: verifier state threaded across
/// epochs, WCET bounds per loaded program, payload sizes per slot.
fn epoch_facts(mesh: Mesh, epochs: &[EpochSpec]) -> Vec<EpochFacts> {
    let mut pass = FactsPass {
        mesh,
        prev_links: mesh.disconnected(),
        facts: Vec::with_capacity(epochs.len()),
    };
    walk_schedule(mesh, epochs, &mut BoundCache::new(), &mut [&mut pass]);
    pass.facts
}

/// The hoist planner's pass on the schedule walk: one [`EpochFacts`]
/// per epoch.
struct FactsPass {
    mesh: Mesh,
    prev_links: LinkConfig,
    facts: Vec<EpochFacts>,
}

impl EpochPass for FactsPass {
    fn epoch(&mut self, _: usize, e: &EpochSpec, analysis: &EpochAnalysis, cache: &mut BoundCache) {
        let links_changed = self.prev_links.delta(e.links);
        self.prev_links = e.links.clone();
        let mut busy = vec![TileBusy::Untouched; self.mesh.tiles()];
        let slots: Vec<SlotPayload> = e
            .tiles
            .iter()
            .map(|spec| SlotPayload {
                tile: spec.tile,
                data_words: spec.data_patches.iter().map(|p| p.len()).sum(),
                instr_words: spec.program.map_or(0, <[_]>::len),
            })
            .collect();
        for spec in &e.tiles {
            if spec.tile >= self.mesh.tiles() {
                continue;
            }
            if spec.program.is_some() {
                busy[spec.tile] = TileBusy::Programmed { worst: None };
            } else if busy[spec.tile] == TileBusy::Untouched {
                busy[spec.tile] = TileBusy::PatchOnly;
            }
        }
        let mut compute_best = 0u64;
        for ta in &analysis.tiles {
            let pb = cache.bound(ta.prog, &ta.opts);
            compute_best = compute_best.max(pb.cycles.best);
            if ta.tile < busy.len() {
                busy[ta.tile] = TileBusy::Programmed {
                    worst: pb.cycles.worst,
                };
            }
        }
        self.facts.push(EpochFacts {
            slots,
            links_changed,
            compute_best,
            busy,
        });
    }
}

/// Foreground (non-hoisted) switch content of one epoch.
#[derive(Debug, Clone, Copy)]
struct Foreground {
    data_words: usize,
    instr_words: usize,
    links: usize,
}

impl Foreground {
    fn ns(&self, cost: &CostModel) -> f64 {
        cost.data_reload_ns(self.data_words)
            + cost.instr_reload_ns(self.instr_words)
            + cost.links_reconfig_ns(self.links)
    }

    fn stall(&self, cost: &CostModel) -> u64 {
        cost.stall_cycles(self.ns(cost))
    }
}

/// Every epoch has **two** provably-execution-free regions the
/// background port can stream in:
///
/// * the **head** `[0, stall)`: the quiescence barrier means no tile
///   executes before the switch completes — touched tiles are stalled
///   (their *active* plane is being rewritten; the shadow plane is a
///   separate memory), untouched tiles are halted. Head capacity is
///   tile-independent: the whole foreground stall.
/// * the per-tile **tail**: after the stall a tile is idle once it
///   halts — the whole compute phase for tiles that never re-arm,
///   `compute_best - worst` for reprogrammed tiles, nothing when the
///   worst case is unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Segment {
    /// The stall region `[0, stall)` at the start of the epoch.
    Head,
    /// The tile's idle suffix of the compute phase.
    Tail,
}

/// The tail-segment window of `tile` in epoch `e` (head capacity is the
/// epoch's final foreground stall, independent of the tile).
fn tail_window(facts: &EpochFacts, tile: TileId) -> u64 {
    match facts.busy.get(tile).copied().unwrap_or(TileBusy::Untouched) {
        TileBusy::Untouched | TileBusy::PatchOnly => facts.compute_best,
        TileBusy::Programmed { worst: Some(w) } => facts.compute_best.saturating_sub(w),
        TileBusy::Programmed { worst: None } => 0,
    }
}

/// A provably-idle cycle window of one tile in one epoch (L008).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdleWindow {
    /// The idle tile.
    pub tile: TileId,
    /// The epoch it is idle in.
    pub epoch: usize,
    /// Provably-idle cycles — the head (final foreground stall) plus
    /// the tile's tail window, under the post-hoisting stalls.
    pub cycles: u64,
}

/// One background-port reservation: `cycles` of streaming inside one
/// execution-free segment of `epoch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Claim {
    /// The epoch claimed from.
    pub epoch: usize,
    /// Which execution-free region of it.
    pub segment: Segment,
    /// Streaming cycles reserved there.
    pub cycles: u64,
}

/// The proof artifacts backing one claim: the claimed segment's capacity
/// and the background-port fill after the claim, both re-derived and
/// cross-checked by [`verify_hoists`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClaimProof {
    /// The claimed epoch.
    pub epoch: usize,
    /// The claimed segment.
    pub segment: Segment,
    /// The segment's capacity: the final foreground stall for
    /// [`Segment::Head`], the claiming tile's idle-suffix cycles for
    /// [`Segment::Tail`].
    pub window: u64,
    /// Port fill of the segment (total claimed cycles) including this
    /// claim; must fit inside `window`.
    pub fill_after: u64,
}

/// The machine-checkable justification carried by every [`Hoist`].
#[derive(Debug, Clone, PartialEq)]
pub struct HoistCertificate {
    /// One proof per claim, in claim order (idle-window obligation).
    pub claims: Vec<ClaimProof>,
    /// Peak shadow-plane occupancy of the tile while the payload is
    /// pending, bounded by the configured depth (non-interference).
    pub queue_peak: usize,
    /// The target epoch's switch charge before the hoist, ns.
    pub reconfig_before_ns: f64,
    /// The target epoch's switch charge after the hoist, ns
    /// (WCET-containment: the hoisted bound only shrinks).
    pub reconfig_after_ns: f64,
}

/// One applied hoist: the payload of `epochs[target].tiles[slot]`,
/// prefetched into earlier idle windows and committed at the original
/// switch point.
#[derive(Debug, Clone, PartialEq)]
pub struct Hoist {
    /// Epoch whose switch originally streamed the payload.
    pub target: usize,
    /// Slot index within the target epoch's tile list.
    pub slot: usize,
    /// The reconfigured tile.
    pub tile: TileId,
    /// Data words in the payload.
    pub data_words: usize,
    /// Instruction words in the payload.
    pub instr_words: usize,
    /// ICAP time of the payload, ns (what the target epoch saves).
    pub payload_ns: f64,
    /// Background-port streaming cycles the payload needs.
    pub stream_cycles: u64,
    /// Reservations that cover `stream_cycles`, all strictly before
    /// `target`, in the order they were packed.
    pub claims: Vec<Claim>,
    /// The discharged proofs.
    pub cert: HoistCertificate,
}

/// A candidate the planner refused, with the failed obligation (L009).
#[derive(Debug, Clone, PartialEq)]
pub struct Refusal {
    /// Epoch whose switch keeps the payload.
    pub target: usize,
    /// Slot index within the target epoch's tile list.
    pub slot: usize,
    /// The reconfigured tile.
    pub tile: TileId,
    /// ICAP time that stays in the foreground, ns.
    pub payload_ns: f64,
    /// Which proof failed and why.
    pub reason: String,
}

/// Planner knobs.
#[derive(Debug, Clone, Copy)]
pub struct HoistOptions {
    /// Shadow-plane slots per tile (pending prefetches a tile can hold).
    /// The default of 8 is sized for the FFT local stages, which queue
    /// one payload per remaining stage behind the cross-stage phase.
    pub shadow_depth: usize,
}

impl Default for HoistOptions {
    fn default() -> HoistOptions {
        HoistOptions { shadow_depth: 8 }
    }
}

/// The hoisting transform for one schedule: applied hoists with their
/// certificates, refusals, the idle-window map, and the materialized
/// L008–L010 diagnostics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HoistPlan {
    /// Shadow-plane depth the plan was built for.
    pub shadow_depth: usize,
    /// Applied hoists, in (target, slot) order.
    pub hoists: Vec<Hoist>,
    /// Refused candidates.
    pub refused: Vec<Refusal>,
    /// Non-empty idle windows under the final stalls.
    pub windows: Vec<IdleWindow>,
    /// Σ foreground switch time before hoisting, ns.
    pub reconfig_before_ns: f64,
    /// Σ foreground switch time after hoisting, ns.
    pub reconfig_after_ns: f64,
    /// L008/L009/L010 findings at the configured levels.
    pub diags: Vec<Diagnostic>,
}

impl HoistPlan {
    /// Total ICAP time moved off the critical path, ns.
    pub fn hoisted_ns(&self) -> f64 {
        self.hoists.iter().map(|h| h.payload_ns).sum()
    }

    /// True when `epochs[target].tiles[slot]` is prefetched by this plan.
    pub fn is_hoisted(&self, target: usize, slot: usize) -> bool {
        self.hoists
            .iter()
            .any(|h| h.target == target && h.slot == slot)
    }

    /// The applied hoists targeting one epoch.
    pub fn hoists_for(&self, target: usize) -> impl Iterator<Item = &Hoist> {
        self.hoists.iter().filter(move |h| h.target == target)
    }

    /// The shadow-plane slot tags this plan occupies, for footprint
    /// certification: one claim per applied hoist (a payload is staged
    /// once its last donor claim's epoch ends and sits in the plane
    /// until its target's switch commits it), ascending by
    /// (tile, target). Derive these only from a plan that already
    /// survived [`verify_hoists`].
    pub fn shadow_claims(&self) -> Vec<cgra_verify::ShadowClaim> {
        let mut claims: Vec<cgra_verify::ShadowClaim> = self
            .hoists
            .iter()
            .map(|h| cgra_verify::ShadowClaim {
                tile: h.tile,
                staged_after: h.claims.iter().map(|c| c.epoch).max().unwrap_or(0),
                target: h.target,
            })
            .collect();
        claims.sort_by_key(|c| (c.tile, c.target));
        claims
    }
}

/// First patched word of a slot, for diagnostic provenance.
fn slot_word(e: &EpochSpec, slot: usize) -> Option<usize> {
    e.tiles
        .get(slot)
        .and_then(|s| s.data_patches.first())
        .map(|p| p.base)
}

/// Builds the hoisting plan for a schedule: computes the idle-window
/// map, packs every per-slot payload it can prove safe into earlier
/// windows (latest-first, so early shared capacity is preserved for the
/// early targets that have no other option), and discharges the three
/// certificates per hoist. Epoch 0 has nothing earlier and is never a
/// target; payloads that do not fit are refused with the failed
/// obligation. The input schedule is not modified — the plan is applied
/// by the simulator's hoisted runner and priced by [`hoisted_bound`].
pub fn plan_hoists(
    mesh: Mesh,
    epochs: &[EpochSpec],
    levels: &LintLevels,
    cost: &CostModel,
    opts: &HoistOptions,
) -> HoistPlan {
    cgra_verify::work::tally(cgra_verify::Work::HoistPlan);
    let facts = epoch_facts(mesh, epochs);
    let n = epochs.len();
    let mut fg: Vec<Foreground> = facts
        .iter()
        .map(|f| Foreground {
            data_words: f.slots.iter().map(|s| s.data_words).sum(),
            instr_words: f.slots.iter().map(|s| s.instr_words).sum(),
            links: f.links_changed,
        })
        .collect();
    let mut plan = HoistPlan {
        shadow_depth: opts.shadow_depth.max(1),
        reconfig_before_ns: fg.iter().map(|f| f.ns(cost)).sum(),
        ..HoistPlan::default()
    };
    // Background-port fill per epoch and segment, and shadow occupancy
    // per (tile, epoch).
    let mut head_fill = vec![0u64; n];
    let mut tail_fill = vec![0u64; n];
    let mut occupancy = vec![vec![0usize; n]; mesh.tiles()];

    for j in 1..n {
        // Epochs before j are final: their own targets were processed
        // already, so their stalls only shrank before being read here.
        for (slot, payload) in facts[j].slots.clone().into_iter().enumerate() {
            if payload.tile >= mesh.tiles() {
                continue;
            }
            let payload_ns =
                cost.data_reload_ns(payload.data_words) + cost.instr_reload_ns(payload.instr_words);
            if payload_ns <= 0.0 {
                continue; // no-op slot, nothing to move
            }
            let stream_cycles = cost.stall_cycles(payload_ns);
            // Pack claims latest-first: windows close to j are useless
            // to earlier targets, early windows are everyone's.
            let mut remaining = stream_cycles;
            let mut claims = Vec::new();
            let mut proofs = Vec::new();
            for e in (0..j).rev() {
                if remaining == 0 {
                    break;
                }
                for segment in [Segment::Tail, Segment::Head] {
                    if remaining == 0 {
                        break;
                    }
                    let (window, fill) = match segment {
                        Segment::Tail => (tail_window(&facts[e], payload.tile), tail_fill[e]),
                        Segment::Head => (fg[e].stall(cost), head_fill[e]),
                    };
                    let free = window.saturating_sub(fill);
                    if free == 0 {
                        continue;
                    }
                    let c = free.min(remaining);
                    remaining -= c;
                    claims.push(Claim {
                        epoch: e,
                        segment,
                        cycles: c,
                    });
                    proofs.push(ClaimProof {
                        epoch: e,
                        segment,
                        window,
                        fill_after: fill + c,
                    });
                }
            }
            if remaining > 0 {
                plan.refused.push(Refusal {
                    target: j,
                    slot,
                    tile: payload.tile,
                    payload_ns,
                    reason: format!(
                        "idle-window deficit: {} of {} streaming cycles uncovered by \
                         provably-idle time before the epoch",
                        remaining, stream_cycles
                    ),
                });
                continue;
            }
            // Non-interference: the payload occupies one shadow slot of
            // its tile from its first claimed epoch until the commit.
            let first = claims.iter().map(|c| c.epoch).min().unwrap_or(j);
            let peak = (first..j)
                .map(|e| occupancy[payload.tile][e] + 1)
                .max()
                .unwrap_or(1);
            if peak > plan.shadow_depth {
                plan.refused.push(Refusal {
                    target: j,
                    slot,
                    tile: payload.tile,
                    payload_ns,
                    reason: format!(
                        "shadow plane full: occupancy would reach {} of {} slots",
                        peak, plan.shadow_depth
                    ),
                });
                continue;
            }
            // All three obligations discharge: commit the reservations.
            for c in &claims {
                match c.segment {
                    Segment::Head => head_fill[c.epoch] += c.cycles,
                    Segment::Tail => tail_fill[c.epoch] += c.cycles,
                }
            }
            for occ in &mut occupancy[payload.tile][first..j] {
                *occ += 1;
            }
            let before_ns = fg[j].ns(cost);
            fg[j].data_words -= payload.data_words;
            fg[j].instr_words -= payload.instr_words;
            plan.hoists.push(Hoist {
                target: j,
                slot,
                tile: payload.tile,
                data_words: payload.data_words,
                instr_words: payload.instr_words,
                payload_ns,
                stream_cycles,
                claims,
                cert: HoistCertificate {
                    claims: proofs,
                    queue_peak: peak,
                    reconfig_before_ns: before_ns,
                    reconfig_after_ns: fg[j].ns(cost),
                },
            });
        }
    }
    plan.reconfig_after_ns = fg.iter().map(|f| f.ns(cost)).sum();

    // The idle-window map under the final stalls, and the findings.
    for (e, f) in facts.iter().enumerate() {
        let stall = fg[e].stall(cost);
        for t in 0..mesh.tiles() {
            let cycles = stall.saturating_add(tail_window(f, t));
            if cycles > 0 {
                plan.windows.push(IdleWindow {
                    tile: t,
                    epoch: e,
                    cycles,
                });
                if let Some(sev) = levels.severity(Code::IdleWindow) {
                    plan.diags.push(
                        Diagnostic {
                            severity: sev,
                            ..Diagnostic::error(
                                Code::IdleWindow,
                                format!(
                                    "tile provably idle for {cycles} cycles — room to hide \
                                     {:.1} ns of background reconfiguration",
                                    cost.exec_ns(cycles)
                                ),
                            )
                        }
                        .on_tile(t)
                        .in_epoch(e),
                    );
                }
            }
        }
    }
    for h in &plan.hoists {
        if let Some(sev) = levels.severity(Code::HoistApplied) {
            let mut d = Diagnostic {
                severity: sev,
                ..Diagnostic::error(
                    Code::HoistApplied,
                    format!(
                        "{:.1} ns of switch payload ({} data + {} instr words) prefetched \
                         across {} idle window(s); certificates discharged",
                        h.payload_ns,
                        h.data_words,
                        h.instr_words,
                        h.claims.len()
                    ),
                )
            }
            .on_tile(h.tile)
            .in_epoch(h.target);
            if let Some(w) = slot_word(&epochs[h.target], h.slot) {
                d = d.at_word(w);
            }
            plan.diags.push(d);
        }
    }
    for r in &plan.refused {
        if let Some(sev) = levels.severity(Code::HoistInterference) {
            let mut d = Diagnostic {
                severity: sev,
                ..Diagnostic::error(
                    Code::HoistInterference,
                    format!(
                        "{:.1} ns of switch payload stays in the foreground: {}",
                        r.payload_ns, r.reason
                    ),
                )
            }
            .on_tile(r.tile)
            .in_epoch(r.target);
            if let Some(w) = slot_word(&epochs[r.target], r.slot) {
                d = d.at_word(w);
            }
            plan.diags.push(d);
        }
    }
    plan
}

/// Independently re-verifies every certificate of a plan against the
/// schedule it claims to transform. Any discrepancy — a payload that
/// does not match its slot, a claim at or after its target, a tail that
/// overflows a re-derived window, a shadow plane over depth or holding
/// two payloads for one (tile, target), or certificate figures that
/// disagree with the re-derivation — is a
/// [`cgra_verify::Code::HoistRefused`] (L011) **error**: a schedule
/// carrying a prefetch whose proofs fail is certainly broken and must
/// not run. An empty return means every obligation discharged.
pub fn verify_hoists(
    mesh: Mesh,
    epochs: &[EpochSpec],
    plan: &HoistPlan,
    cost: &CostModel,
) -> Vec<Diagnostic> {
    cgra_verify::work::tally(cgra_verify::Work::HoistReproof);
    let mut diags = Vec::new();
    let refuse = |h: &Hoist, msg: String| {
        Diagnostic {
            severity: Severity::Error,
            ..Diagnostic::error(Code::HoistRefused, msg)
        }
        .on_tile(h.tile)
        .in_epoch(h.target)
    };
    let facts = epoch_facts(mesh, epochs);
    let n = epochs.len();
    let depth = plan.shadow_depth.max(1);

    // Phase 1: payload identity and the final foreground per epoch.
    let mut fg: Vec<Foreground> = facts
        .iter()
        .map(|f| Foreground {
            data_words: f.slots.iter().map(|s| s.data_words).sum(),
            instr_words: f.slots.iter().map(|s| s.instr_words).sum(),
            links: f.links_changed,
        })
        .collect();
    let mut ok = vec![true; plan.hoists.len()];
    let mut seen = Vec::new();
    for (i, h) in plan.hoists.iter().enumerate() {
        let slot = facts.get(h.target).and_then(|f| f.slots.get(h.slot));
        let matches = slot.is_some_and(|s| {
            s.tile == h.tile && s.data_words == h.data_words && s.instr_words == h.instr_words
        });
        if !matches {
            diags.push(refuse(
                h,
                format!(
                    "payload does not match the schedule: slot {} of the target epoch is not \
                     a {}-data/{}-instr-word rewrite of this tile",
                    h.slot, h.data_words, h.instr_words
                ),
            ));
            ok[i] = false;
            continue;
        }
        if seen.contains(&(h.target, h.slot)) {
            diags.push(refuse(h, "slot is hoisted twice".to_string()));
            ok[i] = false;
            continue;
        }
        seen.push((h.target, h.slot));
        fg[h.target].data_words -= h.data_words;
        fg[h.target].instr_words -= h.instr_words;
    }

    // Phase 2: replay the claims in plan order against the re-derived
    // segment windows, port fills and occupancies.
    let mut head_fill = vec![0u64; n];
    let mut tail_fill = vec![0u64; n];
    let mut occupancy = vec![vec![0usize; mesh.tiles()]; n];
    for (i, h) in plan.hoists.iter().enumerate() {
        if !ok[i] {
            continue;
        }
        let payload_ns = cost.data_reload_ns(h.data_words) + cost.instr_reload_ns(h.instr_words);
        let stream_cycles = cost.stall_cycles(payload_ns);
        if (payload_ns - h.payload_ns).abs() > 1e-9 || stream_cycles != h.stream_cycles {
            diags.push(refuse(
                h,
                format!(
                    "certificate misprices the payload: {payload_ns:.3} ns / {stream_cycles} \
                     streaming cycles re-derived"
                ),
            ));
            continue;
        }
        let covered: u64 = h.claims.iter().map(|c| c.cycles).sum();
        if covered < stream_cycles {
            diags.push(refuse(
                h,
                format!(
                    "idle-window proof fails: claims cover {covered} of {stream_cycles} \
                     streaming cycles"
                ),
            ));
            continue;
        }
        if h.claims.len() != h.cert.claims.len() {
            diags.push(refuse(
                h,
                "certificate does not cover every claim".to_string(),
            ));
            continue;
        }
        let mut sound = true;
        for (c, p) in h.claims.iter().zip(&h.cert.claims) {
            if c.epoch >= h.target {
                diags.push(refuse(
                    h,
                    format!("claim in epoch {} is not before the target", c.epoch),
                ));
                sound = false;
                break;
            }
            let window = match c.segment {
                Segment::Head => fg[c.epoch].stall(cost),
                Segment::Tail => tail_window(&facts[c.epoch], h.tile),
            };
            let fill = match c.segment {
                Segment::Head => &mut head_fill[c.epoch],
                Segment::Tail => &mut tail_fill[c.epoch],
            };
            let fill_after = *fill + c.cycles;
            if fill_after > window {
                diags.push(refuse(
                    h,
                    format!(
                        "idle-window proof fails in epoch {} ({:?} segment): port fill \
                         {fill_after} exceeds the provable {window} cycles",
                        c.epoch, c.segment
                    ),
                ));
                sound = false;
                break;
            }
            if p.epoch != c.epoch
                || p.segment != c.segment
                || p.window != window
                || p.fill_after != fill_after
            {
                diags.push(refuse(
                    h,
                    format!(
                        "certificate drifted from the re-derivation in epoch {} \
                         ({:?} segment: window {window}, fill {fill_after})",
                        c.epoch, c.segment
                    ),
                ));
                sound = false;
                break;
            }
            *fill = fill_after;
        }
        if !sound {
            continue;
        }
        let first = h.claims.iter().map(|c| c.epoch).min().unwrap_or(h.target);
        let mut peak = 0usize;
        for occ in &mut occupancy[first..h.target] {
            occ[h.tile] += 1;
            peak = peak.max(occ[h.tile]);
        }
        if peak > depth || h.cert.queue_peak != peak {
            diags.push(refuse(
                h,
                format!(
                    "non-interference proof fails: shadow occupancy reaches {peak} of \
                     {depth} slots (certificate said {})",
                    h.cert.queue_peak
                ),
            ));
            continue;
        }
        let after_ns = fg[h.target].ns(cost);
        if h.cert.reconfig_after_ns < after_ns - 1e-9
            || h.cert.reconfig_after_ns > h.cert.reconfig_before_ns
        {
            diags.push(refuse(
                h,
                format!(
                    "WCET-containment proof fails: hoisted switch charge {:.3} ns vs \
                     re-derived floor {after_ns:.3} ns",
                    h.cert.reconfig_after_ns
                ),
            ));
            continue;
        }
    }
    diags
}

/// Reprices a static schedule bound under a hoisting plan: every
/// hoisted payload's words leave its target epoch's
/// [`cgra_fabric::cost::TransitionBreakdown`], and the epoch's
/// `reconfig_ns` / `stall_cycles` are re-derived. Compute and traffic
/// intervals are invariant — the same programs run at the same epoch
/// boundaries — so the hoisted bound still contains every observed
/// runtime the original bound contained, with a strictly smaller
/// reconfiguration term.
pub fn hoisted_bound(bound: &ScheduleBound, plan: &HoistPlan, cost: &CostModel) -> ScheduleBound {
    let mut out = bound.clone();
    for h in &plan.hoists {
        if let Some(eb) = out.epochs.get_mut(h.target) {
            eb.breakdown.data_words = eb.breakdown.data_words.saturating_sub(h.data_words);
            eb.breakdown.instr_words = eb.breakdown.instr_words.saturating_sub(h.instr_words);
            eb.reconfig_ns = eb.breakdown.total_ns(cost);
            eb.stall_cycles = cost.stall_cycles(eb.reconfig_ns);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::LintLevel;
    use cgra_fabric::{DataPatch, Word};
    use cgra_isa::ops::d;
    use cgra_isa::Instr;
    use cgra_verify::TileSpec;

    fn counter_prog(trips: i32) -> Vec<Instr> {
        vec![
            Instr::Ldi {
                dst: d(0),
                imm: trips,
            },
            Instr::Nop,
            Instr::Djnz {
                dst: d(0),
                target: 1,
            },
            Instr::Halt,
        ]
    }

    fn idle_prog() -> Vec<Instr> {
        vec![Instr::Halt]
    }

    fn patch(base: usize, n: usize) -> DataPatch {
        DataPatch::new(base, vec![Word::wrap(3); n])
    }

    /// Two tiles: e0 runs a long counter on tile 0 while tile 1 halts at
    /// once; e1 rewrites tile 1. Tile 1's e0 idle tail must swallow the
    /// e1 payload.
    fn two_epoch_fixture() -> (
        Mesh,
        cgra_fabric::LinkConfig,
        Vec<Instr>,
        Vec<Instr>,
        Vec<Instr>,
        Vec<DataPatch>,
    ) {
        let mesh = Mesh::new(1, 2);
        let links = mesh.disconnected();
        (
            mesh,
            links,
            counter_prog(200),
            idle_prog(),
            counter_prog(2),
            vec![patch(10, 8)],
        )
    }

    fn specs<'a>(
        links: &'a cgra_fabric::LinkConfig,
        p0: &'a [Instr],
        p1: &'a [Instr],
        p1b: &'a [Instr],
        patches: &'a [DataPatch],
    ) -> Vec<EpochSpec<'a>> {
        vec![
            EpochSpec {
                name: "warm",
                links,
                tiles: vec![
                    TileSpec {
                        tile: 0,
                        program: Some(p0),
                        data_patches: &[],
                    },
                    TileSpec {
                        tile: 1,
                        program: Some(p1),
                        data_patches: &[],
                    },
                ],
            },
            EpochSpec {
                name: "rewrite-1",
                links,
                tiles: vec![TileSpec {
                    tile: 1,
                    program: Some(p1b),
                    data_patches: patches,
                }],
            },
        ]
    }

    #[test]
    fn payload_hoists_into_idle_tail() {
        let (mesh, links, p0, p1, p1b, patches) = two_epoch_fixture();
        let es = specs(&links, &p0, &p1, &p1b, &patches);
        let cost = CostModel::default();
        let plan = plan_hoists(
            mesh,
            &es,
            &LintLevels::default(),
            &cost,
            &HoistOptions::default(),
        );
        // Tile 1's payload (4 instr + 8 data words = 466.7 ns, 187
        // cycles) fits tile 1's e0 window (counter runs 402 cycles,
        // tile 1 halts after 1).
        assert_eq!(plan.hoists.len(), 1, "{:?}", plan.refused);
        let h = &plan.hoists[0];
        assert_eq!((h.target, h.tile, h.slot), (1, 1, 0));
        assert_eq!((h.data_words, h.instr_words), (8, 4));
        assert!(h.claims.iter().all(|c| c.epoch == 0));
        assert!(h.cert.reconfig_after_ns < h.cert.reconfig_before_ns);
        assert!(plan.reconfig_after_ns < plan.reconfig_before_ns);
        assert!(plan
            .windows
            .iter()
            .any(|w| w.tile == 1 && w.epoch == 0 && w.cycles > 100));
        // The certificates re-verify clean.
        assert!(verify_hoists(mesh, &es, &plan, &cost).is_empty());
    }

    #[test]
    fn oversized_payload_is_refused() {
        let (mesh, links, p0, p1, p1b, _) = two_epoch_fixture();
        // 500 data words stream for ~6700 cycles; the window is ~400.
        let big = vec![patch(0, 500)];
        let es = specs(&links, &p0, &p1, &p1b, &big);
        let cost = CostModel::default();
        let plan = plan_hoists(
            mesh,
            &es,
            &LintLevels::default(),
            &cost,
            &HoistOptions::default(),
        );
        assert!(plan.hoists.is_empty());
        assert_eq!(plan.refused.len(), 1);
        assert!(plan.refused[0].reason.contains("idle-window deficit"));
        assert!((plan.reconfig_after_ns - plan.reconfig_before_ns).abs() < 1e-9);
    }

    #[test]
    fn fabricated_claims_are_refused_by_reverification() {
        let (mesh, links, p0, p1, p1b, patches) = two_epoch_fixture();
        let es = specs(&links, &p0, &p1, &p1b, &patches);
        let cost = CostModel::default();
        let good = plan_hoists(
            mesh,
            &es,
            &LintLevels::default(),
            &cost,
            &HoistOptions::default(),
        );
        assert_eq!(good.hoists.len(), 1);

        // A fabricated idle window: claim the busy tile-0 slot instead.
        let mut lying = good.clone();
        lying.hoists[0].tile = 0;
        let d = verify_hoists(mesh, &es, &lying, &cost);
        assert!(d
            .iter()
            .any(|d| d.code == Code::HoistRefused && d.is_error()));

        // Claims at/after the target are structurally unsound.
        let mut late = good.clone();
        for c in &mut late.hoists[0].claims {
            c.epoch = 1;
        }
        for p in &mut late.hoists[0].cert.claims {
            p.epoch = 1;
        }
        let d = verify_hoists(mesh, &es, &late, &cost);
        assert!(d.iter().any(|d| d.code == Code::HoistRefused));

        // Inflated window figures in the certificate are caught.
        let mut drifted = good.clone();
        for p in &mut drifted.hoists[0].cert.claims {
            p.window += 1_000_000;
        }
        let d = verify_hoists(mesh, &es, &drifted, &cost);
        assert!(d.iter().any(|d| d.code == Code::HoistRefused));

        // The honest plan still passes.
        assert!(verify_hoists(mesh, &es, &good, &cost).is_empty());
    }

    #[test]
    fn hoisted_bound_shrinks_only_reconfig() {
        let (mesh, links, p0, p1, p1b, patches) = two_epoch_fixture();
        let es = specs(&links, &p0, &p1, &p1b, &patches);
        let cost = CostModel::default();
        let plan = plan_hoists(
            mesh,
            &es,
            &LintLevels::default(),
            &cost,
            &HoistOptions::default(),
        );
        let base = cgra_verify::bound_schedule(mesh, &cost, &es);
        let hoisted = hoisted_bound(&base, &plan, &cost);
        assert_eq!(
            hoisted.total_compute_ns(),
            base.total_compute_ns(),
            "compute is invariant under hoisting"
        );
        let saved = base.total_reconfig_ns() - hoisted.total_reconfig_ns();
        assert!((saved - plan.hoisted_ns()).abs() < 1e-9);
        assert!(hoisted.epochs[1].reconfig_ns < base.epochs[1].reconfig_ns);
        assert_eq!(hoisted.epochs[0].reconfig_ns, base.epochs[0].reconfig_ns);
    }

    #[test]
    fn shadow_depth_gates_deep_queues() {
        // Three consecutive rewrites of tile 1 behind one long epoch:
        // with depth 1 only a prefix can be pending at once.
        let mesh = Mesh::new(1, 2);
        let links = mesh.disconnected();
        let p0 = counter_prog(3000);
        let p1 = idle_prog();
        let rewrites: Vec<Vec<Instr>> = (0..3).map(|_| counter_prog(2)).collect();
        let mut es = vec![EpochSpec {
            name: "warm",
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
        for r in &rewrites {
            es.push(EpochSpec {
                name: "rw",
                links: &links,
                tiles: vec![TileSpec {
                    tile: 1,
                    program: Some(r),
                    data_patches: &[],
                }],
            });
        }
        let cost = CostModel::default();
        let deep = plan_hoists(
            mesh,
            &es,
            &LintLevels::default(),
            &cost,
            &HoistOptions { shadow_depth: 8 },
        );
        let shallow = plan_hoists(
            mesh,
            &es,
            &LintLevels::default(),
            &cost,
            &HoistOptions { shadow_depth: 1 },
        );
        assert!(deep.hoists.len() > shallow.hoists.len());
        assert!(shallow
            .refused
            .iter()
            .any(|r| r.reason.contains("shadow plane full")));
        assert!(verify_hoists(mesh, &es, &deep, &cost).is_empty());
        assert!(verify_hoists(mesh, &es, &shallow, &cost).is_empty());

        // Depth 0 clamps to 1 end to end: the planner produces the
        // depth-1 plan (no panic, no zero-slot divide) and it verifies.
        let zero = plan_hoists(
            mesh,
            &es,
            &LintLevels::default(),
            &cost,
            &HoistOptions { shadow_depth: 0 },
        );
        assert_eq!(zero.shadow_depth, 1);
        assert_eq!(zero.hoists, shallow.hoists);
        assert!(verify_hoists(mesh, &es, &zero, &cost).is_empty());

        // A plan *claiming* depth 0 while queueing deeper than one slot
        // must be refused with L011 — cleanly, not by panicking.
        let mut forged = deep.clone();
        forged.shadow_depth = 0;
        let diags = verify_hoists(mesh, &es, &forged, &cost);
        assert!(
            diags
                .iter()
                .any(|d| d.code == Code::HoistRefused && d.is_error()),
            "deep queue under a zero-depth plane must be refused: {diags:?}"
        );
    }

    #[test]
    fn shadow_claims_name_every_hoist_slot() {
        let (mesh, links, p0, p1, p1b, patches) = two_epoch_fixture();
        let es = specs(&links, &p0, &p1, &p1b, &patches);
        let cost = CostModel::default();
        let plan = plan_hoists(
            mesh,
            &es,
            &LintLevels::default(),
            &cost,
            &HoistOptions::default(),
        );
        assert_eq!(plan.hoists.len(), 1);
        let claims = plan.shadow_claims();
        assert_eq!(claims.len(), 1);
        assert_eq!(claims[0].tile, 1);
        assert_eq!(claims[0].target, 1);
        assert_eq!(
            claims[0].staged_after, 0,
            "payload is staged after its donor epoch"
        );
    }

    /// Epoch 0 with *no* head window (empty switch: no tile payloads,
    /// no link delta): there is no execution-free time before the first
    /// rewrite, so its payload must stay in the foreground — an L009
    /// idle-window-deficit refusal, never a claim on a zero-width head.
    #[test]
    fn epoch_zero_without_head_window_keeps_first_rewrite_foreground() {
        let mesh = Mesh::new(1, 2);
        let links = mesh.disconnected();
        let p1b = counter_prog(2);
        let patches = vec![patch(10, 8)];
        let es = vec![
            EpochSpec {
                name: "empty",
                links: &links,
                tiles: vec![],
            },
            EpochSpec {
                name: "rewrite-1",
                links: &links,
                tiles: vec![TileSpec {
                    tile: 1,
                    program: Some(&p1b),
                    data_patches: &patches,
                }],
            },
        ];
        let cost = CostModel::default();
        // Warn on L009 so the refusal also materializes as a diagnostic.
        let mut levels = LintLevels::default();
        levels.set(Code::HoistInterference, LintLevel::Warn);
        let plan = plan_hoists(mesh, &es, &levels, &cost, &HoistOptions::default());
        // Epoch 0 has zero stall and zero compute: no idle windows at all.
        assert!(
            plan.windows.iter().all(|w| w.epoch != 0),
            "an empty epoch must not advertise idle windows: {:?}",
            plan.windows
        );
        assert!(plan.hoists.is_empty());
        assert_eq!(plan.refused.len(), 1);
        assert!(plan.refused[0].reason.contains("idle-window deficit"));
        assert!(plan
            .diags
            .iter()
            .any(|d| d.code == Code::HoistInterference && d.epoch == Some(1)));
        // The (empty) plan still re-verifies clean.
        assert!(verify_hoists(mesh, &es, &plan, &cost).is_empty());
    }

    /// A slot with zero stall contribution (no program, no patches) is
    /// a no-op: it is skipped outright — neither hoisted nor refused —
    /// and contributes nothing to the epoch's head window.
    #[test]
    fn zero_stall_noop_slot_is_skipped_without_refusal() {
        let (mesh, links, p0, p1, _, _) = two_epoch_fixture();
        let es = vec![
            EpochSpec {
                name: "warm",
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
            },
            EpochSpec {
                name: "noop-touch",
                links: &links,
                tiles: vec![TileSpec {
                    tile: 1,
                    program: None,
                    data_patches: &[],
                }],
            },
        ];
        let cost = CostModel::default();
        let plan = plan_hoists(
            mesh,
            &es,
            &LintLevels::default(),
            &cost,
            &HoistOptions::default(),
        );
        assert!(plan.hoists.is_empty(), "nothing to move");
        assert!(plan.refused.is_empty(), "a no-op slot is not a refusal");
        // The no-op switch charges nothing, so the plan is cost-neutral
        // and epoch 1 has no head window of its own.
        assert!((plan.reconfig_after_ns - plan.reconfig_before_ns).abs() < 1e-9);
        // Tile 1 still halts early in epoch 0: its idle tail is real.
        assert!(plan
            .windows
            .iter()
            .any(|w| w.tile == 1 && w.epoch == 0 && w.cycles > 100));
        assert!(verify_hoists(mesh, &es, &plan, &cost).is_empty());
    }

    /// The L009 boundary: a shadow plane whose depth is *exactly* the
    /// peak queue occupancy accepts every hoist (the obligation is
    /// `peak <= depth`), while one slot fewer refuses the deepest
    /// payload with the shadow-plane-full reason.
    #[test]
    fn shadow_depth_exactly_at_queue_peak_is_the_l009_boundary() {
        // Three consecutive rewrites of tile 1 queued behind one long
        // epoch: all three payloads pend over epoch 0, so peak = 3.
        let mesh = Mesh::new(1, 2);
        let links = mesh.disconnected();
        let p0 = counter_prog(3000);
        let p1 = idle_prog();
        let rewrites: Vec<Vec<Instr>> = (0..3).map(|_| counter_prog(2)).collect();
        let mut es = vec![EpochSpec {
            name: "warm",
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
        for r in &rewrites {
            es.push(EpochSpec {
                name: "rw",
                links: &links,
                tiles: vec![TileSpec {
                    tile: 1,
                    program: Some(r),
                    data_patches: &[],
                }],
            });
        }
        let cost = CostModel::default();
        let at_boundary = plan_hoists(
            mesh,
            &es,
            &LintLevels::default(),
            &cost,
            &HoistOptions { shadow_depth: 3 },
        );
        assert_eq!(
            at_boundary.hoists.len(),
            3,
            "peak == depth discharges: {:?}",
            at_boundary.refused
        );
        let peak = at_boundary
            .hoists
            .iter()
            .map(|h| h.cert.queue_peak)
            .max()
            .unwrap();
        assert_eq!(peak, 3, "the fixture saturates the plane exactly");
        assert!(verify_hoists(mesh, &es, &at_boundary, &cost).is_empty());

        let below = plan_hoists(
            mesh,
            &es,
            &LintLevels::default(),
            &cost,
            &HoistOptions { shadow_depth: 2 },
        );
        assert_eq!(below.hoists.len(), 2);
        assert_eq!(below.refused.len(), 1);
        assert!(below.refused[0]
            .reason
            .contains("shadow plane full: occupancy would reach 3 of 2"));
        assert!(verify_hoists(mesh, &es, &below, &cost).is_empty());
    }
}
