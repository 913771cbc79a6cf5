//! The event-driven, certificate-gated simulator core.
//!
//! [`EpochRunner::run_schedule`] steps every tile of the array every
//! cycle — sound, but wasteful when the static analysis can prove most
//! of the array inactive. This module consumes the proofs instead:
//!
//! 1. `cgra-verify`'s activity analysis derives an
//!    [`ActivityCertificate`] for the whole schedule: per-tile activity
//!    intervals (stall head + busy span) and **independence classes** —
//!    groups of tiles that provably exchange no words within an epoch.
//! 2. The certificate is **re-verified from scratch**
//!    ([`cgra_verify::verify_activity`]) before the engine trusts it; a
//!    single refused proof ([`cgra_verify::Code::CertificateRefused`])
//!    drops the whole run to the bit-exact serial engine.
//! 3. Under an accepted certificate each epoch runs event-driven:
//!    provably-inactive tiles are never visited, the reconfiguration
//!    stall head is accounted in one step instead of cycle-by-cycle,
//!    and the independence classes step on the shared worker pool
//!    ([`cgra_fabric::par::run_sharded`]) when [`EventOptions::jobs`]
//!    asks for parallelism.
//!
//! Programs are decoded **once per distinct image** into a
//! [`ProgramCache`] (shared across epochs, and across DSE candidates
//! when the caller reuses the cache) instead of once per executed
//! instruction; the cache also memoizes strict-mode image verification
//! and — keyed by the full schedule content — certificates that have
//! already been derived *and* re-verified, so a warm replay (the DSE
//! sweep re-simulating a cached candidate) pays the static analysis
//! once, not once per run.
//!
//! The contract is bit-exactness: final data/instruction memories, PE
//! states, per-tile counters, Eq. 1 reports, the summary event stream,
//! and errors all match [`EpochRunner::run_schedule`] on the same
//! schedule. Fine-grained sink events (segments, link transfers) are
//! synthesized from the proofs and carry the same spans and landing
//! cycles as the serial engine's, though their interleaving in the
//! stream may differ (sort both streams to compare).

use crate::engine::{SimError, TileStats, VerifyMode};
use crate::epoch::{epoch_spec, gate, payloads, Epoch, EpochReport, EpochRunner, RunReport};
use cgra_fabric::{CostModel, FabricError, LinkConfig, Mesh, Tile, TileId, Word};
use cgra_isa::{decode, encode_program, step_decoded, ExecError, Instr, PeState, StepEffect};
use cgra_telemetry::{Event, SegState};
use cgra_verify::{
    analyze_activity, verify_activity, ActivityCertificate, Code, Diagnostic, EpochActivity,
    EpochSpec, ScheduleChecker,
};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A program image decoded once, slot by slot. Slots that fail to
/// decode are kept as the error text so execution still faults with the
/// precise pc (and the exact [`ExecError::Decode`] message) the serial
/// engine would produce.
#[derive(Debug)]
pub struct DecodedProgram {
    /// One entry per image slot, in pc order.
    pub slots: Vec<Result<Instr, String>>,
    /// The same slots as a plain instruction array when every slot
    /// decoded cleanly (`None` if any slot is poison): the class
    /// stepper's fetch path indexes this without per-cycle `Result`
    /// matching.
    pub clean: Option<Vec<Instr>>,
}

/// Memoized program decode + strict-mode verification, keyed by the
/// encoded image. Shared across epochs of a schedule and — when the
/// caller holds it across runs — across DSE candidates, which re-use
/// the same kernel images at different shapes.
#[derive(Debug, Default)]
pub struct ProgramCache {
    decoded: HashMap<Vec<u128>, Arc<DecodedProgram>>,
    verified: HashSet<Vec<u128>>,
    schedules: HashMap<Vec<u8>, Arc<VerifiedSchedule>>,
    hits: u64,
    misses: u64,
}

/// The complete verification transcript of one clean certified run,
/// memoized under its [`schedule_key`]. A warm replay of the
/// byte-identical schedule from the same starting state (fresh checker,
/// quiesced array, same verify mode — all enforced by the lookup)
/// replays the transcript instead of re-deriving it: the recorded
/// diagnostics are appended verbatim, the checker jumps to its recorded
/// post-run state, and the epochs execute under the already-verified
/// certificate. Only [`EpochRunner::run_schedule_event_driven`] writes
/// this memo, and only after a run in which every gate passed — the
/// lint gate, per-epoch verification, certificate re-verification, and
/// the runtime conservation checks.
#[derive(Debug)]
pub struct VerifiedSchedule {
    /// The accepted activity certificate.
    pub cert: ActivityCertificate,
    /// Every diagnostic the cold run pushed (lint findings, per-epoch
    /// verifier warnings); errors never occur here — they abort the
    /// cold run before it memoizes.
    pub diags: Vec<Diagnostic>,
    /// The schedule checker's state after the cold run, so a replayed
    /// runner carries the same cross-epoch init/const knowledge into
    /// any schedule it runs next.
    pub checker_after: ScheduleChecker,
}

impl ProgramCache {
    /// An empty cache.
    pub fn new() -> ProgramCache {
        ProgramCache::default()
    }

    /// The decoded form of `image`, decoding (and caching) on first use.
    pub fn decode_image(&mut self, image: &[u128]) -> Arc<DecodedProgram> {
        if let Some(hit) = self.decoded.get(image) {
            self.hits += 1;
            return Arc::clone(hit);
        }
        self.misses += 1;
        let slots: Vec<Result<Instr, String>> = image
            .iter()
            .map(|&raw| decode(raw).map_err(|e| e.to_string()))
            .collect();
        let clean = slots
            .iter()
            .map(|s| s.as_ref().ok().copied())
            .collect::<Option<Vec<Instr>>>();
        let dec = Arc::new(DecodedProgram { slots, clean });
        self.decoded.insert(image.to_vec(), Arc::clone(&dec));
        dec
    }

    /// True when `image` already passed strict verification.
    pub fn is_verified(&self, image: &[u128]) -> bool {
        self.verified.contains(image)
    }

    /// Records that `image` passed strict verification.
    pub fn mark_verified(&mut self, image: &[u128]) {
        self.verified.insert(image.to_vec());
    }

    /// Distinct images decoded so far.
    pub fn len(&self) -> usize {
        self.decoded.len()
    }

    /// True when nothing has been decoded yet.
    pub fn is_empty(&self) -> bool {
        self.decoded.is_empty()
    }

    /// Decode-cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Decode-cache misses (i.e. actual decodes) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The memoized transcript for exactly this schedule key
    /// ([`schedule_key`]), if a clean cold run recorded one. A hit
    /// carries the same trust as the `verified` image set: the
    /// soundness obligations were discharged once, for byte-identical
    /// input.
    pub fn verified_schedule(&self, key: &[u8]) -> Option<&Arc<VerifiedSchedule>> {
        self.schedules.get(key)
    }

    /// Memoizes a clean run's transcript under its schedule key.
    pub fn store_verified_schedule(&mut self, key: Vec<u8>, vs: Arc<VerifiedSchedule>) {
        self.schedules.insert(key, vs);
    }

    /// Verified schedule transcripts memoized so far.
    pub fn verified_schedules(&self) -> usize {
        self.schedules.len()
    }
}

/// The memo key for transcript reuse: every input the static pipeline
/// reads, serialized byte for byte — mesh shape, cost model, verify
/// mode, and the full schedule content (epoch names, budgets, link
/// configurations, encoded program images, data patches). Every
/// variable-length field is length-prefixed, so distinct schedules
/// cannot collide by concatenation. Byte-identical key ⟺ identical
/// analysis input, so a memoized transcript is exactly what a fresh
/// derivation would produce.
pub fn schedule_key(mesh: Mesh, cost: &CostModel, verify: VerifyMode, epochs: &[Epoch]) -> Vec<u8> {
    fn put_u64(k: &mut Vec<u8>, v: u64) {
        k.extend_from_slice(&v.to_le_bytes());
    }
    fn put_str(k: &mut Vec<u8>, s: &str) {
        put_u64(k, s.len() as u64);
        k.extend_from_slice(s.as_bytes());
    }
    let mut k = Vec::with_capacity(4096);
    put_str(&mut k, &format!("{mesh:?}|{cost:?}|{verify:?}"));
    put_u64(&mut k, epochs.len() as u64);
    for e in epochs {
        put_str(&mut k, &e.name);
        put_u64(&mut k, e.budget);
        put_str(&mut k, &format!("{:?}", e.links));
        put_u64(&mut k, e.setups.len() as u64);
        for (t, s) in &e.setups {
            put_u64(&mut k, *t as u64);
            match &s.program {
                // Image encoding is injective (decode ∘ encode = id),
                // so keying on the image is keying on the program.
                Some(p) => {
                    let img = encode_program(p);
                    put_u64(&mut k, img.len() as u64);
                    for w in &img {
                        k.extend_from_slice(&w.to_le_bytes());
                    }
                }
                None => put_u64(&mut k, u64::MAX),
            }
            put_u64(&mut k, s.data_patches.len() as u64);
            for p in &s.data_patches {
                put_u64(&mut k, p.base as u64);
                put_u64(&mut k, p.words.len() as u64);
                for w in &p.words {
                    k.extend_from_slice(&w.value().to_le_bytes());
                }
            }
        }
    }
    k
}

/// Options for the event-driven core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventOptions {
    /// Worker threads for stepping independence classes: `1` (the
    /// default) steps every class on the calling thread, `0` takes one
    /// worker per available core, `n` takes `n`. Keep `1` inside outer
    /// parallelism (the DSE sweep already fans out across candidates).
    pub jobs: usize,
}

impl Default for EventOptions {
    fn default() -> EventOptions {
        EventOptions { jobs: 1 }
    }
}

/// One extracted class member: the tile's hardware, PE state, and
/// counters, moved out of the array for the duration of the class run.
type Member = (TileId, Tile, PeState, TileStats);

/// An error raised while stepping one class, positioned so the earliest
/// error across classes (serial order: step errors before write-landing
/// errors within a cycle, deadline checked before either) wins.
struct ClassErr {
    cyc: u64,
    phase: u8,
    tile: TileId,
    err: SimError,
}

/// What stepping one independence class produced.
struct ClassRun {
    /// Cycles until every member halted (relative to the class start).
    cycles: u64,
    /// `(landing cycle relative to class start, from, to)` per word.
    transfers: Vec<(u64, TileId, TileId)>,
    /// The earliest error, if the class faulted.
    err: Option<ClassErr>,
}

/// Steps every member of one independence class to quiescence, exactly
/// as the serial engine would: members step in ascending tile order,
/// remote writes land at the end of the cycle in issue order, and the
/// class deadlines once `class_budget` cycles elapse without
/// quiescence. The certificate guarantees no word crosses a class
/// boundary; a write that tries anyway is refused as
/// [`Code::CertificateRefused`].
fn step_class(
    mesh: &Mesh,
    links: &LinkConfig,
    class_budget: u64,
    deadline_budget: u64,
    members: &mut [Member],
    progs: &HashMap<TileId, Arc<DecodedProgram>>,
    record_transfers: bool,
) -> ClassRun {
    let mut transfers: Vec<(u64, TileId, TileId)> = Vec::new();
    let mut writes: Vec<(usize, TileId, TileId, usize, Word)> = Vec::new();
    let mut cyc: u64 = 0;
    // Resolve each member's decoded program once — the cycle loop below
    // runs ~10^5 times per schedule and a per-cycle map lookup would
    // dominate it.
    let resolved: Vec<Option<Arc<DecodedProgram>>> =
        members.iter().map(|m| progs.get(&m.0).cloned()).collect();
    // Fetch fast path per member: a plain instruction slice when every
    // slot decoded cleanly, falling back to the poison-aware slot walk.
    let lanes: Vec<Option<&[Instr]>> = resolved
        .iter()
        .map(|r| r.as_ref().and_then(|p| p.clean.as_deref()))
        .collect();
    let done = |cyc, transfers, err| ClassRun {
        cycles: cyc,
        transfers,
        err,
    };
    // Count live members once and track halts incrementally — the loop
    // body runs per simulated cycle and must stay allocation- and
    // scan-free on its hot path.
    let mut live = members.iter().filter(|m| !m.2.halted).count();
    loop {
        if live == 0 {
            return done(cyc, transfers, None);
        }
        if cyc >= class_budget {
            return done(
                cyc,
                transfers,
                Some(ClassErr {
                    cyc: class_budget,
                    phase: 2,
                    tile: 0,
                    err: SimError::Deadline {
                        budget: deadline_budget,
                    },
                }),
            );
        }
        writes.clear();
        for i in 0..members.len() {
            let m = &mut members[i];
            if m.2.halted {
                continue;
            }
            let t = m.0;
            let Some(prog) = &resolved[i] else {
                return done(
                    cyc,
                    transfers,
                    Some(ClassErr {
                        cyc,
                        phase: 0,
                        tile: t,
                        err: SimError::Verify(vec![Diagnostic::error(
                            Code::CertificateRefused,
                            format!(
                                "tile {t} is active without a decoded program; the activity \
                                 certificate does not cover it"
                            ),
                        )]),
                    }),
                );
            };
            let effect = match lanes[i] {
                Some(clean) if m.2.pc < clean.len() => {
                    let instr = clean[m.2.pc];
                    step_decoded(&mut m.1, &mut m.2, instr)
                }
                _ => {
                    if m.2.pc >= prog.slots.len() {
                        Err(ExecError::Fabric(FabricError::PcOutOfRange {
                            pc: m.2.pc,
                            len: prog.slots.len(),
                        }))
                    } else {
                        match &prog.slots[m.2.pc] {
                            Ok(instr) => step_decoded(&mut m.1, &mut m.2, *instr),
                            Err(msg) => Err(ExecError::Decode(msg.clone())),
                        }
                    }
                }
            };
            let effect = match effect {
                Ok(e) => e,
                Err(err) => {
                    return done(
                        cyc,
                        transfers,
                        Some(ClassErr {
                            cyc,
                            phase: 0,
                            tile: t,
                            err: SimError::Exec { tile: t, err },
                        }),
                    )
                }
            };
            m.3.busy_cycles += 1;
            match effect {
                StepEffect::None => {}
                StepEffect::Halted => live -= 1,
                StepEffect::RemoteWrite { addr, value } => {
                    let Some(dir) = links.get(t) else {
                        return done(
                            cyc,
                            transfers,
                            Some(ClassErr {
                                cyc,
                                phase: 0,
                                tile: t,
                                err: SimError::UnroutedWrite { tile: t },
                            }),
                        );
                    };
                    let Some(dst) = mesh.neighbour(t, dir) else {
                        return done(
                            cyc,
                            transfers,
                            Some(ClassErr {
                                cyc,
                                phase: 0,
                                tile: t,
                                err: SimError::Fabric(FabricError::NotNeighbours {
                                    from: t,
                                    to: t,
                                }),
                            }),
                        );
                    };
                    members[i].3.words_sent += 1;
                    let Some(j) = members.iter().position(|m| m.0 == dst) else {
                        return done(
                            cyc,
                            transfers,
                            Some(ClassErr {
                                cyc,
                                phase: 0,
                                tile: t,
                                err: SimError::Verify(vec![Diagnostic::error(
                                    Code::CertificateRefused,
                                    format!(
                                        "tile {t} wrote to tile {dst} outside its independence \
                                         class; the activity certificate is unsound for this \
                                         schedule"
                                    ),
                                )]),
                            }),
                        );
                    };
                    writes.push((j, t, dst, addr, value));
                }
            }
        }
        // Remote writes land at the end of the cycle, in issue order.
        for &(j, src, dst, addr, value) in &writes {
            if let Err(e) = members[j].1.dmem.poke(addr, value) {
                return done(
                    cyc,
                    transfers,
                    Some(ClassErr {
                        cyc,
                        phase: 1,
                        tile: src,
                        err: SimError::Fabric(e),
                    }),
                );
            }
            members[j].3.words_received += 1;
            // Per-landing telemetry is only consumed when a sink is
            // attached; sink-less runs skip the per-word bookkeeping.
            if record_transfers {
                transfers.push((cyc + 1, src, dst));
            }
        }
        cyc += 1;
    }
}

impl EpochRunner {
    /// Runs a whole schedule on the event-driven core.
    ///
    /// Derives the [`ActivityCertificate`] with
    /// [`cgra_verify::analyze_activity`], re-verifies it independently,
    /// and executes under it — or falls back to the bit-exact serial
    /// engine, recording the [`Code::CertificateRefused`] findings in
    /// [`EpochRunner::diagnostics`], when any proof is refused. The
    /// cold-run lint gate of [`EpochRunner::run_schedule`] applies
    /// unchanged.
    ///
    /// `progs` memoizes program decoding, strict-mode verification and
    /// whole-schedule verification transcripts; hold it across calls to
    /// amortize over DSE candidates that share kernel images — and over
    /// warm replays of the same schedule, which skip the static
    /// pipeline entirely: a [`VerifiedSchedule`] hit replays the cold
    /// run's recorded diagnostics and checker state instead of
    /// re-deriving them, and is only consulted from the exact state the
    /// transcript was recorded in (fresh checker, quiesced array; the
    /// verify mode is part of the key).
    pub fn run_schedule_event_driven(
        &mut self,
        epochs: &[Epoch],
        progs: &mut ProgramCache,
        opts: &EventOptions,
    ) -> Result<RunReport, SimError> {
        let key = schedule_key(self.sim.mesh, &self.cost, self.sim.verify, epochs);
        if self.checker.epochs_seen() == 0 && self.sim.quiesced() {
            if let Some(vs) = progs.verified_schedule(&key) {
                let vs = Arc::clone(vs);
                return self.replay_verified(epochs, &vs, progs, opts);
            }
        }
        let fresh = self.checker.epochs_seen() == 0 && self.sim.quiesced();
        let mark = self.diagnostics.len();
        gate(self.cold_lint_gate(epochs))?;
        let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
        let analysis = analyze_activity(self.sim.mesh, &self.cost, &specs);
        let refusals = verify_activity(self.sim.mesh, &self.cost, &specs, &analysis.cert);
        if !refusals.is_empty() {
            self.diagnostics.extend(refusals);
            return self.run_serial(epochs);
        }
        let report = self.certified_after_gate(epochs, &analysis.cert, progs, opts, true)?;
        // Memoize only a fully clean run from the recordable starting
        // state: no refusal fell back mid-way, no gate errored (an
        // error would have propagated above), and the run began on a
        // fresh checker over a quiesced array — the exact precondition
        // the replay path re-establishes before trusting the memo.
        let clean = fresh
            && !self.diagnostics[mark..]
                .iter()
                .any(|d| d.code == Code::CertificateRefused);
        if clean {
            progs.store_verified_schedule(
                key,
                Arc::new(VerifiedSchedule {
                    cert: analysis.cert,
                    diags: self.diagnostics[mark..].to_vec(),
                    checker_after: self.checker.clone(),
                }),
            );
        }
        Ok(report)
    }

    /// The warm path: replay a memoized transcript. Preconditions
    /// (checked by the caller): fresh checker, quiesced array,
    /// byte-identical schedule under the same verify mode — so every
    /// static gate of the cold run would reproduce exactly what the
    /// transcript recorded.
    fn replay_verified(
        &mut self,
        epochs: &[Epoch],
        vs: &VerifiedSchedule,
        progs: &mut ProgramCache,
        opts: &EventOptions,
    ) -> Result<RunReport, SimError> {
        self.diagnostics.extend(vs.diags.iter().cloned());
        let mut report = RunReport::default();
        for (e, ea) in epochs.iter().zip(&vs.cert.epochs) {
            report
                .epochs
                .push(self.run_epoch_certified(e, ea, progs, opts, false)?);
        }
        self.checker = vs.checker_after.clone();
        Ok(report)
    }

    /// Runs a whole schedule under a caller-supplied certificate
    /// (normally from [`cgra_verify::analyze_activity`] — but the
    /// certificate is **never trusted**: it is re-verified from scratch
    /// first, and any refusal drops the run to the bit-exact serial
    /// engine with the [`Code::CertificateRefused`] findings recorded
    /// in [`EpochRunner::diagnostics`]).
    pub fn run_schedule_certified(
        &mut self,
        epochs: &[Epoch],
        cert: &ActivityCertificate,
        progs: &mut ProgramCache,
        opts: &EventOptions,
    ) -> Result<RunReport, SimError> {
        gate(self.cold_lint_gate(epochs))?;
        self.certified_after_gate(epochs, cert, progs, opts, false)
    }

    /// The post-gate half of the certified entry points: re-verify
    /// (unless this exact certificate already passed verification this
    /// run — `verified` is only set by the schedule-keyed memo in
    /// [`ProgramCache`]), then run certified or fall back serially.
    fn certified_after_gate(
        &mut self,
        epochs: &[Epoch],
        cert: &ActivityCertificate,
        progs: &mut ProgramCache,
        opts: &EventOptions,
        verified: bool,
    ) -> Result<RunReport, SimError> {
        // The certificate models a quiesced array at every epoch
        // boundary; tiles armed behind the analysis's back (e.g. a
        // program loaded directly on the sim) void it.
        if !self.sim.quiesced() {
            self.diagnostics.push(Diagnostic::error(
                Code::CertificateRefused,
                "array not quiesced at schedule entry; the activity certificate does not \
                 cover pre-armed tiles — falling back to the serial engine"
                    .to_string(),
            ));
            return self.run_serial(epochs);
        }
        if !verified {
            let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
            let refusals = verify_activity(self.sim.mesh, &self.cost, &specs, cert);
            if !refusals.is_empty() {
                self.diagnostics.extend(refusals);
                return self.run_serial(epochs);
            }
        }
        let mut report = RunReport::default();
        for (e, ea) in epochs.iter().zip(&cert.epochs) {
            report
                .epochs
                .push(self.run_epoch_certified(e, ea, progs, opts, true)?);
        }
        Ok(report)
    }

    /// One epoch under an accepted certificate: identical verification,
    /// switch and event stream as [`EpochRunner::run_epoch`], but the
    /// array never steps — the stall head is accounted in one batch and
    /// only the certificate's independence classes execute, each to its
    /// own quiescence.
    ///
    /// `check` re-runs the per-epoch verifier; [`replay_verified`]
    /// passes `false` because the memoized transcript already carries
    /// this epoch's findings from the byte-identical cold run.
    ///
    /// [`replay_verified`]: EpochRunner::replay_verified
    fn run_epoch_certified(
        &mut self,
        epoch: &Epoch,
        ea: &EpochActivity,
        progs: &mut ProgramCache,
        opts: &EventOptions,
        check: bool,
    ) -> Result<EpochReport, SimError> {
        if check {
            gate(self.check(epoch))?;
        }
        let epoch_idx = self.begin(&epoch.name);
        let start = self.sim.now;
        let prev = self.prev_links.clone();
        let payloads = payloads(epoch, 0, None)?;
        let sw = self.switch(epoch_idx, &prev, &epoch.links, payloads, progs, true)?;
        self.sim.set_links(epoch.links.clone())?;
        self.prev_links = epoch.links.clone();

        let stats_before = self.sim.stats.clone();
        let (stalled, stall_cycles, armed) = (&sw.stalled, sw.stall_cycles, &sw.armed);
        // The stall head, proven word-free, is accounted in one batch
        // instead of cycle-by-cycle.
        if !stalled.is_empty() && stall_cycles > epoch.budget {
            self.sim.now = start + epoch.budget;
            return Err(SimError::Deadline {
                budget: epoch.budget,
            });
        }
        for &t in stalled {
            if let Some(s) = self.sim.stats.get_mut(t) {
                s.reconfig_cycles += stall_cycles;
            }
        }
        let class_budget = epoch.budget - if stalled.is_empty() { 0 } else { stall_cycles };

        // Extract each class's members and step the classes
        // independently — provably no words cross between them.
        let mut extracted: Vec<(usize, Vec<Member>)> = Vec::with_capacity(ea.classes.len());
        for (ci, class) in ea.classes.iter().enumerate() {
            let mut members = Vec::with_capacity(class.tiles.len());
            for &t in &class.tiles {
                if t >= self.sim.tiles.len() {
                    continue;
                }
                let tile = std::mem::replace(&mut self.sim.tiles[t], Tile::new(t));
                let st = std::mem::take(&mut self.sim.states[t]);
                members.push((t, tile, st, self.sim.stats[t]));
            }
            extracted.push((ci, members));
        }
        let mesh = self.sim.mesh;
        let links = self.sim.links.clone();
        let deadline_budget = epoch.budget;
        // A lone class gains nothing from the pool; step it in-thread
        // and save the per-epoch spawn.
        let jobs = if extracted.len() <= 1 { 1 } else { opts.jobs };
        let record_transfers = self.sim.sink_attached();
        let out: cgra_fabric::par::PoolOutput<(Vec<Member>, ClassRun), ()> =
            cgra_fabric::par::run_sharded(jobs, extracted, |_ctx, (_ci, mut members)| {
                let run = step_class(
                    &mesh,
                    &links,
                    class_budget,
                    deadline_budget,
                    &mut members,
                    armed,
                    record_transfers,
                );
                (members, run)
            });
        // Restore every member before any error can propagate.
        let mut runs: Vec<ClassRun> = Vec::with_capacity(out.results.len());
        for (members, run) in out.results {
            for (t, tile, st, stats) in members {
                self.sim.tiles[t] = tile;
                self.sim.states[t] = st;
                self.sim.stats[t] = stats;
            }
            runs.push(run);
        }

        // Earliest error across classes wins, in serial order: step
        // errors before write-landing errors within a cycle, the
        // deadline check before either at its cycle.
        let mut first: Option<ClassErr> = None;
        for run in &mut runs {
            if let Some(e) = run.err.take() {
                let better = match &first {
                    None => true,
                    Some(f) => (e.cyc, e.phase, e.tile) < (f.cyc, f.phase, f.tile),
                };
                if better {
                    first = Some(e);
                }
            }
        }
        if let Some(e) = first {
            self.sim.now = start
                + if stalled.is_empty() { 0 } else { stall_cycles }
                + e.cyc
                + if e.phase == 2 { 0 } else { 1 };
            return Err(e.err);
        }

        // Busy-cycle conservation: what ran must sit inside the proved
        // intervals (Programmed tiles within their WCET span, PatchOnly
        // tiles at exactly zero).
        for iv in &ea.intervals {
            let ran = self
                .sim
                .stats
                .get(iv.tile)
                .map(|s| s.busy_cycles)
                .unwrap_or(0)
                - stats_before
                    .get(iv.tile)
                    .map(|s| s.busy_cycles)
                    .unwrap_or(0);
            if !iv.busy.contains(ran) {
                return Err(SimError::Verify(vec![Diagnostic::error(
                    Code::CertificateRefused,
                    format!(
                        "tile {} executed {} cycles outside its proved activity interval; \
                         the certificate is unsound for epoch '{}'",
                        iv.tile, ran, epoch.name
                    ),
                )
                .in_epoch(ea.epoch)]));
            }
        }

        let class_cycles = runs.iter().map(|r| r.cycles).max().unwrap_or(0);
        let head = if stalled.is_empty() { 0 } else { stall_cycles };
        let cycles = if stalled.is_empty() && runs.iter().all(|r| r.cycles == 0) {
            0
        } else {
            head + class_cycles
        };
        self.sim.now = start + cycles;

        // Synthesize the fine-grained sink events the serial engine
        // would have streamed: one stall segment per rewritten tile, one
        // busy segment per armed tile, one transfer per landed word.
        if self.sim.sink_attached() {
            let mut synth: Vec<(u64, TileId, Event)> = Vec::new();
            if stall_cycles > 0 {
                for &t in stalled {
                    synth.push((
                        start,
                        t,
                        Event::Segment {
                            tile: t,
                            state: SegState::Stall,
                            start,
                            end: start + stall_cycles,
                        },
                    ));
                }
            }
            for (&t, _) in armed.iter() {
                let ran = self.sim.stats.get(t).map(|s| s.busy_cycles).unwrap_or(0)
                    - stats_before.get(t).map(|s| s.busy_cycles).unwrap_or(0);
                if ran > 0 {
                    synth.push((
                        start + head,
                        t,
                        Event::Segment {
                            tile: t,
                            state: SegState::Busy,
                            start: start + head,
                            end: start + head + ran,
                        },
                    ));
                }
            }
            for run in &runs {
                for &(rel, from, to) in &run.transfers {
                    synth.push((
                        start + head + rel,
                        from,
                        Event::LinkTransfer {
                            from,
                            to,
                            at: start + head + rel,
                            words: 1,
                        },
                    ));
                }
            }
            synth.sort_by_key(|(at, tile, _)| (*at, *tile));
            for (_, _, ev) in synth {
                self.sim.emit(&ev);
            }
        }

        Ok(self.close(epoch_idx, &epoch.name, &stats_before, cycles, &sw))
    }
}
