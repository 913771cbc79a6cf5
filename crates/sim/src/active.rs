//! The event-driven, certificate-gated simulator core.
//!
//! [`EpochRunner::run_schedule`] steps every tile of the array every
//! cycle — sound, but wasteful when the static analysis can prove most
//! of the array inactive. This module consumes the proofs instead:
//!
//! 1. [`CertifiedSchedule::certify`] derives the schedule's
//!    [`cgra_verify::ActivityCertificate`] as one pass on its single
//!    schedule walk, beside the verifier, lint, footprint and WCET
//!    passes: per-tile activity intervals (stall head + busy span) and
//!    **independence classes** — groups of tiles that provably exchange
//!    no words within an epoch.
//! 2. [`EpochRunner::run_schedule_certified`] trusts a certified
//!    schedule only on an array in the state it was certified for —
//!    the same mesh and cost model, nothing run yet, every tile
//!    quiesced. There it records the certified lint findings and
//!    verdicts where the runner's own gates would have filed them and
//!    skips those gates; in any other state it records a
//!    [`Code::CertificateRefused`] finding and runs the bit-exact
//!    serial engine instead.
//! 3. Under a trusted certificate each epoch runs event-driven:
//!    provably-inactive tiles are never visited, the reconfiguration
//!    stall head is accounted in one step instead of cycle-by-cycle,
//!    and the independence classes step on the shared worker pool
//!    ([`cgra_fabric::par::run_sharded`]) when [`EventOptions::jobs`]
//!    asks for parallelism.
//!
//! Programs are decoded **once per distinct image** into a
//! [`ProgramCache`] (shared across epochs, and across DSE candidates
//! when the caller reuses the cache) instead of once per executed
//! instruction; the cache also memoizes strict-mode image verification.
//!
//! The contract is bit-exactness: final data/instruction memories, PE
//! states, per-tile counters, Eq. 1 reports, the summary event stream,
//! and errors all match [`EpochRunner::run_schedule`] on the same
//! schedule. Fine-grained sink events (segments, link transfers) are
//! synthesized from the proofs and carry the same spans and landing
//! cycles as the serial engine's, though their interleaving in the
//! stream may differ (sort both streams to compare).

use crate::certify::CertifiedSchedule;
use crate::engine::{SimError, TileStats, VerifyMode};
use crate::epoch::{gate, payloads, Epoch, EpochReport, EpochRunner, RunReport};
use cgra_fabric::{FabricError, LinkConfig, Mesh, Tile, TileId, Word};
use cgra_isa::{decode, step_decoded, ExecError, Instr, PeState, StepEffect};
use cgra_lint::LintLevels;
use cgra_telemetry::{Event, SegState};
use cgra_verify::{Code, Diagnostic, EpochActivity};
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
    hits: u64,
    misses: u64,
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
    /// Runs a whole schedule on the event-driven core: certifies it for
    /// this runner's mesh and cost model at the default lint levels
    /// ([`CertifiedSchedule::certify`]) and runs it with
    /// [`EpochRunner::run_schedule_certified`]. A schedule the verifier
    /// rejects is not certified; it runs on the serial engine
    /// ([`EpochRunner::run_schedule`]), which stops at the first
    /// rejected epoch with exactly that epoch's findings.
    ///
    /// `progs` memoizes program decoding and strict-mode verification;
    /// hold it across calls to amortize over DSE candidates that share
    /// kernel images.
    pub fn run_schedule_event_driven(
        &mut self,
        epochs: &[Epoch],
        progs: &mut ProgramCache,
        opts: &EventOptions,
    ) -> Result<RunReport, SimError> {
        let levels = LintLevels::default();
        match CertifiedSchedule::certify(self.sim.mesh, epochs.to_vec(), &self.cost, &levels) {
            Ok(certified) => self.run_schedule_certified(&certified, progs, opts),
            Err(_) => self.run_schedule(epochs),
        }
    }

    /// Runs a certified schedule on the event-driven core, under its
    /// activity certificate.
    ///
    /// The schedule is trusted only on a runner in the state it was
    /// certified for ([`CertifiedSchedule::certify`]'s mesh and cost
    /// model, no epoch run yet, every tile quiesced, and — unless
    /// verification is off — a lint verdict that clears the default
    /// gate). Then nothing is re-derived: under any verify mode other
    /// than [`VerifyMode::Off`] the certified lint findings and each
    /// epoch's verifier findings land in [`EpochRunner::diagnostics`]
    /// where [`EpochRunner::run_schedule`]'s gates would have filed
    /// them, and the certified checker state is carried onto the
    /// runner. In any other state the runner records a
    /// [`Code::CertificateRefused`] finding and runs the bit-exact
    /// serial engine behind its own cold lint gate.
    pub fn run_schedule_certified(
        &mut self,
        certified: &CertifiedSchedule,
        progs: &mut ProgramCache,
        opts: &EventOptions,
    ) -> Result<RunReport, SimError> {
        let epochs = certified.epochs();
        if let Some(why) = certified.refusal(self) {
            gate(self.cold_lint_gate(epochs))?;
            self.diagnostics
                .push(Diagnostic::error(Code::CertificateRefused, why));
            return self.run_serial(epochs);
        }
        let checking = self.sim.verify != VerifyMode::Off;
        if checking {
            self.diagnostics.extend_from_slice(&certified.lint().diags);
            self.checker = certified.checker().clone();
        }
        let mut verdicts = certified.verdicts();
        let mut report = RunReport::default();
        for (ei, (e, ea)) in epochs.iter().zip(&certified.activity().epochs).enumerate() {
            // The epoch's verifier findings, where the per-epoch gate
            // would have filed them.
            let n = verdicts.iter().take_while(|d| d.epoch == Some(ei)).count();
            if checking {
                self.diagnostics.extend_from_slice(&verdicts[..n]);
            }
            verdicts = &verdicts[n..];
            report
                .epochs
                .push(self.run_epoch_certified(e, ea, progs, opts)?);
        }
        Ok(report)
    }

    /// One epoch under a trusted certificate: the same switch and event
    /// stream as [`EpochRunner::run_epoch`], but the array never steps —
    /// the stall head is accounted in one batch and only the
    /// certificate's independence classes execute, each to its own
    /// quiescence.
    fn run_epoch_certified(
        &mut self,
        epoch: &Epoch,
        ea: &EpochActivity,
        progs: &mut ProgramCache,
        opts: &EventOptions,
    ) -> Result<EpochReport, SimError> {
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
