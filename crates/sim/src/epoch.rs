//! Epoch schedules and Eq. 1 accounting.
//!
//! An application runs as a sequence of **epochs**: each has its own link
//! configuration `C_i` and per-tile programs. Switching from `C_i` to
//! `C_j` costs `tau_ij` (proportional to the changed links, plus the ICAP
//! time for memory rewrites); because the reconfiguration is partial, only
//! rewritten tiles stall — the rest keep computing through the switch.
//!
//! The runner produces the paper's Eq. 1 decomposition:
//!
//! ```text
//! Runtime = sum_i T_i  +  sum_ij tau_ij  +  sum T_copy
//!           (A: epochs)   (B: reconfig)    (C: data copies)
//! ```

use crate::active::{DecodedProgram, ProgramCache};
use crate::engine::{ArraySim, SimError, TileStats, VerifyMode};
use crate::trace::Trace;
use cgra_fabric::bitstream;
use cgra_fabric::{
    CostModel, DataPatch, FabricError, LinkConfig, Mesh, ReconfigPlan, ShadowConfig, TileId,
    TileReconfig,
};
use cgra_isa::encode_program;
use cgra_isa::Instr;
use cgra_telemetry::{Counters, Event};
use cgra_verify::{Code, Diagnostic, EpochSpec, ScheduleChecker, TileSpec};
use std::collections::HashMap;
use std::sync::Arc;

/// Reconfiguration payload for one tile in an epoch.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TileSetup {
    /// New program (assembled instructions), if the tile's code changes.
    pub program: Option<Vec<Instr>>,
    /// Data words rewritten during the switch (twiddles, copy variables).
    pub data_patches: Vec<DataPatch>,
}

/// One epoch: interconnect + the tiles it reconfigures.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Epoch {
    /// Human-readable name for traces.
    pub name: String,
    /// Interconnect for this epoch.
    pub links: LinkConfig,
    /// Per-tile reconfiguration payloads.
    pub setups: Vec<(TileId, TileSetup)>,
    /// Cycle budget for the epoch's computation.
    pub budget: u64,
}

/// Borrowed `cgra-verify` view of an [`Epoch`].
pub fn epoch_spec(e: &Epoch) -> EpochSpec<'_> {
    EpochSpec {
        name: &e.name,
        links: &e.links,
        tiles: e
            .setups
            .iter()
            .map(|(t, s)| TileSpec {
                tile: *t,
                program: s.program.as_deref(),
                data_patches: &s.data_patches,
            })
            .collect(),
    }
}

/// Statically verifies a whole schedule for `mesh` (a cold array),
/// without running anything. Returns every finding; filter with
/// [`cgra_verify::has_errors`] to gate execution.
pub fn verify_epochs(mesh: Mesh, epochs: &[Epoch]) -> Vec<Diagnostic> {
    let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
    cgra_verify::verify_schedule(mesh, &specs)
}

/// Statically bounds a whole schedule for `mesh` without running it:
/// the verifier's WCET engine ([`cgra_verify::bound_schedule`]) plus a
/// per-epoch deadline check against each [`Epoch::budget`]. A budget
/// the best case already exceeds is a [`Code::DeadlineRisk`] error (the
/// runner *will* abort with `CycleBudgetExhausted`); a budget only the
/// worst case exceeds — or an unbounded worst case — is a warning.
pub fn bound_epochs(mesh: Mesh, cost: &CostModel, epochs: &[Epoch]) -> cgra_verify::ScheduleBound {
    let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
    let mut bound = cgra_verify::bound_schedule(mesh, cost, &specs);
    add_deadline_risks(&mut bound, epochs);
    bound
}

/// Adds [`bound_epochs`]'s per-epoch deadline findings to `bound`, a
/// WCET bound of `epochs`.
pub(crate) fn add_deadline_risks(bound: &mut cgra_verify::ScheduleBound, epochs: &[Epoch]) {
    for (ei, (e, eb)) in epochs.iter().zip(bound.epochs.iter()).enumerate() {
        // The stall cycles spend budget too: quiescence counts them.
        let need_best = eb.stall_cycles.saturating_add(eb.compute.best);
        let need_worst = eb.compute.worst.map(|w| eb.stall_cycles.saturating_add(w));
        let risk = |d: Diagnostic| d.in_epoch(ei);
        if need_best > e.budget {
            bound.diags.push(risk(Diagnostic::error(
                Code::DeadlineRisk,
                format!(
                    "epoch '{}': needs at least {} cycles (stall {} + compute {}) but the \
                     budget is {}",
                    e.name, need_best, eb.stall_cycles, eb.compute.best, e.budget
                ),
            )));
        } else {
            match need_worst {
                None => bound.diags.push(risk(Diagnostic::warning(
                    Code::DeadlineRisk,
                    format!(
                        "epoch '{}': worst-case cycles unbounded; the {}-cycle budget \
                         cannot be guaranteed",
                        e.name, e.budget
                    ),
                ))),
                Some(w) if w > e.budget => bound.diags.push(risk(Diagnostic::warning(
                    Code::DeadlineRisk,
                    format!(
                        "epoch '{}': may need up to {} cycles (stall {} + worst-case \
                         compute) but the budget is {}",
                        e.name, w, eb.stall_cycles, e.budget
                    ),
                ))),
                Some(_) => {}
            }
        }
    }
}

/// Eq. 1 accounting for one executed epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// Epoch name.
    pub name: String,
    /// Computation time (term A contribution), ns.
    pub compute_ns: f64,
    /// Reconfiguration time for the switch into this epoch (term B + the
    /// memory-rewrite part), ns.
    pub reconfig_ns: f64,
    /// Links re-routed by the switch into this epoch.
    pub links_changed: usize,
    /// Words copied across tiles during the epoch (term C traffic).
    pub words_copied: u64,
}

/// Whole-run accounting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunReport {
    /// Per-epoch breakdown.
    pub epochs: Vec<EpochReport>,
}

impl RunReport {
    /// Term A: total compute, ns.
    pub fn total_compute_ns(&self) -> f64 {
        self.epochs.iter().map(|e| e.compute_ns).sum()
    }

    /// Term B: total reconfiguration, ns.
    pub fn total_reconfig_ns(&self) -> f64 {
        self.epochs.iter().map(|e| e.reconfig_ns).sum()
    }

    /// Eq. 1 total, ns.
    pub fn total_ns(&self) -> f64 {
        self.total_compute_ns() + self.total_reconfig_ns()
    }
}

impl TileSetup {
    /// The slot's ICAP payload, its program encoded.
    pub(crate) fn encode(&self) -> TileReconfig {
        TileReconfig {
            program: self.program.as_ref().map(|p| encode_program(p)),
            data_patches: self.data_patches.clone(),
        }
    }
}

/// One tile's switch payload, and whether it commits from the shadow
/// plane (`true`) instead of streaming through the foreground port.
pub(crate) type Payload = (TileId, TileReconfig, bool);

/// What one region's switch did: its Eq. 1 reconfiguration accounting,
/// the tiles it rewrote, and — on the certified path — the decoded
/// programs it armed.
pub(crate) struct Switch {
    reconfig_ns: f64,
    pub(crate) stall_cycles: u64,
    links_changed: usize,
    pub(crate) stalled: Vec<TileId>,
    pub(crate) armed: HashMap<TileId, Arc<DecodedProgram>>,
}

impl Switch {
    /// The region's report for an epoch that computed for
    /// `compute_cycles` and copied `words` across tiles.
    pub(crate) fn report(
        &self,
        name: &str,
        cost: &CostModel,
        compute_cycles: u64,
        words: u64,
    ) -> EpochReport {
        EpochReport {
            name: name.to_string(),
            compute_ns: cost.exec_ns(compute_cycles),
            reconfig_ns: self.reconfig_ns,
            links_changed: self.links_changed,
            words_copied: words,
        }
    }
}

/// A hoisting plan from `cgra_lint::overlap` and the double-buffered
/// shadow plane its payloads stream into.
pub(crate) struct Hoisting<'a> {
    plan: &'a cgra_lint::HoistPlan,
    shadow: ShadowConfig,
}

impl<'a> Hoisting<'a> {
    pub(crate) fn new(plan: &'a cgra_lint::HoistPlan, tiles: usize) -> Hoisting<'a> {
        Hoisting {
            plan,
            shadow: ShadowConfig::new(tiles, plan.shadow_depth),
        }
    }
}

/// An epoch's payloads in slot order, each program encoded once; the
/// slots `hoist` moved off the foreground of schedule epoch `j` commit
/// from its shadow plane instead.
pub(crate) fn payloads(
    epoch: &Epoch,
    j: usize,
    mut hoist: Option<&mut Hoisting>,
) -> Result<Vec<Payload>, SimError> {
    let mut out = Vec::with_capacity(epoch.setups.len());
    for (slot, (t, setup)) in epoch.setups.iter().enumerate() {
        out.push(match hoist.as_deref_mut() {
            Some(h) if h.plan.is_hoisted(j, slot) => {
                let rc = h.shadow.commit(*t, j).ok_or_else(|| {
                    SimError::Bitstream(format!(
                        "shadow commit: tile {t} has no payload staged for epoch {j}"
                    ))
                })?;
                (*t, rc, true)
            }
            _ => (*t, setup.encode(), false),
        });
    }
    Ok(out)
}

/// Aborts with [`SimError::Verify`] when `errs` holds any finding.
pub(crate) fn gate(errs: Vec<Diagnostic>) -> Result<(), SimError> {
    if errs.is_empty() {
        Ok(())
    } else {
        Err(SimError::Verify(errs))
    }
}

/// Runs epochs on an array, applying partial reconfiguration between them.
#[derive(Debug)]
pub struct EpochRunner {
    /// The simulated array.
    pub sim: ArraySim,
    /// The cost model used for reconfiguration stalls.
    pub cost: CostModel,
    /// Every verifier finding gathered so far (warnings included; errors
    /// additionally abort the offending epoch as [`SimError::Verify`]).
    pub diagnostics: Vec<Diagnostic>,
    /// Summary telemetry events, one small batch per executed epoch
    /// (always on; the trace and counters views fold over these).
    pub(crate) events: Vec<Event>,
    /// Epochs executed so far (indexes the event stream).
    pub(crate) epochs_run: usize,
    pub(crate) prev_links: LinkConfig,
    pub(crate) checker: ScheduleChecker,
}

impl EpochRunner {
    /// Wraps an array.
    pub fn new(sim: ArraySim, cost: CostModel) -> EpochRunner {
        let prev_links = sim.links.clone();
        let checker = ScheduleChecker::new(sim.mesh);
        EpochRunner {
            sim,
            cost,
            diagnostics: Vec::new(),
            events: Vec::new(),
            epochs_run: 0,
            prev_links,
            checker,
        }
    }

    /// The summary event stream recorded so far (fine-grained engine
    /// events go to the sim's attached sink instead; see
    /// [`ArraySim::attach_sink`]).
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Per-tile activity trace, rebuilt from the event stream.
    pub fn trace(&self) -> Trace {
        Trace::from_events(&self.events)
    }

    /// The metrics registry folded from the event stream.
    pub fn counters(&self) -> Counters {
        Counters::from_events(&self.events)
    }

    /// Records a summary event and forwards it to the sim's attached
    /// sink (if any) so external consumers see one merged stream.
    pub(crate) fn emit(&mut self, ev: Event) {
        self.sim.emit(&ev);
        self.events.push(ev);
    }

    /// Files `found` in [`EpochRunner::diagnostics`] and returns its
    /// error findings (pass them to [`gate`] to abort on them).
    pub(crate) fn record(&mut self, found: Vec<Diagnostic>) -> Vec<Diagnostic> {
        let errs = cgra_verify::errors(&found).cloned().collect();
        self.diagnostics.extend(found);
        errs
    }

    /// The per-epoch verifier gate: under any verify mode other than
    /// [`VerifyMode::Off`], checks `epoch` with the initialized-memory
    /// state carried across the epochs this runner has executed, and
    /// returns the error findings.
    pub(crate) fn check(&mut self, epoch: &Epoch) -> Vec<Diagnostic> {
        if self.sim.verify == VerifyMode::Off {
            return Vec::new();
        }
        let found = self.checker.check_epoch(&epoch_spec(epoch));
        self.record(found)
    }

    /// Opens an epoch: emits its begin bracket and returns its index in
    /// this runner's event stream.
    pub(crate) fn begin(&mut self, name: &str) -> usize {
        let epoch = self.epochs_run;
        let at = self.sim.now;
        self.emit(Event::EpochBegin {
            epoch,
            name: name.to_string(),
            at,
        });
        epoch
    }

    /// The epoch switch — the one place a region of the fabric is
    /// partially reconfigured from `prev` to `links`.
    ///
    /// Every payload arrives in one shape whatever its source
    /// (foreground slots, shadow-plane commits, or a parsed bitstream).
    /// The foreground plan streams the link delta plus the payloads not
    /// committed from the shadow plane and sets the switch time; every
    /// touched tile is reported stalled. Programs load through `progs`'
    /// verify memo — under any verify mode other than
    /// [`VerifyMode::Off`] each distinct image is verified the first
    /// time the memo sees it, so a run that loads one image many times
    /// fails on the same first load with the same error as verifying
    /// every load — and, when `arm` is set, through its decode cache,
    /// arming the decoded programs for the class stepper. The caller
    /// stalls the rewritten tiles (or accounts the stall head in one
    /// batch) and installs the links.
    pub(crate) fn switch(
        &mut self,
        epoch: usize,
        prev: &LinkConfig,
        links: &LinkConfig,
        payloads: Vec<Payload>,
        progs: &mut ProgramCache,
        arm: bool,
    ) -> Result<Switch, SimError> {
        if let Some((tile, ..)) = payloads.iter().find(|(t, ..)| *t >= self.sim.tiles.len()) {
            return Err(FabricError::UnknownTile { tile: *tile }.into());
        }
        let mut full = ReconfigPlan::from_link_change(prev, links);
        let mut fg = full.clone();
        for (t, rc, hoisted) in &payloads {
            full.add_tile(*t, rc.clone());
            if !hoisted {
                fg.add_tile(*t, rc.clone());
            }
        }
        let reconfig_ns = fg.total_ns(&self.cost);
        let stall_cycles = self.cost.stall_cycles(reconfig_ns);
        let stalled = full.stalled_tiles();
        let at = self.sim.now;
        self.emit(Event::Reconfig {
            epoch,
            at,
            breakdown: fg.breakdown(),
            reconfig_ns,
            stall_cycles,
            stalled_tiles: stalled.clone(),
        });
        let mut armed = HashMap::new();
        for (t, rc, hoisted) in &payloads {
            if let Some(img) = &rc.program {
                if self.sim.verify != VerifyMode::Off && !progs.is_verified(img) {
                    self.sim.verify_image(img)?;
                    progs.mark_verified(img);
                }
                self.sim.tiles[*t].load_program(img)?;
                self.sim.states[*t].soft_reset();
                if arm {
                    armed.insert(*t, progs.decode_image(img));
                }
            }
            for patch in &rc.data_patches {
                self.sim.tiles[*t].dmem.load(patch.base, &patch.words)?;
            }
            if *hoisted {
                let payload_ns = self.cost.data_reload_ns(rc.data_words())
                    + self.cost.instr_reload_ns(rc.instr_words());
                self.emit(Event::ShadowCommit {
                    epoch,
                    at,
                    tile: *t,
                    payload_ns,
                });
            }
        }
        Ok(Switch {
            reconfig_ns,
            stall_cycles,
            links_changed: fg.changed_links,
            stalled,
            armed,
        })
    }

    /// Closes one executed epoch: flushes open engine segments, emits
    /// the per-tile activity summaries and the end bracket, and returns
    /// the per-tile deltas over `before`.
    pub(crate) fn finish_epoch(
        &mut self,
        epoch: usize,
        name: &str,
        before: &[TileStats],
    ) -> Vec<TileStats> {
        self.sim.flush_segments();
        let deltas: Vec<TileStats> = self
            .sim
            .stats
            .iter()
            .zip(before)
            .map(|(now, then)| TileStats {
                busy_cycles: now.busy_cycles - then.busy_cycles,
                reconfig_cycles: now.reconfig_cycles - then.reconfig_cycles,
                words_sent: now.words_sent - then.words_sent,
                words_received: now.words_received - then.words_received,
            })
            .collect();
        let at = self.sim.now;
        // The epoch's begin bracket is already in the summary stream;
        // its span is what the attribution below must partition.
        let start = self
            .events
            .iter()
            .rev()
            .find_map(|e| match e {
                Event::EpochBegin { epoch: i, at, .. } if *i == epoch => Some(*at),
                _ => None,
            })
            .unwrap_or(at);
        let span = at.saturating_sub(start);
        for (t, d) in deltas.iter().enumerate() {
            self.emit(Event::TileEpoch {
                epoch,
                tile: t,
                busy: d.busy_cycles,
                stalled: d.reconfig_cycles,
                words_sent: d.words_sent,
                words_received: d.words_received,
            });
            // Cycle attribution is a pure function of the summary just
            // emitted, so all three cores (serial, event-driven,
            // composed) attribute identically by construction.
            self.emit(Event::TileAttrib {
                epoch,
                tile: t,
                cycles: cgra_telemetry::classify(
                    span,
                    d.busy_cycles,
                    d.reconfig_cycles,
                    d.words_sent,
                    d.words_received,
                ),
            });
        }
        self.emit(Event::EpochEnd {
            epoch,
            name: name.to_string(),
            at,
        });
        self.epochs_run += 1;
        deltas
    }

    /// Closes a whole-fabric epoch that ran `cycles` (stall head
    /// included) after switch `sw`, and returns its Eq. 1 report.
    pub(crate) fn close(
        &mut self,
        epoch: usize,
        name: &str,
        before: &[TileStats],
        cycles: u64,
        sw: &Switch,
    ) -> EpochReport {
        let deltas = self.finish_epoch(epoch, name, before);
        let words = deltas.iter().map(|d| d.words_sent).sum();
        let compute = cycles.saturating_sub(sw.stall_cycles);
        sw.report(name, &self.cost, compute, words)
    }

    /// One epoch on the serial stepper: switch the whole fabric, stall
    /// only the rewritten tiles (the rest keep computing), step the
    /// array to quiescence, close. `progs` is the run's image verify
    /// memo.
    fn serial_epoch(
        &mut self,
        name: &str,
        links: LinkConfig,
        payloads: Vec<Payload>,
        budget: u64,
        progs: &mut ProgramCache,
    ) -> Result<EpochReport, SimError> {
        let epoch = self.begin(name);
        let prev = self.prev_links.clone();
        let sw = self.switch(epoch, &prev, &links, payloads, progs, false)?;
        for &t in &sw.stalled {
            self.sim.stall_tile(t, sw.stall_cycles);
        }
        self.sim.set_links(links.clone())?;
        self.prev_links = links;
        let before = self.sim.stats.clone();
        let cycles = self.sim.run_until_quiesced(budget)?;
        Ok(self.close(epoch, name, &before, cycles, &sw))
    }

    /// Applies an epoch's reconfiguration and runs it to quiescence.
    ///
    /// Under [`VerifyMode::Strict`] the epoch is first checked by the
    /// schedule verifier (which carries initialized-memory state across
    /// the epochs this runner has executed); error findings abort the
    /// switch before anything is applied.
    pub fn run_epoch(&mut self, epoch: &Epoch) -> Result<EpochReport, SimError> {
        self.run_hoisted_epoch(epoch, 0, None, &mut ProgramCache::new())
    }

    /// [`EpochRunner::run_epoch`] for schedule epoch `j`, its hoisted
    /// slots committing from `hoist`'s shadow plane and its images
    /// verified through the run's memo `progs`. The checker sees the
    /// *original* epoch: a commit is the same write at the same point,
    /// so legality and the threaded may-init state are those of the
    /// unhoisted schedule.
    fn run_hoisted_epoch(
        &mut self,
        epoch: &Epoch,
        j: usize,
        hoist: Option<&mut Hoisting>,
        progs: &mut ProgramCache,
    ) -> Result<EpochReport, SimError> {
        gate(self.check(epoch))?;
        let payloads = payloads(epoch, j, hoist)?;
        self.serial_epoch(
            &epoch.name,
            epoch.links.clone(),
            payloads,
            epoch.budget,
            progs,
        )
    }

    /// Runs an epoch whose reconfiguration arrives as a serialized partial
    /// bitstream — the prototype's CompactFlash -> ICAP path. The stream is
    /// parsed, the rewritten tiles stall for the ICAP time, the link
    /// settings it carries are applied, and the epoch runs to quiescence.
    /// Under [`VerifyMode::Strict`] every program image it carries is
    /// verified before it loads, as on [`EpochRunner::run_epoch`].
    pub fn run_bitstream_epoch(
        &mut self,
        name: &str,
        bytes: &[u8],
        budget: u64,
    ) -> Result<EpochReport, SimError> {
        let parsed = bitstream::parse(bytes).map_err(|e| SimError::Bitstream(e.to_string()))?;
        // Target links: current config with the stream's settings applied.
        let mut links = self.sim.links.clone();
        for (t, d) in &parsed.links {
            links.set(*t, *d);
        }
        let payloads = parsed.plan.tiles.into_iter().map(|(t, rc)| (t, rc, false));
        let progs = &mut ProgramCache::new();
        self.serial_epoch(name, links, payloads.collect(), budget, progs)
    }

    /// Runs a whole schedule.
    ///
    /// Unlike [`EpochRunner::run_epoch`] (which only sees one epoch at a
    /// time), this has the whole schedule in hand, so under any verify
    /// mode other than [`VerifyMode::Off`] it first runs the
    /// `cgra-lint` inter-epoch pass at its default levels: deny-level
    /// findings (e.g. a reconfiguration patch clobbering live data,
    /// [`cgra_verify::Code::ClobberByPatch`]) abort before anything is
    /// applied, warnings land in [`EpochRunner::diagnostics`]. The lint
    /// pass assumes a cold array, so it is skipped when this runner has
    /// already executed epochs.
    pub fn run_schedule(&mut self, epochs: &[Epoch]) -> Result<RunReport, SimError> {
        gate(self.cold_lint_gate(epochs))?;
        self.run_serial(epochs)
    }

    /// The serial epoch loop, past the schedule-level gates; each
    /// distinct program image is verified once per run.
    pub(crate) fn run_serial(&mut self, epochs: &[Epoch]) -> Result<RunReport, SimError> {
        let progs = &mut ProgramCache::new();
        let epochs = epochs
            .iter()
            .map(|e| self.run_hoisted_epoch(e, 0, None, progs));
        Ok(RunReport {
            epochs: epochs.collect::<Result<_, _>>()?,
        })
    }

    /// The cold-run `cgra-lint` inter-epoch gate shared by every
    /// whole-schedule entry point: warnings land in
    /// [`EpochRunner::diagnostics`] and the deny-level findings are
    /// returned, for the caller to abort on before anything is applied.
    /// Skipped when verification is off or when this runner has already
    /// executed epochs (the lint pass assumes a cold array).
    pub(crate) fn cold_lint_gate(&mut self, epochs: &[Epoch]) -> Vec<Diagnostic> {
        if self.sim.verify == VerifyMode::Off || self.checker.epochs_seen() != 0 {
            return Vec::new();
        }
        let levels = cgra_lint::LintLevels::default();
        let lint = crate::lint::lint_epochs(self.sim.mesh, epochs, &levels, &self.cost);
        self.record(lint.diags)
    }

    /// Runs a whole schedule under a hoisting plan from
    /// `cgra_lint::overlap`: hoisted reconfiguration payloads stream into
    /// the double-buffered shadow plane during their donor epochs' idle
    /// windows and commit — at zero foreground ICAP cost — at the switch
    /// into their target epoch.
    ///
    /// The execution is **bit-exact** with [`EpochRunner::run_schedule`]:
    /// a committed payload is byte-identical to the slot it replaces and
    /// lands at the same switch point, every touched tile (committed or
    /// foreground) still waits out the — now shorter — foreground stall,
    /// and untouched tiles stay halted; only the Eq. 1 reconfiguration
    /// term shrinks. Under any verify mode other than [`VerifyMode::Off`]
    /// this is enforced up front: the plan's certificates are re-derived
    /// by `cgra_lint::verify_hoists` and a single failed proof aborts the
    /// run ([`cgra_verify::Code::HoistRefused`]) before anything is
    /// applied, exactly like a verifier error; the cold-run inter-epoch
    /// lint gate of [`EpochRunner::run_schedule`] applies unchanged.
    pub fn run_hoisted_schedule(
        &mut self,
        epochs: &[Epoch],
        plan: &cgra_lint::HoistPlan,
    ) -> Result<RunReport, SimError> {
        if self.sim.verify != VerifyMode::Off {
            let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
            let refused = cgra_lint::verify_hoists(self.sim.mesh, &specs, plan, &self.cost);
            gate(self.record(refused))?;
        }
        gate(self.cold_lint_gate(epochs))?;
        let base = self.epochs_run;
        let mut hoist = Hoisting::new(plan, self.sim.mesh.tiles());
        let progs = &mut ProgramCache::new();
        let mut report = RunReport::default();
        for (j, e) in epochs.iter().enumerate() {
            let rep = self.run_hoisted_epoch(e, j, Some(&mut hoist), progs)?;
            report.epochs.push(rep);
            self.stage_hoists(epochs, &mut hoist, j, base)?;
        }
        Ok(report)
    }

    /// Stages into `hoist`'s shadow plane every payload whose last donor
    /// window lies in schedule epoch `j` — it is fully streamed by the
    /// epoch's end — and emits its prefetch. `base` is this runner's
    /// epoch index at schedule start, so the prefetch's epoch indices
    /// are runner-relative like the commits'.
    pub(crate) fn stage_hoists(
        &mut self,
        epochs: &[Epoch],
        hoist: &mut Hoisting,
        j: usize,
        base: usize,
    ) -> Result<(), SimError> {
        for h in hoist.plan.hoists.iter() {
            if h.claims.iter().map(|c| c.epoch).max() != Some(j) {
                continue;
            }
            let Some((tile, setup)) = epochs.get(h.target).and_then(|t| t.setups.get(h.slot))
            else {
                continue; // verify_hoists already vouched; unreachable
            };
            hoist
                .shadow
                .stage(*tile, h.target, setup.encode())
                .map_err(|e| SimError::Bitstream(format!("shadow stage: {e}")))?;
            let pending = hoist.shadow.pending(*tile);
            let at = self.sim.now;
            self.emit(Event::ShadowPrefetch {
                epoch: base + j,
                at,
                tile: *tile,
                target: base + h.target,
                payload_ns: h.payload_ns,
                pending,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_fabric::{Direction, Mesh, Word};
    use cgra_isa::ops::{at_off, d, rem_off};
    use cgra_isa::ProgramBuilder;

    fn copy_prog(src: u16, dst: u16, n: i32) -> Vec<Instr> {
        let mut p = ProgramBuilder::new();
        p.ldar(0, src);
        p.ldar(1, dst);
        p.ldi(d(500), n);
        let l = p.here_label();
        p.mov(rem_off(1, 0), at_off(0, 0));
        p.adar(0, 1);
        p.adar(1, 1);
        p.djnz(d(500), l);
        p.halt();
        p.build().unwrap()
    }

    fn idle_prog() -> Vec<Instr> {
        let mut p = ProgramBuilder::new();
        p.halt();
        p.build().unwrap()
    }

    #[test]
    fn two_epoch_ring() {
        // Epoch 1: tile 0 -> tile 1; epoch 2: tile 1 -> tile 0.
        let mesh = Mesh::new(1, 2);
        let mut sim = ArraySim::new(mesh);
        for i in 0..4 {
            sim.tiles[0].dmem.poke(i, Word::wrap(7 + i as i64)).unwrap();
        }
        let cost = CostModel::with_link_cost(100.0);
        let mut runner = EpochRunner::new(sim, cost);
        let e1 = Epoch {
            name: "east".into(),
            links: mesh.disconnected().with(0, Direction::East),
            setups: vec![
                (
                    0,
                    TileSetup {
                        program: Some(copy_prog(0, 100, 4)),
                        data_patches: vec![],
                    },
                ),
                (
                    1,
                    TileSetup {
                        program: Some(idle_prog()),
                        data_patches: vec![],
                    },
                ),
            ],
            budget: 10_000,
        };
        let e2 = Epoch {
            name: "west".into(),
            links: mesh.disconnected().with(1, Direction::West),
            setups: vec![
                (
                    1,
                    TileSetup {
                        program: Some(copy_prog(100, 200, 4)),
                        data_patches: vec![],
                    },
                ),
                (
                    0,
                    TileSetup {
                        program: Some(idle_prog()),
                        data_patches: vec![],
                    },
                ),
            ],
            budget: 10_000,
        };
        let report = runner.run_schedule(&[e1, e2]).unwrap();
        // Data made the round trip.
        for i in 0..4 {
            assert_eq!(
                runner.sim.tiles[0].dmem.peek(200 + i).unwrap().value(),
                7 + i as i64
            );
        }
        assert_eq!(report.epochs.len(), 2);
        // Epoch 1 changed 1 link (none -> east); epoch 2 changed 2.
        assert_eq!(report.epochs[0].links_changed, 1);
        assert_eq!(report.epochs[1].links_changed, 2);
        assert!(report.epochs[1].reconfig_ns >= 200.0);
        assert_eq!(report.epochs[0].words_copied, 4);
        assert!(report.total_ns() > 0.0);
    }

    #[test]
    fn data_patch_applied_and_costed() {
        let mesh = Mesh::new(1, 1);
        let sim = ArraySim::new(mesh);
        let cost = CostModel::default();
        let mut runner = EpochRunner::new(sim, cost);
        let epoch = Epoch {
            name: "patch".into(),
            links: mesh.disconnected(),
            setups: vec![(
                0,
                TileSetup {
                    program: Some(idle_prog()),
                    data_patches: vec![DataPatch::new(10, vec![Word::wrap(42); 3])],
                },
            )],
            budget: 100,
        };
        let rep = runner.run_epoch(&epoch).unwrap();
        assert_eq!(runner.sim.tiles[0].dmem.peek(12).unwrap().value(), 42);
        // 3 words + 1 instruction through the ICAP.
        let want = cost.data_reload_ns(3) + cost.instr_reload_ns(1);
        assert!((rep.reconfig_ns - want).abs() < 1e-9);
    }

    #[test]
    fn untouched_tiles_overlap_reconfig() {
        // Tile 1 computes while tile 0 is being reconfigured.
        let mesh = Mesh::new(1, 2);
        let mut sim = ArraySim::new(mesh);
        // Preload tile 1 with a long-running counter.
        let mut p = ProgramBuilder::new();
        p.ldi(d(0), 400);
        let l = p.here_label();
        p.djnz(d(0), l);
        p.halt();
        sim.load_program(1, &encode_program(&p.build().unwrap()))
            .unwrap();
        let cost = CostModel::default();
        let mut runner = EpochRunner::new(sim, cost);
        let epoch = Epoch {
            name: "reload-tile0".into(),
            links: mesh.disconnected(),
            setups: vec![(
                0,
                TileSetup {
                    program: Some(idle_prog()),
                    data_patches: vec![DataPatch::new(0, vec![Word::ZERO; 100])],
                },
            )],
            budget: 100_000,
        };
        runner.run_epoch(&epoch).unwrap();
        // Tile 0 stalled; tile 1 never did.
        assert!(runner.sim.stats[0].reconfig_cycles > 0);
        assert_eq!(runner.sim.stats[1].reconfig_cycles, 0);
        assert!(runner.sim.stats[1].busy_cycles >= 400);
    }
}

#[cfg(test)]
mod bitstream_tests {
    use super::*;
    use crate::engine::ArraySim;
    use cgra_fabric::bitstream::serialize;
    use cgra_fabric::{Direction, Mesh, Word};
    use cgra_isa::encode_program as enc;
    use cgra_isa::ProgramBuilder;

    #[test]
    fn bitstream_epoch_reprograms_and_runs() {
        use cgra_isa::ops::{at_off, d, rem_off};
        let mesh = Mesh::new(1, 2);
        let mut sim = ArraySim::new(mesh);
        for i in 0..4 {
            sim.tiles[0]
                .dmem
                .poke(i, Word::wrap(60 + i as i64))
                .unwrap();
        }
        // Build the copy program and ship it INSIDE a bitstream, together
        // with the link setting and a data patch (the copy count variable).
        let mut p = ProgramBuilder::new();
        p.ldar(0, 0);
        p.ldar(1, 32);
        let l = p.here_label();
        p.mov(rem_off(1, 0), at_off(0, 0));
        p.adar(0, 1);
        p.adar(1, 1);
        p.djnz(d(500), l);
        p.halt();
        let prog = enc(&p.build().unwrap());

        let mut plan = ReconfigPlan::default();
        plan.add_tile(
            0,
            TileReconfig {
                program: Some(prog),
                data_patches: vec![DataPatch::new(500, vec![Word::wrap(4)])],
            },
        );
        let bytes = serialize(&plan, &[(0, Some(Direction::East))]);

        let cost = CostModel::with_link_cost(100.0);
        let mut runner = EpochRunner::new(sim, cost);
        let rep = runner
            .run_bitstream_epoch("flash epoch", &bytes, 100_000)
            .unwrap();
        // The copy ran: tile 1 received the words.
        for i in 0..4 {
            assert_eq!(
                runner.sim.tiles[1].dmem.peek(32 + i).unwrap().value(),
                60 + i as i64
            );
        }
        assert_eq!(rep.links_changed, 1);
        assert_eq!(rep.words_copied, 4);
        // Reconfig charged: program bytes + 1 data word + 1 link.
        let plan_bytes = plan.bitstream_bytes();
        let want = cost.icap_ns(plan_bytes) + 100.0;
        assert!((rep.reconfig_ns - want).abs() < 1e-9);
    }

    #[test]
    fn corrupt_bitstream_rejected() {
        let mesh = Mesh::new(1, 1);
        let sim = ArraySim::new(mesh);
        let mut runner = EpochRunner::new(sim, CostModel::default());
        assert!(matches!(
            runner.run_bitstream_epoch("bad", b"garbage", 100),
            Err(SimError::Bitstream(_))
        ));
    }
}
