//! The `serve-cold` and `serve-warm` workloads.
//!
//! Both are one closed-loop client over the daemon's Unix socket: the
//! next request goes out only after the previous reply arrived, the way
//! `cgra-serve --connect … --run` drives it. The daemon runs one fabric
//! (so the two-core host measures the program, not the scheduler) and a
//! settle window longer than any round, so packs are planned only at the
//! client's `run` and depend on the seeded order alone.
//!
//! The traced run replays the daemon's per-job pipeline in process,
//! calling each layer's public function inside a span (see `trace`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

use remorph::explore::{build_example_schedule, compose_schedules, EXAMPLE_SCHEDULES};
use remorph::fabric::{CostModel, Mesh};
use remorph::lint::{lint_schedule, plan_hoists, HoistOptions, LintLevels};
use remorph::serve::{
    admit_schedule, parse_request, parse_response, plan_batches, recheck_quote, render_bare,
    render_submit, AdmitLimits, Client, Daemon, Job, Quote, QuoteMsg, Request, Response, ResultMsg,
    ResultStore, ServeConfig, StoreKey, StoredOutcome, SubmitRequest,
};
use remorph::sim::{
    bound_epochs, epoch_spec, verify_epochs, ArraySim, Epoch, EpochRunner, Recorder, VerifyMode,
};
use remorph::telemetry::conservation_violations;
use remorph::verify::{analyze_footprint, EpochSpec};

use crate::dse::SweepTrace;
use crate::golden::Golden;
use crate::host::Rng;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use crate::{Params, Report};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Warm resubmissions per throughput block and per overhead pair.
const WARM_BLOCK: usize = 100;
/// Socket pings per traced round.
const PINGS_PER_ROUND: usize = 20;

/// One distinct job: an example schedule, hoisted or not.
#[derive(Debug, Clone, Copy)]
struct JobSpec {
    schedule: &'static str,
    hoist: bool,
}

/// The ten distinct jobs (five schedules, hoisting off and on).
fn all_jobs() -> Vec<JobSpec> {
    EXAMPLE_SCHEDULES
        .iter()
        .flat_map(|&schedule| [false, true].map(|hoist| JobSpec { schedule, hoist }))
        .collect()
}

fn request(spec: JobSpec, tenant: usize) -> SubmitRequest {
    SubmitRequest {
        tenant: format!("t{tenant}"),
        schedule: spec.schedule.to_string(),
        hoist: spec.hoist,
        max_tiles: None,
        max_wcet_ns: None,
        deny_lint_warnings: false,
    }
}

fn config() -> ServeConfig {
    ServeConfig {
        fabrics: 1,
        settle: Duration::from_secs(600),
        ..ServeConfig::default()
    }
}

/// A booted daemon with one connected client.
struct Live {
    daemon: Daemon,
    client: Client,
}

impl Live {
    /// Binds a fresh daemon (empty store) and confirms the connection
    /// with a ping.
    fn boot(dir: &Path, n: usize) -> Result<Live, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let path: PathBuf = dir.join(format!("{}-{n}.sock", std::process::id()));
        let daemon = Daemon::bind(&path, config(), Duration::from_millis(20))
            .map_err(|e| format!("cannot bind {}: {e}", path.display()))?;
        let mut client = Client::connect_with_retry(&path, Duration::from_secs(5))
            .map_err(|e| format!("cannot connect: {e}"))?;
        client.ping()?;
        Ok(Live { daemon, client })
    }

    /// Shuts the daemon down and waits for every thread it started.
    fn stop(mut self) -> Result<(), String> {
        let r = self.client.shutdown();
        self.daemon.wait();
        r
    }
}

/// What one pass of submissions produced.
#[derive(Default)]
struct Pass {
    answer_ms: Vec<f64>,
    turnaround_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
}

fn matches_gold(gold: &Golden, spec: JobSpec, q: &QuoteMsg, r: &ResultMsg, cached: bool) -> bool {
    let Some(g) = gold.serve.get(&(spec.schedule.to_string(), spec.hoist)) else {
        return false;
    };
    q.cached == cached
        && q.quoted_cycles == g.quoted_cycles
        && r.cached == cached
        && r.observed_cycles == g.observed_cycles
        && r.quoted_cycles == g.quoted_cycles
        && r.eq1_ns == g.eq1_ns
        && r.within_quote
        && r.conservation_clean
}

/// Submits `specs` in order (timing each quote), sends `run`, and times
/// each result frame. Every job is checked against the golden file.
fn submit_and_run(
    client: &mut Client,
    specs: &[JobSpec],
    gold: &Golden,
    cached: bool,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    let mut sent: BTreeMap<u64, (JobSpec, QuoteMsg, Instant)> = BTreeMap::new();
    for (i, &spec) in specs.iter().enumerate() {
        pass.attempted += 1;
        let t0 = Instant::now();
        if let Response::Quote(q) = client.submit(&request(spec, i))? {
            pass.answer_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            sent.insert(q.job, (spec, q, t0));
        }
    }
    client
        .send_raw(&render_bare("run"))
        .map_err(|e| format!("cannot send run: {e}"))?;
    let mut ok = 0u64;
    loop {
        match client.read_response()? {
            Some(Response::Result(r)) => {
                let Some((spec, q, t0)) = sent.remove(&r.job) else {
                    return Err(format!("result for unknown job {}", r.job));
                };
                pass.turnaround_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                if matches_gold(gold, spec, &q, &r, cached) {
                    ok += 1;
                }
            }
            Some(Response::Done(_)) => break,
            Some(_) => {}
            None => return Err("daemon closed mid result stream".to_string()),
        }
    }
    // A reject, an error, a missing result or a golden mismatch fails.
    pass.failed = pass.attempted - ok;
    Ok(pass)
}

fn shuffled(rng: &mut Rng) -> Vec<JobSpec> {
    let mut jobs = all_jobs();
    rng.shuffle(&mut jobs);
    jobs
}

/// Untraced `serve-cold`: every round boots a fresh daemon.
pub fn cold(p: &Params) -> Result<Report, String> {
    let mut rng = Rng::new(p.seed);
    let mut boots = 0;
    let mut setup_s = Vec::new();
    let mut warmup = Pass::default();
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let mut live = Live::boot(&p.out_dir, boots)?;
        boots += 1;
        let pass = submit_and_run(&mut live.client, &shuffled(&mut rng), &p.golden, false)?;
        setup_s.push(t.elapsed().as_secs_f64());
        live.stop()?;
        absorb(&mut warmup, pass);
    }
    let mut all = Pass::default();
    let mut rates = Vec::new();
    let mut window = p.window();
    while window.more() {
        let mut live = Live::boot(&p.out_dir, boots)?;
        boots += 1;
        let order = shuffled(&mut rng);
        let t = Instant::now();
        let pass = submit_and_run(&mut live.client, &order, &p.golden, false)?;
        rates.push((pass.attempted - pass.failed) as f64 / t.elapsed().as_secs_f64());
        live.stop()?;
        absorb(&mut all, pass);
    }
    Ok(serve_report(all, warmup, setup_s, rates))
}

/// Untraced `serve-warm`: one daemon whose store the set-up fills.
pub fn warm(p: &Params) -> Result<Report, String> {
    let mut rng = Rng::new(p.seed);
    let mut setup_s = Vec::new();
    let mut live = None;
    let mut warmup = Pass::default();
    for n in 0..SETUP_REPS {
        // The previous daemon goes first, so no two are ever alive.
        if let Some(old) = live.take() {
            Live::stop(old)?;
        }
        let t = Instant::now();
        let mut l = Live::boot(&p.out_dir, n)?;
        // Catalog order: the fill decides the process's heap peak, which
        // must not depend on the seed.
        let fill = submit_and_run(&mut l.client, &all_jobs(), &p.golden, false)?;
        setup_s.push(t.elapsed().as_secs_f64());
        absorb(&mut warmup, fill);
        live = Some(l);
    }
    let mut live = live.expect("at least one set-up");
    let mut all = Pass::default();
    let mut rates = Vec::new();
    let mut window = p.window();
    let mut order = Vec::new();
    while window.more() {
        let t = Instant::now();
        let mut block = Pass::default();
        for _ in 0..WARM_BLOCK {
            if order.is_empty() {
                order = shuffled(&mut rng);
            }
            let spec = order.pop().expect("refilled above");
            absorb(
                &mut block,
                submit_and_run(&mut live.client, &[spec], &p.golden, true)?,
            );
        }
        rates.push((block.attempted - block.failed) as f64 / t.elapsed().as_secs_f64());
        absorb(&mut all, block);
    }
    live.stop()?;
    Ok(serve_report(all, warmup, setup_s, rates))
}

fn absorb(into: &mut Pass, p: Pass) {
    into.answer_ms.extend(p.answer_ms);
    into.turnaround_ms.extend(p.turnaround_ms);
    into.attempted += p.attempted;
    into.failed += p.failed;
}

/// Set-up outputs (`warmup`) count towards `ok_share` but give no
/// timing samples.
fn serve_report(all: Pass, warmup: Pass, setup_s: Vec<f64>, rates: Vec<f64>) -> Report {
    let mut r = Report::new(all.attempted + warmup.attempted, all.failed + warmup.failed);
    let answer_tail = tail(&all.answer_ms);
    let turn_tail = tail(&all.turnaround_ms);
    r.metric("setup_s", median(&setup_s), "s");
    r.metric("answer_p50_ms", median(&all.answer_ms), "ms");
    r.metric("answer_tail_ms", answer_tail.value, "ms");
    r.metric("turnaround_p50_ms", median(&all.turnaround_ms), "ms");
    r.metric("turnaround_tail_ms", turn_tail.value, "ms");
    r.metric("jobs_per_s", median(&rates), "1/s");
    r.info_tail("answer_tail_ms", answer_tail);
    r.info_tail("turnaround_tail_ms", turn_tail);
    r.info("setup_samples", setup_s.len() as f64);
    r.info("rate_blocks", rates.len() as f64);
    r
}

// ---------------------------------------------------------------------
// The traced replay
// ---------------------------------------------------------------------

/// The daemon's per-job pipeline, replayed in process with a span
/// around each layer call. The same code with tracing off is the
/// baseline the tracing overhead is measured against.
struct Replay {
    cost: CostModel,
    cfg: ServeConfig,
    next_id: u64,
    lookups: u64,
    hits: u64,
    frame_bytes: Vec<f64>,
    packs: Vec<f64>,
    tenants_in_packs: u64,
    compose_cycles: Vec<f64>,
    compose_run_ns: u64,
    queue_wait_ms: Vec<f64>,
    checked: u64,
    failed: u64,
}

impl Replay {
    fn new() -> Replay {
        let cfg = config();
        Replay {
            cost: cfg.cost,
            cfg,
            next_id: 1,
            lookups: 0,
            hits: 0,
            frame_bytes: Vec::new(),
            packs: Vec::new(),
            tenants_in_packs: 0,
            compose_cycles: Vec::new(),
            compose_run_ns: 0,
            queue_wait_ms: Vec::new(),
            checked: 0,
            failed: 0,
        }
    }

    fn id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Encodes and decodes one response frame, as the daemon and the
    /// client would.
    fn frame(&mut self, tr: &mut Tracer, id: u64, resp: Response) -> Result<Response, String> {
        let text = tr.time("serve.proto_encode", id, || resp.to_json());
        self.frame_bytes.push(text.len() as f64);
        tr.time("serve.proto_decode", id, || parse_response(&text))
    }

    fn check(&mut self, gold: &Golden, spec: JobSpec, q: &QuoteMsg, r: &ResultMsg, cached: bool) {
        self.checked += 1;
        if !matches_gold(gold, spec, q, r, cached) {
            self.failed += 1;
        }
    }

    /// One round: every job is submitted (store probe, then admission on
    /// a miss), then packs are planned and executed on one fabric.
    fn round(
        &mut self,
        tr: &mut Tracer,
        store: &ResultStore,
        specs: &[JobSpec],
        gold: &Golden,
    ) -> Result<(), String> {
        let limits = AdmitLimits {
            max_cols: self.cfg.max_cols,
            link_budget_words: self.cfg.link_budget_words,
        };
        let cost = self.cost;
        let mut jobs = Vec::new();
        let mut meta: BTreeMap<u64, (JobSpec, QuoteMsg)> = BTreeMap::new();
        let mut cached_results = Vec::new();
        for (i, &spec) in specs.iter().enumerate() {
            let id = self.id();
            let root = tr.enter("serve.submit", id);
            let submitted = Instant::now();
            let frame = tr.time("serve.proto_encode", id, || {
                render_submit(&request(spec, i))
            });
            self.frame_bytes.push(frame.len() as f64);
            let req = match tr.time("serve.proto_decode", id, || parse_request(&frame)) {
                Ok(Request::Submit(req)) => req,
                other => return Err(format!("submit frame did not round-trip: {other:?}")),
            };
            let (mesh, epochs) = tr
                .time("explore.build_schedule", id, || {
                    build_example_schedule(&req.schedule)
                })
                .ok_or_else(|| format!("unknown schedule {}", req.schedule))?;
            let key = tr.time("serve.store_key", id, || {
                StoreKey::new(mesh, &epochs, &cost, req.hoist)
            });
            self.lookups += 1;
            if let Some((quote, outcome)) =
                tr.time("serve.store_lookup", id, || store.lookup(key, &cost))
            {
                self.hits += 1;
                recheck_quote(&req, &quote).map_err(|r| format!("cached quote refused: {r:?}"))?;
                let q = quote_msg(&req, id, key, &quote, true);
                let q = self.quote_frame(tr, id, q)?;
                let names = (req.tenant.as_str(), req.schedule.as_str());
                let r = result_msg(names, id, &outcome, quote.quoted_cycles, None, submitted);
                cached_results.push((id, spec, q, r));
                tr.exit(root);
                continue;
            }
            let admitted = self.admit(tr, id, &req, mesh, epochs, &limits)?;
            let q = quote_msg(&req, id, key, &admitted.quote, false);
            let q = self.quote_frame(tr, id, q)?;
            meta.insert(id, (spec, q));
            let (reply, _) = channel();
            jobs.push(Job {
                id,
                admitted,
                reply,
                submitted,
            });
            tr.exit(root);
        }
        for (id, spec, q, r) in cached_results {
            let r = self.result_frame(tr, id, r)?;
            self.check(gold, spec, &q, &r, true);
        }
        if jobs.is_empty() {
            return Ok(());
        }

        let flush = self.id();
        let root = tr.enter("serve.flush", flush);
        let (max_cols, max_tenants) = (self.cfg.max_cols, self.cfg.max_tenants);
        let mut queue: Vec<Vec<Job>> = tr.time("serve.plan", flush, || {
            plan_batches(jobs, max_cols, max_tenants)
        });
        tr.exit(root);
        queue.reverse();
        let mut packs = 0;
        let mut cycles = 0u64;
        while let Some(batch) = queue.pop() {
            let pack = self.id();
            let t0 = Instant::now();
            let root = tr.enter("serve.pack", pack);
            match self.pack(tr, pack, &batch)? {
                Some((wall_cycles, outcomes)) => {
                    packs += 1;
                    cycles += wall_cycles;
                    self.tenants_in_packs += batch.len() as u64;
                    let mut results = Vec::new();
                    for (job, outcome) in batch.iter().zip(outcomes) {
                        let a = &job.admitted;
                        tr.time("serve.store_insert", pack, || {
                            store.insert(a.key, &a.quote, outcome, &cost)
                        });
                        let names = (a.tenant.as_str(), a.schedule.as_str());
                        let r = result_msg(
                            names,
                            job.id,
                            &outcome,
                            a.quote.quoted_cycles,
                            Some(batch.len()),
                            job.submitted,
                        );
                        results.push((job, self.result_frame(tr, pack, r)?));
                    }
                    tr.exit(root);
                    let exec_ms = t0.elapsed().as_secs_f64() * 1e3;
                    for (job, r) in results {
                        let turnaround_ms = job.submitted.elapsed().as_secs_f64() * 1e3;
                        self.queue_wait_ms.push(turnaround_ms - exec_ms);
                        let (spec, q) = meta.get(&job.id).cloned().expect("every job was quoted");
                        self.check(gold, spec, &q, &r, false);
                    }
                }
                None => {
                    // The daemon degrades a refused multi-tenant pack
                    // to isolated packs; so does the replay.
                    tr.exit(root);
                    if batch.len() == 1 {
                        return Err(format!(
                            "single-tenant pack {} refused",
                            batch[0].admitted.schedule
                        ));
                    }
                    for job in batch.into_iter().rev() {
                        queue.push(vec![job]);
                    }
                }
            }
        }
        self.packs.push(packs as f64);
        self.compose_cycles.push(cycles as f64);
        Ok(())
    }

    /// Admission: each rung is timed on its own and `admit_schedule`
    /// (which runs the same rungs) is timed whole; its own residual is
    /// the difference.
    fn admit(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        req: &SubmitRequest,
        mesh: Mesh,
        epochs: Vec<Epoch>,
        limits: &AdmitLimits,
    ) -> Result<remorph::serve::Admitted, String> {
        let cost = self.cost;
        let whole = |tr: &mut Tracer, epochs: Vec<Epoch>| {
            tr.time("serve.admit", id, || {
                admit_schedule(req, mesh, epochs, &cost, limits)
            })
            .map_err(|r| format!("admission refused {}: {}", req.schedule, r.code))
        };
        // Whichever goes second finds warmer caches, so the order
        // alternates between jobs.
        let early = if id.is_multiple_of(2) {
            Some(whole(tr, epochs.clone())?)
        } else {
            None
        };
        tr.time("verify.structural", id, || verify_epochs(mesh, &epochs));
        let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
        tr.time("lint.schedule", id, || {
            lint_schedule(mesh, &specs, &LintLevels::default(), &cost)
        });
        tr.time("verify.footprint", id, || analyze_footprint(mesh, &specs));
        drop(specs);
        tr.time("verify.wcet", id, || bound_epochs(mesh, &cost, &epochs));
        match early {
            Some(admitted) => Ok(admitted),
            None => whole(tr, epochs),
        }
    }

    /// Composes and runs one pack, as a fabric worker does. `None` when
    /// the composition is refused.
    fn pack(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        batch: &[Job],
    ) -> Result<Option<(u64, Vec<StoredOutcome>)>, String> {
        let cost = self.cost;
        let hoist = batch[0].admitted.hoist;
        let tenants: Vec<(String, Mesh, Vec<Epoch>)> = batch
            .iter()
            .map(|j| {
                (
                    j.admitted.tenant.clone(),
                    j.admitted.mesh,
                    j.admitted.epochs.clone(),
                )
            })
            .collect();
        let Ok(comp) = tr.time("explore.compose", id, || {
            compose_schedules(&tenants, &cost, hoist)
        }) else {
            return Ok(None);
        };
        if hoist {
            // `compose_schedules` plans hoists inside; the planner is
            // timed again on the same composed coordinates.
            for t in &comp.tenants {
                let specs: Vec<EpochSpec> = t.epochs.iter().map(epoch_spec).collect();
                tr.time("lint.hoist_plan", id, || {
                    plan_hoists(
                        comp.mesh,
                        &specs,
                        &LintLevels::default(),
                        &cost,
                        &HoistOptions::default(),
                    )
                });
            }
        }
        let mut sim = ArraySim::new(comp.mesh);
        sim.verify = VerifyMode::Strict;
        let recorder = Recorder::new();
        sim.attach_sink(Box::new(recorder.clone()));
        let mut runner = EpochRunner::new(sim, cost);
        let t = Instant::now();
        let report = tr
            .time("sim.compose_run", id, || {
                runner.run_composed_schedule(&comp.tenants)
            })
            .map_err(|e| format!("composed run failed: {e}"))?;
        self.compose_run_ns += t.elapsed().as_nanos() as u64;
        runner.sim.detach_sink();
        let violations = tr.time("telemetry.conservation", id, || {
            conservation_violations(&recorder.events())
        });
        if !violations.is_empty() {
            return Err(format!("conservation violated: {}", violations.join("; ")));
        }
        let outcomes = batch
            .iter()
            .zip(&report.tenants)
            .map(|(job, o)| {
                let tiles = job.admitted.quote.tiles.max(1);
                StoredOutcome {
                    observed_cycles: o.observed_cycles,
                    eq1_ns: o.report.total_ns(),
                    utilization: o.busy_tile_cycles as f64
                        / (tiles * o.observed_cycles.max(1)) as f64,
                    words_moved: o.report.epochs.iter().map(|e| e.words_copied).sum(),
                    reconfig_ns: o.report.total_reconfig_ns(),
                }
            })
            .collect();
        Ok(Some((report.wall_cycles, outcomes)))
    }

    fn quote_frame(&mut self, tr: &mut Tracer, id: u64, q: QuoteMsg) -> Result<QuoteMsg, String> {
        match self.frame(tr, id, Response::Quote(q))? {
            Response::Quote(q) => Ok(q),
            other => Err(format!("quote frame did not round-trip: {other:?}")),
        }
    }

    fn result_frame(
        &mut self,
        tr: &mut Tracer,
        id: u64,
        r: ResultMsg,
    ) -> Result<ResultMsg, String> {
        match self.frame(tr, id, Response::Result(r))? {
            Response::Result(r) => Ok(r),
            other => Err(format!("result frame did not round-trip: {other:?}")),
        }
    }
}

/// The quote frame the daemon would send for `quote`.
fn quote_msg(
    req: &SubmitRequest,
    job: u64,
    key: StoreKey,
    quote: &Quote,
    cached: bool,
) -> QuoteMsg {
    QuoteMsg {
        tenant: req.tenant.clone(),
        schedule: req.schedule.clone(),
        job,
        fingerprint: key.schedule,
        quoted_cycles: quote.quoted_cycles,
        wcet_best_ns: quote.wcet_best_ns,
        wcet_worst_ns: quote.wcet_worst_ns,
        tiles: quote.tiles,
        links: quote.links,
        link_words_worst: quote.link_words_worst,
        queue_depth: 0,
        cached,
    }
}

/// The result frame the daemon would send; `pack` is the number of
/// tenants the job shared a fabric with, `None` when the store served it.
fn result_msg(
    req: (&str, &str),
    job: u64,
    o: &StoredOutcome,
    quoted_cycles: u64,
    pack: Option<usize>,
    submitted: Instant,
) -> ResultMsg {
    ResultMsg {
        tenant: req.0.to_string(),
        schedule: req.1.to_string(),
        job,
        observed_cycles: o.observed_cycles,
        quoted_cycles,
        within_quote: o.observed_cycles <= quoted_cycles,
        eq1_ns: o.eq1_ns,
        utilization: o.utilization,
        words_moved: o.words_moved,
        batch_tenants: pack.unwrap_or(0) as u64,
        turnaround_host_ns: submitted.elapsed().as_nanos() as u64,
        cached: pack.is_none(),
        conservation_clean: true,
    }
}

/// Traced `serve-cold` / `serve-warm`: alternates traced and untraced
/// replays for `--seconds`, pinging a live daemon each round for the
/// socket round trip. The cold run also replays one fft-1024 sweep per
/// round (see `dse`).
pub fn traced(p: &Params, warm: bool) -> Result<Report, String> {
    let mut rng = Rng::new(p.seed);
    let mut live = Live::boot(&p.out_dir, 0)?;
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let mut rep = Replay::new();
    let mut shadow = Replay::new();
    let mut sweeps = if warm {
        None
    } else {
        Some(SweepTrace::new(p.seed, &p.golden)?)
    };
    let mut overhead = Vec::new();
    let gold = &p.golden;

    let warm_store = ResultStore::in_memory();
    let warm_shadow_store = ResultStore::in_memory();
    if warm {
        rep.round(&mut tr, &warm_store, &all_jobs(), gold)?;
        shadow.round(&mut off, &warm_shadow_store, &all_jobs(), gold)?;
    }
    let mut window = p.window();
    let mut order = Vec::new();
    while window.more() {
        for _ in 0..PINGS_PER_ROUND {
            let id = rep.id();
            tr.time("serve.ping", id, || live.client.ping())?;
        }
        let (on_s, off_s) = if warm {
            let block: Vec<JobSpec> = (0..WARM_BLOCK)
                .map(|_| {
                    if order.is_empty() {
                        order = shuffled(&mut rng);
                    }
                    order.pop().expect("refilled above")
                })
                .collect();
            let t = Instant::now();
            for spec in &block {
                rep.round(&mut tr, &warm_store, std::slice::from_ref(spec), gold)?;
            }
            let on_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            for spec in &block {
                shadow.round(
                    &mut off,
                    &warm_shadow_store,
                    std::slice::from_ref(spec),
                    gold,
                )?;
            }
            (on_s, t.elapsed().as_secs_f64())
        } else {
            let order = shuffled(&mut rng);
            let t = Instant::now();
            rep.round(&mut tr, &ResultStore::in_memory(), &order, gold)?;
            let on_s = t.elapsed().as_secs_f64();
            let t = Instant::now();
            shadow.round(&mut off, &ResultStore::in_memory(), &order, gold)?;
            (on_s, t.elapsed().as_secs_f64())
        };
        overhead.push((on_s / off_s - 1.0) * 100.0);
        if let Some(sw) = sweeps.as_mut() {
            let (on_s, off_s) = sw.iteration(&mut tr, &mut off, rep.id(), gold)?;
            overhead.push((on_s / off_s - 1.0) * 100.0);
        }
    }
    live.stop()?;

    let (sweeps_checked, sweeps_failed) =
        sweeps.as_ref().map_or((0, 0), |s| (s.attempted, s.failed));
    let mut r = Report::new(
        rep.checked + shadow.checked + sweeps_checked,
        rep.failed + shadow.failed + sweeps_failed,
    );
    r.layer_spans(
        &tr,
        &p.out_dir,
        if warm { "serve-warm" } else { "serve-cold" },
    )?;
    if let Some(sw) = &sweeps {
        sw.report(&mut r);
    }
    r.extra("serve.admit_self_ms", admit_self_ms(&tr));
    r.extra("serve.store_hit_ratio", ratio(rep.hits, rep.lookups));
    r.extra("serve.packs", median(&rep.packs));
    r.extra(
        "serve.tenants_per_pack",
        ratio(rep.tenants_in_packs, rep.packs.iter().sum::<f64>() as u64),
    );
    r.extra("sim.compose_cycles", median(&rep.compose_cycles));
    r.extra(
        "sim.compose_ns_per_cycle",
        rep.compose_run_ns as f64 / rep.compose_cycles.iter().sum::<f64>().max(1.0),
    );
    r.extra("serve.queue_wait_ms", median(&rep.queue_wait_ms));
    r.extra(
        "serve.frame_bytes",
        rep.frame_bytes.iter().sum::<f64>() / rep.frame_bytes.len().max(1) as f64,
    );
    r.extra("trace.overhead_pct", median(&overhead));
    r.info("overhead_pairs", overhead.len() as f64);
    Ok(r)
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Per job: `admit_schedule`'s time minus its four rungs timed alone.
fn admit_self_ms(tr: &Tracer) -> f64 {
    let mut per_job: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for s in tr.spans() {
        let d = s.end.saturating_sub(s.start);
        let slot = per_job.entry(s.job).or_default();
        match s.name {
            "serve.admit" => slot.0 += d,
            "verify.structural" | "lint.schedule" | "verify.footprint" | "verify.wcet" => {
                slot.1 += d
            }
            _ => {}
        }
    }
    let residuals: Vec<f64> = per_job
        .values()
        .filter(|(admit, _)| *admit > 0)
        .map(|(admit, rungs)| (*admit as f64 - *rungs as f64) / 1e6)
        .collect();
    if residuals.is_empty() {
        0.0
    } else {
        median(&residuals)
    }
}
