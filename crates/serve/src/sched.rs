//! The fabric-pool scheduler: `explore::pool::run_sharded` generalized
//! from a batch fan-out into a long-running pool of simulated fabrics.
//!
//! Admitted jobs drain FIFO into *packs* planned by [`plan_batches`]:
//! the head of the queue always starts next, and later jobs backfill
//! onto the same fabric only when they provably cannot stretch the
//! pack's envelope past the head's own quote — a job with a larger
//! quoted WCET waits for its own pack rather than delaying someone
//! else's SLA. Each pack is composed by
//! [`cgra_explore::compose_certified`] from the proofs admission
//! certified (translated onto the pack's fabric, not re-derived) and
//! executed through the region-gated `sim::compose` trust boundary
//! under [`VerifyMode::Strict`], which trusts those proofs while they
//! cover the tenants exactly, with a telemetry recorder attached;
//! nothing is reported to a tenant unless the stream passes every
//! conservation invariant.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use cgra_explore::{compose_certified, Composition};
use cgra_fabric::CostModel;
use cgra_sim::{ArraySim, EpochRunner, Recorder, SimError, VerifyMode};
use cgra_telemetry::conservation_violations;

use crate::admit::Admitted;
use crate::proto::ProtoCode;
use crate::store::{ResultStore, StoredOutcome};

/// One admitted job in flight.
pub struct Job {
    /// Daemon-assigned id (submission order).
    pub id: u64,
    /// The admitted schedule and its quote.
    pub admitted: Admitted,
    /// Where the outcome is delivered. Send failures are ignored — a
    /// client that disconnected mid-flight must not wedge a fabric.
    pub reply: std::sync::mpsc::Sender<JobOutcome>,
    /// Submission time, for turnaround accounting.
    pub submitted: Instant,
}

/// What a job's reply channel carries.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome {
    /// Executed (or cache-served) successfully.
    Done(JobResult),
    /// Packing or execution failed after admission.
    Failed {
        /// Headline code: the originating `V…` diagnostic, else `S008`.
        code: String,
        /// Human-readable detail.
        message: String,
    },
}

/// A completed job's scalar results.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobResult {
    /// The measured outcome.
    pub outcome: StoredOutcome,
    /// The quoted worst-case cycles, for the SLA verdict.
    pub quoted_cycles: u64,
    /// Tenants co-resident in the pack (0 when served from cache).
    pub batch_tenants: u64,
    /// Submit-to-result latency on the host clock, ns.
    pub turnaround_host_ns: u64,
    /// Served from the cross-tenant store without executing.
    pub cached: bool,
}

/// Pool counters, shared with the daemon's `stats` endpoint.
#[derive(Debug, Default)]
pub struct PoolStats {
    /// Jobs executed on a fabric.
    pub executed: AtomicU64,
    /// Packs composed and run.
    pub packs: AtomicU64,
    /// Jobs whose pack fell back to isolated execution.
    pub fallbacks: AtomicU64,
}

/// Plans packs over a FIFO queue snapshot: the head job opens a pack,
/// and later jobs backfill onto it only when every one of these holds —
///
/// * the pack stays within `max_tenants` tenants and `max_cols`
///   composed columns (the fabric's width),
/// * the backfilled job's quoted worst-case cycles do not exceed the
///   head's (so the pack's wall, the max over tenants, is still covered
///   by the head's own quote — WCET-aware backfill),
/// * hoist settings agree (a pack is planned as one composition), and
/// * the tenant name is not already in the pack (certified composition
///   requires distinct tenants).
///
/// Jobs that don't fit stay in order and seed later packs. The plan is
/// a pure function of the snapshot, which is what makes a daemon replay
/// deterministic: same queue contents at a flush, same packs.
pub fn plan_batches(jobs: Vec<Job>, max_cols: usize, max_tenants: usize) -> Vec<Vec<Job>> {
    let mut queue: Vec<Option<Job>> = jobs.into_iter().map(Some).collect();
    let mut batches: Vec<Vec<Job>> = Vec::new();
    for i in 0..queue.len() {
        let Some(head) = queue[i].take() else {
            continue;
        };
        let head_cycles = head.admitted.quote.quoted_cycles;
        let head_hoist = head.admitted.hoist;
        let mut cols = head.admitted.mesh.cols();
        let mut names: Vec<String> = vec![head.admitted.tenant.clone()];
        let mut batch = vec![head];
        for slot in queue.iter_mut().skip(i + 1) {
            if batch.len() >= max_tenants {
                break;
            }
            let Some(job) = slot.as_ref() else { continue };
            let fits = cols + job.admitted.mesh.cols() <= max_cols
                && job.admitted.quote.quoted_cycles <= head_cycles
                && job.admitted.hoist == head_hoist
                && !names.contains(&job.admitted.tenant);
            if fits {
                let Some(job) = slot.take() else { continue };
                cols += job.admitted.mesh.cols();
                names.push(job.admitted.tenant.clone());
                batch.push(job);
            }
        }
        batches.push(batch);
    }
    batches
}

/// The pool of simulated fabrics: worker threads pulling packs off a
/// bounded channel, exactly the self-scheduling shape of
/// `cgra_fabric::par::run_sharded`, made persistent.
pub struct FabricPool {
    batch_tx: Option<SyncSender<Vec<Job>>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl FabricPool {
    /// Spawns `fabrics` workers (at least one).
    pub fn new(
        fabrics: usize,
        cost: CostModel,
        store: ResultStore,
        stats: Arc<PoolStats>,
    ) -> FabricPool {
        let fabrics = fabrics.max(1);
        let (tx, rx) = sync_channel::<Vec<Job>>(fabrics * 2);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..fabrics)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let store = store.clone();
                let stats = Arc::clone(&stats);
                std::thread::Builder::new()
                    .name(format!("fabric-{i}"))
                    .spawn(move || worker_loop(&rx, &cost, &store, &stats))
                    .unwrap_or_else(|e| panic!("cannot spawn fabric worker: {e}"))
            })
            .collect();
        FabricPool {
            batch_tx: Some(tx),
            workers,
        }
    }

    /// Hands one pack to the pool (blocks when every fabric is busy and
    /// the dispatch channel is full — dispatch backpressure).
    pub fn dispatch(&self, batch: Vec<Job>) {
        if let Some(tx) = &self.batch_tx {
            // A send fails only when every worker is gone; the jobs'
            // reply channels are then dropped, which readers observe.
            let _ = tx.send(batch);
        }
    }

    /// Closes the dispatch channel and joins every worker after it
    /// drains the packs already queued.
    pub fn shutdown(&mut self) {
        self.batch_tx = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for FabricPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(
    rx: &Arc<Mutex<Receiver<Vec<Job>>>>,
    cost: &CostModel,
    store: &ResultStore,
    stats: &PoolStats,
) {
    loop {
        let batch = {
            let Ok(guard) = rx.lock() else { return };
            match guard.recv() {
                Ok(b) => b,
                Err(_) => return, // dispatch channel closed: shut down
            }
        };
        execute_batch(batch, cost, store, stats);
    }
}

fn fail_batch(batch: Vec<Job>, code: &str, message: &str) {
    for job in batch {
        let _ = job.reply.send(JobOutcome::Failed {
            code: code.to_string(),
            message: message.to_string(),
        });
    }
}

/// Composes and runs one pack, delivering per-tenant outcomes. Falls
/// back to isolated single-tenant packs when a multi-tenant composition
/// is refused — per-tenant results are identical either way (the
/// composed runner's bit-exactness contract), so tenants never observe
/// the difference.
fn execute_batch(batch: Vec<Job>, cost: &CostModel, store: &ResultStore, stats: &PoolStats) {
    if batch.is_empty() {
        return;
    }
    let hoist = batch[0].admitted.hoist;
    let tenants: Vec<_> = batch
        .iter()
        .map(|j| (j.admitted.tenant.clone(), Arc::clone(&j.admitted.certified)))
        .collect();
    let comp = match compose_certified(&tenants, hoist) {
        Ok(c) => c,
        Err(diags) => {
            if batch.len() > 1 {
                // Degrade to isolated packs; certified composition is an
                // optimization, not a requirement.
                stats
                    .fallbacks
                    .fetch_add(batch.len() as u64, Ordering::Relaxed);
                for job in batch {
                    execute_batch(vec![job], cost, store, stats);
                }
            } else {
                let code = diags
                    .iter()
                    .find(|d| d.is_error())
                    .map(|d| d.code.id().to_string())
                    .unwrap_or_else(|| ProtoCode::ExecFailed.id().to_string());
                let msgs: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
                fail_batch(
                    batch,
                    &code,
                    &format!("composition refused: {}", msgs.join("; ")),
                );
            }
            return;
        }
    };

    // Only the fabric and the placed tenants are needed from here on;
    // the merged static view and the bounds are dropped before the run.
    let Composition {
        mesh,
        tenants,
        merged,
        bounds,
        ..
    } = comp;
    drop((merged, bounds));
    let mut sim = ArraySim::new(mesh);
    sim.verify = VerifyMode::Strict;
    let recorder = Recorder::new();
    sim.attach_sink(Box::new(recorder.clone()));
    let mut runner = EpochRunner::new(sim, *cost);
    let report = match runner.run_composed_schedule(&tenants) {
        Ok(r) => r,
        Err(SimError::Verify(diags)) => {
            let code = diags
                .iter()
                .find(|d| d.is_error())
                .map(|d| d.code.id().to_string())
                .unwrap_or_else(|| ProtoCode::ExecFailed.id().to_string());
            let msgs: Vec<String> = diags.iter().map(|d| d.to_string()).collect();
            fail_batch(batch, &code, &format!("run refused: {}", msgs.join("; ")));
            return;
        }
        Err(e) => {
            fail_batch(
                batch,
                ProtoCode::ExecFailed.id(),
                &format!("run failed: {e}"),
            );
            return;
        }
    };
    runner.sim.detach_sink();
    // The fabric and the pack go before the stream is checked, and the
    // stream is moved out rather than copied: the pack's peak memory is
    // its run's alone.
    drop(runner);
    drop(tenants);

    // The conservation gate: a stream that does not conserve is a
    // simulator defect, and no tenant result may be built from it.
    let violations = conservation_violations(&recorder.take());
    if !violations.is_empty() {
        fail_batch(
            batch,
            ProtoCode::ExecFailed.id(),
            &format!("telemetry conservation violated: {}", violations.join("; ")),
        );
        return;
    }

    stats.packs.fetch_add(1, Ordering::Relaxed);
    let pack_size = batch.len() as u64;
    for (job, outcome) in batch.into_iter().zip(report.tenants.iter()) {
        // Pack-independent utilization: the tenant's busy tile-cycles
        // over its own claimed region and observed span (the composed
        // report's utilization is over the pack's wall, which would
        // make a cached result depend on who it once shared a fabric
        // with).
        let tiles = job.admitted.quote.tiles.max(1);
        let busy = outcome.busy_tile_cycles;
        let span = outcome.observed_cycles.max(1);
        let stored = StoredOutcome {
            observed_cycles: outcome.observed_cycles,
            eq1_ns: outcome.report.total_ns(),
            utilization: busy as f64 / (tiles * span) as f64,
            words_moved: outcome.report.epochs.iter().map(|e| e.words_copied).sum(),
            reconfig_ns: outcome.report.total_reconfig_ns(),
        };
        store.insert(job.admitted.key, &job.admitted.quote, stored, cost);
        stats.executed.fetch_add(1, Ordering::Relaxed);
        let _ = job.reply.send(JobOutcome::Done(JobResult {
            outcome: stored,
            quoted_cycles: job.admitted.quote.quoted_cycles,
            batch_tenants: pack_size,
            turnaround_host_ns: job.submitted.elapsed().as_nanos() as u64,
            cached: false,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admit::{admit_schedule, AdmitLimits};
    use crate::proto::SubmitRequest;
    use cgra_explore::build_example_schedule;
    use std::sync::mpsc::channel;

    fn job(id: u64, tenant: &str, schedule: &str) -> (Job, Receiver<JobOutcome>) {
        hoisted_job(id, tenant, schedule, false)
    }

    fn hoisted_job(
        id: u64,
        tenant: &str,
        schedule: &str,
        hoist: bool,
    ) -> (Job, Receiver<JobOutcome>) {
        let cost = CostModel::default();
        let (mesh, epochs) = build_example_schedule(schedule).unwrap();
        let admitted = admit_schedule(
            &SubmitRequest {
                tenant: tenant.into(),
                schedule: schedule.into(),
                hoist,
                max_tiles: None,
                max_wcet_ns: None,
                deny_lint_warnings: false,
            },
            mesh,
            epochs,
            &cost,
            &AdmitLimits::default(),
        )
        .unwrap();
        let (tx, rx) = channel();
        (
            Job {
                id,
                admitted,
                reply: tx,
                submitted: Instant::now(),
            },
            rx,
        )
    }

    #[test]
    fn backfill_packs_under_the_head_quote_only() {
        // fft-64 quotes more cycles than fft-16 and jpeg, so with the
        // big job at the head the small ones backfill; with a small job
        // at the head the big one must open its own pack.
        let (big, _r1) = job(1, "big", "fft-64");
        let (small, _r2) = job(2, "small", "fft-16");
        let (other, _r3) = job(3, "other", "jpeg");
        assert!(big.admitted.quote.quoted_cycles >= small.admitted.quote.quoted_cycles);
        let batches = plan_batches(vec![big, small, other], 64, 4);
        assert_eq!(batches.len(), 1, "everything fits under the big head");
        assert_eq!(batches[0].len(), 3);

        let (small, _r1) = job(1, "small", "fft-16");
        let (big, _r2) = job(2, "big", "fft-64");
        let batches = plan_batches(vec![small, big], 64, 4);
        assert_eq!(batches.len(), 2, "a bigger quote never backfills");
        assert_eq!(batches[0][0].admitted.tenant, "small");
        assert_eq!(batches[1][0].admitted.tenant, "big");
    }

    #[test]
    fn duplicate_tenant_names_never_share_a_pack() {
        let (a, _r1) = job(1, "dup", "fft-64");
        let (b, _r2) = job(2, "dup", "fft-16");
        let batches = plan_batches(vec![a, b], 64, 4);
        assert_eq!(batches.len(), 2);
    }

    #[test]
    fn capacity_limits_split_packs() {
        let (a, _r1) = job(1, "a", "fft-64");
        let (b, _r2) = job(2, "b", "fft-16");
        let (c, _r3) = job(3, "c", "jpeg");
        // max_tenants = 2: the third job seeds a second pack.
        let batches = plan_batches(vec![a, b, c], 64, 2);
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0].len(), 2);
    }

    #[test]
    fn pool_executes_a_pack_and_reports_within_quote() {
        let cost = CostModel::default();
        let store = ResultStore::in_memory();
        let stats = Arc::new(PoolStats::default());
        let mut pool = FabricPool::new(2, cost, store.clone(), Arc::clone(&stats));
        let (a, ra) = job(1, "alpha", "fft-64");
        let (b, rb) = job(2, "beta", "fft-16");
        let batches = plan_batches(vec![a, b], 64, 4);
        for batch in batches {
            pool.dispatch(batch);
        }
        for (rx, name) in [(ra, "alpha"), (rb, "beta")] {
            match rx.recv().unwrap_or_else(|e| panic!("{name}: {e}")) {
                JobOutcome::Done(r) => {
                    assert!(
                        r.outcome.observed_cycles <= r.quoted_cycles,
                        "{name}: observed {} > quoted {}",
                        r.outcome.observed_cycles,
                        r.quoted_cycles
                    );
                    assert_eq!(r.batch_tenants, 2, "{name} was packed");
                    assert!(r.outcome.utilization > 0.0 && r.outcome.utilization <= 1.0);
                }
                other => panic!("{name}: {other:?}"),
            }
        }
        pool.shutdown();
        assert_eq!(stats.executed.load(Ordering::Relaxed), 2);
        assert_eq!(stats.packs.load(Ordering::Relaxed), 1);
        assert_eq!(store.len(), 2, "both outcomes stored");
    }

    /// Certify once: a cold 3-tenant pack, admitted and executed on
    /// this thread, runs the checker, the lint pass, the footprint
    /// derivation and the WCET bound once per submission (plus the one
    /// pack-level containment footprint) and plans each hoist once;
    /// composition and the composed runner re-derive nothing.
    #[test]
    fn a_cold_pack_certifies_each_submission_once() {
        use cgra_verify::work;
        let cost = CostModel::default();
        let names = ["fft-64", "jpeg-stream", "fft-16"];
        let epochs: u64 = names
            .iter()
            .map(|n| build_example_schedule(n).unwrap().1.len() as u64)
            .sum();
        let before = work::snapshot();
        let (jobs, replies): (Vec<Job>, Vec<_>) = names
            .iter()
            .enumerate()
            .map(|(i, n)| hoisted_job(i as u64, &format!("t{i}"), n, true))
            .unzip();
        let admitted = work::snapshot();
        let store = ResultStore::in_memory();
        let stats = PoolStats::default();
        execute_batch(jobs, &cost, &store, &stats);
        let total = work::snapshot().since(&before);
        let after_admission = work::snapshot().since(&admitted);
        for rx in replies {
            match rx.recv().unwrap() {
                JobOutcome::Done(r) => assert_eq!(r.batch_tenants, 3, "the pack was composed"),
                other => panic!("{other:?}"),
            }
        }
        let n = names.len() as u64;
        assert_eq!(
            total,
            work::WorkCounts {
                checked_epochs: epochs,
                lint_runs: n,
                footprint_derives: n + 1,
                footprint_reproofs: 0,
                wcet_bounds: n,
                hoist_plans: n,
                hoist_reproofs: 0,
            }
        );
        assert_eq!(
            after_admission,
            work::WorkCounts {
                footprint_derives: 1,
                hoist_plans: n,
                ..work::WorkCounts::default()
            },
            "past admission only the hoist plans and the pack's containment check run"
        );
    }
}
