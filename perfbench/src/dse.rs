//! The fft-1024 design-space sweep, replayed layer by layer.
//!
//! The sweep is not an end-to-end workload of the benchmark: its wall
//! clock spread by more than the 0.25 bound allows between identical
//! runs on a shared host (see README.md). Its layers are still timed:
//! the `serve-cold` traced run replays one sweep per round. The sweep
//! runs on one worker thread with a fresh simulation cache, the way
//! `cgra-explore --sweep fft-1024 --jobs 1` runs it. The seed draws the
//! four-point link-cost grid from the paper's 0-700 ns range.

use std::time::Instant;

use remorph::explore::{
    example_probe_input, fft_column_schedule, minimize_schedule, run_sweep, schedule_fingerprint,
    static_worst_ns, EngineConfig, RowOutcome, Scheme, SimCache, SweepOutcome, SweepSpec, Workload,
};
use remorph::fabric::CostModel;
use remorph::kernels::fft::partition::FftPlan;
use remorph::sim::{epoch_spec, ArraySim, EpochRunner, EventOptions, ProgramCache};
use remorph::verify::{bound_schedule_with, BoundCache, EpochSpec};

use crate::golden::{fft1024_partitions, Golden, LINK_LATTICE};
use crate::host::Rng;
use crate::stats::median;
use crate::trace::Tracer;
use crate::Report;

/// Candidates the full sweep simulates.
const FRONTIER: usize = 6;

/// The seeded sweep: fft-1024 over four distinct lattice points,
/// ascending.
fn spec(seed: u64) -> SweepSpec {
    let mut rng = Rng::new(seed);
    let mut grid = LINK_LATTICE.to_vec();
    rng.shuffle(&mut grid);
    grid.truncate(4);
    grid.sort_unstable();
    SweepSpec {
        workload: Workload::Fft1024,
        link_costs_ns: grid.into_iter().map(|l| l as f64).collect(),
    }
}

fn fft_m(scheme: Scheme) -> usize {
    match scheme {
        Scheme::Fft { m, .. } => m,
        other => panic!("fft-1024 sweep has a non-FFT scheme {other:?}"),
    }
}

/// The ranking the golden prices imply: candidate keys `(m, link)` by
/// static worst case, ties broken by enumeration index.
fn expected_ranking(spec: &SweepSpec, gold: &Golden) -> Option<Vec<(usize, u64)>> {
    let mut cands = Vec::new();
    for c in spec.candidates() {
        let key = (fft_m(c.scheme), c.link_ns as u64);
        cands.push((gold.dse.get(&key)?.static_worst_ns, c.index, key));
    }
    cands.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    Some(cands.into_iter().map(|(_, _, k)| k).collect())
}

/// Checks a sweep against the golden prices and oracle times: every
/// rank, every static price, and every simulated frontier row.
fn sweep_ok(out: &SweepOutcome, want: &[(usize, u64)], gold: &Golden) -> bool {
    if out.rows.len() != want.len() || !out.conservation_violations().is_empty() {
        return false;
    }
    let mut rows: Vec<_> = out.rows.iter().collect();
    rows.sort_by_key(|r| r.rank);
    rows.iter().zip(want).enumerate().all(|(rank, (row, key))| {
        let got = (fft_m(row.candidate.scheme), row.candidate.link_ns as u64);
        let Some(g) = gold.dse.get(key) else {
            return false;
        };
        let outcome_ok = match (&row.outcome, rank < FRONTIER) {
            (RowOutcome::Simulated(s), true) => s.simulated_ns == g.oracle_ns,
            (RowOutcome::Pruned, false) => true,
            _ => false,
        };
        got == *key && row.static_worst_ns == g.static_worst_ns && outcome_ok
    })
}

/// A real engine sweep: one worker, top six simulated, fresh cache.
fn sweep(spec: &SweepSpec) -> Result<SweepOutcome, String> {
    let cfg = EngineConfig {
        jobs: 1,
        frontier: FRONTIER,
        prune: true,
    };
    run_sweep(spec, &cfg, &SimCache::in_memory()).map_err(|e| e.to_string())
}

/// The sweep engine's prepare / price / rank / evaluate pipeline,
/// replayed with a span around each layer call. Returns host ns and
/// simulated cycles of the event-driven runs, and whether every
/// frontier time matched the oracle.
fn replay(
    tr: &mut Tracer,
    job: u64,
    spec: &SweepSpec,
    gold: &Golden,
) -> Result<(u64, u64, bool), String> {
    let root = tr.enter("explore.sweep", job);
    let prep = CostModel::with_link_cost(0.0);
    let mut prepared = Vec::new();
    for m in fft1024_partitions() {
        let plan = FftPlan::new(1024, m)?;
        let input = example_probe_input(1024);
        let (mesh, mut epochs) = tr.time("explore.fft_build", job, || {
            fft_column_schedule(&plan, &input)
        });
        tr.time("explore.minimize", job, || {
            minimize_schedule(mesh, &mut epochs, &prep)
        });
        let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
        let bound = tr.time("verify.bound", job, || {
            bound_schedule_with(mesh, &prep, &specs, &mut BoundCache::new())
        });
        drop(specs);
        std::hint::black_box(schedule_fingerprint(mesh, &epochs));
        prepared.push((m, mesh, epochs, bound));
    }
    let mut priced = Vec::new();
    for c in spec.candidates() {
        let m = fft_m(c.scheme);
        let p = prepared
            .iter()
            .find(|p| p.0 == m)
            .ok_or("unprepared scheme")?;
        let b = tr.time("verify.price", job, || p.3.at_cost(&c.cost()));
        priced.push((static_worst_ns(&b), c.index, m, c.link_ns));
    }
    priced.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let (mut ns, mut cycles, mut ok) = (0u64, 0u64, true);
    for &(_, _, m, link) in priced.iter().take(FRONTIER) {
        let p = prepared
            .iter()
            .find(|p| p.0 == m)
            .ok_or("unprepared scheme")?;
        let mut runner = EpochRunner::new(ArraySim::new(p.1), CostModel::with_link_cost(link));
        let t = Instant::now();
        let report = tr
            .time("sim.active_run", job, || {
                runner.run_schedule_event_driven(
                    &p.2,
                    &mut ProgramCache::new(),
                    &EventOptions::default(),
                )
            })
            .map_err(|e| format!("event-driven run fft1024-m{m} L={link}: {e}"))?;
        ns += t.elapsed().as_nanos() as u64;
        cycles += runner.sim.now;
        ok &= gold
            .dse
            .get(&(m, link as u64))
            .is_some_and(|g| g.oracle_ns == report.total_ns());
    }
    tr.exit(root);
    Ok((ns, cycles, ok))
}

/// The sweep's share of a traced run: per iteration a traced replay,
/// an untraced replay (the overhead baseline, alternating which goes
/// first), and one real `run_sweep` for the engine's own counters.
pub struct SweepTrace {
    spec: SweepSpec,
    want: Vec<(usize, u64)>,
    run_ns: u64,
    run_cycles: u64,
    pruned: Vec<f64>,
    simulated: Vec<f64>,
    hit_rate: Vec<f64>,
    /// Sweeps checked against the golden file.
    pub attempted: u64,
    /// Sweeps that did not match it.
    pub failed: u64,
}

impl SweepTrace {
    /// The seeded sweep and its expected ranking.
    pub fn new(seed: u64, gold: &Golden) -> Result<SweepTrace, String> {
        let spec = spec(seed);
        let want =
            expected_ranking(&spec, gold).ok_or("the golden file lacks a point of this grid")?;
        Ok(SweepTrace {
            spec,
            want,
            run_ns: 0,
            run_cycles: 0,
            pruned: Vec::new(),
            simulated: Vec::new(),
            hit_rate: Vec::new(),
            attempted: 0,
            failed: 0,
        })
    }

    /// One iteration under root job `job`; returns the traced and the
    /// untraced replay's wall time, s.
    pub fn iteration(
        &mut self,
        tr: &mut Tracer,
        off: &mut Tracer,
        job: u64,
        gold: &Golden,
    ) -> Result<(f64, f64), String> {
        let (mut on_s, mut off_s) = (0.0, 0.0);
        for traced in [job.is_multiple_of(2), !job.is_multiple_of(2)] {
            let t = Instant::now();
            let (ns, cycles, ok) = replay(
                if traced { &mut *tr } else { &mut *off },
                job,
                &self.spec,
                gold,
            )?;
            if traced {
                on_s = t.elapsed().as_secs_f64();
                self.run_ns += ns;
                self.run_cycles += cycles;
            } else {
                off_s = t.elapsed().as_secs_f64();
            }
            self.attempted += 1;
            self.failed += u64::from(!ok);
        }
        let out = sweep(&self.spec)?;
        self.attempted += 1;
        self.failed += u64::from(!sweep_ok(&out, &self.want, gold));
        let t = &out.stats.total;
        self.pruned
            .push(t.pruned as f64 / t.candidates.max(1) as f64);
        self.simulated.push(t.simulated as f64);
        self.hit_rate.push(out.stats.hit_rate());
        Ok((on_s, off_s))
    }

    /// Adds the sweep's per-layer values that spans do not carry.
    pub fn report(&self, r: &mut Report) {
        r.extra(
            "sim.active_ns_per_cycle",
            self.run_ns as f64 / self.run_cycles.max(1) as f64,
        );
        r.extra("explore.pruned_ratio", median(&self.pruned));
        r.extra("explore.simulated", median(&self.simulated));
        r.extra("explore.cache_hit_ratio", median(&self.hit_rate));
        r.info_text("link_grid_ns", &format!("{:?}", self.spec.link_costs_ns));
    }
}
