//! Daemon load generator: drives the in-process `cgra-serve` core
//! (fabric pool, WCET-priced admission, shared result store) through a
//! cold phase — every example schedule submitted once, packed and
//! executed — and a warm phase — identical resubmissions served
//! entirely from the cross-tenant store. Emits `BENCH_serve.json` at
//! the repo root with per-phase wall clocks, p50/p95/p99 turnaround
//! percentiles (via `telemetry::hist`), the deterministic cache hit
//! rate, and the warm-over-cold speedup, and gates on the acceptance
//! floor: warm throughput at least 2x cold.
//!
//! An admission series rides along: per example schedule, the median
//! and MAD of a cold `CertifiedSchedule::certify` over a fixed repeat
//! count, with the exact number of schedule walks and program analyses
//! one certify makes (one walk, two analyses per loaded slot).

use std::time::{Duration, Instant};

use cgra_bench::{banner, check, f, json_head, time_reps};
use cgra_explore::build_example_schedule;
use cgra_fabric::CostModel;
use cgra_lint::LintLevels;
use cgra_serve::{
    admit_schedule, AdmitLimits, JobOutcome, JobResult, Response, ServeConfig, Server,
    SubmitRequest,
};
use cgra_sim::CertifiedSchedule;
use cgra_telemetry::Hist;
use cgra_verify::work;

const FABRICS: usize = 2;

/// Timed repetitions of each schedule's cold certify.
const CERTIFY_REPS: usize = 15;

fn submit(tenant: String, schedule: &str) -> SubmitRequest {
    SubmitRequest {
        tenant,
        schedule: schedule.to_string(),
        hoist: false,
        max_tiles: None,
        max_wcet_ns: None,
        deny_lint_warnings: false,
    }
}

/// Submits one job per schedule (tenants `<prefix>-<schedule>`) and
/// waits for every outcome; returns the phase wall clock and results.
fn drive_phase(
    server: &Server,
    schedules: &[&str],
    prefix: &str,
    flush: bool,
) -> (f64, Vec<JobResult>) {
    let t0 = Instant::now();
    let mut waiting = Vec::new();
    for name in schedules {
        let sub = server.submit(&submit(format!("{prefix}-{name}"), name));
        match sub.response {
            Response::Quote(_) => {}
            other => panic!("{prefix}-{name}: {other:?}"),
        }
        let rx = sub.outcome.expect("admitted jobs carry an outcome channel");
        waiting.push((*name, rx));
    }
    if flush {
        server.flush();
    }
    let results: Vec<JobResult> = waiting
        .into_iter()
        .map(|(name, rx)| {
            match rx
                .recv_timeout(Duration::from_secs(120))
                .unwrap_or_else(|e| panic!("{prefix}-{name}: no outcome: {e}"))
            {
                JobOutcome::Done(r) => r,
                JobOutcome::Failed { code, message } => {
                    panic!("{prefix}-{name} failed {code}: {message}")
                }
            }
        })
        .collect();
    (t0.elapsed().as_nanos() as f64, results)
}

fn hist_of(results: &[JobResult]) -> Hist {
    let mut h = Hist::new();
    for r in results {
        h.record(r.turnaround_host_ns);
    }
    h
}

/// One schedule's admission-series entry: the certify timing plus the
/// walk counts of a single cold certify, as a JSON object.
fn admission_entry(name: &str, cost: &CostModel) -> String {
    let (mesh, epochs) = build_example_schedule(name).expect("known schedule");
    let certify = || {
        CertifiedSchedule::certify(mesh, epochs.clone(), cost, &LintLevels::default())
            .expect("example schedules certify")
    };
    let before = work::walk_snapshot();
    certify();
    let walked = work::walk_snapshot().since(&before);
    check(
        &format!("{name}: a cold certify walks the schedule once"),
        walked.schedule_walks == 1,
    );
    let s = time_reps(&format!("certify {name}"), CERTIFY_REPS, || {
        certify();
    });
    format!(
        "{{\"name\": \"{name}\", \"reps\": {}, \"walks\": {}, \"program_analyses\": {}, \
         \"certify_median_ns\": {:.1}, \"certify_mad_ns\": {:.1}}}",
        s.reps, walked.schedule_walks, walked.program_analyses, s.median_ns, s.mad_ns
    )
}

fn main() {
    banner(
        "cgra-serve load — cold admission+execution vs warm store-served resubmission",
        "multi-tenant daemon: WCET-priced admission, fabric-pool packing, shared result store",
    );
    let cost = CostModel::default();

    // Submit in descending quoted-WCET order so the WCET-aware backfill
    // packs as densely as the head quotes allow — and so the plan (and
    // therefore the pack count in the JSON) is deterministic.
    let mut schedules: Vec<(&str, u64)> = cgra_explore::EXAMPLE_SCHEDULES
        .iter()
        .map(|name| {
            let (mesh, epochs) = build_example_schedule(name).expect("known schedule");
            let quote = admit_schedule(
                &submit(format!("probe-{name}"), name),
                mesh,
                epochs,
                &cost,
                &AdmitLimits::default(),
            )
            .expect("example schedules are admissible")
            .quote;
            (*name, quote.quoted_cycles)
        })
        .collect();
    schedules.sort_by_key(|s| std::cmp::Reverse(s.1));
    let order: Vec<&str> = schedules.iter().map(|(n, _)| *n).collect();
    for (name, cycles) in &schedules {
        println!("  {name:<12} quoted {cycles:>8} cycles");
    }
    println!();

    let server = Server::new(ServeConfig {
        fabrics: FABRICS,
        // Plan only on explicit flushes: the phases control the packs.
        settle: Duration::from_secs(600),
        cost,
        ..ServeConfig::default()
    })
    .expect("server boots");

    let (cold_wall, cold) = drive_phase(&server, &order, "cold", true);
    let cold_hist = hist_of(&cold);
    println!(
        "  cold: {} jobs in {} ms, turnaround p50/p95/p99 = {}/{}/{} us",
        cold.len(),
        f(cold_wall / 1e6, 2),
        cold_hist.p50() / 1000,
        cold_hist.p95() / 1000,
        cold_hist.p99() / 1000
    );

    // Warm phase: same schedules, fresh tenants — all served from the
    // store, nothing executes, no flush needed.
    let (warm_wall, warm) = drive_phase(&server, &order, "warm", false);
    let warm_hist = hist_of(&warm);
    println!(
        "  warm: {} jobs in {} ms, turnaround p50/p95/p99 = {}/{}/{} us",
        warm.len(),
        f(warm_wall / 1e6, 2),
        warm_hist.p50() / 1000,
        warm_hist.p95() / 1000,
        warm_hist.p99() / 1000
    );

    let stats = server.stats();
    let store = server.store();
    let hit_rate = store.hits() as f64 / (store.hits() + store.misses()) as f64;
    let warm_speedup = cold_wall / warm_wall.max(1.0);
    println!(
        "  packs {} executed {} store-hits {}/{} (rate {}), warm speedup {}x",
        stats.packs,
        stats.executed,
        store.hits(),
        store.hits() + store.misses(),
        f(hit_rate, 3),
        f(warm_speedup, 1)
    );

    check(
        "every cold job executed on a fabric, within quote",
        cold.iter().all(|r| {
            !r.cached && r.batch_tenants >= 1 && r.outcome.observed_cycles <= r.quoted_cycles
        }),
    );
    check(
        "every warm job was served from the store, within quote",
        warm.iter().all(|r| {
            r.cached && r.batch_tenants == 0 && r.outcome.observed_cycles <= r.quoted_cycles
        }),
    );
    check(
        "warm results are bit-identical to their cold executions",
        warm.iter()
            .zip(&cold)
            .all(|(w, c)| w.outcome == c.outcome && w.quoted_cycles == c.quoted_cycles),
    );
    check(
        &format!("store hit rate is exactly 0.5 (got {hit_rate})"),
        hit_rate == 0.5,
    );
    check(
        &format!(
            "warm throughput is at least 2x cold (got {}x)",
            f(warm_speedup, 1)
        ),
        warm_speedup >= 2.0,
    );
    check(
        "the pool executed each schedule exactly once",
        stats.executed == order.len() as u64 && stats.cache_hits == order.len() as u64,
    );

    let phase_json = |wall: f64, h: &Hist, packs: Option<u64>| {
        format!(
            "{{\"jobs\": {}, {}\"wall_host_ns\": {:.1}, \"turnaround_p50_host_ns\": {}, \
             \"turnaround_p95_host_ns\": {}, \"turnaround_p99_host_ns\": {}}}",
            h.count(),
            packs
                .map(|p| format!("\"packs\": {p}, "))
                .unwrap_or_default(),
            wall,
            h.p50(),
            h.p95(),
            h.p99()
        )
    };
    server.shutdown();

    println!("\n  admission (cold certify, one schedule walk):");
    let admission: Vec<String> = cgra_explore::EXAMPLE_SCHEDULES
        .iter()
        .map(|name| admission_entry(name, &cost))
        .collect();

    let json = format!(
        "{}  \"fabrics\": {FABRICS},\n  \"tenants\": [{}],\n  \"cold\": {},\n  \"warm\": {},\n  \
         \"warm_speedup\": {:.4},\n  \"cache_hit_rate\": {:.4},\n  \"admission\": [\n    {}\n  ]\n}}\n",
        json_head(),
        order
            .iter()
            .map(|n| format!("\"{n}\""))
            .collect::<Vec<_>>()
            .join(", "),
        phase_json(cold_wall, &cold_hist, Some(stats.packs)),
        phase_json(warm_wall, &warm_hist, None),
        warm_speedup,
        hit_rate,
        admission.join(",\n    ")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    std::fs::write(path, json).expect("BENCH_serve.json is writable");
    println!("\n  wrote {path}");
}
