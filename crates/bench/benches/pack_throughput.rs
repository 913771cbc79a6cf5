//! Co-residency pack throughput: fft-64 + jpeg-stream + fft-1024
//! certified co-resident on one fabric vs the same three kernels run
//! back to back in isolation. The pack is placed, footprint-certified,
//! proven pairwise disjoint and hoisted by `explore::compose_schedules`,
//! then executed by the strictly gated composed runner; because each
//! tenant owns its own configuration port and column band, the pack
//! finishes in roughly the longest tenant's time, not the sum. Emits
//! `BENCH_pack.json` at the repo root and gates on the acceptance
//! floor: composed wall clock at most 0.6x the sum of the isolated
//! runs.
//!
//! Also gates the sink-less event core: a sink-less event-driven
//! fft-1024 run must not be slower than the same run with a telemetry
//! sink attached (sink-less runs skip per-word segment bookkeeping
//! entirely). Both run one certified schedule, certified once outside
//! the timed loops.

use cgra_bench::{banner, check, f, time_it};
use cgra_explore::{build_example_schedule, compose_examples};
use cgra_fabric::{CostModel, Mesh};
use cgra_lint::LintLevels;
use cgra_sim::{
    ArraySim, CertifiedSchedule, EpochRunner, EventOptions, ProgramCache, Recorder, VerifyMode,
};

const PACK: [&str; 3] = ["fft-64", "jpeg-stream", "fft-1024"];

fn strict_runner(mesh: Mesh, cost: &CostModel) -> EpochRunner {
    let mut sim = ArraySim::new(mesh);
    sim.verify = VerifyMode::Strict;
    EpochRunner::new(sim, *cost)
}

struct Isolated {
    name: &'static str,
    wall_ns: f64,
    eq1_ns: f64,
}

fn main() {
    banner(
        "Pack throughput — certified co-residency vs isolated back-to-back runs",
        "multi-tenant partial reconfiguration: the pack finishes in ~max, not ~sum",
    );
    let cost = CostModel::default();

    // Isolated baselines: each kernel alone on its own fabric.
    let isolated: Vec<Isolated> = PACK
        .iter()
        .map(|name| {
            let (mesh, epochs) = build_example_schedule(name).expect("known example schedule");
            let mut runner = strict_runner(mesh, &cost);
            let report = runner.run_schedule(&epochs).expect("isolated run");
            let wall_ns = cost.exec_ns(runner.sim.now);
            println!(
                "  {name:<12} isolated: {:>10} ns wall, {:>10} ns eq1",
                f(wall_ns, 1),
                f(report.total_ns(), 1)
            );
            Isolated {
                name,
                wall_ns,
                eq1_ns: report.total_ns(),
            }
        })
        .collect();
    let sum_ns: f64 = isolated.iter().map(|r| r.wall_ns).sum();
    let max_ns = isolated.iter().map(|r| r.wall_ns).fold(0.0, f64::max);

    // The certified pack: placed, proven disjoint, hoisted, and run
    // through the strictly gated composed runner.
    let comp = compose_examples(&PACK, &cost, true).expect("pack composes");
    let mut runner = strict_runner(comp.mesh, &cost);
    let rep = runner
        .run_composed_schedule(&comp.tenants)
        .expect("certified pack runs");
    println!();
    println!(
        "  pack ({}x{} mesh, {} merged epochs): {:>10} ns wall",
        comp.mesh.rows(),
        comp.mesh.cols(),
        rep.merged_epochs,
        f(rep.wall_ns, 1)
    );
    for t in &rep.tenants {
        println!(
            "    {:<12} observed {:>8} cycles, eq1 {:>10} ns",
            t.name,
            t.observed_cycles,
            f(t.report.total_ns(), 1)
        );
    }
    println!(
        "  combined/sum = {:.3}, combined/max = {:.3}",
        rep.wall_ns / sum_ns,
        rep.wall_ns / max_ns
    );

    check(
        &format!(
            "pack wall clock is at most 0.6x the isolated sum (got {:.3}x)",
            rep.wall_ns / sum_ns
        ),
        rep.wall_ns <= 0.6 * sum_ns,
    );
    check(
        "pack wall clock covers its longest tenant (no tenant is starved)",
        rep.tenants
            .iter()
            .all(|t| t.observed_cycles <= rep.wall_cycles),
    );
    check(
        "co-residency costs no tenant more than its isolated eq1 budget",
        rep.tenants.iter().zip(&isolated).all(|(t, iso)| {
            // Hoisting can only shrink a tenant's reconfiguration term.
            t.report.total_ns() <= iso.eq1_ns + 1e-9
        }),
    );

    // Sink-less event-driven runs skip telemetry segment coalescing,
    // so dropping the sink must never cost time.
    println!();
    let (mesh, epochs) = build_example_schedule("fft-1024").expect("fft-1024");
    let certified = CertifiedSchedule::certify(mesh, epochs, &cost, &LintLevels::default())
        .expect("fft-1024 certifies");
    let mut cache = ProgramCache::new();
    let with_sink_ns = time_it("fft-1024 event-driven, sink attached", || {
        let mut r = strict_runner(mesh, &cost);
        r.sim.attach_sink(Box::new(Recorder::new()));
        r.run_schedule_certified(&certified, &mut cache, &EventOptions { jobs: 1 })
            .expect("with-sink run");
    });
    let sink_less_ns = time_it("fft-1024 event-driven, sink-less    ", || {
        let mut r = strict_runner(mesh, &cost);
        r.run_schedule_certified(&certified, &mut cache, &EventOptions { jobs: 1 })
            .expect("sink-less run");
    });
    check(
        &format!(
            "sink-less fft-1024 does not regress vs sink-attached ({:.2}x)",
            sink_less_ns / with_sink_ns
        ),
        // Generous noise margin: the sink-attached run does strictly
        // more bookkeeping, so sink-less should win or tie.
        sink_less_ns <= with_sink_ns * 1.25,
    );

    let json = format!(
        "{}  \"isolated\": [\n{}\n  ],\n  \"pack\": {{\"wall_ns\": {:.1}, \"wall_cycles\": {}, \
         \"merged_epochs\": {}, \"tenants\": [\n{}\n  ]}},\n  \
         \"combined_over_sum\": {:.4},\n  \"combined_over_max\": {:.4},\n  \
         \"sink_less\": {{\"with_sink_host_ns\": {:.1}, \"sink_less_host_ns\": {:.1}}}\n}}\n",
        cgra_bench::json_head(),
        isolated
            .iter()
            .map(|r| format!(
                "    {{\"name\": \"{}\", \"wall_ns\": {:.1}, \"eq1_ns\": {:.1}}}",
                r.name, r.wall_ns, r.eq1_ns
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        rep.wall_ns,
        rep.wall_cycles,
        rep.merged_epochs,
        rep.tenants
            .iter()
            .map(|t| format!(
                "    {{\"name\": \"{}\", \"observed_cycles\": {}, \"eq1_ns\": {:.1}}}",
                t.name,
                t.observed_cycles,
                t.report.total_ns()
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        rep.wall_ns / sum_ns,
        rep.wall_ns / max_ns,
        with_sink_ns,
        sink_less_ns
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pack.json");
    std::fs::write(path, json).expect("BENCH_pack.json is writable");
    println!("\n  wrote {path}");
}
