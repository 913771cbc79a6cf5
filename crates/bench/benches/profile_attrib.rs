//! Cycle-attribution profile of every example schedule: where each
//! tile-cycle goes — busy compute, quiescence stalls, foreground
//! reconfiguration, link waits, or certified-idle skips — measured by
//! the telemetry attribution layer and cross-checked between the
//! serial per-cycle core and the event-driven certificate-gated core.
//! This is the paper's central accounting (compute vs reconfiguration
//! vs communication under partial reconfiguration) as one table.
//!
//! Emits `BENCH_profile.json` at the repo root (the committed copy is
//! the `cgra-bench-diff` baseline) and gates on:
//! - conservation: every stream partitions tiles x cycles exactly;
//! - serial ≡ event-driven attribution per (tile, epoch, category);
//! - shares summing to 1 on every schedule.

use cgra_bench::{banner, check, json_head};
use cgra_explore::{build_example_schedule, EXAMPLE_SCHEDULES};
use cgra_fabric::{CostModel, Mesh};
use cgra_lint::LintLevels;
use cgra_sim::{
    ArraySim, CertifiedSchedule, EpochRunner, EventOptions, ProgramCache, Recorder, VerifyMode,
};
use cgra_telemetry::{conservation_violations, Attribution, Category};

fn strict_runner(mesh: Mesh, cost: &CostModel) -> EpochRunner {
    let mut sim = ArraySim::new(mesh);
    sim.verify = VerifyMode::Strict;
    EpochRunner::new(sim, *cost)
}

/// Runs `name` on the chosen core with a recorder attached and folds
/// the stream into an attribution.
fn profile(name: &str, cost: &CostModel, event_driven: bool) -> Attribution {
    let (mesh, epochs) = build_example_schedule(name).expect("known example schedule");
    let mut runner = strict_runner(mesh, cost);
    let recorder = Recorder::new();
    runner.sim.attach_sink(Box::new(recorder.clone()));
    if event_driven {
        let certified = CertifiedSchedule::certify(mesh, epochs, cost, &LintLevels::default())
            .expect("example schedules certify");
        runner
            .run_schedule_certified(
                &certified,
                &mut ProgramCache::new(),
                &EventOptions { jobs: 1 },
            )
            .expect("event-driven run");
    } else {
        runner.run_schedule(&epochs).expect("serial run");
    }
    let events = recorder.events();
    check(
        &format!("{name}: stream conserves (attribution partitions tiles x cycles)"),
        conservation_violations(&events).is_empty(),
    );
    Attribution::from_events(&events)
}

fn main() {
    banner(
        "Cycle attribution — busy / stall / reconfig / link-wait / idle-skipped",
        "Moghaddam & Bazargan: compute vs reconfiguration vs communication shares",
    );
    let cost = CostModel::default();

    println!(
        "  {:<12} {:>12}  {}",
        "schedule",
        "tile-cycles",
        Category::ALL
            .map(|c| format!("{:>10}", c.name().split('-').next().unwrap_or("")))
            .join(" ")
    );
    let mut rows = Vec::new();
    for name in EXAMPLE_SCHEDULES {
        let serial = profile(name, &cost, false);
        let event = profile(name, &cost, true);
        check(
            &format!(
                "{name}: serial and event-driven attribution agree per (tile, epoch, category)"
            ),
            serial.cells == event.cells,
        );
        let share_sum: f64 = Category::ALL.iter().map(|&c| serial.share(c)).sum();
        check(
            &format!("{name}: category shares sum to 1 (got {share_sum:.9})"),
            (share_sum - 1.0).abs() < 1e-9,
        );
        println!(
            "  {name:<12} {:>12}  {}",
            serial.total_cycles(),
            Category::ALL
                .map(|c| format!("{:>9.1}%", serial.share(c) * 100.0))
                .join(" ")
        );
        let shares = Category::ALL
            .iter()
            .map(|&c| format!("\"{}\": {:.6}", c.name(), serial.share(c)))
            .collect::<Vec<_>>()
            .join(", ");
        rows.push(format!(
            "    {{\"name\": \"{name}\", \"epochs\": {}, \"tile_cycles\": {}, \
             \"shares\": {{{shares}}}}}",
            serial.epoch_names.len(),
            serial.total_cycles()
        ));
    }

    let json = format!(
        "{}  \"categories\": [{}],\n  \"schedules\": [\n{}\n  ]\n}}\n",
        json_head(),
        Category::ALL
            .map(|c| format!("\"{}\"", c.name()))
            .join(", "),
        rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_profile.json");
    std::fs::write(path, json).expect("BENCH_profile.json is writable");
    println!("\n  wrote {path}");
}
