//! Simulation throughput: serial per-cycle interpreter vs the
//! certificate-driven event core (ISSUE 7). Each example schedule is
//! run end-to-end three ways — the serial engine, the event-driven
//! loop (activity certificate, pre-decoded programs, single worker)
//! and the parallel loop (independence classes sharded over all
//! cores) — with bit-exactness cross-checked before timing. Emits
//! `BENCH_sim.json` at the repo root and gates on the ISSUE 7
//! acceptance floor: fft-1024 end-to-end at least 5x faster than the
//! serial interpreter (target 10x).
//!
//! Every series runs under `VerifyMode::Strict` — the configuration a
//! DSE sweep trusts its numbers in. The serial engine re-derives the
//! lint gate and per-epoch verification on every run by design. The
//! event and parallel series certify the schedule once, outside the
//! timed loop, and time `run_schedule_certified` on a fresh array:
//! the certificate's proofs are amortized over the runs explicitly,
//! and what remains is the run itself (skipping provably-inactive
//! cycles). The cold series times what a caller with no certified
//! schedule in hand pays — `run_schedule_event_driven`, i.e. certify
//! plus run, on a fresh program cache — as a median over repetitions.

use cgra_bench::{banner, check, f, time_it, time_reps, Sample};
use cgra_explore::build_example_schedule;
use cgra_fabric::{CostModel, Mesh};
use cgra_lint::LintLevels;
use cgra_sim::{ArraySim, CertifiedSchedule, EpochRunner, EventOptions, ProgramCache, VerifyMode};

/// Timed repetitions of the cold series.
const COLD_REPS: usize = 15;

struct Series {
    name: &'static str,
    epochs: usize,
    serial_ns: f64,
    event_ns: f64,
    parallel_ns: f64,
    cold: Sample,
    cache_len: usize,
    cache_hits: u64,
}

impl Series {
    fn event_speedup(&self) -> f64 {
        self.serial_ns / self.event_ns
    }
    fn parallel_speedup(&self) -> f64 {
        self.serial_ns / self.parallel_ns
    }
    fn best_speedup(&self) -> f64 {
        self.event_speedup().max(self.parallel_speedup())
    }
}

fn strict_runner(mesh: Mesh, cost: &CostModel) -> EpochRunner {
    let mut sim = ArraySim::new(mesh);
    sim.verify = VerifyMode::Strict;
    EpochRunner::new(sim, *cost)
}

fn measure(name: &'static str, cost: &CostModel) -> Series {
    let (mesh, epochs) = build_example_schedule(name).expect("known example schedule");

    // Correctness first: the event-driven replay must be bit-exact
    // with the serial engine before its speed means anything.
    let mut serial = strict_runner(mesh, cost);
    let sreport = serial.run_schedule(&epochs).expect("serial run");
    let mut progs = ProgramCache::new();
    let mut event = strict_runner(mesh, cost);
    let ereport = event
        .run_schedule_event_driven(&epochs, &mut progs, &EventOptions { jobs: 1 })
        .expect("event-driven run");
    check(
        &format!("{name}: event-driven Eq. 1 report matches serial"),
        (ereport.total_ns() - sreport.total_ns()).abs() < 1e-9,
    );
    check(
        &format!("{name}: event-driven final cycle counter matches serial"),
        event.sim.now == serial.sim.now,
    );
    let dmems_match = (0..mesh.tiles()).all(|t| {
        (0..serial.sim.tiles[t].dmem.len())
            .all(|a| serial.sim.tiles[t].dmem.peek(a) == event.sim.tiles[t].dmem.peek(a))
    });
    check(
        &format!("{name}: event-driven final data memories are bit-exact"),
        dmems_match,
    );
    check(
        &format!("{name}: no certificate was refused (no V122 fallback)"),
        !event.diagnostics.iter().any(|d| d.code.id() == "V122"),
    );

    // Timed series. Each iteration runs the whole schedule on a fresh
    // array. The event and parallel series run one certified schedule,
    // certified here, outside the loop, with the program cache held
    // across iterations.
    let serial_ns = time_it(&format!("{name:<12} serial      "), || {
        let mut r = strict_runner(mesh, cost);
        r.run_schedule(&epochs).expect("serial run");
    });
    let certified = CertifiedSchedule::certify(mesh, epochs.clone(), cost, &LintLevels::default())
        .expect("example schedules certify");
    let mut cache = ProgramCache::new();
    let event_ns = time_it(&format!("{name:<12} event-driven"), || {
        let mut r = strict_runner(mesh, cost);
        r.run_schedule_certified(&certified, &mut cache, &EventOptions { jobs: 1 })
            .expect("event-driven run");
    });
    let parallel_ns = time_it(&format!("{name:<12} parallel    "), || {
        let mut r = strict_runner(mesh, cost);
        r.run_schedule_certified(&certified, &mut cache, &EventOptions { jobs: 0 })
            .expect("parallel run");
    });
    let cold = time_reps(&format!("{name:<12} cold        "), COLD_REPS, || {
        let mut r = strict_runner(mesh, cost);
        r.run_schedule_event_driven(&epochs, &mut ProgramCache::new(), &EventOptions { jobs: 1 })
            .expect("cold event-driven run");
    });

    // Decode stats from a controlled cold + warm pair, not the timing
    // loops above — the timed iteration count depends on host speed,
    // and these two series are count series in the `cgra-bench-diff`
    // gate, so they must be deterministic.
    let mut stat_cache = ProgramCache::new();
    for _ in 0..2 {
        let mut r = strict_runner(mesh, cost);
        r.run_schedule_event_driven(&epochs, &mut stat_cache, &EventOptions { jobs: 1 })
            .expect("decode-stats run");
    }

    Series {
        name,
        epochs: epochs.len(),
        serial_ns,
        event_ns,
        parallel_ns,
        cold,
        cache_len: stat_cache.len(),
        cache_hits: stat_cache.hits(),
    }
}

fn main() {
    banner(
        "Simulation throughput — serial interpreter vs certificate-driven event core",
        "ISSUE 7 acceptance: fft-1024 end-to-end >=5x (target 10x), bit-exact",
    );
    let cost = CostModel::default();
    let rows: Vec<Series> = ["fft-64", "fft-1024", "jpeg-stream"]
        .iter()
        .map(|name| measure(name, &cost))
        .collect();

    println!();
    println!(
        "  {:<12} {:>6} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "schedule", "epochs", "serial", "event", "parallel", "cold", "ev x", "par x"
    );
    for r in &rows {
        println!(
            "  {:<12} {:>6} {:>9} ms {:>9} ms {:>9} ms {:>9} ms {:>7.1}x {:>7.1}x",
            r.name,
            r.epochs,
            f(r.serial_ns / 1e6, 3),
            f(r.event_ns / 1e6, 3),
            f(r.parallel_ns / 1e6, 3),
            f(r.cold.median_ns / 1e6, 3),
            r.event_speedup(),
            r.parallel_speedup(),
        );
    }

    let fft1024 = rows
        .iter()
        .find(|r| r.name == "fft-1024")
        .expect("fft-1024 measured");
    check(
        &format!(
            "fft-1024: event core >=5x over the serial interpreter (got {:.1}x, target 10x)",
            fft1024.best_speedup()
        ),
        fft1024.best_speedup() >= 5.0,
    );
    check(
        "every schedule: the event core never loses to serial",
        rows.iter().all(|r| r.best_speedup() > 1.0),
    );
    check(
        &format!(
            "fft-1024: a cold event-driven run (certify + run) beats the serial interpreter \
             ({} ms vs {} ms)",
            f(fft1024.cold.median_ns / 1e6, 3),
            f(fft1024.serial_ns / 1e6, 3)
        ),
        fft1024.cold.median_ns < fft1024.serial_ns,
    );
    check(
        "program cache amortizes across replays (hits dominate)",
        rows.iter().all(|r| r.cache_hits > r.cache_len as u64),
    );

    let json = format!(
        "{}  \"schedules\": [\n{}\n  ]\n}}\n",
        cgra_bench::json_head(),
        rows.iter()
            .map(|r| format!(
                "    {{\"name\": \"{}\", \"epochs\": {}, \"serial_ns\": {:.1}, \
                 \"event_driven_ns\": {:.1}, \"parallel_ns\": {:.1}, \
                 \"event_speedup\": {:.3}, \"parallel_speedup\": {:.3}, \
                 \"cold_median_ns\": {:.1}, \"cold_mad_ns\": {:.1}, \"cold_reps\": {}, \
                 \"decoded_programs\": {}, \"decode_cache_hits\": {}}}",
                r.name,
                r.epochs,
                r.serial_ns,
                r.event_ns,
                r.parallel_ns,
                r.event_speedup(),
                r.parallel_speedup(),
                r.cold.median_ns,
                r.cold.mad_ns,
                r.cold.reps,
                r.cache_len,
                r.cache_hits,
            ))
            .collect::<Vec<_>>()
            .join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");
    std::fs::write(path, json).expect("BENCH_sim.json is writable");
    println!("\n  wrote {path}");
}
