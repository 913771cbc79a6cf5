//! Soundness of the event-driven, certificate-gated simulator core:
//! on real schedules (FFT columns, the JPEG stream) the event-driven
//! and parallel paths must be **bit-exact** with the serial engine —
//! memories, PE state, counters, clocks, reports, summary events, and
//! (up to interleaving) the fine-grained sink stream — and a certified
//! schedule must never execute under its certificate on a runner in a
//! state it was not certified for: it is refused, recorded as `V122`,
//! and the run falls back to the serial engine with identical results.

use cgra_explore::schedule::{fft_column_schedule, jpeg_stream_schedule};
use cgra_fabric::CostModel;
use cgra_kernels::fft::fixed::Cfx;
use cgra_kernels::fft::partition::FftPlan;
use cgra_kernels::fft::reference::Cf64;
use cgra_kernels::jpeg::quant::QuantTable;
use cgra_lint::LintLevels;
use cgra_sim::{
    ArraySim, CertifiedSchedule, Epoch, EpochRunner, EventOptions, ProgramCache, Recorder,
    RunReport, VerifyMode,
};
use cgra_telemetry::conservation_violations;

/// Everything observable about a finished run, in comparable form.
struct Observed {
    dmems: Vec<Vec<i64>>,
    imems: Vec<Vec<u128>>,
    pe: String,
    stats: String,
    now: u64,
    report: String,
    summary: Vec<String>,
    sink_sorted: Vec<String>,
    conservation: Vec<String>,
}

enum Engine {
    Serial,
    Event { jobs: usize },
    Certified { jobs: usize },
}

fn run(mesh: cgra_fabric::Mesh, epochs: &[Epoch], cost: &CostModel, engine: Engine) -> Observed {
    let mut sim = ArraySim::new(mesh);
    sim.verify = VerifyMode::Strict;
    let rec = Recorder::new();
    sim.attach_sink(Box::new(rec.clone()));
    let mut runner = EpochRunner::new(sim, *cost);
    let report = match engine {
        Engine::Serial => runner.run_schedule(epochs),
        Engine::Event { jobs } => {
            let mut progs = ProgramCache::new();
            runner.run_schedule_event_driven(epochs, &mut progs, &EventOptions { jobs })
        }
        Engine::Certified { jobs } => {
            let certified =
                CertifiedSchedule::certify(mesh, epochs.to_vec(), cost, &LintLevels::default())
                    .expect("schedule certifies");
            let mut progs = ProgramCache::new();
            runner.run_schedule_certified(&certified, &mut progs, &EventOptions { jobs })
        }
    }
    .expect("schedule runs");
    runner.sim.detach_sink();
    let mut sink: Vec<String> = rec.events().iter().map(|e| format!("{e:?}")).collect();
    let conservation = conservation_violations(&rec.events());
    sink.sort();
    Observed {
        dmems: runner
            .sim
            .tiles
            .iter()
            .map(|t| t.dmem.snapshot().iter().map(|w| w.value()).collect())
            .collect(),
        imems: runner
            .sim
            .tiles
            .iter()
            .map(|t| t.imem.image().to_vec())
            .collect(),
        pe: format!("{:?}", runner.sim.states),
        stats: format!("{:?}", runner.sim.stats),
        now: runner.sim.now,
        report: format!("{report:?}"),
        summary: runner.events().iter().map(|e| format!("{e:?}")).collect(),
        sink_sorted: sink,
        conservation,
    }
}

fn assert_bit_exact(a: &Observed, b: &Observed, label: &str) {
    assert_eq!(a.dmems, b.dmems, "{label}: data memories diverge");
    assert_eq!(a.imems, b.imems, "{label}: instruction memories diverge");
    assert_eq!(a.pe, b.pe, "{label}: PE states diverge");
    assert_eq!(a.stats, b.stats, "{label}: tile counters diverge");
    assert_eq!(a.now, b.now, "{label}: clocks diverge");
    assert_eq!(a.report, b.report, "{label}: Eq. 1 reports diverge");
    assert_eq!(
        a.summary, b.summary,
        "{label}: summary event streams diverge"
    );
    assert_eq!(
        a.sink_sorted, b.sink_sorted,
        "{label}: sink event streams diverge (sorted)"
    );
    assert_eq!(
        a.conservation,
        Vec::<String>::new(),
        "{label}: conservation violations"
    );
    assert_eq!(
        b.conservation,
        Vec::<String>::new(),
        "{label}: conservation violations"
    );
}

fn fft_schedule(n: usize, m: usize) -> (cgra_fabric::Mesh, Vec<Epoch>) {
    let plan = FftPlan::new(n, m).expect("valid plan");
    let input: Vec<Cfx> = (0..n)
        .map(|i| {
            Cfx::from_c(Cf64::new(
                (i as f64 * 0.21).sin(),
                (i as f64 * 0.55).cos() * 0.7,
            ))
        })
        .collect();
    fft_column_schedule(&plan, &input)
}

#[test]
fn fft_64_event_driven_is_bit_exact() {
    let (mesh, epochs) = fft_schedule(64, 16);
    let cost = CostModel::with_link_cost(150.0);
    let serial = run(mesh, &epochs, &cost, Engine::Serial);
    let event = run(mesh, &epochs, &cost, Engine::Event { jobs: 1 });
    assert_bit_exact(&serial, &event, "fft-64 event-driven");
}

#[test]
fn fft_64_parallel_classes_are_bit_exact() {
    let (mesh, epochs) = fft_schedule(64, 16);
    let cost = CostModel::with_link_cost(150.0);
    let serial = run(mesh, &epochs, &cost, Engine::Serial);
    for jobs in [2, 4, 0] {
        let par = run(mesh, &epochs, &cost, Engine::Event { jobs });
        assert_bit_exact(&serial, &par, &format!("fft-64 jobs={jobs}"));
    }
}

/// `jobs` far beyond the independence-class count: the pool clamps its
/// worker count to the class count inside
/// `cgra_fabric::par::run_sharded`, and the oversized request changes
/// nothing observable.
#[test]
fn jobs_beyond_class_count_are_bit_exact() {
    let (mesh, epochs) = fft_schedule(64, 16);
    let cost = CostModel::with_link_cost(150.0);
    let serial = run(mesh, &epochs, &cost, Engine::Serial);
    let par = run(mesh, &epochs, &cost, Engine::Event { jobs: 64 });
    assert_bit_exact(&serial, &par, "fft-64 jobs=64");
}

/// The acceptance anchor: the paper's full 1024-point FFT schedule (232
/// epochs, 8 tiles) runs bit-exact through the event-driven core, both
/// serial-class and parallel-class stepping.
#[test]
fn fft_1024_event_driven_is_bit_exact() {
    let (mesh, epochs) = fft_schedule(1024, 128);
    let cost = CostModel::with_link_cost(150.0);
    let serial = run(mesh, &epochs, &cost, Engine::Serial);
    let event = run(mesh, &epochs, &cost, Engine::Event { jobs: 1 });
    assert_bit_exact(&serial, &event, "fft-1024 event-driven");
    let par = run(mesh, &epochs, &cost, Engine::Event { jobs: 0 });
    assert_bit_exact(&serial, &par, "fft-1024 parallel");
}

#[test]
fn jpeg_stream_event_driven_is_bit_exact() {
    let blocks = cgra_explore::schedule::jpeg_probe_blocks();
    let (mesh, epochs) = jpeg_stream_schedule(&blocks, &QuantTable::luma(75));
    let cost = CostModel::default();
    let serial = run(mesh, &epochs, &cost, Engine::Serial);
    let event = run(mesh, &epochs, &cost, Engine::Event { jobs: 1 });
    assert_bit_exact(&serial, &event, "jpeg-stream event-driven");
    let par = run(mesh, &epochs, &cost, Engine::Event { jobs: 2 });
    assert_bit_exact(&serial, &par, "jpeg-stream parallel");
}

/// A certified schedule is accepted on a runner in the state it was
/// certified for: no `V122` in the diagnostics, and the certified entry
/// point matches the serial engine bit for bit.
#[test]
fn certified_schedule_is_accepted_and_bit_exact() {
    let (mesh, epochs) = fft_schedule(64, 16);
    let cost = CostModel::with_link_cost(150.0);
    let serial = run(mesh, &epochs, &cost, Engine::Serial);
    let certified = run(mesh, &epochs, &cost, Engine::Certified { jobs: 1 });
    assert_bit_exact(&serial, &certified, "fft-64 certified");
}

/// A runner's end state, in comparable form.
fn end_state(runner: &EpochRunner, report: &RunReport) -> (Vec<Vec<i64>>, String, u64, String) {
    let dmems = runner
        .sim
        .tiles
        .iter()
        .map(|t| t.dmem.snapshot().iter().map(|w| w.value()).collect())
        .collect();
    let counters = format!("{:?} {:?}", runner.sim.states, runner.sim.stats);
    (dmems, counters, runner.sim.now, format!("{report:?}"))
}

/// A certified schedule is trusted only from the state it was certified
/// for. On a runner with a different cost model, one that has already
/// run an epoch, or one with a pre-armed tile it is refused (`V122`)
/// and the run falls back to the serial engine: bit-exact with the
/// serial engine on the same runner, with the same findings besides
/// the refusal.
#[test]
fn runners_in_other_states_refuse_the_certified_schedule() {
    let (mesh, epochs) = fft_schedule(64, 16);
    let cost = CostModel::with_link_cost(150.0);
    let certified = CertifiedSchedule::certify(mesh, epochs.clone(), &cost, &LintLevels::default())
        .expect("schedule certifies");
    let strict = |cost: CostModel| {
        let mut sim = ArraySim::new(mesh);
        sim.verify = VerifyMode::Strict;
        EpochRunner::new(sim, cost)
    };
    let after_idle_epoch = || {
        let mut r = strict(cost);
        let idle = Epoch {
            name: "idle".into(),
            links: mesh.disconnected(),
            setups: vec![],
            budget: 10,
        };
        r.run_epoch(&idle).expect("idle epoch runs");
        r
    };
    let pre_armed = || {
        let mut r = strict(cost);
        let mut p = cgra_isa::ProgramBuilder::new();
        p.ldi(cgra_isa::ops::d(0), 3);
        let l = p.here_label();
        p.djnz(cgra_isa::ops::d(0), l);
        p.halt();
        r.sim
            .load_program(0, &cgra_isa::encode_program(&p.build().unwrap()))
            .unwrap();
        r
    };
    let cases: [(&str, &dyn Fn() -> EpochRunner); 3] = [
        ("different cost model", &|| strict(CostModel::default())),
        ("non-fresh checker", &after_idle_epoch),
        ("pre-armed tile", &pre_armed),
    ];
    for (case, runner) in cases {
        let mut refused = runner();
        let report = refused
            .run_schedule_certified(
                &certified,
                &mut ProgramCache::new(),
                &EventOptions::default(),
            )
            .expect("fallback still runs");
        let (v122, rest): (Vec<_>, Vec<_>) = refused
            .diagnostics
            .iter()
            .partition(|d| d.code.id() == "V122");
        assert!(
            v122.len() == 1 && v122[0].is_error(),
            "{case}: want one V122 refusal, got {v122:?}"
        );
        let mut serial = runner();
        let serial_report = serial.run_schedule(&epochs).expect("serial runs");
        assert_eq!(
            end_state(&refused, &report),
            end_state(&serial, &serial_report),
            "{case}: fallback diverged from the serial engine"
        );
        assert_eq!(
            rest,
            serial.diagnostics.iter().collect::<Vec<_>>(),
            "{case}: findings"
        );
    }
}

/// A pre-armed tile (program loaded behind the analysis's back) voids
/// the certificate: the run is refused into the serial fallback, not
/// executed under proofs that never saw the tile.
#[test]
fn pre_armed_tile_refuses_the_certificate() {
    let (mesh, epochs) = fft_schedule(16, 4);
    let cost = CostModel::with_link_cost(150.0);
    let mut sim = ArraySim::new(mesh);
    sim.verify = VerifyMode::Strict;
    // Arm tile 0 directly, outside the schedule.
    let mut p = cgra_isa::ProgramBuilder::new();
    p.ldi(cgra_isa::ops::d(0), 3);
    let l = p.here_label();
    p.djnz(cgra_isa::ops::d(0), l);
    p.halt();
    sim.load_program(0, &cgra_isa::encode_program(&p.build().unwrap()))
        .unwrap();
    let mut runner = EpochRunner::new(sim, cost);
    let mut progs = ProgramCache::new();
    runner
        .run_schedule_event_driven(&epochs, &mut progs, &EventOptions::default())
        .expect("fallback still runs");
    assert!(
        runner
            .diagnostics
            .iter()
            .any(|d| d.code.id() == "V122" && d.is_error()),
        "pre-armed tile did not refuse the certificate"
    );
}

/// Deadline errors surface identically from both engines.
#[test]
fn deadline_errors_match_serial() {
    let (mesh, mut epochs) = fft_schedule(16, 4);
    let cost = CostModel::with_link_cost(150.0);
    // Choke an epoch mid-schedule so the failure happens after state
    // has accumulated.
    let mid = epochs.len() / 2;
    epochs[mid].budget = 1;
    let mut serial_runner = EpochRunner::new(ArraySim::new(mesh), cost);
    serial_runner.sim.verify = VerifyMode::Off; // let it reach the engine
    let serial_err = serial_runner.run_schedule(&epochs).unwrap_err();
    let mut event_runner = EpochRunner::new(ArraySim::new(mesh), cost);
    event_runner.sim.verify = VerifyMode::Off;
    let mut progs = ProgramCache::new();
    let event_err = event_runner
        .run_schedule_event_driven(&epochs, &mut progs, &EventOptions::default())
        .unwrap_err();
    assert_eq!(
        format!("{serial_err:?}"),
        format!("{event_err:?}"),
        "deadline errors diverge"
    );
}

/// The shared program cache pays off across DSE-style repeat runs: the
/// second identical schedule decodes nothing new.
#[test]
fn program_cache_amortizes_across_runs() {
    let (mesh, epochs) = fft_schedule(64, 16);
    let cost = CostModel::with_link_cost(150.0);
    let mut progs = ProgramCache::new();
    let opts = EventOptions::default();
    let mut r1 = EpochRunner::new(ArraySim::new(mesh), cost);
    r1.sim.verify = VerifyMode::Strict;
    r1.run_schedule_event_driven(&epochs, &mut progs, &opts)
        .expect("first run");
    let misses_after_first = progs.misses();
    assert!(misses_after_first > 0, "nothing decoded at all");
    let mut r2 = EpochRunner::new(ArraySim::new(mesh), cost);
    r2.sim.verify = VerifyMode::Strict;
    r2.run_schedule_event_driven(&epochs, &mut progs, &opts)
        .expect("second run");
    assert_eq!(
        progs.misses(),
        misses_after_first,
        "second identical run should hit the decode cache only"
    );
    assert!(progs.hits() > 0);
}
