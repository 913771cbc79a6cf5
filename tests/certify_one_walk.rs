//! One schedule walk per certified schedule.
//!
//! `CertifiedSchedule::certify` builds its five proofs — verifier
//! verdicts, lint report, footprint certificate, WCET bound, activity
//! certificate — as passes on a single checker walk. Each proof must
//! equal its analysis run alone through the public single-pass entry
//! point, on every example schedule and every fft-1024 sweep shape, at
//! the default and the deny-warnings lint levels (the activity
//! certificate at two link costs); a schedule the verifier rejects must
//! be refused with exactly the verifier's findings. The walk counters
//! pin the saving: one walk and two program analyses per loaded slot
//! for a cold certify, and for a cold event-driven run, which is a
//! certify and a run under the certificate.

use remorph::explore::{
    build_example_schedule, compose_certified, example_probe_input, fft_column_schedule, Scheme,
    SweepSpec, EXAMPLE_SCHEDULES,
};
use remorph::fabric::{CostModel, DataPatch, Direction, Mesh, Word};
use remorph::isa::{assemble, Instr, Operand};
use remorph::kernels::fft::partition::FftPlan;
use remorph::lint::LintLevels;
use remorph::serve::{admit_schedule, AdmitLimits, SubmitRequest};
use remorph::sim::{
    bound_epochs, epoch_spec, lint_epochs, verify_epochs, ArraySim, CertifiedSchedule, Epoch,
    EpochRunner, EventOptions, ProgramCache, SimError, TileSetup, VerifyMode,
};
use remorph::verify::{
    analyze_activity, analyze_footprint, has_errors, verify_activity, work, Code, EpochSpec,
    WalkCounts,
};

fn level_sets() -> [(&'static str, LintLevels); 2] {
    [
        ("default", LintLevels::default()),
        ("deny-warnings", LintLevels::default().deny_warnings()),
    ]
}

/// Certifies `epochs` and checks every proof against its single-pass
/// entry point.
fn assert_matches_single_passes(name: &str, mesh: Mesh, epochs: &[Epoch], levels: &LintLevels) {
    let cost = CostModel::default();
    let c = CertifiedSchedule::certify(mesh, epochs.to_vec(), &cost, levels)
        .unwrap_or_else(|d| panic!("{name}: refused: {d:?}"));
    assert_eq!(
        c.verdicts(),
        verify_epochs(mesh, epochs),
        "{name}: verdicts"
    );
    assert_eq!(
        c.lint(),
        &lint_epochs(mesh, epochs, levels, &cost),
        "{name}: lint"
    );
    let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
    assert_eq!(
        c.footprint(),
        &analyze_footprint(mesh, &specs),
        "{name}: footprint"
    );
    assert_eq!(
        c.bound(),
        &bound_epochs(mesh, &cost, epochs),
        "{name}: bound"
    );
}

#[test]
fn certify_matches_the_single_pass_entry_points_on_every_example() {
    for name in EXAMPLE_SCHEDULES {
        let (mesh, epochs) = build_example_schedule(name).expect("example builds");
        for (tag, levels) in level_sets() {
            assert_matches_single_passes(&format!("{name} ({tag})"), mesh, &epochs, &levels);
        }
    }
}

/// The fft-1024 sweep's shapes with at least `min_m` points per tile.
fn fft1024_shapes(keep: impl Fn(usize) -> bool) -> Vec<(String, Mesh, Vec<Epoch>)> {
    let spec = SweepSpec::named("fft-1024").expect("fft-1024 sweep");
    let shapes: Vec<_> = spec
        .schemes()
        .into_iter()
        .filter_map(|s| match s {
            Scheme::Fft { n, m } if keep(m) => {
                let plan = FftPlan::new(n, m).expect("sweep shape plans");
                let (mesh, epochs) = fft_column_schedule(&plan, &example_probe_input(n));
                Some((s.label(), mesh, epochs))
            }
            _ => None,
        })
        .collect();
    assert!(!shapes.is_empty(), "the sweep has shapes in range");
    shapes
}

#[test]
fn certify_matches_the_single_pass_entry_points_on_fft1024_sweep_shapes() {
    for (name, mesh, epochs) in fft1024_shapes(|m| m >= 32) {
        for (tag, levels) in level_sets() {
            assert_matches_single_passes(&format!("{name} ({tag})"), mesh, &epochs, &levels);
        }
    }
}

/// m = 16 is the sweep's largest shape (8,165 epochs on 64 tiles): the
/// same check, too slow for every test run.
#[test]
#[ignore]
fn certify_matches_the_single_pass_entry_points_on_the_m16_shape() {
    for (name, mesh, epochs) in fft1024_shapes(|m| m == 16) {
        for (tag, levels) in level_sets() {
            assert_matches_single_passes(&format!("{name} ({tag})"), mesh, &epochs, &levels);
        }
    }
}

fn setup(program: Option<&str>, data_patches: Vec<DataPatch>) -> TileSetup {
    TileSetup {
        program: program.map(|src| assemble(src).expect("fixture assembles")),
        data_patches,
    }
}

/// Schedules the verifier rejects: the race-rejection fixture and one
/// seeded defect per schedule-level error class.
fn malformed_schedules() -> Vec<(&'static str, Mesh, Vec<Epoch>)> {
    let row = Mesh::new(1, 3);
    let writer = "ldar a0, 50\nldi d[0], 7\nmov r@a0, d[0]\nhalt";
    let epoch = |name: &str, links, setups| Epoch {
        name: name.into(),
        links,
        setups,
        budget: 1_000,
    };
    let halt = || setup(Some("halt"), vec![]);
    let patch = |base: usize, len: usize| DataPatch::new(base, vec![Word::wrap(1); len]);
    vec![
        (
            "seeded race",
            row,
            vec![epoch(
                "seeded race",
                row.disconnected()
                    .with(0, Direction::East)
                    .with(2, Direction::West),
                vec![
                    (0, setup(Some(writer), vec![])),
                    (1, halt()),
                    (2, setup(Some(writer), vec![])),
                ],
            )],
        ),
        (
            "remote write without a link",
            row,
            vec![epoch(
                "e0",
                row.disconnected(),
                vec![(0, setup(Some(writer), vec![]))],
            )],
        ),
        (
            "link off the mesh",
            row,
            vec![epoch(
                "e0",
                row.disconnected().with(0, Direction::North),
                vec![(0, halt())],
            )],
        ),
        (
            "patch out of range and overlapping, after a clean epoch",
            row,
            vec![
                epoch("clean", row.disconnected(), vec![(1, halt())]),
                epoch(
                    "bad patches",
                    row.disconnected(),
                    vec![
                        (0, setup(Some("halt"), vec![patch(510, 4)])),
                        (1, setup(None, vec![patch(10, 4), patch(12, 4)])),
                    ],
                ),
                epoch("after", row.disconnected(), vec![(1, halt())]),
            ],
        ),
        (
            "unknown tile",
            row,
            vec![epoch("e0", row.disconnected(), vec![(7, halt())])],
        ),
        (
            // Refused by the verifier (V001); the WCET engine alone
            // would index past the address registers on it.
            "address register out of range",
            row,
            vec![epoch(
                "bad ar",
                row.disconnected(),
                vec![(
                    0,
                    TileSetup {
                        program: Some(vec![
                            Instr::Mov {
                                dst: Operand::Dir(0),
                                a: Operand::Ind { ar: 9, disp: 0 },
                            },
                            Instr::Halt,
                        ]),
                        data_patches: vec![],
                    },
                )],
            )],
        ),
        (
            "program with no halt",
            row,
            vec![epoch(
                "spin",
                row.disconnected(),
                vec![(0, setup(Some("loop: jmp loop"), vec![]))],
            )],
        ),
    ]
}

#[test]
fn rejected_schedules_are_refused_with_exactly_the_verifier_findings() {
    let cost = CostModel::default();
    for (name, mesh, epochs) in malformed_schedules() {
        let verdicts = verify_epochs(mesh, &epochs);
        assert!(
            has_errors(&verdicts),
            "{name}: the fixture must be rejected"
        );
        for (tag, levels) in level_sets() {
            let refused = CertifiedSchedule::certify(mesh, epochs.clone(), &cost, &levels)
                .expect_err("a rejected schedule is never certified");
            assert_eq!(refused, verdicts, "{name} ({tag})");
        }
    }
}

/// Program loads the walk analyzes: slots that load a program on an
/// in-mesh tile.
fn loaded_slots(mesh: Mesh, epochs: &[Epoch]) -> u64 {
    epochs
        .iter()
        .flat_map(|e| &e.setups)
        .filter(|(t, s)| *t < mesh.tiles() && s.program.is_some())
        .count() as u64
}

#[test]
fn a_cold_certify_walks_each_schedule_once() {
    let cost = CostModel::default();
    for name in EXAMPLE_SCHEDULES {
        let (mesh, epochs) = build_example_schedule(name).expect("example builds");
        let slots = loaded_slots(mesh, &epochs);
        let before = work::walk_snapshot();
        CertifiedSchedule::certify(mesh, epochs, &cost, &LintLevels::default())
            .expect("examples certify");
        assert_eq!(
            work::walk_snapshot().since(&before),
            WalkCounts {
                schedule_walks: 1,
                program_analyses: 2 * slots,
            },
            "{name}"
        );
        if name == "fft-1024" {
            assert_eq!(slots, 320, "fft-1024's loaded slots");
        }
    }
}

#[test]
fn a_cold_hoisted_pack_walks_seven_times() {
    let cost = CostModel::default();
    let before = work::walk_snapshot();
    let tenants: Vec<_> = ["fft-64", "jpeg-stream", "fft-16"]
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let (mesh, epochs) = build_example_schedule(name).expect("example builds");
            let req = SubmitRequest {
                tenant: format!("t{i}"),
                schedule: name.to_string(),
                hoist: true,
                max_tiles: None,
                max_wcet_ns: None,
                deny_lint_warnings: false,
            };
            let admitted = admit_schedule(&req, mesh, epochs, &cost, &AdmitLimits::default())
                .expect("examples are admitted");
            (req.tenant, admitted.certified)
        })
        .collect();
    let admitted = work::walk_snapshot().since(&before).schedule_walks;
    let comp = compose_certified(&tenants, true).expect("the pack composes");
    assert_eq!(comp.tenants.len(), 3);
    assert_eq!(admitted, 3, "one walk per admission");
    assert_eq!(
        work::walk_snapshot().since(&before).schedule_walks,
        7,
        "3 certify walks + 3 hoist plans + 1 merged-containment footprint"
    );
}

/// Certifies `epochs` under `cost` and checks the activity certificate
/// against `analyze_activity` run alone, and against `verify_activity`.
fn assert_activity_matches(name: &str, mesh: Mesh, epochs: &[Epoch], cost: &CostModel) {
    let c = CertifiedSchedule::certify(mesh, epochs.to_vec(), cost, &LintLevels::default())
        .unwrap_or_else(|d| panic!("{name}: refused: {d:?}"));
    let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
    assert_eq!(
        c.activity(),
        &analyze_activity(mesh, cost, &specs).cert,
        "{name}: activity certificate"
    );
    assert_eq!(
        verify_activity(mesh, cost, &specs, c.activity()),
        vec![],
        "{name}: the certified activity certificate re-verifies"
    );
}

#[test]
fn certified_activity_matches_analyze_activity() {
    let mut schedules: Vec<(String, Mesh, Vec<Epoch>)> = EXAMPLE_SCHEDULES
        .iter()
        .map(|name| {
            let (mesh, epochs) = build_example_schedule(name).expect("example builds");
            (name.to_string(), mesh, epochs)
        })
        .collect();
    schedules.extend(fft1024_shapes(|m| m >= 32));
    for (name, mesh, epochs) in &schedules {
        for link_ns in [0.0, 150.0] {
            let cost = CostModel::with_link_cost(link_ns);
            assert_activity_matches(&format!("{name} (L = {link_ns} ns)"), *mesh, epochs, &cost);
        }
    }
}

/// A cold event-driven run is one certify and a run under its
/// certificate: one schedule walk, and exactly certify's program
/// analyses — plus, when the runner verifies, one per distinct program
/// image its switches verify.
#[test]
fn a_cold_event_driven_run_walks_each_schedule_once() {
    let cost = CostModel::default();
    for name in EXAMPLE_SCHEDULES {
        let (mesh, epochs) = build_example_schedule(name).expect("example builds");
        let slots = loaded_slots(mesh, &epochs);
        for mode in [VerifyMode::Off, VerifyMode::Strict] {
            let mut sim = ArraySim::new(mesh);
            sim.verify = mode;
            let mut runner = EpochRunner::new(sim, cost);
            let mut progs = ProgramCache::new();
            let before = work::walk_snapshot();
            runner
                .run_schedule_event_driven(&epochs, &mut progs, &EventOptions::default())
                .expect("examples run");
            let images = match mode {
                VerifyMode::Off => 0,
                _ => progs.len() as u64,
            };
            assert_eq!(
                work::walk_snapshot().since(&before),
                WalkCounts {
                    schedule_walks: 1,
                    program_analyses: 2 * slots + images,
                },
                "{name} ({mode:?})"
            );
            assert!(
                !runner
                    .diagnostics
                    .iter()
                    .any(|d| d.code == Code::CertificateRefused),
                "{name} ({mode:?}): the certificate was refused"
            );
        }
    }
}

/// A program addressing memory through an address register past the
/// register file: every instruction kind that names one.
fn out_of_range_ar_schedule() -> (Mesh, Vec<Epoch>) {
    let mesh = Mesh::new(1, 2);
    let ind = |disp| Operand::Ind { ar: 9, disp };
    let program = vec![
        Instr::Ldar {
            k: 9,
            src: None,
            imm: 3,
        },
        Instr::Adar { k: 9, delta: 1 },
        Instr::Movar {
            dst: Operand::Dir(1),
            k: 9,
        },
        Instr::Mov {
            dst: ind(0),
            a: ind(1),
        },
        // A branch on a word nothing wrote: no single feasible path, so
        // the WCET engine falls back to its structural bound.
        Instr::Bz {
            a: Operand::Dir(100),
            target: 5,
        },
        Instr::Halt,
    ];
    let epoch = Epoch {
        name: "bad ar".into(),
        links: mesh.disconnected(),
        setups: vec![(
            0,
            TileSetup {
                program: Some(program),
                data_patches: vec![],
            },
        )],
        budget: 1_000,
    };
    (mesh, vec![epoch])
}

/// An out-of-range address register is the verifier's finding (V001),
/// never a panic: the three analyses that bound programs read the
/// register as unknown, and the event-driven entry point, with no
/// certificate to run under, ends exactly as the serial engine does
/// (refused under `Strict`; unverified under `Off`, whatever the
/// engine makes of the program).
#[test]
fn an_out_of_range_address_register_is_reported_not_a_panic() {
    let (mesh, epochs) = out_of_range_ar_schedule();
    let cost = CostModel::default();
    let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
    let invalid = |diags: &[remorph::verify::Diagnostic]| {
        diags
            .iter()
            .any(|d| d.code == Code::InvalidInstr && d.is_error())
    };
    assert!(
        invalid(&verify_epochs(mesh, &epochs)),
        "the verifier refuses it"
    );
    assert!(
        invalid(&bound_epochs(mesh, &cost, &epochs).diags),
        "the bound carries the verifier's finding"
    );
    let activity = analyze_activity(mesh, &cost, &specs);
    assert_eq!(activity.cert.epochs.len(), 1);
    let footprint = analyze_footprint(mesh, &specs);
    assert_eq!(footprint.cert.epochs, 1);
    assert!(
        CertifiedSchedule::certify(mesh, epochs.clone(), &cost, &LintLevels::default()).is_err(),
        "never certified"
    );

    for mode in [VerifyMode::Off, VerifyMode::Strict] {
        let mut sim = ArraySim::new(mesh);
        sim.verify = mode;
        let mut event = EpochRunner::new(sim, cost);
        let got = event.run_schedule_event_driven(
            &epochs,
            &mut ProgramCache::new(),
            &EventOptions::default(),
        );
        let mut sim = ArraySim::new(mesh);
        sim.verify = mode;
        let mut serial = EpochRunner::new(sim, cost);
        let want = serial.run_schedule(&epochs);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "{mode:?}");
        assert_eq!(event.sim.now, serial.sim.now, "{mode:?}");
        if mode == VerifyMode::Strict {
            match got {
                Err(SimError::Verify(errs)) => assert!(invalid(&errs), "want V001, got {errs:?}"),
                other => panic!("Strict: want the verifier's refusal, got {other:?}"),
            }
        }
    }
}
