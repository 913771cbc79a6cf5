//! The epoch switch is one path whatever the payload source: foreground
//! slots, shadow-plane commits and partial bitstreams all reconfigure
//! through the same code, so they must agree on accounting, events,
//! verification and error handling. These tests pin the places where
//! the sources used to differ.

use remorph::explore::{build_example_schedule, hoist_schedule, minimize_schedule};
use remorph::fabric::bitstream::serialize;
use remorph::fabric::{
    CostModel, DataPatch, Direction, FabricError, Mesh, ReconfigPlan, TileReconfig, Word,
};
use remorph::isa::ops::{at_off, d, rem_off};
use remorph::isa::{encode_program, Instr, ProgramBuilder};
use remorph::sim::{
    epoch_spec, ArraySim, ComposedTenant, Epoch, EpochRunner, EventOptions, ProgramCache, SimError,
    TileSetup, VerifyMode,
};
use remorph::telemetry::Event;
use remorph::verify::{analyze_footprint, EpochSpec};

fn runner(mesh: Mesh, verify: VerifyMode) -> EpochRunner {
    let mut sim = ArraySim::new(mesh);
    sim.verify = verify;
    EpochRunner::new(sim, CostModel::with_link_cost(100.0))
}

/// Copies `dmem[0..n]` (n read from `dmem[500]`) to the east
/// neighbour's `dmem[32..]`.
fn copy_prog() -> Vec<Instr> {
    let mut p = ProgramBuilder::new();
    p.ldar(0, 0);
    p.ldar(1, 32);
    let l = p.here_label();
    p.mov(rem_off(1, 0), at_off(0, 0));
    p.adar(0, 1);
    p.adar(1, 1);
    p.djnz(d(500), l);
    p.halt();
    p.build().unwrap()
}

fn spin_prog() -> Vec<Instr> {
    let mut p = ProgramBuilder::new();
    let l = p.here_label();
    p.jmp(l);
    p.build().unwrap()
}

/// One program, two data patches (the copied block and the count), one
/// link: the same switch as an [`Epoch`] and as a partial bitstream.
fn copy_payload() -> (Epoch, Vec<u8>) {
    let mesh = Mesh::new(1, 2);
    let patches = vec![
        DataPatch::new(0, (60..64).map(Word::wrap).collect()),
        DataPatch::new(500, vec![Word::wrap(4)]),
    ];
    let epoch = Epoch {
        name: "copy".into(),
        links: mesh.disconnected().with(0, Direction::East),
        setups: vec![(
            0,
            TileSetup {
                program: Some(copy_prog()),
                data_patches: patches.clone(),
            },
        )],
        budget: 10_000,
    };
    let mut plan = ReconfigPlan::default();
    plan.add_tile(
        0,
        TileReconfig {
            program: Some(encode_program(&copy_prog())),
            data_patches: patches,
        },
    );
    let bytes = serialize(&plan, &[(0, Some(Direction::East))]);
    (epoch, bytes)
}

#[test]
fn bitstream_and_foreground_switches_agree() {
    for verify in [VerifyMode::Off, VerifyMode::Strict] {
        let (epoch, bytes) = copy_payload();
        let mesh = Mesh::new(1, 2);
        let mut fg = runner(mesh, verify);
        let fg_rep = fg.run_epoch(&epoch).unwrap();
        let mut bs = runner(mesh, verify);
        let bs_rep = bs.run_bitstream_epoch("copy", &bytes, 10_000).unwrap();
        assert_eq!(fg_rep, bs_rep, "{verify:?}: reports differ");
        assert_eq!(fg.events(), bs.events(), "{verify:?}: event streams differ");
        assert_eq!(fg_rep.words_copied, 4);
        assert_eq!(fg_rep.links_changed, 1);
        for t in 0..mesh.tiles() {
            assert_eq!(
                fg.sim.tiles[t].dmem.snapshot(),
                bs.sim.tiles[t].dmem.snapshot(),
                "{verify:?}: tile {t} data memory differs"
            );
        }
    }
}

#[test]
fn strict_refuses_a_non_halting_program_shipped_in_a_bitstream() {
    let mut plan = ReconfigPlan::default();
    plan.add_tile(
        0,
        TileReconfig {
            program: Some(encode_program(&spin_prog())),
            data_patches: vec![],
        },
    );
    let bytes = serialize(&plan, &[]);
    let mut strict = runner(Mesh::new(1, 1), VerifyMode::Strict);
    match strict.run_bitstream_epoch("spin", &bytes, 1000) {
        Err(SimError::Verify(diags)) => assert!(!diags.is_empty()),
        other => panic!("want a Verify refusal, got {other:?}"),
    }
    // Nothing armed, nothing ran.
    assert!(strict.sim.states[0].halted);
    assert_eq!(strict.sim.now, 0);
}

/// A patch-only slot naming a tile outside a 1x2 mesh.
fn out_of_range_epoch(mesh: Mesh) -> Epoch {
    Epoch {
        name: "stray".into(),
        links: mesh.disconnected(),
        setups: vec![(
            7,
            TileSetup {
                program: None,
                data_patches: vec![DataPatch::new(0, vec![Word::wrap(1)])],
            },
        )],
        budget: 100,
    }
}

fn assert_unknown_tile<T: std::fmt::Debug>(what: &str, got: Result<T, SimError>) {
    match got {
        Err(SimError::Fabric(FabricError::UnknownTile { tile: 7 })) => {}
        other => panic!("{what}: want UnknownTile {{ tile: 7 }}, got {other:?}"),
    }
}

#[test]
fn out_of_range_patch_is_an_error_not_a_panic() {
    let mesh = Mesh::new(1, 2);
    let epoch = out_of_range_epoch(mesh);

    let mut serial = runner(mesh, VerifyMode::Off);
    assert_unknown_tile("run_epoch", serial.run_epoch(&epoch));
    assert!(serial.sim.quiesced(), "nothing may be applied");

    let mut certified = runner(mesh, VerifyMode::Off);
    let got = certified.run_schedule_event_driven(
        std::slice::from_ref(&epoch),
        &mut ProgramCache::new(),
        &EventOptions::default(),
    );
    assert_unknown_tile("run_schedule_event_driven", got);

    // The composed path, with the footprint of an in-range schedule.
    let in_range = Epoch {
        setups: vec![],
        ..epoch.clone()
    };
    let specs: Vec<EpochSpec> = vec![epoch_spec(&in_range)];
    let cert = analyze_footprint(mesh, &specs).cert;
    let tenant = ComposedTenant {
        name: "stray".into(),
        epochs: vec![epoch],
        cert,
        hoist: None,
        proof: None,
    };
    let mut composed = runner(mesh, VerifyMode::Off);
    assert_unknown_tile(
        "run_composed_schedule",
        composed.run_composed_schedule(&[tenant]),
    );
}

#[test]
fn shadow_events_are_runner_relative_on_a_warm_runner() {
    let cost = CostModel::default();
    let (mesh, mut epochs) = build_example_schedule("fft-64").expect("known example");
    minimize_schedule(mesh, &mut epochs, &cost);
    let plan = hoist_schedule(mesh, &epochs, &cost);

    let mut warm = EpochRunner::new(ArraySim::new(mesh), cost);
    let idle = Epoch {
        name: "warm-up".into(),
        links: mesh.disconnected(),
        setups: vec![],
        budget: 10,
    };
    warm.run_epoch(&idle).unwrap();
    warm.run_hoisted_schedule(&epochs, &plan).unwrap();

    let prefetches: Vec<(usize, usize, usize)> = warm
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::ShadowPrefetch {
                epoch,
                tile,
                target,
                ..
            } => Some((*epoch, *tile, *target)),
            _ => None,
        })
        .collect();
    let commits: Vec<(usize, usize)> = warm
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::ShadowCommit { epoch, tile, .. } => Some((*epoch, *tile)),
            _ => None,
        })
        .collect();
    assert!(!commits.is_empty(), "fft-64 must hoist something");
    assert_eq!(commits.len(), prefetches.len());
    for (epoch, tile) in commits {
        assert!(
            prefetches
                .iter()
                .any(|&(donor, t, target)| t == tile && target == epoch && donor < epoch),
            "commit into epoch {epoch} on tile {tile} has no matching prefetch: {prefetches:?}"
        );
    }
}
