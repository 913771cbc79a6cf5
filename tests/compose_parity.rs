//! End-to-end co-residency parity for the certified pack: the three
//! ISSUE kernels (fft-64, jpeg-stream, fft-1024) composed onto one
//! fabric must leave every tenant's data memory bit-for-bit identical
//! to its isolated run, conserve the telemetry counters, and keep each
//! tenant inside its own Eq. 1 WCET envelope. Fabricated certificates
//! and seeded overlaps must be refused before a single cycle runs.

use remorph::explore::{build_example_schedule, compose_examples, EXAMPLE_SCHEDULES};
use remorph::fabric::mem::DATA_WORDS;
use remorph::fabric::{CostModel, Mesh, TileId};
use remorph::sim::{
    bound_epochs, epoch_spec, ArraySim, ComposedReport, ComposedTenant, EpochRunner, Recorder,
    SimError, VerifyMode,
};
use remorph::telemetry::{conservation_violations, Counters, Event};
use remorph::verify::{
    analyze_footprint, analyze_footprint_with_shadow, work, Code, Diagnostic, EpochSpec,
    ScheduleBound,
};

const PACK: [&str; 3] = ["fft-64", "jpeg-stream", "fft-1024"];

fn strict_runner(mesh: Mesh, cost: &CostModel) -> EpochRunner {
    let mut sim = ArraySim::new(mesh);
    sim.verify = VerifyMode::Strict;
    EpochRunner::new(sim, *cost)
}

fn snapshot(sim: &ArraySim, tile: TileId) -> Vec<i64> {
    (0..DATA_WORDS)
        .map(|a| sim.tiles[tile].dmem.peek(a).map(|w| w.value()).unwrap_or(0))
        .collect()
}

/// The full acceptance replay: compose the pack (hoisted), run it
/// strictly gated, and hold it against the isolated baselines.
#[test]
fn three_kernel_pack_replays_bit_exact_and_inside_the_bounds() {
    let cost = CostModel::default();

    // Isolated baselines, one fabric each.
    let mut baselines: Vec<Vec<(TileId, Vec<i64>)>> = Vec::new();
    for name in PACK {
        let (mesh, epochs) = build_example_schedule(name).expect("known schedule");
        let mut runner = strict_runner(mesh, &cost);
        runner.run_schedule(&epochs).expect("isolated run");
        baselines.push(
            (0..mesh.tiles())
                .map(|t| (t, snapshot(&runner.sim, t)))
                .collect(),
        );
    }

    let comp = compose_examples(&PACK, &cost, true).expect("pack composes");
    let mut runner = strict_runner(comp.mesh, &cost);
    let rep = runner
        .run_composed_schedule(&comp.tenants)
        .expect("certified pack runs");

    // Per-tenant data memories are bit-exact under the placement map:
    // co-residency (and hoisting) changed when work happened, never
    // what it computed.
    for (k, p) in comp.placements.iter().enumerate() {
        for (t, want) in &baselines[k] {
            let mapped = p.tile(comp.mesh, *t).expect("tile places");
            assert_eq!(
                &snapshot(&runner.sim, mapped),
                want,
                "tenant '{}' tile {t} (composed tile {mapped}) diverged from its isolated run",
                PACK[k]
            );
        }
    }

    // Telemetry over the merged run still balances: every word sent
    // was received, every epoch bracket closed.
    let violations = conservation_violations(runner.events());
    assert!(
        violations.is_empty(),
        "composed-run telemetry violates conservation:\n{}",
        violations.join("\n")
    );

    // Each tenant's observed region cycles sit inside its own certified
    // Eq. 1 envelope (stall + worst-case compute, summed per epoch).
    for (k, out) in rep.tenants.iter().enumerate() {
        let worst: u64 = comp.bounds[k]
            .epochs
            .iter()
            .map(|e| e.stall_cycles + e.compute.worst.expect("examples are bounded"))
            .sum();
        assert!(
            out.observed_cycles <= worst,
            "tenant '{}' observed {} cycles, certified bound {worst}",
            out.name,
            out.observed_cycles
        );
    }

    // The pack finishes in about the longest tenant's time, not the
    // sum of all three.
    let longest = rep
        .tenants
        .iter()
        .map(|t| t.observed_cycles)
        .max()
        .unwrap_or(0);
    let sum: u64 = rep.tenants.iter().map(|t| t.observed_cycles).sum();
    assert!(rep.wall_cycles >= longest && rep.wall_cycles < sum);

    // Per-tenant utilization: busy tile-cycles over the tenant's
    // claimed tiles across the shared wall clock — positive for every
    // tenant (all three computed), inside [0, 1], and recomputable
    // from its parts.
    for (k, out) in rep.tenants.iter().enumerate() {
        let claimed = comp.tenants[k].tiles().len() as u64;
        let avail = claimed * rep.wall_cycles;
        assert!(avail > 0, "tenant '{}' claims tiles", out.name);
        let want = out.busy_tile_cycles as f64 / avail as f64;
        assert!(
            out.utilization > 0.0 && out.utilization <= 1.0,
            "tenant '{}' utilization {} outside (0, 1]",
            out.name,
            out.utilization
        );
        assert!(
            (out.utilization - want).abs() < 1e-12,
            "tenant '{}' utilization {} != busy/avail {want}",
            out.name,
            out.utilization
        );
    }
}

/// Satellite invariant pack: the hoisted, composed 3-kernel run must
/// satisfy the attribution invariant (`sum(categories) == tiles x
/// cycles` per epoch) and the words-sent == words-received invariant
/// *simultaneously* on one merged stream — and a fabricated
/// attribution in that stream must be rejected by the conservation
/// checker, whether it breaks the per-epoch total or merely disagrees
/// with the activity summary while keeping the sum intact.
#[test]
fn hoisted_pack_conserves_attribution_and_words_and_rejects_fabrication() {
    let cost = CostModel::default();
    let comp = compose_examples(&PACK, &cost, true).expect("pack composes");
    let mut runner = strict_runner(comp.mesh, &cost);
    runner
        .run_composed_schedule(&comp.tenants)
        .expect("certified pack runs");

    let events = runner.events().to_vec();
    let violations = conservation_violations(&events);
    assert!(
        violations.is_empty(),
        "hoisted composed stream violates conservation:\n{}",
        violations.join("\n")
    );

    // Both invariants hold at once on the same stream.
    let c = Counters::from_events(&events);
    assert_eq!(
        c.total_words_sent(),
        c.total_words_received(),
        "words invariant on the composed stream"
    );
    let attributed: u64 = c.attrib.iter().sum();
    assert_eq!(
        attributed,
        comp.mesh.tiles() as u64 * runner.sim.now,
        "attribution invariant: categories partition tiles x wall cycles"
    );
    assert!(attributed > 0, "the pack attributed a non-trivial run");

    // Fabrication 1: inflate one cell — the per-cell span sum (and the
    // per-epoch total) no longer balance.
    let idx = events
        .iter()
        .position(
            |e| matches!(e, Event::TileAttrib { cycles, .. } if cycles.iter().sum::<u64>() > 0),
        )
        .expect("stream carries attribution");
    let mut inflated = events.clone();
    if let Event::TileAttrib { cycles, .. } = &mut inflated[idx] {
        cycles[0] += 1;
    }
    let caught = conservation_violations(&inflated);
    assert!(
        caught.iter().any(|v| v.contains("attribution")),
        "inflated attribution must be rejected, got:\n{}",
        caught.join("\n")
    );

    // Fabrication 2: launder cycles between categories so the sum (and
    // every epoch total) still balances — the classification
    // cross-check against the activity summary must still refuse it.
    let idx = events
        .iter()
        .position(|e| {
            matches!(e, Event::TileAttrib { cycles, .. }
                if cycles.iter().filter(|&&n| n > 0).count() >= 2)
        })
        .expect("some tile splits across categories");
    let mut laundered = events.clone();
    if let Event::TileAttrib { cycles, .. } = &mut laundered[idx] {
        let (a, b) = {
            let mut nz = cycles.iter().enumerate().filter(|(_, &n)| n > 0);
            (
                nz.next().expect("first nonzero").0,
                nz.next().expect("second nonzero").0,
            )
        };
        let moved = cycles[b];
        cycles[a] += moved;
        cycles[b] = 0;
    }
    let caught = conservation_violations(&laundered);
    assert!(
        caught
            .iter()
            .any(|v| v.contains("disagrees with the activity summary")),
        "laundered attribution must fail the classification cross-check, got:\n{}",
        caught.join("\n")
    );
}

fn expect_refused(mesh: Mesh, tenants: &[ComposedTenant], what: &str) {
    let cost = CostModel::default();
    let mut runner = strict_runner(mesh, &cost);
    match runner.run_composed_schedule(tenants) {
        Err(SimError::Verify(diags)) => {
            assert!(
                diags.iter().any(|d| d.code == Code::FootprintRefused),
                "{what}: want V133 footprint-refused, got {diags:?}"
            );
        }
        other => panic!("{what}: want a Verify refusal, got {other:?}"),
    }
    assert_eq!(
        runner.sim.now, 0,
        "{what}: refusal must come before any cycle runs"
    );
}

/// Every way of doctoring a certificate — dropping a tile claim, a
/// link claim, a shadow slot, or shrinking the epoch range — is caught
/// by re-verification before anything executes.
#[test]
fn fabricated_certificates_are_refused_in_every_facet() {
    let cost = CostModel::default();
    let comp = compose_examples(&["fft-64", "jpeg-stream"], &cost, true).expect("pack composes");
    let base = &comp.tenants;
    assert!(
        !base[0].cert.tiles.is_empty()
            && !base[0].cert.links.is_empty()
            && !base[0].cert.shadow.is_empty(),
        "fixture must exercise all certificate facets"
    );

    let mut dropped_tile = base.to_vec();
    dropped_tile[0].cert.tiles.pop();
    expect_refused(comp.mesh, &dropped_tile, "dropped tile claim");

    let mut dropped_link = base.to_vec();
    dropped_link[0].cert.links.pop();
    expect_refused(comp.mesh, &dropped_link, "dropped link claim");

    let mut dropped_shadow = base.to_vec();
    dropped_shadow[0].cert.shadow.clear();
    expect_refused(comp.mesh, &dropped_shadow, "dropped shadow claims");

    let mut shrunk = base.to_vec();
    shrunk[0].cert.epochs -= 1;
    expect_refused(comp.mesh, &shrunk, "shrunk epoch range");

    let mut borrowed = base.to_vec();
    borrowed[1].cert = base[0].cert.clone();
    expect_refused(comp.mesh, &borrowed, "borrowed certificate");
}

/// Two genuinely overlapping tenants (the same schedule presented
/// twice on the same tiles) are rejected with V132, and the finding
/// names the contested resource and both schedules.
#[test]
fn seeded_overlap_is_rejected_naming_resource_and_both_tenants() {
    let cost = CostModel::default();
    let (mesh, epochs) = build_example_schedule("fft-16").expect("fft-16");
    let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
    let cert = analyze_footprint(mesh, &specs).cert;
    let alpha = ComposedTenant {
        name: "alpha".to_string(),
        epochs: epochs.clone(),
        cert: cert.clone(),
        hoist: None,
        proof: None,
    };
    let beta = ComposedTenant {
        name: "beta".to_string(),
        epochs,
        cert,
        hoist: None,
        proof: None,
    };
    let mut runner = strict_runner(mesh, &cost);
    match runner.run_composed_schedule(&[alpha, beta]) {
        Err(SimError::Verify(diags)) => {
            let overlap: Vec<_> = diags
                .iter()
                .filter(|d| d.code == Code::OverlapConflict)
                .collect();
            assert!(!overlap.is_empty(), "want V132, got {diags:?}");
            assert!(
                overlap
                    .iter()
                    .any(|d| d.message.contains("alpha") && d.message.contains("beta")),
                "V132 must name both schedules: {overlap:?}"
            );
            assert!(
                overlap.iter().any(|d| d.message.contains("tile")),
                "V132 must name the contested resource: {overlap:?}"
            );
        }
        other => panic!("want Verify(V132), got {other:?}"),
    }
    assert_eq!(runner.sim.now, 0, "overlap must be refused before running");
}

/// Every pair and every triple of example schedules, in catalog order.
fn example_packs() -> Vec<Vec<&'static str>> {
    let mut packs = Vec::new();
    for (i, &a) in EXAMPLE_SCHEDULES.iter().enumerate() {
        for (j, &b) in EXAMPLE_SCHEDULES.iter().enumerate().skip(i + 1) {
            packs.push(vec![a, b]);
            for &c in EXAMPLE_SCHEDULES.iter().skip(j + 1) {
                packs.push(vec![a, b, c]);
            }
        }
    }
    packs
}

/// One strict composed run with a recorder attached: the report (or
/// refusal), the summary stream, the sink stream, the cycles run, and
/// the analyses the runner performed.
type Observed = (
    Result<ComposedReport, SimError>,
    Vec<Event>,
    Vec<Event>,
    u64,
    work::WorkCounts,
);

fn observe(mesh: Mesh, cost: &CostModel, tenants: &[ComposedTenant]) -> Observed {
    let mut runner = strict_runner(mesh, cost);
    let recorder = Recorder::new();
    runner.sim.attach_sink(Box::new(recorder.clone()));
    let before = work::snapshot();
    let rep = runner.run_composed_schedule(tenants);
    let done = work::snapshot().since(&before);
    runner.sim.detach_sink();
    (
        rep,
        runner.events().to_vec(),
        recorder.events(),
        runner.sim.now,
        done,
    )
}

/// The same tenants with their proofs stripped: what a hand-built
/// pack looks like to the runner.
fn hand_built(tenants: &[ComposedTenant]) -> Vec<ComposedTenant> {
    tenants
        .iter()
        .map(|t| ComposedTenant {
            proof: None,
            ..t.clone()
        })
        .collect()
}

/// The proof-carrying path is an optimization, never a semantic fork:
/// for every example pair and triple, hoisted and not, the tenants
/// composition hands out run to the same `ComposedReport` and the same
/// summary and sink event streams as hand-built copies that pass the
/// runner's full gate — and the runner re-derives nothing for them.
/// Each tenant's translated certificate and bound equal the ones
/// derived afresh on the composed coordinates.
#[test]
fn proof_carrying_packs_match_the_full_gate_for_every_pair_and_triple() {
    let cost = CostModel::default();
    for names in example_packs() {
        for hoist in [false, true] {
            let what = format!("{names:?} hoist={hoist}");
            let comp = compose_examples(&names, &cost, hoist)
                .unwrap_or_else(|d| panic!("{what}: pack composes: {d:?}"));
            for (k, t) in comp.tenants.iter().enumerate() {
                let specs: Vec<EpochSpec> = t.epochs.iter().map(epoch_spec).collect();
                let shadow = t
                    .hoist
                    .as_ref()
                    .map(|p| p.shadow_claims())
                    .unwrap_or_default();
                let fresh = analyze_footprint_with_shadow(comp.mesh, &specs, &shadow).cert;
                assert_eq!(t.cert, fresh, "{what}: tenant '{}' certificate", t.name);
                // Findings keep their text, which names tiles in the
                // tenant's own numbering; everything else is equal.
                let bound = bound_epochs(comp.mesh, &cost, &t.epochs);
                let untexted = |b: &ScheduleBound| ScheduleBound {
                    diags: b
                        .diags
                        .iter()
                        .map(|d| Diagnostic {
                            message: String::new(),
                            ..d.clone()
                        })
                        .collect(),
                    ..b.clone()
                };
                assert_eq!(
                    untexted(&comp.bounds[k]),
                    untexted(&bound),
                    "{what}: tenant '{}' bound",
                    t.name
                );
            }

            let (rep, summary, sink, now, trusted) = observe(comp.mesh, &cost, &comp.tenants);
            let rep = rep.unwrap_or_else(|e| panic!("{what}: certified pack runs: {e}"));
            let full = observe(comp.mesh, &cost, &hand_built(&comp.tenants));
            let full_rep = full
                .0
                .unwrap_or_else(|e| panic!("{what}: full gate runs: {e}"));
            assert_eq!(rep, full_rep, "{what}: composed reports differ");
            assert_eq!(summary, full.1, "{what}: summary streams differ");
            assert_eq!(sink, full.2, "{what}: sink streams differ");
            assert_eq!(now, full.3, "{what}: cycles differ");

            assert_eq!(
                trusted,
                work::WorkCounts::default(),
                "{what}: the runner re-derived a covered proof"
            );
            assert!(
                full.4.footprint_reproofs == names.len() as u64
                    && full.4.lint_runs == names.len() as u64
                    && full.4.checked_epochs > 0,
                "{what}: the full gate re-derives every tenant: {:?}",
                full.4
            );
        }
    }
}

/// A certified tenant edited after composition is no longer covered by
/// its proof: it is refused exactly like the same edit on a hand-built
/// tenant, before a single cycle runs. A borrowed certificate is still
/// V133.
#[test]
fn edited_certified_tenants_are_refused_like_uncertified_ones() {
    let cost = CostModel::default();
    let comp = compose_examples(&["fft-64", "jpeg-stream"], &cost, true).expect("pack composes");
    let claimed = |tile: TileId| comp.tenants.iter().any(|t| t.cert.claims_tile(tile));
    let stray = (0..comp.mesh.tiles())
        .find(|&t| !claimed(t))
        .expect("the composed mesh has an unclaimed tile");

    // A setup on a tile no certificate claims.
    let mut added = comp.tenants.clone();
    let (_, setup) = added[0].epochs[1].setups[0].clone();
    added[0].epochs[1].setups.push((stray, setup));
    // A program swapped for another epoch's.
    let mut swapped = comp.tenants.clone();
    let other = swapped[1]
        .epochs
        .iter()
        .flat_map(|e| e.setups.iter())
        .filter_map(|(_, s)| s.program.clone())
        .next_back()
        .expect("jpeg-stream loads programs");
    let slot = swapped[1].epochs[0]
        .setups
        .iter_mut()
        .find(|(_, s)| s.program.is_some())
        .expect("epoch 0 loads a program");
    slot.1.program = Some(other);

    for (edited, what) in [(added, "added setup"), (swapped, "swapped program")] {
        assert!(edited.iter().all(|t| t.proof.is_some()));
        let (rep, summary, _, now, done) = observe(comp.mesh, &cost, &edited);
        let (bare, bare_summary, _, bare_now, _) = observe(comp.mesh, &cost, &hand_built(&edited));
        let (Err(SimError::Verify(diags)), Err(SimError::Verify(bare_diags))) = (&rep, &bare)
        else {
            panic!("{what}: want refusals, got {rep:?} and {bare:?}");
        };
        assert_eq!(
            diags, bare_diags,
            "{what}: refused differently from the hand-built tenant"
        );
        assert!(
            diags.iter().any(|d| d.code == Code::FootprintRefused),
            "{what}: want V133, got {diags:?}"
        );
        assert_eq!((now, bare_now), (0, 0), "{what}: something ran");
        assert_eq!(summary, bare_summary, "{what}: event streams differ");
        assert!(
            done.footprint_reproofs > 0,
            "{what}: the edit was not re-proved"
        );
    }

    let mut borrowed = comp.tenants.clone();
    borrowed[1].cert = comp.tenants[0].cert.clone();
    expect_refused(comp.mesh, &borrowed, "borrowed certificate");
}
