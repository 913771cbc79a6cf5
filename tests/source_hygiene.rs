//! Source-level hygiene gate: the verifier, the linter, the simulator
//! and the telemetry pipeline are the components that *reject or observe
//! other code*, so they must not panic on bad input themselves. Non-test
//! code in `cgra-verify`, `cgra-lint`, `cgra-sim` and `cgra-telemetry`
//! reports failures through structured `Result`/`Diagnostic` values —
//! this scan keeps `.unwrap()` / `.expect(` from creeping back in.

use std::fs;
use std::path::Path;

/// Strips everything from the first `#[cfg(test)]` marker onward. In
/// this repo test modules always sit at the end of a file, so the
/// remainder is exactly the shipped code. Line comments (including doc
/// comments, whose examples may legitimately unwrap) are dropped too.
fn shipped_code(src: &str) -> String {
    src.lines()
        .take_while(|l| !l.contains("#[cfg(test)]"))
        .filter(|l| !l.trim_start().starts_with("//"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn scan_file(path: &Path, offenders: &mut Vec<String>) {
    let src =
        fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    for (i, line) in shipped_code(&src).lines().enumerate() {
        if line.contains(".unwrap()") || line.contains(".expect(") {
            offenders.push(format!("{}:{}: {}", path.display(), i + 1, line.trim()));
        }
    }
}

fn scan_dir(dir: &Path, offenders: &mut Vec<String>) {
    let mut entries: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("reading {}: {e}", dir.display()))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            scan_dir(&path, offenders);
            continue;
        }
        if path.extension().map(|e| e == "rs") != Some(true) {
            continue;
        }
        scan_file(&path, offenders);
    }
}

#[test]
fn verify_and_sim_use_structured_errors() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut offenders = Vec::new();
    for crate_dir in [
        "crates/verify/src",
        "crates/lint/src",
        "crates/sim/src",
        "crates/telemetry/src",
    ] {
        scan_dir(&root.join(crate_dir), &mut offenders);
    }
    assert!(
        offenders.is_empty(),
        "unwrap/expect in shipped verifier/simulator code (use structured \
         errors or diagnostics instead):\n{}",
        offenders.join("\n")
    );
}

/// The activity analysis and the event-driven core it certifies are the
/// highest-trust code in the repo — the simulator *skips work* on their
/// say-so — so their hygiene coverage is pinned by file: if either
/// module moves out of the scanned trees, this fails instead of the
/// scan silently narrowing.
#[test]
fn activity_analysis_and_event_core_are_scanned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for file in [
        "crates/verify/src/activity.rs",
        "crates/sim/src/active.rs",
        // The footprint analysis and the composed runner gate what may
        // co-reside on the fabric — same trust tier, same pin.
        "crates/verify/src/footprint.rs",
        "crates/sim/src/compose.rs",
        // The single epoch-switch path both of those run through.
        "crates/sim/src/epoch.rs",
        // The certified-schedule proofs the composed runner trusts.
        "crates/sim/src/certify.rs",
        // The schedule walk every one of those proofs is built on.
        "crates/verify/src/walk.rs",
    ] {
        let path = root.join(file);
        assert!(
            path.is_file(),
            "{file} moved — update the hygiene scan to keep covering it"
        );
        let mut offenders = Vec::new();
        scan_file(&path, &mut offenders);
        assert!(
            offenders.is_empty(),
            "unwrap/expect in {file}:\n{}",
            offenders.join("\n")
        );
    }
}

/// The daemon sits at a trust boundary harsher than any other crate's:
/// it parses *hostile bytes off a socket* and multiplexes tenants onto
/// shared fabrics, so a panic is not just a crash — it wedges every
/// co-resident tenant. The whole crate is scanned, and its
/// protocol/admission/scheduling modules are pinned by file like the
/// other trust-tier components.
#[test]
fn serve_daemon_uses_structured_errors() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut offenders = Vec::new();
    scan_dir(&root.join("crates/serve/src"), &mut offenders);
    assert!(
        offenders.is_empty(),
        "unwrap/expect in shipped daemon code (every failure must map to a \
         typed protocol error or diagnostic):\n{}",
        offenders.join("\n")
    );
    for file in [
        "crates/serve/src/proto.rs",
        "crates/serve/src/admit.rs",
        "crates/serve/src/sched.rs",
        "crates/serve/src/server.rs",
        "crates/serve/src/daemon.rs",
        "src/bin/cgra-serve.rs",
    ] {
        assert!(
            root.join(file).is_file(),
            "{file} moved — update the hygiene scan to keep covering it"
        );
    }
    let mut bin = Vec::new();
    scan_file(&root.join("src/bin/cgra-serve.rs"), &mut bin);
    assert!(
        bin.is_empty(),
        "unwrap/expect in cgra-serve:\n{}",
        bin.join("\n")
    );
}

/// The attribution layer and its exporters are what the regression
/// gate *trusts*: `telemetry::attrib`/`telemetry::hist` turn raw
/// events into the numbers `cgra-bench-diff` compares, and the two
/// driver bins sit between those numbers and CI's exit status. Same
/// pin-by-file treatment: a panic in any of them would take the gate
/// down with the regression it was meant to report.
#[test]
fn attribution_layer_and_gate_drivers_are_scanned() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for file in [
        "crates/telemetry/src/attrib.rs",
        "crates/telemetry/src/hist.rs",
        "src/bin/cgra-profile.rs",
        "src/bin/cgra-bench-diff.rs",
    ] {
        let path = root.join(file);
        assert!(
            path.is_file(),
            "{file} moved — update the hygiene scan to keep covering it"
        );
        let mut offenders = Vec::new();
        scan_file(&path, &mut offenders);
        assert!(
            offenders.is_empty(),
            "unwrap/expect in {file}:\n{}",
            offenders.join("\n")
        );
    }
}
