//! Seconds-long smoke runs of every workload against the metric list in
//! the repository's `BENCHMARK.json`, plus the golden-file check. Run
//! them optimized: `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::process::{Command, Output};

use remorph::telemetry::json::{self, Json};

const WORKLOADS: [&str; 2] = ["serve-cold", "serve-warm"];

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn golden() -> PathBuf {
    manifest_dir().join("golden.txt")
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `key`.
fn contract(key: &str) -> Vec<(String, String)> {
    let text =
        std::fs::read_to_string(manifest_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool, golden: &PathBuf, tag: &str) -> Output {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(tag);
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--golden")
        .arg(golden)
        .arg("--out")
        .arg(out)
        .output()
        .expect("perfbench runs")
}

/// The result object on the last line of a successful run.
fn result(out: &Output) -> Json {
    assert!(
        out.status.success(),
        "perfbench failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    json::parse(last).expect("the last line is JSON")
}

fn metric(res: &Json, name: &str) -> (f64, String) {
    let m = res
        .get("metrics")
        .and_then(|ms| ms.get(name))
        .unwrap_or_else(|| panic!("metric {name} missing"));
    let value = m
        .get("value")
        .and_then(Json::as_f64)
        .expect("numeric value");
    let unit = m
        .get("unit")
        .and_then(Json::as_str)
        .expect("unit")
        .to_string();
    (value, unit)
}

fn check_metrics(res: &Json, key: &str, workload: &str) {
    let want = contract(key);
    let Some(Json::Obj(got)) = res.get("metrics") else {
        panic!("{workload}: no metrics object");
    };
    assert_eq!(
        got.len(),
        want.len(),
        "{workload}: exactly the {key} metrics"
    );
    for (name, unit) in want {
        let (value, got_unit) = metric(res, &name);
        assert_eq!(got_unit, unit, "{workload}: unit of {name}");
        assert!(value.is_finite(), "{workload}: {name} = {value}");
    }
}

#[test]
fn every_workload_emits_every_end_to_end_metric_and_passes_its_checks() {
    for w in WORKLOADS {
        let res = result(&run(w, false, &golden(), &format!("e2e-{w}")));
        check_metrics(&res, "end_to_end", w);
        assert_eq!(res.get("correct"), Some(&Json::Bool(true)), "{w}: correct");
        assert_eq!(
            metric(&res, "ok_share").0,
            1.0,
            "{w}: every output verified"
        );
        assert!(metric(&res, "setup_s").0 > 0.0, "{w}: set-up takes time");
    }
}

#[test]
fn traced_runs_emit_every_per_layer_metric_with_balanced_spans() {
    for w in WORKLOADS {
        let res = result(&run(w, true, &golden(), &format!("trace-{w}")));
        check_metrics(&res, "per_layer", w);
        assert_eq!(
            res.get("correct"),
            Some(&Json::Bool(true)),
            "{w}: spans conserve"
        );
    }
}

#[test]
fn doctored_golden_lowers_ok_share() {
    let text = std::fs::read_to_string(golden()).expect("golden file");
    // Shift every recorded cycle count and simulated time by one.
    let doctored: String = text
        .lines()
        .map(
            |l| match l.split_whitespace().collect::<Vec<_>>().as_slice() {
                ["serve", name, hoist, obs, quoted, eq1] => {
                    let obs: u64 = obs.parse().expect("cycles");
                    format!("serve {name} {hoist} {} {quoted} {eq1}\n", obs + 1)
                }
                ["dse", m, link, worst, oracle] => {
                    let oracle: f64 = oracle.parse().expect("ns");
                    format!("dse {m} {link} {worst} {:?}\n", oracle + 1.0)
                }
                _ => format!("{l}\n"),
            },
        )
        .collect();
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("doctored-golden.txt");
    std::fs::write(&path, doctored).expect("write doctored golden");
    let res = result(&run("serve-cold", false, &path, "doctored-e2e"));
    assert_eq!(res.get("correct"), Some(&Json::Bool(false)));
    let share = metric(&res, "ok_share").0;
    assert!(
        share < 1.0,
        "a doctored golden must lower ok_share, got {share}"
    );
    // The traced run checks the replayed jobs and the fft-1024 sweeps.
    let res = result(&run("serve-cold", true, &path, "doctored-trace"));
    assert_eq!(res.get("correct"), Some(&Json::Bool(false)));
    let failed = res
        .get("failed")
        .and_then(Json::as_f64)
        .expect("failed count");
    let attempted = res
        .get("attempted")
        .and_then(Json::as_f64)
        .expect("attempted count");
    assert!(
        failed > 0.0 && failed == attempted,
        "every check fails: {failed}/{attempted}"
    );
}

#[test]
fn missing_golden_fails_without_a_result() {
    let out = run(
        "serve-warm",
        false,
        &PathBuf::from("no-such-golden.txt"),
        "missing",
    );
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
