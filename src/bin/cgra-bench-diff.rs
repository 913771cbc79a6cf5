//! The `cgra-bench-diff` regression gate: compares freshly generated
//! `BENCH_*.json` documents against committed baselines, series by
//! series, with per-series tolerance bands — so the measured wins
//! (event-driven sim speedup, hoisting gains, attribution shares) can
//! never silently erode.
//!
//! ```console
//! $ cargo run --release --bin cgra-bench-diff -- --baseline baseline/ --current .
//! $ cargo run --release --bin cgra-bench-diff -- --baseline baseline/BENCH_sim.json \
//!       --current BENCH_sim.json --tol 'sim:schedules[fft-1024].serial_ns=0.05'
//! ```
//!
//! Every numeric leaf becomes a *series* named by its path, e.g.
//! `sim:schedules[fft-1024].serial_ns` (arrays of objects are keyed by
//! their `name`/`sweep` member, so reordering is not a diff). Series
//! fall into three classes:
//!
//! - **counts** (integer-valued baselines: epochs, words, cache hits)
//!   must match exactly — the workspace is deterministic;
//! - **timings** (`*_ns`, `*_ms`, `*host*`) are one-sided: only a
//!   slowdown beyond the band fails; `*speedup*` is the inverse;
//! - **ratios** (utilization, overheads, shares) get a two-sided band.
//!
//! `--tolerance` sets the default timing band; `--tol <substr>=<frac>`
//! pins any series whose id contains the substring (last match wins).
//! A `--tol` substring that no compared series id contains is a usage
//! error: a band that pins nothing would pass silently.
//! Exit status 0 when every series is inside its band; 1 on any
//! regression, missing series, or unreadable document; 2 on usage
//! errors.

use remorph::telemetry::json::{self, Json};

#[derive(Debug, Clone, Copy, PartialEq)]
enum Class {
    /// Integer-valued deterministic series: must match exactly.
    Count,
    /// Host/modelled timing: fails only when it moves the wrong way
    /// past the band. `higher_better` inverts the direction (speedups).
    Time { higher_better: bool },
    /// Dimensionless ratio: two-sided relative band.
    Ratio,
}

/// One flattened leaf: `path` is the series id inside its document,
/// `key` the final member name (drives classification).
#[derive(Debug, Clone)]
enum Leaf {
    Num(f64),
    Text(String),
}

fn classify(key: &str, base: f64) -> Class {
    if key.contains("speedup") {
        return Class::Time {
            higher_better: true,
        };
    }
    if key.ends_with("_ns") || key.ends_with("_ms") || key.contains("host") {
        return Class::Time {
            higher_better: false,
        };
    }
    if base.fract() == 0.0 && base.abs() < 1e15 {
        return Class::Count;
    }
    Class::Ratio
}

/// Flattens a parsed document into `(path, key, leaf)` rows. Arrays of
/// objects carrying a `name` or `sweep` member are keyed by that value
/// (`schedules[fft-64].epochs`); other arrays by index.
fn flatten(prefix: &str, key: &str, v: &Json, out: &mut Vec<(String, String, Leaf)>) {
    match v {
        Json::Num(n) => out.push((prefix.to_string(), key.to_string(), Leaf::Num(*n))),
        Json::Str(s) => out.push((
            prefix.to_string(),
            key.to_string(),
            Leaf::Text(format!("\"{s}\"")),
        )),
        Json::Bool(b) => out.push((
            prefix.to_string(),
            key.to_string(),
            Leaf::Text(b.to_string()),
        )),
        Json::Null => out.push((
            prefix.to_string(),
            key.to_string(),
            Leaf::Text("null".into()),
        )),
        Json::Obj(members) => {
            for (k, m) in members {
                let p = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&p, k, m, out);
            }
        }
        Json::Arr(items) => {
            for (i, item) in items.iter().enumerate() {
                let tag = item
                    .get("name")
                    .or_else(|| item.get("sweep"))
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .unwrap_or_else(|| i.to_string());
                flatten(&format!("{prefix}[{tag}]"), key, item, out);
            }
        }
    }
}

struct Options {
    baseline: String,
    current: String,
    tolerance: f64,
    overrides: Vec<(String, f64)>,
    list: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: cgra-bench-diff --baseline <file-or-dir> --current <file-or-dir>\n\
         \x20                      [--tolerance <frac>] [--tol <substr>=<frac>]... [--list]\n\
         \n\
         Compares every BENCH_*.json under --baseline against its counterpart under\n\
         --current. Counts must match exactly; timings may only regress within the\n\
         band (default {DEFAULT_TOLERANCE}); ratios get a two-sided band of {RATIO_TOLERANCE}. --tol pins a\n\
         band on every series whose id (file:path) contains the substring."
    );
    std::process::exit(2)
}

const DEFAULT_TOLERANCE: f64 = 0.5;
const RATIO_TOLERANCE: f64 = 0.05;

fn parse_args() -> Options {
    let mut opts = Options {
        baseline: String::new(),
        current: String::new(),
        tolerance: DEFAULT_TOLERANCE,
        overrides: Vec::new(),
        list: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--baseline" => match args.next() {
                Some(p) => opts.baseline = p,
                None => usage(),
            },
            "--current" => match args.next() {
                Some(p) => opts.current = p,
                None => usage(),
            },
            "--tolerance" => match args.next().and_then(|t| t.parse().ok()) {
                Some(f) => opts.tolerance = f,
                None => usage(),
            },
            "--tol" => {
                let Some(spec) = args.next() else { usage() };
                let Some((pat, f)) = spec.rsplit_once('=') else {
                    eprintln!("--tol wants <substr>=<frac>, got '{spec}'");
                    usage();
                };
                let Ok(f) = f.parse::<f64>() else {
                    eprintln!("--tol band '{f}' is not a number");
                    usage();
                };
                opts.overrides.push((pat.to_string(), f));
            }
            "--list" => opts.list = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument '{other}'");
                usage();
            }
        }
    }
    if opts.baseline.is_empty() || opts.current.is_empty() {
        usage();
    }
    opts
}

/// The band for a series: the last matching `--tol` override, else the
/// class default.
fn band_for(id: &str, class: Class, opts: &Options) -> f64 {
    let over = opts
        .overrides
        .iter()
        .rev()
        .find(|(pat, _)| id.contains(pat.as_str()))
        .map(|&(_, f)| f);
    over.unwrap_or(match class {
        Class::Count => 0.0,
        Class::Time { .. } => opts.tolerance,
        Class::Ratio => RATIO_TOLERANCE,
    })
}

/// The `--tol` substrings that no id in `ids` contains.
fn unmatched_tols<'a>(opts: &'a Options, ids: &[String]) -> Vec<&'a str> {
    opts.overrides
        .iter()
        .map(|(pat, _)| pat.as_str())
        .filter(|pat| !ids.iter().any(|id| id.contains(pat)))
        .collect()
}

/// The series ids `doc` holds, tagged with `file` — the ids
/// [`diff_docs`] compares when `doc` is the baseline.
fn series_ids(file: &str, doc: &Json) -> Vec<String> {
    let mut leaves = Vec::new();
    flatten("", "", doc, &mut leaves);
    leaves
        .into_iter()
        .map(|(path, _, _)| format!("{file}:{path}"))
        .collect()
}

/// Compares one series; `Some(reason)` on regression.
fn check_series(class: Class, band: f64, base: f64, cur: f64) -> Option<String> {
    let rel = |a: f64, b: f64| (a - b).abs() / b.abs().max(1e-12);
    match class {
        Class::Count => (rel(cur, base) > band.max(1e-9))
            .then(|| format!("count changed: {base} -> {cur} (deterministic series)")),
        Class::Time {
            higher_better: false,
        } => (cur > base * (1.0 + band)).then(|| {
            format!(
                "slowed {base:.1} -> {cur:.1} (+{:.1}%, band {:.0}%)",
                (cur / base - 1.0) * 100.0,
                band * 100.0
            )
        }),
        Class::Time {
            higher_better: true,
        } => (cur < base * (1.0 - band)).then(|| {
            format!(
                "dropped {base:.3} -> {cur:.3} ({:.1}%, band {:.0}%)",
                (cur / base - 1.0) * 100.0,
                band * 100.0
            )
        }),
        Class::Ratio => (rel(cur, base) > band).then(|| {
            format!(
                "moved {base:.6} -> {cur:.6} ({:+.1}%, two-sided band {:.0}%)",
                (cur / base - 1.0) * 100.0,
                band * 100.0
            )
        }),
    }
}

/// Diffs one parsed document pair. Returns (series checked, regression
/// messages); `file` tags every series id.
fn diff_docs(file: &str, base: &Json, cur: &Json, opts: &Options) -> (usize, Vec<String>) {
    let mut bl = Vec::new();
    let mut cl = Vec::new();
    flatten("", "", base, &mut bl);
    flatten("", "", cur, &mut cl);
    let mut bad = Vec::new();
    let mut checked = 0usize;
    for (path, key, leaf) in &bl {
        let id = format!("{file}:{path}");
        let Some((_, _, cur_leaf)) = cl.iter().find(|(p, _, _)| p == path) else {
            bad.push(format!("{id}: series missing from current run"));
            continue;
        };
        checked += 1;
        match (leaf, cur_leaf) {
            (Leaf::Text(b), Leaf::Text(c)) => {
                if b != c {
                    bad.push(format!("{id}: changed {b} -> {c}"));
                }
            }
            (Leaf::Num(b), Leaf::Num(c)) => {
                let class = classify(key, *b);
                let band = band_for(&id, class, opts);
                if opts.list {
                    println!("{id}: {b} -> {c} ({class:?}, band {band})");
                }
                if let Some(why) = check_series(class, band, *b, *c) {
                    bad.push(format!("{id}: {why}"));
                }
            }
            _ => bad.push(format!("{id}: type changed between baseline and current")),
        }
    }
    for (path, _, _) in &cl {
        if !bl.iter().any(|(p, _, _)| p == path) {
            eprintln!("note: {file}:{path} is new (not in baseline)");
        }
    }
    (checked, bad)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read '{path}': {e}"))?;
    json::parse(&text).map_err(|e| format!("'{path}' is not valid JSON: {e}"))
}

/// The `(baseline, current, tag)` file pairs to diff: the paths
/// themselves when files, else every `BENCH_*.json` in the baseline
/// directory paired with its same-named counterpart under current.
fn file_pairs(opts: &Options) -> Result<Vec<(String, String, String)>, String> {
    let tag_of = |name: &str| {
        name.trim_start_matches("BENCH_")
            .trim_end_matches(".json")
            .to_string()
    };
    if !std::path::Path::new(&opts.baseline).is_dir() {
        let name = std::path::Path::new(&opts.baseline)
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("bench");
        return Ok(vec![(
            opts.baseline.clone(),
            opts.current.clone(),
            tag_of(name),
        )]);
    }
    let mut names: Vec<String> = std::fs::read_dir(&opts.baseline)
        .map_err(|e| format!("cannot list '{}': {e}", opts.baseline))?
        .filter_map(|entry| entry.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    if names.is_empty() {
        return Err(format!("no BENCH_*.json under '{}'", opts.baseline));
    }
    Ok(names
        .into_iter()
        .map(|n| {
            (
                format!("{}/{n}", opts.baseline),
                format!("{}/{n}", opts.current),
                tag_of(&n),
            )
        })
        .collect())
}

fn main() {
    let opts = parse_args();
    let pairs = match file_pairs(&opts) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let mut checked = 0usize;
    let mut bad = Vec::new();
    let mut ids = Vec::new();
    let mut unreadable = false;
    for (base_path, cur_path, tag) in &pairs {
        let docs = load(base_path).and_then(|b| load(cur_path).map(|c| (b, c)));
        match docs {
            Ok((base, cur)) => {
                let (n, mut b) = diff_docs(tag, &base, &cur, &opts);
                checked += n;
                bad.append(&mut b);
                ids.extend(series_ids(tag, &base));
            }
            Err(e) => {
                unreadable = true;
                bad.push(e);
            }
        }
    }
    // An unreadable document's series are unknown, so a --tol aimed at
    // them cannot be judged; the unreadable document is the failure.
    let unmatched = unmatched_tols(&opts, &ids);
    if !unreadable && !unmatched.is_empty() {
        for pat in unmatched {
            eprintln!("--tol '{pat}' matches no compared series");
        }
        usage();
    }
    for b in &bad {
        eprintln!("REGRESSION: {b}");
    }
    eprintln!(
        "cgra-bench-diff: {} file(s), {checked} series checked, {} regression(s)",
        pairs.len(),
        bad.len()
    );
    std::process::exit(if bad.is_empty() { 0 } else { 1 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> Options {
        Options {
            baseline: String::new(),
            current: String::new(),
            tolerance: DEFAULT_TOLERANCE,
            overrides: Vec::new(),
            list: false,
        }
    }

    #[test]
    fn named_arrays_are_keyed_not_positional() {
        let base = json::parse(
            r#"{"schedules": [{"name": "a", "epochs": 3}, {"name": "b", "epochs": 5}]}"#,
        )
        .unwrap();
        let cur = json::parse(
            r#"{"schedules": [{"name": "b", "epochs": 5}, {"name": "a", "epochs": 3}]}"#,
        )
        .unwrap();
        let (checked, bad) = diff_docs("x", &base, &cur, &opts());
        assert_eq!(bad, Vec::<String>::new(), "reordering is not a diff");
        assert_eq!(checked, 4); // 2 names + 2 epoch counts
    }

    #[test]
    fn timing_is_one_sided_and_speedup_inverted() {
        // 40% slower is inside the default 50% band; 60% is not.
        assert!(check_series(
            Class::Time {
                higher_better: false
            },
            0.5,
            100.0,
            140.0
        )
        .is_none());
        assert!(check_series(
            Class::Time {
                higher_better: false
            },
            0.5,
            100.0,
            160.0
        )
        .is_some());
        // Getting faster never fails, however large the move.
        assert!(check_series(
            Class::Time {
                higher_better: false
            },
            0.5,
            100.0,
            1.0
        )
        .is_none());
        // Speedups fail only when they drop.
        assert!(check_series(
            Class::Time {
                higher_better: true
            },
            0.5,
            8.7,
            20.0
        )
        .is_none());
        assert!(check_series(
            Class::Time {
                higher_better: true
            },
            0.5,
            8.7,
            4.0
        )
        .is_some());
    }

    #[test]
    fn counts_are_exact_and_ratios_two_sided() {
        assert!(check_series(Class::Count, 0.0, 232.0, 232.0).is_none());
        assert!(check_series(Class::Count, 0.0, 232.0, 233.0).is_some());
        assert!(check_series(Class::Ratio, 0.05, 0.50, 0.51).is_none());
        assert!(check_series(Class::Ratio, 0.05, 0.50, 0.56).is_some());
        assert!(check_series(Class::Ratio, 0.05, 0.50, 0.44).is_some());
    }

    #[test]
    fn tol_override_pins_the_acceptance_band() {
        let mut o = opts();
        o.overrides
            .push(("sim:schedules[fft-1024].serial_ns".into(), 0.05));
        let base =
            json::parse(r#"{"schedules": [{"name": "fft-1024", "serial_ns": 100.0}]}"#).unwrap();
        let ok =
            json::parse(r#"{"schedules": [{"name": "fft-1024", "serial_ns": 104.9}]}"#).unwrap();
        let slow =
            json::parse(r#"{"schedules": [{"name": "fft-1024", "serial_ns": 106.0}]}"#).unwrap();
        assert_eq!(diff_docs("sim", &base, &ok, &o).1, Vec::<String>::new());
        assert_eq!(diff_docs("sim", &base, &slow, &o).1.len(), 1);
    }

    #[test]
    fn missing_series_and_flag_flips_are_regressions() {
        let base = json::parse(r#"{"a": 1, "frontier_identical": true}"#).unwrap();
        let cur = json::parse(r#"{"frontier_identical": false}"#).unwrap();
        let (_, bad) = diff_docs("x", &base, &cur, &opts());
        assert_eq!(bad.len(), 2);
        assert!(bad[0].contains("missing"), "{bad:?}");
        assert!(bad[1].contains("true -> false"), "{bad:?}");
    }

    #[test]
    fn a_tol_that_pins_nothing_is_reported() {
        let mut o = opts();
        o.overrides
            .push(("sim:schedules[fft-1024].serial_ns".into(), 0.05));
        o.overrides.push(("serve:turnaround".into(), 5.0));
        let doc = json::parse(r#"{"cold": {"turnaround_p50_host_ns": 7}}"#).unwrap();
        let mut ids = series_ids("serve", &doc);
        ids.extend(series_ids(
            "sim",
            &json::parse(r#"{"schedules": [{"name": "fft-1024", "serial_ns": 1.0}]}"#).unwrap(),
        ));
        assert_eq!(
            ids,
            [
                "serve:cold.turnaround_p50_host_ns",
                "sim:schedules[fft-1024].name",
                "sim:schedules[fft-1024].serial_ns"
            ]
        );
        assert_eq!(unmatched_tols(&o, &ids), ["serve:turnaround"]);
        o.overrides.pop();
        assert_eq!(unmatched_tols(&o, &ids), Vec::<&str>::new());
    }

    /// Every `--tol` the CI gate passes pins at least one series of the
    /// committed baselines — the gate would refuse it otherwise.
    #[test]
    fn ci_tol_patterns_match_committed_series() {
        let root = env!("CARGO_MANIFEST_DIR");
        let ci = std::fs::read_to_string(format!("{root}/.github/workflows/ci.yml"))
            .expect("CI workflow is readable");
        let mut o = opts();
        for spec in ci.split("--tol '").skip(1) {
            let spec = spec.split('\'').next().unwrap_or_default();
            let (pat, band) = spec.rsplit_once('=').expect("--tol <substr>=<frac>");
            o.overrides
                .push((pat.to_string(), band.parse().expect("band")));
        }
        assert!(!o.overrides.is_empty(), "the CI gate pins bands");
        o.baseline = root.to_string();
        let mut ids = Vec::new();
        for (b, _, tag) in file_pairs(&o).expect("committed baselines") {
            ids.extend(series_ids(&tag, &load(&b).unwrap()));
        }
        assert_eq!(unmatched_tols(&o, &ids), Vec::<&str>::new());
    }

    /// The committed baselines must self-diff clean — this is exactly
    /// what the CI gate runs before benches regenerate anything.
    #[test]
    fn committed_baselines_self_diff_clean() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"));
        let o = Options {
            baseline: root.to_string(),
            current: root.to_string(),
            tolerance: DEFAULT_TOLERANCE,
            overrides: Vec::new(),
            list: false,
        };
        let pairs = file_pairs(&o).expect("repo root has committed BENCH_*.json baselines");
        assert!(pairs.len() >= 5, "expected the committed bench set");
        for (b, c, tag) in &pairs {
            let base = load(b).unwrap();
            let cur = load(c).unwrap();
            let (checked, bad) = diff_docs(tag, &base, &cur, &o);
            assert!(checked > 0, "{tag} has series");
            assert_eq!(bad, Vec::<String>::new(), "{tag} self-diff");
        }
    }
}
