//! # cgra-bench
//!
//! Shared helpers for the table/figure bench targets. Each `[[bench]]`
//! target with `harness = false` regenerates one table or figure of the
//! paper as plain text and asserts its qualitative invariants (orderings,
//! crossover windows) so a regression fails `cargo bench`.

#![warn(missing_docs)]

/// Prints a bench banner.
pub fn banner(what: &str, paper_ref: &str) {
    println!();
    println!("=== {what} ===");
    println!("reproduces: {paper_ref}");
    println!();
}

/// Asserts with a message, printing PASS/FAIL so the bench log records the
/// invariant checks.
pub fn check(name: &str, ok: bool) {
    if ok {
        println!("  [check] {name}: ok");
    } else {
        println!("  [check] {name}: FAILED");
        panic!("invariant failed: {name}");
    }
}

/// Formats a floating value with a fixed number of decimals.
pub fn f(v: f64, decimals: usize) -> String {
    format!("{v:.decimals$}")
}

/// Times `body` with a short warmup and reports the per-iteration mean.
///
/// A dependency-free stand-in for a Criterion `bench_function`: runs the
/// closure until ~0.2 s has elapsed (at least 10 iterations), then prints
/// `name: <mean> per iter` and returns the mean duration in nanoseconds.
pub fn time_it<F: FnMut()>(name: &str, mut body: F) -> f64 {
    use std::time::Instant;
    // Warmup.
    for _ in 0..3 {
        body();
    }
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        body();
        iters += 1;
        if (iters >= 10 && start.elapsed().as_millis() >= 200) || iters >= 1_000_000 {
            break;
        }
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    let human = if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    };
    println!("  {name}: {human} per iter ({iters} iters)");
    ns
}

/// A repeated measurement: the median and the median absolute
/// deviation (MAD) of a fixed number of timed repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Median duration of one repetition, ns.
    pub median_ns: f64,
    /// Median absolute deviation from the median, ns.
    pub mad_ns: f64,
    /// Timed repetitions.
    pub reps: usize,
}

impl Sample {
    /// The median and MAD of `durations_ns` (at least one duration).
    pub fn of(durations_ns: &[f64]) -> Sample {
        fn median(v: &mut [f64]) -> f64 {
            v.sort_by(f64::total_cmp);
            let n = v.len();
            if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            }
        }
        let mut v = durations_ns.to_vec();
        let median_ns = median(&mut v);
        let mut dev: Vec<f64> = v.iter().map(|d| (d - median_ns).abs()).collect();
        Sample {
            median_ns,
            mad_ns: median(&mut dev),
            reps: durations_ns.len(),
        }
    }
}

/// Times `body` `reps` times (after one untimed warmup run) and reports
/// the median and MAD — the spread-aware counterpart of [`time_it`]'s
/// mean, for series whose noise a regression gate must see. Prints
/// `name: <median> median, <mad> MAD (<reps> reps)`.
pub fn time_reps<F: FnMut()>(name: &str, reps: usize, mut body: F) -> Sample {
    use std::time::Instant;
    body();
    let durations: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            body();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    let s = Sample::of(&durations);
    println!(
        "  {name}: {:.3} ms median, {:.3} ms MAD ({} reps)",
        s.median_ns / 1e6,
        s.mad_ns / 1e6,
        s.reps
    );
    s
}

/// The schema-versioned opening of every `BENCH_*.json` document.
///
/// Writers open their top-level object with this (and close it
/// themselves) so downstream tooling can detect shape changes; the
/// version is shared with the driver JSON emitters
/// ([`cgra_telemetry::SCHEMA_VERSION`]).
pub fn json_head() -> String {
    format!("{{\n  \"schema\": {},\n", cgra_telemetry::SCHEMA_VERSION)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_telemetry::json::{self, Json};

    #[test]
    fn sample_takes_the_median_and_the_median_absolute_deviation() {
        let s = Sample::of(&[5.0, 1.0, 3.0, 100.0, 4.0]);
        assert_eq!((s.median_ns, s.mad_ns, s.reps), (4.0, 1.0, 5));
        let even = Sample::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((even.median_ns, even.mad_ns), (2.5, 1.0));
    }

    #[test]
    fn time_reps_times_every_repetition_after_a_warmup() {
        let mut runs = 0;
        let s = time_reps("noop", 7, || runs += 1);
        assert_eq!((runs, s.reps), (8, 7));
        assert!(s.median_ns >= 0.0 && s.mad_ns >= 0.0);
    }

    #[test]
    fn json_head_opens_a_schema_versioned_document() {
        let doc = format!("{}  \"x\": 1\n}}\n", json_head());
        let v = json::parse(&doc).expect("head closes into valid JSON");
        assert_eq!(
            v.get("schema").and_then(Json::as_f64),
            Some(cgra_telemetry::SCHEMA_VERSION as f64)
        );
        assert_eq!(v.get("x").and_then(Json::as_f64), Some(1.0));
    }
}
