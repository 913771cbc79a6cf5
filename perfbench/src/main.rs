//! `perfbench`: the repository benchmark. See README.md.
//!
//! ```text
//! perfbench --workload <serve-cold|serve-warm> --seed <n>
//!           --seconds <s> --trace <0|1> [--golden <file>] [--out <dir>]
//! perfbench --write-golden <file>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics traced); the line before it carries the details
//! behind them (tail percentiles and sample counts, drift witness).

mod dse;
mod golden;
mod host;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use golden::Golden;
use host::{CountingAlloc, CpuTicks};
use remorph::telemetry::json::esc;
use stats::{median, Tail};
use trace::Tracer;

#[global_allocator]
static HEAP: CountingAlloc = CountingAlloc;

/// One run's settings.
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Measuring time, s.
    pub seconds: f64,
    /// The outcomes every sample is checked against.
    pub golden: Golden,
    /// Sockets and span files go here.
    pub out_dir: PathBuf,
}

impl Params {
    /// Starts the measuring window.
    pub fn window(&self) -> Window {
        Window {
            deadline: Instant::now() + Duration::from_secs_f64(self.seconds),
            started: false,
        }
    }
}

/// The measuring window: at least one iteration, then until the deadline.
pub struct Window {
    deadline: Instant,
    started: bool,
}

impl Window {
    /// Whether to run another iteration.
    pub fn more(&mut self) -> bool {
        let more = !self.started || Instant::now() < self.deadline;
        self.started = true;
        more
    }
}

/// What a workload measured.
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
    extras: BTreeMap<&'static str, f64>,
    spans: BTreeMap<&'static str, Vec<u64>>,
    info: Vec<(String, String)>,
}

impl Report {
    /// An empty report over `attempted` checked outputs.
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report {
            attempted,
            failed,
            metrics: Vec::new(),
            extras: BTreeMap::new(),
            spans: BTreeMap::new(),
            info: Vec::new(),
        }
    }

    /// An end-to-end metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    /// A per-layer value computed outside the span table.
    pub fn extra(&mut self, name: &'static str, value: f64) {
        self.extras.insert(name, value);
    }

    /// A detail for the info line.
    pub fn info(&mut self, key: &str, value: f64) {
        self.info.push((key.to_string(), json_num(value)));
    }

    /// A textual detail for the info line.
    pub fn info_text(&mut self, key: &str, value: &str) {
        self.info
            .push((key.to_string(), format!("\"{}\"", esc(value))));
    }

    /// Records which percentile a tail is and how many samples back it.
    pub fn info_tail(&mut self, key: &str, t: Tail) {
        self.info.push((
            key.to_string(),
            format!(
                "{{\"percentile\": {}, \"samples\": {}, \"beyond\": {}}}",
                json_num(t.pct),
                t.n,
                t.beyond
            ),
        ));
    }

    /// Checks span conservation, writes the spans out, and keeps each
    /// layer's self times.
    pub fn layer_spans(
        &mut self,
        tr: &Tracer,
        dir: &std::path::Path,
        tag: &str,
    ) -> Result<(), String> {
        let spans = tr.spans();
        match trace::check_conservation(spans) {
            Ok(roots) => {
                let dur: u64 = roots.iter().map(|r| r.dur).sum();
                let un: u64 = roots.iter().map(|r| r.unattributed).sum();
                self.extra("trace.unattributed_share", un as f64 / dur.max(1) as f64);
                self.info("trace_roots", roots.len() as f64);
            }
            Err(errs) => {
                eprintln!("span conservation violated:\n{}", errs.join("\n"));
                self.failed += 1;
                self.attempted += 1;
            }
        }
        let path = dir.join(format!("spans-{tag}.csv"));
        trace::write_csv(&path, spans)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        self.info_text("spans_file", &path.display().to_string());
        self.info("spans", spans.len() as f64);
        self.spans = trace::self_times(spans);
        Ok(())
    }
}

/// Per-layer metrics read from span self times: (metric, span, unit).
/// A layer the workload never calls reads 0 with 0 calls.
const SPAN_LAYERS: [(&str, &str, &str); 21] = [
    ("explore.build_schedule_ms", "explore.build_schedule", "ms"),
    ("serve.store_key_ms", "serve.store_key", "ms"),
    ("serve.store_lookup_ms", "serve.store_lookup", "ms"),
    ("serve.store_insert_ms", "serve.store_insert", "ms"),
    ("verify.structural_ms", "verify.structural", "ms"),
    ("lint.schedule_ms", "lint.schedule", "ms"),
    ("verify.footprint_ms", "verify.footprint", "ms"),
    ("verify.wcet_ms", "verify.wcet", "ms"),
    ("serve.plan_ms", "serve.plan", "ms"),
    ("lint.hoist_plan_ms", "lint.hoist_plan", "ms"),
    ("explore.compose_ms", "explore.compose", "ms"),
    ("sim.compose_run_ms", "sim.compose_run", "ms"),
    ("telemetry.conservation_ms", "telemetry.conservation", "ms"),
    ("serve.proto_encode_us", "serve.proto_encode", "us"),
    ("serve.proto_decode_us", "serve.proto_decode", "us"),
    ("serve.socket_rtt_us", "serve.ping", "us"),
    ("explore.fft_build_ms", "explore.fft_build", "ms"),
    ("explore.minimize_ms", "explore.minimize", "ms"),
    ("verify.bound_ms", "verify.bound", "ms"),
    ("verify.price_ms", "verify.price", "ms"),
    ("sim.active_run_ms", "sim.active_run", "ms"),
];

/// Per-layer metrics computed by the workloads: (metric, unit).
const EXTRA_LAYERS: [(&str, &str); 18] = [
    ("serve.admit_self_ms", "ms"),
    ("serve.store_hit_ratio", "ratio"),
    ("serve.packs", "count"),
    ("serve.tenants_per_pack", "count"),
    ("sim.compose_cycles", "count"),
    ("sim.compose_ns_per_cycle", "ns/cycle"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.frame_bytes", "bytes"),
    ("sim.active_ns_per_cycle", "ns/cycle"),
    ("explore.pruned_ratio", "ratio"),
    ("explore.simulated", "count"),
    ("explore.cache_hit_ratio", "ratio"),
    ("host.calib_ms", "ms"),
    ("host.steal_share", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_share", "ratio"),
    ("host.peak_rss_mb", "MB"),
    ("trace.span_calls", "count"),
];

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    golden: String,
    out: PathBuf,
}

fn parse_args() -> Result<Result<Args, String>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        golden: "perfbench/golden.txt".to_string(),
        out: PathBuf::from(".bench_out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--golden" => a.golden = val()?,
            "--out" => a.out = PathBuf::from(val()?),
            "--write-golden" => return Ok(Err(val()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Ok(a))
}

fn run() -> Result<(), String> {
    let args = match parse_args()? {
        Ok(a) => a,
        Err(path) => {
            let g = Golden::generate()?;
            std::fs::write(&path, g.render()).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "wrote {} serve and {} dse records to {path}",
                g.serve.len(),
                g.dse.len()
            );
            return Ok(());
        }
    };
    let p = Params {
        seed: args.seed,
        seconds: args.seconds,
        golden: Golden::load(&args.golden)?,
        out_dir: args.out.clone(),
    };
    let ticks0 = CpuTicks::now();
    let calib0 = host::calib_ms();
    let mut report = match (args.workload.as_str(), args.trace) {
        ("serve-cold", false) => serve::cold(&p)?,
        ("serve-warm", false) => serve::warm(&p)?,
        ("serve-cold", true) => serve::traced(&p, false)?,
        ("serve-warm", true) => serve::traced(&p, true)?,
        (other, _) => return Err(format!("unknown workload '{other}'")),
    };
    let calib1 = host::calib_ms();
    let steal = CpuTicks::now().steal_share_since(&ticks0);
    let rss = host::peak_rss_mb();
    let heap = host::peak_heap_mb();
    let ok_share = (report.attempted - report.failed) as f64 / report.attempted.max(1) as f64;
    report.info("calib_start_ms", calib0);
    report.info("calib_end_ms", calib1);
    report.info("steal_share", steal);
    report.info("peak_rss_mb", rss);

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        report.extra("host.calib_ms", median(&[calib0, calib1]));
        report.extra("host.steal_share", steal);
        report.extra("host.peak_rss_mb", rss);
        let calls: usize = report.spans.values().map(Vec::len).sum();
        report.extra("trace.span_calls", calls as f64);
        for (name, span, unit) in SPAN_LAYERS {
            let scale = if unit == "us" { 1e3 } else { 1e6 };
            let v = report.spans.get(span).map_or(0.0, |ns| {
                median(&ns.iter().map(|&n| n as f64 / scale).collect::<Vec<_>>())
            });
            let calls = report.spans.get(span).map_or(0, Vec::len);
            report.info(&format!("calls.{span}"), calls as f64);
            metrics.push((name.to_string(), v, unit));
        }
        for (name, unit) in EXTRA_LAYERS {
            metrics.push((
                name.to_string(),
                report.extras.get(name).copied().unwrap_or(0.0),
                unit,
            ));
        }
    } else {
        metrics = report.metrics.clone();
        metrics.push(("ok_share".to_string(), ok_share, "ratio"));
        metrics.push(("peak_heap_mb".to_string(), heap, "MB"));
    }

    let info: Vec<String> = report
        .info
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!("{{\"info\": {{{}}}}}", info.join(", "));
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0 && report.attempted > 0,
        report.attempted,
        report.failed,
        body.join(", ")
    );
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
}
