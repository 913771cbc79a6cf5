//! The golden outcomes every sample is checked against.
//!
//! Every value comes from the serial oracle (`EpochRunner::run_schedule`
//! and its hoisted twin `run_hoisted_schedule`), never from the composed
//! or event-driven cores the workloads exercise; quoted cycles and static
//! prices come from the WCET analysis. The model has no hardware
//! reference, so a match means "agrees with the serial interpreter",
//! not "agrees with silicon".
//!
//! File format, one record per line (`#` starts a comment):
//!
//! ```text
//! serve <schedule> <hoist 0|1> <observed_cycles> <quoted_cycles> <eq1_ns>
//! dse <m> <link_ns> <static_worst_ns> <oracle_ns>
//! ```

use std::collections::BTreeMap;
use std::fmt::Write as _;

use remorph::explore::{
    build_example_schedule, example_probe_input, fft_column_schedule, hoist_schedule,
    minimize_schedule, static_worst_ns, SweepSpec, EXAMPLE_SCHEDULES,
};
use remorph::fabric::{CostModel, Mesh};
use remorph::kernels::fft::partition::FftPlan;
use remorph::sim::{bound_epochs, epoch_spec, ArraySim, Epoch, EpochRunner, Event, VerifyMode};
use remorph::verify::{bound_schedule_with, BoundCache, EpochSpec, ScheduleBound};

/// The link costs a dse grid is drawn from, ns: the paper's 0-700 ns
/// range on a 50 ns lattice.
pub const LINK_LATTICE: [u64; 15] = [
    0, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500, 550, 600, 650, 700,
];

/// The oracle's view of one serve job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeGold {
    /// Region cycles: per epoch, the stall plus the longest busy tile.
    pub observed_cycles: u64,
    /// The WCET quote, cycles.
    pub quoted_cycles: u64,
    /// Eq. 1 total, ns.
    pub eq1_ns: f64,
}

/// The oracle's view of one fft-1024 design point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DseGold {
    /// Static worst-case price, ns (what the sweep ranks by).
    pub static_worst_ns: f64,
    /// Serial-oracle simulated time, ns.
    pub oracle_ns: f64,
}

/// Every golden record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Golden {
    /// Keyed by (schedule, hoist).
    pub serve: BTreeMap<(String, bool), ServeGold>,
    /// Keyed by (partition size m, link cost in ns).
    pub dse: BTreeMap<(usize, u64), DseGold>,
}

impl Golden {
    /// Parses a golden file.
    pub fn parse(text: &str) -> Result<Golden, String> {
        let mut g = Golden::default();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("golden line {}: cannot parse '{line}'", n + 1);
            match f.as_slice() {
                ["serve", name, hoist, obs, quoted, eq1] => {
                    let key = (name.to_string(), *hoist == "1");
                    let v = ServeGold {
                        observed_cycles: obs.parse().map_err(|_| bad())?,
                        quoted_cycles: quoted.parse().map_err(|_| bad())?,
                        eq1_ns: eq1.parse().map_err(|_| bad())?,
                    };
                    g.serve.insert(key, v);
                }
                ["dse", m, link, worst, oracle] => {
                    let key = (
                        m.parse().map_err(|_| bad())?,
                        link.parse().map_err(|_| bad())?,
                    );
                    let v = DseGold {
                        static_worst_ns: worst.parse().map_err(|_| bad())?,
                        oracle_ns: oracle.parse().map_err(|_| bad())?,
                    };
                    g.dse.insert(key, v);
                }
                _ => return Err(bad()),
            }
        }
        Ok(g)
    }

    /// Reads and parses a golden file.
    pub fn load(path: &str) -> Result<Golden, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Golden::parse(&text)
    }

    /// Renders the file [`Golden::parse`] reads (floats round-trip).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Serial-oracle outcomes for perfbench; see src/golden.rs for the format.\n\
             # Regenerate: cargo run --release --manifest-path perfbench/Cargo.toml -- \
             --write-golden perfbench/golden.txt\n",
        );
        for ((name, hoist), v) in &self.serve {
            let _ = writeln!(
                out,
                "serve {name} {} {} {} {:?}",
                u8::from(*hoist),
                v.observed_cycles,
                v.quoted_cycles,
                v.eq1_ns
            );
        }
        for ((m, link), v) in &self.dse {
            let _ = writeln!(
                out,
                "dse {m} {link} {:?} {:?}",
                v.static_worst_ns, v.oracle_ns
            );
        }
        out
    }

    /// Computes every record from the serial oracle.
    pub fn generate() -> Result<Golden, String> {
        let mut g = Golden::default();
        let cost = CostModel::default();
        for name in EXAMPLE_SCHEDULES {
            for hoist in [false, true] {
                g.serve
                    .insert((name.to_string(), hoist), serve_oracle(name, hoist, &cost)?);
            }
        }
        for m in fft1024_partitions() {
            let (mesh, epochs, bound) = prepare_fft1024(m)?;
            for link in LINK_LATTICE {
                let cost = CostModel::with_link_cost(link as f64);
                let mut runner = EpochRunner::new(ArraySim::new(mesh), cost);
                let report = runner
                    .run_schedule(&epochs)
                    .map_err(|e| format!("oracle run fft1024-m{m} L={link}: {e}"))?;
                g.dse.insert(
                    (m, link),
                    DseGold {
                        static_worst_ns: static_worst_ns(&bound.at_cost(&cost)),
                        oracle_ns: report.total_ns(),
                    },
                );
            }
        }
        Ok(g)
    }
}

/// Partition sizes of the fft-1024 sweep family.
pub fn fft1024_partitions() -> Vec<usize> {
    SweepSpec::named("fft-1024")
        .expect("fft-1024 is a named sweep")
        .schemes()
        .iter()
        .map(|s| match s {
            remorph::explore::Scheme::Fft { m, .. } => *m,
            other => panic!("fft-1024 sweep has a non-FFT scheme {other:?}"),
        })
        .collect()
}

/// One fft-1024 design shape prepared the way the sweep prepares it:
/// built, lint-minimized and WCET-bounded under the zero-link-cost
/// model.
fn prepare_fft1024(m: usize) -> Result<(Mesh, Vec<Epoch>, ScheduleBound), String> {
    let plan = FftPlan::new(1024, m).map_err(|e| format!("fft1024-m{m}: {e:?}"))?;
    let (mesh, mut epochs) = fft_column_schedule(&plan, &example_probe_input(1024));
    let cost = CostModel::with_link_cost(0.0);
    minimize_schedule(mesh, &mut epochs, &cost);
    let specs: Vec<EpochSpec> = epochs.iter().map(epoch_spec).collect();
    let bound = bound_schedule_with(mesh, &cost, &specs, &mut BoundCache::new());
    Ok((mesh, epochs, bound))
}

fn serve_oracle(name: &str, hoist: bool, cost: &CostModel) -> Result<ServeGold, String> {
    let (mesh, epochs) =
        build_example_schedule(name).ok_or_else(|| format!("unknown schedule {name}"))?;
    let bound = bound_epochs(mesh, cost, &epochs);
    let quoted_cycles = bound
        .epochs
        .iter()
        .map(|e| e.stall_cycles + e.compute.worst.unwrap_or(0))
        .sum();
    let mut sim = ArraySim::new(mesh);
    sim.verify = VerifyMode::Strict;
    let mut runner = EpochRunner::new(sim, *cost);
    let report = if hoist {
        let plan = hoist_schedule(mesh, &epochs, cost);
        runner.run_hoisted_schedule(&epochs, &plan)
    } else {
        runner.run_schedule(&epochs)
    }
    .map_err(|e| format!("oracle run {name} hoist={hoist}: {e}"))?;
    Ok(ServeGold {
        observed_cycles: observed_cycles(runner.events()),
        quoted_cycles,
        eq1_ns: report.total_ns(),
    })
}

/// Per epoch, the switch stall plus the longest tile-busy time, summed
/// — the serial counterpart of a composed tenant's observed cycles.
fn observed_cycles(events: &[Event]) -> u64 {
    let mut stall: BTreeMap<usize, u64> = BTreeMap::new();
    let mut busy: BTreeMap<usize, u64> = BTreeMap::new();
    for e in events {
        match e {
            Event::Reconfig {
                epoch,
                stall_cycles,
                ..
            } => {
                stall.insert(*epoch, *stall_cycles);
            }
            Event::TileEpoch { epoch, busy: b, .. } => {
                let slot = busy.entry(*epoch).or_default();
                *slot = (*slot).max(*b);
            }
            _ => {}
        }
    }
    stall.values().sum::<u64>() + busy.values().sum::<u64>()
}
