//! # cgra-explore
//!
//! Design-space exploration reproducing the paper's evaluation:
//!
//! * [`fft_dse`] — the Sec. 3.2 tau performance model and the sweeps of
//!   Figures 10-12 plus the Table 2 copy-process optimization,
//! * [`jpeg_dse`] — Table 4's manual mappings, Table 5's 24-tile binding,
//!   and the rebalancing sweeps of Figures 16-17,
//! * [`rank`] — static Eq. 1 pricing of candidate schedules via the
//!   `cgra-verify` WCET engine, so sweeps simulate only the frontier,
//! * [`sweep`] — the parallel, cached sweep engine behind `cgra-explore`:
//!   sharded prepare/price/evaluate phases, WCET pruning, and memoized
//!   simulation,
//! * [`pool`] — the bounded worker pool the engine shards over, with
//!   per-worker telemetry counters and input-order-deterministic results,
//! * [`cache`] — the content-addressed simulation cache (in-memory plus
//!   an optional on-disk directory) keyed by schedule and cost-model
//!   fingerprints,
//! * [`report`] — plain-text table/series rendering for the bench targets,
//! * [`schedule`] — concrete epoch schedules behind the candidates, plus
//!   the `cgra-verify` gates the sweeps run over every design point.
//!
//! Running a sweep through the engine takes a spec, a config, and a
//! cache; the outcome carries the ranked rows and conservation-checked
//! worker telemetry:
//!
//! ```
//! use cgra_explore::{run_sweep, EngineConfig, SimCache, SweepSpec, Workload};
//!
//! let spec = SweepSpec { workload: Workload::Fft64, link_costs_ns: vec![0.0] };
//! let cfg = EngineConfig { jobs: 1, frontier: 1, prune: true };
//! let cache = SimCache::in_memory();
//! let out = run_sweep(&spec, &cfg, &cache).expect("sweep runs");
//! assert_eq!(out.rows.len(), 5);               // five partition sizes
//! assert_eq!(out.stats.total.simulated, 1);    // only the frontier ran
//! assert!(out.conservation_violations().is_empty());
//! ```

#![warn(missing_docs)]

pub mod cache;
pub mod compose;
pub mod fft_dse;
pub mod jpeg_dse;
pub mod pool;
pub mod rank;
pub mod report;
pub mod schedule;
pub mod sweep;

pub use cache::{cost_fingerprint, schedule_fingerprint, CacheLookup, SimCache, SimResult};
pub use compose::{compose_certified, compose_examples, compose_schedules, Composition, Placement};
pub use fft_dse::{copy_optimization_table, sweep_columns, sweep_link_cost, TauModel};
pub use jpeg_dse::{evaluate_manual, manual_implementations, rebalance_sweep, Algo};
pub use pool::{effective_jobs, run_sharded, PoolOutput, WorkerCtx};
pub use rank::{
    fft_partition_candidates, rank_fft_candidates, rank_fft_candidates_hoisted, simulate_frontier,
    simulate_frontier_hoisted, static_metrics, static_worst_ns, CandidateMetrics, FrontierPoint,
    RankedCandidate,
};
pub use schedule::{
    assignment_diagnostics, build_example_schedule, example_probe_input, fft_column_schedule,
    fft_schedule_diagnostics, hoist_schedule, jpeg_block_schedule, jpeg_probe_blocks,
    jpeg_schedule_diagnostics, jpeg_stream_diagnostics, jpeg_stream_schedule, minimize_schedule,
    network_budget_diagnostics, EXAMPLE_SCHEDULES,
};
pub use sweep::{
    run_sweep, run_sweep_naive, Candidate, EngineConfig, RowOutcome, Scheme, SweepError,
    SweepOutcome, SweepRow, SweepSpec, Workload, DEFAULT_LINK_COSTS,
};
