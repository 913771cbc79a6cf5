//! Admission control: the static pipeline every submission passes
//! before it may touch a fabric.
//!
//! The order is the workspace's own trust ladder: **verify** (the
//! schedule is well-formed and race-free) → **lint deny-gate** (no
//! deny-level reconfiguration waste; optionally warnings too) →
//! **footprint certificate** (what the tenant may touch, priced in
//! per-link worst-case words) → **WCET-bound SLA quote** (the Eq. 1
//! envelope the daemon commits to). A failure at any rung rejects the
//! submission with the originating `V…`/`L…` diagnostics serialized in
//! the response — the daemon never invents its own admission codes for
//! static findings.
//!
//! The four analyses run once, inside `CertifiedSchedule::certify`;
//! the rungs read its verdicts. The certified schedule travels with the
//! admitted job ([`Admitted::certified`]) so that composition and the
//! composed runner use these proofs instead of re-deriving them. It is
//! dropped with the job's pack: nothing of it enters the result store.

use std::sync::Arc;

use cgra_fabric::{CostModel, Mesh};
use cgra_lint::LintLevels;
use cgra_sim::epoch::Epoch;
use cgra_sim::CertifiedSchedule;
use cgra_verify::{Code, Diagnostic};

use crate::proto::{DiagView, ProtoCode, RejectMsg, SubmitRequest};
use crate::store::StoreKey;

/// Fabric-level admission limits (the daemon's side of the contract;
/// per-submission `max_tiles` / `max_wcet_ns` knobs tighten it).
#[derive(Debug, Clone, Copy)]
pub struct AdmitLimits {
    /// Widest column band a single tenant may claim.
    pub max_cols: usize,
    /// Optional fleet-wide ceiling on a tenant's certified worst-case
    /// link words (the BandMap-style bandwidth admission currency).
    pub link_budget_words: Option<u64>,
}

impl Default for AdmitLimits {
    fn default() -> AdmitLimits {
        AdmitLimits {
            max_cols: 64,
            link_budget_words: None,
        }
    }
}

/// The SLA quote derived for an admitted submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Quote {
    /// Worst-case cycles: Σ per-epoch stall + worst compute.
    pub quoted_cycles: u64,
    /// Eq. 1 best-case total, ns.
    pub wcet_best_ns: f64,
    /// Eq. 1 worst-case total, ns.
    pub wcet_worst_ns: f64,
    /// Tiles the footprint certificate claims.
    pub tiles: u64,
    /// Directed link claims in the certificate.
    pub links: u64,
    /// Σ worst-case words over the link claims.
    pub link_words_worst: Option<u64>,
    /// Lint findings at warning level (kept so cached admissions can
    /// still honor `deny_lint_warnings` without re-linting).
    pub lint_warning_codes: Vec<String>,
}

/// A submission that passed every admission rung: the built schedule,
/// its store key, its quote, and the proofs admission certified.
#[derive(Debug, Clone)]
pub struct Admitted {
    /// Tenant name.
    pub tenant: String,
    /// Schedule name.
    pub schedule: String,
    /// Run with hoisting.
    pub hoist: bool,
    /// The tenant's own mesh.
    pub mesh: Mesh,
    /// The verified epochs.
    pub epochs: Vec<Epoch>,
    /// Content-addressed key into the cross-tenant result store.
    pub key: StoreKey,
    /// The SLA quote.
    pub quote: Quote,
    /// The schedule as admission certified it (its own copy of the
    /// epochs, with the verifier, lint, footprint and WCET proofs).
    /// Composition places this instead of re-deriving the proofs.
    pub certified: Arc<CertifiedSchedule>,
}

fn view(d: &Diagnostic) -> DiagView {
    DiagView {
        code: d.code.id().to_string(),
        severity: d.severity.to_string(),
        message: d.to_string(),
    }
}

fn reject(req: &SubmitRequest, code: String, diags: Vec<DiagView>) -> RejectMsg {
    RejectMsg {
        tenant: req.tenant.clone(),
        schedule: req.schedule.clone(),
        code,
        diags,
    }
}

fn reject_diags(req: &SubmitRequest, diags: &[Diagnostic]) -> RejectMsg {
    let errs: Vec<DiagView> = diags.iter().filter(|d| d.is_error()).map(view).collect();
    let code = errs
        .first()
        .map(|d| d.code.clone())
        .unwrap_or_else(|| ProtoCode::BadRequest.id().to_string());
    reject(req, code, errs)
}

fn reject_one(req: &SubmitRequest, d: Diagnostic) -> RejectMsg {
    let code = d.code.id().to_string();
    reject(req, code, vec![view(&d)])
}

/// Runs the full admission pipeline over an already-built schedule.
///
/// `(mesh, epochs)` is the tenant's schedule on its own coordinates;
/// `req` carries the per-submission SLA knobs. On success the returned
/// [`Admitted`] owns the schedule, ready for the fabric-pool scheduler.
pub fn admit_schedule(
    req: &SubmitRequest,
    mesh: Mesh,
    epochs: Vec<Epoch>,
    cost: &CostModel,
    limits: &AdmitLimits,
) -> Result<Admitted, RejectMsg> {
    // Fabric capacity: a tenant wider than the pool's fabrics can never
    // be placed, so it is refused up front.
    if mesh.cols() > limits.max_cols {
        return Err(reject_one(
            req,
            Diagnostic::error(
                Code::FootprintExceeded,
                format!(
                    "schedule needs a {}-column band but the fabric admits at most {}",
                    mesh.cols(),
                    limits.max_cols
                ),
            ),
        ));
    }

    // Every analysis runs once, here. Rung 1: the schedule verifier.
    let levels = if req.deny_lint_warnings {
        LintLevels::default().deny_warnings()
    } else {
        LintLevels::default()
    };
    let certified = match CertifiedSchedule::certify(mesh, epochs.clone(), cost, &levels) {
        Ok(c) => c,
        Err(verdicts) => return Err(reject_diags(req, &verdicts)),
    };

    // Rung 2: the inter-epoch lint pass as a deny-gate.
    let lint = certified.lint();
    if lint.denied() {
        return Err(reject_diags(req, &lint.diags));
    }
    let lint_warning_codes: Vec<String> = lint
        .diags
        .iter()
        .filter(|d| !d.is_error())
        .map(|d| d.code.id().to_string())
        .collect();

    // Rung 3: the footprint certificate — what the tenant may touch,
    // and the per-link word ceilings that price co-residency.
    let analysis = certified.footprint();
    if cgra_verify::has_errors(&analysis.diags) {
        return Err(reject_diags(req, &analysis.diags));
    }
    let cert = &analysis.cert;
    if let Some(cap) = req.max_tiles {
        if cert.tiles.len() as u64 > cap {
            return Err(reject_one(
                req,
                Diagnostic::error(
                    Code::FootprintExceeded,
                    format!(
                        "certificate claims {} tiles but the submission caps it at {cap}",
                        cert.tiles.len()
                    ),
                ),
            ));
        }
    }
    if let (Some(budget), Some(words)) = (limits.link_budget_words, cert.link_words_worst) {
        if words > budget {
            return Err(reject_one(
                req,
                Diagnostic::error(
                    Code::FootprintExceeded,
                    format!(
                        "certificate prices {words} worst-case link words but the fabric budget is {budget}"
                    ),
                ),
            ));
        }
    }

    // Rung 4: the Eq. 1 WCET bound becomes the SLA quote.
    let bound = certified.bound();
    if cgra_verify::has_errors(&bound.diags) {
        return Err(reject_diags(req, &bound.diags));
    }
    if !bound.is_bounded() {
        return Err(reject_one(
            req,
            Diagnostic::error(
                Code::UnboundedLoop,
                "schedule has no finite worst-case bound, so no SLA can be quoted".to_string(),
            ),
        ));
    }
    let quoted_cycles: u64 = bound
        .epochs
        .iter()
        .map(|e| e.stall_cycles + e.compute.worst.unwrap_or(0))
        .sum();
    let total = bound.total_ns();
    let wcet_worst_ns = total.worst.unwrap_or(f64::INFINITY);
    if let Some(cap) = req.max_wcet_ns {
        if wcet_worst_ns > cap {
            return Err(reject_one(
                req,
                Diagnostic::error(
                    Code::DeadlineRisk,
                    format!(
                        "quoted worst case {wcet_worst_ns:.1} ns exceeds the submission's {cap:.1} ns ceiling"
                    ),
                ),
            ));
        }
    }

    let key = StoreKey::new(mesh, &epochs, cost, req.hoist);
    let quote = Quote {
        quoted_cycles,
        wcet_best_ns: total.best,
        wcet_worst_ns,
        tiles: cert.tiles.len() as u64,
        links: cert.links.len() as u64,
        link_words_worst: cert.link_words_worst,
        lint_warning_codes,
    };
    Ok(Admitted {
        tenant: req.tenant.clone(),
        schedule: req.schedule.clone(),
        hoist: req.hoist,
        mesh,
        epochs,
        key,
        quote,
        certified: Arc::new(certified),
    })
}

/// Re-checks the *per-submission* SLA knobs against a cached quote, so
/// a warm resubmission with tighter limits is still rejected exactly
/// like a cold one.
pub fn recheck_quote(req: &SubmitRequest, quote: &Quote) -> Result<(), RejectMsg> {
    if let Some(cap) = req.max_tiles {
        if quote.tiles > cap {
            return Err(reject_one(
                req,
                Diagnostic::error(
                    Code::FootprintExceeded,
                    format!(
                        "certificate claims {} tiles but the submission caps it at {cap}",
                        quote.tiles
                    ),
                ),
            ));
        }
    }
    if let Some(cap) = req.max_wcet_ns {
        if quote.wcet_worst_ns > cap {
            return Err(reject_one(
                req,
                Diagnostic::error(
                    Code::DeadlineRisk,
                    format!(
                        "quoted worst case {:.1} ns exceeds the submission's {cap:.1} ns ceiling",
                        quote.wcet_worst_ns
                    ),
                ),
            ));
        }
    }
    if req.deny_lint_warnings {
        if let Some(code) = quote.lint_warning_codes.first() {
            return Err(reject(
                req,
                code.clone(),
                quote
                    .lint_warning_codes
                    .iter()
                    .map(|c| DiagView {
                        code: c.clone(),
                        severity: "error".to_string(),
                        message: format!(
                            "lint finding {c} is denied by this submission's deny_lint_warnings"
                        ),
                    })
                    .collect(),
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgra_explore::build_example_schedule;

    fn req(schedule: &str) -> SubmitRequest {
        SubmitRequest {
            tenant: "t".into(),
            schedule: schedule.into(),
            hoist: false,
            max_tiles: None,
            max_wcet_ns: None,
            deny_lint_warnings: false,
        }
    }

    #[test]
    fn examples_admit_with_finite_quotes() {
        let cost = CostModel::default();
        for name in ["fft-16", "fft-64", "jpeg"] {
            let (mesh, epochs) = build_example_schedule(name).unwrap();
            let a = admit_schedule(&req(name), mesh, epochs, &cost, &AdmitLimits::default())
                .unwrap_or_else(|r| panic!("{name} rejected: {r:?}"));
            assert!(a.quote.quoted_cycles > 0, "{name}");
            assert!(a.quote.wcet_worst_ns >= a.quote.wcet_best_ns, "{name}");
            assert!(a.quote.tiles > 0, "{name}");
            // The certified proofs are the ones the quote was read from.
            assert!(!cgra_verify::has_errors(a.certified.verdicts()), "{name}");
            let cert = &a.certified.footprint().cert;
            assert_eq!(cert.tiles.len() as u64, a.quote.tiles, "{name}");
            assert_eq!(a.certified.mesh(), a.mesh, "{name}");
        }
    }

    #[test]
    fn over_footprint_submission_is_rejected_with_v131() {
        let cost = CostModel::default();
        let (mesh, epochs) = build_example_schedule("fft-64").unwrap();
        let mut r = req("fft-64");
        r.max_tiles = Some(1);
        let rej = admit_schedule(&r, mesh, epochs, &cost, &AdmitLimits::default()).unwrap_err();
        assert_eq!(rej.code, "V131");
        assert!(!rej.diags.is_empty());
    }

    #[test]
    fn wcet_ceiling_is_rejected_with_v111() {
        let cost = CostModel::default();
        let (mesh, epochs) = build_example_schedule("fft-16").unwrap();
        let mut r = req("fft-16");
        r.max_wcet_ns = Some(1.0);
        let rej = admit_schedule(&r, mesh, epochs, &cost, &AdmitLimits::default()).unwrap_err();
        assert_eq!(rej.code, "V111");
    }

    #[test]
    fn deny_lint_warnings_rejects_wasteful_schedules_with_l_codes() {
        let cost = CostModel::default();
        let (mesh, epochs) = build_example_schedule("jpeg-stream").unwrap();
        let mut r = req("jpeg-stream");
        r.deny_lint_warnings = true;
        let rej = admit_schedule(&r, mesh, epochs, &cost, &AdmitLimits::default()).unwrap_err();
        assert!(
            rej.code.starts_with('L'),
            "want an L code, got {}",
            rej.code
        );
    }

    #[test]
    fn narrow_fabric_rejects_wide_tenants() {
        let cost = CostModel::default();
        // jpeg is the widest example (3 columns).
        let (mesh, epochs) = build_example_schedule("jpeg").unwrap();
        assert!(mesh.cols() > 2);
        let limits = AdmitLimits {
            max_cols: 2,
            link_budget_words: None,
        };
        let rej = admit_schedule(&req("jpeg"), mesh, epochs, &cost, &limits).unwrap_err();
        assert_eq!(rej.code, "V131");
    }

    #[test]
    fn link_budget_is_admission_currency() {
        let cost = CostModel::default();
        let (mesh, epochs) = build_example_schedule("jpeg").unwrap();
        let limits = AdmitLimits {
            max_cols: 64,
            link_budget_words: Some(1),
        };
        let rej = admit_schedule(&req("jpeg"), mesh, epochs, &cost, &limits).unwrap_err();
        assert_eq!(rej.code, "V131");
    }

    #[test]
    fn recheck_mirrors_cold_admission_on_cached_quotes() {
        let cost = CostModel::default();
        let (mesh, epochs) = build_example_schedule("jpeg-stream").unwrap();
        let a = admit_schedule(
            &req("jpeg-stream"),
            mesh,
            epochs,
            &cost,
            &AdmitLimits::default(),
        )
        .unwrap();
        assert!(recheck_quote(&req("jpeg-stream"), &a.quote).is_ok());
        let mut tight = req("jpeg-stream");
        tight.max_tiles = Some(1);
        assert_eq!(recheck_quote(&tight, &a.quote).unwrap_err().code, "V131");
        let mut deny = req("jpeg-stream");
        deny.deny_lint_warnings = true;
        let rej = recheck_quote(&deny, &a.quote).unwrap_err();
        assert!(rej.code.starts_with('L'), "{}", rej.code);
    }
}
