//! The workload × fault-domain matrix: every composable workload crossed
//! with every fault schedule — including correlated rack and DC kills on
//! a hierarchical DC → rack → node topology — driven through the
//! detector-supervised round harness with the invariant auditor attached
//! to every scenario. The matrix asserts the composition itself: each
//! pairing runs to completion with a causally clean event stream, every
//! round accounted for, and data loss only where the failure pattern
//! honestly exceeds the parity tolerance.

use std::rc::Rc;

use dvdc::placement::GroupPlacement;
use dvdc::protocol::DvdcProtocol;
use dvdc::scenario::{run_scenario, ScenarioConfig, ScenarioReport};
use dvdc_bench::swarm::{build_cluster, make_schedule, make_workload, SCHEDULES, WORKLOADS};
use dvdc_faults::{FaultSchedule, Quiet};
use dvdc_observe::audit::InvariantAuditor;
use dvdc_observe::RecorderHandle;
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::Duration;

/// Runs one cell of the matrix under a fresh cluster, protocol, and
/// auditor; panics (with the cell named) on any protocol error or
/// auditor violation.
fn run_cell(
    workload: u64,
    schedule: &dyn FaultSchedule,
    seed: u64,
    cfg: &ScenarioConfig,
) -> ScenarioReport {
    let (wl_name, mut workload) = make_workload(workload);
    let ctx = format!("cell {wl_name} x {}", schedule.name());
    let mut cluster = build_cluster(seed);
    let placement = GroupPlacement::orthogonal(&cluster, 3, 1)
        .unwrap_or_else(|e| panic!("{ctx}: placement failed: {e}"));
    assert!(
        placement.is_rack_orthogonal(&cluster),
        "{ctx}: 6 racks fit k+m=4 rack-orthogonally"
    );
    let audit = Rc::new(InvariantAuditor::new());
    let mut protocol =
        DvdcProtocol::new(placement).with_recorder(RecorderHandle::new(audit.clone()));
    let hub = RngHub::new(seed);
    let report = run_scenario(
        &mut protocol,
        &mut cluster,
        workload.as_mut(),
        schedule,
        cfg,
        &hub,
    )
    .unwrap_or_else(|e| panic!("{ctx}: scenario failed: {e}"));
    audit.assert_clean();
    assert!(audit.events_seen() > 0, "{ctx}: auditor saw no events");
    // Every round is accounted for: the initial epoch commit plus each
    // driven round ending in commit, rollback, or an honest skip.
    assert_eq!(
        (report.rounds_committed - 1) + report.rollbacks + report.rounds_skipped,
        cfg.rounds,
        "{ctx}: rounds unaccounted: {report:?}"
    );
    // Data loss is only legitimate under the correlated/catastrophic
    // schedules (a DC kill erases half the cluster; simultaneous rack
    // kills or crash pile-ups can exceed m=1); the benign axes must be
    // lossless.
    if matches!(schedule.name(), "quiet" | "impairment-storm") {
        assert!(
            report.lossless(),
            "{ctx}: lost data without a kill: {report:?}"
        );
    }
    report
}

#[test]
fn workload_by_fault_domain_matrix_is_clean() {
    let cfg = ScenarioConfig {
        rounds: 6,
        round_gap: Duration::from_secs(0.5),
    };
    let mut cells = 0u64;
    let mut rack_or_dc_confirmations = 0u64;
    let mut all: Vec<ScenarioReport> = Vec::new();
    for wi in 0..WORKLOADS {
        for si in 0..SCHEDULES {
            let schedule = make_schedule(si, cfg.horizon());
            let seed = 1000 + wi * 16 + si;
            let report = run_cell(wi, schedule.as_ref(), seed, &cfg);
            if matches!(schedule.name(), "rack-kills" | "dc-kill") {
                rack_or_dc_confirmations += report.confirmations;
            }
            all.push(report);
            cells += 1;
        }
    }
    assert_eq!(cells, 25, "5 workloads x 5 schedules");
    assert!(
        rack_or_dc_confirmations > 0,
        "correlated kills never drew a detector verdict across the matrix"
    );
    // The workload axis actually did its thing somewhere in the matrix.
    assert!(all.iter().any(|r| r.migrations > 0), "churn never migrated");
    assert!(
        all.iter().any(|r| r.restarts > 0),
        "rolling restarts never restarted"
    );
    assert!(
        all.iter().any(|r| r.scrubs > 0),
        "scrub storm never scrubbed"
    );
}

/// The quiet column in isolation: every workload against no faults at
/// all must commit every round losslessly — the workload axis alone
/// never endangers data.
#[test]
fn every_workload_is_lossless_under_quiet_faults() {
    let cfg = ScenarioConfig {
        rounds: 5,
        round_gap: Duration::from_secs(0.4),
    };
    for wi in 0..WORKLOADS {
        let report = run_cell(wi, &Quiet, 7 + wi, &cfg);
        let wl_name = &report.workload;
        assert_eq!(
            report.rounds_committed,
            cfg.rounds + 1,
            "{wl_name}: quiet scenario must commit every round: {report:?}"
        );
        assert_eq!(report.rollbacks, 0, "{wl_name}: {report:?}");
        assert!(report.lossless(), "{wl_name}: {report:?}");
    }
}
