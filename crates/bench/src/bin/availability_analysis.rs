//! Availability analysis — how long until DVDC actually loses data?
//!
//! The paper positions DVDC as "highly fault tolerant"; this experiment
//! quantifies that with the classic RAID MTTDL analysis over the
//! overlapping-repair window (the only way single parity dies), across
//! cluster sizes and repair speeds, for m = 1 (XOR) and m = 2 (Reed–Solomon)
//! — and shows why DVDC's fast in-memory rebuild matters: the repair time
//! in the denominator is *seconds*, not the hours a disk-array rebuild
//! takes.
//!
//! Run: `cargo run -p dvdc-bench --bin availability_analysis`

use dvdc::placement::GroupPlacement;
use dvdc::protocol::{run_round_with_faults, DvdcProtocol, PhasedOutcome};
use dvdc_bench::{render_table, write_json};
use dvdc_faults::mttdl::MttdlParams;
use dvdc_faults::{ClusterFaultPlan, NodeFault, PlanCursor};
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::{Duration, SimTime};
use dvdc_vcluster::cluster::ClusterBuilder;
use rand::Rng;
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    nodes: usize,
    repair_secs: f64,
    mttdl_single_years: f64,
    mttdl_double_years: f64,
    one_year_survival_single: f64,
}

fn years(d: Duration) -> f64 {
    d.as_secs() / (365.25 * 86_400.0)
}

fn main() {
    // A 3 h *cluster* MTBF (the paper's operating point) on a large
    // machine corresponds to per-node MTBFs of weeks to months; we use
    // one month per node so cluster sizes map onto realistic rates.
    println!("MTTDL analysis — per-node MTBF 1 month\n");
    let mtbf = Duration::from_days(30.0);

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for nodes in [4usize, 16, 64, 256] {
        for repair_secs in [30.0f64, 300.0, 3600.0] {
            let p = MttdlParams {
                nodes,
                node_mtbf: mtbf,
                repair: Duration::from_secs(repair_secs),
            };
            let single = years(p.mttdl_single_parity());
            let double = years(p.mttdl_double_parity());
            let survival = p.survival_probability(Duration::from_days(365.0), 1);
            rows.push(vec![
                nodes.to_string(),
                format!("{repair_secs:.0} s"),
                format!("{single:.1}"),
                format!("{double:.2e}"),
                format!("{:.6}", survival),
            ]);
            records.push(Row {
                nodes,
                repair_secs,
                mttdl_single_years: single,
                mttdl_double_years: double,
                one_year_survival_single: survival,
            });
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "nodes",
                "repair",
                "MTTDL m=1 (years)",
                "MTTDL m=2 (years)",
                "P(survive 1 y, m=1)",
            ],
            &rows
        )
    );

    println!("the repair term dominates: DVDC's in-memory rebuild (~seconds) buys");
    println!("orders of magnitude of MTTDL over an hour-long disk-array rebuild,");
    println!("and m=2 multiplies on top — the quantitative case for the paper's");
    println!("\"highly fault tolerant\" title.\n");

    // Structural checks.
    for w in records.chunks(3) {
        // Within one node count, slower repair ⇒ shorter MTTDL.
        assert!(w[0].mttdl_single_years > w[1].mttdl_single_years);
        assert!(w[1].mttdl_single_years > w[2].mttdl_single_years);
    }
    assert!(records
        .iter()
        .all(|r| r.mttdl_double_years > r.mttdl_single_years));
    write_json("availability_analysis", &records);

    simulated_mid_round_availability();
    rack_domain_availability();
}

#[derive(Serialize)]
struct MidRoundRow {
    parity_blocks: usize,
    faults_planned: usize,
    faults_fired: usize,
    rounds: usize,
    rounds_run: usize,
    committed: usize,
    rolled_back: usize,
    nodes_recovered: usize,
    commit_fraction: f64,
    data_loss_round: Option<usize>,
    suspicions: u64,
    confirmations: u64,
    false_failovers: u64,
    resyncs: u64,
    mean_detection_ms: Option<f64>,
}

/// The honest availability numbers the analytic MTTDL table can't give:
/// phased rounds driven as discrete events with faults injected at their
/// scheduled instants — *including mid-round*, the window the atomic
/// `run_round` could never expose. Counts how many rounds commit versus
/// roll back under increasing fault pressure.
fn simulated_mid_round_availability() {
    println!("\nSimulated mid-round availability — 6 nodes x 2 VMs, k = 3, 120 rounds\n");
    const ROUNDS: usize = 120;
    const HORIZON_SECS: f64 = 1200.0;

    let mut rows = Vec::new();
    let mut records = Vec::new();
    for m in [1usize, 2] {
        for faults_planned in [4usize, 16, 48] {
            let seed = 1000 + 10 * m as u64 + faults_planned as u64;
            let mut cluster = ClusterBuilder::new()
                .physical_nodes(6)
                .vms_per_node(2)
                .vm_memory(8, 32)
                .writes_per_sec(200.0)
                .build(seed);
            let placement =
                GroupPlacement::orthogonal(&cluster, 3, m).expect("6x2 supports k=3 with m parity");
            let mut protocol = DvdcProtocol::new(placement);

            let hub = RngHub::new(seed);
            let mut frng = hub.stream("faults");
            let mut at: Vec<f64> = (0..faults_planned)
                .map(|_| frng.random_range(0.0..HORIZON_SECS))
                .collect();
            at.sort_by(f64::total_cmp);
            // Mostly crashes, but every fourth fault is a transient hang
            // whose span straddles the detector's windows — some heal
            // invisibly, some draw suspicion, some get falsely failed over
            // and must resync. That exercises the detection columns below.
            let faults: Vec<NodeFault> = at
                .into_iter()
                .enumerate()
                .map(|(i, t)| {
                    let node = frng.random_range(0..6);
                    let when = SimTime::from_secs(t);
                    if i % 4 == 3 {
                        let span = Duration::from_millis(frng.random_range(5.0..150.0));
                        NodeFault::hang(node, when, span)
                    } else {
                        NodeFault::crash(node, when, Duration::ZERO)
                    }
                })
                .collect();
            let plan = ClusterFaultPlan::new(faults);
            let mut cursor = PlanCursor::new(&plan);

            let (mut committed, mut rolled_back, mut recovered) = (0usize, 0usize, 0usize);
            let (mut suspicions, mut confirmations) = (0u64, 0u64);
            let (mut false_failovers, mut resyncs) = (0u64, 0u64);
            let mut latencies: Vec<f64> = Vec::new();
            let mut data_loss_round = None;
            let mut rounds_run = 0usize;
            let mut now = SimTime::ZERO;
            for round in 0..ROUNDS {
                cluster.run_all(Duration::from_secs(HORIZON_SECS / ROUNDS as f64), |vm| {
                    hub.subhub("work", round as u64)
                        .stream_indexed("vm", vm.index() as u64)
                });
                now += Duration::from_secs(HORIZON_SECS / ROUNDS as f64);
                let (outcome, end) =
                    match run_round_with_faults(&mut protocol, &mut cluster, &mut cursor, now) {
                        Ok(v) => v,
                        // Overlapping failures (a crash landing while a
                        // falsely-failed-over node is still out) can exceed
                        // the code's tolerance — genuine data loss, the very
                        // event the MTTDL table prices. Record it and stop
                        // this configuration.
                        Err(e) => {
                            assert!(
                                matches!(e, dvdc::protocol::ProtocolError::Unrecoverable { .. }),
                                "only tolerance-exceeded failures may end a run: {e}"
                            );
                            data_loss_round = Some(round);
                            break;
                        }
                    };
                rounds_run += 1;
                now = end;
                let det = *outcome.detection();
                suspicions += det.suspicions;
                confirmations += det.confirmations;
                false_failovers += det.false_failovers;
                resyncs += det.resyncs;
                if let Some(lat) = det.first_detection_latency {
                    latencies.push(lat.as_millis());
                }
                let lost = !outcome.data_loss().is_empty();
                match outcome {
                    PhasedOutcome::Committed { recovered: r, .. } => {
                        committed += 1;
                        recovered += r.len();
                    }
                    PhasedOutcome::RolledBack { recoveries, .. } => {
                        rolled_back += 1;
                        recovered += recoveries.len();
                    }
                }
                if lost {
                    // Overlapping failures exceeded the code's tolerance:
                    // honest data loss (the victim stays down with its
                    // loss on record) — the very event the MTTDL table
                    // prices. Record it and stop this configuration.
                    data_loss_round = Some(round);
                    break;
                }
                assert!(
                    cluster.node_ids().iter().all(|&n| cluster.is_up(n)),
                    "every lossless outcome ends fully repaired"
                );
            }

            let fired = faults_planned - cursor.remaining();
            let fraction = committed as f64 / rounds_run.max(1) as f64;
            let mean_detection_ms = if latencies.is_empty() {
                None
            } else {
                Some(latencies.iter().sum::<f64>() / latencies.len() as f64)
            };
            rows.push(vec![
                format!("{m}"),
                faults_planned.to_string(),
                fired.to_string(),
                committed.to_string(),
                rolled_back.to_string(),
                recovered.to_string(),
                format!("{fraction:.3}"),
                suspicions.to_string(),
                confirmations.to_string(),
                format!("{false_failovers}/{resyncs}"),
                mean_detection_ms
                    .map(|ms| format!("{ms:.1}"))
                    .unwrap_or_else(|| "-".into()),
                data_loss_round
                    .map(|r| format!("round {r}"))
                    .unwrap_or_else(|| "-".into()),
            ]);
            records.push(MidRoundRow {
                parity_blocks: m,
                faults_planned,
                faults_fired: fired,
                rounds: ROUNDS,
                rounds_run,
                committed,
                rolled_back,
                nodes_recovered: recovered,
                commit_fraction: fraction,
                data_loss_round,
                suspicions,
                confirmations,
                false_failovers,
                resyncs,
                mean_detection_ms,
            });
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "m",
                "faults planned",
                "fired",
                "committed",
                "rolled back",
                "recovered",
                "commit fraction",
                "suspected",
                "confirmed",
                "false-fo/resync",
                "mean det (ms)",
                "data loss",
            ],
            &rows
        )
    );
    println!("every interruption rolled back to the last committed epoch and the");
    println!("victim was rebuilt from survivors; availability under fault pressure");
    println!("is the commit fraction, not an assumption of atomic rounds. Failures");
    println!("are now *detected in-band* (suspected / confirmed columns): each one");
    println!("costs the heartbeat-timeout window before recovery starts, and hangs");
    println!("long enough to be confirmed get falsely failed over, fenced, and");
    println!("resynced (false-fo/resync) without ever corrupting committed state.\n");

    // Structural checks: fault pressure must cost commits, never safety —
    // and when overlapping failures exceed the code's tolerance the run
    // records data loss instead of pretending the round recovered.
    for w in records.chunks(3) {
        assert!(w[0].commit_fraction >= w[2].commit_fraction);
        assert!(w[2].rolled_back > 0, "48 planned faults must interrupt");
    }
    // Detection invariants: no failover without a confirmation, every
    // false failover resynced, and mid-round confirmations paid a latency
    // inside the detector's window (~60–70 ms by default, plus heartbeat
    // transit).
    for r in &records {
        assert!(r.confirmations >= r.false_failovers);
        // Every false failover resyncs; evacuated husks that crash later
        // also reboot through the resync path, so >= rather than ==.
        assert!(r.resyncs >= r.false_failovers);
        assert!(r.suspicions >= r.confirmations);
        if let Some(ms) = r.mean_detection_ms {
            assert!((30.0..500.0).contains(&ms), "mean detection {ms} ms");
        }
    }
    assert!(
        records.iter().any(|r| r.confirmations > 0),
        "fault pressure must produce in-band confirmations"
    );
    assert!(records
        .iter()
        .all(|r| r.committed + r.rolled_back == r.rounds_run));
    assert!(
        records
            .iter()
            .all(|r| r.data_loss_round.is_some() || r.rounds_run == r.rounds),
        "a run only stops early on data loss"
    );
    write_json("availability_midround", &records);
}

#[derive(Serialize)]
struct DomainRow {
    placement: &'static str,
    parity_blocks: usize,
    racks_tested: usize,
    racks_survived: usize,
    rack_loss_events: usize,
    confirmations: u64,
    recoveries: usize,
}

/// Correlated rack failures against the placement ablation: the same
/// 10-node / 5-rack / k = 3 cluster under the rack-blind layout (the
/// construction on a flat twin) versus the rack-aware one, for m = 1 and m = 2. Every rack is
/// killed in turn (fresh cluster each time) through the detector-
/// supervised round path; a kill that lands two members of one group in
/// the blast radius exceeds m = 1 and is recorded as honest data loss.
fn rack_domain_availability() {
    println!("\nCorrelated rack failures — 10 nodes in 5 racks of 2, k = 3\n");
    let mut rows = Vec::new();
    let mut records = Vec::new();
    for (placement_name, rack_aware) in [("flat (rack-blind)", false), ("rack-aware", true)] {
        for m in [1usize, 2] {
            let mut survived = 0usize;
            let mut loss_events = 0usize;
            let mut confirmations = 0u64;
            let mut recoveries = 0usize;
            let racks = 5usize;
            for rack in 0..racks {
                let seed = 7000 + 100 * m as u64 + rack as u64;
                let builder = ClusterBuilder::new()
                    .physical_nodes(10)
                    .vms_per_node(3)
                    .vm_memory(8, 32)
                    .writes_per_sec(200.0);
                let mut cluster = builder.clone().racks(2).build(seed);
                // Rack-blind: the same construction on a flat twin — same
                // node and VM ids — run on the racked cluster.
                let placement = if rack_aware {
                    GroupPlacement::orthogonal(&cluster, 3, m)
                } else {
                    GroupPlacement::orthogonal(&builder.build(seed), 3, m)
                }
                .expect("10x3 supports k=3 with m parity");
                assert_eq!(
                    placement.is_rack_orthogonal(&cluster),
                    rack_aware,
                    "the ablation must actually differ in rack-orthogonality"
                );
                let mut protocol = DvdcProtocol::new(placement);
                protocol.run_round(&mut cluster).expect("initial epoch");
                let plan = ClusterFaultPlan::new(vec![NodeFault::rack_failure(
                    rack,
                    SimTime::from_secs(1e-6),
                    Duration::ZERO,
                )]);
                let mut cursor = PlanCursor::new(&plan);
                match run_round_with_faults(&mut protocol, &mut cluster, &mut cursor, SimTime::ZERO)
                {
                    Ok((outcome, _)) => {
                        let det = *outcome.detection();
                        confirmations += det.confirmations;
                        if let PhasedOutcome::RolledBack { recoveries: r, .. } = &outcome {
                            recoveries += r.len();
                        }
                        if outcome.data_loss().is_empty() {
                            survived += 1;
                        } else {
                            loss_events += outcome.data_loss().len();
                        }
                    }
                    Err(e) => {
                        assert!(
                            matches!(e, dvdc::protocol::ProtocolError::Unrecoverable { .. }),
                            "only tolerance-exceeded failures may end a rack kill: {e}"
                        );
                        loss_events += 1;
                    }
                }
            }
            rows.push(vec![
                placement_name.to_string(),
                m.to_string(),
                racks.to_string(),
                survived.to_string(),
                loss_events.to_string(),
                confirmations.to_string(),
                recoveries.to_string(),
            ]);
            records.push(DomainRow {
                placement: placement_name,
                parity_blocks: m,
                racks_tested: racks,
                racks_survived: survived,
                rack_loss_events: loss_events,
                confirmations,
                recoveries,
            });
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "placement",
                "m",
                "racks killed",
                "survived",
                "loss events",
                "confirmed",
                "recovered",
            ],
            &rows
        )
    );
    println!("a rack-blind layout puts two members of one group behind a single");
    println!("rack switch, so m=1 loses data on the first whole-rack failure;");
    println!("the rack-aware placement caps every group at one member per rack");
    println!("and the same kill stays a recoverable single erasure. m=2 buys the");
    println!("blind layout back its safety by brute redundancy — rack-awareness");
    println!("delivers it without the extra parity volume.\n");

    // The headline claims, enforced: rack-aware m=1 survives every
    // single-rack kill; rack-blind m=1 loses data on at least one; m=2
    // survives even rack-blind (two erasures per group at most).
    let find = |name: &str, m: usize| {
        records
            .iter()
            .find(|r| r.placement == name && r.parity_blocks == m)
            .expect("ablation row present")
    };
    let aware1 = find("rack-aware", 1);
    assert_eq!(aware1.racks_survived, aware1.racks_tested);
    assert_eq!(aware1.rack_loss_events, 0);
    let blind1 = find("flat (rack-blind)", 1);
    assert!(
        blind1.rack_loss_events > 0 && blind1.racks_survived < blind1.racks_tested,
        "rack-blind m=1 must lose data under some whole-rack kill"
    );
    let blind2 = find("flat (rack-blind)", 2);
    assert_eq!(
        blind2.racks_survived, blind2.racks_tested,
        "m=2 tolerates both erasures of a two-node rack even rack-blind"
    );
    assert!(records.iter().all(|r| r.confirmations > 0));
    write_json("availability_domains", &records);
}
