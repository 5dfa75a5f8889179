//! Swarm smoke tier: a scaled-down sweep of the buggify swarm engine
//! (`dvdc_bench::swarm`) runs inside tier-1 so every commit proves the
//! fault points stay survivable. The full ≥500-seed sweep lives in the
//! `swarm` binary (nightly CI) and the `#[ignore]` soak test below.
//!
//! The contract under test is the tentpole's acceptance bar: for *any*
//! buggify seed and intensity, a scenario cell ends in a typed outcome —
//! every round committed, degraded-but-lossless, or honest typed data
//! loss — never a panic, never an invariant-auditor violation, never an
//! unexpected protocol error. And when a real bug *is* planted, the
//! swarm must catch it and shrink the repro to a minimal fault-point
//! set.

use dvdc_bench::swarm::{run_cell, run_swarm, CellStatus, Subject, SwarmConfig};
use dvdc_faults::buggify::Intensity;
use proptest::prelude::*;

/// Tier-1 smoke: two full matrix passes (25 seeds each) at quick and
/// aggressive intensity must produce zero failing cells, and buggify
/// must actually be exercising the callsites (points fired).
#[test]
fn swarm_smoke_two_matrix_passes_are_clean() {
    let cfg = SwarmConfig {
        base_seed: 1,
        seeds: 25,
        intensities: vec![Intensity::Quick, Intensity::Aggressive],
        rounds: 3,
        shrink: true,
    };
    let summary = run_swarm(Subject::Model, &cfg);
    assert_eq!(summary.cells, 50);
    assert_eq!(
        summary.failed,
        0,
        "failing cells:\n{}",
        summary.repro_lines().join("\n")
    );
    assert!(summary.fired > 0, "no fault point ever fired");
    assert!(summary.evaluated > summary.fired, "activation is not rare");
    // The sweep visited every workload and every schedule at least once.
    let outcomes = &summary.outcomes;
    for wl in [
        "steady",
        "bursty-storm",
        "migration-churn",
        "rolling-restarts",
        "scrub-storm",
    ] {
        assert!(outcomes.iter().any(|c| c.workload == wl), "missing {wl}");
    }
}

/// The same bar for the code the daemon runs: 36 consecutive seeds put
/// every `NodeCore` layout under every plan shape and every restart delay
/// once, four requested rounds each, with link delays fired from the same
/// registry; the first 12 again with blocks of three whole parts and a
/// ragged fourth, each part a message a link may hold back. No cell may
/// fail, and one that lost nothing ends whole.
#[test]
fn swarm_smoke_core_cells_are_clean() {
    for (subject, seeds) in [(Subject::Core, 36), (Subject::CoreInParts, 12)] {
        let cfg = SwarmConfig {
            base_seed: 1,
            seeds,
            intensities: vec![Intensity::Quick],
            rounds: 4,
            shrink: true,
        };
        let summary = run_swarm(subject, &cfg);
        assert_eq!(summary.cells, seeds);
        assert_eq!(
            summary.failed,
            0,
            "{subject:?} failing cells:\n{}",
            summary.repro_lines().join("\n")
        );
        assert!(summary.fired > 0, "{subject:?}: no link was ever delayed");
        let outcomes = &summary.outcomes;
        for layout in ["2+1", "4+1", "3+2", "4+2"] {
            assert!(outcomes.iter().any(|c| c.workload == layout), "{layout}");
        }
        for plan in ["node-crashes", "impairment-storm", "mixed"] {
            assert!(outcomes.iter().any(|c| c.schedule == plan), "{plan}");
        }
        assert!(summary.committed + summary.degraded > summary.data_loss);
    }
}

/// Failures that honestly exceed parity tolerance must surface as typed
/// data loss (status `DataLoss`), not failures — and rolled-back cells
/// must stay lossless.
#[test]
fn swarm_outcomes_are_typed_not_panics() {
    let cfg = SwarmConfig {
        base_seed: 100,
        seeds: 25,
        intensities: vec![Intensity::Standard],
        rounds: 3,
        shrink: true,
    };
    let summary = run_swarm(Subject::Model, &cfg);
    assert_eq!(summary.failed, 0, "{:?}", summary.repro_lines());
    // The matrix includes DC and rack kills: some honest loss must
    // appear, proving loss is reported rather than masked or panicked.
    assert!(
        summary.data_loss > 0,
        "a DC kill column with m=1 parity must lose data honestly"
    );
    for cell in &summary.outcomes {
        match cell.status {
            CellStatus::DataLoss => assert!(cell.data_loss > 0, "{cell:?}"),
            CellStatus::Committed | CellStatus::Degraded => {
                assert_eq!(cell.data_loss, 0, "{cell:?}")
            }
            CellStatus::Failed => unreachable!("asserted above"),
        }
    }
}

/// The full acceptance-bar soak: ≥500 seeds across the matrix, every
/// intensity tier. Run with `cargo test -- --ignored swarm_soak`.
#[test]
#[ignore = "full 500-seed sweep; the swarm binary is the CI entry point"]
fn swarm_soak_500_seeds_zero_failures() {
    let cfg = SwarmConfig {
        base_seed: 1,
        seeds: 500,
        intensities: vec![Intensity::Quick, Intensity::Standard, Intensity::Aggressive],
        rounds: 4,
        shrink: true,
    };
    let summary = run_swarm(Subject::Model, &cfg);
    assert_eq!(summary.cells, 1500);
    assert_eq!(
        summary.failed,
        0,
        "failing cells:\n{}",
        summary.repro_lines().join("\n")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite property: any seed × any intensity ends in a typed
    /// outcome. Cell runs are deterministic per (seed, intensity), so a
    /// counterexample here is a one-line repro by construction.
    #[test]
    fn any_seed_any_intensity_never_panics(
        seed in 0u64..1_000_000,
        tier in 0usize..4,
    ) {
        let intensity = [
            Intensity::Off,
            Intensity::Quick,
            Intensity::Standard,
            Intensity::Aggressive,
        ][tier];
        let cell = run_cell(Subject::Model, seed, intensity, 2, false);
        prop_assert!(
            cell.status != CellStatus::Failed,
            "seed {} at {} failed: {:?}",
            seed,
            intensity.name(),
            cell.failure
        );
        if intensity == Intensity::Off {
            prop_assert_eq!(cell.fired, 0);
        }
    }
}
