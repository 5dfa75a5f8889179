//! Buggify swarm runner: sweep many seeds × intensities across the
//! workload × fault-domain matrix of the model, and the same seeds across
//! the layouts, plans and restart delays of the daemon's `NodeCore`s on
//! the harness; print per-intensity outcome counts and a repro line for
//! every failure, and write both sweeps as JSON: to the committed
//! `bench_results/swarm.json` for the configuration it records (36 seeds
//! from 1, quick, 4 rounds), to `target/swarm-<seeds>-<intensities>.json`
//! for any other.
//!
//! Knobs (all env, all optional):
//!
//! * `DVDC_SWARM_SEEDS` — seeds per intensity (default 500; 25
//!   consecutive seeds cover the 5 × 5 matrix once).
//! * `DVDC_SWARM_BASE` — first seed (default 1).
//! * `DVDC_SWARM_INTENSITIES` — comma list of `off,quick,standard,
//!   aggressive` (default `quick,standard,aggressive`).
//! * `DVDC_SWARM_ROUNDS` — checkpoint rounds per cell (default 4).
//! * `DVDC_BUGGIFY_SEED` — run exactly one seed instead of a sweep
//!   (repro mode; pairs with `DVDC_BUGGIFY_INTENSITY`).
//!
//! Exit status is non-zero iff any cell of either sweep failed (panic,
//! auditor violation, or unexpected protocol error) — honest typed data
//! loss and rollbacks are expected outcomes, not failures.

use std::process::ExitCode;

use dvdc_bench::swarm::{run_swarm, CellStatus, Subject, SwarmConfig, SwarmSummary};
use dvdc_bench::{render_table, write_json, write_json_in};
use dvdc_faults::buggify::{self, Intensity};

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn intensities() -> Vec<Intensity> {
    let spec = std::env::var("DVDC_SWARM_INTENSITIES")
        .unwrap_or_else(|_| "quick,standard,aggressive".to_string());
    let list: Vec<Intensity> = spec
        .split(',')
        .filter_map(|s| Intensity::parse(s.trim()))
        .collect();
    if list.is_empty() {
        vec![Intensity::Quick]
    } else {
        list
    }
}

fn main() -> ExitCode {
    let repro_seed = std::env::var(buggify::SEED_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok());
    let cfg = match repro_seed {
        Some(seed) => SwarmConfig {
            base_seed: seed,
            seeds: 1,
            intensities: vec![std::env::var(buggify::INTENSITY_ENV)
                .ok()
                .and_then(|v| Intensity::parse(&v))
                .unwrap_or(Intensity::Quick)],
            rounds: env_u64("DVDC_SWARM_ROUNDS", 4),
            shrink: true,
        },
        None => SwarmConfig {
            base_seed: env_u64("DVDC_SWARM_BASE", 1),
            seeds: env_u64("DVDC_SWARM_SEEDS", 500),
            intensities: intensities(),
            rounds: env_u64("DVDC_SWARM_ROUNDS", 4),
            shrink: true,
        },
    };

    println!(
        "buggify swarm: seeds {}..{} x {:?}, {} rounds/cell",
        cfg.base_seed,
        cfg.base_seed + cfg.seeds,
        cfg.intensities.iter().map(|i| i.name()).collect::<Vec<_>>(),
        cfg.rounds,
    );
    let sweeps = Sweeps {
        matrix: run_swarm(Subject::Model, &cfg),
        core: run_swarm(Subject::Core, &cfg),
    };
    println!("\nmodel, workload x fault-schedule matrix");
    print_summary(&sweeps.matrix, &cfg);
    println!("\nNodeCore on the harness, layout x plan x restart delay");
    print_summary(&sweeps.core, &cfg);
    let names: Vec<&str> = cfg.intensities.iter().map(|i| i.name()).collect();
    let committed = (cfg.base_seed, cfg.seeds, cfg.rounds) == (1, 36, 4) && names == ["quick"];
    match committed && repro_seed.is_none() {
        true => write_json("swarm", &sweeps),
        false => {
            let name = format!("swarm-{}-{}", cfg.seeds, names.join("-"));
            write_json_in("target", &name, &sweeps)
        }
    }
    let (cells, failed) = (
        sweeps.matrix.cells + sweeps.core.cells,
        sweeps.matrix.failed + sweeps.core.failed,
    );
    if failed == 0 {
        println!(
            "\nswarm clean: {cells} cells, 0 panics, 0 auditor violations, 0 unexpected errors"
        );
        ExitCode::SUCCESS
    } else {
        println!("\nswarm FAILED: {failed} failing cells");
        ExitCode::FAILURE
    }
}

/// What `bench_results/swarm.json` holds: the two sweeps side by side.
#[derive(serde::Serialize)]
struct Sweeps {
    matrix: SwarmSummary,
    core: SwarmSummary,
}

fn print_summary(summary: &SwarmSummary, cfg: &SwarmConfig) {
    let mut rows = Vec::new();
    for intensity in &cfg.intensities {
        let name = intensity.name();
        let cells: Vec<_> = summary
            .outcomes
            .iter()
            .filter(|c| c.intensity == name)
            .collect();
        let count = |s: CellStatus| cells.iter().filter(|c| c.status == s).count();
        rows.push(vec![
            name.to_string(),
            cells.len().to_string(),
            count(CellStatus::Committed).to_string(),
            count(CellStatus::Degraded).to_string(),
            count(CellStatus::DataLoss).to_string(),
            count(CellStatus::Failed).to_string(),
            cells.iter().map(|c| c.fired).sum::<u64>().to_string(),
        ]);
    }
    println!();
    print!(
        "{}",
        render_table(
            &[
                "intensity",
                "cells",
                "committed",
                "degraded",
                "data-loss",
                "failed",
                "points-fired"
            ],
            &rows,
        )
    );
    for line in summary.repro_lines() {
        println!("FAILURE {line}");
    }
}
