//! # dvdc-bench
//!
//! Benchmark harness and figure/table regeneration for the DVDC
//! reproduction.
//!
//! Each binary in `src/bin/` regenerates one figure, table, or prose claim
//! from the paper (see the experiment index in `DESIGN.md`). This library
//! holds the small amount of shared output plumbing.

#![forbid(unsafe_code)]

pub mod swarm;

use std::fs;
use std::path::PathBuf;

use dvdc::placement::GroupPlacement;
use dvdc::protocol::DvdcProtocol;
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::Cluster;
use dvdc_vcluster::ids::NodeId;
use serde::Serialize;

/// The Fig. 1 / Fig. 3 configuration: [`GroupPlacement::dedicated`] on
/// `checkpoint_node`, incremental captures. Its readers take the parity
/// synchronously — the guests pause for a round's whole latency — since
/// the first-shot design predates Section IV-C's background transport.
pub fn checkpoint_node_protocol(cluster: &Cluster, checkpoint_node: NodeId) -> DvdcProtocol {
    let placement = GroupPlacement::dedicated(cluster, checkpoint_node)
        .expect("the last node is VM-less and compute nodes are uniform");
    DvdcProtocol::new(placement)
}

/// One protocol's row in `remus_compare` (Section VI).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompareRecord {
    /// Row label.
    pub protocol: String,
    /// Cross-node redundancy: parity blocks (DVDC) or standby replicas
    /// (Remus) — the paper's "single parity checkpoint of the entire RAID
    /// group" vs. "fully functional VM" distinction.
    pub cross_node_redundancy_bytes: usize,
    /// Every byte of redundant state the scheme holds.
    pub total_protocol_bytes: usize,
    /// Time to bring the failed node's VMs back.
    pub repair_secs: f64,
    /// Whether VMs on surviving nodes lose their progress too.
    pub rolls_back_survivors: bool,
    /// Guest pause of one round.
    pub round_overhead_secs: f64,
    /// Bytes one full (first) round puts on the network.
    pub round_network_bytes: usize,
}

/// Section VI's Remus comparator as a cost row over `cluster` and its
/// fabric, in the protected steady state before `failed` dies. Every VM
/// has a full standby replica on a partner node, refreshed by
/// asynchronous checkpoints: a round pauses the guest only for a 1 ms
/// buffer flip and ships every image (the first round is full); the
/// replicas hold every image; on failure the partner resumes the failed
/// node's VMs from their replicas (one link transfer and one memory copy
/// of their bytes) and no survivor rolls back.
pub fn remus_row(cluster: &Cluster, failed: NodeId) -> CompareRecord {
    let fabric = cluster.fabric();
    let images = cluster.total_vm_bytes();
    let lost: usize = cluster
        .vms_on(failed)
        .iter()
        .map(|&vm| cluster.vm(vm).memory().size_bytes())
        .sum();
    CompareRecord {
        protocol: "remus-like".into(),
        cross_node_redundancy_bytes: images,
        total_protocol_bytes: images,
        repair_secs: (fabric.network.link_transfer(lost) + fabric.memory.copy(lost)).as_secs(),
        rolls_back_survivors: false,
        round_overhead_secs: Duration::from_millis(1.0).as_secs(),
        round_network_bytes: images,
    }
}

/// Renders a text table with a header row and aligned columns.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .zip(widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Writes an experiment's machine-readable record next to the repo
/// (`bench_results/<name>.json`). Failures to write are reported but not
/// fatal — the stdout table is the primary artifact.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warn: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warn: cannot write {}: {e}", path.display());
            } else {
                eprintln!("wrote {}", path.display());
            }
        }
        Err(e) => eprintln!("warn: cannot serialise {name}: {e}"),
    }
}

/// Where experiment JSON lands: `$CARGO_MANIFEST_DIR/../../bench_results`
/// (the workspace root) or `./bench_results` as a fallback.
fn results_dir() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let mut p = PathBuf::from(manifest);
    p.pop();
    p.pop();
    p.push("bench_results");
    p
}

/// Formats a byte count with binary units.
pub fn human_bytes(bytes: usize) -> String {
    const UNITS: [&str; 5] = ["B", "KiB", "MiB", "GiB", "TiB"];
    let mut v = bytes as f64;
    let mut unit = 0;
    while v >= 1024.0 && unit < UNITS.len() - 1 {
        v /= 1024.0;
        unit += 1;
    }
    if unit == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[unit])
    }
}

/// Formats seconds adaptively (µs/ms/s/h).
pub fn human_secs(secs: f64) -> String {
    if secs >= 3600.0 {
        format!("{:.2} h", secs / 3600.0)
    } else if secs >= 1.0 {
        format!("{secs:.3} s")
    } else if secs >= 1e-3 {
        format!("{:.3} ms", secs * 1e3)
    } else {
        format!("{:.1} µs", secs * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[3].ends_with("22"));
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(human_bytes(512), "512 B");
        assert_eq!(human_bytes(2048), "2.00 KiB");
        assert_eq!(human_bytes(3 << 30), "3.00 GiB");
    }

    #[test]
    fn secs_formatting() {
        assert_eq!(human_secs(7200.0), "2.00 h");
        assert_eq!(human_secs(2.5), "2.500 s");
        assert_eq!(human_secs(0.04), "40.000 ms");
        assert_eq!(human_secs(5e-6), "5.0 µs");
    }
}
