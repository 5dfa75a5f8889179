//! `dvdc-sim` — command-line driver for the DVDC reproduction.
//!
//! Subcommands:
//!
//! * `plan`  — build and display an orthogonal RAID-group placement.
//! * `drill` — take a checkpoint, kill the listed nodes, verify recovery.
//! * `run`   — end-to-end job simulation under Poisson failures.
//! * `model` — the Section V analytics: optimal intervals and expected
//!   completion ratios for diskless vs disk-full.
//!
//! Run `dvdc-sim help` for the options of each.

mod args;

use std::process::ExitCode;
use std::rc::Rc;

use args::Args;
use dvdc::placement::GroupPlacement;
use dvdc::protocol::DvdcProtocol;
use dvdc::sim::JobRunner;
use dvdc_faults::mttdl::MttdlParams;
use dvdc_faults::trace::parse_trace;
use dvdc_faults::{DomainShape, FaultSchedule, NodeCrashes};
use dvdc_model::{fig5, Fig5Params};
use dvdc_observe::chrome::chrome_trace;
use dvdc_observe::metrics::metrics_snapshot;
use dvdc_observe::{RecorderHandle, TraceRecorder};
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::{Cluster, ClusterBuilder};
use dvdc_vcluster::ids::NodeId;
use serde::Value;

const HELP: &str = "\
dvdc-sim — Distributed Virtual Diskless Checkpointing simulator

USAGE:
    dvdc-sim <COMMAND> [--key value ...]

COMMANDS:
    plan    Show the orthogonal RAID-group placement for a cluster
              --nodes N (4)  --vms-per-node V (3)  --group K (3)  --parity M (1)
              --rack-size R (0 = flat; R > 0 groups nodes into racks of R and
                placement becomes rack-orthogonal)
    drill   Checkpoint, kill nodes, verify byte-exact recovery
              options of `plan`, plus --kill n1,n2,... (0)  --seed S (42)
    run     Simulate a job under Poisson node failures (or a trace)
              options of `plan`, plus
              --protocol dvdc|first-shot (dvdc)
                first-shot is dvdc with every group's parity on the last node,
                which hosts no VMs (Fig. 1/3): N-1 compute nodes + 1 checkpointer;
                the disk-full baseline is a cost formula (`model`), not a run
              --job-secs T (600)  --interval N (30)
              --mtbf-secs M (400, per node)  --repair-secs R (5)  --seed S (42)
              --trace FILE (replay a time,node[,repair] CSV failure log)
              --trace-out FILE (write a Chrome trace-event JSON of the run,
                loadable in Perfetto / chrome://tracing; FILE.metrics.json
                lands next to it: the run's counters and latency
                histograms under the names `dvdc-ctl metrics --json`
                prints for a live node)
    model   Section V analytics (Figure 5 optima)
              --mtbf-hours H (3)  --job-days D (2)
              --nodes N (4)  --vms-per-node V (3)  --image-gib G (1)
    mttdl   RAID-window availability analysis
              --nodes N (16)  --node-mtbf-days D (30)  --repair-secs R (300)
    help    Show this message
";

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command() {
        Some("plan") => cmd_plan(&args),
        Some("drill") => cmd_drill(&args),
        Some("run") => cmd_run(&args),
        Some("model") => cmd_model(&args),
        Some("mttdl") => cmd_mttdl(&args),
        Some("help") | None => {
            print!("{HELP}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command '{other}'; see `dvdc-sim help`")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Builds the `--nodes` × `--vms-per-node` cluster; the last `spare`
/// nodes host no VMs.
fn build_cluster(args: &Args, spare: usize) -> Result<(Cluster, usize, usize), String> {
    let nodes = args.usize_or("nodes", 4).map_err(|e| e.to_string())?;
    let vms = args
        .usize_or("vms-per-node", 3)
        .map_err(|e| e.to_string())?;
    let seed = args.u64_or("seed", 42).map_err(|e| e.to_string())?;
    let rack_size = args.usize_or("rack-size", 0).map_err(|e| e.to_string())?;
    if nodes <= spare || vms == 0 {
        return Err(format!(
            "cluster needs at least {} node(s) and one VM per node",
            spare + 1
        ));
    }
    let mut builder = ClusterBuilder::new()
        .physical_nodes(nodes)
        .spare_nodes(spare)
        .vms_per_node(vms)
        .vm_memory(64, 4096);
    if rack_size > 0 {
        builder = builder.racks(rack_size);
    }
    let cluster = builder.build(seed);
    Ok((cluster, nodes, vms))
}

fn build_placement(args: &Args, cluster: &Cluster) -> Result<GroupPlacement, String> {
    let k = args.usize_or("group", 3).map_err(|e| e.to_string())?;
    let m = args.usize_or("parity", 1).map_err(|e| e.to_string())?;
    GroupPlacement::orthogonal(cluster, k, m).map_err(|e| e.to_string())
}

fn cmd_plan(args: &Args) -> Result<(), String> {
    let (cluster, nodes, vms) = build_cluster(args, 0)?;
    let placement = build_placement(args, &cluster)?;
    println!(
        "placement: {nodes} nodes × {vms} VMs, {} groups\n",
        placement.group_count()
    );
    for g in placement.groups() {
        let members: Vec<String> = g
            .data
            .iter()
            .map(|&v| format!("{v}@{}", cluster.node_of(v)))
            .collect();
        let parity: Vec<String> = g.parity_nodes.iter().map(|p| p.to_string()).collect();
        println!(
            "  {}: [{}] parity on {}",
            g.id,
            members.join(", "),
            parity.join(", ")
        );
    }
    println!(
        "\nparity blocks per node: {:?}",
        placement.parity_load(nodes)
    );
    if !cluster.topology().is_flat() {
        println!(
            "topology: {} racks in {} DC(s); rack-orthogonal: {}",
            cluster.topology().rack_count(),
            cluster.topology().dc_count(),
            if placement.is_rack_orthogonal(&cluster) {
                "yes — no rack holds two members of any group"
            } else {
                "NO"
            }
        );
    }
    println!("worst-case members lost per group on any single node failure:");
    let mut worst = 0;
    for node in cluster.node_ids() {
        for (_, hits) in placement.impact_of_node_failure(&cluster, node) {
            worst = worst.max(hits);
        }
    }
    println!(
        "  {worst} (tolerance per group: {})",
        placement.groups()[0].parity_count()
    );
    Ok(())
}

fn cmd_drill(args: &Args) -> Result<(), String> {
    let (mut cluster, _, _) = build_cluster(args, 0)?;
    let placement = build_placement(args, &cluster)?;
    let kills = {
        let list = args.usize_list("kill").map_err(|e| e.to_string())?;
        if list.is_empty() {
            vec![0]
        } else {
            list
        }
    };
    for &k in &kills {
        if k >= cluster.node_count() {
            return Err(format!("--kill {k}: no such node"));
        }
    }

    let mut protocol = DvdcProtocol::new(placement);
    protocol
        .run_round(&mut cluster)
        .map_err(|e| e.to_string())?;
    let want: Vec<Vec<u8>> = cluster
        .vm_ids()
        .iter()
        .map(|&v| cluster.vm(v).memory().snapshot())
        .collect();

    for &k in &kills {
        cluster.fail_node(NodeId(k));
    }
    println!("killed nodes {kills:?}");
    for &k in &kills {
        let rep = protocol
            .recover(&mut cluster, NodeId(k))
            .map_err(|e| e.to_string())?;
        println!(
            "  node{k}: rebuilt {} VMs + {} parity block(s) in {}",
            rep.recovered_vms.len(),
            rep.parity_rebuilt.len(),
            rep.repair_time
        );
    }
    for (i, vm) in cluster.vm_ids().into_iter().enumerate() {
        if cluster.vm(vm).memory().snapshot() != want[i] {
            return Err(format!("{vm}: recovered bytes differ!"));
        }
    }
    println!("all {} VM images byte-exact after recovery ✓", want.len());
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let protocol_name = args.str_or("protocol", "dvdc");
    let spare = usize::from(protocol_name == "first-shot");
    let (mut cluster, nodes, _) = build_cluster(args, spare)?;
    let job = args.f64_or("job-secs", 600.0).map_err(|e| e.to_string())?;
    let interval = args.f64_or("interval", 30.0).map_err(|e| e.to_string())?;
    let mtbf = args.f64_or("mtbf-secs", 400.0).map_err(|e| e.to_string())?;
    let repair = args.f64_or("repair-secs", 5.0).map_err(|e| e.to_string())?;
    let seed = args.u64_or("seed", 42).map_err(|e| e.to_string())?;

    let hub = RngHub::new(seed);
    let plan = match args.get("trace") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read trace '{path}': {e}"))?;
            parse_trace(&text, Duration::from_secs(repair)).map_err(|e| e.to_string())?
        }
        None => NodeCrashes::exponential(Duration::from_secs(mtbf), Duration::from_secs(repair))
            .plan(
                DomainShape::flat(nodes),
                Duration::from_secs(job * 20.0),
                &hub,
            ),
    };
    let runner = JobRunner::new(Duration::from_secs(job), Duration::from_secs(interval));

    // --trace-out: collect every structured event the run emits, for
    // export as Chrome trace JSON plus a metrics snapshot.
    let trace_out = args.get("trace-out").map(String::from);
    let trace_buf = trace_out
        .as_ref()
        .map(|_| Rc::new(TraceRecorder::unbounded()));
    let recorder = match &trace_buf {
        Some(buf) => RecorderHandle::new(buf.clone()),
        None => RecorderHandle::noop(),
    };

    // first-shot is Fig. 1/3: parity on the last node, taken while the
    // guests wait.
    let (protocol, runner) = match protocol_name.as_str() {
        "dvdc" => (DvdcProtocol::new(build_placement(args, &cluster)?), runner),
        "first-shot" => (
            DvdcProtocol::new(
                GroupPlacement::dedicated(&cluster, NodeId(nodes - 1))
                    .map_err(|e| e.to_string())?,
            ),
            runner.with_sync_parity(),
        ),
        other => return Err(format!("unknown protocol '{other}'")),
    };
    let outcome = runner
        .run_with_recorder(
            &mut protocol.with_recorder(recorder.clone()),
            &mut cluster,
            &plan,
            &hub,
            &recorder,
        )
        .map_err(|e| e.to_string())?;

    if let (Some(path), Some(buf)) = (trace_out.as_deref(), trace_buf.as_ref()) {
        let events = buf.events();
        let meta: Vec<(String, Value)> = vec![
            ("tool".into(), Value::Str("dvdc-sim run".into())),
            ("protocol".into(), Value::Str(protocol_name.clone())),
            ("seed".into(), Value::U64(seed)),
            ("nodes".into(), Value::U64(nodes as u64)),
            ("job_secs".into(), Value::F64(job)),
            ("interval_secs".into(), Value::F64(interval)),
            ("mtbf_secs".into(), Value::F64(mtbf)),
        ];
        let trace_json = chrome_trace(&events, &meta);
        std::fs::write(path, trace_json)
            .map_err(|e| format!("cannot write trace '{path}': {e}"))?;
        let metrics_path = format!("{path}.metrics.json");
        std::fs::write(&metrics_path, metrics_snapshot(&events))
            .map_err(|e| format!("cannot write metrics '{metrics_path}': {e}"))?;
        println!(
            "trace             : {path} ({} events; metrics in {metrics_path})",
            events.len()
        );
    }

    println!("protocol          : {protocol_name}");
    println!(
        "job / wall clock  : {job:.1} s / {:.1} s",
        outcome.wall_time.as_secs()
    );
    println!(
        "completion ratio  : {:.4}",
        outcome.completion_ratio(Duration::from_secs(job))
    );
    println!("checkpoint rounds : {}", outcome.rounds);
    println!("failures          : {}", outcome.failures);
    println!("recoveries        : {}", outcome.recoveries);
    println!("lost work         : {:.1} s", outcome.lost_work.as_secs());
    println!(
        "checkpoint overhead: {:.3} s | repair: {:.3} s",
        outcome.overhead_total.as_secs(),
        outcome.repair_total.as_secs()
    );
    if outcome.restarted_from_scratch {
        println!("NOTE: an unrecoverable pattern forced a restart from scratch");
    }
    Ok(())
}

fn cmd_model(args: &Args) -> Result<(), String> {
    let mtbf_h = args.f64_or("mtbf-hours", 3.0).map_err(|e| e.to_string())?;
    let job_d = args.f64_or("job-days", 2.0).map_err(|e| e.to_string())?;
    let nodes = args.usize_or("nodes", 4).map_err(|e| e.to_string())?;
    let vms = args
        .usize_or("vms-per-node", 3)
        .map_err(|e| e.to_string())?;
    let gib = args.f64_or("image-gib", 1.0).map_err(|e| e.to_string())?;
    if mtbf_h <= 0.0 || job_d <= 0.0 || gib <= 0.0 {
        return Err("mtbf-hours, job-days and image-gib must be positive".into());
    }

    let params = Fig5Params {
        lambda: 1.0 / (mtbf_h * 3600.0),
        total_work: Duration::from_days(job_d),
        nodes,
        vms_per_node: vms,
        vm_image_bytes: (gib * (1u64 << 30) as f64) as usize,
        ..Fig5Params::default()
    };
    let r = fig5::run(&params);
    println!(
        "Section V model | MTBF {mtbf_h} h | job {job_d} d | {nodes}×{vms} VMs of {gib} GiB\n"
    );
    for c in [&r.diskless, &r.disk_full] {
        println!(
            "{:<10} T_int* = {:>8.1} s   E[T]/T = {:.4}   (round overhead {:.3} s)",
            c.label, c.optimal_interval, c.optimal_ratio, c.overhead_secs
        );
    }
    println!(
        "\ndiskless reduces expected completion time by {:.1}%",
        r.reduction_at_optima * 100.0
    );
    let daly = dvdc_model::optimize::daly_interval(params.lambda, r.diskless.overhead_secs);
    println!("(Daly's closed-form interval for diskless: {daly:.1} s; exact search above)");
    Ok(())
}

fn cmd_mttdl(args: &Args) -> Result<(), String> {
    let nodes = args.usize_or("nodes", 16).map_err(|e| e.to_string())?;
    let mtbf_days = args
        .f64_or("node-mtbf-days", 30.0)
        .map_err(|e| e.to_string())?;
    let repair = args
        .f64_or("repair-secs", 300.0)
        .map_err(|e| e.to_string())?;
    if nodes < 3 || mtbf_days <= 0.0 || repair < 0.0 {
        return Err("need nodes ≥ 3, positive MTBF, non-negative repair".into());
    }
    let p = MttdlParams {
        nodes,
        node_mtbf: Duration::from_days(mtbf_days),
        repair: Duration::from_secs(repair),
    };
    let years = |d: Duration| d.as_secs() / (365.25 * 86_400.0);
    println!("MTTDL | {nodes} nodes | node MTBF {mtbf_days} d | repair {repair} s\n");
    println!(
        "  P(second failure inside a repair window): {:.3e}",
        p.overlap_probability()
    );
    println!(
        "  MTTDL, single parity (m=1): {:>12.2} years",
        years(p.mttdl_single_parity())
    );
    println!(
        "  MTTDL, double parity (m=2): {:>12.2} years",
        years(p.mttdl_double_parity())
    );
    println!(
        "  P(survive one year, m=1):   {:>12.6}",
        p.survival_probability(Duration::from_days(365.0), 1)
    );
    Ok(())
}
