//! Property-based tests (proptest) on the workspace's core invariants:
//! erasure codes, placement orthogonality, the incremental parity
//! update, the dirty-rate model, and the analytical model's structural
//! properties.

use proptest::collection::vec;
use proptest::prelude::*;

use dvdc::placement::GroupPlacement;
use dvdc::protocol::delta_parity_update;
use dvdc::protocol::node_core::{ClusterSpec, Msg, NodeCore};
use dvdc_model::analytic;
use dvdc_parity::code::ErasureCode;
use dvdc_parity::raid5::XorCode;
use dvdc_parity::rs::ReedSolomon;
use dvdc_parity::xor::{is_zero, xor_all};
use dvdc_simcore::rng::RngHub;
use dvdc_simcore::time::SimTime;
use dvdc_vcluster::cluster::ClusterBuilder;
use dvdc_vcluster::ids::NodeId;
use dvdc_vcluster::workload::DirtyRateModel;

// ---------- erasure codes ----------

fn shards_strategy(k: usize, len: usize) -> impl Strategy<Value = Vec<Vec<u8>>> {
    vec(vec(any::<u8>(), len), k)
}

/// Every ordering of `0..n`.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    for shorter in permutations(n - 1) {
        for at in 0..n {
            let mut p = shorter.clone();
            p.insert(at, n - 1);
            out.push(p);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn xor_code_recovers_any_single_erasure(
        data in shards_strategy(4, 48),
        lost in 0usize..5,
    ) {
        let code = XorCode::new(4);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        let originals = shards.clone();
        shards[lost] = None;
        code.reconstruct(&mut shards).unwrap();
        prop_assert_eq!(shards, originals);
    }

    #[test]
    fn xor_group_with_parity_xors_to_zero(data in shards_strategy(5, 32)) {
        let code = XorCode::new(5);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs).remove(0);
        let mut all_refs: Vec<&[u8]> = refs.clone();
        all_refs.push(&parity);
        prop_assert!(is_zero(&xor_all(&all_refs)));
    }

    #[test]
    fn rs_recovers_any_m_erasures(
        data in shards_strategy(5, 24),
        lost in proptest::sample::subsequence(vec![0usize,1,2,3,4,5,6,7], 3),
    ) {
        let code = ReedSolomon::new(5, 3);
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        let parity = code.encode(&refs);
        let mut shards: Vec<Option<Vec<u8>>> = data
            .iter()
            .cloned()
            .map(Some)
            .chain(parity.into_iter().map(Some))
            .collect();
        let originals = shards.clone();
        for &l in &lost {
            shards[l] = None;
        }
        code.reconstruct(&mut shards).unwrap();
        prop_assert_eq!(shards, originals);
    }

    // ---------- incremental parity update ----------

    #[test]
    fn delta_parity_update_matches_reencode(
        group in shards_strategy(3, 64),
        page in 0usize..4,
        new_page in vec(any::<u8>(), 16),
    ) {
        let code = XorCode::new(3);
        let refs: Vec<&[u8]> = group.iter().map(|d| d.as_slice()).collect();
        let mut parity = code.encode(&refs).remove(0);

        // Member 1 rewrites one 16-byte "page".
        let off = page * 16;
        let mut updated = group.clone();
        updated[1][off..off + 16].copy_from_slice(&new_page);
        delta_parity_update(&mut parity, off, &group[1][off..off + 16], &new_page);

        let refs2: Vec<&[u8]> = updated.iter().map(|d| d.as_slice()).collect();
        prop_assert_eq!(parity, code.encode(&refs2).remove(0));
    }

    #[test]
    fn apply_delta_matches_reencode_for_all_codes(
        data in shards_strategy(4, 24),
        member in 0usize..4,
        off in 0usize..24,
        mask in vec(any::<u8>(), 1..12),
    ) {
        // An in-place update at [off, off+dlen) on one member, expressed
        // as the XOR delta old ⊕ new — the unit the DVDC incremental
        // transport ships to parity holders.
        let dlen = mask.len().min(24 - off);
        prop_assume!(dlen > 0);
        let delta = &mask[..dlen];
        let mut updated = data.clone();
        for (i, d) in delta.iter().enumerate() {
            updated[member][off + i] ^= d;
        }

        let codes: Vec<Box<dyn ErasureCode>> = vec![
            Box::new(XorCode::new(4)),
            Box::new(ReedSolomon::new(4, 2)),
        ];
        for code in &codes {
            let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
            let mut parity = code.encode(&refs);
            for (j, block) in parity.iter_mut().enumerate() {
                code.apply_delta(j, block, member, off, delta);
            }
            let refs2: Vec<&[u8]> = updated.iter().map(|d| d.as_slice()).collect();
            prop_assert_eq!(
                &parity,
                &code.encode(&refs2),
                "k={} m={}", code.data_shards(), code.parity_shards()
            );
        }
    }

    // ---------- parity holder: fold on arrival ----------

    #[test]
    fn arrival_order_fold_matches_encode_for_every_holder_and_order(
        data in shards_strategy(4, 40),
    ) {
        // Every holder j of a k=4 XOR (m=1) and Reed-Solomon (m=2) group,
        // fed the round's blocks in each of the 4! arrival orders, commits
        // exactly the shard `encode` computes from all four at once.
        let refs: Vec<&[u8]> = data.iter().map(|d| d.as_slice()).collect();
        for m in [1, 2] {
            let spec = ClusterSpec { parity_nodes: m, image_len: 40, ..ClusterSpec::default() };
            let want = spec.code().encode(&refs);
            let sources: Vec<NodeId> = (0..4).map(NodeId).collect();
            let holders: Vec<NodeId> = (4..4 + m).map(NodeId).collect();
            for order in permutations(4) {
                for (j, &holder) in holders.iter().enumerate() {
                    let mut node = NodeCore::new(holder, spec.clone(), 1);
                    let begin = Msg::RoundBegin {
                        epoch: 1,
                        sources: sources.clone(),
                        holders: holders.clone(),
                    };
                    node.on_message(NodeId(0), begin, SimTime::ZERO);
                    for &i in &order {
                        let block = Msg::Payload {
                            epoch: 1,
                            source: NodeId(i),
                            fence_epoch: 0,
                            data: data[i].clone(),
                        };
                        node.on_message(NodeId(i), block, SimTime::ZERO);
                    }
                    node.on_message(NodeId(0), Msg::Commit { epoch: 1 }, SimTime::ZERO);
                    prop_assert_eq!(
                        node.committed(),
                        Some((1, want[j].as_slice())),
                        "m={} holder={} order={:?}", m, j, order
                    );
                }
            }
        }
    }

    // ---------- placement ----------

    #[test]
    fn orthogonal_placement_never_doubles_up(
        nodes in 3usize..10,
        vms in 1usize..5,
        k in 2usize..6,
    ) {
        prop_assume!(k < nodes);
        prop_assume!((nodes * vms) % k == 0);
        let cluster = ClusterBuilder::new()
            .physical_nodes(nodes)
            .vms_per_node(vms)
            .vm_memory(2, 8)
            .build(1);
        let placement = GroupPlacement::orthogonal(&cluster, k).unwrap();
        placement.validate(&cluster).unwrap();
        for node in cluster.node_ids() {
            for (_, hits) in placement.impact_of_node_failure(&cluster, node) {
                prop_assert!(hits <= 1);
            }
        }
        // Parity balance within 1.
        let load = placement.parity_load(nodes);
        let (mn, mx) = (load.iter().min().unwrap(), load.iter().max().unwrap());
        prop_assert!(mx - mn <= 1, "load {:?}", load);
    }

    // ---------- dirty-rate model ----------

    #[test]
    fn dirty_rate_is_exact_over_any_partition(
        rate in 0.0f64..500.0,
        cuts in vec(0.001f64..2.0, 1..40),
    ) {
        let mut m = DirtyRateModel::new(rate);
        let total_time: f64 = cuts.iter().sum();
        let mut total_writes = 0u64;
        for dt in &cuts {
            total_writes += m.writes_in(dvdc_simcore::time::Duration::from_secs(*dt));
        }
        let expect = rate * total_time;
        prop_assert!((total_writes as f64 - expect).abs() <= 1.0 + 1e-6,
            "writes {} expect {}", total_writes, expect);
    }

    // ---------- analytical model ----------

    #[test]
    fn expected_time_exceeds_fault_free(
        lambda in 1e-7f64..1e-3,
        total in 1_000.0f64..200_000.0,
        interval in 10.0f64..5_000.0,
        overhead in 0.0f64..100.0,
        repair in 0.0f64..500.0,
    ) {
        prop_assume!(interval < total);
        let e = analytic::expected_time_checkpoint_overhead(
            lambda, total, interval, overhead, repair);
        prop_assert!(e >= total, "E[T]={e} < T={total}");
        prop_assert!(e.is_finite());
    }

    #[test]
    fn expected_time_monotone_in_lambda(
        total in 10_000.0f64..100_000.0,
        interval in 60.0f64..2_000.0,
        overhead in 0.0f64..60.0,
    ) {
        let e1 = analytic::expected_time_checkpoint_overhead(1e-5, total, interval, overhead, 0.0);
        let e2 = analytic::expected_time_checkpoint_overhead(1e-4, total, interval, overhead, 0.0);
        prop_assert!(e2 >= e1);
    }

    #[test]
    fn checkpointing_never_hurts_at_matched_overhead(
        lambda in 1e-5f64..1e-3,
        total in 20_000.0f64..100_000.0,
    ) {
        // Zero-overhead checkpointing every T/10 beats no checkpointing.
        let chk = analytic::expected_time_checkpoint(lambda, total, total / 10.0);
        let none = analytic::expected_time_no_checkpoint(lambda, total);
        prop_assert!(chk <= none * (1.0 + 1e-9));
    }
}

// ---------- phase-interruptible rounds ----------

use dvdc::protocol::{DvdcProtocol, RoundStep};
use dvdc_simcore::time::Duration;
use dvdc_vcluster::cluster::Cluster;

fn cluster_snapshots(c: &Cluster) -> Vec<Vec<u8>> {
    c.vm_ids()
        .iter()
        .map(|&v| c.vm(v).memory().snapshot())
        .collect()
}

/// Six nodes under one of two parity placements: rotated (`orthogonal`,
/// 6 × 2 VMs, k = 3, `m` parity blocks) or Fig. 3's `dedicated` (5 × 2
/// VMs, node 5 hosts nothing and holds both slot parities; `m` unused).
fn six_node_protocol(seed: u64, dedicated: bool, m: usize) -> (Cluster, DvdcProtocol) {
    let c = ClusterBuilder::new()
        .physical_nodes(6)
        .spare_nodes(usize::from(dedicated))
        .vms_per_node(2)
        .vm_memory(8, 32)
        .writes_per_sec(250.0)
        .build(seed);
    let placement = if dedicated {
        GroupPlacement::dedicated(&c, NodeId(5)).unwrap()
    } else {
        GroupPlacement::orthogonal_with_parity(&c, 3, m).unwrap()
    };
    let p = DvdcProtocol::new(placement);
    (c, p)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Stopping a round after ANY event prefix and killing ANY node must
    /// leave the cluster recoverable to exactly the committed state: the
    /// pre-round epoch if the prefix ended mid-round, the new epoch if
    /// the prefix happened to reach the commit.
    #[test]
    fn any_event_prefix_of_interrupted_round_recovers_committed_state(
        seed in any::<u64>(),
        cut in 0usize..220,
        victim in 0usize..6,
        m in 1usize..3,
        dedicated in any::<bool>(),
    ) {
        let (mut c, mut p) = six_node_protocol(seed, dedicated, m);

        // Commit a baseline epoch, then guest progress the next round
        // tries (and fails) to protect.
        p.run_round(&mut c).unwrap();
        let mut want = cluster_snapshots(&c);
        let hub = RngHub::new(seed ^ 0x9E37_79B9);
        c.run_all(Duration::from_secs(0.5), |vm| {
            hub.stream_indexed("w", vm.index() as u64)
        });

        let mut round = p.begin_round(&c).unwrap();
        let mut committed_mid = false;
        for _ in 0..cut {
            match p.step_round(&mut c, &mut round).unwrap() {
                RoundStep::Progress { .. } => {}
                RoundStep::Committed(_) => {
                    committed_mid = true;
                    break;
                }
            }
        }
        if committed_mid {
            // The prefix covered the whole round: the commit moved the
            // recovery point forward.
            want = cluster_snapshots(&c);
        }

        let victim = NodeId(victim);
        c.fail_node(victim);
        if !committed_mid {
            // Every node hosts VMs or (the checkpoint node) parity, so
            // any victim holds round state.
            prop_assert!(p.round_involves(&c, &round, victim));
            p.abort_round(round);
        }
        p.recover(&mut c, victim).unwrap();
        prop_assert_eq!(cluster_snapshots(&c), want);
    }

    /// Cancelling a phased rebuild after ANY step prefix is harmless:
    /// the pipeline is mutation-free until Readmit, so an abort is a
    /// pure drop and a restarted rebuild still lands byte-exactly on
    /// the committed epoch.
    #[test]
    fn any_step_prefix_of_cancelled_rebuild_recovers_committed_state(
        seed in any::<u64>(),
        cut in 0usize..120,
        victim in 0usize..6,
        m in 1usize..3,
        dedicated in any::<bool>(),
    ) {
        let (mut c, mut p) = six_node_protocol(seed, dedicated, m);

        p.run_round(&mut c).unwrap();
        let hub = RngHub::new(seed ^ 0xA11C_E55E);
        c.run_all(Duration::from_secs(0.4), |vm| {
            hub.stream_indexed("w", vm.index() as u64)
        });
        p.run_round(&mut c).unwrap();
        let want = cluster_snapshots(&c);

        let victim = NodeId(victim);
        c.fail_node(victim);
        let mut rebuild = p
            .begin_rebuild(&c, victim, dvdc::protocol::RebuildMode::InPlace)
            .unwrap();
        let mut done = false;
        for _ in 0..cut {
            match p.step_rebuild(&mut c, &mut rebuild).unwrap() {
                dvdc::protocol::RebuildStep::Progress { .. } => {}
                dvdc::protocol::RebuildStep::Completed(_) => {
                    done = true;
                    break;
                }
            }
        }
        if !done {
            p.abort_rebuild(rebuild);
            p.recover(&mut c, victim).unwrap();
        }
        prop_assert_eq!(cluster_snapshots(&c), want);
    }
}

// ---------- in-band detection and fencing ----------

use dvdc::protocol::{run_round_with_faults, PhasedOutcome};
use dvdc_faults::{ClusterFaultPlan, NodeFault, PeerSet, PlanCursor};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// False suspicion of a live node never corrupts committed state.
    /// Whatever the impairment span — shorter than the suspicion timeout
    /// (an invisible stall), inside the refutation window (a false
    /// suspicion), or past confirmation (a false failover: the live node
    /// is fenced, evacuated, and resynced) — the detector-supervised
    /// round either commits or rolls back byte-exactly to the committed
    /// epoch, every node ends up and unfenced, and the cluster stays
    /// fully serviceable.
    #[test]
    fn false_suspicion_never_corrupts_committed_state(
        seed in any::<u64>(),
        victim in 0usize..6,
        span_ms in 1.0f64..300.0,
        at_ms in 0.0f64..30.0,
        partition in any::<bool>(),
        m in 1usize..3,
    ) {
        let mut c = ClusterBuilder::new()
            .physical_nodes(6)
            .vms_per_node(2)
            .vm_memory(8, 32)
            .writes_per_sec(250.0)
            .build(seed);
        let placement = GroupPlacement::orthogonal_with_parity(&c, 3, m).unwrap();
        let mut p = DvdcProtocol::new(placement);

        // A committed baseline epoch, then guest progress the impaired
        // round tries to protect.
        p.run_round(&mut c).unwrap();
        let committed = cluster_snapshots(&c);
        let hub = RngHub::new(seed ^ 0x5DEE_CE55);
        c.run_all(Duration::from_secs(0.3), |vm| {
            hub.stream_indexed("w", vm.index() as u64)
        });

        let at = SimTime::from_secs(at_ms / 1e3);
        let span = Duration::from_millis(span_ms);
        let fault = if partition {
            let peers = PeerSet::from_nodes((0..6).filter(|&n| n != victim));
            NodeFault::partition(victim, at, peers, span)
        } else {
            NodeFault::hang(victim, at, span)
        };
        let plan = ClusterFaultPlan::new(vec![fault]);
        let mut cursor = PlanCursor::new(&plan);
        let (outcome, _end) =
            run_round_with_faults(&mut p, &mut c, &mut cursor, SimTime::ZERO).unwrap();
        let det = *outcome.detection();

        // The cluster always settles whole and unfenced.
        for n in c.node_ids() {
            prop_assert!(c.is_up(n), "{n} left down");
        }
        prop_assert!(!p.fences().is_fenced(NodeId(victim)));
        // The victim was alive throughout, so every confirmation was a
        // false failover; each one either resynced after its fenced wake
        // was rejected, or was repaired in place when no failover host
        // existed.
        prop_assert_eq!(det.confirmations, det.false_failovers);
        prop_assert!(det.resyncs <= det.false_failovers);
        prop_assert_eq!(det.fenced_rejections, det.resyncs);

        match outcome {
            PhasedOutcome::Committed { .. } => {
                prop_assert!(p.committed_epoch().is_some());
            }
            PhasedOutcome::RolledBack { .. } => {
                // Byte-exact rollback, wherever the VMs now live.
                prop_assert_eq!(cluster_snapshots(&c), committed);
            }
        }

        // And the epoch is consistent: an undisturbed round commits.
        let empty = ClusterFaultPlan::new(vec![]);
        let mut quiet = PlanCursor::new(&empty);
        let (next, _) =
            run_round_with_faults(&mut p, &mut c, &mut quiet, SimTime::ZERO).unwrap();
        prop_assert!(next.committed());
        // Whatever the false failover re-homed, it re-homed orthogonally.
        prop_assert!(p.placement().validate(&c).is_ok());
    }
}

// ---------- hierarchical topology and rack-aware placement ----------

use dvdc_vcluster::cluster::TopologySpec;
use dvdc_vcluster::topology::Topology;

/// Cluster shapes where the rack count admits a fully rack-orthogonal
/// layout (`rack_count >= k + m`, uniform non-ragged racks):
/// (nodes, vms_per_node, k, m, nodes_per_rack).
const RACKABLE_SHAPES: [(usize, usize, usize, usize, usize); 5] = [
    (8, 3, 3, 1, 2),
    (10, 2, 2, 1, 2),
    (12, 2, 3, 2, 2),
    (12, 1, 4, 2, 2),
    (12, 3, 4, 2, 2),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// On any uniform racked shape whose rack count permits it, the
    /// rack-aware placement never puts two members of one group in the
    /// same rack — and therefore a whole-rack kill under m >= 1 is at
    /// most one erasure per group and never loses committed data.
    #[test]
    fn rack_aware_placement_survives_any_whole_rack_kill(
        shape in 0usize..RACKABLE_SHAPES.len(),
        seed in any::<u64>(),
        rack_pick in any::<prop::sample::Index>(),
    ) {
        let (nodes, vms, k, m, npr) = RACKABLE_SHAPES[shape];
        let mut c = ClusterBuilder::new()
            .physical_nodes(nodes)
            .vms_per_node(vms)
            .vm_memory(4, 16)
            .writes_per_sec(200.0)
            .racks(npr)
            .build(seed);
        let placement = GroupPlacement::orthogonal_with_parity(&c, k, m).unwrap();
        placement.validate(&c).unwrap();
        prop_assert!(
            placement.is_rack_orthogonal(&c),
            "shape {shape}: {} racks permit width {}",
            c.topology().rack_count(),
            k + m
        );
        placement.validate_rack_aware(&c).unwrap();

        let mut p = DvdcProtocol::new(placement);
        p.run_round(&mut c).unwrap();
        let hub = RngHub::new(seed ^ 0x7ac4);
        c.run_all(Duration::from_secs(0.3), |vm| {
            hub.stream_indexed("w", vm.index() as u64)
        });
        p.run_round(&mut c).unwrap();
        let want = cluster_snapshots(&c);

        let rack = dvdc_vcluster::topology::RackId(
            rack_pick.index(c.topology().rack_count()),
        );
        let victims = c.topology().nodes_in_rack(rack);
        let lost_vms = c.fail_rack(rack);
        prop_assert!(!lost_vms.is_empty());
        for &v in &victims {
            p.recover(&mut c, v)
                .unwrap_or_else(|e| panic!("shape {shape} rack {rack:?}: {e}"));
        }
        prop_assert_eq!(cluster_snapshots(&c), want);
    }

    /// Arbitrary scale-free (preferential-attachment) topologies: the
    /// rack-aware placement always stays node-orthogonal with balanced
    /// parity, and whenever it achieves rack-orthogonality on the skewed
    /// rack sizes, killing even the LARGEST rack loses nothing.
    #[test]
    fn scale_free_topologies_place_validly_and_survive_when_orthogonal(
        seed in any::<u64>(),
        nodes in 6usize..12,
        vms in 1usize..4,
        new_rack_prob in 0.2f64..0.9,
        dcs in 1usize..3,
    ) {
        let k = 3usize;
        let m = 1usize;
        prop_assume!((nodes * vms) % k == 0);
        let hub = RngHub::new(seed);
        let mut rng = hub.stream("topo");
        let topo = Topology::scale_free(nodes, new_rack_prob, dcs, &mut rng);
        let mut c = ClusterBuilder::new()
            .physical_nodes(nodes)
            .vms_per_node(vms)
            .vm_memory(4, 16)
            .writes_per_sec(200.0)
            .topology(TopologySpec::Explicit(topo))
            .build(seed);
        let placement = GroupPlacement::orthogonal_with_parity(&c, k, m).unwrap();
        // Node-level orthogonality holds regardless of how skewed the
        // rack sizes came out. (Strict parity balance is only promised on
        // uniform topologies: rack-freshness constraints on skewed racks
        // may concentrate parity, so here we only require conservation.)
        placement.validate(&c).unwrap();
        let load = placement.parity_load(nodes);
        prop_assert_eq!(
            load.iter().sum::<usize>(),
            placement.groups().len() * m,
            "every group places all {} parity blocks",
            m
        );

        if placement.is_rack_orthogonal(&c) {
            let mut p = DvdcProtocol::new(placement);
            p.run_round(&mut c).unwrap();
            let want = cluster_snapshots(&c);
            let rack = (0..c.topology().rack_count())
                .map(dvdc_vcluster::topology::RackId)
                .max_by_key(|&r| c.topology().nodes_in_rack(r).len())
                .unwrap();
            let victims = c.topology().nodes_in_rack(rack);
            c.fail_rack(rack);
            for &v in &victims {
                p.recover(&mut c, v)
                    .unwrap_or_else(|e| panic!("seed {seed} rack {rack:?}: {e}"));
            }
            prop_assert_eq!(cluster_snapshots(&c), want);
        }
    }
}

// ---------- trace export: span pairing under truncation ----------

use dvdc_observe::chrome::{chrome_trace_value, merge_node_traces_value, NodeTail};
use dvdc_observe::{Event, TimedEvent};
use serde::Value;

/// Expands `script` into a well-formed event stream: rounds with phases
/// and transfers, rebuilds with phases, detector instants, one event per
/// eighth of a second. Beside each event goes the index of the opener
/// it depends on (a phase marker, retry or terminator) — `None` for
/// openers and for events that pair with nothing.
fn span_stream(script: &[(u8, u8)]) -> Vec<(TimedEvent, Option<usize>)> {
    const ROUND_PHASES: [&str; 4] = ["Capture", "Transfer", "Fold", "Commit"];
    const REBUILD_PHASES: [&str; 3] = ["FetchSurvivors", "Decode", "Place"];
    let mut out: Vec<(TimedEvent, Option<usize>)> = Vec::new();
    let mut push = |event: Event, opener: Option<usize>| {
        let seq = out.len();
        let at = SimTime::from_secs(seq as f64 / 8.0);
        out.push((
            TimedEvent {
                at,
                seq: seq as u64,
                event,
            },
            opener,
        ));
        seq
    };
    let mut next_id = 0u64;
    for (item, &(kind, detail)) in script.iter().enumerate() {
        let (a, b) = (detail as usize % 4, detail as usize / 4 % 4);
        match kind % 3 {
            0 => {
                let epoch = item as u64 + 1;
                let round = push(Event::RoundBegin { epoch }, None);
                for &phase in &ROUND_PHASES[..a] {
                    push(Event::RoundPhase { epoch, phase }, Some(round));
                }
                for lane in 0..b {
                    let id = next_id;
                    next_id += 1;
                    let (from, to, bytes) = (lane, lane + 1, 4096);
                    let launch = push(
                        Event::TransferLaunched {
                            id,
                            from,
                            to,
                            bytes,
                            token_epoch: 0,
                        },
                        None,
                    );
                    let end = match (detail / 16 + lane as u8) % 3 {
                        0 => Event::TransferArrived {
                            id,
                            from,
                            to,
                            bytes,
                        },
                        1 => {
                            push(Event::TransferRetried { id, attempt: 1 }, Some(launch));
                            Event::TransferDropped {
                                id,
                                from,
                                to,
                                bytes,
                            }
                        }
                        _ => Event::TransferFenced {
                            id,
                            node: from,
                            held_epoch: 0,
                            current_epoch: 1,
                        },
                    };
                    push(end, Some(launch));
                }
                let end = if detail >= 128 {
                    let phase = ROUND_PHASES[a.saturating_sub(1)];
                    Event::RoundAborted { epoch, phase }
                } else {
                    Event::RoundCommitted { epoch }
                };
                push(end, Some(round));
            }
            1 => {
                let victim = b;
                let begin = Event::RebuildBegin {
                    victim,
                    mode: "Failover",
                    epoch: item as u64,
                };
                let rebuild = push(begin, None);
                for &phase in &REBUILD_PHASES[..a.min(3)] {
                    push(Event::RebuildPhase { victim, phase }, Some(rebuild));
                }
                let end = if detail >= 128 {
                    let phase = REBUILD_PHASES[a.min(3).saturating_sub(1)];
                    Event::RebuildAborted { victim, phase }
                } else {
                    Event::RebuildCompleted { victim }
                };
                push(end, Some(rebuild));
            }
            _ => {
                push(Event::Suspected { node: a }, None);
                push(Event::FenceRaised { node: a, epoch: 1 }, None);
            }
        }
    }
    out
}

fn record_field<'a>(record: &'a Value, key: &str) -> Option<&'a Value> {
    match record {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Walks a rendered trace: `B`/`E` must nest per `(pid, tid)` with no
/// slice ending before it starts and none left open, and every `X` must
/// have a non-negative duration. Returns how many `B`, `X` and `i`
/// records it saw.
fn check_trace(trace: &Value) -> Result<(usize, usize, usize), TestCaseError> {
    let Some(Value::Array(records)) = record_field(trace, "traceEvents") else {
        return Err(TestCaseError::fail("no traceEvents".into()));
    };
    let mut open: std::collections::BTreeMap<(u64, u64), Vec<f64>> = Default::default();
    let (mut begins, mut completes, mut instants) = (0, 0, 0);
    for record in records {
        let Some(Value::Str(ph)) = record_field(record, "ph") else {
            return Err(TestCaseError::fail(format!("no ph in {record:?}")));
        };
        if ph == "M" {
            continue;
        }
        let (Some(&Value::F64(ts)), Some(&Value::U64(pid)), Some(&Value::U64(tid))) = (
            record_field(record, "ts"),
            record_field(record, "pid"),
            record_field(record, "tid"),
        ) else {
            return Err(TestCaseError::fail(format!("untracked {record:?}")));
        };
        match ph.as_str() {
            "B" => {
                begins += 1;
                open.entry((pid, tid)).or_default().push(ts);
            }
            "E" => {
                let began = open.entry((pid, tid)).or_default().pop();
                prop_assert!(began.is_some(), "E with nothing open on ({}, {})", pid, tid);
                prop_assert!(began <= Some(ts), "slice ends before it starts");
            }
            "X" => {
                completes += 1;
                let dur = record_field(record, "dur");
                prop_assert!(matches!(dur, Some(&Value::F64(d)) if d >= 0.0), "{:?}", dur);
            }
            "i" => instants += 1,
            other => prop_assert!(false, "unexpected ph {}", other),
        }
    }
    prop_assert!(open.values().all(Vec::is_empty), "unclosed B: {:?}", open);
    Ok((begins, completes, instants))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A ring that lost its head and a scrape that lands mid-span: any
    /// window of a well-formed stream renders, through both entry
    /// points, balanced slices that never end before they start; an
    /// event whose opener fell outside the window is an instant, not a
    /// guess.
    #[test]
    fn any_window_of_a_stream_renders_balanced_slices(
        script in vec((any::<u8>(), any::<u8>()), 1..12),
        cut in (0usize..1000, 0usize..1000),
    ) {
        let stream = span_stream(&script);
        let lo = cut.0 % (stream.len() + 1);
        let hi = lo + cut.1 % (stream.len() + 1 - lo);
        let window = &stream[lo..hi];
        let events: Vec<TimedEvent> = window.iter().map(|(te, _)| te.clone()).collect();

        let (mut slices, mut transfers, mut instants) = (0, 0, 0);
        for (te, opener) in window {
            let paired = opener.is_none_or(|at| at >= lo);
            match te.event {
                _ if !paired => instants += 1,
                Event::RoundBegin { .. }
                | Event::RoundPhase { .. }
                | Event::RebuildBegin { .. }
                | Event::RebuildPhase { .. } => slices += 1,
                Event::TransferLaunched { .. } => transfers += 1,
                _ if opener.is_none() || matches!(te.event, Event::TransferRetried { .. }) => {
                    instants += 1
                }
                _ => {}
            }
        }

        let whole = chrome_trace_value(&events, &[]);
        prop_assert_eq!(check_trace(&whole)?, (slices, transfers, instants));
        let tail = NodeTail {
            node: 3,
            now: events.last().map_or(SimTime::ZERO, |te| te.at) + Duration::from_secs(0.5),
            dropped: lo as u64,
            events,
        };
        let merged = merge_node_traces_value(&[tail], &[]);
        prop_assert_eq!(check_trace(&merged)?, (slices, transfers, instants));
    }
}
