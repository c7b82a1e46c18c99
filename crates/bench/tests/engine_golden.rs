//! Cross-commit determinism: golden values recorded from the
//! shard-per-thread runtime before its shards ran on `Simulation`.
//!
//! The bit-identity tests elsewhere compare two runs of the same build,
//! so they cannot see a change that shifts every run the same way. These
//! tests pin exact outcomes instead: a refactor of the simulator must
//! reproduce them unchanged (every RNG seed, draw order and tie-break).
//! Run them with `cargo test -p prever-bench golden_`.

use prever_bench::experiments::e7_sharded;
use prever_consensus::pbft::Byzantine;
use prever_consensus::sharded::{self, ShardedNode, Topology};
use prever_consensus::{BatchConfig, Command};
use prever_sim::{FaultPlan, NetConfig, ParallelConfig, SimStats};

/// Intra-shard for two thirds of the ids, a rotating shard pair for the
/// rest.
fn involved_of(i: u64) -> Vec<usize> {
    let a = (i / 3 % 3) as usize;
    match i % 3 {
        0 => vec![a],
        1 => vec![(a + 1) % 3],
        _ => {
            let b = (a + 1) % 3;
            vec![a.min(b), a.max(b)]
        }
    }
}

/// Per-node `(tx_id, at)` completions of the recorded run.
const COMPLETIONS: [&[(u64, u64)]; 12] = [
    &[(0, 16692), (2, 50763), (7, 121778), (9, 140835), (8, 140835), (16, 256715), (17, 276255)],
    &[(0, 16659), (2, 50724), (7, 121798), (9, 140886), (8, 140886), (16, 256812), (17, 276270)],
    &[(0, 16701), (2, 50814), (7, 876033), (8, 876140), (9, 876230), (16, 876410), (17, 876500)],
    &[(0, 16726), (2, 50809), (7, 121719), (9, 140820), (8, 140820), (16, 256775), (17, 276250)],
    &[(1, 31639), (3, 47986), (10, 166699), (12, 196785), (2, 652265)],
    &[(1, 31636), (3, 47977), (10, 166716), (12, 196764), (2, 652152)],
    &[(1, 31708), (3, 47990), (10, 166682), (12, 196740), (2, 652171)],
    &[(1, 31675), (3, 47989), (10, 166722), (12, 196765), (2, 652131)],
    &[(4, 76770), (6, 106685), (8, 141910), (13, 211718), (15, 241776), (17, 277308)],
    &[(17, 277354), (4, 601046), (6, 601123), (8, 601243), (13, 601303), (15, 601393)],
    &[(4, 76804), (6, 106757), (8, 141977), (13, 301113), (15, 301113), (17, 301113)],
    &[(4, 76791), (6, 106809), (8, 141990), (13, 211777), (15, 241757), (17, 277330)],
];

#[test]
fn golden_parallel_cluster_with_faults() {
    // 3 shards × 4 replicas, batched, lossy, finite service time; shard
    // 1 is partitioned off, one replica crashes and recovers with state,
    // another crashes and restarts blank.
    let t = Topology { n_shards: 3, replicas_per_shard: 4 };
    let batch = BatchConfig::new(4, 15_000, 4);
    let cfg = ParallelConfig {
        net: NetConfig { drop_rate: 0.01, processing: 30, ..NetConfig::default() },
        seed: 2024,
        ..ParallelConfig::default()
    };
    let mut sim = sharded::parallel_cluster(t, Some(batch), cfg);
    sim.set_node_factory(move |id| ShardedNode::with_batching(id, t, Byzantine::Honest, batch));
    let groups: Vec<usize> = (0..t.n_nodes()).map(|id| usize::from(t.shard_of(id) == 1)).collect();
    sim.set_fault_plan(
        FaultPlan::new()
            .partition_at(50_000, groups)
            .heal_at(600_000)
            .crash_at(30_000, 9)
            .restart_with_loss_at(250_000, 9)
            .crash_at(100_000, 2)
            .recover_at(350_000, 2),
    );
    for i in 0..18u64 {
        let (home, msg) = sharded::request_for(t, Command::new(i, "g"), involved_of(i));
        sim.inject(home, home, msg, 1 + i * 15_000);
    }
    sim.run_until(1_000_000);
    for i in 0..18u64 {
        let at = sim.now() + 10 + i;
        let (home, msg) = sharded::request_for(t, Command::new(i, "g"), involved_of(i));
        sim.inject(home, home, msg, at);
    }
    sim.run_until(5_000_000);

    assert_eq!(
        sim.stats(),
        SimStats {
            messages_sent: 1790,
            messages_delivered: 1630,
            messages_dropped: 198,
            timers_fired: 2426,
            messages_duplicated: 0,
            messages_corrupted: 0,
            crashes: 2,
            recoveries: 1,
            restarts_with_loss: 1,
            disk_faults: 0,
        }
    );
    let nodes = sim.into_nodes();
    for (id, (node, want)) in nodes.iter().zip(COMPLETIONS).enumerate() {
        let got: Vec<(u64, u64)> = node.completed().iter().map(|c| (c.tx_id, c.at)).collect();
        assert_eq!(got, want, "node {id} completions");
    }
}

#[test]
fn golden_e7_scaling_smoke_finish_times() {
    // `scaling_smoke` runs exactly these two points; throughput is txs
    // over the last completion time, so equal bits mean equal finishes.
    for (shards, txs, finish_us) in [(1usize, 24u64, 2_610u64), (8, 192, 2_652)] {
        let p = e7_sharded::run_parallel(shards, 0.0, txs);
        let want = txs as f64 / (finish_us as f64 / 1e6);
        assert_eq!(p.vthroughput.to_bits(), want.to_bits(), "{shards} shards: finish time moved");
    }
}
