//! Shard-per-thread parallel simulation.
//!
//! One [`Simulation`] caps an experiment at one core: a 64-shard
//! SharPer-style deployment is 256 PBFT replicas time-sliced through one
//! event loop. [`ParallelSim`] runs each *shard* (a group of nodes that
//! talk to each other constantly) as an ordinary `Simulation` over the
//! shard's contiguous slice of node ids, on its own OS thread. A send to
//! another shard's node leaves the shard's `Simulation` through its
//! outbox, and a coordinator merges the outboxes deterministically
//! between epochs. There is no second event engine: this module is only
//! the coordinator.
//!
//! ## Determinism under parallelism
//!
//! Conservative parallel discrete-event simulation with an epoch
//! barrier:
//!
//! * Virtual time is divided into fixed epochs of `epoch` µs. Every
//!   shard runs `[k·E, (k+1)·E)` to completion before any shard starts
//!   epoch `k + 1`.
//! * Cross-shard messages sent during epoch `k` are collected by the
//!   coordinator *after* the barrier, routed in a fixed schedule
//!   (ascending source shard, then send order within the shard — a
//!   lamport-ordered per-edge FIFO), and delivered no earlier than
//!   epoch `k + 1`. Cross-shard latency/jitter is drawn from a
//!   per-edge RNG keyed by `(seed, src, dst)`, so a draw never depends
//!   on which thread finished first.
//! * Each shard's `Simulation` owns a private RNG keyed by
//!   `(seed, shard)` for intra-shard jitter and drops.
//!
//! Consequently the interleaving observed by every actor is a pure
//! function of `(actors, config, fault plan, injections, seed)` — the
//! OS scheduler cannot perturb it. The price is lookahead: cross-shard
//! base latency must be ≥ the epoch length, which models shards as
//! LAN clusters joined by a slower inter-shard backbone (the SharPer
//! deployment shape).
//!
//! ## Fault model
//!
//! Faults are a [`FaultPlan`], as on the single-threaded runtime, and
//! each shard's `Simulation` applies them interleaved with its events
//! (faults win ties). Crash, recover and restart-with-loss go to the
//! owning shard; the node factory runs on the coordinator and the fresh
//! actor travels with the fault. Partition and heal go to every shard,
//! so partition groups are per node exactly as on `Simulation`: a send
//! between two sides, intra- or cross-shard, is dropped at its send
//! time. Link faults, disk faults and `ClearLinkFaults` are not modelled
//! here; [`ParallelSim::set_fault_plan`] rejects them. Cross-shard and
//! injected messages are not pinned to a receiver incarnation: like
//! client retries, they are delivered to whatever process is alive on
//! arrival (they model durable channel buffers between clusters), and
//! they queue behind the receiver's service backlog.

use crate::{
    Actor, CrossSend, FaultEvent, FaultPlan, LinkFault, NetConfig, NodeFactory, NodeId, SimStats,
    Simulation,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Shard identifier (dense, 0-based) — the unit of parallelism.
pub type ShardId = usize;

/// SplitMix64-style mixer for deriving independent RNG streams.
fn mix(a: u64, b: u64) -> u64 {
    let mut x = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Configuration of a [`ParallelSim`].
#[derive(Clone, Debug)]
pub struct ParallelConfig {
    /// Intra-shard network behavior (latency, jitter, drops, service
    /// time), applied independently inside each shard's simulation.
    pub net: NetConfig,
    /// Minimum one-way cross-shard latency in µs. Must be ≥ `epoch`
    /// (the conservative lookahead bound); the constructor asserts it.
    pub cross_base: u64,
    /// Maximum extra cross-shard jitter in µs (uniform, per-edge RNG).
    pub cross_jitter: u64,
    /// Epoch (barrier) length in µs.
    pub epoch: u64,
    /// RNG seed; all per-shard and per-edge streams derive from it.
    pub seed: u64,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        // Intra-shard stays the LAN profile of `NetConfig::default`;
        // the inter-shard backbone is 1 ms one-way — a metro-area link
        // between shard clusters — which also sets the lookahead.
        ParallelConfig {
            net: NetConfig::default(),
            cross_base: 1_000,
            cross_jitter: 200,
            epoch: 1_000,
            seed: 1,
        }
    }
}

/// A cross-shard or injected message not yet released to its shard:
/// `(deliver_at, coordinator_seq, from, to, msg)`.
type Pending<M> = (u64, u64, NodeId, NodeId, M);

/// Coordinator → worker: one epoch's work for a shard.
struct Epoch<A: Actor> {
    until: u64,
    /// Arrivals due this epoch, in delivery order: `(at, from, to, msg)`.
    inbound: Vec<(u64, NodeId, NodeId, A::Msg)>,
    /// Faults due this epoch, in time order.
    faults: Vec<(u64, FaultEvent)>,
    /// Fresh actors for this epoch's `RestartWithLoss` faults, in fault
    /// order.
    restarts: Vec<A>,
}

/// Worker → coordinator: one epoch's results from a shard.
struct EpochOut<M, P> {
    /// Cross-shard sends in deterministic local send order.
    outbox: Vec<CrossSend<M>>,
    /// Probe values per local node (global ids).
    probes: Vec<(NodeId, P)>,
    /// Cumulative statistics of the shard's simulation.
    stats: SimStats,
}

struct Worker<A: Actor, P> {
    tx: Sender<Epoch<A>>,
    rx: Receiver<EpochOut<A::Msg, P>>,
    /// Yields the shard's actors once `tx` is dropped.
    join: JoinHandle<Vec<A>>,
}

/// Runs one shard's [`Simulation`] on the calling (worker) thread until
/// the coordinator closes the epoch channel, then returns its actors.
fn run_shard<A: Actor + 'static, P>(
    mut sim: Simulation<A>,
    probe: &dyn Fn(&A) -> P,
    epochs: Receiver<Epoch<A>>,
    replies: Sender<EpochOut<A::Msg, P>>,
) -> Vec<A> {
    // Restarted actors are built by the coordinator's factory and
    // arrive with their faults; the shard's factory hands them out.
    let fresh: Rc<RefCell<VecDeque<A>>> = Rc::default();
    let shipped = Rc::clone(&fresh);
    sim.set_node_factory(move |_| {
        shipped.borrow_mut().pop_front().expect("restart actor shipped with its fault")
    });
    let ids = sim.first..sim.first + sim.n_nodes();
    while let Ok(Epoch { until, inbound, faults, restarts }) = epochs.recv() {
        fresh.borrow_mut().extend(restarts);
        for (at, ev) in faults {
            sim.schedule_fault(at, ev);
        }
        // Start first, so on_start outputs precede this epoch's arrivals
        // in sequence order and service queues.
        sim.ensure_started();
        for (at, from, to, msg) in inbound {
            sim.arrive(from, to, msg, at);
        }
        // Everything at t < until; no cross arrival lands before
        // `until`, so no other shard can affect this epoch.
        sim.run_until(until - 1);
        let out = EpochOut {
            outbox: sim.take_outbox(),
            probes: ids.clone().map(|id| (id, probe(sim.node(id)))).collect(),
            stats: sim.stats(),
        };
        if replies.send(out).is_err() {
            break;
        }
    }
    sim.into_nodes()
}

/// The shard-per-thread parallel simulator.
///
/// `P` is the *probe* type: a cheap, `Send` summary of one actor's
/// state (e.g. a completion count) computed by every shard at each
/// epoch barrier. Run-loop predicates observe probes rather than the
/// actors themselves, which live on their shard's thread; the full
/// actors come back via [`ParallelSim::into_nodes`].
pub struct ParallelSim<A: Actor, P> {
    workers: Vec<Worker<A, P>>,
    /// shard id per node (dense, ascending).
    shard_of: Vec<ShardId>,
    cfg: ParallelConfig,
    now: u64,
    /// Coordinator event sequencer (cross arrivals + injections).
    seq: u64,
    /// Undelivered cross-shard arrivals per destination shard.
    pending: Vec<Vec<Pending<A::Msg>>>,
    /// External injections not yet released.
    injections: Vec<Pending<A::Msg>>,
    /// Scheduled fault events not yet forwarded, sorted by time.
    pending_faults: VecDeque<(u64, FaultEvent)>,
    factory: Option<NodeFactory<A>>,
    /// Per-edge RNGs for cross-shard latency draws.
    edge_rng: HashMap<(ShardId, ShardId), StdRng>,
    /// Latest cumulative stats per shard.
    shard_stats: Vec<SimStats>,
    /// Latest probe value per node.
    probes: Vec<P>,
}

impl<A, P> ParallelSim<A, P>
where
    A: Actor + Send + 'static,
    A::Msg: Send + 'static,
    P: Send + Default + Clone + 'static,
{
    /// Creates the parallel simulation: `shard_of[i]` assigns node `i`
    /// to a shard, `probe` summarizes an actor for run-loop predicates.
    /// Every shard owns a contiguous range of node ids and the ranges
    /// ascend from shard 0 (as `Topology::shard_map` lays them out);
    /// the constructor asserts it. Spawns one worker thread per shard.
    pub fn new(
        nodes: Vec<A>,
        shard_of: Vec<ShardId>,
        cfg: ParallelConfig,
        probe: impl Fn(&A) -> P + Send + Sync + 'static,
    ) -> Self {
        assert_eq!(nodes.len(), shard_of.len());
        assert!(cfg.epoch > 0, "epoch must be positive");
        assert!(
            cfg.cross_base >= cfg.epoch,
            "cross-shard base latency ({}) must cover the epoch lookahead ({})",
            cfg.cross_base,
            cfg.epoch
        );
        assert!(
            shard_of.first().is_none_or(|&s| s == 0)
                && shard_of.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1),
            "shards must own contiguous node-id ranges in ascending shard order"
        );
        let n_shards = shard_of.last().map_or(0, |&s| s + 1);
        let n_global = nodes.len();
        let probe: Arc<dyn Fn(&A) -> P + Send + Sync> = Arc::new(probe);
        let mut nodes = nodes.into_iter();
        let mut first = 0;
        let mut workers = Vec::with_capacity(n_shards);
        for shard in 0..n_shards {
            let n = shard_of[first..].iter().take_while(|&&s| s == shard).count();
            let members: Vec<A> = nodes.by_ref().take(n).collect();
            let net = cfg.net.clone();
            let seed = mix(cfg.seed, mix(0x5aad, shard as u64));
            let probe = Arc::clone(&probe);
            let (tx, epochs) = channel();
            let (replies, rx) = channel();
            // Spans opened on the worker would otherwise lose their
            // parent edge to this (spawning) thread's span stack —
            // carry it across explicitly.
            let span_parent = prever_obs::current_span();
            let join = std::thread::spawn(move || {
                prever_obs::adopt_parent(span_parent);
                // Built here: a `Simulation` holds non-`Send` hooks.
                let sim = Simulation::shard(members, first, n_global, net, seed);
                run_shard(sim, &*probe, epochs, replies)
            });
            workers.push(Worker { tx, rx, join });
            first += n;
        }
        ParallelSim {
            workers,
            shard_of,
            cfg,
            now: 0,
            seq: 0,
            pending: (0..n_shards).map(|_| Vec::new()).collect(),
            injections: Vec::new(),
            pending_faults: VecDeque::new(),
            factory: None,
            edge_rng: HashMap::new(),
            shard_stats: vec![SimStats::default(); n_shards],
            probes: vec![P::default(); n_global],
        }
    }

    /// Current virtual time (advances in whole epochs).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Number of worker threads (= shards).
    pub fn n_threads(&self) -> usize {
        self.workers.len()
    }

    /// Aggregate statistics: the sum over the shard simulations.
    pub fn stats(&self) -> SimStats {
        let mut total = SimStats::default();
        for s in &self.shard_stats {
            total.messages_sent += s.messages_sent;
            total.messages_delivered += s.messages_delivered;
            total.messages_dropped += s.messages_dropped;
            total.timers_fired += s.timers_fired;
            total.messages_duplicated += s.messages_duplicated;
            total.messages_corrupted += s.messages_corrupted;
            total.crashes += s.crashes;
            total.recoveries += s.recoveries;
            total.restarts_with_loss += s.restarts_with_loss;
            total.disk_faults += s.disk_faults;
        }
        total
    }

    /// Latest probe value per node (updated at every epoch barrier).
    pub fn probes(&self) -> &[P] {
        &self.probes
    }

    /// Installs the fault plan (replacing any previous one). Partition
    /// groups are per node. Panics, naming the offender, on link faults,
    /// [`FaultEvent::Disk`] and [`FaultEvent::ClearLinkFaults`], which
    /// the parallel runtime does not model.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(
            plan.links.is_empty() && plan.default_link == LinkFault::default(),
            "ParallelSim does not support link faults"
        );
        for (_, ev) in &plan.events {
            match ev {
                FaultEvent::Partition(groups) => {
                    assert_eq!(groups.len(), self.shard_of.len(), "partition groups are per node");
                }
                FaultEvent::Disk { .. } | FaultEvent::ClearLinkFaults => {
                    panic!("ParallelSim does not support {ev:?}")
                }
                FaultEvent::Crash(_)
                | FaultEvent::Recover(_)
                | FaultEvent::RestartWithLoss(_)
                | FaultEvent::Heal => {}
            }
        }
        self.pending_faults = plan.sorted_events().into();
    }

    /// Registers the factory used for [`FaultEvent::RestartWithLoss`]
    /// events. It runs on the coordinator thread.
    pub fn set_node_factory(&mut self, factory: impl FnMut(NodeId) -> A + 'static) {
        self.factory = Some(Box::new(factory));
    }

    /// Injects an external (client) message to `to`, arriving at
    /// absolute time `at` (≥ now). Delivered to whatever process is
    /// alive at `at`.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: A::Msg, at: u64) {
        assert!(at >= self.now, "cannot inject into the past");
        self.seq += 1;
        self.injections.push((at, self.seq, from, to, msg));
    }

    /// Runs one epoch across all shards.
    fn step_epoch(&mut self) {
        let until = self.now + self.cfg.epoch;
        let n_shards = self.workers.len();
        // 1. Route this epoch's faults: node faults to the owning shard
        //    (a restart ships the factory's fresh actor), partition and
        //    heal to every shard.
        let mut faults: Vec<Vec<(u64, FaultEvent)>> = vec![Vec::new(); n_shards];
        let mut restarts: Vec<Vec<A>> = (0..n_shards).map(|_| Vec::new()).collect();
        while self.pending_faults.front().is_some_and(|(t, _)| *t < until) {
            let (t, ev) = self.pending_faults.pop_front().expect("peeked");
            match ev {
                FaultEvent::Crash(n) | FaultEvent::Recover(n) => {
                    faults[self.shard_of[n]].push((t, ev));
                }
                FaultEvent::RestartWithLoss(n) => {
                    let factory = self.factory.as_mut().expect(
                        "FaultEvent::RestartWithLoss requires ParallelSim::set_node_factory",
                    );
                    restarts[self.shard_of[n]].push(factory(n));
                    faults[self.shard_of[n]].push((t, ev));
                }
                FaultEvent::Partition(_) | FaultEvent::Heal => {
                    for shard_faults in &mut faults {
                        shard_faults.push((t, ev.clone()));
                    }
                }
                FaultEvent::Disk { .. } | FaultEvent::ClearLinkFaults => {
                    unreachable!("rejected by set_fault_plan")
                }
            }
        }
        // 2. Release injections and pending cross arrivals due this
        //    epoch, merged per destination shard in (at, seq) order
        //    (injections carry a coordinator seq from inject time, so
        //    the merge is a stable total order).
        let (due, later): (Vec<_>, Vec<_>) = std::mem::take(&mut self.injections)
            .into_iter()
            .partition(|(at, ..)| *at < until);
        self.injections = later;
        for arrival in due {
            self.pending[self.shard_of[arrival.3]].push(arrival);
        }
        let inbound: Vec<Vec<_>> = self
            .pending
            .iter_mut()
            .map(|bucket| {
                let (mut ready, later): (Vec<_>, Vec<_>) =
                    std::mem::take(bucket).into_iter().partition(|(at, ..)| *at < until);
                *bucket = later;
                ready.sort_by_key(|(at, seq, ..)| (*at, *seq));
                ready.into_iter().map(|(at, _, from, to, msg)| (at, from, to, msg)).collect()
            })
            .collect();
        // 3. Barrier: run every shard's epoch in parallel.
        for ((worker, inbound), (faults, restarts)) in
            self.workers.iter().zip(inbound).zip(faults.into_iter().zip(restarts))
        {
            worker.tx.send(Epoch { until, inbound, faults, restarts }).expect("worker alive");
        }
        // 4. Collect results in fixed shard order and route outboxes
        //    deterministically.
        let mut outboxes = Vec::with_capacity(n_shards);
        for (shard, worker) in self.workers.iter().enumerate() {
            let out = worker.rx.recv().expect("worker alive");
            self.shard_stats[shard] = out.stats;
            for (id, p) in out.probes {
                self.probes[id] = p;
            }
            outboxes.push(out.outbox);
        }
        for (src_shard, outbox) in outboxes.into_iter().enumerate() {
            for (sent_at, from, to, msg) in outbox {
                let dst_shard = self.shard_of[to];
                let rng = self
                    .edge_rng
                    .entry((src_shard, dst_shard))
                    .or_insert_with(|| {
                        let edge = ((src_shard as u64) << 32) | dst_shard as u64;
                        StdRng::seed_from_u64(mix(self.cfg.seed, mix(0xed6e, edge)))
                    });
                let jitter = if self.cfg.cross_jitter > 0 {
                    rng.gen_range(0..=self.cfg.cross_jitter)
                } else {
                    0
                };
                // Conservative bound: never before the next epoch.
                let at = (sent_at + self.cfg.cross_base + jitter).max(until);
                self.seq += 1;
                self.pending[dst_shard].push((at, self.seq, from, to, msg));
            }
        }
        self.now = until;
    }

    /// Runs epochs until virtual time reaches `deadline`.
    pub fn run_until(&mut self, deadline: u64) {
        while self.now < deadline {
            self.step_epoch();
        }
    }

    /// Runs epochs until `pred` over the per-node probes holds
    /// (checked at each barrier) or `deadline` virtual µs pass.
    /// Returns true iff the predicate held.
    pub fn run_until_probe(
        &mut self,
        deadline: u64,
        mut pred: impl FnMut(&[P]) -> bool,
    ) -> bool {
        if pred(&self.probes) {
            return true;
        }
        while self.now < deadline {
            self.step_epoch();
            if pred(&self.probes) {
                return true;
            }
        }
        false
    }

    /// Shuts the workers down and returns the actors in global node
    /// order (final-state assertions).
    pub fn into_nodes(self) -> Vec<A> {
        // Shards own ascending contiguous ranges: concatenating them in
        // shard order is global order.
        self.workers
            .into_iter()
            .flat_map(|Worker { tx, join, .. }| {
                drop(tx);
                join.join().expect("worker thread panicked")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Ctx;

    /// Node 0 (shard 0) pings node 1 (shard 1); node 1 echoes.
    #[derive(Clone, Default)]
    struct Pinger {
        pings: u32,
        pongs: u32,
        last_at: u64,
    }

    #[derive(Clone)]
    enum PP {
        Ping,
        Pong,
    }

    impl Actor for Pinger {
        type Msg = PP;
        fn on_start(&mut self, ctx: &mut Ctx<PP>) {
            if ctx.id() == 0 {
                for _ in 0..10 {
                    ctx.send(1, PP::Ping);
                }
            }
        }
        fn on_message(&mut self, from: NodeId, msg: PP, ctx: &mut Ctx<PP>) {
            self.last_at = ctx.now();
            match msg {
                PP::Ping => {
                    self.pings += 1;
                    ctx.send(from, PP::Pong);
                }
                PP::Pong => self.pongs += 1,
            }
        }
    }

    fn cross_sim(seed: u64) -> ParallelSim<Pinger, (u32, u32, u64)> {
        ParallelSim::new(
            vec![Pinger::default(), Pinger::default()],
            vec![0, 1],
            ParallelConfig { seed, ..Default::default() },
            |p| (p.pings, p.pongs, p.last_at),
        )
    }

    #[test]
    fn cross_shard_messages_deliver() {
        let mut sim = cross_sim(3);
        let ok = sim.run_until_probe(1_000_000, |p| p[0].1 >= 10 && p[1].0 >= 10);
        assert!(ok, "pings/pongs did not cross the shard boundary");
        let nodes = sim.into_nodes();
        assert_eq!(nodes[1].pings, 10);
        assert_eq!(nodes[0].pongs, 10);
    }

    #[test]
    fn parallel_runs_are_bit_identical() {
        let run = |seed: u64| {
            let mut sim = cross_sim(seed);
            sim.run_until(50_000);
            let stats = sim.stats();
            let nodes = sim.into_nodes();
            (stats, nodes[0].pongs, nodes[1].pings, nodes[0].last_at, nodes[1].last_at)
        };
        assert_eq!(run(7), run(7), "same seed must replay bit-identically");
        assert_ne!(run(7), run(8), "different seeds should differ (jitter)");
    }

    #[test]
    fn shard_partition_blocks_cross_traffic_by_send_time() {
        let mut sim = cross_sim(5);
        sim.set_fault_plan(FaultPlan::new().partition_at(0, vec![0, 1]));
        sim.run_until(100_000);
        assert_eq!(sim.probes()[1].0, 0, "partition must drop cross-shard pings");
        assert!(sim.stats().messages_dropped >= 10);
    }

    #[test]
    fn heal_then_inject_delivers() {
        let mut sim = cross_sim(6);
        sim.set_fault_plan(
            FaultPlan::new().partition_at(0, vec![0, 1]).heal_at(50_000),
        );
        sim.run_until(60_000);
        sim.inject(1, 1, PP::Ping, sim.now() + 10);
        let ok = sim.run_until_probe(1_000_000, |p| p[1].0 >= 1);
        assert!(ok, "post-heal injection must deliver");
    }

    #[test]
    fn crash_and_recover_follow_single_threaded_semantics() {
        let mut sim = cross_sim(9);
        sim.set_fault_plan(
            FaultPlan::new().crash_at(100, 1).recover_at(400_000, 1),
        );
        // Pings arrive ~1 ms; node 1 is down, so they drop.
        sim.run_until(500_000);
        assert_eq!(sim.probes()[1].0, 0);
        let crashes = sim.stats().crashes;
        assert_eq!(crashes, 1);
        // Recovered: a fresh injection lands.
        sim.inject(1, 1, PP::Ping, sim.now() + 10);
        let ok = sim.run_until_probe(2_000_000, |p| p[1].0 >= 1);
        assert!(ok);
    }

    #[test]
    fn one_shard_is_a_plain_simulation() {
        // A single shard runs the same engine as `Simulation` with the
        // shard's derived seed: identical stats and delivery times.
        let net = NetConfig { processing: 30, jitter: 400, ..NetConfig::default() };
        let mut par = ParallelSim::new(
            vec![Pinger::default(), Pinger::default()],
            vec![0, 0],
            ParallelConfig { net: net.clone(), seed: 5, ..Default::default() },
            |p: &Pinger| (p.pings, p.pongs, p.last_at),
        );
        par.run_until(50_000);
        let mut single = Simulation::new(
            vec![Pinger::default(), Pinger::default()],
            net,
            mix(5, mix(0x5aad, 0)),
        );
        single.run_until(50_000 - 1);
        assert_eq!(par.stats(), single.stats());
        let nodes = par.into_nodes();
        for (id, node) in nodes.iter().enumerate() {
            let reference = single.node(id);
            assert_eq!(
                (node.pings, node.pongs, node.last_at),
                (reference.pings, reference.pongs, reference.last_at)
            );
        }
    }

    #[test]
    fn partition_groups_are_per_node_within_a_shard() {
        let mut sim = ParallelSim::new(
            vec![Pinger::default(), Pinger::default()],
            vec![0, 0],
            ParallelConfig { seed: 4, ..Default::default() },
            |p: &Pinger| p.pings,
        );
        sim.set_fault_plan(FaultPlan::new().partition_at(0, vec![0, 1]));
        sim.run_until(100_000);
        assert_eq!(sim.probes()[1], 0, "intra-shard sends across sides must drop");
        assert_eq!(sim.stats().messages_dropped, 10);
    }

    #[test]
    #[should_panic(expected = "link faults")]
    fn link_faults_are_rejected() {
        let mut sim = cross_sim(1);
        let lossy = LinkFault { drop: 0.5, ..Default::default() };
        sim.set_fault_plan(FaultPlan::new().default_link(lossy));
    }

    #[test]
    #[should_panic(expected = "ClearLinkFaults")]
    fn unsupported_events_are_rejected_by_name() {
        let mut sim = cross_sim(1);
        sim.set_fault_plan(FaultPlan::new().clear_links_at(10));
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn interleaved_shards_are_rejected() {
        let _ = ParallelSim::new(
            vec![Pinger::default(), Pinger::default(), Pinger::default()],
            vec![0, 1, 0],
            ParallelConfig::default(),
            |p: &Pinger| p.pings,
        );
    }

    #[test]
    fn restart_with_loss_uses_factory() {
        let mut sim = cross_sim(11);
        sim.set_node_factory(|_| Pinger::default());
        sim.set_fault_plan(FaultPlan::new().restart_with_loss_at(50_000, 0));
        sim.run_until(40_000);
        assert_eq!(sim.probes()[0].1, 10, "initial exchange completes");
        // The fresh node 0 re-runs on_start: 10 more pings on the wire.
        let ok = sim.run_until_probe(1_000_000, |p| p[1].0 >= 20);
        assert!(ok, "restarted node must re-send from on_start");
        assert_eq!(sim.stats().restarts_with_loss, 1);
    }
}
