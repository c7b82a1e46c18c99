//! `serve_pbft`: the serving stack in the E13 shape. A gateway at node 0
//! plus 3 replicas, each with a `DurableLog` on its own `DurableMedia`
//! under the default flush policy; `BatchConfig::new(8, 2000, 2)`; the
//! default `NetConfig` (500 µs one-way, 100 µs jitter, no drops) with
//! `processing = 2`; admission opened wide; 2 closed-loop clients with
//! window 16.
//!
//! Every node is wrapped in a benchmark-owned [`Timed`] actor that
//! times `on_message` and `on_timer`. A write's wall latency is the
//! wall time the one-threaded simulation spent between the client's
//! first send and the handler that delivered its commit; its virtual
//! latency comes from `ClientStats`.

use crate::reference;
use crate::trace::Tracer;
use crate::{Rep, Scale};
use prever_consensus::durable::{DurableLog, DurableMedia};
use prever_consensus::pbft::{PbftMsg, NOOP_ID};
use prever_consensus::BatchConfig;
use prever_server::{
    ClientCfg, ClientPeer, FrontConfig, Gateway, LoadMode, Replica, ServerMsg, ServerPeer,
};
use prever_sim::{Actor, Ctx, NetConfig, NodeId, Simulation};
use prever_wire::Class;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::time::Instant;

/// Why the workload exists.
pub const WHY: &str = "wire, server, consensus, durable log and simulator: closed-loop clients through the gateway to 4-replica PBFT";

/// Consensus replicas (gateway included).
const REPLICAS: usize = 4;
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Outstanding requests per client.
const WINDOW: usize = 16;
const REQUESTS: u64 = 2000;
const MAX_EVENTS: u64 = 50_000_000;
/// Virtual µs run after the clients finish, so every replica executes
/// every committed batch before the oracles look.
const DRAIN_US: u64 = 1_000_000;

/// Metric stem per `PbftMsg::kind`.
pub(crate) const HANDLER_STEMS: [(&str, &str); 9] = [
    ("request", "consensus.handler_ns.request"),
    ("pre_prepare", "consensus.handler_ns.pre_prepare"),
    ("prepare", "consensus.handler_ns.prepare"),
    ("commit", "consensus.handler_ns.commit"),
    ("view_change", "consensus.handler_ns.view_change"),
    ("new_view", "consensus.handler_ns.new_view"),
    ("checkpoint", "consensus.handler_ns.checkpoint"),
    ("state_request", "consensus.handler_ns.state_request"),
    ("state_response", "consensus.handler_ns.state_response"),
];

fn handler_stem(m: &PbftMsg) -> &'static str {
    let kind = m.kind();
    HANDLER_STEMS
        .iter()
        .find(|(k, _)| *k == kind)
        .map_or("consensus.handler_ns.other", |(_, s)| s)
}

/// State shared by every [`Timed`] node of one simulation.
struct Shared {
    tracer: Tracer,
    origin: Instant,
    /// [`reference::paused_ns`] at `origin`.
    paused_at_origin: u64,
    /// Per client: (virtual µs, wall ns) at the entry of each of its
    /// handlers, in dispatch order.
    timeline: Vec<Vec<(u64, u64)>>,
    /// Wall-ns from first send to commit, per committed command.
    writes_ns: Vec<u64>,
    /// [`reference::epoch`] at each commit.
    writes_epoch: Vec<u32>,
    /// Consensus messages delivered.
    pbft_msgs: u64,
}

impl Shared {
    /// Wall-ns since `origin`, reference slices taken out.
    fn wall_ns(&self) -> u64 {
        let paused = reference::paused_ns() - self.paused_at_origin;
        self.origin.elapsed().as_nanos() as u64 - paused
    }
}

/// A serving-cluster node with its handlers timed.
struct Timed {
    peer: ServerPeer,
    client: Option<usize>,
    shared: Rc<RefCell<Shared>>,
}

impl Timed {
    fn dispatch(
        &mut self,
        stem: &'static str,
        ctx: &mut Ctx<ServerMsg>,
        f: impl FnOnce(&mut ServerPeer, &mut Ctx<ServerMsg>),
    ) {
        reference::tick();
        let Some(c) = self.client else {
            self.shared.borrow_mut().tracer.begin(stem, 0);
            f(&mut self.peer, ctx);
            self.shared.borrow_mut().tracer.end();
            return;
        };
        let before = self.committed();
        {
            let mut sh = self.shared.borrow_mut();
            let wall = sh.wall_ns();
            sh.timeline[c].push((ctx.now(), wall));
            sh.tracer.begin(stem, 0);
        }
        f(&mut self.peer, ctx);
        let mut sh = self.shared.borrow_mut();
        sh.tracer.end();
        let lat = &self
            .peer
            .as_client()
            .expect("client node")
            .conn
            .stats()
            .latencies_us;
        if lat.len() > before {
            let wall = sh.wall_ns();
            let now = ctx.now();
            for &l in &lat[before..] {
                let sent = now - l;
                let tl = &sh.timeline[c];
                let at = tl.partition_point(|&(vt, _)| vt < sent);
                let w0 = tl.get(at).map_or(wall, |&(_, w)| w);
                sh.writes_ns.push(wall - w0);
                sh.writes_epoch.push(reference::epoch());
            }
        }
    }

    fn committed(&self) -> usize {
        self.peer
            .as_client()
            .map_or(0, |c| c.conn.stats().latencies_us.len())
    }
}

impl Actor for Timed {
    type Msg = ServerMsg;

    fn on_start(&mut self, ctx: &mut Ctx<ServerMsg>) {
        let stem = if self.client.is_some() {
            "server.client_ns"
        } else {
            "consensus.timer_ns"
        };
        self.dispatch(stem, ctx, |p, ctx| p.on_start(ctx));
    }

    fn on_message(&mut self, from: NodeId, msg: ServerMsg, ctx: &mut Ctx<ServerMsg>) {
        let stem = match (&self.peer, &msg) {
            (ServerPeer::Client(_), _) => "server.client_ns",
            (_, ServerMsg::Pbft(m)) => {
                self.shared.borrow_mut().pbft_msgs += 1;
                handler_stem(m)
            }
            _ => "server.frame_ns",
        };
        self.dispatch(stem, ctx, |p, ctx| p.on_message(from, msg, ctx));
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<ServerMsg>) {
        let stem = if self.client.is_some() {
            "server.client_ns"
        } else {
            "consensus.timer_ns"
        };
        self.dispatch(stem, ctx, |p, ctx| p.on_timer(timer, ctx));
    }
}

fn batch() -> BatchConfig {
    BatchConfig::new(8, 2000, 2)
}

fn front() -> FrontConfig {
    FrontConfig {
        tenant_rate: 1_000_000,
        tenant_burst: 1_000_000,
        queue_cap: 1024,
        inflight_cap: 64,
        ..FrontConfig::default()
    }
}

fn client_cfg(i: usize, requests: u64, seed: u64) -> ClientCfg {
    ClientCfg {
        tenant: i as u32 + 1,
        class: Class::Normal,
        servers: vec![0],
        mode: LoadMode::Closed {
            window: WINDOW,
            think_us: 0,
        },
        requests,
        timeout_us: 2_000_000,
        retry_budget: 64,
        id_base: id_base(i),
        seed: seed.wrapping_mul(31).wrapping_add(i as u64),
        ..ClientCfg::default()
    }
}

fn id_base(i: usize) -> u64 {
    (i as u64 + 1) << 32
}

struct Cluster {
    sim: Simulation<Timed>,
    media: Vec<DurableMedia>,
    shared: Rc<RefCell<Shared>>,
}

fn cluster(seed: u64, requests: u64) -> Cluster {
    let media: Vec<DurableMedia> = (0..REPLICAS)
        .map(|id| DurableMedia::new(seed.wrapping_add(id as u64)))
        .collect();
    let shared = Rc::new(RefCell::new(Shared {
        tracer: Tracer::new(false),
        origin: Instant::now(),
        paused_at_origin: reference::paused_ns(),
        timeline: vec![Vec::new(); CLIENTS],
        writes_ns: Vec::new(),
        writes_epoch: Vec::new(),
        pbft_msgs: 0,
    }));
    let mut nodes = Vec::with_capacity(REPLICAS + CLIENTS);
    for (id, m) in media.iter().enumerate() {
        let log = DurableLog::on(m);
        let peer = if id == 0 {
            ServerPeer::Gateway(Box::new(Gateway::with_durable(
                id,
                REPLICAS,
                front(),
                batch(),
                log,
            )))
        } else {
            ServerPeer::Replica(Box::new(Replica::with_durable(id, REPLICAS, batch(), log)))
        };
        nodes.push(Timed {
            peer,
            client: None,
            shared: shared.clone(),
        });
    }
    for c in 0..CLIENTS {
        let peer = ServerPeer::Client(Box::new(ClientPeer::new(client_cfg(c, requests, seed))));
        nodes.push(Timed {
            peer,
            client: Some(c),
            shared: shared.clone(),
        });
    }
    let net = NetConfig {
        processing: 2,
        ..NetConfig::default()
    };
    Cluster {
        sim: Simulation::new(nodes, net, seed),
        media,
        shared,
    }
}

fn clients_done(nodes: &[Timed]) -> bool {
    nodes
        .iter()
        .filter_map(|n| n.peer.as_client())
        .all(|c| c.conn.done())
}

/// Runs one repetition.
pub fn run(seed: u64, scale: Scale, trace: bool) -> Result<Rep, String> {
    let requests = match scale {
        Scale::Full => REQUESTS,
        Scale::Small => 40,
    };

    // Set-up: a throwaway warm-up cluster, then the measured one.
    reference::begin(!trace);
    let t_setup = Instant::now();
    let mut warm = cluster(seed ^ 0x5eed, requests / 8);
    if !warm.sim.run_until_pred(MAX_EVENTS, clients_done) {
        return Err("warm-up cluster did not finish".into());
    }
    drop(warm);
    let Cluster {
        mut sim,
        media,
        shared,
    } = cluster(seed, requests);
    let setup_s = t_setup.elapsed().as_secs_f64();
    reference::setup_done();

    let total = requests * CLIENTS as u64;
    let mut rep = Rep {
        setup_s,
        writes_nominal: total as usize,
        attempted: total,
        ..Rep::default()
    };
    shared.borrow_mut().tracer = Tracer::new(trace);
    let paused = reference::paused_ns();
    shared.borrow_mut().origin = Instant::now();
    shared.borrow_mut().paused_at_origin = paused;
    let t_pass = Instant::now();
    shared.borrow_mut().tracer.begin("sim.run", 0);
    let done = sim.run_until_pred(MAX_EVENTS, clients_done);
    shared.borrow_mut().tracer.end();
    rep.pass_ns = t_pass.elapsed().as_nanos() as u64 - (reference::paused_ns() - paused);
    rep.samples = reference::end();
    let tracer = std::mem::replace(&mut shared.borrow_mut().tracer, Tracer::new(false));
    rep.trace = tracer.finish();
    if !done {
        return Err("clients did not finish within the event budget".into());
    }
    let st = sim.stats();
    rep.events = st.messages_delivered + st.timers_fired;
    let (flushes, bytes) = media.iter().fold((0, 0), |(f, b), m| {
        let s = m.wal.stats();
        (f + s.flushes, b + s.bytes_appended)
    });
    let pbft_msgs = shared.borrow().pbft_msgs;
    sim.run_until(sim.now() + DRAIN_US);

    // Oracles: every command commits exactly once, replicas agree, and
    // every acked command survives a crash of every disk.
    let mut acked: BTreeSet<u64> = BTreeSet::new();
    for c in 0..CLIENTS {
        let conn = &sim
            .node(REPLICAS + c)
            .peer
            .as_client()
            .expect("client node")
            .conn;
        let s = conn.stats();
        rep.failed += s.gave_up + s.deadline_exceeded + s.rejected;
        rep.commit_vus.extend_from_slice(&s.latencies_us);
        for &id in conn.acked_ids() {
            if !(id_base(c)..id_base(c) + requests).contains(&id) {
                return Err(format!("client {c} acked foreign command {id}"));
            }
            acked.insert(id);
        }
    }
    rep.ops = acked.len() as u64;
    let gw = sim.node(0).peer.as_gateway().expect("gateway");
    let executed: Vec<u64> = gw
        .adapter
        .core
        .executed()
        .iter()
        .map(|d| d.command.id)
        .filter(|&id| id != NOOP_ID)
        .collect();
    let unique: BTreeSet<u64> = executed.iter().copied().collect();
    if unique.len() != executed.len() {
        return Err(format!(
            "{} commands executed more than once",
            executed.len() - unique.len()
        ));
    }
    if !acked.is_subset(&unique) {
        return Err("an acked command is not in the gateway's executed log".into());
    }
    if unique.len() as u64 != total - rep.failed {
        return Err(format!(
            "{} commands executed, {} expected",
            unique.len(),
            total - rep.failed
        ));
    }
    let digest = gw.adapter.core.state_digest();
    for id in 1..REPLICAS {
        let core = sim.node(id).peer.core().expect("replica");
        if core.state_digest() != digest
            || core.executed().len() != gw.adapter.core.executed().len()
        {
            return Err(format!(
                "replica {id} disagrees with the gateway's state digest"
            ));
        }
    }
    let batches = gw.adapter.core.executed_batches().len();
    let shed = gw.front.stats();
    let shed = shed.shed_overload + shed.shed_deadline + shed.shed_low_priority + shed.shed_reads;
    if shed > 0 {
        return Err(format!(
            "admission shed {shed} requests with admission opened wide"
        ));
    }
    let log_len = gw.adapter.durable().map_or(0, DurableLog::len);
    for (id, m) in media.iter().enumerate() {
        m.crash_dropping_cache();
        let (log, _) = DurableLog::recover(m).map_err(|e| format!("replica {id} recovery: {e}"))?;
        let replayed = log
            .replay()
            .map_err(|e| format!("replica {id} replay: {e}"))?;
        let ids: BTreeSet<u64> = replayed
            .entries
            .iter()
            .flat_map(|(_, b, _)| b.commands().iter().map(|c| c.id))
            .collect();
        if let Some(lost) = acked.iter().find(|id| !ids.contains(id)) {
            return Err(format!(
                "replica {id} lost acked command {lost} after a crash"
            ));
        }
    }

    rep.writes_ns = std::mem::take(&mut shared.borrow_mut().writes_ns);
    rep.writes_epoch = std::mem::take(&mut shared.borrow_mut().writes_epoch);
    let cmds = rep.ops.max(1) as f64;
    rep.exact.insert("ledger.entries", log_len as f64);
    rep.exact
        .insert("consensus.msgs_per_cmd", pbft_msgs as f64 / cmds);
    rep.exact.insert(
        "consensus.cmds_per_batch",
        unique.len() as f64 / batches.max(1) as f64,
    );
    rep.exact
        .insert("consensus.wal_flushes_per_cmd", flushes as f64 / cmds);
    rep.exact
        .insert("consensus.wal_bytes_per_cmd", bytes as f64 / cmds);
    rep.exact
        .insert("sim.events_per_cmd", rep.events as f64 / cmds);
    rep.exact.insert("server.shed", shed as f64);
    Ok(rep)
}
