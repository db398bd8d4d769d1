//! The sharded deterministic cycle engine.
//!
//! [`ShardedSimulation`] partitions the population into `S` shards and runs
//! the paper's cycle model as a **two-phase** protocol per cycle:
//!
//! 1. **Initiate** — every shard walks its own live nodes in a fresh
//!    shard-local random order. An exchange whose peer lives in the *same*
//!    shard completes inline and atomically, exactly like the sequential
//!    engine. An exchange targeting a *remote* shard queues its request
//!    into a fixed-order cross-shard mailbox.
//! 2. **Exchange** — each shard drains its request mailbox in sender-shard
//!    order (FIFO within each sender), running the passive thread and
//!    queueing replies; replies are then drained the same way and absorbed
//!    by their initiators.
//!
//! The shard partitioning, mailbox transposition and the persistent
//! worker-pool scaffolding live in [`crate::exec`] and [`crate::pool`],
//! shared with the event-driven [`crate::ShardedEventSimulation`]. Each
//! shard owns its staging [`Arena`]: recycled message capacity stays with
//! the shard no matter which pool thread runs it.
//!
//! # Determinism contract
//!
//! All randomness derives from the construction seed: a *control* RNG on
//! the driver thread (node seeds, churn, `get_peer`) plus one RNG per shard
//! (initiation order, message loss). Shards never share mutable state
//! within a phase — mailboxes are written by exactly one shard and read by
//! exactly one shard, on opposite sides of a phase barrier — so for a fixed
//! `(seed, shard_count)` the results are **bit-identical regardless of the
//! worker-thread count**. Worker threads are pure executors; changing
//! [`ShardedSimulation::set_workers`] can never change any view, report, or
//! snapshot, which the determinism regression tests pin.
//!
//! Changing the *shard count* legitimately changes results (cross-shard
//! exchanges resolve in mailbox order rather than initiation order), just
//! as changing the seed does. The sequential [`crate::Simulation`] is
//! exactly this engine with one shard: every peer is then local, every
//! exchange is inline and atomic, and the mailbox machinery is never
//! touched.

use pss_core::{
    Arena, GossipNode, NodeDescriptor, NodeId, PeerSamplingNode, ProtocolConfig, Reply, Request,
    View,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::exec::{self, lose, Directory, Mailboxes, SlotRef};
use crate::pool::WorkerPool;
use crate::population::{BoxedNode, Population};
use crate::workload::Partition;
use crate::Snapshot;

/// Per-cycle accounting returned by [`ShardedSimulation::run_cycle`] and
/// [`crate::Simulation::run_cycle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct CycleReport {
    /// Exchanges that ran to completion.
    pub completed: u64,
    /// Exchanges aimed at a dead peer (message silently lost).
    pub failed_dead_peer: u64,
    /// Nodes that could not initiate (empty view).
    pub empty_view: u64,
    /// Requests or replies dropped by the loss model.
    pub dropped_messages: u64,
}

impl CycleReport {
    /// Total initiation attempts in the cycle.
    pub fn initiated(&self) -> u64 {
        self.completed + self.failed_dead_peer + self.empty_view + self.dropped_messages
    }
}

impl core::ops::AddAssign for CycleReport {
    fn add_assign(&mut self, rhs: CycleReport) {
        self.completed += rhs.completed;
        self.failed_dead_peer += rhs.failed_dead_peer;
        self.empty_view += rhs.empty_view;
        self.dropped_messages += rhs.dropped_messages;
    }
}

/// How the simulator treats exchange attempts with dead peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum FailureMode {
    /// Peer selection only considers live view entries — the paper's model:
    /// "selectPeer() … returns the address of a live node as found in the
    /// caller's current view". This abstracts the timeout-and-retry a real
    /// implementation performs within one period. Dead descriptors stay in
    /// views as dead links; they are just never *selected*.
    #[default]
    SkipDead,
    /// Peer selection is liveness-blind; an exchange aimed at a dead peer is
    /// silently lost and the initiator's cycle is wasted. Under `tail` peer
    /// selection this model lets nodes wedge on a dead stalest entry and
    /// re-select it forever — a failure mode worth studying (see the
    /// extension experiments), but not what the paper simulated.
    AttemptAndLose,
}

/// Automatic population growth, reproducing the paper's *growing overlay*
/// scenario: at the beginning of each cycle, `nodes_per_cycle` fresh nodes
/// join (until `target` is reached), each knowing only the oldest node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct GrowthPlan {
    /// Nodes added per cycle.
    pub nodes_per_cycle: usize,
    /// Population size at which growth stops.
    pub target: usize,
}

/// A request crossing a shard boundary.
struct QueuedRequest {
    from: NodeId,
    to_slot: u32,
    request: Request,
}

/// A reply crossing back.
struct QueuedReply {
    from: NodeId,
    to_slot: u32,
    reply: Reply,
}

/// One shard: a node partition plus everything its worker needs to run a
/// phase without touching any other shard.
struct Shard<N> {
    index: usize,
    pop: Population<N>,
    /// Shard-owned staging arena: every protocol call on this shard's
    /// nodes works out of it, so recycled buffers stay shard-local no
    /// matter which pool thread runs the phase.
    arena: Arena,
    /// Shard-local RNG: initiation order and message-loss draws.
    rng: SmallRng,
    /// Per-cycle initiation order (local slots), reused across cycles.
    order: Vec<u32>,
    /// Cross-shard request queues (filled in phase 1, drained in phase 2).
    requests: Mailboxes<QueuedRequest>,
    /// Cross-shard reply queues (filled in phase 2, drained in phase 3).
    replies: Mailboxes<QueuedReply>,
    /// This shard's share of the cycle report.
    report: CycleReport,
}

/// Read-only cycle context shared by all workers during a phase.
struct CycleCtx<'a> {
    directory: &'a [SlotRef],
    /// Cycle-start liveness snapshot, bit per *global* id.
    alive: &'a [u64],
    loss: f64,
    mode: FailureMode,
    partition: Option<Partition>,
}

impl CycleCtx<'_> {
    #[inline]
    fn is_live(&self, id: NodeId) -> bool {
        let slot = id.as_index();
        self.alive
            .get(slot / 64)
            .is_some_and(|word| word & (1 << (slot % 64)) != 0)
    }
}

/// The sharded cycle-driven simulator. See the [crate docs](crate) for the
/// execution model and determinism contract; see [`crate::Simulation`] for
/// the sequential (1-shard) wrapper that keeps the historical API.
pub struct ShardedSimulation<N: GossipNode + Send = BoxedNode> {
    shards: Vec<Shard<N>>,
    dir: Directory,
    factory: Box<dyn Fn(NodeId, u64) -> N + Send + Sync>,
    /// Driver-thread RNG: node seeds, churn, `get_peer`.
    control_rng: SmallRng,
    /// Construction seed, kept for (seed, id)-pure bulk construction.
    seed: u64,
    cycle: u64,
    growth: Option<GrowthPlan>,
    message_loss: f64,
    failure_mode: FailureMode,
    partition: Option<Partition>,
    /// Persistent phase executor: threads live as long as the simulation.
    pool: WorkerPool,
    /// Per-cycle liveness snapshot buffer, reused across cycles.
    alive_snapshot: Vec<u64>,
    /// Phase/imbalance telemetry (`engine="cycle"`); purely observational.
    tele: crate::telemetry::EngineTele,
}

impl ShardedSimulation {
    /// Creates an empty sharded simulation whose (boxed) nodes run the
    /// generic protocol of the paper under `config`.
    pub fn new(config: ProtocolConfig, seed: u64, shards: usize) -> Self {
        ShardedSimulation::with_factory(seed, shards, move |id, node_seed| {
            Box::new(PeerSamplingNode::with_seed(id, config.clone(), node_seed)) as BoxedNode
        })
    }
}

impl ShardedSimulation<PeerSamplingNode> {
    /// Creates an empty **monomorphized** sharded simulation of
    /// [`PeerSamplingNode`]s: identical behavior to
    /// [`ShardedSimulation::new`] (same seeds ⇒ same exchanges), minus the
    /// virtual dispatch.
    pub fn typed(config: ProtocolConfig, seed: u64, shards: usize) -> Self {
        ShardedSimulation::with_factory(seed, shards, move |id, node_seed| {
            PeerSamplingNode::with_seed(id, config.clone(), node_seed)
        })
    }
}

impl<N: GossipNode + Send> ShardedSimulation<N> {
    /// Creates an empty sharded simulation with a custom node factory. The
    /// factory receives the assigned node id and a derived RNG seed; it must
    /// be `Fn + Sync` so per-shard populations can be built in parallel
    /// ([`ShardedSimulation::add_nodes_bulk`]).
    ///
    /// Worker count defaults to the available parallelism, capped at the
    /// shard count; it affects wall-clock time only, never results.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_factory(
        seed: u64,
        shards: usize,
        factory: impl Fn(NodeId, u64) -> N + Send + Sync + 'static,
    ) -> Self {
        assert!(shards > 0, "need at least one shard");
        let tele =
            crate::telemetry::EngineTele::new("cycle", &["initiate", "respond", "absorb"], shards);
        let default_workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(shards);
        let shards = (0..shards)
            .map(|index| Shard {
                index,
                pop: Population::new(),
                arena: Arena::new(),
                // Independent per-shard stream; offset so shard 0 does not
                // alias the control RNG.
                rng: SmallRng::seed_from_u64(exec::shard_seed(seed, index)),
                order: Vec::new(),
                requests: Mailboxes::new(shards),
                replies: Mailboxes::new(shards),
                report: CycleReport::default(),
            })
            .collect();
        ShardedSimulation {
            shards,
            dir: Directory::new(),
            factory: Box::new(factory),
            control_rng: SmallRng::seed_from_u64(seed),
            seed,
            cycle: 0,
            growth: None,
            message_loss: 0.0,
            failure_mode: FailureMode::default(),
            partition: None,
            pool: WorkerPool::new(default_workers),
            alive_snapshot: Vec::new(),
            tele,
        }
    }

    /// Number of shards (fixed at construction; part of the result
    /// contract, unlike the worker count).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads used per phase.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Sets the worker-thread count (clamped to `1..=shard_count`),
    /// rebuilding the persistent pool (the old threads are joined, the new
    /// ones live until the next change or drop). Affects wall-clock time
    /// only; results are bit-identical for any value.
    pub fn set_workers(&mut self, workers: usize) {
        let workers = workers.clamp(1, self.shards.len());
        if workers != self.pool.workers() {
            self.pool = WorkerPool::new(workers);
        }
    }

    /// Declares that the next `n` node ids will be bulk-added, mapping them
    /// to **contiguous per-shard id ranges** (shard `k` owns ids
    /// `[k·n/S, (k+1)·n/S)`). Nodes added beyond the plan go to the least
    /// loaded shard. Call before the first [`ShardedSimulation::add_node`];
    /// the scenario constructors do this for you.
    ///
    /// # Panics
    ///
    /// Panics if nodes were already added.
    pub fn plan_capacity(&mut self, n: usize) {
        self.dir.plan_capacity(n);
    }

    fn shard_for_new(&self, id: u64) -> usize {
        self.dir
            .shard_for_new(id, self.shards.iter().map(|sh| sh.pop.len()))
    }

    /// Selects how exchanges with dead peers are handled (default:
    /// [`FailureMode::SkipDead`], the paper's model).
    pub fn set_failure_mode(&mut self, mode: FailureMode) {
        self.failure_mode = mode;
    }

    /// Installs a growth plan (see [`GrowthPlan`]). Growth happens at the
    /// beginning of each subsequent cycle.
    pub fn set_growth(&mut self, plan: GrowthPlan) {
        self.growth = Some(plan);
    }

    /// Sets a per-message loss probability (0.0 = the paper's lossless
    /// model). Both requests and replies are subject to loss.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not within `[0, 1]`.
    pub fn set_message_loss(&mut self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0,1]"
        );
        self.message_loss = p;
    }

    /// Installs (`Some`) or lifts (`None`) a partition loss matrix
    /// ([`crate::workload::Partition`]): exchanges whose initiator and peer
    /// sit in different groups are dropped before the request is sent,
    /// counted as [`CycleReport::dropped_messages`]. The check is a pure
    /// function of the two ids, so the determinism contract is unaffected.
    pub fn set_partition(&mut self, partition: Option<Partition>) {
        self.partition = partition;
    }

    /// Adds one node bootstrapped from `seeds` and returns its id.
    ///
    /// The node seed is drawn from the driver's control RNG, so joins are
    /// ordered events in the run's history (churn determinism). For the
    /// worker-parallel bootstrap path with (seed, id)-pure node seeds, see
    /// [`ShardedSimulation::add_nodes_bulk`].
    pub fn add_node(&mut self, seeds: impl IntoIterator<Item = NodeDescriptor>) -> NodeId {
        let node_seed = self.control_rng.random();
        let id = NodeId::new(self.dir.len() as u64);
        let shard = self.shard_for_new(id.as_u64());
        let node = (self.factory)(id, node_seed);
        debug_assert_eq!(node.id(), id, "factory must honor the assigned id");
        let slot = self.shards[shard].pop.add_slot(node);
        let pushed = self.dir.push(shard as u32, slot);
        debug_assert_eq!(pushed, id);
        self.shards[shard]
            .pop
            .slot_mut(slot)
            .node
            .init(&mut seeds.into_iter());
        id
    }

    /// Bulk-adds `n` nodes with **worker-parallel per-shard construction**:
    /// node `i` gets the view returned by `seeds(i)`, and both its RNG seed
    /// and its shard placement are pure functions of `(construction seed,
    /// id)` — so the resulting population is bit-identical at any worker
    /// count, which the bootstrap regression tests pin. `seeds` must be
    /// pure for the same reason (the scenario constructors' per-node view
    /// generators are).
    ///
    /// This is the bootstrap path for N = 10⁶ runs, where driver-serial
    /// construction is a noticeable fraction of a short run.
    ///
    /// Node seeds differ from [`ShardedSimulation::add_node`]'s
    /// control-RNG draws: bulk-built populations are their own (equally
    /// deterministic) universe, exactly like a different construction seed.
    ///
    /// # Panics
    ///
    /// Panics if nodes were already added.
    pub fn add_nodes_bulk<I>(&mut self, n: usize, seeds: impl Fn(NodeId) -> I + Sync)
    where
        I: IntoIterator<Item = NodeDescriptor>,
    {
        exec::bulk_build(
            &mut self.dir,
            &mut self.shards,
            &self.pool,
            n,
            self.seed,
            self.factory.as_ref(),
            seeds,
            |shard| &mut shard.pop,
            |shard| shard.index,
            |_, _, _| {}, // cycle nodes have no per-node schedule
        );
    }

    /// Adds `count` nodes, each bootstrapped with `contacts` uniform-random
    /// live contacts (join under churn). Contacts are drawn from the
    /// members that existed *before* this batch — fresh joiners never
    /// bootstrap off each other, which would risk isolated joiner islands.
    /// Returns the new ids.
    pub fn add_nodes_with_random_contacts(&mut self, count: usize, contacts: usize) -> Vec<NodeId> {
        let existing: Vec<NodeId> = self.alive_ids();
        let mut new_ids = Vec::with_capacity(count);
        for _ in 0..count {
            let seeds: Vec<NodeDescriptor> = if existing.is_empty() {
                Vec::new()
            } else {
                (0..contacts)
                    .map(|_| {
                        let pick = existing[self.control_rng.random_range(0..existing.len())];
                        NodeDescriptor::fresh(pick)
                    })
                    .collect()
            };
            new_ids.push(self.add_node(seeds));
        }
        new_ids
    }

    /// Runs one full cycle and reports what happened.
    pub fn run_cycle(&mut self) -> CycleReport {
        self.apply_growth();
        self.cycle += 1;

        // Liveness cannot change mid-cycle, so snapshot it once; every
        // worker reads the same frozen bitset.
        self.alive_snapshot.clear();
        self.alive_snapshot.extend_from_slice(self.dir.alive_bits());

        let Self {
            shards,
            dir,
            alive_snapshot,
            pool,
            message_loss,
            failure_mode,
            partition,
            tele,
            cycle,
            ..
        } = self;
        let cycle = *cycle;
        let ctx = CycleCtx {
            directory: dir.slots(),
            alive: alive_snapshot.as_slice(),
            loss: *message_loss,
            mode: *failure_mode,
            partition: *partition,
        };

        // Phase indices match the names registered in `with_factory`.
        let index = |shard: &Shard<N>| shard.index;
        tele.run_phase(0, Some(cycle), shards, pool, index, |shard| {
            phase_initiate(shard, &ctx)
        });
        exec::transpose(shards, |shard| &mut shard.requests);
        tele.run_phase(1, Some(cycle), shards, pool, index, |shard| {
            phase_respond(shard, &ctx)
        });
        exec::transpose(shards, |shard| &mut shard.replies);
        tele.run_phase(2, Some(cycle), shards, pool, index, phase_absorb);
        tele.cycle_done();

        let mut report = CycleReport::default();
        for shard in shards.iter_mut() {
            report += core::mem::take(&mut shard.report);
        }
        report
    }

    /// Runs `n` cycles, discarding the per-cycle reports.
    pub fn run_cycles(&mut self, n: u64) {
        for _ in 0..n {
            self.run_cycle();
        }
    }

    fn apply_growth(&mut self) {
        let Some(plan) = self.growth else { return };
        if self.node_count() >= plan.target {
            return;
        }
        let missing = plan.target - self.node_count();
        let joining = plan.nodes_per_cycle.min(missing);
        // "The view of these nodes is initialized with only a single node
        // descriptor, which belongs to the oldest, initial node."
        let oldest = NodeId::new(0);
        for _ in 0..joining {
            self.add_node([NodeDescriptor::fresh(oldest)]);
        }
    }

    /// Number of cycles run so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Total nodes ever added (dead slots included).
    pub fn node_count(&self) -> usize {
        self.dir.len()
    }

    /// Number of live nodes.
    pub fn alive_count(&self) -> usize {
        self.dir.alive_count()
    }

    /// True if `id` exists and is alive.
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.dir.is_alive(id)
    }

    /// Ids of all live nodes, in increasing order.
    pub fn alive_ids(&self) -> Vec<NodeId> {
        self.dir.alive_ids()
    }

    fn entry(&self, id: NodeId) -> Option<&crate::population::Entry<N>> {
        let slot_ref = self.dir.slot_ref(id)?;
        Some(self.shards[slot_ref.shard as usize].pop.slot(slot_ref.slot))
    }

    fn entry_mut(&mut self, id: NodeId) -> Option<&mut crate::population::Entry<N>> {
        let slot_ref = self.dir.slot_ref(id)?;
        Some(
            self.shards[slot_ref.shard as usize]
                .pop
                .slot_mut(slot_ref.slot),
        )
    }

    /// The view of a live node.
    pub fn view_of(&self, id: NodeId) -> Option<&View> {
        if !self.is_alive(id) {
            return None;
        }
        self.entry(id).map(|e| e.node.view())
    }

    /// Calls the peer sampling service (`getPeer()`) on a live node.
    pub fn get_peer(&mut self, id: NodeId) -> Option<NodeId> {
        if !self.is_alive(id) {
            return None;
        }
        // getPeer is a uniform sample of the view, per the paper's simplest
        // implementation; drive it with the control RNG for determinism.
        let len = self.entry(id)?.node.view().len();
        if len == 0 {
            return None;
        }
        let idx = self.control_rng.random_range(0..len);
        Some(self.entry(id)?.node.view().descriptors()[idx].id())
    }

    /// Re-initializes a live node's view from fresh seed descriptors (the
    /// service's `init()` called again). Returns false for dead/unknown
    /// nodes.
    pub fn reinit_node(
        &mut self,
        id: NodeId,
        seeds: impl IntoIterator<Item = NodeDescriptor>,
    ) -> bool {
        if !self.is_alive(id) {
            return false;
        }
        match self.entry_mut(id) {
            Some(entry) => {
                entry.node.init(&mut seeds.into_iter());
                true
            }
            None => false,
        }
    }

    /// Kills one node (crash-stop). Returns false if already dead/unknown.
    pub fn kill(&mut self, id: NodeId) -> bool {
        exec::kill_node(&mut self.dir, &mut self.shards, id, |shard| &mut shard.pop)
    }

    /// Kills a uniform-random set of `count` live nodes and returns them.
    pub fn kill_random(&mut self, count: usize) -> Vec<NodeId> {
        let mut alive: Vec<NodeId> = self.alive_ids();
        // Only `count` picks are needed, not a full-population shuffle.
        let count = count.min(alive.len());
        let (victims, _) = alive.partial_shuffle(&mut self.control_rng, count);
        let victims = victims.to_vec();
        for &v in &victims {
            self.kill(v);
        }
        victims
    }

    /// Kills `fraction` (0..=1) of the live population at random.
    pub fn kill_random_fraction(&mut self, fraction: f64) -> Vec<NodeId> {
        let fraction = fraction.clamp(0.0, 1.0);
        let count = (self.alive_count() as f64 * fraction).round() as usize;
        self.kill_random(count)
    }

    /// Descriptors in live views that point to dead nodes (Figure 7's
    /// y-axis).
    pub fn dead_link_count(&self) -> usize {
        self.shards
            .iter()
            .map(|sh| sh.pop.dead_link_count_with(|id| self.is_alive(id)))
            .sum()
    }

    /// Builds the communication-graph snapshot over live nodes, in global
    /// id order.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot::build(
            (0..self.dir.len() as u64)
                .map(NodeId::new)
                .filter(|&id| self.is_alive(id))
                .map(|id| (id, self.entry(id).expect("in directory").node.view())),
            |id| self.is_alive(id),
        )
    }

    /// Visits every live node's `(id, view)` in increasing id order.
    /// The allocation-free way to export overlay topology at large N (the
    /// CSR snapshot path builds on this).
    pub fn for_each_live_view(&self, mut f: impl FnMut(NodeId, &View)) {
        for id in (0..self.dir.len() as u64).map(NodeId::new) {
            if self.is_alive(id) {
                f(id, self.entry(id).expect("in directory").node.view());
            }
        }
    }

    /// Builds the directed live-view graph as a flat CSR — the snapshot
    /// path that survives N = 10⁶: two edge arrays plus the id mapping, no
    /// per-node allocations, no hash maps. Dead view targets are dropped,
    /// exactly as in [`ShardedSimulation::snapshot`].
    pub fn csr_snapshot(&self) -> crate::CsrSnapshot {
        exec::csr_from_views(self.dir.len(), self.dir.alive_count(), |f| {
            self.for_each_live_view(f)
        })
    }

    /// Estimates overlay health by streaming view rows — the O(id-space)
    /// alternative to materializing [`ShardedSimulation::csr_snapshot`]'s
    /// edge arrays at very large N (see [`crate::StreamingMetrics`]).
    pub fn streaming_metrics(&self) -> crate::StreamingMetrics {
        crate::StreamingMetrics::from_views(self.dir.len(), |f| self.for_each_live_view(f))
    }
}

impl<N: GossipNode + Send> std::fmt::Debug for ShardedSimulation<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSimulation")
            .field("cycle", &self.cycle)
            .field("shards", &self.shards.len())
            .field("workers", &self.pool.workers())
            .field("nodes", &self.dir.len())
            .field("alive", &self.dir.alive_count())
            .field("growth", &self.growth)
            .field("message_loss", &self.message_loss)
            .field("partition", &self.partition)
            .finish()
    }
}

/// Phase 1: every live node initiates; local exchanges complete inline,
/// remote requests are queued.
fn phase_initiate<N: GossipNode + Send>(shard: &mut Shard<N>, ctx: &CycleCtx<'_>) {
    let Shard {
        index,
        pop,
        arena,
        rng,
        order,
        requests,
        report,
        ..
    } = shard;
    order.clear();
    order.extend(pop.alive_slots());
    order.shuffle(rng);
    for &slot in order.iter() {
        // Nodes cannot die mid-cycle, but guard anyway.
        if !pop.slot(slot).alive {
            continue;
        }
        let entry = pop.slot_mut(slot);
        let initiator = entry.node.id();
        let had_view = !entry.node.view().is_empty();
        let exchange = match ctx.mode {
            FailureMode::SkipDead => entry
                .node
                .initiate_filtered(arena, &mut |peer| ctx.is_live(peer)),
            FailureMode::AttemptAndLose => entry.node.initiate(arena),
        };
        let Some(exchange) = exchange else {
            if had_view {
                report.failed_dead_peer += 1; // view held only dead links
            } else {
                report.empty_view += 1;
            }
            continue;
        };
        let peer = exchange.peer;
        if !ctx.is_live(peer) {
            report.failed_dead_peer += 1;
            continue;
        }
        // Partition loss matrix: a dropped request loses the whole
        // exchange. Replies cross back in the other direction, so under a
        // lossy/asymmetric matrix they get their own directional check —
        // only a total blackout makes the reply check unreachable.
        if ctx.partition.is_some_and(|p| p.drops(initiator, peer, rng)) {
            report.dropped_messages += 1;
            continue;
        }
        if lose(rng, ctx.loss) {
            report.dropped_messages += 1;
            continue;
        }
        let dest = ctx.directory[peer.as_index()];
        if dest.shard as usize == *index {
            // Local peer: the exchange completes inline and atomically,
            // exactly like the sequential engine.
            let reply =
                pop.slot_mut(dest.slot)
                    .node
                    .handle_request(arena, initiator, exchange.request);
            if let Some(reply) = reply {
                if ctx.partition.is_some_and(|p| p.drops(peer, initiator, rng))
                    || lose(rng, ctx.loss)
                {
                    report.dropped_messages += 1;
                    continue;
                }
                pop.slot_mut(slot).node.handle_reply(arena, peer, reply);
            }
            report.completed += 1;
        } else {
            requests.out[dest.shard as usize].push(QueuedRequest {
                from: initiator,
                to_slot: dest.slot,
                request: exchange.request,
            });
        }
    }
}

/// Phase 2: drain the request mailbox in sender-shard order, queueing
/// replies.
fn phase_respond<N: GossipNode + Send>(shard: &mut Shard<N>, ctx: &CycleCtx<'_>) {
    let Shard {
        pop,
        arena,
        rng,
        requests,
        replies,
        report,
        ..
    } = shard;
    // Inbox lane = sender shard: draining in lane order is sender-shard
    // order, the fixed ordering the determinism contract relies on.
    for inbox in requests.inbox.iter_mut() {
        for queued in inbox.drain(..) {
            let responder = pop.slot_mut(queued.to_slot);
            let responder_id = responder.node.id();
            let reply = responder
                .node
                .handle_request(arena, queued.from, queued.request);
            match reply {
                Some(reply) => {
                    // The reply crosses back: apply the matrix's reverse
                    // direction (relevant only for lossy partitions — a
                    // total one never lets the request through).
                    if ctx
                        .partition
                        .is_some_and(|p| p.drops(responder_id, queued.from, rng))
                        || lose(rng, ctx.loss)
                    {
                        report.dropped_messages += 1;
                        continue;
                    }
                    let dest = ctx.directory[queued.from.as_index()];
                    replies.out[dest.shard as usize].push(QueuedReply {
                        from: responder_id,
                        to_slot: dest.slot,
                        reply,
                    });
                }
                // Push-only exchange: complete on request delivery.
                None => report.completed += 1,
            }
        }
    }
}

/// Phase 3: drain the reply mailbox in responder-shard order; initiators
/// absorb and the exchanges complete.
fn phase_absorb<N: GossipNode + Send>(shard: &mut Shard<N>) {
    let Shard {
        pop,
        arena,
        replies,
        report,
        ..
    } = shard;
    for inbox in replies.inbox.iter_mut() {
        for queued in inbox.drain(..) {
            pop.slot_mut(queued.to_slot)
                .node
                .handle_reply(arena, queued.from, queued.reply);
            report.completed += 1;
        }
    }
}
