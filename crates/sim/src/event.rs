//! **Extension:** event-driven simulation with latency, jitter and loss —
//! sharded across worker threads with conservative lookahead.
//!
//! The paper's experiments use the idealized cycle model. This engine
//! relaxes it: every node runs its own periodic timer with bounded jitter,
//! messages take a random latency to arrive, and may be lost. Exchanges are
//! no longer atomic — a node may receive requests while its own exchange is
//! in flight. The extension experiments use this engine to check that the
//! cycle-model conclusions survive asynchrony.
//!
//! # Execution model
//!
//! [`ShardedEventSimulation`] partitions the population into `S` shards,
//! each owning a time-ordered event queue over its own nodes. Simulated
//! time advances in **buckets** of width `W` = the minimum network latency
//! (the *conservative lookahead window* of parallel discrete-event
//! simulation): within the bucket `[t, t + W)` every shard processes its
//! local queue independently, because any message sent at or after `t`
//! arrives at `t + latency ≥ t + W` — no event generated inside the bucket
//! can affect another shard within it. Cross-shard messages accumulate in
//! fixed-order per-`(src, dst)` mailboxes ([`crate::exec`], shared with the
//! cycle engine) and are exchanged at bucket boundaries: transposed on the
//! driver, then merged into each destination queue in sender-shard order.
//!
//! # Determinism contract
//!
//! Mirrors the cycle engine's ([`crate::ShardedSimulation`]): all
//! randomness derives from the construction seed — a *control* RNG on the
//! driver (node seeds, timer phases, churn) plus one RNG per shard (timer
//! jitter, message latency and loss, drawn by the shard that owns the
//! sending node). Shards share no mutable state within a bucket, and the
//! mailbox exchange is fixed-order, so for a fixed `(seed, shard_count)`
//! results are **bit-identical at any worker count** — and invariant under
//! how a run is chunked into [`ShardedEventSimulation::run_until`] calls,
//! because mailboxes are only exchanged at absolute bucket boundaries.
//! Changing the *shard count* legitimately changes results (same-time
//! deliveries tie-break in mailbox order rather than global schedule
//! order), exactly like changing the seed does.
//!
//! The single-threaded [`EventSimulation`] is this engine with one shard:
//! every message is then shard-local, the global `(time, seq)` order is the
//! schedule order, and the mailbox machinery is never touched.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use pss_core::{
    Arena, GossipNode, NodeDescriptor, NodeId, PeerSamplingNode, ProtocolConfig, Reply, Request,
    View,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::exec::{self, lose, Directory, Mailboxes, SlotRef};
use crate::pool::WorkerPool;
use crate::population::{BoxedNode, Population};
use crate::workload::Partition;
use crate::{CycleReport, Snapshot};

/// Message latency model, in abstract time ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum LatencyModel {
    /// Instant delivery.
    Zero,
    /// Uniform latency in `[min, max]` ticks.
    Uniform {
        /// Minimum latency.
        min: u64,
        /// Maximum latency (inclusive).
        max: u64,
    },
}

impl LatencyModel {
    /// Draws one message latency. Public so transports outside this crate
    /// (the `pss-net` in-memory mesh) can mirror the engine's per-message
    /// model exactly.
    pub fn sample(self, rng: &mut impl Rng) -> u64 {
        match self {
            LatencyModel::Zero => 0,
            LatencyModel::Uniform { min, max } => {
                if min >= max {
                    min
                } else {
                    rng.random_range(min..=max)
                }
            }
        }
    }

    /// The smallest latency the model can produce — the conservative
    /// lookahead window of the sharded engine.
    pub fn minimum(self) -> u64 {
        match self {
            LatencyModel::Zero => 0,
            LatencyModel::Uniform { min, .. } => min,
        }
    }
}

/// Parameters of the event-driven engine.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EventConfig {
    /// Gossip period `T` in ticks (the paper's "wait(T time units)").
    pub period: u64,
    /// Uniform timer jitter in ticks, applied as `±jitter` around the
    /// period. Must be `< period`.
    pub jitter: u64,
    /// Message latency model.
    pub latency: LatencyModel,
    /// Probability that any message is lost in transit.
    pub loss_probability: f64,
}

impl Default for EventConfig {
    fn default() -> Self {
        EventConfig {
            period: 1000,
            jitter: 100,
            latency: LatencyModel::Uniform { min: 10, max: 50 },
            loss_probability: 0.0,
        }
    }
}

/// Why an [`EventConfig`] was rejected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventConfigError {
    /// The period must be positive (timers could never advance otherwise).
    ZeroPeriod,
    /// `jitter` must be strictly below `period`: the timer re-arms at
    /// `period - jitter + U[0, 2·jitter]`, which for `jitter >= period`
    /// could fire at or before the current tick and stall time.
    JitterNotBelowPeriod {
        /// The offending jitter.
        jitter: u64,
        /// The configured period.
        period: u64,
    },
    /// The loss probability must lie in `[0, 1]`.
    InvalidLossProbability(f64),
    /// Multi-shard runs need a minimum latency of at least one tick: the
    /// conservative lookahead window *is* the minimum latency, and a zero
    /// window would force shards into lock-step on every tick.
    NoLookahead {
        /// The requested shard count.
        shards: usize,
    },
}

impl std::fmt::Display for EventConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EventConfigError::ZeroPeriod => write!(f, "gossip period must be positive"),
            EventConfigError::JitterNotBelowPeriod { jitter, period } => write!(
                f,
                "timer jitter ({jitter}) must be strictly below the period ({period})"
            ),
            EventConfigError::InvalidLossProbability(p) => {
                write!(f, "loss probability {p} is outside [0, 1]")
            }
            EventConfigError::NoLookahead { shards } => write!(
                f,
                "{shards}-shard event simulation needs a minimum latency of at least 1 tick \
                 (the conservative lookahead window equals the minimum latency)"
            ),
        }
    }
}

impl std::error::Error for EventConfigError {}

impl EventConfig {
    /// Checks the configuration invariants; constructors run this for you.
    pub fn validate(&self) -> Result<(), EventConfigError> {
        if self.period == 0 {
            return Err(EventConfigError::ZeroPeriod);
        }
        if self.jitter >= self.period {
            return Err(EventConfigError::JitterNotBelowPeriod {
                jitter: self.jitter,
                period: self.period,
            });
        }
        if !(0.0..=1.0).contains(&self.loss_probability) {
            return Err(EventConfigError::InvalidLossProbability(
                self.loss_probability,
            ));
        }
        Ok(())
    }

    /// [`EventConfig::validate`] plus the sharded-engine requirement: with
    /// more than one shard the minimum latency (= lookahead window) must be
    /// at least one tick.
    pub fn validate_sharded(&self, shards: usize) -> Result<(), EventConfigError> {
        self.validate()?;
        if shards > 1 && self.latency.minimum() == 0 {
            return Err(EventConfigError::NoLookahead { shards });
        }
        Ok(())
    }
}

/// Cumulative accounting of a ([`Sharded`](ShardedEventSimulation)`)
/// [`EventSimulation`] run — the event-engine analogue of
/// [`CycleReport`], as totals since construction rather than per cycle
/// (an "exchange" spans multiple events here).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct EventReport {
    /// Timer events fired by live nodes.
    pub timers_fired: u64,
    /// Timer fires that could not initiate (empty view).
    pub empty_view: u64,
    /// Requests delivered to live nodes.
    pub requests_delivered: u64,
    /// Replies delivered to live nodes.
    pub replies_delivered: u64,
    /// Exchanges completed: push-only requests delivered plus replies
    /// absorbed by their initiators.
    pub exchanges_completed: u64,
    /// Messages that arrived at a dead node and were dropped.
    pub dead_deliveries: u64,
    /// Messages dropped in transit by the loss model.
    pub dropped_messages: u64,
}

impl core::ops::AddAssign for EventReport {
    fn add_assign(&mut self, rhs: EventReport) {
        self.timers_fired += rhs.timers_fired;
        self.empty_view += rhs.empty_view;
        self.requests_delivered += rhs.requests_delivered;
        self.replies_delivered += rhs.replies_delivered;
        self.exchanges_completed += rhs.exchanges_completed;
        self.dead_deliveries += rhs.dead_deliveries;
        self.dropped_messages += rhs.dropped_messages;
    }
}

impl EventReport {
    /// Field-wise difference from an earlier snapshot of the same run.
    pub fn since(&self, earlier: &EventReport) -> EventReport {
        EventReport {
            timers_fired: self.timers_fired - earlier.timers_fired,
            empty_view: self.empty_view - earlier.empty_view,
            requests_delivered: self.requests_delivered - earlier.requests_delivered,
            replies_delivered: self.replies_delivered - earlier.replies_delivered,
            exchanges_completed: self.exchanges_completed - earlier.exchanges_completed,
            dead_deliveries: self.dead_deliveries - earlier.dead_deliveries,
            dropped_messages: self.dropped_messages - earlier.dropped_messages,
        }
    }

    /// Projects the totals onto the cycle engine's report shape, so generic
    /// drivers ([`crate::Engine`]) can aggregate either engine: completed
    /// exchanges, dead deliveries as failed peers, empty views, losses.
    pub fn as_cycle_report(&self) -> CycleReport {
        CycleReport {
            completed: self.exchanges_completed,
            failed_dead_peer: self.dead_deliveries,
            empty_view: self.empty_view,
            dropped_messages: self.dropped_messages,
        }
    }
}

/// One recorded message arrival, for the delivery-order test harness (see
/// [`ShardedEventSimulation::set_record_deliveries`]). Records are kept in
/// per-shard processing order; [`ShardedEventSimulation::take_deliveries`]
/// concatenates them in shard order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the message was sent.
    pub sent: u64,
    /// When it arrived (event time).
    pub delivered: u64,
    /// Sending node.
    pub from: NodeId,
    /// Destination node (dead targets are recorded too — the arrival
    /// happened, the payload was dropped).
    pub to: NodeId,
    /// Shard of the sender.
    pub src_shard: u32,
    /// Shard of the destination.
    pub dst_shard: u32,
    /// The sender shard's monotone event sequence at send time: within one
    /// `(src, dst)` pair, send order.
    pub sent_seq: u64,
    /// True for requests, false for replies.
    pub is_request: bool,
}

/// A pending event in a shard's local queue.
struct Event {
    time: u64,
    /// Tie-breaker for equal times: local schedule order.
    seq: u64,
    kind: EventKind,
}

enum EventKind {
    /// A node's gossip timer (local slot).
    Timer(u32),
    /// A request arriving at local slot `to_slot`.
    Request {
        from: NodeId,
        to_slot: u32,
        sent: u64,
        sent_seq: u64,
        src_shard: u32,
        request: Request,
    },
    /// A reply arriving at local slot `to_slot`.
    Reply {
        from: NodeId,
        to_slot: u32,
        sent: u64,
        sent_seq: u64,
        src_shard: u32,
        reply: Reply,
    },
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// A message crossing a shard boundary, parked in a mailbox lane until the
/// bucket ends. Lane index gives the destination; the sender shard is the
/// lane it sits in after transposition.
struct WireEvent {
    time: u64,
    sent: u64,
    sent_seq: u64,
    from: NodeId,
    to_slot: u32,
    msg: WireMsg,
}

enum WireMsg {
    Request(Request),
    Reply(Reply),
}

/// Upper bound on recycled payload buffers pooled per shard arena; beyond
/// this, spent buffers are dropped. Sized to cover the in-flight payload
/// demand of large-c, high-loss runs without letting a transient spike pin
/// memory.
const PAYLOAD_POOL_LIMIT: usize = 1024;

/// One shard of the event engine: a node partition, its local event queue,
/// its RNG stream, and its cross-shard mailboxes.
struct EventShard<N> {
    index: usize,
    pop: Population<N>,
    /// Shard-owned staging arena. Every protocol call on this shard's nodes
    /// works out of it: absorbed payload buffers are parked in its pool and
    /// reused for outgoing messages. Sends and receives balance per shard
    /// in steady state, so ownership replaces the cross-shard
    /// capacity-return lanes earlier revisions needed when the pool was
    /// tied to short-lived worker threads.
    arena: Arena,
    /// Shard-local RNG: timer jitter, message latency, message loss.
    rng: SmallRng,
    queue: BinaryHeap<Reverse<Event>>,
    /// Monotone event sequence; tie-breaks equal times, orders sends.
    seq: u64,
    mail: Mailboxes<WireEvent>,
    report: EventReport,
    /// Events processed by this shard (monotone).
    processed: u64,
    /// Arrival log, filled only when tracing is on.
    deliveries: Vec<Delivery>,
    trace: bool,
}

impl<N> EventShard<N> {
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn schedule(&mut self, time: u64, kind: EventKind) {
        let seq = self.next_seq();
        self.queue.push(Reverse(Event { time, seq, kind }));
    }
}

/// Read-only context shared by all workers during a bucket.
struct EventCtx<'a> {
    directory: &'a [SlotRef],
    config: EventConfig,
    partition: Option<Partition>,
}

/// The sharded discrete-event simulator over the same node population
/// types as [`crate::ShardedSimulation`]. See the [crate docs](crate) for
/// the lookahead model and determinism contract.
///
/// # Examples
///
/// ```
/// use pss_core::{PolicyTriple, ProtocolConfig};
/// use pss_sim::{EventConfig, ShardedEventSimulation};
///
/// let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 20)?;
/// let mut sim = ShardedEventSimulation::new(protocol, EventConfig::default(), 7, 2)?;
/// sim.add_connected_nodes(100);
/// sim.run_for(20_000); // ≈ 20 gossip periods
/// assert!(sim.snapshot().undirected().average_degree() > 20.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ShardedEventSimulation<N: GossipNode + Send = BoxedNode> {
    shards: Vec<EventShard<N>>,
    dir: Directory,
    factory: Box<dyn Fn(NodeId, u64) -> N + Send + Sync>,
    /// Driver-thread RNG: node seeds, timer phases, churn.
    control_rng: SmallRng,
    config: EventConfig,
    /// Conservative lookahead window = minimum latency (≥ 1 when sharded).
    window: u64,
    /// Current simulation time: the largest deadline reached so far.
    now: u64,
    /// Processing frontier: every event *strictly before* it has been
    /// processed. Advances bucket-by-bucket; the bucket grid is absolute
    /// (multiples of the window), which is what makes results invariant
    /// under how a run is chunked into `run_until` calls.
    frontier: u64,
    /// Construction seed, kept for (seed, id)-pure bulk construction.
    seed: u64,
    /// Persistent bucket executor: threads live as long as the simulation.
    pool: WorkerPool,
    /// True while cross-shard messages are parked in out-lanes mid-bucket.
    pending_mail: bool,
    /// Completed [`ShardedEventSimulation::run_cycle`] calls.
    cycles: u64,
    /// Installed partition loss matrix, if any.
    partition: Option<Partition>,
    /// Phase/imbalance telemetry (`engine="event"`); purely observational.
    tele: crate::telemetry::EngineTele,
}

impl ShardedEventSimulation {
    /// Creates an empty sharded event simulation for the paper's generic
    /// protocol with (boxed) nodes.
    ///
    /// # Errors
    ///
    /// Returns an [`EventConfigError`] if `config` violates an invariant
    /// (zero period, `jitter >= period`, loss probability outside `[0, 1]`,
    /// or zero minimum latency with more than one shard).
    pub fn new(
        protocol: ProtocolConfig,
        config: EventConfig,
        seed: u64,
        shards: usize,
    ) -> Result<Self, EventConfigError> {
        Self::with_factory(config, seed, shards, move |id, node_seed| {
            Box::new(PeerSamplingNode::with_seed(id, protocol.clone(), node_seed)) as BoxedNode
        })
    }
}

impl ShardedEventSimulation<PeerSamplingNode> {
    /// Creates an empty **monomorphized** sharded event simulation of
    /// [`PeerSamplingNode`]s: identical behavior to
    /// [`ShardedEventSimulation::new`] (same seeds ⇒ same events), minus
    /// the virtual dispatch.
    ///
    /// # Errors
    ///
    /// Returns an [`EventConfigError`] if `config` violates an invariant.
    pub fn typed(
        protocol: ProtocolConfig,
        config: EventConfig,
        seed: u64,
        shards: usize,
    ) -> Result<Self, EventConfigError> {
        Self::with_factory(config, seed, shards, move |id, node_seed| {
            PeerSamplingNode::with_seed(id, protocol.clone(), node_seed)
        })
    }
}

impl<N: GossipNode + Send> ShardedEventSimulation<N> {
    /// Creates an empty sharded event simulation with a custom node
    /// factory. The factory receives the assigned node id and a derived RNG
    /// seed; it must be `Fn + Sync` so per-shard populations can be built
    /// in parallel ([`ShardedEventSimulation::add_nodes_bulk`]).
    ///
    /// # Errors
    ///
    /// Returns an [`EventConfigError`] if `config` violates an invariant.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn with_factory(
        config: EventConfig,
        seed: u64,
        shards: usize,
        factory: impl Fn(NodeId, u64) -> N + Send + Sync + 'static,
    ) -> Result<Self, EventConfigError> {
        assert!(shards > 0, "need at least one shard");
        config.validate_sharded(shards)?;
        let tele = crate::telemetry::EngineTele::new("event", &["process", "merge"], shards);
        let default_workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(shards);
        let shards: Vec<EventShard<N>> = (0..shards)
            .map(|index| EventShard {
                index,
                pop: Population::new(),
                arena: Arena::with_pool_limit(PAYLOAD_POOL_LIMIT),
                rng: SmallRng::seed_from_u64(exec::shard_seed(seed, index)),
                queue: BinaryHeap::new(),
                seq: 0,
                mail: Mailboxes::new(shards),
                report: EventReport::default(),
                processed: 0,
                deliveries: Vec::new(),
                trace: false,
            })
            .collect();
        Ok(ShardedEventSimulation {
            shards,
            dir: Directory::new(),
            factory: Box::new(factory),
            control_rng: SmallRng::seed_from_u64(seed),
            config,
            window: config.latency.minimum().max(1),
            now: 0,
            frontier: 0,
            seed,
            pool: WorkerPool::new(default_workers),
            pending_mail: false,
            cycles: 0,
            partition: None,
            tele,
        })
    }

    /// Number of shards (fixed at construction; part of the result
    /// contract, unlike the worker count).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Worker threads used per bucket.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Sets the worker-thread count (clamped to `1..=shard_count`),
    /// rebuilding the persistent pool. Affects wall-clock time only;
    /// results are bit-identical for any value.
    pub fn set_workers(&mut self, workers: usize) {
        let workers = workers.clamp(1, self.shards.len());
        if workers != self.pool.workers() {
            self.pool = WorkerPool::new(workers);
        }
    }

    /// The conservative lookahead window in ticks (= the minimum latency,
    /// at least 1).
    pub fn lookahead(&self) -> u64 {
        self.window
    }

    /// The engine configuration.
    pub fn config(&self) -> EventConfig {
        self.config
    }

    /// Current simulation time in ticks.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Cumulative event statistics since construction.
    pub fn report(&self) -> EventReport {
        let mut total = EventReport::default();
        for shard in &self.shards {
            total += shard.report;
        }
        total
    }

    /// Total events processed since construction.
    pub fn events_processed(&self) -> u64 {
        self.shards.iter().map(|s| s.processed).sum()
    }

    /// Recycled payload buffers currently pooled across all shard arenas —
    /// a pooling diagnostic.
    pub fn pooled_payloads(&self) -> usize {
        self.shards.iter().map(|s| s.arena.pooled_buffers()).sum()
    }

    /// Installs (`Some`) or lifts (`None`) a partition loss matrix
    /// ([`Partition`]): messages whose sender and destination sit in
    /// different groups are dropped at send time (before any latency draw),
    /// counted as [`EventReport::dropped_messages`]. Messages already in
    /// flight still deliver — a partition cuts links, it does not reach
    /// into the network and destroy packets. The check is a pure function
    /// of the two ids, so the worker-invariance contract is unaffected.
    pub fn set_partition(&mut self, partition: Option<Partition>) {
        self.partition = partition;
    }

    /// Turns the per-arrival delivery log on or off (off by default; the
    /// log grows with every message arrival). The test harness uses it to
    /// check the lookahead and FIFO invariants from outside.
    pub fn set_record_deliveries(&mut self, on: bool) {
        for shard in &mut self.shards {
            shard.trace = on;
        }
    }

    /// Drains the delivery log: per-shard arrival order, concatenated in
    /// shard order.
    pub fn take_deliveries(&mut self) -> Vec<Delivery> {
        let mut all = Vec::new();
        for shard in &mut self.shards {
            all.append(&mut shard.deliveries);
        }
        all
    }

    /// Declares that the next `n` node ids will be bulk-added into
    /// contiguous per-shard ranges; see
    /// [`crate::ShardedSimulation::plan_capacity`].
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

    /// Adds a node bootstrapped from `seeds`; its first timer fires at a
    /// uniform-random phase within one period (nodes are not synchronized).
    /// Node seed and phase come from the driver's control RNG; for the
    /// worker-parallel bulk path see
    /// [`ShardedEventSimulation::add_nodes_bulk`].
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
        let phase = self.control_rng.random_range(0..self.config.period);
        // Never schedule below the processing frontier: a bucket that was
        // already exchanged is frozen, and a timer inside it could emit a
        // cross-shard message due before the next boundary (a lookahead
        // violation). Only a phase-0 draw right after a run can hit this.
        let at = (self.now + phase).max(self.frontier);
        self.shards[shard].schedule(at, EventKind::Timer(slot));
        id
    }

    /// Bulk-adds `n` nodes with **worker-parallel per-shard construction**:
    /// node `i` gets the view returned by `seeds(i)`, and its RNG seed,
    /// shard placement and initial timer phase are pure functions of
    /// `(construction seed, id)` — the resulting population and event
    /// schedule are bit-identical at any worker count. `seeds` must be pure
    /// for the same reason.
    ///
    /// # Panics
    ///
    /// Panics if nodes were already added.
    pub fn add_nodes_bulk<I>(&mut self, n: usize, seeds: impl Fn(NodeId) -> I + Sync)
    where
        I: IntoIterator<Item = NodeDescriptor>,
    {
        let seed = self.seed;
        let period = self.config.period;
        let now = self.now;
        let frontier = self.frontier;
        exec::bulk_build(
            &mut self.dir,
            &mut self.shards,
            &self.pool,
            n,
            seed,
            self.factory.as_ref(),
            seeds,
            |shard| &mut shard.pop,
            |shard| shard.index,
            |shard, slot, id| {
                let phase = exec::bulk_timer_phase(seed, id.as_u64(), period);
                // Clamp below-frontier phases exactly like `add_node`.
                let at = (now + phase).max(frontier);
                shard.schedule(at, EventKind::Timer(slot));
            },
        );
    }

    /// Adds `n` nodes where node `i` bootstraps off node `i − 1` (a simple
    /// connected chain, convenient for tests and examples).
    pub fn add_connected_nodes(&mut self, n: usize) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(n);
        let mut prev: Option<NodeId> = None;
        for _ in 0..n {
            let seeds: Vec<NodeDescriptor> = prev.into_iter().map(NodeDescriptor::fresh).collect();
            let id = self.add_node(seeds);
            prev = Some(id);
            ids.push(id);
        }
        ids
    }

    /// Adds `count` nodes, each bootstrapped with `contacts` uniform-random
    /// live contacts (join under churn); see
    /// [`crate::ShardedSimulation::add_nodes_with_random_contacts`].
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

    /// Number of live nodes.
    pub fn alive_count(&self) -> usize {
        self.dir.alive_count()
    }

    /// Total nodes ever added (dead ones included).
    pub fn node_count(&self) -> usize {
        self.dir.len()
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

    /// The view of a live node.
    pub fn view_of(&self, id: NodeId) -> Option<&View> {
        if !self.is_alive(id) {
            return None;
        }
        self.entry(id).map(|e| e.node.view())
    }

    /// Kills one node (crash-stop): pending deliveries to it are dropped at
    /// delivery time, and its timer never re-arms. Returns false if already
    /// dead/unknown.
    pub fn kill(&mut self, id: NodeId) -> bool {
        exec::kill_node(&mut self.dir, &mut self.shards, id, |shard| &mut shard.pop)
    }

    /// Kills a uniform-random set of `count` live nodes and returns them.
    pub fn kill_random(&mut self, count: usize) -> Vec<NodeId> {
        use rand::seq::SliceRandom;
        let mut alive: Vec<NodeId> = self.alive_ids();
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

    /// Descriptors in live views pointing at dead nodes.
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
    pub fn for_each_live_view(&self, mut f: impl FnMut(NodeId, &View)) {
        for id in (0..self.dir.len() as u64).map(NodeId::new) {
            if self.is_alive(id) {
                f(id, self.entry(id).expect("in directory").node.view());
            }
        }
    }

    /// Builds the directed live-view graph as a flat CSR — the snapshot
    /// path that survives N = 10⁶ (see
    /// [`crate::ShardedSimulation::csr_snapshot`]).
    pub fn csr_snapshot(&self) -> crate::CsrSnapshot {
        exec::csr_from_views(self.dir.len(), self.dir.alive_count(), |f| {
            self.for_each_live_view(f)
        })
    }

    /// Estimates overlay health by streaming view rows — the O(id-space)
    /// alternative to materializing [`ShardedEventSimulation::csr_snapshot`]'s
    /// edge arrays at very large N (see [`crate::StreamingMetrics`]).
    pub fn streaming_metrics(&self) -> crate::StreamingMetrics {
        crate::StreamingMetrics::from_views(self.dir.len(), |f| self.for_each_live_view(f))
    }

    /// Runs until simulation time reaches `deadline`: every event at or
    /// before it is processed. Returns the number of events processed.
    ///
    /// How a run is chunked into `run_until` calls never changes results:
    /// cross-shard messages are exchanged only at absolute bucket
    /// boundaries (multiples of the lookahead window), so a partial bucket
    /// parks them in their fixed-order lanes until the bucket completes.
    pub fn run_until(&mut self, deadline: u64) -> u64 {
        let before = self.events_processed();
        let Self {
            shards,
            dir,
            config,
            window,
            frontier,
            pool,
            pending_mail,
            partition,
            tele,
            ..
        } = self;
        let ctx = EventCtx {
            directory: dir.slots(),
            config: *config,
            partition: *partition,
        };

        if shards.len() == 1 {
            // Sequential special case: every message is local, the global
            // (time, seq) order is the schedule order, buckets are moot.
            if *frontier <= deadline {
                tele.time_solo(0, || process_until(&mut shards[0], deadline, &ctx));
                *frontier = deadline.saturating_add(1);
            }
            self.now = self.now.max(deadline);
            return self.events_processed() - before;
        }

        let window = *window;
        while *frontier <= deadline {
            // The next absolute bucket boundary past the frontier. Near
            // u64::MAX there is none (run-to-exhaustion calls saturate the
            // frontier); whatever remains is one final partial bucket.
            let bucket_end = (*frontier / window)
                .checked_add(1)
                .and_then(|k| k.checked_mul(window));
            let full = bucket_end.is_some_and(|end| end - 1 <= deadline);
            if !*pending_mail {
                // Fast-forward across empty stretches: with no parked mail,
                // every pending event sits in some shard's queue.
                match earliest(shards) {
                    None => {
                        *frontier = deadline.saturating_add(1);
                        break;
                    }
                    Some(t) if t > deadline => {
                        *frontier = deadline.saturating_add(1);
                        break;
                    }
                    Some(t) if bucket_end.is_some_and(|end| t >= end) => {
                        *frontier = (t / window) * window;
                        continue;
                    }
                    _ => {}
                }
            }
            let limit = match bucket_end {
                Some(end) if full => end - 1,
                _ => deadline,
            };
            // Per-bucket phases go to the histograms only (`trail: false`):
            // buckets are far too frequent for the flight ring; the period
            // driver records the trail events instead.
            let index = |shard: &EventShard<N>| shard.index;
            tele.run_phase(0, None, shards, pool, index, |shard| {
                process_until(shard, limit, &ctx);
            });
            if full {
                let end = bucket_end.expect("full implies a boundary");
                // Bucket boundary: exchange mailboxes and merge, in fixed
                // sender-shard order.
                exec::transpose(shards, |shard| &mut shard.mail);
                tele.run_phase(1, None, shards, pool, index, |shard| {
                    merge_inbox(shard, end)
                });
                *pending_mail = false;
                *frontier = end;
            } else {
                // Mid-bucket stop: cross-shard messages stay parked in
                // their fixed-order lanes until the bucket completes, so
                // chunked and unchunked runs merge them identically.
                *pending_mail = !shards.iter().all(|s| s.mail.out_is_empty());
                *frontier = deadline.saturating_add(1);
                break;
            }
        }
        self.now = self.now.max(deadline);
        self.events_processed() - before
    }

    /// Runs for `duration` ticks from the current time.
    pub fn run_for(&mut self, duration: u64) -> u64 {
        self.run_until(self.now.saturating_add(duration))
    }

    /// Runs one gossip period — the event engine's notion of a "cycle" for
    /// generic drivers ([`crate::Engine`]) — and reports what happened
    /// during it, projected onto the cycle engine's report shape.
    pub fn run_cycle(&mut self) -> CycleReport {
        let before = self.report();
        if pss_telemetry::enabled() {
            pss_telemetry::flight().record(
                pss_telemetry::EventKind::PhaseStart,
                "event/period",
                self.cycles + 1,
                0,
            );
            let started = std::time::Instant::now();
            self.run_for(self.config.period);
            pss_telemetry::flight().record(
                pss_telemetry::EventKind::PhaseEnd,
                "event/period",
                self.cycles + 1,
                started.elapsed().as_nanos() as u64,
            );
        } else {
            self.run_for(self.config.period);
        }
        self.cycles += 1;
        self.tele.cycle_done();
        self.report().since(&before).as_cycle_report()
    }

    /// Completed [`ShardedEventSimulation::run_cycle`] periods.
    pub fn cycle(&self) -> u64 {
        self.cycles
    }
}

/// Smallest pending event time across all shard queues.
fn earliest<N>(shards: &[EventShard<N>]) -> Option<u64> {
    shards
        .iter()
        .filter_map(|s| s.queue.peek().map(|Reverse(e)| e.time))
        .min()
}

/// Merges a shard's freshly transposed inbox into its event queue, in
/// sender-shard lane order (FIFO within each lane): the deterministic
/// cross-shard arrival order of the engine's contract.
fn merge_inbox<N: GossipNode + Send>(shard: &mut EventShard<N>, horizon: u64) {
    let mut inbox = core::mem::take(&mut shard.mail.inbox);
    for (src_shard, lane) in inbox.iter_mut().enumerate() {
        for wire in lane.drain(..) {
            debug_assert!(
                wire.time >= horizon,
                "lookahead violation: cross-shard message for t={} merged at horizon {}",
                wire.time,
                horizon
            );
            let kind = match wire.msg {
                WireMsg::Request(request) => EventKind::Request {
                    from: wire.from,
                    to_slot: wire.to_slot,
                    sent: wire.sent,
                    sent_seq: wire.sent_seq,
                    src_shard: src_shard as u32,
                    request,
                },
                WireMsg::Reply(reply) => EventKind::Reply {
                    from: wire.from,
                    to_slot: wire.to_slot,
                    sent: wire.sent,
                    sent_seq: wire.sent_seq,
                    src_shard: src_shard as u32,
                    reply,
                },
            };
            shard.schedule(wire.time, kind);
        }
    }
    shard.mail.inbox = inbox;
}

/// Processes every event with `time <= limit` in this shard's queue, in
/// `(time, seq)` order. New local events (timers, same-shard messages) go
/// back into the queue; cross-shard messages park in the out-mailboxes.
fn process_until<N: GossipNode + Send>(shard: &mut EventShard<N>, limit: u64, ctx: &EventCtx<'_>) {
    while let Some(Reverse(head)) = shard.queue.peek() {
        if head.time > limit {
            break;
        }
        let Reverse(event) = shard.queue.pop().expect("peeked");
        shard.processed += 1;
        dispatch(shard, event, ctx);
    }
}

fn dispatch<N: GossipNode + Send>(shard: &mut EventShard<N>, event: Event, ctx: &EventCtx<'_>) {
    let now = event.time;
    match event.kind {
        EventKind::Timer(slot) => {
            // Dead nodes stop participating: no exchange, no re-arm.
            if !shard.pop.slot(slot).alive {
                return;
            }
            shard.report.timers_fired += 1;
            let entry = shard.pop.slot_mut(slot);
            let initiator = entry.node.id();
            match entry.node.initiate(&mut shard.arena) {
                Some(exchange) => {
                    if lose(&mut shard.rng, ctx.config.loss_probability) {
                        shard.report.dropped_messages += 1;
                    } else {
                        let peer = exchange.peer;
                        send(
                            shard,
                            ctx,
                            now,
                            initiator,
                            peer,
                            WireMsg::Request(exchange.request),
                        );
                    }
                }
                None => shard.report.empty_view += 1,
            }
            // Re-arm the timer with jitter regardless.
            let jitter = if ctx.config.jitter == 0 {
                0
            } else {
                shard.rng.random_range(0..=2 * ctx.config.jitter)
            };
            let next = now + ctx.config.period - ctx.config.jitter + jitter;
            shard.schedule(next, EventKind::Timer(slot));
        }
        EventKind::Request {
            from,
            to_slot,
            sent,
            sent_seq,
            src_shard,
            request,
        } => {
            record_delivery(shard, sent, now, from, to_slot, src_shard, sent_seq, true);
            if !shard.pop.slot(to_slot).alive {
                shard.report.dead_deliveries += 1;
                return;
            }
            shard.report.requests_delivered += 1;
            // The reply (if any) builds from the shard arena's pool; the
            // spent request buffer is recycled into the same pool by the
            // node's absorb, whichever shard it was allocated on.
            let responder = shard.pop.slot_mut(to_slot);
            let responder_id = responder.node.id();
            match responder
                .node
                .handle_request(&mut shard.arena, from, request)
            {
                Some(reply) => {
                    if lose(&mut shard.rng, ctx.config.loss_probability) {
                        shard.report.dropped_messages += 1;
                    } else {
                        send(shard, ctx, now, responder_id, from, WireMsg::Reply(reply));
                    }
                }
                // Push-only exchange: complete on request delivery.
                None => shard.report.exchanges_completed += 1,
            }
        }
        EventKind::Reply {
            from,
            to_slot,
            sent,
            sent_seq,
            src_shard,
            reply,
        } => {
            record_delivery(shard, sent, now, from, to_slot, src_shard, sent_seq, false);
            if !shard.pop.slot(to_slot).alive {
                shard.report.dead_deliveries += 1;
                return;
            }
            shard
                .pop
                .slot_mut(to_slot)
                .node
                .handle_reply(&mut shard.arena, from, reply);
            shard.report.replies_delivered += 1;
            shard.report.exchanges_completed += 1;
        }
    }
}

/// Sends `msg` from `from` (on `shard`) to `to`, drawing the latency from
/// the sender shard's RNG: local destinations go straight into the queue,
/// remote ones park in the out-mailbox lane until the bucket ends.
#[allow(clippy::too_many_arguments)]
fn send<N: GossipNode + Send>(
    shard: &mut EventShard<N>,
    ctx: &EventCtx<'_>,
    now: u64,
    from: NodeId,
    to: NodeId,
    msg: WireMsg,
) {
    // Partition loss matrix: decided before the latency draw, so a
    // totally-partitioned run consumes no RNG for traffic that never
    // leaves (lossy matrices draw once per cross-group message, from the
    // sender shard's stream — still worker-count invariant). Requests and
    // replies both pass through here, so asymmetric matrices apply their
    // per-direction loss naturally.
    if ctx
        .partition
        .is_some_and(|p| p.drops(from, to, &mut shard.rng))
    {
        shard.report.dropped_messages += 1;
        return;
    }
    let latency = ctx.config.latency.sample(&mut shard.rng);
    let at = now + latency;
    let sent_seq = shard.next_seq();
    let dest = ctx.directory[to.as_index()];
    if dest.shard as usize == shard.index {
        let src_shard = shard.index as u32;
        let kind = match msg {
            WireMsg::Request(request) => EventKind::Request {
                from,
                to_slot: dest.slot,
                sent: now,
                sent_seq,
                src_shard,
                request,
            },
            WireMsg::Reply(reply) => EventKind::Reply {
                from,
                to_slot: dest.slot,
                sent: now,
                sent_seq,
                src_shard,
                reply,
            },
        };
        shard.schedule(at, kind);
    } else {
        shard.mail.out[dest.shard as usize].push(WireEvent {
            time: at,
            sent: now,
            sent_seq,
            from,
            to_slot: dest.slot,
            msg,
        });
    }
}

#[allow(clippy::too_many_arguments)]
fn record_delivery<N: GossipNode + Send>(
    shard: &mut EventShard<N>,
    sent: u64,
    delivered: u64,
    from: NodeId,
    to_slot: u32,
    src_shard: u32,
    sent_seq: u64,
    is_request: bool,
) {
    if !shard.trace {
        return;
    }
    let to = shard.pop.slot(to_slot).node.id();
    shard.deliveries.push(Delivery {
        sent,
        delivered,
        from,
        to,
        src_shard,
        dst_shard: shard.index as u32,
        sent_seq,
        is_request,
    });
}

impl<N: GossipNode + Send> std::fmt::Debug for ShardedEventSimulation<N> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedEventSimulation")
            .field("now", &self.now)
            .field("shards", &self.shards.len())
            .field("workers", &self.pool.workers())
            .field("lookahead", &self.window)
            .field("nodes", &self.dir.len())
            .field("alive", &self.dir.alive_count())
            .field(
                "pending_events",
                &self.shards.iter().map(|s| s.queue.len()).sum::<usize>(),
            )
            .finish()
    }
}

/// The single-threaded discrete-event simulator over boxed nodes — the
/// 1-shard special case of [`ShardedEventSimulation`], keeping the
/// historical API (exactly as [`crate::Simulation`] wraps
/// [`crate::ShardedSimulation`]).
///
/// # Examples
///
/// ```
/// use pss_core::{PolicyTriple, ProtocolConfig};
/// use pss_sim::{EventConfig, EventSimulation};
///
/// let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 20)?;
/// let mut sim = EventSimulation::new(protocol, EventConfig::default(), 7)?;
/// sim.add_connected_nodes(100);
/// sim.run_for(20_000); // ≈ 20 gossip periods
/// assert!(sim.snapshot().undirected().average_degree() > 20.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct EventSimulation {
    inner: ShardedEventSimulation<BoxedNode>,
}

impl EventSimulation {
    /// Creates an empty event simulation for the paper's generic protocol.
    ///
    /// # Errors
    ///
    /// Returns an [`EventConfigError`] if `config` violates an invariant
    /// (zero period, `jitter >= period`, loss probability outside `[0, 1]`).
    pub fn new(
        protocol: ProtocolConfig,
        config: EventConfig,
        seed: u64,
    ) -> Result<Self, EventConfigError> {
        Ok(EventSimulation {
            inner: ShardedEventSimulation::new(protocol, config, seed, 1)?,
        })
    }

    /// Creates an empty event simulation with a custom node factory.
    ///
    /// # Errors
    ///
    /// Returns an [`EventConfigError`] if `config` violates an invariant.
    pub fn with_factory(
        config: EventConfig,
        seed: u64,
        factory: impl Fn(NodeId, u64) -> BoxedNode + Send + Sync + 'static,
    ) -> Result<Self, EventConfigError> {
        Ok(EventSimulation {
            inner: ShardedEventSimulation::with_factory(config, seed, 1, factory)?,
        })
    }

    /// The underlying sharded engine (always one shard).
    pub fn as_sharded(&self) -> &ShardedEventSimulation<BoxedNode> {
        &self.inner
    }

    /// Mutable access to the underlying 1-shard engine (e.g. for the
    /// delivery log).
    pub fn as_sharded_mut(&mut self) -> &mut ShardedEventSimulation<BoxedNode> {
        &mut self.inner
    }

    /// Current simulation time in ticks.
    pub fn now(&self) -> u64 {
        self.inner.now()
    }

    /// Number of live nodes.
    pub fn alive_count(&self) -> usize {
        self.inner.alive_count()
    }

    /// The view of a live node.
    pub fn view_of(&self, id: NodeId) -> Option<&View> {
        self.inner.view_of(id)
    }

    /// Adds a node bootstrapped from `seeds`; its first timer fires at a
    /// uniform-random phase within one period (nodes are not synchronized).
    pub fn add_node(&mut self, seeds: impl IntoIterator<Item = NodeDescriptor>) -> NodeId {
        self.inner.add_node(seeds)
    }

    /// Adds `n` nodes where node `i` bootstraps off node `i − 1` (a simple
    /// connected chain, convenient for tests and examples).
    pub fn add_connected_nodes(&mut self, n: usize) -> Vec<NodeId> {
        self.inner.add_connected_nodes(n)
    }

    /// Kills one node (crash-stop): pending deliveries to it are dropped at
    /// delivery time.
    pub fn kill(&mut self, id: NodeId) -> bool {
        self.inner.kill(id)
    }

    /// Installs (`Some`) or lifts (`None`) a partition loss matrix; see
    /// [`ShardedEventSimulation::set_partition`].
    pub fn set_partition(&mut self, partition: Option<Partition>) {
        self.inner.set_partition(partition);
    }

    /// Runs until simulation time reaches `deadline`, processing every
    /// event at or before it. Returns the number of events processed.
    pub fn run_until(&mut self, deadline: u64) -> u64 {
        self.inner.run_until(deadline)
    }

    /// Runs for `duration` ticks from the current time.
    pub fn run_for(&mut self, duration: u64) -> u64 {
        self.inner.run_for(duration)
    }

    /// Cumulative event statistics since construction.
    pub fn report(&self) -> EventReport {
        self.inner.report()
    }

    /// Descriptors in live views pointing at dead nodes.
    pub fn dead_link_count(&self) -> usize {
        self.inner.dead_link_count()
    }

    /// Builds the communication-graph snapshot over live nodes.
    pub fn snapshot(&self) -> Snapshot {
        self.inner.snapshot()
    }
}

impl std::fmt::Debug for EventSimulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSimulation")
            .field("now", &self.inner.now())
            .field("nodes", &self.inner.node_count())
            .field("alive", &self.inner.alive_count())
            .field(
                "pending_events",
                &self
                    .inner
                    .shards
                    .iter()
                    .map(|s| s.queue.len())
                    .sum::<usize>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_core::PolicyTriple;

    fn protocol() -> ProtocolConfig {
        ProtocolConfig::new(PolicyTriple::newscast(), 8).unwrap()
    }

    fn sim(config: EventConfig) -> EventSimulation {
        EventSimulation::new(protocol(), config, 11).expect("valid config")
    }

    #[test]
    fn latency_model_sampling() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(LatencyModel::Zero.sample(&mut rng), 0);
        for _ in 0..100 {
            let l = LatencyModel::Uniform { min: 5, max: 9 }.sample(&mut rng);
            assert!((5..=9).contains(&l));
        }
        // Degenerate range.
        assert_eq!(LatencyModel::Uniform { min: 7, max: 7 }.sample(&mut rng), 7);
        assert_eq!(LatencyModel::Zero.minimum(), 0);
        assert_eq!(LatencyModel::Uniform { min: 3, max: 9 }.minimum(), 3);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let build = |config: EventConfig| EventSimulation::new(protocol(), config, 11).err();
        assert_eq!(
            build(EventConfig {
                period: 100,
                jitter: 100,
                latency: LatencyModel::Zero,
                loss_probability: 0.0,
            }),
            Some(EventConfigError::JitterNotBelowPeriod {
                jitter: 100,
                period: 100,
            })
        );
        assert_eq!(
            build(EventConfig {
                period: 0,
                jitter: 0,
                latency: LatencyModel::Zero,
                loss_probability: 0.0,
            }),
            Some(EventConfigError::ZeroPeriod)
        );
        assert_eq!(
            build(EventConfig {
                period: 100,
                jitter: 10,
                latency: LatencyModel::Zero,
                loss_probability: 1.5,
            }),
            Some(EventConfigError::InvalidLossProbability(1.5))
        );
        // Errors display a human-readable reason.
        let err = EventConfig {
            period: 50,
            jitter: 99,
            latency: LatencyModel::Zero,
            loss_probability: 0.0,
        }
        .validate()
        .unwrap_err();
        assert!(err.to_string().contains("99"));
        assert!(err.to_string().contains("50"));
    }

    #[test]
    fn multi_shard_requires_lookahead() {
        // Zero minimum latency is fine sequentially...
        let config = EventConfig {
            period: 100,
            jitter: 0,
            latency: LatencyModel::Zero,
            loss_probability: 0.0,
        };
        assert!(EventSimulation::new(protocol(), config, 1).is_ok());
        // ...but has no lookahead window to run shards concurrently under.
        assert_eq!(
            ShardedEventSimulation::new(protocol(), config, 1, 2).err(),
            Some(EventConfigError::NoLookahead { shards: 2 })
        );
        let err = config.validate_sharded(4).unwrap_err();
        assert!(err.to_string().contains("lookahead"));
        // A positive minimum restores it.
        let ok = EventConfig {
            latency: LatencyModel::Uniform { min: 1, max: 4 },
            ..config
        };
        assert!(ShardedEventSimulation::new(protocol(), ok, 1, 2).is_ok());
    }

    #[test]
    fn timers_fire_and_rearm() {
        let mut s = sim(EventConfig {
            period: 100,
            jitter: 0,
            latency: LatencyModel::Zero,
            loss_probability: 0.0,
        });
        s.add_connected_nodes(2);
        let processed = s.run_for(1000);
        // ~10 periods × 2 nodes × (timer + request + reply) events.
        assert!(processed >= 40, "only {processed} events");
        // Both learned each other.
        assert!(s.view_of(NodeId::new(0)).unwrap().contains(NodeId::new(1)));
        assert!(s.view_of(NodeId::new(1)).unwrap().contains(NodeId::new(0)));
        let report = s.report();
        assert!(report.timers_fired >= 18);
        assert!(report.requests_delivered > 0);
        assert!(report.exchanges_completed > 0);
    }

    #[test]
    fn overlay_converges_under_jitter_and_latency() {
        // View size 16: comfortably above the small-overlay connectivity
        // threshold (tiny views can genuinely partition, see Section 4.3
        // experiments).
        let protocol = ProtocolConfig::new(PolicyTriple::newscast(), 16).unwrap();
        let mut s = EventSimulation::new(
            protocol,
            EventConfig {
                period: 1000,
                jitter: 300,
                latency: LatencyModel::Uniform { min: 10, max: 200 },
                loss_probability: 0.0,
            },
            11,
        )
        .expect("valid config");
        // Tree bootstrap (every joiner knows an introducer): a bare chain
        // can genuinely be cut into two self-reinforcing communities under
        // concurrent exchanges.
        s.add_node([]);
        for i in 1..80u64 {
            s.add_node([NodeDescriptor::fresh(NodeId::new(i / 2))]);
        }
        s.run_for(30_000);
        let g = s.snapshot().undirected();
        assert!(pss_graph::components::is_connected(&g));
        assert!(g.average_degree() > 16.0);
    }

    #[test]
    fn dead_nodes_stop_participating() {
        let mut s = sim(EventConfig {
            period: 100,
            jitter: 0,
            latency: LatencyModel::Zero,
            loss_probability: 0.0,
        });
        s.add_connected_nodes(3);
        s.run_for(500);
        assert!(s.kill(NodeId::new(2)));
        assert_eq!(s.alive_count(), 2);
        s.run_for(500);
        assert!(s.dead_link_count() <= 16); // bounded by views, no panic
        let snap = s.snapshot();
        assert_eq!(snap.node_count(), 2);
    }

    #[test]
    fn total_loss_freezes_view_membership() {
        let mut s = sim(EventConfig {
            period: 100,
            jitter: 0,
            latency: LatencyModel::Zero,
            loss_probability: 1.0,
        });
        s.add_connected_nodes(4);
        let ids = |s: &EventSimulation, i: u64| -> Vec<NodeId> {
            s.view_of(NodeId::new(i)).unwrap().ids().collect()
        };
        let before: Vec<_> = (0..4).map(|i| ids(&s, i)).collect();
        s.run_for(2000);
        // No message ever arrives, so nobody learns anything; views only
        // age in place.
        let after: Vec<_> = (0..4).map(|i| ids(&s, i)).collect();
        assert_eq!(before, after);
        assert_eq!(s.report().requests_delivered, 0);
        assert!(s.report().dropped_messages > 0);
    }

    #[test]
    fn deterministic_under_seed() {
        let run = |seed: u64| {
            let mut s = EventSimulation::new(protocol(), EventConfig::default(), seed)
                .expect("valid config");
            s.add_connected_nodes(30);
            s.run_for(20_000);
            let g = s.snapshot().undirected();
            (g.edge_count(), g.max_degree())
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut s = sim(EventConfig {
            period: 100,
            jitter: 0,
            latency: LatencyModel::Zero,
            loss_probability: 0.0,
        });
        s.add_connected_nodes(2);
        s.run_until(250);
        assert_eq!(s.now(), 250);
        // Events beyond the deadline remain queued.
        let more = s.run_until(1000);
        assert!(more > 0);
    }

    #[test]
    fn sharded_run_until_respects_deadline() {
        let config = EventConfig {
            period: 100,
            jitter: 0,
            latency: LatencyModel::Uniform { min: 7, max: 13 },
            loss_probability: 0.0,
        };
        let mut s = ShardedEventSimulation::new(protocol(), config, 11, 3).expect("valid config");
        s.add_connected_nodes(9);
        s.run_until(250);
        assert_eq!(s.now(), 250);
        let more = s.run_until(1000);
        assert!(more > 0);
        assert_eq!(s.now(), 1000);
    }

    #[test]
    fn run_cycle_advances_one_period() {
        let mut s = ShardedEventSimulation::new(protocol(), EventConfig::default(), 3, 2)
            .expect("valid config");
        s.add_connected_nodes(20);
        let report = s.run_cycle();
        assert_eq!(s.cycle(), 1);
        assert_eq!(s.now(), 1000);
        assert!(report.initiated() > 0);
    }

    #[test]
    fn debug_format() {
        let s = sim(EventConfig::default());
        assert!(format!("{s:?}").contains("pending_events"));
        let sh = ShardedEventSimulation::new(protocol(), EventConfig::default(), 1, 2)
            .expect("valid config");
        let text = format!("{sh:?}");
        assert!(text.contains("lookahead"));
        assert!(text.contains("shards"));
    }
}
