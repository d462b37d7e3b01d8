//! The synchronous message-passing runner (§3's model, executable).
//!
//! A [`Distributed`] algorithm is written against the node-local API of the
//! port-numbering model: in each round every node broadcasts one message,
//! reads the messages of its neighbours by port through an [`Inbox`], and
//! updates its state; after the last round it writes one output label per
//! port. Nodes see their degree, the global parameters `n` and `Δ`, and any
//! inputs the instance carries (IDs, colors, orientations) — *not* their
//! node index.
//!
//! Two execution surfaces share one core:
//! - [`run`] keeps the seed-era `Vec<Vec<Label>>` shape for small tests;
//! - [`run_flat`] / [`run_adaptive`] return flat per-port outputs aligned
//!   with the CSR [`PortGraph`] layout ([`FlatOutputs`]), which feeds the
//!   streaming checker without re-materializing rows.
//!
//! Every send and every receive of a round is independent, so the core
//! runs each round on the workspace executor: nodes split into contiguous
//! chunks, a send phase writes one message per node into an `outgoing`
//! arena of n slots in place, and a receive phase hands each node an
//! [`Inbox`] that reads its neighbours' slots where they lie, through the
//! node's [`PortGraph::ports`]. The arena is allocated once, before round
//! 0, and no message is copied after `send` writes it. Node states stay in
//! their chunks from `init` to `output`, which writes each node's labels
//! into its slice of [`FlatOutputs`]; node inputs are produced on demand,
//! once per node in `init`, and never held. So nothing is allocated per
//! node.
//!
//! Adaptive runs work in proportion to their frontier: each chunk keeps
//! its live (not done) nodes, only those receive, and once few are left
//! only their neighbours send. Each node's update reads only the round's
//! `outgoing` arena and its own state, so outputs and round counts are
//! bit-identical for every thread count.

use crate::graph::{PortGraph, PortTarget};
use roundelim_core::label::Label;
use roundelim_core::par::{self, par_each};
use roundelim_obs as obs;
use std::ops::Range;
use std::sync::atomic::{AtomicU8, Ordering};

/// Per-node input information available at round 0.
#[derive(Debug, Clone, Default)]
pub struct NodeInput {
    /// A globally unique identifier, if the instance provides one
    /// (LOCAL-model regime; absent in the plain PN model).
    pub id: Option<u64>,
    /// An input color, if the instance provides one.
    pub color: Option<usize>,
    /// Per-port: whether the incident edge is oriented away from the node
    /// (the Theorem-2 symmetry-breaking input). Empty if absent.
    pub oriented_away: Vec<bool>,
}

/// Node-local context handed to the algorithm.
#[derive(Debug, Clone)]
pub struct NodeCtx<'a> {
    /// Number of nodes (global knowledge in the model).
    pub n: usize,
    /// Maximum degree (global knowledge in the model).
    pub delta: usize,
    /// This node's degree.
    pub degree: usize,
    /// This node's input.
    pub input: &'a NodeInput,
}

/// A synchronous distributed algorithm in the port-numbering model.
///
/// Each round a node broadcasts one message: [`Distributed::send`] takes
/// no port. This loses no generality in the port-numbering model. A node
/// that wants to send different messages on different ports broadcasts
/// the whole per-port vector instead, and the receiver picks its entry
/// with [`Inbox::back_port`], the port of the connecting edge at the
/// sender. The algorithms here broadcast at most one port (a proposal
/// or an acceptance), so their messages stay fixed-size.
///
/// The runner calls these methods from executor workers, hence the
/// `Sync`/`Send` bounds; the methods themselves stay node-local.
pub trait Distributed: Sync {
    /// The message a node broadcasts each round. `Default` fills the
    /// message arena before round 0; a slot no live node reads may keep
    /// it.
    type Message: Clone + Default + Send + Sync;
    /// Node-local state.
    type State: Send;

    /// Initializes a node's state from its radius-0 view.
    fn init(&self, ctx: &NodeCtx<'_>) -> Self::State;

    /// Produces the message the node broadcasts in `round` (0-based).
    fn send(&self, state: &Self::State, round: usize) -> Self::Message;

    /// Consumes the messages received in `round`, read by port from
    /// `inbox`.
    fn receive(&self, state: &mut Self::State, round: usize, inbox: Inbox<'_, Self::Message>);

    /// Writes the final output, one label per port, into `out` (the
    /// node's slice of [`FlatOutputs`], `degree` labels long).
    fn output(&self, state: &Self::State, out: &mut [Label]);

    /// Whether this node's output is final. In a [`run_adaptive`] run,
    /// once this is `true` the runner never calls
    /// [`Distributed::receive`] on the node again, so its state is frozen;
    /// it keeps calling [`Distributed::send`] on the frozen state while
    /// some neighbour is not done, so a done node must still send what its
    /// neighbours need. When every node is done the run stops early. The
    /// default (`false`) means "run the full round budget" — correct for
    /// fixed-schedule algorithms. Fixed-round runs ([`run`],
    /// [`run_flat`]) never call it: every node receives every round.
    fn done(&self, _state: &Self::State) -> bool {
        false
    }
}

/// A node's view of one round's messages, indexed by its ports. It reads
/// the senders' slots of the round's message arena in place; its fields
/// are private, so an algorithm never sees a node index.
pub struct Inbox<'a, M> {
    /// The receiving node's port targets.
    ports: &'a [PortTarget],
    /// The round's messages, one per node.
    outgoing: &'a [M],
}

impl<M> Clone for Inbox<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for Inbox<'_, M> {}

impl<'a, M> Inbox<'a, M> {
    /// The receiving node's degree: its ports are `0..degree()`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.ports.len()
    }

    /// The message broadcast by the neighbour at port `p`.
    #[inline]
    pub fn msg(&self, p: usize) -> &'a M {
        &self.outgoing[self.ports[p].node_ix()]
    }

    /// The port of `p`'s edge at the neighbour: the entry of the
    /// neighbour's per-port message meant for this node.
    #[inline]
    pub fn back_port(&self, p: usize) -> u32 {
        self.ports[p].port
    }
}

/// Per-port output labels in the flat CSR-aligned layout: label for
/// `(v, p)` lives at `graph.port_offset(v) + p`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatOutputs {
    /// One label per port, all nodes back to back (length
    /// [`PortGraph::total_ports`]).
    pub labels: Vec<Label>,
}

impl FlatOutputs {
    /// The output labels of node `v`, in port order.
    #[inline]
    pub fn node<'a>(&'a self, graph: &PortGraph, v: usize) -> &'a [Label] {
        &self.labels[graph.port_offset(v)..graph.port_offset(v) + graph.degree(v)]
    }

    /// Packs per-node rows into the flat layout.
    ///
    /// # Panics
    ///
    /// Panics if the row count or any row's arity mismatches the graph.
    pub fn from_rows(graph: &PortGraph, rows: &[Vec<Label>]) -> FlatOutputs {
        assert_eq!(rows.len(), graph.node_count(), "one output row per node");
        let mut labels = Vec::with_capacity(graph.total_ports());
        for (v, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), graph.degree(v), "one output label per port");
            labels.extend_from_slice(row);
        }
        FlatOutputs { labels }
    }

    /// Unpacks into per-node rows (the seed-era shape).
    pub fn into_rows(self, graph: &PortGraph) -> Vec<Vec<Label>> {
        (0..graph.node_count()).map(|v| self.node(graph, v).to_vec()).collect()
    }
}

/// Chunks are never cut below this many nodes: a smaller chunk costs more
/// in executor bookkeeping than its sends and receives.
const MIN_CHUNK_NODES: usize = 1 << 12;

/// An adaptive round runs sparse when at most `n / SPARSE_SHARE` nodes are
/// live. Above that share most nodes have a live neighbour, so sending
/// from every node costs less than stamping the senders.
const SPARSE_SHARE: usize = 4;

/// A contiguous node range with the states of its nodes and its live
/// nodes.
struct Chunk<A: Distributed> {
    nodes: Range<usize>,
    /// Index range of the chunk's ports in flat per-port arenas.
    ports: Range<usize>,
    states: Vec<A::State>,
    /// The chunk's nodes that are not done, ascending. Only adaptive runs
    /// fill it; a fixed-schedule run delivers to every node.
    live: Vec<u32>,
}

/// Cuts `0..n` into at most `threads · OVERSUB` contiguous ranges of at
/// least [`MIN_CHUNK_NODES`] nodes each (one range at one thread).
fn node_ranges(n: usize, threads: usize) -> Vec<Range<usize>> {
    let count = if threads <= 1 {
        1
    } else {
        (threads * par::OVERSUB).min(n.div_ceil(MIN_CHUNK_NODES)).max(1)
    };
    let per = n.div_ceil(count).max(1);
    (0..n.div_ceil(per).max(1)).map(|c| c * per..((c + 1) * per).min(n)).collect()
}

/// Pairs each chunk with its part of `arena`, `len(chunk)` items long: a
/// per-node arena splits by `chunk.nodes`, a per-port one by
/// `chunk.ports`.
fn split_by<'a, A: Distributed, T>(
    chunks: &'a mut [Chunk<A>],
    mut arena: &'a mut [T],
    len: impl Fn(&Chunk<A>) -> usize,
) -> impl Iterator<Item = (&'a mut Chunk<A>, &'a mut [T])> {
    chunks.iter_mut().map(move |chunk| {
        let (part, rest) = std::mem::take(&mut arena).split_at_mut(len(chunk));
        arena = rest;
        (chunk, part)
    })
}

/// Writes the message of every chunk node that `sends(v)` admits into its
/// slot of `part`, the chunk's part of the outgoing arena. Returns the
/// number of messages.
fn send_chunk<A: Distributed>(
    algo: &A,
    chunk: &Chunk<A>,
    round: usize,
    sends: impl Fn(usize) -> bool,
    part: &mut [A::Message],
) -> u64 {
    let mut count = 0;
    for ((v, state), slot) in chunk.nodes.clone().zip(&chunk.states).zip(part) {
        if sends(v) {
            *slot = algo.send(state, round);
            count += 1;
        }
    }
    count
}

/// Delivers `outgoing` to the chunk's nodes: to every node in a
/// fixed-schedule run; in an adaptive run to the live nodes only, which
/// then keep the ones still not done. Returns the number of receives.
fn receive_chunk<A: Distributed>(
    graph: &PortGraph,
    algo: &A,
    chunk: &mut Chunk<A>,
    round: usize,
    outgoing: &[A::Message],
    adaptive: bool,
) -> u64 {
    let Chunk { nodes, states, live, .. } = chunk;
    let inbox = |v: usize| Inbox { ports: graph.ports(v), outgoing };
    if !adaptive {
        for (v, state) in nodes.clone().zip(states) {
            algo.receive(state, round, inbox(v));
        }
        return nodes.len() as u64;
    }
    let receives = live.len() as u64;
    live.retain(|&v| {
        let state = &mut states[v as usize - nodes.start];
        algo.receive(state, round, inbox(v as usize));
        !algo.done(state)
    });
    receives
}

/// Shared synchronous core on `threads` executor workers: one outgoing
/// arena of n messages, and in adaptive runs per-chunk live lists with
/// frontier rounds and the early stop. `input(v)` is called once per
/// node, in `init`, so no input outlives its node's initialization.
/// Returns the flat outputs and the rounds executed. [`run_flat`] and
/// [`run_adaptive`] call it on all cores; the cross-validation harness
/// calls it with its `--threads` budget.
///
/// A round is dense or sparse; both deliver through the same receive
/// loop and differ only in who sends. A dense round, every round of a
/// fixed-schedule run, sends from every node. An adaptive round with at
/// most `n / SPARSE_SHARE` live nodes is sparse: each live node stamps its
/// neighbours as senders, and only stamped nodes overwrite their
/// `outgoing` slots. Every slot a live node reads was written this round
/// either way, and the choice depends only on the global live count, so
/// both deliver the same messages and outputs stay bit-identical for
/// every thread count.
pub fn run_core<A: Distributed>(
    graph: &PortGraph,
    input: impl Fn(usize) -> NodeInput + Sync,
    algo: &A,
    max_rounds: usize,
    adaptive: bool,
    threads: usize,
) -> (FlatOutputs, usize) {
    let _run_span = obs::trace::span("sim.run");
    let (receive_count, send_count) =
        (obs::metrics::counter("sim.receives"), obs::metrics::counter("sim.sends"));
    let n = graph.node_count();
    let delta = graph.max_degree();
    let mut chunks: Vec<Chunk<A>> = par_each(node_ranges(n, threads), threads, |nodes| {
        let states: Vec<A::State> = nodes
            .clone()
            .map(|v| algo.init(&NodeCtx { n, delta, degree: graph.degree(v), input: &input(v) }))
            .collect();
        let mut live = Vec::new();
        if adaptive {
            live.extend(nodes.clone().map(|v| v as u32));
            live.retain(|&v| !algo.done(&states[v as usize - nodes.start]));
        }
        let ports = graph.port_offset(nodes.start)..graph.port_offset(nodes.end);
        Chunk { nodes, ports, states, live }
    });
    let live_count = |chunks: &[Chunk<A>]| chunks.iter().map(|c| c.live.len()).sum::<usize>();
    let mut live = live_count(&chunks);

    let mut outgoing = vec![A::Message::default(); n];
    // `stamps[v] == round as u8` marks `v` as a sender of a sparse round.
    // Allocated at the first sparse round and never cleared: a stamp left
    // from 256·k rounds earlier only adds sends nobody reads. Each phase
    // ends at the executor's join, which orders the relaxed stores before
    // the send phase reads them.
    let mut stamps: Vec<AtomicU8> = Vec::new();
    let mut rounds_used = 0;
    for round in 0..max_rounds {
        if adaptive && live == 0 {
            break;
        }
        let _round_span = obs::trace::span_v("sim.round", round as u64);
        let sparse = adaptive && live <= n / SPARSE_SHARE;
        let mark = round as u8;
        if sparse {
            if stamps.is_empty() {
                stamps = (0..n).map(|_| AtomicU8::new(0)).collect();
            }
            let stamps = &stamps;
            par_each(chunks.iter().map(|c| &c.live[..]), threads, |live| {
                for &v in live {
                    for t in graph.ports(v as usize) {
                        stamps[t.node_ix()].store(mark, Ordering::Relaxed);
                    }
                }
            });
        }
        let sends = |v: usize| !sparse || stamps[v].load(Ordering::Relaxed) == mark;
        // All sends happen before any receive (synchronous rounds). The
        // tasks return nothing, so a one-thread round allocates nothing.
        par_each(split_by(&mut chunks, &mut outgoing, |c| c.nodes.len()), threads, |(c, part)| {
            send_count.add(send_chunk(algo, c, round, sends, part));
        });
        let outgoing = &outgoing;
        par_each(chunks.iter_mut(), threads, |chunk| {
            receive_count.add(receive_chunk(graph, algo, chunk, round, outgoing, adaptive));
        });
        live = live_count(&chunks);
        rounds_used = round + 1;
    }
    drop(outgoing);

    let mut labels = vec![Label::from_index(0); graph.total_ports()];
    par_each(split_by(&mut chunks, &mut labels, |c| c.ports.len()), threads, |(chunk, part)| {
        for (v, state) in chunk.nodes.clone().zip(&chunk.states) {
            let lo = graph.port_offset(v) - chunk.ports.start;
            algo.output(state, &mut part[lo..lo + graph.degree(v)]);
        }
    });
    (FlatOutputs { labels }, rounds_used)
}

/// Runs `algo` for `rounds` rounds on `graph` with `inputs` and returns
/// each node's per-port outputs.
///
/// # Panics
///
/// Panics if `inputs.len() != graph.node_count()` (a programming error in
/// the caller).
pub fn run<A: Distributed>(
    graph: &PortGraph,
    inputs: &[NodeInput],
    algo: &A,
    rounds: usize,
) -> Vec<Vec<Label>> {
    run_flat(graph, inputs, algo, rounds).into_rows(graph)
}

/// Runs `algo` for exactly `rounds` rounds, returning flat per-port
/// outputs — the million-node entry point. Runs on the executor on all
/// cores.
///
/// # Panics
///
/// As [`run`].
pub fn run_flat<A: Distributed>(
    graph: &PortGraph,
    inputs: &[NodeInput],
    algo: &A,
    rounds: usize,
) -> FlatOutputs {
    assert_eq!(inputs.len(), graph.node_count(), "one input per node");
    run_core(graph, |v| inputs[v].clone(), algo, rounds, false, par::resolve_threads(0)).0
}

/// Runs `algo` for at most `max_rounds` rounds, stopping as soon as every
/// node reports [`Distributed::done`]. Returns the outputs and the number
/// of rounds actually executed — the `rounds_used` the cross-validation
/// harness compares against certificate lower bounds.
///
/// # Panics
///
/// As [`run`].
pub fn run_adaptive<A: Distributed>(
    graph: &PortGraph,
    inputs: &[NodeInput],
    algo: &A,
    max_rounds: usize,
) -> (FlatOutputs, usize) {
    assert_eq!(inputs.len(), graph.node_count(), "one input per node");
    run_core(graph, |v| inputs[v].clone(), algo, max_rounds, true, par::resolve_threads(0))
}

/// Builds inputs with unique ids `0..n` (optionally shuffled by a caller).
pub fn id_inputs(graph: &PortGraph) -> Vec<NodeInput> {
    (0..graph.node_count())
        .map(|v| NodeInput { id: Some(v as u64), ..NodeInput::default() })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::cycle;
    use std::sync::atomic::AtomicU64;

    /// "Flood maximum id" needs exactly the number of rounds = eccentricity.
    struct FloodMax;

    impl Distributed for FloodMax {
        type Message = u64;
        type State = u64;

        fn init(&self, ctx: &NodeCtx<'_>) -> u64 {
            ctx.input.id.expect("FloodMax needs ids")
        }
        fn send(&self, state: &u64, _round: usize) -> u64 {
            *state
        }
        fn receive(&self, state: &mut u64, _round: usize, inbox: Inbox<'_, u64>) {
            for p in 0..inbox.degree() {
                *state = (*state).max(*inbox.msg(p));
            }
        }
        fn output(&self, state: &u64, out: &mut [Label]) {
            // encode the known max as a label index at every port (test only)
            out.fill(Label::from_index(*state as usize));
        }
        fn done(&self, state: &u64) -> bool {
            // test-only convergence signal: a node that knows id 7 is done
            *state == 7
        }
    }

    #[test]
    fn flood_max_converges_in_diameter_rounds() {
        let g = cycle(8);
        let inputs = id_inputs(&g);
        let out = run(&g, &inputs, &FloodMax, 4); // diameter of C8 = 4
        for v in out {
            assert_eq!(v[0].index(), 7);
        }
        // insufficient rounds: some node does not know the max yet
        let g = cycle(8);
        let out = run(&g, &id_inputs(&g), &FloodMax, 2);
        assert!(out.iter().any(|v| v[0].index() != 7));
    }

    #[test]
    fn flat_and_row_runs_agree() {
        let g = cycle(8);
        let inputs = id_inputs(&g);
        let rows = run(&g, &inputs, &FloodMax, 3);
        let flat = run_flat(&g, &inputs, &FloodMax, 3);
        assert_eq!(FlatOutputs::from_rows(&g, &rows), flat);
        assert_eq!(flat.clone().into_rows(&g), rows);
        for (v, row) in rows.iter().enumerate() {
            assert_eq!(flat.node(&g, v), &row[..]);
        }
    }

    #[test]
    fn adaptive_run_stops_at_convergence() {
        // On C8, flooding from node 7 covers all nodes after 4 rounds; the
        // live lists are empty at the start of round 5.
        let g = cycle(8);
        let (out, rounds) = run_adaptive(&g, &id_inputs(&g), &FloodMax, 100);
        assert_eq!(rounds, 4);
        assert!(out.labels.iter().all(|l| l.index() == 7));
        // The budget still caps non-converging runs.
        let (_, capped) = run_adaptive(&g, &id_inputs(&g), &FloodMax, 2);
        assert_eq!(capped, 2);
    }

    /// The naive sequential runner `run_core` must agree with: every node
    /// sends and receives every round, with no chunks and no frontier, and
    /// each inbox's back ports are found by searching the neighbour's
    /// [`PortGraph::ports`] for the receiver instead of read from the
    /// graph's `PortTarget::port`.
    fn reference_run<A: Distributed>(
        g: &PortGraph,
        inputs: &[NodeInput],
        algo: &A,
        max_rounds: usize,
        adaptive: bool,
    ) -> (FlatOutputs, usize) {
        let (n, delta) = (g.node_count(), g.max_degree());
        let mut states: Vec<A::State> = (0..n)
            .map(|v| algo.init(&NodeCtx { n, delta, degree: g.degree(v), input: &inputs[v] }))
            .collect();
        let mut rounds_used = 0;
        for round in 0..max_rounds {
            if adaptive && states.iter().all(|s| algo.done(s)) {
                break;
            }
            let outgoing: Vec<A::Message> = states.iter().map(|s| algo.send(s, round)).collect();
            for (v, state) in states.iter_mut().enumerate() {
                let ports: Vec<PortTarget> = g
                    .ports(v)
                    .iter()
                    .map(|t| {
                        let back = g.ports(t.node_ix()).iter().position(|b| b.node_ix() == v);
                        PortTarget { node: t.node, port: back.expect("an undirected edge") as u32 }
                    })
                    .collect();
                algo.receive(state, round, Inbox { ports: &ports, outgoing: &outgoing });
            }
            rounds_used = round + 1;
        }
        let rows: Vec<Vec<Label>> = (0..n)
            .map(|v| {
                let mut row = vec![Label::from_index(0); g.degree(v)];
                algo.output(&states[v], &mut row);
                row
            })
            .collect();
        (FlatOutputs::from_rows(g, &rows), rounds_used)
    }

    /// The runner side of a reference comparison: counts `send` and
    /// `receive` calls, and in an adaptive run panics on a `receive` at a
    /// done node, which the frozen-state contract rules out.
    struct Audited<'a, A> {
        algo: &'a A,
        adaptive: bool,
        sends: AtomicU64,
        receives: AtomicU64,
    }

    impl<'a, A> Audited<'a, A> {
        fn new(algo: &'a A, adaptive: bool) -> Self {
            Audited { algo, adaptive, sends: AtomicU64::new(0), receives: AtomicU64::new(0) }
        }
    }

    impl<A: Distributed> Distributed for Audited<'_, A> {
        type Message = A::Message;
        type State = A::State;

        fn init(&self, ctx: &NodeCtx<'_>) -> A::State {
            self.algo.init(ctx)
        }
        fn send(&self, state: &A::State, round: usize) -> A::Message {
            self.sends.fetch_add(1, Ordering::Relaxed);
            self.algo.send(state, round)
        }
        fn receive(&self, state: &mut A::State, round: usize, inbox: Inbox<'_, A::Message>) {
            assert!(!(self.adaptive && self.algo.done(state)), "receive on a done node");
            self.receives.fetch_add(1, Ordering::Relaxed);
            self.algo.receive(state, round, inbox);
        }
        fn output(&self, state: &A::State, out: &mut [Label]) {
            self.algo.output(state, out);
        }
        fn done(&self, state: &A::State) -> bool {
            self.algo.done(state)
        }
    }

    /// Nodes finish at staggered rounds (`id % 24`), fold their
    /// neighbours' round-dependent messages until then, and ignore
    /// receives once done. So the reference runner, which keeps calling
    /// `receive`, computes what the frozen-state contract must give, and a
    /// live node reading a done neighbour's slot from an earlier round
    /// diverges from it. Each message is folded with its back port, as a
    /// per-port message would be, so a wrong back port diverges too.
    struct Staggered;

    /// `(rounds left, accumulator)`.
    type StaggeredState = (u64, u64);

    impl Distributed for Staggered {
        type Message = u64;
        type State = StaggeredState;

        fn init(&self, ctx: &NodeCtx<'_>) -> StaggeredState {
            let id = ctx.input.id.expect("Staggered needs ids");
            (id % 24, id)
        }
        fn send(&self, state: &StaggeredState, round: usize) -> u64 {
            state.1.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (round * 64) as u64
        }
        fn receive(&self, state: &mut StaggeredState, _round: usize, inbox: Inbox<'_, u64>) {
            if state.0 == 0 {
                return;
            }
            state.0 -= 1;
            for p in 0..inbox.degree() {
                let m = inbox.msg(p) ^ u64::from(inbox.back_port(p));
                state.1 = (state.1 ^ m).wrapping_mul(0x0100_0000_01B3);
            }
        }
        fn output(&self, state: &StaggeredState, out: &mut [Label]) {
            for (p, label) in out.iter_mut().enumerate() {
                *label = Label::from_index((state.1 >> (16 * p)) as u16 as usize);
            }
        }
        fn done(&self, state: &StaggeredState) -> bool {
            state.0 == 0
        }
    }

    /// Runs `algo` through `run_core` at threads {1, 2, 4, 7} and asserts
    /// outputs and round counts equal the reference runner's, and that
    /// the runner makes the same `send` calls at every thread count;
    /// returns the rounds used and that send count. Seven workers do not
    /// divide the chunk count, so one worker's range is empty and the
    /// others steal.
    fn matches_reference<A: Distributed>(
        g: &PortGraph,
        inputs: &[NodeInput],
        algo: &A,
        rounds: usize,
        adaptive: bool,
    ) -> (usize, u64) {
        let expect = reference_run(g, inputs, algo, rounds, adaptive);
        let mut counts = Vec::new();
        for threads in [1, 2, 4, 7] {
            assert_eq!(node_ranges(g.node_count(), threads).len() > 1, threads > 1);
            let audited = Audited::new(algo, adaptive);
            let got = run_core(g, |v| inputs[v].clone(), &audited, rounds, adaptive, threads);
            assert!(got == expect, "threads={threads} diverged from the reference runner");
            counts.push((audited.sends.into_inner(), audited.receives.into_inner()));
        }
        assert!(counts.iter().all(|&c| c == counts[0]), "work differs by threads: {counts:?}");
        (expect.1, counts[0].0)
    }

    /// Asserts an adaptive run of `algo` matches the reference and ends
    /// early, and that some of its rounds ran sparse: only a dense round
    /// sends from every node.
    fn reaches_sparse_rounds<A: Distributed>(g: &PortGraph, inputs: &[NodeInput], algo: &A) {
        let (rounds, sends) = matches_reference(g, inputs, algo, 1 << 10, true);
        assert!(rounds < 64, "{rounds} rounds");
        assert!(sends < (g.node_count() * rounds) as u64, "{sends} sends in {rounds} rounds");
    }

    /// Runs Cole–Vishkin on the oriented ring `ring` (node `v`'s successor
    /// port is `successor(v)`) and weak 2-coloring, greedy MIS, greedy
    /// matching and [`Staggered`] on the cubic graph `g`, each against the
    /// reference.
    fn all_algorithms_match_reference(
        ring: &PortGraph,
        successor: impl Fn(usize) -> usize,
        g: &PortGraph,
    ) {
        use crate::algos::{cole_vishkin, greedy, weak2};
        use crate::generate::random_permutation;
        let n = g.node_count();
        let ids = random_permutation(n, 5, 0);
        let id_input = |v: usize| NodeInput { id: Some(u64::from(ids[v])), ..NodeInput::default() };
        let ring_inputs: Vec<NodeInput> = (0..n)
            .map(|v| NodeInput {
                oriented_away: (0..2).map(|p| p == successor(v)).collect(),
                ..id_input(v)
            })
            .collect();
        let cv = cole_vishkin::ColeVishkin::for_n(n);
        let rounds = cole_vishkin::total_rounds(n);
        let every_node = (n * rounds) as u64;
        assert_eq!(matches_reference(ring, &ring_inputs, &cv, rounds, false), (rounds, every_node));

        let inputs: Vec<NodeInput> = (0..n).map(id_input).collect();
        let weak = weak2::WeakTwoColoring::for_n(n);
        let rounds = weak2::total_rounds(n);
        let every_node = (n * rounds) as u64;
        assert_eq!(matches_reference(g, &inputs, &weak, rounds, false), (rounds, every_node));
        // The adaptive runs stop far below their budgets, and their
        // frontiers shrink into sparse rounds.
        reaches_sparse_rounds(g, &inputs, &greedy::GreedyMis);
        reaches_sparse_rounds(g, &inputs, &greedy::GreedyMatching);
        reaches_sparse_rounds(g, &inputs, &Staggered);
    }

    #[test]
    fn runs_are_thread_invariant_on_chunked_graphs() {
        use crate::generate::random_regular_seeded;
        let n = 1 << 16;
        let g = random_regular_seeded(n, 3, 64, 11, 0).expect("a cubic graph");
        // cycle(n): node 0 reaches its successor through port 0, every
        // other node through port 1.
        all_algorithms_match_reference(&cycle(n), |v| usize::from(v != 0), &g);
    }

    #[test]
    fn runs_match_the_reference_on_port_permuted_graphs() {
        use crate::generate::random_regular_seeded;
        // A pseudorandom permutation (new port → old port) per node.
        let shuffle = |g: &PortGraph, seed: u64| -> Vec<Vec<usize>> {
            (0..g.node_count())
                .map(|v| {
                    let mut state = seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut perm: Vec<usize> = (0..g.degree(v)).collect();
                    for i in (1..perm.len()).rev() {
                        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                        perm.swap(i, (state >> 33) as usize % (i + 1));
                    }
                    perm
                })
                .collect()
        };
        let n = 1 << 16;
        let ring = cycle(n);
        let ring_perms = shuffle(&ring, 3);
        let g = random_regular_seeded(n, 3, 64, 11, 0).expect("a cubic graph");
        // The successor keeps its edge; its port is wherever the
        // permutation moved the old successor port.
        let successor = |v: usize| {
            let old = usize::from(v != 0);
            ring_perms[v].iter().position(|&p| p == old).expect("a permutation")
        };
        all_algorithms_match_reference(
            &ring.with_port_permutations(&ring_perms),
            successor,
            &g.with_port_permutations(&shuffle(&g, 4)),
        );
    }

    #[test]
    fn an_adaptive_run_of_done_nodes_uses_no_rounds() {
        // Ids divisible by 24 leave every `Staggered` node done at init.
        let g = cycle(8);
        let inputs: Vec<NodeInput> =
            (0..8).map(|v| NodeInput { id: Some(24 * v), ..NodeInput::default() }).collect();
        let audited = Audited::new(&Staggered, true);
        let got = run_core(&g, |v| inputs[v].clone(), &audited, 5, true, 2);
        assert_eq!(got, reference_run(&g, &inputs, &Staggered, 5, true));
        assert_eq!(got.1, 0);
        assert_eq!((audited.sends.into_inner(), audited.receives.into_inner()), (0, 0));
    }

    #[test]
    #[should_panic(expected = "one input per node")]
    fn input_arity_checked() {
        let g = cycle(4);
        let _ = run(&g, &[], &FloodMax, 1);
    }
}
