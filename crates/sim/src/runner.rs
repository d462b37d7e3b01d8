//! The synchronous message-passing runner (§3's model, executable).
//!
//! A [`Distributed`] algorithm is written against the node-local API of the
//! port-numbering model: in each round every node sends one message per
//! port, receives one message per port, and updates its state; after the
//! last round it assigns one output label per port. Nodes see their degree,
//! the global parameters `n` and `Δ`, and any inputs the instance carries
//! (IDs, colors, orientations) — *not* their node index.
//!
//! Two execution surfaces share one core:
//! - [`run`] keeps the seed-era `Vec<Vec<Label>>` shape for small tests;
//! - [`run_flat`] / [`run_adaptive`] return flat per-port outputs aligned
//!   with the CSR [`PortGraph`] layout ([`FlatOutputs`]), which feeds the
//!   streaming checker without re-materializing rows.
//!
//! Every send and every receive of a round is independent, so the core
//! runs each round on the workspace executor: nodes split into contiguous
//! chunks (whose ports are contiguous in the CSR layout), a send phase
//! fills one flat per-port `outgoing` arena, and a receive phase gathers
//! each chunk's inbox through the graph's mate table
//! ([`PortGraph::mates`]) into a buffer the chunk keeps across rounds.
//! Node states stay in their chunks from `init` to `output`; node inputs
//! are produced on demand, once per node in `init`, and never held. Each
//! node's update reads only the round's `outgoing` arena and its own
//! state, so outputs and round counts are bit-identical for every thread
//! count.

use crate::graph::PortGraph;
use crate::par;
use roundelim_core::label::Label;
use roundelim_obs as obs;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

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
/// The runner calls these methods from executor workers, hence the
/// `Sync`/`Send` bounds; the methods themselves stay node-local.
pub trait Distributed: Sync {
    /// Messages exchanged along edges.
    type Message: Clone + Send + Sync;
    /// Node-local state.
    type State: Send;

    /// Initializes a node's state from its radius-0 view.
    fn init(&self, ctx: &NodeCtx<'_>) -> Self::State;

    /// Produces the message to send through `port` in `round` (0-based).
    fn send(&self, state: &Self::State, round: usize, port: usize) -> Self::Message;

    /// Consumes the messages received in `round` (indexed by port).
    fn receive(&self, state: &mut Self::State, round: usize, messages: &[Self::Message]);

    /// Emits the final output: one label per port.
    fn output(&self, state: &Self::State) -> Vec<Label>;

    /// Whether this node's state is final: its output labels can no longer
    /// change *and* it no longer needs to inform neighbors. When every
    /// node reports `true`, [`run_adaptive`] stops early. The default
    /// (`false`) means "run the full round budget" — correct for
    /// fixed-schedule algorithms.
    fn done(&self, _state: &Self::State) -> bool {
        false
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

/// Nodes whose inbox the receive phase gathers at once: the buffer stays
/// cache-resident, and the gather still issues many independent loads.
const INBOX_NODES: usize = 1 << 10;

/// A contiguous node range with the states of its nodes and the inbox
/// buffer its receive phase reuses every round.
struct Chunk<A: Distributed> {
    nodes: Range<usize>,
    /// Index range of the chunk's ports in flat per-port arenas.
    ports: Range<usize>,
    states: Vec<A::State>,
    inbox: Vec<A::Message>,
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

/// Runs `f` on every item and returns the results in item order: inline
/// for a single item, else as executor tasks, each claiming its item.
fn each<I: Send, R: Send>(items: Vec<I>, threads: usize, f: impl Fn(I) -> R + Sync) -> Vec<R> {
    if items.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    roundelim_core::par::par_map(&slots, threads, |slot| {
        f(slot.lock().expect("chunk slot").take().expect("claimed once"))
    })
}

/// Splits a flat per-port arena into consecutive parts of `lens` ports.
fn split_ports<'a, T>(mut arena: &'a mut [T], lens: &[usize]) -> Vec<&'a mut [T]> {
    lens.iter()
        .map(|&len| {
            let (part, rest) = std::mem::take(&mut arena).split_at_mut(len);
            arena = rest;
            part
        })
        .collect()
}

/// Calls `emit` with every message the chunk's nodes send in `round`, in
/// port order.
fn send_chunk<A: Distributed>(
    graph: &PortGraph,
    algo: &A,
    chunk: &Chunk<A>,
    round: usize,
    mut emit: impl FnMut(A::Message),
) {
    for (v, state) in chunk.nodes.clone().zip(&chunk.states) {
        for p in 0..graph.degree(v) {
            emit(algo.send(state, round, p));
        }
    }
}

/// Gathers the chunk's inbox from `outgoing` and delivers it, a block of
/// [`INBOX_NODES`] nodes at a time: the block's ports are contiguous, so
/// the gather walks their slice of the mate table, one independent read
/// of `outgoing` per port. When `check_done` is set, probes
/// [`Distributed::done`] after each receive until the first node that is
/// not done, and raises `not_done` then.
fn receive_chunk<A: Distributed>(
    graph: &PortGraph,
    algo: &A,
    chunk: &mut Chunk<A>,
    round: usize,
    outgoing: &[A::Message],
    mut check_done: bool,
    not_done: &AtomicBool,
) {
    let Chunk { nodes, states, inbox, .. } = chunk;
    for (start, states) in nodes.clone().step_by(INBOX_NODES).zip(states.chunks_mut(INBOX_NODES)) {
        let block = start..start + states.len();
        let base = graph.port_offset(start);
        let mates = &graph.mates()[base..graph.port_offset(block.end)];
        inbox.clear();
        inbox.extend(mates.iter().map(|&j| outgoing[j as usize].clone()));
        for (v, state) in block.zip(states) {
            let lo = graph.port_offset(v) - base;
            algo.receive(state, round, &inbox[lo..lo + graph.degree(v)]);
            if check_done && !algo.done(state) {
                not_done.store(true, Ordering::Relaxed);
                check_done = false;
            }
        }
    }
}

/// Shared synchronous core on `threads` executor workers: one flat
/// outgoing arena, per-chunk inboxes, optional early stop. `input(v)` is
/// called once per node, in `init`, so no input outlives its node's
/// initialization.
pub(crate) fn run_core<A: Distributed>(
    graph: &PortGraph,
    input: impl Fn(usize) -> NodeInput + Sync,
    algo: &A,
    max_rounds: usize,
    adaptive: bool,
    threads: usize,
) -> (FlatOutputs, usize) {
    let _run_span = obs::trace::span("sim.run");
    let n = graph.node_count();
    let delta = graph.max_degree();
    let total = graph.total_ports();
    // Raised when some node is not done; the adaptive stop reads it at
    // the top of each round. Chunks probe `done` only until the first
    // node that is not, and skip probing once another chunk raised it.
    let not_done = AtomicBool::new(false);
    let probe = || adaptive && !not_done.load(Ordering::Relaxed);
    let mut chunks: Vec<Chunk<A>> = each(node_ranges(n, threads), threads, |nodes| {
        let states: Vec<A::State> = nodes
            .clone()
            .map(|v| algo.init(&NodeCtx { n, delta, degree: graph.degree(v), input: &input(v) }))
            .collect();
        if probe() && !states.iter().all(|s| algo.done(s)) {
            not_done.store(true, Ordering::Relaxed);
        }
        let ports = graph.port_offset(nodes.start)..graph.port_offset(nodes.end);
        Chunk { nodes, ports, states, inbox: Vec::new() }
    });
    let port_lens: Vec<usize> = chunks.iter().map(|c| c.ports.len()).collect();

    let mut outgoing: Vec<A::Message> = Vec::new();
    let mut rounds_used = 0;
    for round in 0..max_rounds {
        if adaptive && !not_done.swap(false, Ordering::Relaxed) {
            break;
        }
        let _round_span = obs::trace::span_v("sim.round", round as u64);
        // All sends happen before any receive (synchronous rounds). The
        // first round allocates the arena; later rounds overwrite it.
        if outgoing.is_empty() {
            let parts = each(chunks.iter_mut().collect(), threads, |chunk| {
                let mut part = Vec::with_capacity(chunk.ports.len());
                send_chunk(graph, algo, chunk, round, |m| part.push(m));
                part
            });
            // Appending part by part frees each part as it is moved.
            let mut parts = parts.into_iter();
            outgoing = parts.next().unwrap_or_default();
            outgoing.reserve_exact(total - outgoing.len());
            parts.for_each(|part| outgoing.extend(part));
        } else {
            let items: Vec<_> =
                chunks.iter_mut().zip(split_ports(&mut outgoing, &port_lens)).collect();
            each(items, threads, |(chunk, part)| {
                let mut slots = part.iter_mut();
                send_chunk(graph, algo, chunk, round, |m| {
                    *slots.next().expect("one slot per port") = m;
                });
            });
        }
        let outgoing = &outgoing;
        each(chunks.iter_mut().collect(), threads, |chunk| {
            receive_chunk(graph, algo, chunk, round, outgoing, probe(), &not_done);
        });
        rounds_used = round + 1;
    }
    drop(outgoing);

    let mut labels = vec![Label::from_index(0); total];
    let items: Vec<_> = chunks.iter_mut().zip(split_ports(&mut labels, &port_lens)).collect();
    each(items, threads, |(chunk, part)| {
        for (v, state) in chunk.nodes.clone().zip(&chunk.states) {
            let out = algo.output(state);
            assert_eq!(out.len(), graph.degree(v), "one output label per port");
            let lo = graph.port_offset(v) - chunk.ports.start;
            part[lo..lo + out.len()].copy_from_slice(&out);
        }
    });
    (FlatOutputs { labels }, rounds_used)
}

/// Runs `algo` for `rounds` rounds on `graph` with `inputs` and returns
/// each node's per-port outputs.
///
/// # Panics
///
/// Panics if `inputs.len() != graph.node_count()` or an algorithm emits a
/// wrong-arity output (programming errors in the caller/algorithm).
pub fn run<A: Distributed>(
    graph: &PortGraph,
    inputs: &[NodeInput],
    algo: &A,
    rounds: usize,
) -> Vec<Vec<Label>> {
    run_flat(graph, inputs, algo, rounds).into_rows(graph)
}

/// Runs `algo` for exactly `rounds` rounds, returning flat per-port
/// outputs — the million-node entry point. Runs on the executor with the
/// thread count `ROUNDELIM_THREADS` resolves to (all cores when unset).
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

/// Builds default (empty) inputs for a graph.
pub fn empty_inputs(graph: &PortGraph) -> Vec<NodeInput> {
    vec![NodeInput::default(); graph.node_count()]
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

    /// "Flood maximum id" needs exactly the number of rounds = eccentricity.
    struct FloodMax;

    impl Distributed for FloodMax {
        type Message = u64;
        type State = u64;

        fn init(&self, ctx: &NodeCtx<'_>) -> u64 {
            ctx.input.id.expect("FloodMax needs ids")
        }
        fn send(&self, state: &u64, _round: usize, _port: usize) -> u64 {
            *state
        }
        fn receive(&self, state: &mut u64, _round: usize, messages: &[u64]) {
            for &m in messages {
                *state = (*state).max(m);
            }
        }
        fn output(&self, state: &u64) -> Vec<Label> {
            // encode the known max as a label index at both ports (test only)
            vec![Label::from_index(*state as usize); 2]
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
        // done() probe fires at the start of round 5.
        let g = cycle(8);
        let (out, rounds) = run_adaptive(&g, &id_inputs(&g), &FloodMax, 100);
        assert_eq!(rounds, 4);
        assert!(out.labels.iter().all(|l| l.index() == 7));
        // The budget still caps non-converging runs.
        let (_, capped) = run_adaptive(&g, &id_inputs(&g), &FloodMax, 2);
        assert_eq!(capped, 2);
    }

    /// The naive sequential runner `run_core` must agree with: per-node
    /// outboxes, and per-node inboxes gathered by following
    /// [`PortGraph::neighbor`] — no chunks, no flat arenas, no mate table.
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
            let outboxes: Vec<Vec<A::Message>> = (0..n)
                .map(|v| (0..g.degree(v)).map(|p| algo.send(&states[v], round, p)).collect())
                .collect();
            for (v, state) in states.iter_mut().enumerate() {
                let inbox: Vec<A::Message> = (0..g.degree(v))
                    .map(|p| {
                        let t = g.neighbor(v, p);
                        outboxes[t.node_ix()][t.port_ix()].clone()
                    })
                    .collect();
                algo.receive(state, round, &inbox);
            }
            rounds_used = round + 1;
        }
        let rows: Vec<Vec<Label>> = states.iter().map(|s| algo.output(s)).collect();
        (FlatOutputs::from_rows(g, &rows), rounds_used)
    }

    /// Runs `algo` through `run_core` at threads {1, 2, 4, 7} and asserts
    /// outputs and round counts equal the reference runner's; returns the
    /// rounds used. Seven workers do not divide the chunk count, so one
    /// worker's range is empty and the others steal.
    fn matches_reference<A: Distributed>(
        g: &PortGraph,
        inputs: &[NodeInput],
        algo: &A,
        rounds: usize,
        adaptive: bool,
    ) -> usize {
        let expect = reference_run(g, inputs, algo, rounds, adaptive);
        for threads in [1, 2, 4, 7] {
            assert_eq!(node_ranges(g.node_count(), threads).len() > 1, threads > 1);
            let got = run_core(g, |v| inputs[v].clone(), algo, rounds, adaptive, threads);
            assert!(got == expect, "threads={threads} diverged from the reference runner");
        }
        expect.1
    }

    /// Runs Cole–Vishkin on the oriented ring `ring` (node `v`'s successor
    /// port is `successor(v)`) and weak 2-coloring, greedy MIS and greedy
    /// matching on the cubic graph `g`, each against the reference.
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
        assert_eq!(matches_reference(ring, &ring_inputs, &cv, rounds, false), rounds);

        let inputs: Vec<NodeInput> = (0..n).map(id_input).collect();
        let weak = weak2::WeakTwoColoring::for_n(n);
        let rounds = weak2::total_rounds(n);
        assert_eq!(matches_reference(g, &inputs, &weak, rounds, false), rounds);
        // The greedy algorithms stop early, far below their budgets.
        let budget = greedy::mis_rounds(n);
        assert!(matches_reference(g, &inputs, &greedy::GreedyMis, budget, true) < 64);
        let budget = greedy::matching_rounds(n);
        assert!(matches_reference(g, &inputs, &greedy::GreedyMatching, budget, true) < 64);
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
    #[should_panic(expected = "one input per node")]
    fn input_arity_checked() {
        let g = cycle(4);
        let _ = run(&g, &[], &FloodMax, 1);
    }
}
