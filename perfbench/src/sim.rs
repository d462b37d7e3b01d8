//! `sim_1e6`: `roundelim sim-vs-bound` at 10⁶ nodes for three families,
//! and a traced replica of the same cases built from public `sim` calls.

use crate::inputs::zoo;
use crate::proc::{self, Env, Finished};
use crate::report::{ms, Outcome};
use crate::stats::median;
use roundelim::auto::json::Json;
use roundelim::auto::search::{autolb, autoub, Verdict};
use roundelim::obs::time::Stopwatch;
use roundelim::problems::registry::{crossval_specs, CrossvalSpec};
use roundelim::sim::algos::{cole_vishkin, greedy, weak2};
use roundelim::sim::checker::{check_stream, CheckOptions};
use roundelim::sim::crossval::CrossvalOptions;
use roundelim::sim::generate::{cycle, random_permutation, random_regular_seeded};
use roundelim::sim::graph::PortGraph;
use roundelim::sim::runner::{run_adaptive, run_flat, FlatOutputs, NodeInput};

/// The three families: their bound searches are cheap next to the
/// simulation, so generate, runner and checker dominate.
pub const FAMILIES: [&str; 3] = ["coloring", "maximal-matching", "weak-coloring"];

const N: usize = 1_000_000;
const THREADS: usize = 2;

/// Master seeds whose random-regular cases at n = 10⁶ generate without a
/// retry (`random_regular_seeded` with `tries = 1` succeeds for both).
/// Generation redraws a whole perfect matching on any duplicate edge, so
/// its cost is geometric in the seed: an arbitrary seed moved the set time
/// by about 25%. Drawing from these keeps the work equal across runs.
const GRAPH_SEEDS: [u64; 16] =
    [2, 4, 5, 28, 51, 85, 99, 102, 108, 152, 165, 186, 232, 239, 246, 256];

/// The `sim-vs-bound --seed` of a run.
fn graph_seed(seed: u64) -> u64 {
    GRAPH_SEEDS[(seed % GRAPH_SEEDS.len() as u64) as usize]
}

/// One `sim-vs-bound` process; returns it and its `SIM_crossval.json`.
fn sim_vs_bound(
    env: &Env,
    n: usize,
    seed: u64,
    family: &str,
) -> Result<(Finished, String), String> {
    let path = env.path(&format!("sim-{family}-{n}.json"));
    let out = proc::run(
        env.cmd()
            .arg("sim-vs-bound")
            .args(["--n", &n.to_string(), "--threads", &THREADS.to_string()])
            .args(["--seed", &seed.to_string(), "--family", family, "--out"])
            .arg(&path),
    )
    .map_err(|e| format!("sim-vs-bound: {e}"))?;
    let report = std::fs::read_to_string(&path).unwrap_or_default();
    let _ = std::fs::remove_file(&path);
    Ok((out, report))
}

/// Per-case `(rounds_used, edges_checked)`, if every case is consistent.
fn check_report(out: &Finished, report: &str) -> Result<Vec<(u64, u64)>, String> {
    if !out.ok() {
        return Err(format!("sim-vs-bound exited with {:?}", out.code));
    }
    let doc = Json::parse(report).map_err(|e| format!("SIM_crossval.json: {e}"))?;
    let cases = doc.get("cases").and_then(Json::as_arr).ok_or("report has no cases")?;
    if cases.is_empty() {
        return Err("report has no cases".into());
    }
    let mut counts = Vec::new();
    for c in cases {
        if c.get("consistent").and_then(Json::as_bool) != Some(true) {
            return Err(format!("case {} is not consistent", c.to_string_compact()));
        }
        let rounds = c.get("rounds_used").and_then(Json::as_u64).ok_or("no rounds_used")?;
        let edges = c
            .get("checker")
            .and_then(|k| k.get("edges_checked"))
            .and_then(Json::as_u64)
            .ok_or("no edges_checked")?;
        counts.push((rounds, edges));
    }
    Ok(counts)
}

/// The untraced workload: three-family sets until `seconds` pass.
pub fn workload(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let env = Env::new("sim_1e6")?;
    let mut out = Outcome::default();
    let seed = graph_seed(seed);

    // Set-up: a 10³-node smoke set, three times over.
    let mut setups = Vec::new();
    for _ in 0..3 {
        let watch = Stopwatch::start();
        for f in FAMILIES {
            let (run, report) = sim_vs_bound(&env, 1000, seed, f)?;
            check_report(&run, &report).map_err(|e| format!("set-up {f}: {e}"))?;
        }
        setups.push(watch.elapsed_ns() as f64 / 1e9);
    }

    let (mut walls, mut cpus, mut rss) = (Vec::new(), Vec::new(), 0u64);
    let mut first: Vec<Option<String>> = vec![None; FAMILIES.len()];
    let mut counts: Vec<Vec<(u64, u64)>> = vec![Vec::new(); FAMILIES.len()];
    let watch = Stopwatch::start();
    while (watch.elapsed_ns() as f64) < seconds * 1e9 {
        let (mut wall, mut cpu) = (0u64, 0u64);
        for (ix, f) in FAMILIES.iter().enumerate() {
            let (run, report) = sim_vs_bound(&env, N, seed, f)?;
            wall += run.usage.wall_ns;
            cpu += run.usage.cpu_ns;
            rss = rss.max(run.usage.max_rss_kb);
            let problem = match check_report(&run, &report) {
                Err(e) => Some(format!("{f}: {e}")),
                Ok(c) => {
                    counts[ix] = c;
                    match &first[ix] {
                        None => {
                            first[ix] = Some(report);
                            None
                        }
                        Some(r) if *r == report => None,
                        Some(_) => Some(format!("{f}: SIM_crossval.json differs between runs")),
                    }
                }
            };
            out.check(problem);
        }
        walls.push(ms(wall));
        cpus.push(ms(cpu));
    }
    for (f, c) in FAMILIES.iter().zip(&counts) {
        for (rounds, edges) in c {
            out.work(format!("sim_1e6.{f}.rounds_used"), *rounds);
            out.work(format!("sim_1e6.{f}.edges_checked"), *edges);
        }
    }
    out.metric("setup_s", median(&setups), "s");
    out.metric("latency_p50_ms", median(&walls), "ms");
    out.metric("cpu_ms_per_op", median(&cpus), "ms");
    out.metric("peak_rss_mb", rss as f64 / 1024.0, "MB");
    out.notes.push(format!(
        "{} three-family sets at n = 10^6, --seed {seed}, --threads {THREADS}",
        walls.len()
    ));
    Ok(out)
}

/// The per-case seed stream `sim-vs-bound` derives from its master seed.
fn case_seed(master: u64, spec: &CrossvalSpec) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ master;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(spec.family.as_bytes());
    eat(spec.algorithm.as_bytes());
    eat(&(spec.k as u64).to_le_bytes());
    eat(&(spec.delta as u64).to_le_bytes());
    h
}

/// Wall and CPU time of one stage.
#[derive(Default)]
struct Stage {
    wall_ns: u64,
    cpu_ns: u64,
}

impl Stage {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let cpu = proc::self_cpu_ns();
        let watch = Stopwatch::start();
        let r = f();
        self.wall_ns += watch.elapsed_ns();
        self.cpu_ns += proc::self_cpu_ns().saturating_sub(cpu);
        r
    }
}

/// The case graph, and whether it generated without a retry.
fn graph(spec: &CrossvalSpec, seed: u64) -> Result<(PortGraph, bool), String> {
    if spec.graph == "ring" {
        return Ok((cycle(N), true));
    }
    let n = if (N * spec.delta) % 2 == 1 { N + 1 } else { N };
    if let Some(g) = random_regular_seeded(n, spec.delta, 1, seed, THREADS) {
        return Ok((g, true));
    }
    let g = random_regular_seeded(n, spec.delta, 64, seed, THREADS);
    Ok((g.ok_or("graph generation failed")?, false))
}

fn node_inputs(spec: &CrossvalSpec, g: &PortGraph, seed: u64) -> Vec<NodeInput> {
    let ids = random_permutation(g.node_count(), seed ^ 0x1d5_0f00d, THREADS);
    let ring = spec.algorithm == "cole-vishkin";
    (0..g.node_count())
        .map(|v| NodeInput {
            id: Some(u64::from(ids[v])),
            color: None,
            oriented_away: if !ring {
                Vec::new()
            } else if v == 0 {
                vec![true, false]
            } else {
                vec![false, true]
            },
        })
        .collect()
}

fn simulate(
    spec: &CrossvalSpec,
    g: &PortGraph,
    inputs: &[NodeInput],
) -> Result<(FlatOutputs, usize), String> {
    let n = g.node_count();
    Ok(match spec.algorithm {
        "cole-vishkin" => {
            let rounds = cole_vishkin::total_rounds(n);
            (run_flat(g, inputs, &cole_vishkin::ColeVishkin::for_n(n), rounds), rounds)
        }
        "weak2" => {
            let rounds = weak2::total_rounds(n);
            (run_flat(g, inputs, &weak2::WeakTwoColoring::for_n(n), rounds), rounds)
        }
        "greedy-matching" => {
            run_adaptive(g, inputs, &greedy::GreedyMatching, greedy::matching_rounds(n))
        }
        other => return Err(format!("no replica for algorithm `{other}`")),
    })
}

/// The traced replica: the same three cases as `sim-vs-bound`, each layer
/// timed by the benchmark around its public `sim` call, cross-checked
/// against an untraced `sim-vs-bound` set of the same seed.
pub fn layers(seed: u64) -> Result<Outcome, String> {
    let env = Env::new("sim_1e6-trace")?;
    let mut out = Outcome::default();
    let seed = graph_seed(seed);
    let mut untraced_ns = 0u64;
    let mut expected = Vec::new();
    for f in FAMILIES {
        let (run, report) = sim_vs_bound(&env, N, seed, f)?;
        untraced_ns += run.usage.wall_ns;
        match check_report(&run, &report) {
            Ok(c) => expected.extend(c),
            Err(e) => out.fail(format!("{f}: {e}")),
        }
    }

    let search_opts = CrossvalOptions::default().search;
    let (mut search, mut generate, mut runner, mut checker) =
        (Stage::default(), Stage::default(), Stage::default(), Stage::default());
    let watch = Stopwatch::start();
    let mut got = Vec::new();
    for spec in crossval_specs().iter().filter(|s| FAMILIES.contains(&s.family)) {
        let problem = zoo(spec.family, spec.k, spec.delta)?;
        let mut opts = search_opts.clone();
        opts.threads = THREADS;
        let (lb, ub) = search.time(|| (autolb(&problem, &opts), autoub(&problem, &opts)));
        let lb = lb.map_err(|e| e.to_string())?;
        ub.map_err(|e| e.to_string())?;
        let s = case_seed(seed, spec);
        let (g, first_try, inputs) = generate.time(|| {
            let (g, first_try) = graph(spec, s)?;
            let inputs = node_inputs(spec, &g, s);
            Ok::<_, String>((g, first_try, inputs))
        })?;
        if !first_try {
            out.notes
                .push(format!("work changed: the {} graph of seed {seed} retried", spec.family));
        }
        let (outputs, rounds) = runner.time(|| simulate(spec, &g, &inputs))?;
        let report = checker.time(|| {
            check_stream(
                &problem,
                &g,
                &outputs,
                &CheckOptions { max_witnesses: 8, threads: THREADS },
            )
        });
        let floor = match lb.verdict {
            Verdict::LowerBound { rounds } => rounds,
            _ => 0,
        };
        out.check((!report.is_valid() || rounds < floor).then(|| {
            format!("replica {}: invalid output or rounds below the lower bound", spec.family)
        }));
        got.push((rounds as u64, report.edges_checked));
    }
    let wall = ms(watch.elapsed_ns());
    if got != expected {
        out.fail(format!("replica counts {got:?} differ from sim-vs-bound's {expected:?}"));
    }

    let mut attributed = 0.0;
    for (name, st) in
        [("generate", &generate), ("runner", &runner), ("checker", &checker), ("search", &search)]
    {
        attributed += ms(st.wall_ns);
        out.metric(format!("sim.{name}_ms"), ms(st.wall_ns), "ms");
        if name != "search" {
            let ratio = st.cpu_ns as f64 / st.wall_ns.max(1) as f64;
            out.metric(format!("sim.{name}.cpu_per_wall"), ratio, "ratio");
        }
    }
    out.metric("sim.unattributed_ms", wall - attributed, "ms");
    out.metric("sim.traced_wall_ms", wall, "ms");
    out.metric("sim.trace_overhead_ms", wall - ms(untraced_ns), "ms");
    let (rounds, edges) = got.iter().fold((0, 0), |(r, e), (a, b)| (r + a, e + b));
    out.metric("sim.rounds_used", rounds as f64, "count");
    out.metric("sim.edges_checked", edges as f64, "count");
    Ok(out)
}
