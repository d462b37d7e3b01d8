//! `roundelim` — the command-line front end to the automatic speedup
//! engine (Brandt, PODC 2019).
//!
//! ```text
//! roundelim zoo                          list the problem families
//! roundelim show <family> [k] [Δ]        print a family instance
//! roundelim speedup <file|family:k:Δ> [--threads N] [--json] [--profile]
//!                  [--trace FILE]        one speedup step, with provenance
//! roundelim iterate <file|family:k:Δ> [--steps N] [--relax FILE]... [--json]
//!                                        iterate to a verdict (§2.1 roadmap),
//!                                        relaxing to templates when given
//! roundelim autolb <file|family:k:Δ> [--steps N] [--beam N] [--max-labels N]
//!                  [--threads N] [--no-relax] [--cert FILE] [--json] [--profile]
//!                  [--time-budget SECS] [--max-expansions N]
//!                  [--checkpoint DIR] [--checkpoint-every N] [--resume]
//!                  [--trace FILE]        automated lower-bound search
//! roundelim autolb --sweep [--json]      autolb over the registry sweep set
//! roundelim autoub <file|family:k:Δ> [same flags as autolb]
//!                                        automated upper-bound search (§4.5)
//! roundelim cert verify <file> [--fast] [--json]
//!                                        independently replay a certificate
//!                                        (--fast skips the full_step replay)
//! roundelim sim-vs-bound [--n N] [--seed S] [--threads N] [--family NAME]
//!                  [--steps N] [--beam N] [--max-labels N] [--out FILE] [--json]
//!                  [--profile] [--trace FILE]
//!                                        run zoo algorithms on huge graphs and
//!                                        cross-check rounds against certificates
//! roundelim zero-round <file|family:k:Δ> both 0-round deciders
//! roundelim iso <fileA> <fileB>          isomorphism check
//! roundelim relax <fileA> <fileB>        relaxation witness A ⟶ B
//! roundelim serve --store DIR [--addr HOST:PORT] [--workers N] [--threads N]
//!                  [--profile] [--trace FILE]
//!                                        roundelimd: persistent proof-cache
//!                                        service over line-JSON/TCP
//! roundelim trace summarize <FILE> [--json]
//!                                        per-span statistics of a recorded
//!                                        `--trace` file (see docs/OBSERVABILITY.md)
//! roundelim trace fold <FILE>            folded flamegraph stacks from a trace
//! roundelim client solve <file|family:k:Δ> --addr HOST:PORT
//!                  [--direction lower|upper] [--steps N] [--beam N]
//!                  [--max-labels N] [--max-expansions N] [--time-budget SECS]
//!                  [--cert FILE] [--json]  solve via a roundelimd (cache hits
//!                                        skip the search); the certificate is
//!                                        re-verified locally before exit 0
//! roundelim client <status|stats|shutdown> --addr HOST:PORT
//! ```
//!
//! Problem files use the text format of `roundelim_core::parser`; the
//! `family:k:Δ` shorthand instantiates a zoo family, e.g.
//! `coloring:3:2` or `sinkless-orientation::4` (empty k for families that
//! ignore it).
//!
//! ## Exit codes
//!
//! | code | meaning                                                        |
//! |------|----------------------------------------------------------------|
//! | 0    | success: verdict proved (or search exhausted its depth budget) |
//! | 1    | runtime error (I/O, search failure, inconsistent cross-check)  |
//! | 2    | usage error or invalid input                                   |
//! | 3    | search stopped early (time/expansion budget, SIGTERM) or the   |
//! |      | verdict is inconclusive; any emitted certificate is verified   |
//! |      | but marked `incomplete`                                        |
//! | 4    | certificate verification failure (`cert verify`)               |

use roundelim::auto::json::Json;
use roundelim::auto::search::{
    autolb, autoub, CancelToken, CheckpointConf, Outcome, SearchOptions, Verdict,
};
use roundelim::auto::Certificate;
use roundelim::core::fmt::{problem_table, sequence_report, step_report};
use roundelim::core::io::atomic_write;
use roundelim::core::iso::isomorphism;
use roundelim::core::par::resolve_threads;
use roundelim::core::problem::Problem;
use roundelim::core::relax::relaxation_map;
use roundelim::core::sequence::{iterate, iterate_relaxed, StopReason, ZeroRoundModel};
use roundelim::core::speedup::full_step;
use roundelim::core::zero_round::{check_oriented_delta, zero_round_oriented, zero_round_pn};
use roundelim::daemon::proto;
use roundelim::obs;
use roundelim::problems::registry::{families, family, sweep_specs};
use std::process::ExitCode;
use std::time::Duration;

/// A diagnosed failure carrying its exit code (see the table in the module
/// docs). `From<String>` gives the generic runtime code 1; `From<&str>` is
/// reserved for missing-argument messages and maps to the usage code 2.
struct CliError {
    code: u8,
    msg: String,
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError { code: 1, msg }
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        usage_err(msg)
    }
}

/// An invalid-input / bad-flag diagnostic (exit code 2).
fn usage_err(msg: impl Into<String>) -> CliError {
    CliError { code: 2, msg: msg.into() }
}

type CliResult = Result<ExitCode, CliError>;

/// SIGTERM / SIGINT → cooperative cancellation: the handler flips an atomic
/// flag the search polls (via a probe [`roundelim::auto::CancelToken`]), so
/// a terminated or Ctrl-C'd `autolb`/`autoub` stops at the next poll point
/// with its last boundary checkpoint intact and exit code 3. Both signals
/// take the same graceful path — Ctrl-C during a long search keeps the
/// live snapshot exactly like a service manager's TERM does.
///
/// The raw `signal(2)` declaration avoids a libc dependency; the handler
/// only does an atomic store, which is async-signal-safe.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    static FIRED: AtomicBool = AtomicBool::new(false);

    extern "C" fn handler(_signum: i32) {
        FIRED.store(true, Ordering::SeqCst);
    }

    pub fn fired() -> bool {
        FIRED.load(Ordering::SeqCst)
    }

    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn fired() -> bool {
        false
    }

    pub fn install() {}
}

fn load(spec: &str) -> Result<Problem, CliError> {
    if let Ok(text) = std::fs::read_to_string(spec) {
        return Problem::parse(&text).map_err(|e| usage_err(format!("{spec}: {e}")));
    }
    // family:k:Δ shorthand
    let parts: Vec<&str> = spec.split(':').collect();
    if parts.len() == 3 {
        let f = family(parts[0]).map_err(|e| usage_err(e.to_string()))?;
        let k: usize = if parts[1].is_empty() {
            0
        } else {
            parts[1].parse().map_err(|_| usage_err(format!("bad k `{}`", parts[1])))?
        };
        let d: usize = parts[2].parse().map_err(|_| usage_err(format!("bad Δ `{}`", parts[2])))?;
        return f.instantiate(k, d).map_err(|e| usage_err(e.to_string()));
    }
    Err(usage_err(format!("`{spec}` is neither a readable file nor a family:k:Δ spec")))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  roundelim zoo\n  roundelim show <family> [k] [Δ]\n  \
         roundelim speedup <file|family:k:Δ> [--threads N] [--json] [--profile] \
         [--trace FILE]\n  \
         roundelim iterate <file|family:k:Δ> [--steps N] [--relax FILE]... [--json]\n  \
         roundelim autolb <file|family:k:Δ|--sweep> [--steps N] [--beam N] \
         [--max-labels N] [--threads N] [--no-relax] [--cert FILE] [--json] [--profile] \
         [--time-budget SECS] [--max-expansions N] [--checkpoint DIR] \
         [--checkpoint-every N] [--resume] [--trace FILE]\n  \
         roundelim autoub <file|family:k:Δ> [autolb flags]\n  \
         roundelim cert verify <file> [--fast] [--json]\n  \
         roundelim sim-vs-bound [--n N] [--seed S] [--threads N] [--family NAME] \
         [--steps N] [--beam N] [--max-labels N] [--out FILE] [--json] [--profile] \
         [--trace FILE]\n  \
         roundelim zero-round <file|family:k:Δ>\n  \
         roundelim iso <fileA> <fileB>\n  roundelim relax <fileA> <fileB>\n  \
         roundelim serve --store DIR [--addr HOST:PORT] [--workers N] [--threads N] \
         [--profile] [--trace FILE]\n  \
         roundelim trace <summarize|fold> <FILE> [--json]\n  \
         roundelim client solve <file|family:k:Δ> --addr HOST:PORT \
         [--direction lower|upper] [--steps N] [--beam N] [--max-labels N] \
         [--max-expansions N] [--time-budget SECS] [--cert FILE] [--json]\n  \
         roundelim client <status|stats|shutdown> --addr HOST:PORT"
    );
    ExitCode::from(2)
}

/// The value following `--flag`, parsed. Parse failures are usage errors.
fn flag_value<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, CliError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(ix) => args
            .get(ix + 1)
            .ok_or_else(|| usage_err(format!("{flag} needs a value")))?
            .parse()
            .map(Some)
            .map_err(|_| usage_err(format!("{flag} needs a valid value"))),
    }
}

/// All values of a repeatable `--flag VALUE` pair.
fn flag_values<'a>(args: &'a [String], flag: &str) -> Result<Vec<&'a String>, CliError> {
    let mut out = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(a) = iter.next() {
        if a == flag {
            out.push(iter.next().ok_or_else(|| usage_err(format!("{flag} needs a value")))?);
        }
    }
    Ok(out)
}

fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Runs `f` with the trace sink installed when `--trace FILE` or
/// `--profile` is present. Both read the one recorded document:
/// `--trace` writes it atomically, and `--profile` prints its per-span
/// self times, an `unattributed` row and the command's `wall` time to
/// **stderr**. Messages go to stderr so stdout stays parseable under
/// `--json`; a failed trace write turns a successful run into exit 1 but
/// never masks `f`'s own error.
fn with_trace(args: &[String], f: impl FnOnce() -> CliResult) -> CliResult {
    let path = flag_value::<String>(args, "--trace")?;
    let profile = has_flag(args, "--profile");
    if path.is_none() && !profile {
        return f();
    }
    obs::trace::install().map_err(CliError::from)?;
    let wall = obs::time::Stopwatch::start();
    let out = f();
    let wall_ns = wall.elapsed_ns();
    let doc = obs::trace::finish().unwrap_or_default();
    if profile {
        match obs::summary::parse(&doc) {
            Ok(trace) => eprint!("{}", obs::summary::summarize(&trace).render_profile(wall_ns)),
            Err(e) => eprintln!("error: profile: {e}"),
        }
    }
    let Some(path) = path else { return out };
    match atomic_write(&path, &doc) {
        Ok(()) => {
            eprintln!("wrote trace to {path}");
            out
        }
        Err(e) => match out {
            Ok(_) => Err(CliError::from(format!("trace write failed: {e}"))),
            Err(inner) => {
                eprintln!("error: trace write failed: {e}");
                Err(inner)
            }
        },
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { return usage() };
    if let Some(flag) = unknown_flag(&args[1..]) {
        eprintln!("error: unknown flag `{flag}`");
        return ExitCode::from(2);
    }
    let result = match cmd.as_str() {
        "zoo" => cmd_zoo(),
        "show" => cmd_show(&args[1..]),
        "speedup" => with_trace(&args[1..], || cmd_speedup(&args[1..])),
        "iterate" => cmd_iterate(&args[1..]),
        "autolb" => with_trace(&args[1..], || cmd_auto(&args[1..], true)),
        "autoub" => with_trace(&args[1..], || cmd_auto(&args[1..], false)),
        "cert" => cmd_cert(&args[1..]),
        "sim-vs-bound" => with_trace(&args[1..], || cmd_sim_vs_bound(&args[1..])),
        "zero-round" => cmd_zero_round(&args[1..]),
        "iso" => cmd_iso(&args[1..]),
        "relax" => cmd_relax(&args[1..]),
        "serve" => with_trace(&args[1..], || cmd_serve(&args[1..])),
        "client" => cmd_client(&args[1..]),
        "trace" => cmd_trace(&args[1..]),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {}", e.msg);
            ExitCode::from(e.code)
        }
    }
}

fn cmd_zoo() -> CliResult {
    println!("{:<22} {:<8} description", "family", "uses k");
    for f in families() {
        println!("{:<22} {:<8} {}", f.name, f.uses_k, f.description);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_show(args: &[String]) -> CliResult {
    let name = args.first().ok_or("show: missing family name")?;
    let f = family(name).map_err(|e| usage_err(e.to_string()))?;
    let k = args.get(1).map_or(Ok(3), |s| s.parse().map_err(|_| usage_err("bad k")))?;
    let d = args.get(2).map_or(Ok(3), |s| s.parse().map_err(|_| usage_err("bad Δ")))?;
    let p = f.instantiate(k, d).map_err(|e| usage_err(e.to_string()))?;
    print!("{}", problem_table(&p));
    println!("\n# text format (machine readable):\n{}", p.to_text());
    Ok(ExitCode::SUCCESS)
}

fn cmd_speedup(args: &[String]) -> CliResult {
    let spec = args.first().ok_or("speedup: missing problem spec")?;
    let p = load(spec)?;
    let threads = resolve_threads(flag_value(args, "--threads")?.unwrap_or(0));
    let step = full_step(&p, threads).map_err(|e| e.to_string())?;
    if has_flag(args, "--json") {
        let doc = Json::obj([
            ("base", Json::Str(p.to_text())),
            ("half_step", Json::Str(step.half.problem.to_text())),
            ("full_step", Json::Str(step.full.problem.to_text())),
            ("labels", Json::Num(step.full.problem.alphabet().len() as u64)),
            ("node_configs", Json::Num(step.full.problem.node().len() as u64)),
            ("edge_configs", Json::Num(step.full.problem.edge().len() as u64)),
        ]);
        print!("{}", doc.to_string_pretty());
    } else {
        print!("{}", step_report(&p, &step));
    }
    Ok(ExitCode::SUCCESS)
}

fn stop_reason_json(stop: &StopReason) -> Json {
    match stop {
        StopReason::ZeroRound { index } => Json::obj([
            ("kind", Json::Str("zero-round".into())),
            ("index", Json::Num(*index as u64)),
        ]),
        StopReason::FixedPoint { index, earlier } => Json::obj([
            ("kind", Json::Str("fixed-point".into())),
            ("index", Json::Num(*index as u64)),
            ("earlier", Json::Num(*earlier as u64)),
        ]),
        StopReason::LimitReached => Json::obj([("kind", Json::Str("limit-reached".into()))]),
    }
}

fn bound_json(bound: Option<usize>) -> Json {
    bound.map_or(Json::Null, |b| Json::Num(b as u64))
}

fn cmd_iterate(args: &[String]) -> CliResult {
    let spec = args.first().ok_or("iterate: missing problem spec")?;
    let p = load(spec)?;
    let steps = flag_value::<usize>(args, "--steps")?.unwrap_or(8);
    let templates: Vec<Problem> =
        flag_values(args, "--relax")?.into_iter().map(|f| load(f)).collect::<Result<_, _>>()?;
    let json = has_flag(args, "--json");
    if templates.is_empty() {
        let seq = iterate(&p, steps).map_err(|e| e.to_string())?;
        if json {
            let doc = Json::obj([
                (
                    "problems",
                    Json::Arr(seq.problems.iter().map(|q| Json::Str(q.to_text())).collect()),
                ),
                ("stop", stop_reason_json(&seq.stop)),
                ("lower_bound", bound_json(seq.certified_lower_bound())),
            ]);
            print!("{}", doc.to_string_pretty());
        } else {
            print!("{}", sequence_report(&seq));
        }
        return Ok(ExitCode::SUCCESS);
    }
    // §2.1's relax-then-speedup alternation, with the supplied templates.
    let seq = iterate_relaxed(&p, &templates, steps, ZeroRoundModel::Oriented)
        .map_err(|e| e.to_string())?;
    if json {
        let entries = seq
            .entries
            .iter()
            .map(|e| {
                Json::obj([
                    ("problem", Json::Str(e.problem.to_text())),
                    ("template", e.template.map_or(Json::Null, |t| Json::Num(t as u64))),
                ])
            })
            .collect();
        let doc = Json::obj([
            ("entries", Json::Arr(entries)),
            ("stop", stop_reason_json(&seq.stop)),
            ("lower_bound", bound_json(seq.certified_lower_bound())),
        ]);
        print!("{}", doc.to_string_pretty());
    } else {
        for (i, e) in seq.entries.iter().enumerate() {
            let via = match e.template {
                Some(t) => format!("  (relaxed to template #{t})"),
                None => String::new(),
            };
            println!("Π_{i}: {}{via}", e.problem.summary());
        }
        match &seq.stop {
            StopReason::ZeroRound { index } => {
                println!("verdict: Π_{index} is 0-round solvable ⇒ lower bound {index}");
            }
            StopReason::FixedPoint { index, earlier } => {
                println!(
                    "verdict: Π_{index} ≅ Π_{earlier} ⇒ fixed point; no 0-round problem is \
                     ever reached"
                );
            }
            StopReason::LimitReached => {
                println!(
                    "verdict: inconclusive after {} steps (lower bound {} certified)",
                    seq.entries.len() - 1,
                    seq.entries.len() - 1
                );
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// Exit code for an autolb/autoub outcome: 3 when the search was cut short
/// by a budget or a signal, or the verdict is inconclusive; else 0. A
/// depth-exhausted stop keeps code 0 — the requested `--steps` budget was
/// honoured in full.
fn outcome_code(out: &Outcome) -> u8 {
    if matches!(out.verdict, Verdict::Inconclusive) || out.stop.is_forced() {
        3
    } else {
        0
    }
}

/// The observability section of `--json` output: the process-wide metrics
/// registry (cumulative — in `--sweep` mode each outcome reflects the
/// registry as of its completion). Histogram latency quantiles are only
/// populated when timing was armed (`--profile` or `--trace`); structural
/// histograms (beam occupancy, wave sizes) and counters record always.
fn obs_json() -> Json {
    Json::obj(proto::registry_fields(&obs::metrics::snapshot()))
}

fn outcome_json(name: &str, out: &Outcome) -> Json {
    Json::obj([
        ("problem", Json::Str(name.to_owned())),
        ("verdict", proto::verdict_json(&out.verdict)),
        ("stop", Json::Str(out.stop.as_str().to_owned())),
        ("incomplete", Json::Bool(out.incomplete())),
        ("certificate", out.certificate.as_ref().map_or(Json::Null, Certificate::json_value)),
        (
            "stats",
            Json::obj([
                ("expanded", Json::Num(out.stats.expanded as u64)),
                ("step_failures", Json::Num(out.stats.step_failures as u64)),
                ("depth_reached", Json::Num(out.stats.depth_reached as u64)),
                ("worker_panics", Json::Num(out.stats.worker_panics as u64)),
                ("classes", Json::Num(out.stats.cache.classes as u64)),
                ("dedup_hits", Json::Num(out.stats.cache.dedup_hits as u64)),
                ("step_hits", Json::Num(out.stats.cache.step_hits as u64)),
            ]),
        ),
        ("obs", obs_json()),
    ])
}

fn describe_outcome(name: &str, out: &Outcome) -> String {
    let verdict = match &out.verdict {
        Verdict::Unbounded => "UNBOUNDED (speedup fixed point: the lower bound exceeds every t \
                               admitting a t-independent girth-(2t+2) class)"
            .to_owned(),
        Verdict::LowerBound { rounds } => format!("lower bound {rounds} rounds"),
        Verdict::UpperBound { rounds } => format!("upper bound {rounds} rounds"),
        Verdict::Inconclusive => "inconclusive (budget exhausted)".to_owned(),
    };
    let mut s = format!("{name}: {verdict}\n");
    if let Some(cert) = &out.certificate {
        s.push_str(&format!("  certificate: {} (replayed green)\n", cert.summary()));
        for (i, e) in cert.edges.iter().enumerate() {
            let kind = match e {
                roundelim::auto::Edge::Step => "step (1 round of speedup)".to_owned(),
                roundelim::auto::Edge::Relax { .. } => "relax (searched label merge)".to_owned(),
                roundelim::auto::Edge::Harden { .. } => "harden (searched restriction)".to_owned(),
            };
            s.push_str(&format!("    Π_{i} → Π_{}: {kind}\n", i + 1));
        }
    }
    if out.stop.is_forced() {
        s.push_str(&format!(
            "  stopped early ({}): the bound is verified but a deeper search may improve it\n",
            out.stop.as_str()
        ));
    }
    if out.stats.worker_panics > 0 {
        s.push_str(&format!(
            "  {} worker panic(s) captured; the affected branches were dropped\n",
            out.stats.worker_panics
        ));
    }
    s.push_str(&format!(
        "  search: {} classes, {} expansions, {} dead ends, depth {}\n",
        out.stats.cache.classes,
        out.stats.expanded,
        out.stats.step_failures,
        out.stats.depth_reached
    ));
    s
}

fn search_options(args: &[String]) -> Result<SearchOptions, CliError> {
    let mut opts = SearchOptions::default();
    if let Some(v) = flag_value(args, "--steps")? {
        opts.max_steps = v;
    }
    if let Some(v) = flag_value(args, "--beam")? {
        if v == 0 {
            return Err(usage_err("--beam must be at least 1"));
        }
        opts.beam_width = v;
    }
    if let Some(v) = flag_value(args, "--max-labels")? {
        if v == 0 {
            return Err(usage_err("--max-labels must be at least 1"));
        }
        opts.max_labels = v;
    }
    if let Some(v) = flag_value(args, "--threads")? {
        opts.threads = v;
    }
    if has_flag(args, "--no-relax") {
        opts.use_relaxations = false;
    }
    if let Some(secs) = flag_value::<u64>(args, "--time-budget")? {
        opts.time_budget = Some(Duration::from_secs(secs));
    }
    if let Some(v) = flag_value(args, "--max-expansions")? {
        opts.max_expansions = Some(v);
    }
    if let Some(dir) = flag_value::<String>(args, "--checkpoint")? {
        let mut conf = CheckpointConf::new(dir);
        if let Some(n) = flag_value(args, "--checkpoint-every")? {
            if n == 0 {
                return Err(usage_err("--checkpoint-every must be at least 1"));
            }
            conf.every_expansions = n;
        }
        conf.resume = has_flag(args, "--resume");
        opts.checkpoint = Some(conf);
    } else {
        if has_flag(args, "--resume") {
            return Err(usage_err("--resume needs --checkpoint DIR (nowhere to resume from)"));
        }
        if has_flag(args, "--checkpoint-every") {
            return Err(usage_err("--checkpoint-every needs --checkpoint DIR"));
        }
    }
    Ok(opts)
}

fn cmd_auto(args: &[String], lower: bool) -> CliResult {
    let mut opts = search_options(args)?;
    sig::install();
    opts.cancel = Some(CancelToken::from_probe(sig::fired));
    let json = has_flag(args, "--json");
    let run = |p: &Problem| -> Result<Outcome, CliError> {
        let r = if lower { autolb(p, &opts) } else { autoub(p, &opts) };
        r.map_err(|e| CliError::from(e.to_string()))
    };
    if has_flag(args, "--sweep") {
        if !lower {
            return Err(usage_err("autoub: --sweep is only available for autolb"));
        }
        if has_flag(args, "--cert") {
            return Err(usage_err(
                "--cert writes one certificate and --sweep produces many; run the \
                 families individually to export certificates",
            ));
        }
        if opts.checkpoint.is_some() {
            return Err(usage_err(
                "--checkpoint stores one search and --sweep runs many; run the \
                 families individually to checkpoint them",
            ));
        }
        let mut docs = Vec::new();
        let mut code = 0u8;
        for s in sweep_specs() {
            let f = family(s.family).map_err(|e| usage_err(e.to_string()))?;
            let p = f.instantiate(s.k, s.delta).map_err(|e| usage_err(e.to_string()))?;
            let name = format!("{}:{}:{}", s.family, s.k, s.delta);
            let out = run(&p)?;
            code = code.max(outcome_code(&out));
            if json {
                docs.push(outcome_json(&name, &out));
            } else {
                print!("{}", describe_outcome(&name, &out));
            }
        }
        if json {
            print!("{}", Json::Arr(docs).to_string_pretty());
        }
        return Ok(ExitCode::from(code));
    }
    let spec =
        args.iter().find(|a| !a.starts_with("--") && !is_flag_value(args, a)).ok_or(if lower {
            "autolb: missing problem spec"
        } else {
            "autoub: missing problem spec"
        })?;
    let p = load(spec)?;
    let out = run(&p)?;
    if let Some(path) = flag_values(args, "--cert")?.first() {
        let cert = out.certificate.as_ref().ok_or_else(|| CliError {
            code: 3,
            msg: "no certificate to write (verdict is inconclusive)".to_owned(),
        })?;
        atomic_write(path, cert.to_json()).map_err(|e| e.to_string())?;
        if !json {
            println!("wrote certificate to {path}");
        }
    }
    if json {
        print!("{}", outcome_json(p.name(), &out).to_string_pretty());
    } else {
        print!("{}", describe_outcome(p.name(), &out));
    }
    Ok(ExitCode::from(outcome_code(&out)))
}

/// Every flag the CLI reads, and whether it takes a value.
const FLAGS: [(&str, bool); 25] = [
    ("--addr", true),
    ("--beam", true),
    ("--cert", true),
    ("--checkpoint", true),
    ("--checkpoint-every", true),
    ("--direction", true),
    ("--family", true),
    ("--fast", false),
    ("--json", false),
    ("--max-expansions", true),
    ("--max-labels", true),
    ("--n", true),
    ("--no-relax", false),
    ("--out", true),
    ("--profile", false),
    ("--relax", true),
    ("--resume", false),
    ("--seed", true),
    ("--steps", true),
    ("--store", true),
    ("--sweep", false),
    ("--threads", true),
    ("--time-budget", true),
    ("--trace", true),
    ("--workers", true),
];

/// Whether `arg` is the value of some `--flag VALUE` pair (so positional
/// scanning skips it).
fn is_flag_value(args: &[String], arg: &String) -> bool {
    args.iter()
        .zip(args.iter().skip(1))
        .any(|(f, v)| FLAGS.contains(&(f.as_str(), true)) && std::ptr::eq(v, arg))
}

/// The first argument that looks like a flag (`--…`) but is neither one the
/// CLI reads nor the value of a valued flag.
fn unknown_flag(args: &[String]) -> Option<&String> {
    args.iter().find(|a| {
        a.starts_with("--") && !FLAGS.iter().any(|(f, _)| f == a) && !is_flag_value(args, a)
    })
}

/// `roundelim trace`: read back a `--trace` recording — `summarize` for
/// per-span statistics, `fold` for flamegraph-ready folded stacks.
fn cmd_trace(args: &[String]) -> CliResult {
    use obs::summary;
    let sub =
        args.first().map(String::as_str).ok_or("trace: missing subcommand (summarize|fold)")?;
    let path =
        args[1..].iter().find(|a| !a.starts_with("--")).ok_or("trace: missing trace file")?;
    let text = std::fs::read_to_string(path).map_err(|e| usage_err(format!("{path}: {e}")))?;
    let trace = summary::parse(&text).map_err(|e| usage_err(format!("{path}: {e}")))?;
    match sub {
        "summarize" => {
            let s = summary::summarize(&trace);
            if has_flag(args, "--json") {
                let spans = s
                    .spans
                    .iter()
                    .map(|sp| {
                        Json::obj([
                            ("name", Json::Str(sp.name.clone())),
                            ("count", Json::Num(sp.count)),
                            ("total_ns", Json::Num(sp.total_ns)),
                            ("p50_ns", Json::Num(sp.p50_ns)),
                            ("p90_ns", Json::Num(sp.p90_ns)),
                            ("p99_ns", Json::Num(sp.p99_ns)),
                            ("max_ns", Json::Num(sp.max_ns)),
                        ])
                    })
                    .collect();
                let counters =
                    Json::Obj(s.counters.iter().map(|(n, v)| (n.clone(), Json::Num(*v))).collect());
                let doc = Json::obj([
                    ("spans", Json::Arr(spans)),
                    ("counters", counters),
                    ("total_events", Json::Num(s.total_events)),
                    ("unclosed", Json::Num(s.unclosed)),
                    ("dropped", Json::Num(s.dropped)),
                ]);
                print!("{}", doc.to_string_pretty());
            } else {
                print!("{}", s.render());
            }
        }
        "fold" => {
            for line in summary::fold(&trace) {
                println!("{line}");
            }
        }
        other => {
            return Err(usage_err(format!("trace: unknown subcommand `{other}` (summarize|fold)")))
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_cert(args: &[String]) -> CliResult {
    let sub = args.first().map(String::as_str);
    if sub != Some("verify") {
        return Err(usage_err("cert: the only subcommand is `cert verify <file>`"));
    }
    let path = args[1..]
        .iter()
        .find(|a| !a.starts_with("--"))
        .ok_or("cert verify: missing certificate file")?;
    let text = std::fs::read_to_string(path).map_err(|e| usage_err(format!("{path}: {e}")))?;
    let cert = Certificate::from_json(&text).map_err(|e| usage_err(format!("{path}: {e}")))?;
    let fast = has_flag(args, "--fast");
    let result = if fast { cert.verify_fast() } else { cert.verify() };
    let mode = if fast { "witness checks green (--fast)" } else { "replayed green" };
    if has_flag(args, "--json") {
        let doc = Json::obj([
            ("valid", Json::Bool(result.is_ok())),
            ("fast", Json::Bool(fast)),
            ("summary", Json::Str(cert.summary())),
            ("error", result.as_ref().err().map_or(Json::Null, |e| Json::Str(e.reason.clone()))),
        ]);
        print!("{}", doc.to_string_pretty());
    } else {
        match &result {
            Ok(()) => println!("VALID: {} — {mode}", cert.summary()),
            Err(e) => println!("INVALID: {e}"),
        }
    }
    result.map_err(|e| CliError { code: 4, msg: e.to_string() })?;
    Ok(ExitCode::SUCCESS)
}

fn cmd_sim_vs_bound(args: &[String]) -> CliResult {
    use roundelim::sim::crossval::{run_crossval, Bound, CrossvalOptions};
    let mut opts = CrossvalOptions::default();
    if let Some(n) = flag_value(args, "--n")? {
        opts.n = n;
    }
    if let Some(seed) = flag_value(args, "--seed")? {
        opts.seed = seed;
    }
    if let Some(t) = flag_value(args, "--threads")? {
        opts.threads = t;
    }
    if let Some(v) = flag_value(args, "--steps")? {
        opts.search.max_steps = v;
    }
    if let Some(v) = flag_value(args, "--beam")? {
        opts.search.beam_width = v;
    }
    if let Some(v) = flag_value(args, "--max-labels")? {
        opts.search.max_labels = v;
    }
    opts.family_filter = flag_value::<String>(args, "--family")?;
    let out_path =
        flag_value::<String>(args, "--out")?.unwrap_or_else(|| "SIM_crossval.json".to_owned());
    let report = run_crossval(&opts).map_err(CliError::from)?;
    let doc = report.json().to_string_pretty();
    atomic_write(&out_path, &doc).map_err(|e| e.to_string())?;
    let bound = |b: &Bound| match b {
        Bound::Rounds(r) => r.to_string(),
        Bound::Unbounded => "unbounded".to_owned(),
        Bound::Inconclusive => "inconclusive".to_owned(),
    };
    if has_flag(args, "--json") {
        print!("{doc}");
    } else {
        for c in &report.cases {
            let checker = if c.report.is_valid() {
                "output valid".to_owned()
            } else {
                format!("{} violations", c.report.total_violations())
            };
            println!(
                "{}:{}:{} [{} on {}, n={}]: {} rounds, {checker}, LB {}, UB {} — {}",
                c.spec.family,
                c.spec.k,
                c.spec.delta,
                c.spec.algorithm,
                c.spec.graph,
                c.n,
                c.rounds_used,
                bound(&c.lower),
                bound(&c.upper),
                if c.consistent { "consistent" } else { "INCONSISTENT" }
            );
            for note in &c.notes {
                println!("    note: {note}");
            }
        }
        println!("wrote {out_path}");
    }
    if report.all_consistent() {
        Ok(ExitCode::SUCCESS)
    } else {
        Err(CliError::from(
            "sim-vs-bound: at least one case is inconsistent (see report)".to_owned(),
        ))
    }
}

fn cmd_zero_round(args: &[String]) -> CliResult {
    let spec = args.first().ok_or("zero-round: missing problem spec")?;
    let p = load(spec)?;
    check_oriented_delta(p.delta()).map_err(|e| usage_err(format!("{spec}: {e}")))?;
    match zero_round_pn(p.packed()) {
        Some(w) => {
            println!("plain PN:  SOLVABLE — every node outputs {}", w.config.display(p.alphabet()))
        }
        None => println!("plain PN:  not 0-round solvable"),
    }
    match zero_round_oriented(p.packed()) {
        Some(w) => {
            println!("oriented:  SOLVABLE — per-indegree plans:");
            for (k, (ins, outs)) in w.plans.iter().enumerate() {
                let fmt = |v: &[roundelim::core::label::Label]| {
                    v.iter().map(|&l| p.alphabet().name(l)).collect::<Vec<_>>().join(" ")
                };
                println!("  indegree {k}: in-ports [{}], out-ports [{}]", fmt(ins), fmt(outs));
            }
        }
        None => println!("oriented:  not 0-round solvable"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_iso(args: &[String]) -> CliResult {
    let (a, b) = two_problems(args, "iso")?;
    match isomorphism(a.packed(), b.packed()) {
        Some(m) => {
            println!("isomorphic; label mapping:");
            for l in a.alphabet().labels() {
                println!("  {} ↦ {}", a.alphabet().name(l), b.alphabet().name(m[l.index()]));
            }
        }
        None => println!("not isomorphic"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_relax(args: &[String]) -> CliResult {
    let (a, b) = two_problems(args, "relax")?;
    match relaxation_map(&a, &b) {
        Some(m) => {
            println!("{} ⟶ {} (the second is at most as hard); witness:", a.name(), b.name());
            for l in a.alphabet().labels() {
                println!("  {} ↦ {}", a.alphabet().name(l), b.alphabet().name(m[l.index()]));
            }
        }
        None => println!("no label-map relaxation witness found"),
    }
    Ok(ExitCode::SUCCESS)
}

fn two_problems(args: &[String], cmd: &str) -> Result<(Problem, Problem), CliError> {
    let a = args.first().ok_or_else(|| usage_err(format!("{cmd}: missing first problem")))?;
    let b = args.get(1).ok_or_else(|| usage_err(format!("{cmd}: missing second problem")))?;
    Ok((load(a)?, load(b)?))
}

/// `roundelim serve`: run `roundelimd`, the persistent proof-cache service.
///
/// Prints `roundelimd listening on <addr>` once bound (with `--addr` port 0
/// this is how callers learn the real port), then serves until a client
/// sends `shutdown` (exit 0) or SIGTERM/SIGINT arrives (exit 3 — the same
/// graceful path: in-flight searches are cancelled cooperatively). Every
/// solved proof is appended to `--store DIR/proofs.bin` as it is found, so
/// shutdown writes nothing.
fn cmd_serve(args: &[String]) -> CliResult {
    use roundelim::daemon::server::{Exit, ServeConfig, Server};
    let store = flag_value::<String>(args, "--store")?
        .ok_or("serve: --store DIR is required (where proofs persist)")?;
    let addr = flag_value::<String>(args, "--addr")?.unwrap_or_else(|| "127.0.0.1:0".to_owned());
    let mut cfg = ServeConfig::new(addr, store);
    if let Some(w) = flag_value(args, "--workers")? {
        cfg.workers = w;
    }
    if let Some(t) = flag_value(args, "--threads")? {
        cfg.threads = t;
    }
    sig::install();
    cfg.signal = Some(sig::fired);
    let server = Server::bind(&cfg).map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    println!("roundelimd listening on {addr}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match server.run().map_err(|e| e.to_string())? {
        Exit::Requested => {
            println!("roundelimd: shutdown requested; store persisted");
            Ok(ExitCode::SUCCESS)
        }
        Exit::Signalled => {
            println!("roundelimd: stopped early (interrupted); store persisted");
            Ok(ExitCode::from(3))
        }
    }
}

/// `roundelim client`: talk to a running `roundelimd`.
fn cmd_client(args: &[String]) -> CliResult {
    use std::io::{BufRead as _, BufReader, Write as _};
    let sub = args
        .first()
        .map(String::as_str)
        .ok_or("client: missing subcommand (solve|status|stats|shutdown)")?;
    let addr = flag_value::<String>(args, "--addr")?
        .ok_or("client: --addr HOST:PORT is required (see `roundelimd listening on ...`)")?;
    let stream = std::net::TcpStream::connect(&addr)
        .map_err(|e| CliError::from(format!("connect {addr}: {e}")))?;
    let mut reader =
        BufReader::new(stream.try_clone().map_err(|e| CliError::from(format!("socket: {e}")))?);
    let mut w = stream;
    let mut send = |line: &str| -> Result<(), CliError> {
        w.write_all(line.as_bytes())
            .and_then(|()| w.write_all(b"\n"))
            .and_then(|()| w.flush())
            .map_err(|e| CliError::from(format!("send: {e}")))
    };
    let mut recv = || -> Result<Json, CliError> {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(|e| CliError::from(format!("receive: {e}")))?;
        if n == 0 {
            return Err(CliError::from("connection closed by daemon".to_owned()));
        }
        Json::parse(line.trim()).map_err(|e| CliError::from(format!("bad response: {e}")))
    };
    match sub {
        "status" | "stats" | "shutdown" => {
            send(&proto::plain_request_line(sub))?;
            let v = recv()?;
            print!("{}", v.to_string_pretty());
            if v.get("ok").and_then(Json::as_bool) == Some(true) {
                Ok(ExitCode::SUCCESS)
            } else {
                Err(CliError::from(
                    v.get("error").and_then(Json::as_str).unwrap_or("request failed").to_owned(),
                ))
            }
        }
        "solve" => {
            let spec = args[1..]
                .iter()
                .find(|a| !a.starts_with("--") && !is_flag_value(args, a))
                .ok_or("client solve: missing problem spec")?;
            let p = load(spec)?;
            let direction = match flag_value::<String>(args, "--direction")?.as_deref() {
                None | Some("lower") | Some("lower-bound") => roundelim::auto::Direction::Lower,
                Some("upper") | Some("upper-bound") => roundelim::auto::Direction::Upper,
                Some(other) => {
                    return Err(usage_err(format!(
                        "--direction must be `lower` or `upper`, got `{other}`"
                    )))
                }
            };
            let budget = proto::Budget {
                max_steps: flag_value(args, "--steps")?,
                beam_width: flag_value(args, "--beam")?,
                max_labels: flag_value(args, "--max-labels")?,
                max_expansions: flag_value(args, "--max-expansions")?,
                time_budget_ms: flag_value::<u64>(args, "--time-budget")?.map(|s| s * 1000),
            };
            send(&proto::solve_line(&p.to_text(), direction, &budget))?;
            let json = has_flag(args, "--json");
            loop {
                let v = recv()?;
                if v.get("ok").and_then(Json::as_bool) != Some(true) {
                    return Err(CliError::from(
                        v.get("error")
                            .and_then(Json::as_str)
                            .unwrap_or("request failed")
                            .to_owned(),
                    ));
                }
                match v.get("event").and_then(Json::as_str) {
                    Some("progress") => {
                        let n = |k: &str| v.get(k).and_then(Json::as_u64).unwrap_or(0);
                        eprintln!(
                            "depth {}: {} expanded, {} classes, frontier {}",
                            n("depth"),
                            n("expanded"),
                            n("classes"),
                            n("frontier")
                        );
                    }
                    Some("result") => return client_result(args, &v, json),
                    other => {
                        return Err(CliError::from(format!("unexpected response event {other:?}")))
                    }
                }
            }
        }
        other => Err(usage_err(format!(
            "client: unknown subcommand `{other}` (solve|status|stats|shutdown)"
        ))),
    }
}

/// Handles the terminal `result` of a `client solve`: re-verifies the
/// served certificate locally (the daemon is a cache, not a trust root),
/// optionally exports it, and maps the verdict to the standard exit codes.
fn client_result(args: &[String], v: &Json, json: bool) -> CliResult {
    let cached = v.get("cached").and_then(Json::as_bool) == Some(true);
    let cert = match v.get("certificate") {
        None | Some(Json::Null) => None,
        Some(c) => {
            let cert = Certificate::from_json(&c.to_string_compact())
                .map_err(|e| CliError::from(format!("served certificate is malformed: {e}")))?;
            cert.verify().map_err(|e| CliError { code: 4, msg: e.to_string() })?;
            Some(cert)
        }
    };
    if let Some(path) = flag_values(args, "--cert")?.first() {
        let cert = cert.as_ref().ok_or_else(|| CliError {
            code: 3,
            msg: "no certificate to write (verdict is inconclusive)".to_owned(),
        })?;
        atomic_write(path, cert.to_json()).map_err(|e| e.to_string())?;
        if !json {
            println!("wrote certificate to {path}");
        }
    }
    if json {
        print!("{}", v.to_string_pretty());
    } else {
        let kind = v
            .get("verdict")
            .and_then(|d| d.get("kind"))
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        let rounds = v.get("verdict").and_then(|d| d.get("rounds")).and_then(Json::as_u64);
        let mut line = format!("verdict: {kind}");
        if let Some(r) = rounds {
            line.push_str(&format!(" ({r} rounds)"));
        }
        if cached {
            line.push_str(" [cache hit: served from the proof store, no search]");
        }
        println!("{line}");
        if cert.is_some() {
            println!("certificate re-verified locally: replayed green");
        }
    }
    let stop = v.get("stop").and_then(Json::as_str).unwrap_or("");
    let kind = v
        .get("verdict")
        .and_then(|d| d.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or("inconclusive");
    let forced = matches!(stop, "time-budget" | "expansion-budget" | "interrupted");
    if kind == "inconclusive" || forced {
        Ok(ExitCode::from(3))
    } else {
        Ok(ExitCode::SUCCESS)
    }
}
