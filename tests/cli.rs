//! End-to-end tests of the `roundelim` CLI binary.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_roundelim"))
}

fn run_ok(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("spawn roundelim");
    assert!(
        out.status.success(),
        "roundelim {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf8 output")
}

#[test]
fn zoo_lists_all_families() {
    let out = run_ok(&["zoo"]);
    for name in ["coloring", "sinkless-orientation", "superweak-coloring", "mis"] {
        assert!(out.contains(name), "missing {name} in:\n{out}");
    }
}

#[test]
fn show_renders_instance() {
    let out = run_ok(&["show", "sinkless-orientation", "0", "4"]);
    assert!(out.contains("Δ = 4"));
    assert!(out.contains("node"));
    assert!(out.contains("# text format"));
}

#[test]
fn speedup_on_family_spec() {
    let out = run_ok(&["speedup", "sinkless-coloring::3"]);
    assert!(out.contains("Π'₁"));
    assert!(out.contains("↦"));
}

#[test]
fn iterate_reports_fixed_point() {
    let out = run_ok(&["iterate", "sinkless-coloring::3", "--steps", "5"]);
    assert!(out.contains("verdict"), "{out}");
    assert!(out.contains("≅"), "{out}");
}

#[test]
fn zero_round_both_models() {
    let out = run_ok(&["zero-round", "maximal-matching::3"]);
    assert!(out.contains("plain PN:  not 0-round solvable"));
    assert!(out.contains("oriented:  not 0-round solvable"));
}

#[test]
fn speedup_from_file() {
    let dir = std::env::temp_dir().join("roundelim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("sc.problem");
    std::fs::write(&file, "name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1\n").unwrap();
    let out = run_ok(&["speedup", file.to_str().unwrap()]);
    assert!(out.contains("base problem"));
}

#[test]
fn iso_and_relax_commands() {
    let dir = std::env::temp_dir().join("roundelim-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let a = dir.join("a.problem");
    let b = dir.join("b.problem");
    std::fs::write(&a, "name: a\nnode: 1 0 0\nedge: 0 0 | 0 1\n").unwrap();
    std::fs::write(&b, "name: b\nnode: X Y Y\nedge: Y Y | Y X\n").unwrap();
    let out = run_ok(&["iso", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(out.contains("isomorphic"), "{out}");
    let out = run_ok(&["relax", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(out.contains("witness"), "{out}");
}

#[test]
fn bad_input_fails_cleanly() {
    let out = cli().args(["speedup", "no-such-family:9:9"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
    let out = cli().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
}

fn tmp_dir() -> std::path::PathBuf {
    // Unique per test process: concurrent suite runs (parallel CI jobs,
    // shared build boxes) must not tamper with each other's fixtures.
    let dir = std::env::temp_dir().join(format!("roundelim-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn autolb_rediscovers_the_sinkless_fixed_point_and_cert_verifies() {
    // §4.4 end to end with no hand-supplied relaxations: autolb finds the
    // fixed point, writes a certificate, and `cert verify` independently
    // replays it from disk.
    let cert = tmp_dir().join("so3.cert.json");
    let out = run_ok(&["autolb", "sinkless-orientation::3", "--cert", cert.to_str().unwrap()]);
    assert!(out.contains("UNBOUNDED"), "{out}");
    assert!(out.contains("replayed green"), "{out}");
    let out = run_ok(&["cert", "verify", cert.to_str().unwrap()]);
    assert!(out.contains("VALID"), "{out}");
    assert!(out.contains("unbounded lower bound"), "{out}");
}

#[test]
fn autolb_uses_searched_relaxations_on_maximal_matching() {
    let args =
        ["autolb", "maximal-matching::3", "--steps", "6", "--beam", "6", "--max-labels", "10"];
    let out = run_ok(&args);
    assert!(out.contains("lower bound 3 rounds"), "{out}");
    assert!(out.contains("relax (searched label merge)"), "{out}");
}

#[test]
fn autolb_json_embeds_the_certificate() {
    let out = run_ok(&["autolb", "sinkless-orientation::3", "--json"]);
    assert!(out.contains("\"kind\": \"unbounded\""), "{out}");
    assert!(out.contains("\"schema\": \"roundelim-cert-v1\""), "{out}");
    assert!(out.contains("\"classes\""), "{out}");
}

/// The `coloring:3:3` certificate at the acceptance budget, pinned by its
/// FNV-1a digest at 1 and 2 worker threads. Isomorphism maps, 0-round
/// verdicts and the classes a search visits all reach these bytes, so any
/// kernel change that picks a different `iso_map` or witness, or moves a
/// fingerprint, fails here even when it stays thread-invariant.
///
/// The same runs pin the search's work and bound the class store: 1771
/// isomorphism checks (`cache.iso_checks`) resolve 1723 wave hits against
/// 5095 wave misses at every thread count, 3862 label refinements
/// (`cache.refinements`) serve them, because only problems whose pre-key
/// bucket collides are refined, 3 beam nodes end as dead ends read off an
/// isomorphic half-step (`search.step_dedups`) instead of finishing their
/// own step, and `cache.packed_bytes` (packed rows, label ranks, name ids
/// and the name table) stays under 1 KiB per interned class. Their
/// `--profile` reports pin the `stage.*` span counts and the event total.
///
/// The runs checkpoint, and saving a snapshot refines nothing: the work
/// equals [`ZOO_WORK`]'s uncheckpointed `coloring:3:3` row, and the 4
/// writes add only their 4 `search.checkpoint_write` spans (8 events).
#[test]
fn coloring_certificate_bytes_are_pinned() {
    const GOLDEN: u64 = 0xc8fe_075d_8e20_380f;
    const SPANS: [(&str, u64); 8] = [
        ("search.checkpoint_write", 4),
        ("stage.canon", 1771),
        ("stage.close", 1932),
        ("stage.domination", 18676),
        ("stage.existential", 29),
        ("stage.merge", 44),
        ("stage.step", 23),
        ("stage.zero-round", 5102),
    ];
    for threads in ["1", "2"] {
        let cert = tmp_dir().join(format!("golden-c33-{threads}.json"));
        let ck = tmp_dir().join(format!("golden-c33-ck-{threads}"));
        let budget = ["--steps", "6", "--beam", "6", "--max-labels", "10"];
        let mut args = vec!["autolb", "coloring:3:3"];
        args.extend(budget);
        args.extend(["--threads", threads, "--cert", cert.to_str().unwrap(), "--json"]);
        args.extend(["--profile", "--checkpoint", ck.to_str().unwrap()]);
        let out = cli().args(&args).output().expect("spawn roundelim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "roundelim {args:?} failed: {stderr}");
        let report = roundelim::auto::json::Json::parse(&String::from_utf8_lossy(&out.stdout))
            .expect("JSON report");
        let digest = roundelim_core::binenc::fnv1a64(&std::fs::read(&cert).unwrap());
        assert_eq!(digest, GOLDEN, "threads={threads}: certificate digest {digest:#x}");

        let counter = |name: &str| report_u64(&report, &["obs", "counters", name]);
        let (classes, packed) =
            (report_u64(&report, &["stats", "classes"]), counter("cache.packed_bytes"));
        assert_eq!(classes, 5102, "threads={threads}");
        assert_eq!(counter("cache.iso_checks"), 1771, "threads={threads}");
        assert_eq!(counter("cache.intern_hits"), 1723, "threads={threads}");
        assert_eq!(counter("cache.intern_misses"), 5095, "threads={threads}");
        assert_eq!(counter("cache.refinements"), 3862, "threads={threads}");
        assert_eq!(counter("search.step_dedups"), 3, "threads={threads}");
        assert!(packed <= 1024 * classes, "threads={threads}: {packed} B for {classes} classes");

        assert!(stderr.contains("span profile: 57076 events, 0 dropped"), "{stderr}");
        let rows = profile_rows(&stderr);
        for (span, count) in SPANS {
            let got = rows.iter().find(|r| r.0 == span).and_then(|r| r.1);
            assert_eq!(got, Some(count), "threads={threads}: `{span}` in:\n{stderr}");
        }
    }
}

/// The number at `path` in a `--json` report.
fn report_u64(report: &roundelim::auto::json::Json, path: &[&str]) -> u64 {
    path.iter()
        .try_fold(report, |j, key| j.get(key))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("no number at {path:?}"))
}

/// `(spec, classes, expanded, intern misses, intern hits, iso checks,
/// refinements, step dedups)` of `autolb` on each threads-sweep spec at the
/// CI sweep budget.
type ZooWork = (&'static str, u64, u64, u64, u64, u64, u64, u64);
const ZOO_WORK: [ZooWork; 6] = [
    ("sinkless-orientation::3", 3, 2, 1, 1, 2, 4, 0),
    ("sinkless-orientation::4", 3, 2, 1, 1, 2, 4, 0),
    ("coloring:3:2", 21, 1, 19, 60, 60, 78, 0),
    ("coloring:3:3", 5102, 13, 5095, 1723, 1771, 3862, 3),
    ("maximal-matching::3", 613, 8, 606, 82, 90, 247, 0),
    ("mis::3", 1049, 4, 1044, 31, 93, 256, 0),
];

/// Executor tasks of `autolb` on each threads-sweep spec (in [`ZOO_WORK`]
/// order) at one thread, at the CI sweep budget.
const ZOO_TASKS_AT_ONE_THREAD: [u64; 6] = [135, 135, 151, 6282, 1232, 1521];

/// The zoo's search work is gated exactly, not by time: the classes, the
/// expansions, the wave intern misses and hits, the isomorphism checks, the
/// label refinements and the step dedups of every threads-sweep spec are
/// the same at 1 and 2 worker threads and equal the table. Doubling the
/// isomorphism checks, interning a class twice, refining a problem whose
/// pre-key is alone in its bucket or finishing a dead-end class twice
/// fails here.
/// At one thread the executor tasks are pinned too, and no worker thread
/// starts: `--threads 1` reaches every parallel call, the speedup step's
/// included.
#[test]
fn zoo_search_work_is_pinned_exactly() {
    for threads in ["1", "2"] {
        let actual: Vec<_> = ZOO_WORK
            .iter()
            .zip(ZOO_TASKS_AT_ONE_THREAD)
            .map(|(&(spec, ..), tasks)| {
                let args = ["autolb", spec, "--steps", "4", "--beam", "6", "--max-labels", "10"];
                let report = run_ok(&[&args[..], &["--threads", threads, "--json"]].concat());
                let report = roundelim::auto::json::Json::parse(&report).expect("JSON report");
                let stat = |name| report_u64(&report, &["stats", name]);
                let counter = |name| report_u64(&report, &["obs", "counters", name]);
                if threads == "1" {
                    assert_eq!(counter("exec.spawns"), 0, "{spec}: workers started at one thread");
                    assert_eq!(counter("exec.tasks"), tasks, "{spec}");
                }
                (
                    spec,
                    stat("classes"),
                    stat("expanded"),
                    counter("cache.intern_misses"),
                    counter("cache.intern_hits"),
                    counter("cache.iso_checks"),
                    counter("cache.refinements"),
                    counter("search.step_dedups"),
                )
            })
            .collect();
        assert_eq!(actual, ZOO_WORK, "threads={threads}");
    }
}

/// Δ above the oriented 0-round decider's limit is rejected up front with
/// a diagnostic, by `zero-round` and by the bound search alike.
#[test]
fn oversized_delta_is_an_error_not_a_panic() {
    let file = tmp_dir().join("delta65.problem");
    std::fs::write(&file, "name: big\nlabels: A B\nnode: A^65\nedge: A A\n").unwrap();
    for cmd in ["zero-round", "autolb"] {
        let out = cli().args([cmd, file.to_str().unwrap()]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        let code = out.status.code().expect("exits with a code, not a signal");
        assert!(code != 0 && code != 101, "{cmd}: exit {code}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cmd}: {stderr}");
        assert!(stderr.contains("supports Δ ≤ 64, got Δ = 65"), "{cmd}: {stderr}");
    }
}

#[test]
fn autolb_sweep_covers_the_registry_batch() {
    let out = run_ok(&["autolb", "--sweep", "--steps", "3", "--beam", "4", "--max-labels", "8"]);
    for family in ["sinkless-orientation:0:3", "coloring:3:2", "maximal-matching:0:3"] {
        assert!(out.contains(family), "missing {family} in:\n{out}");
    }
    assert!(out.contains("UNBOUNDED"), "{out}");
}

#[test]
fn autoub_certifies_a_one_round_problem() {
    let file = tmp_dir().join("ub1.problem");
    std::fs::write(&file, "name: ub1\nnode: A B | A C\nedge: A A | A C | B B\n").unwrap();
    let out = run_ok(&["autoub", file.to_str().unwrap()]);
    assert!(out.contains("upper bound 1 rounds"), "{out}");
    assert!(out.contains("replayed green"), "{out}");
}

#[test]
fn corrupted_certificate_is_rejected_with_failure_exit() {
    let cert = tmp_dir().join("corrupt.cert.json");
    run_ok(&["autolb", "sinkless-orientation::3", "--cert", cert.to_str().unwrap()]);
    // Inflate the claim: swap the recorded cycle start out of range.
    let text = std::fs::read_to_string(&cert).unwrap();
    let tampered = text.replace("\"cycle_start\": 1", "\"cycle_start\": 999");
    assert_ne!(text, tampered, "fixture must actually change the certificate");
    std::fs::write(&cert, tampered).unwrap();
    let out = cli().args(["cert", "verify", cert.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "tampered certificate must fail verification");
    assert!(String::from_utf8_lossy(&out.stdout).contains("INVALID"));
    // --json reports the same verdict machine-readably.
    let out = cli().args(["cert", "verify", cert.to_str().unwrap(), "--json"]).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("\"valid\": false"));
}

#[test]
fn fast_verify_accepts_valid_and_rejects_corrupted_certificates() {
    // --fast must agree with the full replay on both sides of the fence:
    // a zoo certificate the full verifier accepts, and a witness-level
    // corruption (broken iso map) that --fast still checks.
    let cert = tmp_dir().join("fast.cert.json");
    run_ok(&["autolb", "sinkless-orientation::3", "--cert", cert.to_str().unwrap()]);
    run_ok(&["cert", "verify", cert.to_str().unwrap()]);
    let out = run_ok(&["cert", "verify", cert.to_str().unwrap(), "--fast"]);
    assert!(out.contains("VALID"), "{out}");
    assert!(out.contains("--fast"), "{out}");
    // Corrupt the cycle start: verdict arithmetic, which --fast keeps.
    let text = std::fs::read_to_string(&cert).unwrap();
    let tampered = text.replace("\"cycle_start\": 1", "\"cycle_start\": 999");
    assert_ne!(text, tampered, "fixture must actually change the certificate");
    std::fs::write(&cert, tampered).unwrap();
    let out = cli().args(["cert", "verify", "--fast", cert.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "tampered certificate must fail --fast verification");
    assert!(String::from_utf8_lossy(&out.stdout).contains("INVALID"));
    let out = cli()
        .args(["cert", "verify", cert.to_str().unwrap(), "--fast", "--json"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"valid\": false"), "{stdout}");
    assert!(stdout.contains("\"fast\": true"), "{stdout}");
}

#[test]
fn exit_codes_follow_the_documented_contract() {
    // 0: a proved verdict (including one that merely exhausted --steps).
    let out = cli().args(["autolb", "sinkless-orientation::3"]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));

    // 2: usage errors and invalid input, diagnosed before any search runs.
    // A misspelt flag is one too, named in the error, rather than ignored.
    let sim_out = tmp_dir().join("misspelt.sim.json");
    let usage_cases: &[&[&str]] = &[
        &["sim-vs-bound", "--n", "1000", "--famly", "coloring", "--out", sim_out.to_str().unwrap()],
        &["autolb", "coloring:3:3", "--beam-widht", "2"],
        &["speedup", "no-such-family:9:9"],
        &["autolb", "coloring:3:3", "--beam", "0"],
        &["autolb", "coloring:3:3", "--max-labels", "0"],
        &["autolb", "coloring:3:3", "--steps", "banana"],
        &["autolb", "coloring:3:3", "--resume"],
        &["autolb", "coloring:3:3", "--checkpoint-every", "2"],
        &["autolb", "coloring:3:3", "--checkpoint", "/tmp/x", "--checkpoint-every", "0"],
        &["cert", "verify", "/definitely/not/a/file.json"],
        &["autolb"],
    ];
    for args in usage_cases {
        let out = cli().args(*args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "expected usage exit for {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("error"), "{args:?}");
    }
    assert!(!sim_out.exists(), "a run with an unknown flag writes no artifact");
    let out = cli().args(usage_cases[1]).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag `--beam-widht`"));

    // 3: a budget-exhausted search emits a verified partial certificate
    // marked incomplete, and says so machine-readably.
    let cert = tmp_dir().join("partial.cert.json");
    let out = cli()
        .args([
            "autolb",
            "coloring:3:3",
            "--steps",
            "4",
            "--beam",
            "4",
            "--max-labels",
            "8",
            "--max-expansions",
            "0",
            "--cert",
            cert.to_str().unwrap(),
            "--json",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"stop\": \"expansion-budget\""), "{stdout}");
    assert!(stdout.contains("\"incomplete\": true"), "{stdout}");
    let text = std::fs::read_to_string(&cert).unwrap();
    assert!(text.contains("\"incomplete\": true"), "{text}");
    let out = cli().args(["cert", "verify", cert.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "a partial certificate must verify");

    // 4: a partial certificate over-claiming its bound is rejected with
    // the verification-failure code — incomplete does not relax the rule.
    let tampered = text.replace("\"rounds\": 0", "\"rounds\": 9");
    assert_ne!(text, tampered, "fixture must actually change the certificate");
    std::fs::write(&cert, tampered).unwrap();
    let out = cli().args(["cert", "verify", cert.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(4), "over-claimed bound must fail verification");
    assert!(String::from_utf8_lossy(&out.stdout).contains("INVALID"));
}

#[test]
fn sim_vs_bound_writes_consistent_report() {
    let out_file = tmp_dir().join("SIM_crossval.json");
    let stdout = run_ok(&[
        "sim-vs-bound",
        "--n",
        "500",
        "--seed",
        "7",
        "--threads",
        "2",
        "--steps",
        "2",
        "--beam",
        "3",
        "--max-labels",
        "8",
        "--family",
        "mis",
        "--out",
        out_file.to_str().unwrap(),
    ]);
    assert!(stdout.contains("mis:0:3"), "{stdout}");
    assert!(stdout.contains("consistent"), "{stdout}");
    assert!(!stdout.contains("INCONSISTENT"), "{stdout}");
    assert!(!stdout.contains("coloring"), "--family must filter: {stdout}");
    let report = std::fs::read_to_string(&out_file).unwrap();
    assert!(report.contains("\"schema\": \"roundelim-sim-crossval-v1\""), "{report}");
    assert!(report.contains("\"consistent\": true"), "{report}");
}

#[test]
fn iterate_accepts_relaxation_templates() {
    let file = tmp_dir().join("sc-template-relax.problem");
    std::fs::write(&file, "name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1\n").unwrap();
    let out = run_ok(&[
        "iterate",
        "sinkless-coloring::3",
        "--relax",
        file.to_str().unwrap(),
        "--steps",
        "5",
    ]);
    assert!(out.contains("relaxed to template #0"), "{out}");
    assert!(out.contains("fixed point"), "{out}");
}

/// The `--profile` report's rows as `(name, count, self µs)`, with
/// `count` absent on the `unattributed` and `wall` rows.
fn profile_rows(stderr: &str) -> Vec<(String, Option<u64>, i64)> {
    let start = stderr
        .lines()
        .position(|l| l.starts_with("span profile:"))
        .unwrap_or_else(|| panic!("no profile report in:\n{stderr}"));
    let us = |ms: &str| -> i64 { ms.replace('.', "").parse().expect("ms with 3 decimals") };
    stderr
        .lines()
        .skip(start + 2)
        .take_while(|l| l.starts_with("  "))
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            match cols.as_slice() {
                [name, ms] => ((*name).to_owned(), None, us(ms)),
                [name, count, ms, ..] => {
                    ((*name).to_owned(), Some(count.parse().expect("count")), us(ms))
                }
                _ => panic!("bad profile row `{l}`"),
            }
        })
        .collect()
}

#[test]
fn profile_flag_prints_stage_breakdown_on_stderr() {
    // --profile must leave stdout intact (JSON stays parseable) and print
    // the per-span breakdown to stderr, including every stage the CI
    // artifact greps for.
    let out = cli()
        .args(["speedup", "weak-coloring:2:5", "--threads", "1", "--json", "--profile"])
        .output()
        .expect("spawn roundelim");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "stdout still JSON:\n{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("span profile"), "{stderr}");
    // The load-bearing assertion is that the stages a speedup step
    // actually runs recorded spans.
    let span_count = |stderr: &str, stage: &str| -> u64 {
        profile_rows(stderr)
            .into_iter()
            .find(|(name, _, _)| name == stage)
            .and_then(|(_, count, _)| count)
            .unwrap_or_else(|| panic!("missing `{stage}` in:\n{stderr}"))
    };
    for stage in ["stage.merge", "stage.close", "stage.domination", "stage.existential"] {
        assert!(span_count(&stderr, stage) > 0, "`{stage}` recorded no spans:\n{stderr}");
    }
    // autolb --profile records the search stages too.
    let out = cli()
        .args(["autolb", "sinkless-orientation::3", "--profile"])
        .output()
        .expect("spawn roundelim");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for stage in ["stage.relax-closure", "stage.zero-round", "stage.step"] {
        assert!(span_count(&stderr, stage) > 0, "`{stage}` recorded no spans:\n{stderr}");
    }
    // Without the flag, no breakdown is printed.
    let out = cli().args(["speedup", "weak-coloring:2:5"]).output().expect("spawn roundelim");
    assert!(!String::from_utf8_lossy(&out.stderr).contains("span profile"));
}

/// `--profile` and `--trace` read one sink: the report's counts are the
/// trace's, and at one thread its rows plus `unattributed` are `wall`.
#[test]
fn profile_report_agrees_with_the_trace_and_sums_to_wall() {
    let trace = tmp_dir().join("profile-mm3.jsonl");
    let _ = std::fs::remove_file(&trace);
    let out = cli()
        .args(["autolb", "maximal-matching::3", "--threads", "1", "--profile", "--trace"])
        .arg(&trace)
        .output()
        .expect("spawn roundelim");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let rows = profile_rows(&stderr);
    let summary = run_ok(&["trace", "summarize", trace.to_str().unwrap()]);
    let summarized: Vec<(String, u64)> = summary
        .lines()
        .skip(2)
        .take_while(|l| l.starts_with("  "))
        .map(|l| {
            let cols: Vec<&str> = l.split_whitespace().collect();
            (cols[0].to_owned(), cols[1].parse().expect("count"))
        })
        .collect();
    let reported: Vec<(String, u64)> =
        rows.iter().filter_map(|(name, count, _)| Some((name.clone(), (*count)?))).collect();
    assert!(!reported.is_empty(), "{stderr}");
    assert_eq!(reported, summarized, "report:\n{stderr}\nsummary:\n{summary}");
    assert!(rows.iter().all(|(_, _, us)| *us >= 0), "negative row:\n{stderr}");
    let (last, body) = rows.split_last().expect("rows");
    assert_eq!(last.0, "wall", "{stderr}");
    assert_eq!(body.last().map(|r| r.0.as_str()), Some("unattributed"), "{stderr}");
    assert_eq!(body.iter().map(|r| r.2).sum::<i64>(), last.2, "{stderr}");
}

#[test]
fn speedup_and_iterate_emit_json() {
    let out = run_ok(&["speedup", "sinkless-coloring::3", "--json"]);
    for key in ["\"base\"", "\"half_step\"", "\"full_step\"", "\"labels\""] {
        assert!(out.contains(key), "missing {key} in:\n{out}");
    }
    let out = run_ok(&["iterate", "sinkless-coloring::3", "--json"]);
    assert!(out.contains("\"kind\": \"fixed-point\""), "{out}");
    assert!(out.contains("\"lower_bound\": null"), "{out}");
    let file = tmp_dir().join("sc-template-json.problem");
    std::fs::write(&file, "name: sc\nnode: 1 0 0\nedge: 0 0 | 0 1\n").unwrap();
    let out =
        run_ok(&["iterate", "sinkless-coloring::3", "--relax", file.to_str().unwrap(), "--json"]);
    assert!(out.contains("\"template\": 0"), "{out}");
}

/// Ctrl-C (SIGINT) takes the same graceful path as SIGTERM: the search
/// stops at its next cancellation poll, reports the partial verdict with
/// exit code 3, and leaves its last boundary snapshot on disk for a later
/// resume. (The SIGTERM twin lives in `tests/crash_recovery.rs`.)
#[cfg(unix)]
#[test]
fn sigint_stops_gracefully_with_exit_3_and_a_live_snapshot() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let dir = tmp_dir().join("sigint");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let ck = dir.join("ck");
    let ckpt = ck.join("search.ckpt");
    // Heavy enough that the INT always lands mid-search.
    let mut child = cli()
        .args(["autolb", "coloring:3:3", "--steps", "6", "--beam", "6", "--max-labels", "10"])
        .args(["--threads", "2", "--checkpoint", ck.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // Wait for the first boundary snapshot before delivering the signal.
    let deadline = Instant::now() + Duration::from_secs(60);
    while !ckpt.exists() {
        assert!(Instant::now() < deadline, "the search never wrote its first snapshot");
        std::thread::sleep(Duration::from_millis(2));
    }
    let int = Command::new("kill").args(["-INT", &child.id().to_string()]).status().unwrap();
    assert!(int.success(), "kill -INT failed");
    // Wait with a deadline so a regression can never hang the suite.
    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        if let Some(status) = child.try_wait().unwrap() {
            break status;
        }
        if Instant::now() >= deadline {
            child.kill().unwrap();
            let status = child.wait().unwrap();
            panic!("child did not exit within 120s after SIGINT (killed, status {status})");
        }
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(status.code(), Some(3), "SIGINT must map to the incomplete exit code");
    assert!(ckpt.exists(), "the boundary snapshot must survive the SIGINT");
    let mut stdout = String::new();
    std::io::Read::read_to_string(child.stdout.as_mut().unwrap(), &mut stdout).unwrap();
    assert!(stdout.contains("stopped early (interrupted)"), "{stdout}");
}

/// A snapshot in the retired v1 format (a checksum header line plus JSON),
/// under the older file name, is not a checkpoint frame: `--resume` must
/// fail with a structured error and
/// exit 1, neither panicking nor starting a fresh search over it, and the
/// file must stay byte-for-byte in place.
#[test]
fn v1_snapshot_is_rejected_on_resume_and_left_in_place() {
    let ck = tmp_dir().join("v1-resume");
    let _ = std::fs::remove_dir_all(&ck);
    std::fs::create_dir_all(&ck).unwrap();
    let ckpt = ck.join("search.ckpt.json");
    let v1 = "fnv1a64:0123456789abcdef\n{\"schema\": \"roundelim-checkpoint-v1\"}\n";
    std::fs::write(&ckpt, v1).unwrap();
    let out = cli()
        .args(["autolb", "maximal-matching::3", "--steps", "4", "--beam", "4", "--max-labels", "8"])
        .args(["--checkpoint", ck.to_str().unwrap(), "--resume"])
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "a v1 snapshot is a runtime error: {stderr}");
    assert!(stderr.starts_with("error: ") && stderr.contains("frame magic"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(out.stdout.is_empty(), "no search may run: {}", String::from_utf8_lossy(&out.stdout));
    assert_eq!(std::fs::read_to_string(&ckpt).unwrap(), v1, "the snapshot must be left untouched");
}
