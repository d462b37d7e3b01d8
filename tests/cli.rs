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
#[test]
fn coloring_certificate_bytes_are_pinned() {
    const GOLDEN: u64 = 0xc8fe_075d_8e20_380f;
    for threads in ["1", "2"] {
        let cert = tmp_dir().join(format!("golden-c33-{threads}.json"));
        let budget = ["--steps", "6", "--beam", "6", "--max-labels", "10"];
        let mut args = vec!["autolb", "coloring:3:3"];
        args.extend(budget);
        args.extend(["--threads", threads, "--cert", cert.to_str().unwrap()]);
        run_ok(&args);
        let bytes = std::fs::read(&cert).unwrap();
        let digest = roundelim_core::binenc::fnv1a64(&bytes);
        assert_eq!(digest, GOLDEN, "threads={threads}: certificate digest {digest:#x}");
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
    let usage_cases: &[&[&str]] = &[
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

#[test]
fn profile_flag_prints_stage_breakdown_on_stderr() {
    // --profile must leave stdout intact (JSON stays parseable) and print
    // the per-stage breakdown to stderr, including every stage the CI
    // artifact greps for.
    let out = cli()
        .args(["speedup", "weak-coloring:2:5", "--json", "--profile"])
        .output()
        .expect("spawn roundelim");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.trim_start().starts_with('{'), "stdout still JSON:\n{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("per-stage breakdown"), "{stderr}");
    // The report always names every stage; the load-bearing assertion is
    // that the stages a speedup step actually runs recorded spans.
    let span_count = |stderr: &str, stage: &str| -> u64 {
        let line = stderr
            .lines()
            .find(|l| l.trim_start().starts_with(stage))
            .unwrap_or_else(|| panic!("missing `{stage}` in:\n{stderr}"));
        let inner = line.rsplit('(').next().expect("span suffix");
        inner.split_whitespace().next().expect("count").parse().expect("numeric span count")
    };
    for stage in ["merge", "close", "domination", "existential"] {
        assert!(span_count(&stderr, stage) > 0, "`{stage}` recorded no spans:\n{stderr}");
    }
    // autolb --profile records the search stages too.
    let out = cli()
        .args(["autolb", "sinkless-orientation::3", "--profile"])
        .output()
        .expect("spawn roundelim");
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    for stage in ["relax-closure", "zero-round", "step"] {
        assert!(span_count(&stderr, stage) > 0, "`{stage}` recorded no spans:\n{stderr}");
    }
    // Without the flag, no breakdown is printed.
    let out = cli().args(["speedup", "weak-coloring:2:5"]).output().expect("spawn roundelim");
    assert!(!String::from_utf8_lossy(&out.stderr).contains("per-stage breakdown"));
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
    let ckpt = ck.join("search.ckpt.json");
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
