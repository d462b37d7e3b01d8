//! Golden digests of the zoo's search outputs and compatibility fixtures
//! written by an earlier build.
//!
//! Every `autolb` certificate and every `autoub --json` report (its `obs`
//! section stripped) of the threads-sweep specs is pinned by its FNV-1a
//! digest at 1 and 2 worker threads. A change that moves a fingerprint,
//! an isomorphism map, a 0-round witness or the classes a search visits
//! fails here. A change that alters a format or a verdict on purpose
//! updates this table in the same diff and says why.
//!
//! Three more artifacts are pinned the same way: `SIM_crossval.json` of a
//! `sim-vs-bound` sweep, the daemon's `proofs.bin` after a fixed request
//! sequence, and the checkpoint of a budget-stopped search.
//!
//! The fixtures under `tests/fixtures/` were written by the build before
//! the packed class store: a v2 checkpoint of a budget-stopped search,
//! under the older file name `search.ckpt.json`, and a daemon store with
//! a `cache.snap.bin` class sidecar. Current builds ignore the sidecar and
//! rebuild the class index from `proofs.bin`. Both must keep loading.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use roundelim::auto::json::Json;
use roundelim_core::binenc::fnv1a64;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_roundelim"))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("roundelim-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name)
}

/// Copies a fixture directory so a run cannot rewrite the committed bytes.
fn copy_fixture(name: &str, tag: &str) -> PathBuf {
    let dir = tmp_dir(tag);
    for entry in std::fs::read_dir(fixture(name)).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    dir
}

const BUDGET: [&str; 6] = ["--steps", "4", "--beam", "6", "--max-labels", "10"];

/// `(spec, autolb certificate digest, autoub report digest, autoub exit)`.
const GOLDEN: [(&str, u64, u64, i32); 6] = [
    ("sinkless-orientation::3", 0x0f86_1e44_c55c_293a, 0xb8ea_3295_9871_fc6e, 3),
    ("sinkless-orientation::4", 0xff0b_7853_db99_c8a7, 0xa556_e24a_619a_5334, 3),
    ("coloring:3:2", 0x00d2_5903_865d_e7d5, 0xf61c_6c92_46e0_773b, 3),
    ("coloring:3:3", 0xc8fe_075d_8e20_380f, 0xc424_2a45_454e_538f, 3),
    ("maximal-matching::3", 0xa622_d923_26a5_4c6b, 0x18ea_499a_c27d_236c, 3),
    ("mis::3", 0x780d_ee7d_65bb_7b5c, 0x6d58_a1b0_69a1_90fc, 3),
];

/// The autoub report without its `obs` section (timings and counters that
/// depend on the schedule), re-rendered in the report's own layout.
fn report_digest(stdout: &[u8]) -> u64 {
    let text = std::str::from_utf8(stdout).expect("utf8 report");
    let mut report = Json::parse(text).expect("autoub --json is JSON");
    match &mut report {
        Json::Obj(fields) => assert!(fields.remove("obs").is_some(), "report has no obs section"),
        other => panic!("report is not an object: {other:?}"),
    }
    fnv1a64(report.to_string_pretty().as_bytes())
}

fn zoo_matches_the_golden_table(threads: &str) {
    let dir = tmp_dir(&format!("zoo-{threads}"));
    let mut actual = Vec::new();
    for (spec, _, _, _) in GOLDEN {
        let cert = dir.join(format!("{}.json", spec.replace(':', "_")));
        let mut args = vec!["autolb", spec];
        args.extend(BUDGET);
        args.extend(["--threads", threads, "--cert", cert.to_str().unwrap()]);
        let lb = cli().args(&args).output().unwrap();
        assert!(lb.status.success(), "autolb {spec}: {}", String::from_utf8_lossy(&lb.stderr));
        let lb_digest = fnv1a64(&std::fs::read(&cert).unwrap());

        let mut args = vec!["autoub", spec];
        args.extend(BUDGET);
        args.extend(["--threads", threads, "--json"]);
        let ub = cli().args(&args).output().unwrap();
        let code = ub.status.code().expect("autoub exited normally");
        actual.push((spec, lb_digest, report_digest(&ub.stdout), code));
    }
    let table: String =
        actual.iter().map(|(s, l, u, c)| format!("    ({s:?}, {l:#x}, {u:#x}, {c}),\n")).collect();
    assert_eq!(actual, GOLDEN, "threads={threads}; actual table:\n{table}");
}

#[test]
fn zoo_outputs_match_the_golden_table_at_one_thread() {
    zoo_matches_the_golden_table("1");
}

#[test]
fn zoo_outputs_match_the_golden_table_at_two_threads() {
    zoo_matches_the_golden_table("2");
}

/// `sim-vs-bound --n 100000 --seed 1` writes the same cross-validation
/// report.
#[test]
fn sim_crossval_report_matches_its_golden_digest() {
    const GOLDEN_SIM: u64 = 0x584c_62d0_5fc0_7d0c;
    let report = tmp_dir("sim").join("SIM_crossval.json");
    let out = cli()
        .args(["sim-vs-bound", "--n", "100000", "--seed", "1"])
        .args(["--out", report.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let digest = fnv1a64(&std::fs::read(&report).unwrap());
    assert_eq!(digest, GOLDEN_SIM, "SIM_crossval.json digest {digest:#x}");
}

/// Starts `roundelim serve` on a fresh port; returns the daemon, its
/// stdout after the banner, and its address.
fn serve(store: &Path) -> (std::process::Child, BufReader<std::process::ChildStdout>, String) {
    let mut child = cli()
        .args(["serve", "--addr", "127.0.0.1:0", "--store", store.to_str().unwrap()])
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut banner = String::new();
    stdout.read_line(&mut banner).unwrap();
    let addr = banner.trim().strip_prefix("roundelimd listening on ").unwrap().to_owned();
    (child, stdout, addr)
}

/// Runs `roundelim client ARGS --addr ADDR`, which must succeed.
fn client(addr: &str, args: &[&str]) -> String {
    let out = cli().arg("client").args(args).args(["--addr", addr]).output().unwrap();
    assert!(out.status.success(), "client {args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

/// A fresh store that solved `sinkless-orientation::3` and then
/// `maximal-matching::3` holds the same `proofs.bin` bytes.
#[test]
fn daemon_proof_store_matches_its_golden_digest() {
    const GOLDEN_PROOFS: u64 = 0x5b62_182a_c7f3_d6c4;
    let store = tmp_dir("proofs");
    let (mut child, mut stdout, addr) = serve(&store);
    for spec in ["sinkless-orientation::3", "maximal-matching::3"] {
        client(&addr, &["solve", spec]);
    }
    client(&addr, &["shutdown"]);
    assert_eq!(child.wait().unwrap().code(), Some(0));
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    let digest = fnv1a64(&std::fs::read(store.join("proofs.bin")).unwrap());
    assert_eq!(digest, GOLDEN_PROOFS, "proofs.bin digest {digest:#x}");
}

/// A budget-stopped `autolb coloring:3:3` writes the same v3 checkpoint
/// bytes at 1 and 2 worker threads.
#[test]
fn budget_stopped_checkpoint_matches_its_golden_digest() {
    const GOLDEN_CKPT: u64 = 0xb3de_bda7_5172_4404;
    for threads in ["1", "2"] {
        let ck = tmp_dir(&format!("c33-ckpt-{threads}"));
        let out = cli()
            .args(["autolb", "coloring:3:3", "--steps", "6", "--beam", "6", "--max-labels", "10"])
            .args(["--max-expansions", "3", "--threads", threads])
            .args(["--checkpoint", ck.to_str().unwrap()])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
        let digest = fnv1a64(&std::fs::read(ck.join("search.ckpt")).unwrap());
        assert_eq!(digest, GOLDEN_CKPT, "threads={threads}: checkpoint digest {digest:#x}");
    }
}

/// A checkpoint of `autolb maximal-matching::3 --steps 6 --beam 6
/// --max-labels 10 --max-expansions 2` (12 classes, LB 2), written as v2
/// under the older name `search.ckpt.json`, resumes to the full search's
/// LB 3 over 613 classes and its certificate bytes, and the completed
/// search leaves no snapshot under either name. Next to a `search.ckpt`,
/// the older name is not read: here it holds bytes that do not load.
#[test]
fn committed_checkpoint_resumes_to_the_pinned_certificate() {
    const GOLDEN_CERT: u64 = 0xa622_d923_26a5_4c6b;
    let legacy = copy_fixture("mm3-checkpoint", "ckpt");
    let both = copy_fixture("mm3-checkpoint", "ckpt-both");
    std::fs::rename(both.join("search.ckpt.json"), both.join("search.ckpt")).unwrap();
    std::fs::write(both.join("search.ckpt.json"), b"stale").unwrap();
    for ck in [legacy, both] {
        let cert = ck.join("resumed.json");
        let args = ["autolb", "maximal-matching::3", "--steps", "6", "--beam", "6"];
        let out = cli()
            .args(args)
            .args(["--max-labels", "10", "--checkpoint", ck.to_str().unwrap(), "--resume"])
            .args(["--cert", cert.to_str().unwrap()])
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}{}", String::from_utf8_lossy(&out.stderr));
        assert!(stdout.contains("lower bound 3 rounds"), "{stdout}");
        assert!(stdout.contains("search: 613 classes"), "{stdout}");
        let digest = fnv1a64(&std::fs::read(&cert).unwrap());
        assert_eq!(digest, GOLDEN_CERT, "resumed certificate digest {digest:#x}");
        for name in ["search.ckpt", "search.ckpt.json"] {
            assert!(!ck.join(name).exists(), "{name} left in {}", ck.display());
        }
    }
}

/// A daemon store seeded with `sinkless-orientation::3` and
/// `maximal-matching::3` serves a verbatim and a renamed request from the
/// store, and the class index rebuilt from it (its older sidecar is not
/// read) holds no class beyond the stored two.
#[test]
fn committed_store_serves_warm_hits_without_new_classes() {
    let store = copy_fixture("store", "store");
    let files = tmp_dir("store-files");
    let renamed = files.join("mm3-renamed.problem");
    std::fs::write(&renamed, "name: mm\nlabels: Z Y X\nnode: X^3 | Z Y^2\nedge: Y X | Y^2 | Z^2\n")
        .unwrap();

    let (mut child, mut stdout, addr) = serve(&store);
    for spec in ["maximal-matching::3", renamed.to_str().unwrap()] {
        let out = client(&addr, &["solve", spec]);
        assert!(out.contains("cache hit"), "{spec} must be served from the store: {out}");
        assert!(out.contains("verdict: lower-bound (3 rounds)"), "{out}");
    }
    let status = client(&addr, &["status"]);
    assert!(status.contains("\"classes\": 2"), "{status}");
    assert!(status.contains("\"records\": 2"), "{status}");
    client(&addr, &["shutdown"]);
    assert_eq!(child.wait().unwrap().code(), Some(0));
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
}
