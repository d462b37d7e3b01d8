//! Crash-recovery end-to-end tests of the `roundelim` CLI: a search killed
//! mid-flight (deterministically via a failpoint, or for real via SIGKILL /
//! SIGTERM) must resume from its checkpoint and finish with a certificate
//! **byte-identical** to the one an uninterrupted run produces. A daemon
//! killed mid-append must restart with every complete proof it stored.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_roundelim"))
}

/// A fresh per-test scratch directory (unique per process so parallel
/// suite runs cannot tamper with each other's fixtures).
fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("roundelim-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn ckpt_file(dir: &Path) -> PathBuf {
    dir.join("search.ckpt")
}

/// Polls until `path` exists or the deadline passes.
fn wait_for(path: &Path, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if path.exists() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    false
}

/// Waits for the child with a deadline, SIGKILLing it on timeout so a
/// regression can never hang the suite.
fn wait_with_deadline(child: &mut Child, timeout: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().unwrap() {
            return status;
        }
        if Instant::now() >= deadline {
            child.kill().unwrap();
            let status = child.wait().unwrap();
            panic!("child did not exit within {timeout:?} (killed, status {status})");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The two zoo problems the recovery tests run end to end: one that leans
/// on searched relaxations (maximal matching) and one plain speedup tower
/// (3-coloring). Both finish in well under a second, so the full
/// kill/resume matrix stays cheap.
const CASES: [(&str, &[&str]); 2] = [
    ("maximal-matching::3", &["--steps", "6", "--beam", "6", "--max-labels", "10"]),
    ("coloring:3:3", &["--steps", "4", "--beam", "4", "--max-labels", "8"]),
];

/// A search killed outright (the `kill` failpoint aborts the process, like
/// SIGKILL, at its second checkpoint write — so the snapshot on disk is the
/// *first* boundary, mid-search) must resume and produce the exact bytes of
/// an uninterrupted run, at 1 worker thread and at 4.
#[test]
fn killed_search_resumes_to_a_byte_identical_certificate() {
    for (spec, args) in CASES {
        for threads in ["1", "4"] {
            let dir = tmp_dir(&format!("kill-{threads}-{}", spec.replace(':', "_")));
            let ck = dir.join("ck");
            let reference = dir.join("ref.cert.json");
            let resumed = dir.join("resumed.cert.json");

            let out = cli()
                .args(["autolb", spec])
                .args(args)
                .args(["--threads", threads, "--cert", reference.to_str().unwrap()])
                .output()
                .unwrap();
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

            // The failpoint-chosen crash: abort at the 2nd checkpoint write.
            let out = cli()
                .args(["autolb", spec])
                .args(args)
                .args(["--threads", threads, "--checkpoint", ck.to_str().unwrap()])
                .env("ROUNDELIM_FAILPOINTS", "checkpoint-write=kill@2")
                .output()
                .unwrap();
            assert!(!out.status.success(), "the kill failpoint must abort the search");
            assert!(ckpt_file(&ck).exists(), "the first boundary snapshot must survive");

            let out = cli()
                .args(["autolb", spec])
                .args(args)
                .args([
                    "--threads",
                    threads,
                    "--checkpoint",
                    ck.to_str().unwrap(),
                    "--resume",
                    "--cert",
                    resumed.to_str().unwrap(),
                ])
                .output()
                .unwrap();
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            assert_eq!(
                std::fs::read(&reference).unwrap(),
                std::fs::read(&resumed).unwrap(),
                "resumed certificate differs from the uninterrupted run \
                 ({spec}, {threads} threads)"
            );
            assert!(!ckpt_file(&ck).exists(), "a completed resume must clear its snapshot");
        }
    }
}

/// The real thing: SIGKILL the child at an arbitrary moment mid-search
/// (as soon as its first snapshot appears), then resume. The atomic
/// temp-file + rename write discipline guarantees the snapshot on disk is
/// never torn, whatever instant the kill landed on.
#[test]
fn sigkilled_search_resumes_to_a_byte_identical_certificate() {
    let dir = tmp_dir("sigkill");
    let ck = dir.join("ck");
    let reference = dir.join("ref.cert.json");
    let resumed = dir.join("resumed.cert.json");
    let args = ["--steps", "6", "--beam", "6", "--max-labels", "10", "--threads", "2"];

    let out = cli()
        .args(["autolb", "coloring:3:3"])
        .args(args)
        .args(["--cert", reference.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let mut child = cli()
        .args(["autolb", "coloring:3:3"])
        .args(args)
        .args(["--checkpoint", ck.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    // Kill as soon as the search persists its first snapshot. If the search
    // outran us and already finished, the run below simply starts fresh —
    // the byte-identity assertion holds either way.
    wait_for(&ckpt_file(&ck), Duration::from_secs(60));
    let _ = child.kill();
    let _ = child.wait();

    let out = cli()
        .args(["autolb", "coloring:3:3"])
        .args(args)
        .args([
            "--checkpoint",
            ck.to_str().unwrap(),
            "--resume",
            "--cert",
            resumed.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(&reference).unwrap(),
        std::fs::read(&resumed).unwrap(),
        "resume after SIGKILL must reproduce the uninterrupted certificate"
    );
}

/// SIGTERM is graceful: the search stops at its next cancellation poll,
/// reports the partial verdict with exit code 3, and leaves its last
/// boundary snapshot on disk for a later resume.
#[cfg(unix)]
#[test]
fn sigterm_stops_gracefully_with_exit_3_and_a_live_snapshot() {
    let dir = tmp_dir("sigterm");
    let ck = dir.join("ck");
    // Heavy enough that the TERM always lands mid-search.
    let mut child = cli()
        .args(["autolb", "coloring:3:3", "--steps", "6", "--beam", "6", "--max-labels", "10"])
        .args(["--threads", "2", "--checkpoint", ck.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    assert!(
        wait_for(&ckpt_file(&ck), Duration::from_secs(60)),
        "the search never wrote its first snapshot"
    );
    let term = Command::new("kill").args(["-TERM", &child.id().to_string()]).status().unwrap();
    assert!(term.success(), "kill -TERM failed");
    let status = wait_with_deadline(&mut child, Duration::from_secs(120));
    assert_eq!(status.code(), Some(3), "SIGTERM must map to the incomplete exit code");
    assert!(ckpt_file(&ck).exists(), "the boundary snapshot must survive the SIGTERM");
    let mut stdout = String::new();
    std::io::Read::read_to_string(child.stdout.as_mut().unwrap(), &mut stdout).unwrap();
    assert!(stdout.contains("stopped early (interrupted)"), "{stdout}");
}

/// A corrupted snapshot must be rejected by the checksum on resume rather
/// than silently seeding a wrong search state.
#[test]
fn corrupted_snapshot_is_rejected_on_resume() {
    let dir = tmp_dir("corrupt");
    let ck = dir.join("ck");
    let out = cli()
        .args(["autolb", "coloring:3:3", "--steps", "4", "--beam", "4", "--max-labels", "8"])
        .args(["--checkpoint", ck.to_str().unwrap(), "--max-expansions", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "{}", String::from_utf8_lossy(&out.stderr));
    let file = ckpt_file(&ck);
    // Flip one payload byte, keeping the checksum header intact.
    let mut bytes = std::fs::read(&file).unwrap();
    let ix = bytes.len() / 2;
    bytes[ix] = bytes[ix].wrapping_add(1);
    std::fs::write(&file, bytes).unwrap();
    let out = cli()
        .args(["autolb", "coloring:3:3", "--steps", "4", "--beam", "4", "--max-labels", "8"])
        .args(["--checkpoint", ck.to_str().unwrap(), "--resume"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "corruption is a runtime error, not a fresh start");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("checksum"),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

/// One poisoned worker must degrade the beam, not abort the search: the
/// `worker-panic` failpoint blows up exactly one work item, the search
/// completes, reports the capture, and still exits 0 with a verdict.
/// Run at several thread counts — the executor captures panics **per
/// item** (exactly one `worker_panics`, never a whole chunk of them), and
/// stealing must drain the panicked worker's remaining range.
#[test]
fn a_worker_panic_degrades_the_search_instead_of_aborting_it() {
    for threads in ["2", "4"] {
        let out = cli()
            .args(["autolb", "coloring:3:2", "--steps", "6", "--beam", "6", "--max-labels", "10"])
            .args(["--threads", threads, "--json"])
            .env("ROUNDELIM_FAILPOINTS", "worker-panic=panic@1")
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("\"worker_panics\": 1"), "threads={threads}: {stdout}");
        assert!(stdout.contains("\"verdict\""), "threads={threads}: {stdout}");
    }
}

/// A `roundelim serve` process and the address it bound. Dropping it
/// SIGKILLs the process, so a failing test cannot leak it either.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(store: &Path) -> Daemon {
        let mut child = cli()
            .args(["serve", "--addr", "127.0.0.1:0", "--store", store.to_str().unwrap()])
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let mut banner = String::new();
        BufReader::new(child.stdout.take().unwrap()).read_line(&mut banner).unwrap();
        let addr = banner.trim().strip_prefix("roundelimd listening on ").unwrap().to_owned();
        Daemon { child, addr }
    }

    /// Runs `roundelim client ARGS --addr ADDR`, which must succeed.
    fn client(&self, args: &[&str]) -> String {
        let out = cli().arg("client").args(args).args(["--addr", &self.addr]).output().unwrap();
        assert!(out.status.success(), "client {args:?}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    }

    /// Solves `spec` and returns whether the store served it.
    fn solve_hits(&self, spec: &str) -> bool {
        self.client(&["solve", spec]).contains("cache hit")
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// SIGKILL the daemon after it stored proof A, then append half of A's
/// frame, as a kill mid-append leaves it. The restart drops the torn
/// bytes, serves A warm, and appends B after A; a second SIGKILL and
/// restart serve both.
#[cfg(unix)]
#[test]
fn sigkilled_daemon_restarts_from_a_torn_append_with_every_complete_proof() {
    let (a, b) = ("sinkless-orientation::3", "sinkless-orientation::4");
    let store = tmp_dir("daemon-store");
    let proofs = store.join("proofs.bin");
    let d = Daemon::spawn(&store);
    assert!(!d.solve_hits(a));
    drop(d);
    let frame_a = std::fs::read(&proofs).unwrap();
    let mut torn = frame_a.clone();
    torn.extend_from_slice(&frame_a[..frame_a.len() / 2]);
    std::fs::write(&proofs, torn).unwrap();

    let d = Daemon::spawn(&store);
    assert_eq!(std::fs::read(&proofs).unwrap(), frame_a, "open must truncate the torn frame");
    assert!(d.solve_hits(a), "{a} must be served from the store after the restart");
    assert!(!d.solve_hits(b));
    drop(d);

    let d = Daemon::spawn(&store);
    assert!(d.solve_hits(a) && d.solve_hits(b), "both proofs must survive the second kill");
    let status = d.client(&["status"]);
    assert!(status.contains("\"records\": 2"), "{status}");
}
