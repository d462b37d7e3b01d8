//! Child processes measured from outside: wall time from the benchmark's
//! clock, CPU time and peak RSS from the kernel's per-child accounting
//! (`wait4`), so every figure belongs to exactly one program process.

use roundelim::obs::time::Stopwatch;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

/// Resource usage of one reaped child.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub wall_ns: u64,
    pub cpu_ns: u64,
    pub max_rss_kb: u64,
}

/// A finished program run.
#[derive(Debug)]
pub struct Finished {
    /// Exit code, or `None` when a signal ended the process.
    pub code: Option<i32>,
    pub stdout: String,
    pub usage: Usage,
}

impl Finished {
    pub fn ok(&self) -> bool {
        self.code == Some(0)
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct rusage` on 64-bit Linux: two `timeval`s, then 14 longs.
    #[repr(C)]
    #[derive(Default)]
    pub struct RUsage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut RUsage) -> i32;
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }

    pub fn cpu_ns(u: &RUsage) -> u64 {
        let us = (u.utime[0] + u.stime[0]) * 1_000_000 + u.utime[1] + u.stime[1];
        u64::try_from(us).unwrap_or(0) * 1000
    }

    /// Blocks until child `pid` exits; returns its raw wait status and usage.
    pub fn wait(pid: u32) -> std::io::Result<(i32, RUsage)> {
        let pid = i32::try_from(pid).map_err(|_| std::io::Error::other("pid overflows i32"))?;
        let mut status = 0i32;
        let mut usage = RUsage::default();
        loop {
            // SAFETY: `status` and `usage` are live, writable, and laid out
            // as the kernel expects (`int` and 64-bit `struct rusage`).
            let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
            if r == pid {
                return Ok((status, usage));
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }

    /// CPU time this process has used so far, all threads.
    pub fn self_cpu_ns() -> u64 {
        let mut usage = RUsage::default();
        // SAFETY: `usage` is a live, writable 64-bit `struct rusage`;
        // RUSAGE_SELF (0) is always a valid `who`.
        let r = unsafe { getrusage(0, &mut usage) };
        if r == 0 {
            cpu_ns(&usage)
        } else {
            0
        }
    }
}

/// CPU time the benchmark process itself has used so far, all threads.
pub fn self_cpu_ns() -> u64 {
    sys::self_cpu_ns()
}

/// A spawned program whose stdout is piped back.
pub struct Running {
    child: Child,
    watch: Stopwatch,
}

impl Running {
    pub fn spawn(cmd: &mut Command) -> std::io::Result<Running> {
        let watch = Stopwatch::start();
        let child =
            cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::null()).spawn()?;
        Ok(Running { child, watch })
    }

    /// Reads one line of the child's stdout (the daemon's banner).
    pub fn read_line(&mut self) -> std::io::Result<String> {
        let out: &mut ChildStdout =
            self.child.stdout.as_mut().ok_or_else(|| std::io::Error::other("stdout taken"))?;
        // One byte at a time, so nothing past the line is buffered away.
        let mut line = Vec::new();
        let mut byte = [0u8; 1];
        while out.read(&mut byte)? == 1 {
            if byte[0] == b'\n' {
                break;
            }
            line.push(byte[0]);
        }
        Ok(String::from_utf8_lossy(&line).into_owned())
    }

    pub fn elapsed_ns(&self) -> u64 {
        self.watch.elapsed_ns()
    }

    /// Drains stdout and reaps the child.
    pub fn finish(mut self) -> std::io::Result<Finished> {
        let mut stdout = String::new();
        if let Some(out) = self.child.stdout.take() {
            BufReader::new(out).read_to_string(&mut stdout)?;
        }
        let (status, usage) = sys::wait(self.child.id())?;
        let wall_ns = self.watch.elapsed_ns();
        let code = if status & 0x7f == 0 { Some((status >> 8) & 0xff) } else { None };
        Ok(Finished {
            code,
            stdout,
            usage: Usage {
                wall_ns,
                cpu_ns: sys::cpu_ns(&usage),
                max_rss_kb: u64::try_from(usage.maxrss).unwrap_or(0),
            },
        })
    }

    /// Stops a child that is still running and reaps it.
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = sys::wait(self.child.id());
    }
}

/// Runs a program to completion.
pub fn run(cmd: &mut Command) -> std::io::Result<Finished> {
    Running::spawn(cmd)?.finish()
}

/// The `roundelim` release binary and the scratch directory of a run.
#[derive(Clone, Debug)]
pub struct Env {
    pub bin: PathBuf,
    pub work: PathBuf,
}

impl Env {
    /// Locates the binary `run.sh` built and makes a fresh scratch dir for
    /// `tag` under the build directory.
    pub fn new(tag: &str) -> Result<Env, String> {
        let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        let target = PathBuf::from(target);
        let bin = target.join("release").join("roundelim");
        if !bin.is_file() {
            return Err(format!("{} not found; run perfbench/run.sh", bin.display()));
        }
        let work = target.join("perfbench-work").join(tag);
        let _ = std::fs::remove_dir_all(&work);
        std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
        Ok(Env { bin, work })
    }

    pub fn cmd(&self) -> Command {
        Command::new(&self.bin)
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// Writes a file, turning the error into a message.
pub fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reads a file, turning the error into a message.
pub fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))
}

/// Copies every regular file of `from` into a fresh directory `to`.
pub fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_type().map_err(|e| e.to_string())?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))
                .map_err(|e| format!("{}: {e}", entry.path().display()))?;
        }
    }
    Ok(())
}
