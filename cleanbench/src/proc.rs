//! Run one `pfd` process: wall clock from spawn to exit, exit code, and
//! the peak RSS of the reaped child from its own rusage.
//!
//! Linux folds the memory of the process that forked a child into the
//! child's `ru_maxrss` (exec records the old address space's high-water
//! mark). Spawned straight from this harness, which holds the workload's
//! tables and oracles, every `pfd` would report at least the harness's own
//! size. So each `pfd` is spawned by a freshly started copy of this
//! binary in launcher mode (`--spawn`), which is small: it inherits the
//! output pipes, times and reaps the child, and reports on its own last
//! stderr line.

use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// First argument that puts this binary in launcher mode.
pub const SPAWN_FLAG: &str = "--spawn";
/// Prefix of the launcher's report line on stderr.
const REPORT: &str = "cleanbench-launcher:";

/// What one finished `pfd` process left behind.
pub struct Exit {
    /// Spawn to reaped exit, in seconds.
    pub wall_s: f64,
    /// Exit code, or `128 + signal` when a signal ended the process.
    pub code: i32,
    /// The child's peak resident set, in MiB.
    pub peak_rss_mb: f64,
    pub stdout: Vec<u8>,
    pub stderr: String,
}

/// `struct rusage` of Linux on 64-bit targets: two `timeval`s, then 14
/// `long`s of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// Reap `pid`, returning its raw wait status and rusage.
fn reap(pid: u32) -> std::io::Result<(i32, RUsage)> {
    let pid = i32::try_from(pid).expect("pids fit in i32");
    let mut status = 0i32;
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    loop {
        // SAFETY: `status` and `usage` are live, writable and laid out as
        // the kernel expects (`int` and `struct rusage` on 64-bit Linux);
        // `pid` is our own unreaped child, so wait4 touches nothing else.
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            return Ok((status, usage));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Launcher mode: run `argv[0] argv[1..]` with inherited stdio, reap it,
/// and print its wall seconds, exit code and peak RSS (KiB) as the last
/// stderr line. Called before the harness allocates anything.
pub fn launch(argv: &[String]) -> ! {
    let start = Instant::now();
    let child = Command::new(&argv[0])
        .args(&argv[1..])
        .stdin(Stdio::null())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", argv[0]));
    let (status, usage) = reap(child.id()).expect("wait4 on our own child");
    let wall_s = start.elapsed().as_secs_f64();
    // The child is reaped; `Child` must not wait on it again.
    drop(child);
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        128 + (status & 0x7f)
    };
    eprintln!("\n{REPORT} {wall_s} {code} {}", usage.maxrss);
    std::process::exit(0);
}

/// Run `pfd args…` in `cwd` to completion through a launcher, capturing
/// both output streams.
pub fn run(pfd: &Path, args: &[&str], cwd: &Path) -> Exit {
    let launcher = std::env::current_exe().expect("path of the running harness");
    let mut child = Command::new(launcher)
        .arg(SPAWN_FLAG)
        .arg(pfd)
        .args(args)
        .current_dir(cwd)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap_or_else(|e| panic!("spawn launcher for {}: {e}", pfd.display()));
    let mut out = child.stdout.take().expect("piped stdout");
    let mut err = child.stderr.take().expect("piped stderr");
    let (stdout, stderr) = std::thread::scope(|s| {
        let out_reader = s.spawn(move || {
            let mut buf = Vec::new();
            out.read_to_end(&mut buf).map(|_| buf)
        });
        let mut stderr = String::new();
        err.read_to_string(&mut stderr).expect("read stderr");
        let stdout = out_reader
            .join()
            .expect("stdout reader")
            .expect("read stdout");
        (stdout, stderr)
    });
    let (stderr, report) = stderr
        .rsplit_once(&format!("\n{REPORT} "))
        .unwrap_or_else(|| panic!("launcher for {} reported nothing: {stderr}", pfd.display()));
    let fields: Vec<&str> = report.split_whitespace().collect();
    let field = |i: usize| -> f64 {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .unwrap_or_else(|| panic!("bad launcher report {report:?}"))
    };
    // The launcher exits right after writing its report.
    child.wait().expect("reap launcher");
    Exit {
        wall_s: field(0),
        code: field(1) as i32,
        peak_rss_mb: field(2) / 1024.0,
        stdout,
        stderr: stderr.to_string(),
    }
}
