//! The deployment under test: one `dlm-router` over two `dlm-serve`
//! backends, spawned from the release binaries with default flags
//! (bound to ephemeral ports), plus the `/proc` readings of their CPU
//! time and peak memory.

use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// Three running server processes; dropping it kills and reaps them.
pub struct Deployment {
    procs: Vec<(Child, BufReader<ChildStdout>)>,
    /// The router's client-facing address.
    pub router: SocketAddr,
    /// The backends' addresses (their ring labels), in spawn order.
    pub backends: Vec<SocketAddr>,
}

impl Deployment {
    /// Spawns both backends, waits for their `READY` lines, then spawns
    /// the router over them and waits for its `READY` line.
    ///
    /// # Errors
    ///
    /// A binary that cannot start or exits before printing `READY`.
    pub fn start(bin_dir: &Path) -> io::Result<Self> {
        let mut deployment = Self {
            procs: Vec::new(),
            router: SocketAddr::from(([127, 0, 0, 1], 0)),
            backends: Vec::new(),
        };
        let serve = bin_dir.join("dlm-serve");
        for _ in 0..2 {
            deployment.spawn(Command::new(&serve).args(["--addr", "127.0.0.1:0"]))?;
        }
        for i in 0..2 {
            let addr = ready_addr(&mut deployment.procs[i].1)?;
            deployment.backends.push(addr);
        }
        let mut router = Command::new(bin_dir.join("dlm-router"));
        router.args(["--addr", "127.0.0.1:0"]);
        for backend in &deployment.backends {
            router.arg("--backend").arg(backend.to_string());
        }
        deployment.spawn(&mut router)?;
        deployment.router = ready_addr(&mut deployment.procs[2].1)?;
        Ok(deployment)
    }

    fn spawn(&mut self, command: &mut Command) -> io::Result<()> {
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout is piped");
        self.procs.push((child, BufReader::new(stdout)));
        Ok(())
    }

    fn pids(&self) -> impl Iterator<Item = u32> + '_ {
        self.procs.iter().map(|(child, _)| child.id())
    }

    /// User + system CPU seconds consumed so far by all three processes
    /// (`utime + stime` from `/proc/<pid>/stat`).
    ///
    /// # Errors
    ///
    /// An unreadable or malformed `/proc` entry.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let ticks = clock_ticks_per_second();
        let mut total = 0.0;
        for pid in self.pids() {
            let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
            // Fields after the parenthesized command name: state is the
            // first, utime the 12th, stime the 13th.
            let rest = stat
                .rsplit_once(')')
                .map(|(_, rest)| rest)
                .ok_or_else(|| malformed("stat"))?;
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let field = |i: usize| -> io::Result<f64> {
                fields
                    .get(i)
                    .and_then(|f| f.parse::<u64>().ok())
                    .map(|v| v as f64)
                    .ok_or_else(|| malformed("stat"))
            };
            total += (field(11)? + field(12)?) / ticks;
        }
        Ok(total)
    }

    /// Summed peak resident set (`VmHWM`) of the three processes, in MB.
    ///
    /// # Errors
    ///
    /// An unreadable or malformed `/proc` entry.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let mut kib = 0u64;
        for pid in self.pids() {
            let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
            kib += status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
                .ok_or_else(|| malformed("status"))?;
        }
        Ok(kib as f64 / 1024.0)
    }
}

impl Drop for Deployment {
    fn drop(&mut self) {
        for (child, _) in &mut self.procs {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn malformed(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("malformed /proc/<pid>/{what}"),
    )
}

/// Reads lines until `READY {"addr":"host:port",...}` and returns the
/// address.
fn ready_addr(stdout: &mut BufReader<ChildStdout>) -> io::Result<SocketAddr> {
    let mut line = String::new();
    loop {
        line.clear();
        if stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server exited before READY",
            ));
        }
        if let Some(rest) = line.strip_prefix("READY ") {
            let addr = rest
                .split("\"addr\":\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .ok_or_else(|| malformed("READY line"))?;
            return addr
                .parse()
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad READY address"));
        }
    }
}

/// `sysconf(_SC_CLK_TCK)`: the unit of `utime`/`stime`.
fn clock_ticks_per_second() -> f64 {
    extern "C" {
        fn sysconf(name: std::ffi::c_int) -> std::ffi::c_long;
    }
    const SC_CLK_TCK: std::ffi::c_int = 2;
    // SAFETY: `sysconf` takes a plain integer selector, touches no
    // caller memory, and is always linked on Linux through libc.
    let ticks = unsafe { sysconf(SC_CLK_TCK) };
    if ticks > 0 {
        ticks as f64
    } else {
        100.0
    }
}
