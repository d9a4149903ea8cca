//! A persistent accept error (`EMFILE`) makes the acceptor back off and
//! count the error instead of retrying at once, and the connection it
//! could not take is served once a descriptor frees.
//!
//! The test lowers this process's own `RLIMIT_NOFILE` and exhausts its
//! descriptors, which would break any test running beside it, so it is
//! the only test in this binary.

#![cfg(target_os = "linux")]

use dlm_serve::server::{DlmServer, LineService};
use std::ffi::{c_int, c_ulong};
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Echo(dlm_obs::Registry);

impl LineService for Echo {
    fn handle_line(&self, line: &str) -> String {
        line.to_owned()
    }

    fn metrics_registry(&self) -> Option<&dlm_obs::Registry> {
        Some(&self.0)
    }
}

#[repr(C)]
#[derive(Clone, Copy)]
struct Rlimit {
    cur: c_ulong,
    max: c_ulong,
}

const RLIMIT_NOFILE: c_int = 7;

extern "C" {
    fn getrlimit(resource: c_int, limit: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, limit: *const Rlimit) -> c_int;
}

fn nofile() -> Rlimit {
    let mut limit = Rlimit { cur: 0, max: 0 };
    // SAFETY: `limit` is a live `struct rlimit` the call writes into.
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut limit) }, 0);
    limit
}

fn set_nofile(limit: Rlimit) {
    // SAFETY: `limit` is a live `struct rlimit` the call only reads.
    assert_eq!(unsafe { setrlimit(RLIMIT_NOFILE, &limit) }, 0);
}

/// The highest descriptor this process has open.
fn highest_fd() -> c_ulong {
    std::fs::read_dir("/proc/self/fd")
        .unwrap()
        .filter_map(|entry| entry.ok()?.file_name().to_str()?.parse().ok())
        .max()
        .unwrap()
}

#[test]
fn an_accept_error_backs_off_and_is_counted_then_the_connection_is_served() {
    let registry = dlm_obs::Registry::new();
    let server = DlmServer::bind_with("127.0.0.1:0", Arc::new(Echo(registry.clone())), 1).unwrap();
    let errors = registry.counter("dlm_reactor_accept_errors_total", &[]);

    // Leave a little headroom, then take every descriptor but one.
    let saved = nofile();
    set_nofile(Rlimit {
        cur: highest_fd() + 16,
        max: saved.max,
    });
    let mut fillers: Vec<File> = std::iter::from_fn(|| File::open("/dev/null").ok()).collect();
    assert!(
        !fillers.is_empty(),
        "the lowered limit left nothing to fill"
    );
    fillers.pop();

    // The client takes the last descriptor, so the acceptor cannot.
    let mut client = TcpStream::connect(server.local_addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    std::thread::sleep(Duration::from_millis(300));
    let failed = errors.get();
    let window = started.elapsed();
    assert!(failed >= 1, "the acceptor never hit the descriptor limit");
    // An acceptor that retried at once would fail hundreds of thousands
    // of times in this window.
    assert!(
        failed <= 100,
        "{failed} accept errors in {window:?}: the acceptor is spinning"
    );

    drop(fillers);
    set_nofile(saved);
    client.write_all(b"ping\n").unwrap();
    let mut answer = String::new();
    BufReader::new(&client).read_line(&mut answer).unwrap();
    assert_eq!(answer, "ping\n");
}
