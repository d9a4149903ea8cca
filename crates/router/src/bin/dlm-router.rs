//! The standalone `dlm-router` binary: a consistent-hash routing tier
//! over running `dlm-serve` backends.
//!
//! ```text
//! dlm-router --backend 127.0.0.1:7878 --backend 127.0.0.1:7879
//!            [--addr 127.0.0.1:7900] [--replicas 64] [--replicas-data 1]
//!            [--workers N] [--connect-timeout-ms 2000]
//!            [--backend-transport lines|binary]
//!            [--log-level error|warn|info|debug]
//! ```
//!
//! Prints one `READY {"addr":...,"backends":N,"version":...}` line
//! carrying the bound address plus a one-line config summary (backend
//! transport, ring/data replicas) once the socket is bound (scripts
//! and the load generator wait for it), then routes until killed. Backends are dialed lazily, so the router may be
//! started before its backends; requests to a not-yet-up backend simply
//! surface that backend's error until it arrives.

use dlm_core::evaluate::Parallelism;
use dlm_router::{RouterConfig, RouterState};
use dlm_serve::{DlmServer, Transport};

fn usage() -> ! {
    eprintln!(
        "usage: dlm-router --backend HOST:PORT [--backend HOST:PORT ...] \
         [--addr HOST:PORT] [--replicas N] [--replicas-data N] [--workers N] \
         [--connect-timeout-ms MS] [--backend-transport lines|binary] \
         [--log-level error|warn|info|debug]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7900".to_owned();
    let mut backends: Vec<String> = Vec::new();
    let mut replicas = dlm_cluster::HashRing::DEFAULT_REPLICAS;
    let mut data_replicas = 1usize;
    let mut parallelism = Parallelism::Auto;
    let mut connect_timeout = RouterConfig::DEFAULT_CONNECT_TIMEOUT;
    let mut backend_transport = Transport::Lines;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match arg.as_str() {
            "--addr" => addr = value("--addr"),
            "--backend" => backends.push(value("--backend")),
            "--replicas" => {
                replicas = value("--replicas").parse().unwrap_or_else(|_| usage());
            }
            "--replicas-data" => {
                // N-way replicated placement: every write lands on the
                // cascade's next N distinct ring owners, so killing one
                // backend mid-load loses nothing (see docs/PROTOCOL.md).
                data_replicas = value("--replicas-data")
                    .parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage());
            }
            "--workers" => {
                parallelism =
                    Parallelism::Fixed(value("--workers").parse().unwrap_or_else(|_| usage()));
            }
            "--connect-timeout-ms" => {
                // 0 is rejected: std's `TcpStream::connect_timeout`
                // errors on a zero duration, which would fail every
                // fresh dial instead of "disabling" the timeout.
                let ms: u64 = value("--connect-timeout-ms")
                    .parse()
                    .ok()
                    .filter(|&ms| ms > 0)
                    .unwrap_or_else(|| usage());
                connect_timeout = std::time::Duration::from_millis(ms);
            }
            "--backend-transport" => {
                // Framing negotiated on every backend connection; the
                // client-facing socket always starts in JSON lines
                // (clients negotiate their own framing per connection).
                backend_transport = match value("--backend-transport").as_str() {
                    "lines" => Transport::Lines,
                    "binary" => Transport::Binary,
                    _ => usage(),
                };
            }
            "--log-level" => {
                // Structured-log threshold on stderr; default warn.
                let level: dlm_obs::Level =
                    value("--log-level").parse().unwrap_or_else(|e: String| {
                        eprintln!("{e}");
                        usage()
                    });
                dlm_obs::set_level(level);
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument `{other}`");
                usage();
            }
        }
    }
    if backends.is_empty() {
        eprintln!("need at least one --backend");
        usage();
    }

    let state = match RouterState::new(RouterConfig {
        replicas,
        data_replicas,
        parallelism,
        connect_timeout,
        backend_transport,
        ..RouterConfig::new(backends)
    }) {
        Ok(state) => state,
        Err(e) => {
            eprintln!("invalid configuration: {e}");
            std::process::exit(2);
        }
    };
    let backend_count = state.backend_addrs().len();
    let transport = backend_transport.wire_name();
    let server = DlmServer::bind(addr.as_str(), state).expect("bind");
    println!(
        "READY {{\"addr\":\"{}\",\"backends\":{backend_count},\"version\":\"{}\",\
         \"backend_transport\":\"{transport}\",\"replicas\":{replicas},\
         \"data_replicas\":{data_replicas}}}",
        server.local_addr(),
        env!("CARGO_PKG_VERSION"),
    );
    eprintln!(
        "dlm-router {} routing over {backend_count} backends on {} \
         (transport={transport} replicas={replicas} data_replicas={data_replicas}); \
         Ctrl-C to stop",
        env!("CARGO_PKG_VERSION"),
        server.local_addr()
    );
    // Route until the process is killed.
    loop {
        std::thread::sleep(std::time::Duration::MAX);
    }
}
