//! The standalone `dlm-serve` binary: a synthetic world behind a
//! JSON-lines-over-TCP forecasting service.
//!
//! ```text
//! dlm-serve [--addr 127.0.0.1:7878] [--scale 0.15] [--capacity 1024]
//!           [--cascades 4096] [--cascade-ttl SECS] [--workers N]
//!           [--no-prewarm] [--starts N]
//!           [--snapshot-dir DIR] [--io-threads N]
//!           [--announce ROUTER_ADDR] [--log-level error|warn|info|debug]
//! ```
//!
//! Prints one `READY {"addr":...,"version":...}` line carrying the
//! bound address plus a one-line config summary (I/O workers, snapshot
//! dir) once the socket is bound (the load generator and
//! scripts wait for it), then serves until killed.

use dlm_core::evaluate::Parallelism;
use dlm_data::{SyntheticWorld, WorldConfig};
use dlm_serve::server::{DlmServer, ServeConfig, ServerState};

fn usage() -> ! {
    eprintln!(
        "usage: dlm-serve [--addr HOST:PORT] [--scale F] [--capacity N] [--cascades N] \
         [--cascade-ttl SECS] [--workers N] [--no-prewarm] [--starts N] \
         [--snapshot-dir DIR] [--io-threads N] \
         [--announce ROUTER_ADDR] [--log-level error|warn|info|debug]"
    );
    std::process::exit(2);
}

fn main() {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut scale = 0.15f64;
    let mut starts = 1usize;
    let mut io_threads = 0usize;
    let mut announce: Option<String> = None;
    let mut config = ServeConfig::default();
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
            "--scale" => {
                scale = value("--scale").parse().unwrap_or_else(|_| usage());
            }
            "--capacity" => {
                config.cache_capacity = value("--capacity").parse().unwrap_or_else(|_| usage());
            }
            "--cascades" => {
                config.cascade_capacity = value("--cascades").parse().unwrap_or_else(|_| usage());
            }
            "--cascade-ttl" => {
                let secs: u64 = value("--cascade-ttl").parse().unwrap_or_else(|_| usage());
                config.cascade_ttl = Some(std::time::Duration::from_secs(secs));
            }
            "--workers" => {
                config.parallelism =
                    Parallelism::Fixed(value("--workers").parse().unwrap_or_else(|_| usage()));
            }
            "--no-prewarm" => config.prewarm = false,
            "--snapshot-dir" => {
                // Persist every cascade mutation and replay on restart;
                // see ServeConfig::snapshot_dir.
                config.snapshot_dir = Some(value("--snapshot-dir").into());
            }
            "--starts" => {
                starts = value("--starts").parse().unwrap_or_else(|_| usage());
            }
            "--io-threads" => {
                // Reactor I/O worker count; 0 = one per available core
                // (clamped).
                io_threads = value("--io-threads").parse().unwrap_or_else(|_| usage());
            }
            "--announce" => {
                // Announce this backend to a dlm-router after binding:
                // one `rejoin` admin line, so a restarted node is
                // re-admitted without waiting for an operator `join`.
                announce = Some(value("--announce"));
            }
            "--log-level" => {
                // Structured-log threshold on stderr; default warn, so
                // a quiet server emits nothing.
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

    if starts > 1 {
        // Upgrade the calibrating lineup entries to multi-start (see
        // docs/CALIBRATION.md): the refit scheduler fans one fit job
        // per model, and each calibrating fit searches `starts` seeds.
        config.lineup = config
            .lineup
            .into_iter()
            .map(|spec| spec.with_multi_start(starts, 0))
            .collect();
    }

    eprintln!("generating synthetic world (scale {scale})...");
    let world =
        SyntheticWorld::generate(WorldConfig::default().scaled(scale)).expect("world generation");
    let snapshot_dir = config.snapshot_dir.clone();
    let state = ServerState::with_world(config, world).expect("server construction");
    let lineup = state.lineup();
    let workers = if io_threads == 0 {
        "auto".to_owned()
    } else {
        io_threads.to_string()
    };
    let server =
        DlmServer::bind_with(addr.as_str(), std::sync::Arc::new(state), io_threads).expect("bind");
    println!(
        "READY {{\"addr\":\"{}\",\"models\":{},\"version\":\"{}\",\
         \"workers\":\"{workers}\",\"snapshot_dir\":\"{}\"}}",
        server.local_addr(),
        lineup.len(),
        env!("CARGO_PKG_VERSION"),
        snapshot_dir
            .as_deref()
            .map_or_else(|| "-".to_owned(), |p| p.display().to_string()),
    );
    eprintln!(
        "dlm-serve {} serving {} models on {} (io workers={workers}); Ctrl-C to stop",
        env!("CARGO_PKG_VERSION"),
        lineup.len(),
        server.local_addr()
    );
    if let Some(router) = announce {
        // Best-effort: a router that is down right now will still admit
        // this node when an operator issues `join`/`rejoin` later.
        let line = format!(
            "{{\"type\":\"rejoin\",\"backend\":\"{}\"}}",
            server.local_addr()
        );
        match dlm_serve::client::LineClient::connect_timeout(
            router.as_str(),
            std::time::Duration::from_secs(2),
        )
        .and_then(|mut client| client.send_ok(&line))
        {
            Ok(_) => eprintln!("announced {} to router {router}", server.local_addr()),
            Err(e) => eprintln!("announce to router {router} failed: {e}"),
        }
    }
    // Serve until the process is killed.
    loop {
        std::thread::park();
    }
}
