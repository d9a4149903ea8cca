//! The event-driven TCP front end: a hand-rolled, std-only readiness
//! reactor.
//!
//! The build environment is std-only (no `mio`, no `libc`), so there is
//! no `poll(2)` to block on. The reactor gets the same effect from
//! nonblocking sockets plus a bounded backoff: a blocking accept loop
//! hands each connection to one of a fixed pool of I/O workers
//! (round-robin), and every worker level-polls its share of the
//! connections — drain readable bytes, cut complete requests out of the
//! per-connection buffer, answer through the shared
//! [`LineService`], queue the bytes, flush what the socket will take.
//! A pass that moves no bytes parks the worker for a few hundred
//! microseconds (or until the acceptor unparks it with a new
//! connection), which bounds idle CPU without giving up sub-millisecond
//! wake-up under load.
//!
//! The unit of work is one *complete request*, never one connection:
//! thousands of mostly-idle connections cost two buffers each, not a
//! thread each, and a burst of pipelined requests on one connection is
//! answered in one pass with one write. Request handling itself runs
//! inline on the worker — the handler fans heavy fits out to the
//! work-stealing pool in `dlm_numerics`, so I/O workers sized to the
//! machine keep every core busy without a second queueing layer.
//!
//! Connections start in JSON-lines mode, and a `hello` negotiation (see
//! [`crate::wire`]) switches them to length-prefixed binary frames
//! mid-stream, pipelined bytes included.
//!
//! Both per-connection buffers are bounded. A pass reads at most one
//! maximal request's worth of bytes, and a connection whose peer has
//! left [`MAX_PENDING_WRITE_BYTES`] of responses unread is neither read
//! nor served until it catches up — the backpressure a blocking write
//! would give, without parking the worker.
//!
//! [`LineService`]: crate::server::LineService

use crate::protocol::error_response;
use crate::server::LineService;
use crate::telemetry::{ReactorWorkerMetrics, WireMetrics};
use crate::wire::{self, Transport};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker parks between readiness passes. Small enough
/// to stay invisible next to a forecast's compute, large enough that an
/// idle reactor burns no measurable CPU.
const IDLE_PARK: Duration = Duration::from_micros(500);

/// Per-pass read chunk.
const READ_CHUNK: usize = 64 * 1024;

/// Upper bound on one request line, equal to the binary frame bound.
/// The largest legitimate request is a full-cascade ingest batch — tens
/// of thousands of `[ts,voter]` pairs fit comfortably; a client
/// streaming an endless unterminated "line" must not grow server memory
/// without bound.
const MAX_LINE_BYTES: usize = wire::MAX_FRAME_BYTES;

/// The read loop stops once the receive buffer holds this much: the
/// largest legal request in either framing (a maximal payload plus a
/// frame header), so any request within the bounds can complete, while
/// the buffer never outgrows it by more than one [`READ_CHUNK`].
const MAX_READ_BUFFER_BYTES: usize = MAX_LINE_BYTES + wire::FRAME_HEADER_BYTES;

/// Unsent response bytes at which a connection stops being read and
/// served until its peer drains them. Checked before each request, not
/// per response, so one response larger than the cap still goes out.
const MAX_PENDING_WRITE_BYTES: usize = 4 * 1024 * 1024;

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet cut into complete requests.
    rbuf: Vec<u8>,
    /// Bytes queued to send, from `wpos` on.
    wbuf: Vec<u8>,
    wpos: usize,
    transport: Transport,
    /// The peer half-closed (EOF) or the protocol decided to hang up;
    /// flush what is queued, then drop.
    closing: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            transport: Transport::Lines,
            closing: false,
        }
    }

    /// Queued response bytes the peer has not taken yet.
    fn unsent(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    fn queue_line(&mut self, line: &str) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
    }

    fn queue_frame(&mut self, payload: &[u8]) {
        wire::frame_into(payload, &mut self.wbuf);
    }
}

/// What one pump pass decided about a connection.
enum Pump {
    /// Keep the connection; `true` when any bytes moved.
    Keep(bool),
    /// Drop the connection now.
    Drop,
}

/// The reactor's control block, owned by `DlmServer`.
#[derive(Debug)]
pub(crate) struct ReactorHandle {
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Stops the accept loop, wakes every worker, and joins the pool.
    /// Workers drop their connections outright: shutdown is teardown,
    /// not graceful drain.
    pub(crate) fn shutdown(&mut self, addr: SocketAddr) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        for worker in self.workers.drain(..) {
            worker.thread().unpark();
            let _ = worker.join();
        }
    }
}

/// Sizes the worker pool: an explicit `io_threads`, or one worker per
/// available core (capped — beyond that the workers just contend on the
/// accept fan-in for the workloads this serves).
fn pool_size(io_threads: usize) -> usize {
    if io_threads > 0 {
        return io_threads;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .clamp(2, 16)
}

/// Spawns the reactor over an already-bound listener.
pub(crate) fn spawn<S: LineService>(
    listener: TcpListener,
    state: Arc<S>,
    io_threads: usize,
) -> ReactorHandle {
    let shutdown = Arc::new(AtomicBool::new(false));
    let workers_n = pool_size(io_threads);
    let mut inboxes: Vec<Arc<Mutex<Vec<TcpStream>>>> = Vec::with_capacity(workers_n);
    let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(workers_n);
    // Per-worker `accepted` counters stay with the acceptor; the rest of
    // each worker's handles move into its loop. With no registry (plain
    // `LineService` impls) the whole telemetry layer compiles out to
    // `None` checks.
    let mut accepted: Vec<Option<dlm_obs::Counter>> = Vec::with_capacity(workers_n);
    for worker_id in 0..workers_n {
        let inbox: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        inboxes.push(Arc::clone(&inbox));
        let metrics = state
            .metrics_registry()
            .map(|r| (ReactorWorkerMetrics::new(r, worker_id), WireMetrics::new(r)));
        accepted.push(metrics.as_ref().map(|(m, _)| m.accepted.clone()));
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        workers.push(std::thread::spawn(move || {
            worker_loop(state.as_ref(), &inbox, &shutdown, metrics.as_ref());
        }));
    }

    let accept_shutdown = Arc::clone(&shutdown);
    let worker_threads: Vec<std::thread::Thread> =
        workers.iter().map(|w| w.thread().clone()).collect();
    let accept_handle = std::thread::spawn(move || {
        let mut next = 0usize;
        for stream in listener.incoming() {
            if accept_shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = stream else { continue };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let worker = next % inboxes.len();
            next = next.wrapping_add(1);
            if let Some(counter) = &accepted[worker] {
                counter.inc();
            }
            inboxes[worker]
                .lock()
                .expect("reactor inbox poisoned")
                .push(stream);
            worker_threads[worker].unpark();
        }
    });

    ReactorHandle {
        shutdown,
        accept_handle: Some(accept_handle),
        workers,
    }
}

/// One I/O worker: level-polls its connections until shutdown.
fn worker_loop<S: LineService>(
    state: &S,
    inbox: &Mutex<Vec<TcpStream>>,
    shutdown: &AtomicBool,
    metrics: Option<&(ReactorWorkerMetrics, WireMetrics)>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return; // drop all connections
        }
        {
            let mut inbox = inbox.lock().expect("reactor inbox poisoned");
            if let Some((worker, _)) = metrics {
                worker.inbox_depth.set(inbox.len() as i64);
            }
            conns.extend(inbox.drain(..).map(Conn::new));
        }
        let mut progress = false;
        let sweep_started = (metrics.is_some() && !conns.is_empty()).then(Instant::now);
        let wire_metrics = metrics.map(|(_, wire)| wire);
        conns.retain_mut(|conn| match pump(state, conn, &mut chunk, wire_metrics) {
            Pump::Keep(moved) => {
                progress |= moved;
                true
            }
            Pump::Drop => false,
        });
        if let Some((worker, _)) = metrics {
            if let Some(started) = sweep_started {
                worker.sweep.observe_duration(started.elapsed());
            }
            worker.active.set(conns.len() as i64);
        }
        if !progress {
            if let Some((worker, _)) = metrics {
                worker.parks.inc();
            }
            // Nothing moved: sleep until the acceptor unparks us or the
            // park times out (bounding added latency for data that
            // arrives while parked).
            std::thread::park_timeout(IDLE_PARK);
        } else if let Some((worker, _)) = metrics {
            worker.wakes.inc();
        }
    }
}

/// One readiness pass over one connection: flush, read, parse+handle,
/// flush again so same-pass responses leave immediately. While
/// [`MAX_PENDING_WRITE_BYTES`] or more of its responses are unsent, the
/// pass only flushes.
fn pump<S: LineService>(
    state: &S,
    conn: &mut Conn,
    chunk: &mut [u8],
    wire_metrics: Option<&WireMetrics>,
) -> Pump {
    let mut moved = false;
    match flush_writes(conn) {
        Ok(m) => moved |= m,
        Err(()) => return Pump::Drop,
    }
    if conn.unsent() < MAX_PENDING_WRITE_BYTES {
        // After EOF the read side is done, but requests held back by
        // backpressure are still answered before the hang-up.
        while !conn.closing && conn.rbuf.len() < MAX_READ_BUFFER_BYTES {
            match conn.stream.read(chunk) {
                Ok(0) => conn.closing = true,
                Ok(n) => {
                    if let Some(wire) = wire_metrics {
                        wire.add_rx(conn.transport, n);
                    }
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    moved = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return Pump::Drop,
            }
        }
        if drain_requests(state, conn, wire_metrics).is_err() {
            // Nothing past a framing violation can be trusted.
            conn.rbuf.clear();
            conn.closing = true;
        }
        match flush_writes(conn) {
            Ok(m) => moved |= m,
            Err(()) => return Pump::Drop,
        }
    }
    if conn.closing && conn.unsent() == 0 {
        return Pump::Drop;
    }
    Pump::Keep(moved)
}

/// Writes as much of the queued bytes as the socket will take.
/// `Ok(true)` when bytes moved; `Err` on a dead socket.
fn flush_writes(conn: &mut Conn) -> std::result::Result<bool, ()> {
    let mut moved = false;
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(()),
            Ok(n) => {
                conn.wpos += n;
                moved = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    if conn.wpos >= conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    Ok(moved)
}

/// Cuts complete requests out of the receive buffer and queues their
/// responses, stopping early once [`MAX_PENDING_WRITE_BYTES`] are
/// unsent. `Err(())` means the connection must close after the queued
/// bytes flush (framing violation: oversize line/frame, bad UTF-8).
fn drain_requests<S: LineService>(
    state: &S,
    conn: &mut Conn,
    wire_metrics: Option<&WireMetrics>,
) -> std::result::Result<(), ()> {
    loop {
        if conn.unsent() >= MAX_PENDING_WRITE_BYTES {
            // Backpressure: the rest waits in `rbuf` for the peer to read.
            return Ok(());
        }
        match conn.transport {
            Transport::Lines => {
                let Some(newline) = conn.rbuf.iter().position(|&b| b == b'\n') else {
                    if conn.rbuf.len() > MAX_LINE_BYTES {
                        conn.queue_line(
                            &error_response("request line exceeds the size bound").to_string(),
                        );
                        return Err(());
                    }
                    return Ok(());
                };
                let raw: Vec<u8> = conn.rbuf.drain(..=newline).collect();
                let mut text = &raw[..raw.len() - 1];
                if text.last() == Some(&b'\r') {
                    text = &text[..text.len() - 1];
                }
                let Ok(line) = std::str::from_utf8(text) else {
                    conn.queue_line(&error_response("request line is not UTF-8").to_string());
                    return Err(());
                };
                if line.trim().is_empty() {
                    continue;
                }
                match wire::parse_hello(line) {
                    Some(Ok(transport)) => {
                        conn.queue_line(&wire::hello_response(transport));
                        conn.transport = transport;
                        // Pipelined bytes after the hello are parsed in
                        // the new framing on the next loop turn.
                    }
                    Some(Err(e)) => conn.queue_line(&error_response(&e.to_string()).to_string()),
                    None => {
                        let response = state.handle_line(line);
                        if let Some(wire) = wire_metrics {
                            wire.count_request(Transport::Lines);
                            wire.add_tx(Transport::Lines, response.len() + 1);
                        }
                        conn.queue_line(&response);
                    }
                }
            }
            Transport::Binary => match wire::try_extract_frame(&conn.rbuf) {
                Ok(None) => return Ok(()),
                Ok(Some((payload, consumed))) => {
                    let response = match wire::payload_to_line(&conn.rbuf[payload]) {
                        Ok(line) => state.handle_line(&line),
                        // Frame boundary intact: answer and carry on.
                        Err(e) => error_response(&e.to_string()).to_string(),
                    };
                    conn.rbuf.drain(..consumed);
                    if let Some(wire) = wire_metrics {
                        wire.count_request(Transport::Binary);
                        wire.add_tx(Transport::Binary, response.len() + wire::FRAME_HEADER_BYTES);
                    }
                    conn.queue_frame(response.as_bytes());
                }
                Err(e) => {
                    // Oversize declared length: the stream cannot be
                    // trusted past this header. Answer, then hang up.
                    conn.queue_frame(error_response(&e.to_string()).to_string().as_bytes());
                    return Err(());
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// Padding per response: a few dozen queued answers overflow both the
    /// kernel's socket buffers and the pending-write cap.
    const RESPONSE_BYTES: usize = 256 * 1024;
    const REQUESTS: usize = 128;

    /// Answers `rN` with `rN ` plus [`RESPONSE_BYTES`] of padding.
    struct Padded;

    impl LineService for Padded {
        fn handle_line(&self, line: &str) -> String {
            format!("{line} {}", "x".repeat(RESPONSE_BYTES))
        }
    }

    #[test]
    fn a_peer_that_stops_reading_gets_bounded_buffers_then_every_response_in_order() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        let mut conn = Conn::new(server);
        let mut chunk = vec![0u8; READ_CHUNK];
        // The cap plus one response line (its echoed id, space, newline).
        let bound = MAX_PENDING_WRITE_BYTES + RESPONSE_BYTES + 16;

        // Pipeline every request, read nothing.
        let requests: String = (0..REQUESTS).map(|i| format!("r{i}\n")).collect();
        client.write_all(requests.as_bytes()).unwrap();
        for _ in 0..64 {
            assert!(matches!(
                pump(&Padded, &mut conn, &mut chunk, None),
                Pump::Keep(_)
            ));
            assert!(
                conn.unsent() <= bound,
                "{} unsent bytes queued for a peer that is not reading",
                conn.unsent()
            );
        }
        assert!(
            !conn.rbuf.is_empty(),
            "backpressure never engaged: every request was answered"
        );

        // Once the peer reads, every response arrives, in request order.
        let reader = std::thread::spawn(move || {
            let mut lines = BufReader::new(client).lines();
            for i in 0..REQUESTS {
                let line = lines.next().expect("response").expect("read");
                assert_eq!(line.len(), format!("r{i} ").len() + RESPONSE_BYTES);
                assert!(
                    line.starts_with(&format!("r{i} ")),
                    "response {i} out of order"
                );
            }
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            assert!(Instant::now() < deadline, "responses stalled");
            match pump(&Padded, &mut conn, &mut chunk, None) {
                Pump::Keep(true) => {}
                Pump::Keep(false) if reader.is_finished() => break,
                Pump::Keep(false) => std::thread::yield_now(),
                // The reader hung up: finished, or failed (the join
                // below reports which).
                Pump::Drop => break,
            }
            assert!(conn.unsent() <= bound);
        }
        reader.join().expect("every response arrives in order");
        assert!(conn.rbuf.is_empty() && conn.unsent() == 0);
    }
}
