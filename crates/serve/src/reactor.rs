//! The event-driven TCP front end: a hand-rolled, std-only readiness
//! reactor.
//!
//! A blocking accept loop hands each connection to one of a fixed pool
//! of I/O workers (round-robin). Every worker blocks in `poll(2)` on its
//! share of the connections plus the read end of its wake channel, a
//! nonblocking [`UnixStream`] pair, and sleeps until one of them is
//! ready: no timer, so an idle reactor burns no CPU and a ready socket
//! is served as soon as the kernel reports it. One `poll` return serves
//! every ready connection in one pass — drain readable bytes, cut
//! complete requests out of the per-connection buffer, answer through
//! the shared [`LineService`], queue the bytes, flush what the socket
//! will take. The acceptor hands a connection over through the worker's
//! channel and writes one byte to its wake channel; shutdown writes the
//! same byte to every worker.
//!
//! `poll` is level-triggered, so a worker asks only for the events it
//! can act on: readability while the connection can use input, and
//! writability only while response bytes are unsent. A connection that
//! is waiting on its peer costs no wake-ups.
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
//! would give, without blocking the worker.
//!
//! [`LineService`]: crate::server::LineService

use crate::protocol::error_response;
use crate::server::LineService;
use crate::telemetry::{ReactorWorkerMetrics, WireMetrics};
use crate::wire::{self, Transport};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the acceptor waits after a failed `accept` (or a worker
/// after a failed `poll`) before trying again. A persistent error such
/// as `EMFILE` would otherwise spin a core until a descriptor frees.
const ERROR_BACKOFF: Duration = Duration::from_millis(10);

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
    /// answer the complete requests held back, flush, then drop.
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

    /// The `poll` events [`pump`] can act on: input only while it would
    /// be read (not after EOF, under backpressure, or with a full
    /// receive buffer), output only while bytes are unsent. Asking for
    /// anything more would make `poll` return at once, forever.
    fn interest(&self) -> sys::Events {
        let mut events = 0;
        if !self.closing
            && self.unsent() < MAX_PENDING_WRITE_BYTES
            && self.rbuf.len() < MAX_READ_BUFFER_BYTES
        {
            events |= sys::POLLIN;
        }
        if self.unsent() > 0 {
            events |= sys::POLLOUT;
        }
        events
    }

    /// Whether the receive buffer holds a complete request (or a frame
    /// header past the bound, which is answered too) that backpressure
    /// kept from being served.
    fn holds_request(&self) -> bool {
        match self.transport {
            Transport::Lines => self.rbuf.contains(&b'\n'),
            Transport::Binary => !matches!(wire::try_extract_frame(&self.rbuf), Ok(None)),
        }
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
    /// Keep the connection.
    Keep,
    /// Drop the connection now.
    Drop,
}

/// `poll(2)`, the reactor's only foreign call, with Linux's `struct
/// pollfd` and `nfds_t` (`unsigned long`).
mod sys {
    use std::ffi::{c_int, c_short, c_ulong};
    use std::io;
    use std::os::fd::RawFd;

    /// A `poll` event mask.
    pub(super) type Events = c_short;
    pub(super) const POLLIN: Events = 0x001;
    pub(super) const POLLOUT: Events = 0x004;

    /// One `struct pollfd`.
    #[repr(C)]
    pub(super) struct PollFd {
        fd: c_int,
        events: Events,
        revents: Events,
    }

    impl PollFd {
        pub(super) fn new(fd: RawFd, events: Events) -> Self {
            Self {
                fd,
                events,
                revents: 0,
            }
        }

        /// Whether the last [`wait`] reported anything for this entry:
        /// a requested event, or an error or hang-up (always reported).
        pub(super) fn ready(&self) -> bool {
            self.revents != 0
        }
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Blocks, with no timeout, until at least one entry is ready.
    /// `EINTR` reads as a return with nothing ready.
    pub(super) fn wait(fds: &mut [PollFd]) -> io::Result<()> {
        // SAFETY: `fds` is a live, exclusively borrowed slice of
        // `#[repr(C)]` values laid out as `struct pollfd`, and `nfds` is
        // its length, so the kernel reads and writes only inside it. A
        // negative timeout blocks until an entry is ready. An `fd` that
        // is closed or reused cannot make the call unsound: `poll` then
        // reports `POLLNVAL` or the new file's events.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, -1) };
        if ready >= 0 {
            return Ok(());
        }
        let error = io::Error::last_os_error();
        if error.kind() == io::ErrorKind::Interrupted {
            Ok(())
        } else {
            Err(error)
        }
    }
}

/// The acceptor's end of one worker: its connection inbox and the write
/// end of its wake channel.
struct WorkerLink {
    inbox: Sender<TcpStream>,
    wake: UnixStream,
}

/// Wakes a worker blocked in `poll`. A full channel already holds a
/// pending byte, which is wake enough, and a worker that has exited
/// needs none, so every error is ignored.
fn wake(mut channel: &UnixStream) {
    let _ = channel.write(&[1]);
}

/// The reactor's control block, owned by `DlmServer`.
#[derive(Debug)]
pub(crate) struct ReactorHandle {
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    /// Each worker with the write end of its wake channel.
    workers: Vec<(JoinHandle<()>, UnixStream)>,
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
        for (worker, channel) in self.workers.drain(..) {
            wake(&channel);
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

/// A nonblocking wake channel: the acceptor's write end, the worker's
/// read end, and a second write end for shutdown.
fn wake_channel() -> std::io::Result<(UnixStream, UnixStream, UnixStream)> {
    let (tx, rx) = UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    let shutdown_tx = tx.try_clone()?;
    Ok((tx, rx, shutdown_tx))
}

/// Spawns the reactor over an already-bound listener.
///
/// # Errors
///
/// Propagates a failure to create a worker's wake channel.
pub(crate) fn spawn<S: LineService>(
    listener: TcpListener,
    state: Arc<S>,
    io_threads: usize,
) -> std::io::Result<ReactorHandle> {
    let shutdown = Arc::new(AtomicBool::new(false));
    let workers_n = pool_size(io_threads);
    let mut links: Vec<WorkerLink> = Vec::with_capacity(workers_n);
    let mut workers = Vec::with_capacity(workers_n);
    // Per-worker `accepted` counters stay with the acceptor; the rest of
    // each worker's handles move into its loop. With no registry (plain
    // `LineService` impls) the whole telemetry layer compiles out to
    // `None` checks.
    let mut accepted: Vec<Option<dlm_obs::Counter>> = Vec::with_capacity(workers_n);
    // Every channel exists before any worker does, so a failure here
    // leaves no thread behind.
    let channels = (0..workers_n)
        .map(|_| wake_channel())
        .collect::<std::io::Result<Vec<_>>>()?;
    for (worker_id, (wake_tx, wake_rx, shutdown_tx)) in channels.into_iter().enumerate() {
        let (inbox, adopt) = mpsc::channel();
        let metrics = state
            .metrics_registry()
            .map(|r| (ReactorWorkerMetrics::new(r, worker_id), WireMetrics::new(r)));
        accepted.push(metrics.as_ref().map(|(m, _)| m.accepted.clone()));
        let state = Arc::clone(&state);
        let shutdown = Arc::clone(&shutdown);
        let worker = std::thread::spawn(move || {
            worker_loop(
                state.as_ref(),
                &adopt,
                &wake_rx,
                &shutdown,
                metrics.as_ref(),
            );
        });
        workers.push((worker, shutdown_tx));
        links.push(WorkerLink {
            inbox,
            wake: wake_tx,
        });
    }
    let accept_errors = state
        .metrics_registry()
        .map(|r| r.counter("dlm_reactor_accept_errors_total", &[]));

    let accept_shutdown = Arc::clone(&shutdown);
    let accept_handle = std::thread::spawn(move || {
        let mut next = 0usize;
        loop {
            let accepted_stream = listener.accept();
            if accept_shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok((stream, _)) = accepted_stream else {
                if let Some(counter) = &accept_errors {
                    counter.inc();
                }
                std::thread::sleep(ERROR_BACKOFF);
                continue;
            };
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let worker = next % links.len();
            next = next.wrapping_add(1);
            if let Some(counter) = &accepted[worker] {
                counter.inc();
            }
            // A worker that has exited drops its inbox, and the send
            // hands the stream back: dropping it closes the connection,
            // so the client sees EOF instead of waiting forever.
            if links[worker].inbox.send(stream).is_ok() {
                wake(&links[worker].wake);
            }
        }
    });

    Ok(ReactorHandle {
        shutdown,
        accept_handle: Some(accept_handle),
        workers,
    })
}

/// Reads the wake channel dry. `false` once every write end is gone.
fn drain_wake(mut channel: &UnixStream) -> bool {
    let mut sink = [0u8; 64];
    loop {
        match channel.read(&mut sink) {
            Ok(0) => return false,
            Ok(_) => {}
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return true,
        }
    }
}

/// One I/O worker: blocks in `poll` on its wake channel and its
/// connections, and serves every ready connection in one pass per
/// return, until shutdown.
fn worker_loop<S: LineService>(
    state: &S,
    adopt: &Receiver<TcpStream>,
    wake_rx: &UnixStream,
    shutdown: &AtomicBool,
    metrics: Option<&(ReactorWorkerMetrics, WireMetrics)>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    // Entry 0 is the wake channel; entry `i + 1` is `conns[i]`.
    let mut fds: Vec<sys::PollFd> = Vec::new();
    let mut chunk = vec![0u8; READ_CHUNK];
    let wire_metrics = metrics.map(|(_, wire)| wire);
    loop {
        fds.clear();
        fds.push(sys::PollFd::new(wake_rx.as_raw_fd(), sys::POLLIN));
        fds.extend(
            conns
                .iter()
                .map(|conn| sys::PollFd::new(conn.stream.as_raw_fd(), conn.interest())),
        );
        if sys::wait(&mut fds).is_err() {
            std::thread::sleep(ERROR_BACKOFF);
            continue;
        }
        if let Some((worker, _)) = metrics {
            worker.polls.inc();
        }
        // Connections adopted on this wake have not been polled; serve
        // them in this pass too, so bytes their clients sent with the
        // connect are answered without another `poll`.
        let polled = conns.len();
        if fds[0].ready() {
            // Drain before taking the inbox: a byte written after the
            // drain then stays pending for a connection this take missed.
            if !drain_wake(wake_rx) || shutdown.load(Ordering::SeqCst) {
                return; // drop all connections
            }
            conns.extend(adopt.try_iter().map(Conn::new));
        }
        let pass_started = (metrics.is_some() && !conns.is_empty()).then(Instant::now);
        let mut index = 0;
        conns.retain_mut(|conn| {
            let ready = index >= polled || fds[index + 1].ready();
            index += 1;
            !ready || matches!(serve(state, conn, &mut chunk, wire_metrics), Pump::Keep)
        });
        if let Some((worker, _)) = metrics {
            if let Some(started) = pass_started {
                worker.sweep.observe_duration(started.elapsed());
            }
            worker.active.set(conns.len() as i64);
        }
    }
}

/// Serves one ready connection: [`pump`], repeated while its receive
/// buffer still holds a complete request and nothing is left to send.
/// That happens when backpressure cut a pass's requests short and the
/// pass's last flush then emptied the queue: no socket event would ever
/// come for requests already buffered.
fn serve<S: LineService>(
    state: &S,
    conn: &mut Conn,
    chunk: &mut [u8],
    wire_metrics: Option<&WireMetrics>,
) -> Pump {
    loop {
        if let Pump::Drop = pump(state, conn, chunk, wire_metrics) {
            return Pump::Drop;
        }
        if conn.unsent() > 0 || !conn.holds_request() {
            return Pump::Keep;
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
    if flush_writes(conn).is_err() {
        return Pump::Drop;
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
        if flush_writes(conn).is_err() {
            return Pump::Drop;
        }
    }
    if conn.closing && conn.unsent() == 0 && !conn.holds_request() {
        return Pump::Drop;
    }
    Pump::Keep
}

/// Writes as much of the queued bytes as the socket will take.
/// `Err` on a dead socket.
fn flush_writes(conn: &mut Conn) -> std::result::Result<(), ()> {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err(()),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(()),
        }
    }
    if conn.wpos >= conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    Ok(())
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
                Pump::Keep
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
                Pump::Keep if reader.is_finished() => break,
                Pump::Keep => std::thread::yield_now(),
                // The reader hung up: finished, or failed (the join
                // below reports which).
                Pump::Drop => break,
            }
            assert!(conn.unsent() <= bound);
        }
        reader.join().expect("every response arrives in order");
        assert!(conn.rbuf.is_empty() && conn.unsent() == 0);
    }

    #[test]
    fn a_connection_asks_only_for_the_events_pump_can_act_on() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let mut conn = Conn::new(listener.accept().unwrap().0);
        let both = sys::POLLIN | sys::POLLOUT;
        assert_eq!(conn.interest(), sys::POLLIN, "idle");
        conn.queue_line("answer");
        assert_eq!(conn.interest(), both, "answer unsent");
        conn.closing = true;
        assert_eq!(conn.interest(), sys::POLLOUT, "after EOF");
        conn.closing = false;
        conn.wbuf.resize(MAX_PENDING_WRITE_BYTES, b'x');
        assert_eq!(conn.interest(), sys::POLLOUT, "under backpressure");
        conn.wbuf.clear();
        conn.rbuf.resize(MAX_READ_BUFFER_BYTES, b'x');
        assert_eq!(conn.interest(), 0, "receive buffer full, nothing unsent");
    }

    /// Answers each line with itself plus `pad` bytes of padding, panics
    /// on `boom`, and keeps a registry so tests can read the worker's
    /// `poll` returns.
    struct Probe {
        registry: dlm_obs::Registry,
        pad: usize,
    }

    impl LineService for Probe {
        fn handle_line(&self, line: &str) -> String {
            assert_ne!(line, "boom", "the magic line takes the worker down");
            format!("{line}{}", "x".repeat(self.pad))
        }

        fn metrics_registry(&self) -> Option<&dlm_obs::Registry> {
            Some(&self.registry)
        }
    }

    /// A one-worker reactor over a [`Probe`], shut down on drop.
    struct Running {
        handle: ReactorHandle,
        addr: SocketAddr,
        registry: dlm_obs::Registry,
    }

    impl Running {
        fn start(pad: usize) -> Self {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let registry = dlm_obs::Registry::new();
            let probe = Probe {
                registry: registry.clone(),
                pad,
            };
            let handle = spawn(listener, Arc::new(probe), 1).unwrap();
            Self {
                handle,
                addr,
                registry,
            }
        }

        /// A client whose reads fail after 10 s instead of hanging, so a
        /// missed wake fails the test.
        fn connect(&self) -> TcpStream {
            let stream = TcpStream::connect(self.addr).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            stream
        }

        fn polls(&self) -> u64 {
            self.registry
                .counter("dlm_reactor_polls_total", &[("worker", "0")])
                .get()
        }

        /// Waits until the worker stops returning from `poll`, and
        /// returns the count it settled at. Panics if it never does: a
        /// worker that keeps spinning fails here.
        fn settle(&self) -> u64 {
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut last = self.polls();
            loop {
                std::thread::sleep(Duration::from_millis(50));
                let now = self.polls();
                if now == last {
                    return now;
                }
                assert!(Instant::now() < deadline, "the worker never went quiet");
                last = now;
            }
        }
    }

    impl Drop for Running {
        fn drop(&mut self) {
            self.handle.shutdown(self.addr);
        }
    }

    /// Sends one request and reads its one-line answer.
    fn ask(stream: &mut TcpStream, line: &str) -> String {
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut answer = String::new();
        BufReader::new(stream).read_line(&mut answer).unwrap();
        answer.trim_end().to_owned()
    }

    /// Eight idle connections, adopted and answered once each.
    fn idle_connections(reactor: &Running) -> Vec<TcpStream> {
        (0..8)
            .map(|i| {
                let mut stream = reactor.connect();
                assert_eq!(ask(&mut stream, &format!("hi{i}")), format!("hi{i}"));
                stream
            })
            .collect()
    }

    #[test]
    fn a_worker_holding_only_idle_connections_answers_new_work_at_once() {
        let reactor = Running::start(0);
        let mut idle = idle_connections(&reactor);
        let before = reactor.settle();

        // The worker is blocked in `poll` with no timeout: only the wake
        // channel can bring it to a new connection, and only readiness
        // to a new request on an old one.
        let started = Instant::now();
        let mut fresh = reactor.connect();
        assert_eq!(ask(&mut fresh, "new"), "new");
        assert_eq!(ask(&mut idle[3], "again"), "again");
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "answers took {:?}",
            started.elapsed()
        );
        let spent = reactor.polls() - before;
        assert!(spent <= 8, "{spent} poll returns for three events");
    }

    #[test]
    fn idle_connections_cost_no_poll_returns() {
        let reactor = Running::start(0);
        let _idle = idle_connections(&reactor);
        let before = reactor.settle();
        std::thread::sleep(Duration::from_millis(300));
        // A timed park would have woken about 600 times.
        let spent = reactor.polls() - before;
        assert!(spent <= 2, "{spent} poll returns over 300 ms of idling");
    }

    /// A peer pipelines requests whose answers overflow every buffer,
    /// then reads nothing (after half-closing its side, if asked): while
    /// it waits, the worker stays blocked. Once it reads, every answer
    /// arrives in order.
    fn a_waiting_peer_costs_a_bounded_number_of_poll_returns(half_close: bool) {
        let reactor = Running::start(RESPONSE_BYTES);
        let mut client = reactor.connect();
        let requests: String = (0..REQUESTS).map(|i| format!("r{i}\n")).collect();
        client.write_all(requests.as_bytes()).unwrap();
        if half_close {
            client.shutdown(std::net::Shutdown::Write).unwrap();
        }
        let before = reactor.settle();
        std::thread::sleep(Duration::from_millis(300));
        let spent = reactor.polls() - before;
        assert!(spent <= 2, "{spent} poll returns while the peer waited");

        let mut lines = BufReader::new(client).lines();
        for i in 0..REQUESTS {
            let line = lines.next().expect("response").expect("read");
            assert!(
                line.starts_with(&format!("r{i}x")),
                "response {i} out of order"
            );
            assert_eq!(line.len(), format!("r{i}").len() + RESPONSE_BYTES);
        }
        if half_close {
            // Every held-back answer sent, the server hangs up.
            assert!(lines.next().is_none());
        }
    }

    #[test]
    fn a_backpressured_peer_that_reads_nothing_costs_a_bounded_number_of_poll_returns() {
        a_waiting_peer_costs_a_bounded_number_of_poll_returns(false);
    }

    #[test]
    fn a_half_closed_peer_with_held_back_responses_costs_a_bounded_number_of_poll_returns() {
        a_waiting_peer_costs_a_bounded_number_of_poll_returns(true);
    }

    #[test]
    fn a_connection_handed_to_a_dead_worker_is_closed_at_once() {
        let reactor = Running::start(0);
        let mut doomed = reactor.connect();
        doomed.write_all(b"boom\n").unwrap();
        // The worker's panic drops its connections: this one sees EOF.
        let mut rest = Vec::new();
        let _ = doomed.read_to_end(&mut rest);

        let started = Instant::now();
        let mut late = reactor.connect();
        let _ = late.write_all(b"ping\n");
        let mut byte = [0u8; 1];
        match late.read(&mut byte) {
            Ok(0) => {}
            Ok(_) => panic!("a dead worker answered"),
            Err(e) => assert!(
                !matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
                "the connection was left open: {e}"
            ),
        }
        assert!(started.elapsed() < Duration::from_secs(2));
    }
}
