//! The load generator: one client process, two connections, one thread
//! per connection.
//!
//! Open-loop phases send every request at its scheduled time whether or
//! not earlier answers have arrived (pipelining: both tiers answer a
//! connection's requests in order), and time each request from that
//! *intended* send time, so a stalled server is charged for the queue it
//! builds. Closed-loop phases (set-up, the probe, the output check) send
//! a connection's next request once the previous one is answered.

use crate::plan::{Class, Expect, Phase, Request};
use dlm_serve::wire;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Unanswered requests a connection may carry before the generator
/// stops sending (a growing backlog, not a client limit at nominal).
pub const MAX_IN_FLIGHT: usize = 256;

/// A client connection in lines or binary framing.
pub struct Conn {
    stream: TcpStream,
    binary: bool,
    buf: Vec<u8>,
}

impl Conn {
    /// Connects, and negotiates binary framing when asked.
    ///
    /// # Errors
    ///
    /// Socket errors, or a refused negotiation.
    pub fn connect(addr: SocketAddr, binary: bool) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(Duration::from_secs(5)))?;
        let mut conn = Self {
            stream,
            binary: false,
            buf: Vec::with_capacity(1 << 16),
        };
        if binary {
            let mut hello = wire::hello_line(dlm_serve::Transport::Binary);
            hello.push('\n');
            let answer = conn.round_trip(hello.as_bytes())?;
            if answer != wire::hello_response(dlm_serve::Transport::Binary).as_bytes() {
                return Err(io::Error::other("binary negotiation refused"));
            }
            conn.binary = true;
        }
        Ok(conn)
    }

    /// Sends one request and waits for its answer.
    ///
    /// # Errors
    ///
    /// Socket errors, or a connection closed before the answer.
    pub fn round_trip(&mut self, bytes: &[u8]) -> io::Result<Vec<u8>> {
        self.stream.write_all(bytes)?;
        loop {
            if let Some(response) = self.take_response()? {
                return Ok(response);
            }
            if !self.fill(Duration::from_secs(60))? {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "no answer in 60 s"));
            }
        }
    }

    /// Pops one complete response off the receive buffer.
    fn take_response(&mut self) -> io::Result<Option<Vec<u8>>> {
        if self.binary {
            match wire::try_extract_frame(&self.buf) {
                Ok(Some((range, consumed))) => {
                    let payload = self.buf[range].to_vec();
                    self.buf.drain(..consumed);
                    Ok(Some(payload))
                }
                Ok(None) => Ok(None),
                Err(e) => Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
            }
        } else {
            Ok(self.buf.iter().position(|&b| b == b'\n').map(|end| {
                let line = self.buf[..end].to_vec();
                self.buf.drain(..=end);
                line
            }))
        }
    }

    /// Waits up to `timeout` for the socket to turn readable, then reads
    /// what it has; `false` when nothing arrived in time.
    fn fill(&mut self, timeout: Duration) -> io::Result<bool> {
        if !readable(&self.stream, timeout)? {
            return Ok(false);
        }
        let mut chunk = [0u8; 1 << 16];
        match self.stream.read(&mut chunk)? {
            0 => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            n => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(true)
            }
        }
    }
}

/// `ppoll(2)` for readability with a nanosecond timeout. Socket read
/// timeouts round up to the kernel tick (10 ms at 100 Hz), which would
/// make the generator send late; `ppoll` wakes on time.
fn readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    #[repr(C)]
    struct PollFd {
        fd: std::ffi::c_int,
        events: std::ffi::c_short,
        revents: std::ffi::c_short,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: std::ffi::c_long,
        tv_nsec: std::ffi::c_long,
    }
    extern "C" {
        fn ppoll(
            fds: *mut PollFd,
            nfds: std::ffi::c_ulong,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> std::ffi::c_int;
    }
    const POLLIN: std::ffi::c_short = 1;
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let limit = Timespec {
        tv_sec: timeout.as_secs().min(3600) as std::ffi::c_long,
        tv_nsec: std::ffi::c_long::from(timeout.subsec_nanos() as i32),
    };
    // SAFETY: `fd` and `limit` are live, properly laid out `pollfd` and
    // `timespec` values for the duration of the call; `nfds` is 1, and a
    // null signal mask means "leave the mask unchanged".
    let ready = unsafe { ppoll(&mut fd, 1, &limit, std::ptr::null()) };
    match ready {
        n if n > 0 => Ok(true),
        0 => Ok(false),
        _ => {
            let error = io::Error::last_os_error();
            if error.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(error)
            }
        }
    }
}

/// What happened to one request.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The request's stream id.
    pub id: u64,
    /// Latency class.
    pub class: Class,
    /// Intended send time, seconds after the phase start (the actual
    /// send time for closed-loop phases).
    pub intended: f64,
    /// Seconds from the intended send time to the full answer
    /// (`NaN` when unanswered).
    pub latency: f64,
    /// Seconds the generator sent late (scheduler lateness, measured
    /// before the write, so socket back-pressure is not counted).
    pub lag: f64,
    /// Answered with the expected answer.
    pub ok: bool,
    /// Seconds after the phase start the answer arrived.
    pub done_at: f64,
}

/// One phase's outcomes.
#[derive(Debug)]
pub struct PhaseRun {
    /// When the phase started: intended send times count from here.
    pub started: Instant,
    /// Outcomes per request, connection 0's first.
    pub outcomes: Vec<Outcome>,
    /// Responses of forecasts marked for comparison or scoring, with
    /// their expectation.
    pub kept: Vec<(Expect, Vec<u8>)>,
    /// Largest number of unanswered requests on one connection.
    pub peak_in_flight: usize,
}

impl PhaseRun {
    /// Latencies (seconds) of answered requests of `class`, in the
    /// order they were due to be sent.
    #[must_use]
    pub fn latencies(&self, class: Class) -> Vec<f64> {
        let mut answered: Vec<(f64, f64)> = self
            .outcomes
            .iter()
            .filter(|o| o.class == class && o.ok)
            .map(|o| (o.intended, o.latency))
            .collect();
        answered.sort_by(|a, b| a.0.total_cmp(&b.0));
        answered.into_iter().map(|(_, latency)| latency).collect()
    }

    /// Requests that failed (error, wrong answer, or never answered).
    #[must_use]
    pub fn failed(&self) -> usize {
        self.outcomes.iter().filter(|o| !o.ok).count()
    }
}

/// Drives one phase over both connections. Open-loop phases send on the
/// schedule; closed-loop phases send each request after the previous
/// answer. Either stops waiting `drain` seconds after the schedule ends.
pub fn run_phase(conns: &mut [Conn; 2], phase: &Phase, drain: f64) -> PhaseRun {
    let start = Instant::now();
    let deadline = phase.seconds + drain;
    let open_loop = phase.open_loop;
    let [c0, c1] = conns;
    let (r0, r1) = std::thread::scope(|scope| {
        let first = scope.spawn(|| drive(c0, &phase.conns[0], start, open_loop, deadline));
        let second = drive(c1, &phase.conns[1], start, open_loop, deadline);
        (first.join().expect("connection thread panicked"), second)
    });
    let mut run = PhaseRun {
        started: start,
        outcomes: Vec::new(),
        kept: Vec::new(),
        peak_in_flight: 0,
    };
    for part in [r0, r1] {
        run.outcomes.extend(part.outcomes);
        run.kept.extend(part.kept);
        run.peak_in_flight = run.peak_in_flight.max(part.peak_in_flight);
    }
    run
}

fn drive(
    conn: &mut Conn,
    requests: &[Request],
    start: Instant,
    open_loop: bool,
    deadline: f64,
) -> PhaseRun {
    let cap = if open_loop { MAX_IN_FLIGHT } else { 1 };
    let mut outcomes: Vec<Outcome> = requests
        .iter()
        .map(|r| Outcome {
            id: r.id,
            class: r.class,
            intended: f64::NAN,
            latency: f64::NAN,
            lag: 0.0,
            ok: false,
            done_at: f64::NAN,
        })
        .collect();
    let mut kept = Vec::new();
    let mut in_flight: VecDeque<(usize, f64)> = VecDeque::new();
    let mut peak = 0usize;
    let mut next = 0usize;
    let secs = |t: Instant| t.duration_since(start).as_secs_f64();
    'drive: loop {
        let mut now = secs(Instant::now());
        while next < requests.len()
            && in_flight.len() < cap
            && (!open_loop || requests[next].at <= now)
        {
            let intended = if open_loop { requests[next].at } else { now };
            outcomes[next].lag = now - intended;
            outcomes[next].intended = intended;
            if conn.stream.write_all(&requests[next].bytes).is_err() {
                break 'drive;
            }
            in_flight.push_back((next, intended));
            peak = peak.max(in_flight.len());
            next += 1;
            now = secs(Instant::now());
        }
        if next == requests.len() && in_flight.is_empty() {
            break;
        }
        if now > deadline {
            break;
        }
        let wait = if open_loop && next < requests.len() && in_flight.len() < cap {
            (requests[next].at - now).clamp(0.0, 0.05)
        } else {
            0.05
        };
        if conn.fill(Duration::from_secs_f64(wait)).is_err() {
            break;
        }
        let received = secs(Instant::now());
        loop {
            match conn.take_response() {
                Ok(Some(response)) => {
                    let Some((i, intended)) = in_flight.pop_front() else {
                        break 'drive; // an answer nobody asked for
                    };
                    let outcome = &mut outcomes[i];
                    outcome.latency = received - intended;
                    outcome.done_at = received;
                    outcome.ok = answer_matches(&requests[i].expect, &response);
                    if matches!(
                        requests[i].expect,
                        Expect::Forecast { compare: true, .. }
                            | Expect::Forecast { score: true, .. }
                    ) {
                        kept.push((requests[i].expect.clone(), response));
                    }
                }
                Ok(None) => break,
                Err(_) => break 'drive,
            }
        }
    }
    PhaseRun {
        started: start,
        outcomes,
        kept,
        peak_in_flight: peak,
    }
}

/// The cheap per-response check every request gets; kept forecasts get
/// the full bit-exact comparison afterwards.
#[must_use]
pub fn answer_matches(expect: &Expect, response: &[u8]) -> bool {
    if !response.starts_with(br#"{"ok":true"#) {
        return false;
    }
    match expect {
        Expect::Ok | Expect::Forecast { .. } => true,
        Expect::Counted { counted, closed } => {
            field_u64(response, b"\"counted\":") == Some(*counted)
                && closed
                    .is_none_or(|c| field_u64(response, b"\"closed_hours\":") == Some(u64::from(c)))
        }
    }
}

/// The unsigned integer after `key` in a flat JSON response.
fn field_u64(response: &[u8], key: &[u8]) -> Option<u64> {
    let at = response.windows(key.len()).position(|w| w == key)? + key.len();
    let digits: &[u8] = &response[at..];
    let end = digits
        .iter()
        .position(|b| !b.is_ascii_digit())
        .unwrap_or(digits.len());
    std::str::from_utf8(&digits[..end]).ok()?.parse().ok()
}
