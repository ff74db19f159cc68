//! TCP and stdin transports for the daemon.
//!
//! Backpressure lives here: every connection reads through a **bounded**
//! line accumulator ([`LineReader`]) with a read deadline, so a client that
//! stalls mid-line, never sends a newline, or floods one giant line cannot
//! pin a thread or grow memory — oversized lines degrade to a structured
//! warning and a skip-to-newline, stalls trip the idle timeout, and the
//! accept loop polls a shutdown flag so SIGTERM can stop admission
//! promptly.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::daemon::{Daemon, LineOutcome, Session, Sink};
use crate::protocol::Response;

/// Transport knobs (distinct from [`crate::daemon::DaemonConfig`], which is
/// about diagnosis).
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Hard cap on one protocol line; longer input is dropped to the next
    /// newline with a structured warning.
    pub max_line_bytes: usize,
    /// Read poll interval — also the latency bound on noticing shutdown.
    pub read_timeout_ms: u64,
    /// Close a connection that sends nothing for this long.
    pub idle_timeout_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { max_line_bytes: 64 * 1024, read_timeout_ms: 250, idle_timeout_ms: 30_000 }
    }
}

/// What one [`LineReader::next_line`] poll produced.
#[derive(Debug, PartialEq)]
pub enum ReadEvent {
    /// A complete line (without its newline).
    Line(String),
    /// No complete line yet; the read timed out (caller checks deadlines
    /// and shutdown, then polls again).
    WouldBlock,
    /// Peer closed the stream (any complete trailing data was already
    /// returned; a torn final fragment is discarded).
    Eof,
    /// A line exceeded the cap and was discarded up to the next newline.
    Oversize {
        /// Bytes discarded (so far) of the oversized line.
        dropped: usize,
    },
}

/// A bounded, deadline-friendly line accumulator over any [`Read`].
///
/// The buffer never grows past `max_line_bytes`: once a line crosses the
/// cap the reader switches to discard mode until the next newline and
/// reports the overflow instead of buffering it.
pub struct LineReader<R> {
    source: R,
    buf: Vec<u8>,
    pending: std::collections::VecDeque<ReadEvent>,
    max_line_bytes: usize,
    discarding: bool,
    discarded: usize,
}

impl<R: Read> LineReader<R> {
    /// Wrap `source` with a `max_line_bytes` cap (clamped to ≥ 16).
    pub fn new(source: R, max_line_bytes: usize) -> Self {
        LineReader {
            source,
            buf: Vec::new(),
            pending: std::collections::VecDeque::new(),
            max_line_bytes: max_line_bytes.max(16),
            discarding: false,
            discarded: 0,
        }
    }

    /// Pull the next event. Blocks at most one underlying read (which the
    /// transport bounds with a read timeout).
    pub fn next_line(&mut self) -> ReadEvent {
        if let Some(event) = self.pending.pop_front() {
            return event;
        }
        let mut chunk = [0u8; 4096];
        match self.source.read(&mut chunk) {
            Ok(0) => ReadEvent::Eof,
            Ok(n) => {
                #[allow(clippy::indexing_slicing, reason = "read() returns n <= chunk.len()")]
                self.ingest(&chunk[..n]);
                match self.pending.pop_front() {
                    Some(event) => event,
                    // Mid-discard with no completed events: keep the caller
                    // informed (it resets its idle timer, not the buffer).
                    None if self.discarding => ReadEvent::Oversize { dropped: self.discarded },
                    None => ReadEvent::WouldBlock,
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                ReadEvent::WouldBlock
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => ReadEvent::WouldBlock,
            Err(_) => ReadEvent::Eof,
        }
    }

    /// Split a chunk into complete-line / oversize events, never letting
    /// the internal buffer exceed the cap.
    fn ingest(&mut self, mut chunk: &[u8]) {
        while !chunk.is_empty() {
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    // `pos` indexes a found byte, so both splits are in
                    // bounds — split_at keeps that fact checker-visible.
                    let (head, rest) = chunk.split_at(pos);
                    if self.discarding {
                        self.discarded += pos;
                        self.pending.push_back(ReadEvent::Oversize { dropped: self.discarded });
                        self.discarding = false;
                        self.discarded = 0;
                    } else if self.buf.len() + pos > self.max_line_bytes {
                        self.pending
                            .push_back(ReadEvent::Oversize { dropped: self.buf.len() + pos });
                        self.buf.clear();
                    } else {
                        self.buf.extend_from_slice(head);
                        let line = String::from_utf8_lossy(&self.buf).into_owned();
                        self.pending.push_back(ReadEvent::Line(line));
                        self.buf.clear();
                    }
                    chunk = rest.get(1..).unwrap_or(&[]);
                }
                None => {
                    if self.discarding {
                        self.discarded += chunk.len();
                    } else if self.buf.len() + chunk.len() > self.max_line_bytes {
                        self.discarded = self.buf.len() + chunk.len();
                        self.buf.clear();
                        self.discarding = true;
                    } else {
                        self.buf.extend_from_slice(chunk);
                    }
                    return;
                }
            }
        }
    }
}

/// A sink writing rendered responses to a shared (mutex-guarded) writer.
/// A broken pipe must not take a worker down with it — but it must not
/// vanish either: every response lost to a failed write or flush ticks
/// `dropped` (surfaced daemon-wide as `dropped_responses` in `stats`).
pub fn writer_sink<W: Write + Send + 'static>(writer: W, dropped: Arc<AtomicU64>) -> Sink {
    let writer = Mutex::new(writer);
    Arc::new(move |response: &Response| {
        let mut guard = writer.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        // The mutex serializes *whole responses* onto one stream; releasing
        // it between write and flush would let concurrent workers interleave
        // partial frames. The transport's write timeout bounds how long a
        // stalled peer can pin the guard.
        // sherlock-lint: allow(guard-across-blocking): serialization contract — the guard must span the full framed write; the write timeout bounds the stall
        let wrote = guard.write_all(response.render().as_bytes());
        // sherlock-lint: allow(guard-across-blocking): same framed write; flush completes the frame before the guard drops
        let flushed = wrote.and_then(|()| guard.flush());
        drop(guard);
        if flushed.is_err() {
            dropped.fetch_add(1, Ordering::Relaxed);
        }
    })
}

/// Serve one established connection until quit, EOF, idle timeout, or
/// daemon shutdown. Returns the number of lines handled.
pub fn serve_connection(
    daemon: &Daemon,
    stream: TcpStream,
    cfg: &NetConfig,
    shutdown: &AtomicBool,
) -> usize {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(cfg.read_timeout_ms.max(1))));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(5_000)));
    let sink = match stream.try_clone() {
        Ok(writer) => writer_sink(writer, Arc::clone(&daemon.stats.dropped_responses)),
        Err(_) => return 0,
    };
    let mut session = Session::new(sink);
    let mut reader = LineReader::new(stream, cfg.max_line_bytes);
    let mut handled = 0usize;
    let idle = Duration::from_millis(cfg.idle_timeout_ms.max(1));
    let mut last_activity = Instant::now();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            (session.sink)(&Response::Error {
                code: "shutting-down",
                detail: "daemon is shutting down".into(),
            });
            return handled;
        }
        match reader.next_line() {
            ReadEvent::Line(line) => {
                last_activity = Instant::now();
                handled += 1;
                if daemon.handle_line(&mut session, &line) == LineOutcome::Quit {
                    return handled;
                }
            }
            ReadEvent::Oversize { dropped } => {
                last_activity = Instant::now();
                (session.sink)(&Response::Error {
                    code: "line-too-long",
                    detail: format!(
                        "line exceeded {} bytes ({dropped} dropped)",
                        cfg.max_line_bytes
                    ),
                });
            }
            ReadEvent::WouldBlock => {
                if last_activity.elapsed() >= idle {
                    (session.sink)(&Response::Error {
                        code: "idle-timeout",
                        detail: format!("no input for {}ms", cfg.idle_timeout_ms),
                    });
                    return handled;
                }
            }
            ReadEvent::Eof => return handled,
        }
    }
}

/// Accept loop: serve `listener` until `shutdown` flips, one thread per
/// connection. Returns the handles of still-running connection threads at
/// shutdown (they observe the flag within one read timeout).
pub fn serve(
    daemon: &Arc<Daemon>,
    listener: TcpListener,
    cfg: NetConfig,
    shutdown: &Arc<AtomicBool>,
) -> Vec<JoinHandle<()>> {
    let _ = listener.set_nonblocking(true);
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _addr)) => {
                let _ = stream.set_nonblocking(false);
                let daemon = Arc::clone(daemon);
                let cfg = cfg.clone();
                let shutdown = Arc::clone(shutdown);
                #[allow(
                    clippy::disallowed_methods,
                    reason = "one thread per connection; it exits within a read timeout of shutdown"
                )]
                let spawned = std::thread::Builder::new().name("sherlockd-conn".to_string()).spawn(
                    move || {
                        serve_connection(&daemon, stream, &cfg, &shutdown);
                    },
                );
                if let Ok(handle) = spawned {
                    handles.push(handle);
                }
                handles.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(25)),
        }
    }
    handles.retain(|h| !h.is_finished());
    handles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_reader_splits_and_carries_partials() {
        let data: &[u8] = b"one\ntwo\nthr";
        let mut reader = LineReader::new(data, 64);
        assert_eq!(reader.next_line(), ReadEvent::Line("one".into()));
        assert_eq!(reader.next_line(), ReadEvent::Line("two".into()));
        // Torn trailing fragment: EOF, fragment discarded.
        assert_eq!(reader.next_line(), ReadEvent::Eof);
    }

    #[test]
    fn line_reader_caps_oversized_lines() {
        let big = vec![b'x'; 100];
        let mut data = big.clone();
        data.push(b'\n');
        data.extend_from_slice(b"ok\n");
        let mut reader = LineReader::new(&data[..], 16);
        // The 100-byte line overflows the 16-byte cap -> discarded.
        let mut saw_oversize = false;
        loop {
            match reader.next_line() {
                ReadEvent::Oversize { dropped } => {
                    saw_oversize = true;
                    assert!(dropped >= 16);
                }
                ReadEvent::Line(line) => {
                    assert_eq!(line, "ok");
                    break;
                }
                ReadEvent::WouldBlock => {}
                ReadEvent::Eof => panic!("lost the trailing line"),
            }
        }
        assert!(saw_oversize);
    }

    #[test]
    fn line_reader_handles_invalid_utf8_lossily() {
        let data: &[u8] = b"a,\xff\xfe,b\n";
        let mut reader = LineReader::new(data, 64);
        match reader.next_line() {
            ReadEvent::Line(line) => assert!(line.contains('\u{fffd}')),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn writer_sink_survives_a_closed_writer() {
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _buf: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::new(ErrorKind::BrokenPipe, "gone"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let dropped = Arc::new(AtomicU64::new(0));
        let sink = writer_sink(Broken, Arc::clone(&dropped));
        sink(&Response::Bye); // must not panic
        assert_eq!(dropped.load(Ordering::Relaxed), 1, "the lost response must be counted");
        sink(&Response::Bye);
        assert_eq!(dropped.load(Ordering::Relaxed), 2);
    }
}
