//! The TCP daemon: accept loop plus one thread per connection.
//!
//! Robustness rules, in order of appearance:
//!
//! * a connection that sends a line longer than [`MAX_LINE`] gets
//!   `err oversized` and the excess is drained — the connection survives;
//! * a line that is not UTF-8 gets `err utf8`;
//! * EOF in the middle of a line (a half-closed socket) gets a best-effort
//!   `err truncated` before the handler closes its side;
//! * a panic inside one request's handler is caught, answered with
//!   `err internal`, and neither the connection nor the daemon dies;
//! * a panic in the accept loop itself is caught and the loop continues.
//!
//! Connection threads are deliberately detached: the per-request
//! `catch_unwind` already contains failures, and the daemon's lifetime is
//! controlled by [`Server::stop`] / the `shutdown` verb, not by joining
//! readers.

use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::engine::Engine;
use crate::proto::{ProtoError, MAX_LINE};

/// Daemon knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Longest accepted request line (bytes, newline included).
    pub max_line: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { max_line: MAX_LINE }
    }
}

/// Counters the accept loop and handlers keep.
#[derive(Debug, Default)]
struct Counters {
    connections: AtomicU64,
    requests: AtomicU64,
    caught_panics: AtomicU64,
}

/// A running daemon. Dropping the handle does *not* stop the daemon; call
/// [`Server::stop`] (or send the `shutdown` verb and let the accept loop
/// notice the closed engine).
pub struct Server {
    addr: SocketAddr,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// accepting connections against `engine`.
    pub fn start(
        engine: Arc<Engine>,
        addr: &str,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let accept_engine = Arc::clone(&engine);
        let accept_stop = Arc::clone(&stop);
        let accept_counters = Arc::clone(&counters);
        let accept_thread = std::thread::Builder::new()
            .name("tc-accept".into())
            .spawn(move || {
                accept_loop(listener, accept_engine, accept_stop, accept_counters, config)
            })
            .expect("spawn accept loop");
        Ok(Server { addr: local, engine, stop, counters, accept_thread: Some(accept_thread) })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The engine this daemon serves.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// Requests handled so far.
    pub fn requests(&self) -> u64 {
        self.counters.requests.load(Ordering::Relaxed)
    }

    /// Handler panics caught (each answered with `err internal`).
    pub fn caught_panics(&self) -> u64 {
        self.counters.caught_panics.load(Ordering::Relaxed)
    }

    /// Closes the engine, stops the accept loop, and joins it. Existing
    /// connections drain on their own (every admitted write is already
    /// published by [`Engine::close`]). An accept loop that died of a panic
    /// is reported as `Err` — the caller decides the exit code; the engine
    /// is closed cleanly either way.
    pub fn stop(mut self) -> Result<(), String> {
        self.engine.close();
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept_thread.take() {
            if h.join().is_err() {
                return Err("accept loop panicked".into());
            }
        }
        Ok(())
    }
}

fn accept_loop(
    listener: TcpListener,
    engine: Arc<Engine>,
    stop: Arc<AtomicBool>,
    counters: Arc<Counters>,
    config: ServerConfig,
) {
    loop {
        if stop.load(Ordering::Acquire) || engine.is_closed() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                counters.connections.fetch_add(1, Ordering::Relaxed);
                // Every response is flushed on its own; with Nagle's
                // algorithm on, a pipelining client's delayed ACK would hold
                // back all but the first answer of each window. Failing to
                // set the option costs only that latency.
                let _ = stream.set_nodelay(true);
                let engine = Arc::clone(&engine);
                let counters = Arc::clone(&counters);
                let max_line = config.max_line;
                // Detached on purpose: per-request catch_unwind contains
                // failures, and an abandoned connection must never block
                // daemon shutdown.
                let spawned = std::thread::Builder::new().name("tc-conn".into()).spawn(
                    move || {
                        // Belt and braces: a panic on the connection thread
                        // outside the per-request guard (e.g. in the line
                        // reader) is still caught here so the thread dies
                        // quietly instead of aborting test harnesses.
                        let _ = catch_unwind(AssertUnwindSafe(|| {
                            serve_connection(stream, &engine, &counters, max_line)
                        }));
                    },
                );
                if spawned.is_err() {
                    eprintln!("tc-server: could not spawn connection thread");
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                eprintln!("tc-server: accept error: {e}");
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// What reading one line produced.
enum LineRead {
    /// A complete line (terminator stripped).
    Line(Vec<u8>),
    /// Clean EOF at a line boundary.
    Eof,
    /// EOF with a partial line buffered — the peer half-closed mid-request.
    TruncatedEof,
    /// The line exceeded `max_line`; the excess was drained.
    Oversized,
}

/// Reads one LF-terminated line, enforcing `max_line`. Carries its own
/// buffer so partial reads across calls keep working.
struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
    pending: Vec<u8>,
}

impl LineReader {
    fn read_line(&mut self, max_line: usize) -> std::io::Result<LineRead> {
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.pending.drain(..=pos).collect();
                line.pop(); // the LF
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return Ok(LineRead::Line(line));
            }
            if self.pending.len() > max_line {
                // Drain until the terminator (or EOF) so the connection can
                // continue at the next request boundary.
                loop {
                    if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                        self.pending.drain(..=pos);
                        return Ok(LineRead::Oversized);
                    }
                    self.pending.clear();
                    match self.stream.read(&mut self.buf) {
                        Ok(0) => return Ok(LineRead::Oversized),
                        Ok(n) => self.pending.extend_from_slice(&self.buf[..n]),
                        Err(e) => return Err(e),
                    }
                }
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => {
                    return Ok(if self.pending.is_empty() {
                        LineRead::Eof
                    } else {
                        LineRead::TruncatedEof
                    });
                }
                Ok(n) => self.pending.extend_from_slice(&self.buf[..n]),
                Err(e) => return Err(e),
            }
        }
    }
}

fn serve_connection(
    stream: TcpStream,
    engine: &Arc<Engine>,
    counters: &Counters,
    max_line: usize,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut out = BufWriter::new(write_half);
    let mut reader_state = LineReader { stream, buf: vec![0u8; 8 * 1024], pending: Vec::new() };
    let mut closure_reader = engine.reader();
    loop {
        let line = match reader_state.read_line(max_line) {
            Ok(LineRead::Line(l)) => l,
            Ok(LineRead::Eof) => return,
            Ok(LineRead::TruncatedEof) => {
                // Best effort: the peer may already be gone.
                let _ = writeln!(out, "{}", ProtoError::Truncated.line());
                let _ = out.flush();
                return;
            }
            Ok(LineRead::Oversized) => {
                counters.requests.fetch_add(1, Ordering::Relaxed);
                if writeln!(out, "{}", ProtoError::Oversized.line()).is_err()
                    || out.flush().is_err()
                {
                    return;
                }
                continue;
            }
            Err(_) => return,
        };
        counters.requests.fetch_add(1, Ordering::Relaxed);
        let response = match std::str::from_utf8(&line) {
            Err(_) => ProtoError::Utf8.line(),
            Ok(text) => {
                match catch_unwind(AssertUnwindSafe(|| engine.handle(&mut closure_reader, text))) {
                    Ok(resp) => resp,
                    Err(_) => {
                        counters.caught_panics.fetch_add(1, Ordering::Relaxed);
                        // The reader may be poisoned mid-query; replace it.
                        closure_reader = engine.reader();
                        ProtoError::Internal.line()
                    }
                }
            }
        };
        if writeln!(out, "{response}").is_err() || out.flush().is_err() {
            return;
        }
    }
}
