//! The daemon under test and the one closed-loop connection that drives it.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;

use tc_core::ShardedClosure;
use tc_server::{Dict, Engine, EngineConfig, Server, ServerConfig};

/// A `tc-server` daemon on an ephemeral localhost port, started exactly as
/// `interval-tc serve --listen` starts it.
pub struct Daemon {
    server: Server,
}

impl Daemon {
    pub fn start(closure: ShardedClosure, dict: Dict) -> Daemon {
        let engine = Engine::start(closure, dict, EngineConfig::default());
        let server = Server::start(engine, "127.0.0.1:0", ServerConfig::default())
            .expect("bind an ephemeral localhost port");
        Daemon { server }
    }

    pub fn connect(&self) -> Conn {
        Conn::connect(&self.server.addr().to_string())
    }

    pub fn engine(&self) -> &Arc<Engine> {
        self.server.engine()
    }

    /// Stops the daemon; a handler panic caught during the run is an error.
    pub fn stop(self) -> Result<(), String> {
        let panics = self.server.caught_panics();
        self.server.stop()?;
        if panics > 0 {
            return Err(format!("{panics} request handler panic(s) caught"));
        }
        Ok(())
    }
}

/// One client connection. Each request goes out in a single `write` and
/// the caller waits for its response line before sending the next: callers
/// of this daemon wait for every reply, so the benchmark never pipelines.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: Vec<u8>,
}

impl Conn {
    fn connect(addr: &str) -> Conn {
        let writer = TcpStream::connect(addr).expect("connect to the daemon");
        writer
            .set_nodelay(true)
            .expect("set TCP_NODELAY on the client socket");
        let reader = BufReader::new(writer.try_clone().expect("clone the client socket"));
        Conn {
            writer,
            reader,
            line: Vec::with_capacity(256),
        }
    }

    /// Sends `request` (terminator included) and returns the response line
    /// without its terminator. An I/O failure is reported as an `err` line
    /// so it is counted like any other failed request.
    pub fn call(&mut self, request: &[u8]) -> &[u8] {
        self.line.clear();
        let io = self
            .writer
            .write_all(request)
            .and_then(|()| self.reader.read_until(b'\n', &mut self.line));
        match io {
            Ok(n) if n > 0 && self.line.last() == Some(&b'\n') => {
                self.line.pop();
                &self.line
            }
            Ok(_) => b"err io connection closed",
            Err(_) => b"err io socket error",
        }
    }
}
