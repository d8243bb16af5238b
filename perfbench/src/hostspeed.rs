//! Host-speed probe and correction.
//!
//! On a shared host the CPU this benchmark is pinned to changes speed with
//! the load of other tenants: it flips between a fast and a slow mode
//! every 0.1-1 s, and the share of slow time (and slower spikes) changes
//! over tens of minutes. In the slow mode a loopback round trip takes
//! about 1.6-1.8x as long, as does any cache-resident memory walk, while
//! register-only arithmetic keeps its speed; over a noisy half hour every
//! workload's figures moved by 1.3-1.9x. The kernel counts none of it as
//! steal time, and the process's CPU time grows with its wall time, so
//! neither tells the speeds apart.
//!
//! The probe measures the host directly: a fixed number of loopback round
//! trips to an echo thread in this process, using no code of the program
//! under test, sampled between the workload's blocks while the daemon is
//! idle. Every time figure of a run is then scaled by
//! [`REFERENCE_RTT_NS`] over the run's mean probe round trip: the figure
//! the run would have shown on a host whose loopback round trip takes the
//! reference time. The raw figures are printed beside the scaled ones.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::Instant;

/// Loopback round trips per probe (about 2-3 ms).
const ROUND_TRIPS: usize = 200;

/// The loopback round trip the scaled figures assume: about the fast-mode
/// round trip of a 2-vCPU Xeon VM (8.5-10 us).
pub const REFERENCE_RTT_NS: f64 = 10_000.0;

pub struct Probe {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    echo: Option<JoinHandle<()>>,
    line: Vec<u8>,
    /// Probes taken and their summed time.
    probes: usize,
    total_ns: u64,
}

impl Probe {
    pub fn start() -> Probe {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind the probe's echo port");
        let addr = listener.local_addr().expect("probe echo address");
        let echo = std::thread::spawn(move || {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let mut out = stream.try_clone().expect("clone the probe socket");
            let mut input = BufReader::new(stream);
            let mut line = Vec::new();
            while matches!(input.read_until(b'\n', &mut line), Ok(n) if n > 0) {
                if out.write_all(&line).is_err() {
                    return;
                }
                line.clear();
            }
        });
        let writer = TcpStream::connect(addr).expect("connect to the probe's echo thread");
        writer.set_nodelay(true).expect("set TCP_NODELAY on the probe socket");
        let reader = BufReader::new(writer.try_clone().expect("clone the probe socket"));
        Probe {
            writer,
            reader,
            echo: Some(echo),
            line: Vec::with_capacity(64),
            probes: 0,
            total_ns: 0,
        }
    }

    /// Takes one probe and adds it to the run's record.
    pub fn measure(&mut self) {
        let t = Instant::now();
        for _ in 0..ROUND_TRIPS {
            self.line.clear();
            let ok = self
                .writer
                .write_all(b"reaches 12345 67890\n")
                .and_then(|()| self.reader.read_until(b'\n', &mut self.line));
            assert!(matches!(ok, Ok(n) if n > 0), "probe echo thread stopped");
        }
        self.probes += 1;
        self.total_ns += t.elapsed().as_nanos() as u64;
    }

    /// The mean loopback round trip (ns) over every probe taken so far.
    pub fn mean_rtt_ns(&self) -> f64 {
        self.total_ns as f64 / (self.probes * ROUND_TRIPS) as f64
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}
