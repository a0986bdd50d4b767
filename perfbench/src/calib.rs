//! The host's speed, read from a fixed piece of work that no change to
//! the program can alter, so that figures taken at different speeds of
//! the host can be compared.
//!
//! The reference host (2 vCPUs of a shared machine) runs the same code
//! up to 1.8x slower in some stretches than in others; they last from a
//! fraction of a second to whole minutes, so two runs of the same code
//! can differ by that much. A fixed integer loop barely sees these
//! stretches, but system calls and the kernel's TCP path do, as does the
//! server's own work. The calibration is therefore a loopback TCP
//! exchange of the benchmark's own: one thread writes a 75-byte request
//! on one end of a connection, reads it at the other, writes a 258-byte
//! reply back and reads it (the sizes of the `authz-query` frames). Its
//! time per exchange, read on the CPU the server runs on just before and
//! after each measured window, tracks the window's cost per request
//! (`perfbench/NOTES.md` gives the measurements).

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Exchanges timed per reading.
pub const EXCHANGES: usize = 150;
/// µs per exchange on the reference host in its fast stretches: the
/// speed that scaled figures are reported at.
pub const REFERENCE_US: f64 = 6.0;
const REQUEST: [u8; 75] = [0x5a; 75];
const REPLY: [u8; 258] = [0xa5; 258];

pub struct Calibrator {
    client: TcpStream,
    server: TcpStream,
    buf: [u8; 258],
}

impl Calibrator {
    /// Connects the calibration's loopback pair.
    pub fn new() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let client = TcpStream::connect(listener.local_addr()?)?;
        let (server, _) = listener.accept()?;
        client.set_nodelay(true)?;
        server.set_nodelay(true)?;
        Ok(Self {
            client,
            server,
            buf: [0; 258],
        })
    }

    /// µs per exchange over [`EXCHANGES`] exchanges, on the calling
    /// thread's CPU.
    pub fn read(&mut self) -> f64 {
        let t = Instant::now();
        for _ in 0..EXCHANGES {
            self.exchange()
                .unwrap_or_else(|e| panic!("the calibration's loopback exchange failed: {e}"));
        }
        t.elapsed().as_secs_f64() * 1e6 / EXCHANGES as f64
    }

    fn exchange(&mut self) -> std::io::Result<()> {
        self.client.write_all(&REQUEST)?;
        self.server.read_exact(&mut self.buf[..REQUEST.len()])?;
        self.server.write_all(&REPLY)?;
        self.client.read_exact(&mut self.buf)
    }
}

/// `value` (a time or a cost) as it would read at the reference speed,
/// given the calibration readings `before` and `after` it.
pub fn scale(value: f64, before: f64, after: f64) -> f64 {
    value * REFERENCE_US / ((before + after) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_is_relative_to_the_reference_speed() {
        assert_eq!(scale(10.0, REFERENCE_US, REFERENCE_US), 10.0);
        assert_eq!(scale(10.0, 2.0 * REFERENCE_US, 2.0 * REFERENCE_US), 5.0);
    }

    #[test]
    fn a_reading_is_a_positive_time() {
        let mut c = Calibrator::new().expect("loopback");
        let us = c.read();
        assert!(us > 0.0 && us < 10_000.0, "{us} us per exchange");
    }
}
