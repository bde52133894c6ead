//! A minimal line-oriented client for the serve protocol, used by
//! `mps client`, the integration tests and the serving benches.
//!
//! Beyond the plain request/reply round trip, the client carries the
//! retry half of the server's load-shedding contract:
//! [`Client::request_with_backoff`] retries `overloaded` sheds with
//! jittered exponential backoff (honoring the server's
//! `retry_after_ms` hint when one is given) and transparently
//! reconnects when the server drops the connection mid-reply.

use crate::protocol::{Reply, Request, StatsReply};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

/// One connection to a compile server.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    peer: SocketAddr,
    timeout: Option<Duration>,
    jitter: u64,
}

impl Client {
    /// Connect, retrying `retries` times with `delay` between attempts —
    /// the server may still be binding when a script races it up.
    pub fn connect<A: ToSocketAddrs + Copy>(
        addr: A,
        retries: u32,
        delay: Duration,
    ) -> io::Result<Client> {
        let mut last = None;
        for attempt in 0..=retries {
            match TcpStream::connect(addr) {
                Ok(stream) => return Client::from_stream(stream),
                Err(e) => {
                    last = Some(e);
                    if attempt < retries {
                        std::thread::sleep(delay);
                    }
                }
            }
        }
        Err(last.unwrap_or_else(|| io::Error::other("no connect attempt made")))
    }

    /// Connect with a per-dial timeout and no retries — the fleet
    /// forwarding path, where a dead peer must fail fast rather than
    /// hang a compile behind the OS connect timeout.
    pub fn connect_timeout(addr: &SocketAddr, timeout: Duration) -> io::Result<Client> {
        Client::from_stream(TcpStream::connect_timeout(addr, timeout)?)
    }

    fn from_stream(stream: TcpStream) -> io::Result<Client> {
        // Request/reply lines are tiny; without TCP_NODELAY the
        // Nagle/delayed-ACK interaction adds ~40 ms per round
        // trip, dwarfing a cache-hit compile.
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let reader = BufReader::new(stream.try_clone()?);
        // Seed the backoff jitter from the wall clock — good enough to
        // decorrelate a burst of clients retrying the same shed.
        let jitter = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map_or(0x9e3779b9, |d| d.subsec_nanos() as u64 ^ d.as_secs());
        Ok(Client {
            writer: stream,
            reader,
            peer,
            timeout: None,
            jitter,
        })
    }

    /// Bound every read on this connection: a reply that takes longer
    /// than `timeout` fails with a timeout error instead of hanging the
    /// caller (`None` restores blocking reads).
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        self.writer.set_write_timeout(timeout)?;
        self.timeout = timeout;
        Ok(())
    }

    /// Drop the current connection and dial the same server again
    /// (used by the backoff path when the server cuts a connection).
    pub fn reconnect(&mut self) -> io::Result<()> {
        let fresh = Client::from_stream(TcpStream::connect(self.peer)?)?;
        let timeout = self.timeout;
        *self = fresh;
        if timeout.is_some() {
            self.set_timeout(timeout)?;
        }
        Ok(())
    }

    /// Send one raw request line, return the raw reply line.
    ///
    /// `UnexpectedEof` means the server closed the connection before any
    /// reply byte; a reply cut short (EOF or a read failure after part of
    /// it arrived, before its newline) is reported as `InvalidData`, so a
    /// caller can tell a request that was never answered from one that was
    /// cut mid-reply, and never takes a fragment for a whole reply.
    ///
    /// The line and its newline go out in one write: under `TCP_NODELAY`
    /// two writes can be two segments and two server wake-ups.
    pub fn send_line(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            Ok(_) if !reply.ends_with('\n') => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "server closed the connection mid-reply",
            )),
            Ok(_) => Ok(reply.trim_end().to_string()),
            Err(e) if !reply.is_empty() => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("connection failed mid-reply: {e}"),
            )),
            Err(e) => Err(e),
        }
    }

    /// Send a typed request, decode the typed reply.
    pub fn request(&mut self, req: &Request) -> io::Result<Reply> {
        let line = self.send_line(&req.to_line())?;
        Reply::from_line(&line).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Send a typed request, retrying `overloaded` sheds and dropped
    /// connections up to `attempts` times.
    ///
    /// Sheds wait the server's `retry_after_ms` hint when present,
    /// otherwise a jittered exponential backoff starting at `backoff`
    /// (each retry doubles the base, with up to 50% random jitter so a
    /// burst of shed clients doesn't re-arrive in lockstep). I/O
    /// failures (connection cut mid-reply, read timeout) reconnect
    /// before retrying. Any other reply — success *or* error — is
    /// returned as-is; only the transient conditions retry.
    ///
    /// When the request carries a `deadline_ms`, the whole retry loop
    /// shares that wall-clock budget: backoff sleeps are clipped to the
    /// time remaining and retries stop once the budget is spent, so a
    /// client never sleeps past the moment the answer stopped
    /// mattering. (Before this, `attempts` × exponential backoff could
    /// keep a 250 ms-deadline caller waiting for many seconds.) A loop
    /// that dies on the budget while holding a shed reply returns that
    /// reply rather than an I/O error — the server *did* answer, and
    /// its structured `overloaded` verdict (with the retry hint) is the
    /// caller's most informative outcome.
    pub fn request_with_backoff(
        &mut self,
        req: &Request,
        attempts: u32,
        backoff: Duration,
    ) -> io::Result<Reply> {
        let expiry = req
            .deadline_ms
            .map(|ms| std::time::Instant::now() + Duration::from_millis(ms));
        let mut wait = backoff.max(Duration::from_millis(1));
        let mut last_err: Option<io::Error> = None;
        let mut last_shed: Option<Reply> = None;
        for attempt in 0..attempts.max(1) {
            if attempt > 0 {
                let mut sleep = self.jittered(wait);
                if let Some(expiry) = expiry {
                    let left = expiry.saturating_duration_since(std::time::Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    sleep = sleep.min(left);
                }
                std::thread::sleep(sleep);
                wait = wait.saturating_mul(2);
            }
            match self.request(req) {
                Ok(Reply::Error(e)) if e.code.as_deref() == Some("overloaded") => {
                    if let Some(hint) = e.retry_after_ms {
                        wait = Duration::from_millis(hint.max(1));
                    }
                    last_err = Some(io::Error::other(format!(
                        "server overloaded after {} attempts",
                        attempt + 1
                    )));
                    last_shed = Some(Reply::Error(e));
                }
                Ok(reply) => return Ok(reply),
                Err(e) => {
                    // The far side may have cut the connection (chaos
                    // drop-reply, shutdown race): redial before retrying.
                    last_err = Some(e);
                    let _ = self.reconnect();
                }
            }
        }
        if expiry.is_some() {
            if let Some(reply) = last_shed {
                return Ok(reply);
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::other("no request attempt made")))
    }

    /// `wait` stretched by up to 50% of itself, pseudo-randomly
    /// (splitmix64 over a wall-clock seed — no RNG dependency).
    fn jittered(&mut self, wait: Duration) -> Duration {
        self.jitter = self.jitter.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.jitter;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        wait + wait.mul_f64((z % 1000) as f64 / 2000.0)
    }

    /// `stats` convenience.
    pub fn stats(&mut self) -> io::Result<StatsReply> {
        match self.request(&Request::op("stats"))? {
            Reply::Stats(stats) => Ok(*stats),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected stats reply, got {other:?}"),
            )),
        }
    }

    /// `shutdown` convenience; the server acknowledges, then drains and
    /// exits.
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.request(&Request::op("shutdown"))? {
            Reply::Shutdown(_) => Ok(()),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected shutdown ack, got {other:?}"),
            )),
        }
    }
}
