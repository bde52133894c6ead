//! The closed-loop generator: a fixed set of connections, each sending its
//! next request only after the previous reply arrived. It never retries —
//! a shed or a timeout is recorded as such, never hidden as latency.

use crate::stream::KeySpec;
use mps_serve::protocol::Reply;
use mps_serve::Client;
use std::collections::HashSet;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// `ok`, served from the artifact cache.
    Hit,
    /// `ok`, compiled.
    Miss,
    /// `overloaded` error reply.
    Shed,
    /// `deadline` error reply.
    Deadline,
    /// `internal` error reply.
    Internal,
    /// Any other error reply.
    Error,
    /// No reply within the client timeout.
    Timeout,
    /// The connection failed or closed.
    Dropped,
}

impl Class {
    pub fn is_ok(self) -> bool {
        matches!(self, Class::Hit | Class::Miss)
    }
}

/// One request's record.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub id: u64,
    /// Client send → reply bytes, seconds.
    pub lat: f64,
    pub class: Class,
    /// The round of the run it was sent in.
    pub round: usize,
}

/// Everything one phase of requests produced.
#[derive(Default)]
pub struct PhaseLog {
    pub samples: Vec<Sample>,
    /// The first successful reply line seen for each key id.
    pub first_replies: Vec<(u64, String)>,
    /// `(key id, digest of the decision fields)` of every successful reply.
    pub digests: Vec<(u64, u64)>,
    /// A few error texts, for the diagnostics line.
    pub errors: Vec<String>,
    /// Wall time from the first send to the last reply, seconds.
    pub elapsed: f64,
    /// Request indices handed out (sent, or drawn just as the phase
    /// stopped); the next phase of the same stream starts here.
    pub issued: u64,
}

impl PhaseLog {
    pub fn count(&self, pred: impl Fn(Class) -> bool) -> usize {
        self.samples.iter().filter(|s| pred(s.class)).count()
    }

    pub fn latencies(&self, pred: impl Fn(Class) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| pred(s.class))
            .map(|s| s.lat)
            .collect()
    }

    /// Mark every sample as sent in round `r`.
    pub fn in_round(mut self, r: usize) -> PhaseLog {
        for s in &mut self.samples {
            s.round = r;
        }
        self
    }

    pub fn absorb(&mut self, other: PhaseLog) {
        self.samples.extend(other.samples);
        self.first_replies.extend(other.first_replies);
        self.digests.extend(other.digests);
        self.errors.extend(other.errors);
        self.elapsed += other.elapsed;
    }
}

/// Something a request line can be sent to.
pub trait Endpoint: Send {
    /// Send key `spec`, rendered as `line`.
    fn call(&mut self, spec: &KeySpec, line: &str) -> io::Result<String>;
}

/// A persistent TCP connection, redialed after a failure.
pub struct Tcp {
    addr: String,
    client: Option<Client>,
}

/// Reply read timeout of the load connections.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(20);

impl Tcp {
    pub fn connect(addr: &str) -> io::Result<Tcp> {
        let mut tcp = Tcp {
            addr: addr.to_string(),
            client: None,
        };
        tcp.client()?;
        Ok(tcp)
    }

    fn client(&mut self) -> io::Result<&mut Client> {
        if self.client.is_none() {
            let mut c = Client::connect(self.addr.as_str(), 0, Duration::ZERO)?;
            c.set_timeout(Some(CLIENT_TIMEOUT))?;
            self.client = Some(c);
        }
        Ok(self.client.as_mut().expect("just connected"))
    }

    pub fn send(&mut self, line: &str) -> io::Result<String> {
        let result = self.client().and_then(|c| c.send_line(line));
        if result.is_err() {
            self.client = None;
        }
        result
    }
}

impl Endpoint for Tcp {
    fn call(&mut self, _spec: &KeySpec, line: &str) -> io::Result<String> {
        self.send(line)
    }
}

/// When a phase ends.
#[derive(Clone, Copy)]
pub enum Stop {
    /// No new request after this instant.
    At(Instant),
    /// After this many requests (indices `0..n`).
    After(u64),
}

/// FNV-1a over the reply from `"patterns"` on: the decision fields, with
/// the per-request `cached` flag and latency left out.
pub fn decision_digest(reply: &str) -> u64 {
    let tail = reply.find("\"patterns\"").map_or(reply, |p| &reply[p..]);
    tail.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn classify(reply: &str) -> (Class, Option<String>) {
    if reply.starts_with("{\"ok\":true") {
        let class = if reply.contains("\"cached\":true") {
            Class::Hit
        } else {
            Class::Miss
        };
        return (class, None);
    }
    match Reply::from_line(reply) {
        Ok(Reply::Error(e)) => {
            let class = match e.code.as_deref() {
                Some("overloaded") => Class::Shed,
                Some("deadline") => Class::Deadline,
                Some("internal") => Class::Internal,
                _ => Class::Error,
            };
            (class, Some(e.error))
        }
        Ok(other) => (Class::Error, Some(format!("unexpected reply {other:?}"))),
        Err(e) => (Class::Error, Some(e)),
    }
}

/// Run one closed-loop phase: every endpoint gets its own thread, and the
/// threads share one request counter over `keys` (which returns `None`
/// past the end of a finite stream). Returns the log and the endpoints.
pub fn drive<E: Endpoint>(
    endpoints: Vec<E>,
    stop: Stop,
    keys: &(dyn Fn(u64) -> Option<KeySpec> + Sync),
) -> (PhaseLog, Vec<E>) {
    let next = AtomicU64::new(0);
    let log = Mutex::new(PhaseLog::default());
    let start = Instant::now();
    let endpoints = std::thread::scope(|s| {
        let handles: Vec<_> = endpoints
            .into_iter()
            .map(|mut ep| {
                let (next, log) = (&next, &log);
                s.spawn(move || {
                    let mut local = PhaseLog::default();
                    let mut seen = HashSet::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        match stop {
                            Stop::At(t) if Instant::now() >= t => break,
                            Stop::After(n) if i >= n => break,
                            _ => {}
                        }
                        let Some(spec) = keys(i) else { break };
                        let line = spec.line();
                        let t0 = Instant::now();
                        let result = ep.call(&spec, &line);
                        let lat = t0.elapsed().as_secs_f64();
                        let (class, error) = match result {
                            Ok(reply) => {
                                let (class, error) = classify(&reply);
                                if class.is_ok() {
                                    local.digests.push((spec.id, decision_digest(&reply)));
                                    if seen.insert(spec.id) {
                                        local.first_replies.push((spec.id, reply));
                                    }
                                }
                                (class, error)
                            }
                            Err(e)
                                if matches!(
                                    e.kind(),
                                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                                ) =>
                            {
                                (Class::Timeout, Some(e.to_string()))
                            }
                            Err(e) => (Class::Dropped, Some(e.to_string())),
                        };
                        if let Some(e) = error {
                            if local.errors.len() < 8 {
                                local.errors.push(e);
                            }
                        }
                        local.samples.push(Sample {
                            id: spec.id,
                            lat,
                            class,
                            round: 0,
                        });
                    }
                    log.lock().expect("phase log poisoned").absorb(local);
                    ep
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut log = log.into_inner().expect("phase log poisoned");
    log.elapsed = start.elapsed().as_secs_f64();
    log.issued = next.into_inner();
    (log, endpoints)
}
