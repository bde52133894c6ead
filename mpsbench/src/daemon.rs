//! `mps serve` daemons as child processes, and what `/proc` says about them.

use mps_serve::protocol::{Reply, Request, StatsReply};
use mps_serve::Client;
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How a daemon is launched.
#[derive(Clone, Debug, Default)]
pub struct DaemonOpts {
    pub cache_dir: Option<PathBuf>,
    /// `(advertise, peers)` for a fleet member.
    pub fleet: Option<(String, Vec<String>)>,
    /// `(max artifacts, max tables)` cache budgets.
    pub budgets: Option<(usize, usize)>,
}

/// One running `mps serve`; killed and reaped on drop if still alive.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

/// Free loopback ports, held open together so they differ, then released
/// for the daemons to bind.
pub fn free_ports(n: usize) -> io::Result<Vec<u16>> {
    let held: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0"))
        .collect::<io::Result<_>>()?;
    held.iter().map(|l| Ok(l.local_addr()?.port())).collect()
}

impl Daemon {
    /// Launch `mps serve` on `port` with two workers.
    pub fn spawn(mps: &Path, port: u16, opts: &DaemonOpts) -> io::Result<Daemon> {
        let mut cmd = Command::new(mps);
        cmd.args(["serve", "--port", &port.to_string(), "--workers", "2"]);
        if let Some(dir) = &opts.cache_dir {
            cmd.arg("--cache-dir").arg(dir);
        }
        if let Some((artifacts, tables)) = opts.budgets {
            cmd.args(["--max-artifacts", &artifacts.to_string()]);
            cmd.args(["--max-tables", &tables.to_string()]);
        }
        if let Some((advertise, peers)) = &opts.fleet {
            cmd.args(["--advertise", advertise]);
            for p in peers {
                cmd.args(["--peer", p]);
            }
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null());
        cmd.env_remove("MPS_THREADS");
        for (k, _) in std::env::vars() {
            if k.starts_with("MPS_FAULT") {
                cmd.env_remove(k);
            }
        }
        Ok(Daemon {
            child: cmd.spawn()?,
            addr: format!("127.0.0.1:{port}"),
        })
    }

    /// Block until the daemon answers `ping` (dialing every millisecond).
    pub fn wait_ready(&mut self, limit: Duration) -> io::Result<()> {
        let start = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait()? {
                return Err(io::Error::other(format!("daemon exited early: {status}")));
            }
            if let Ok(stream) = TcpStream::connect(&self.addr) {
                drop(stream);
                let mut c = self.control()?;
                if matches!(c.request(&Request::op("ping"))?, Reply::Pong(_)) {
                    return Ok(());
                }
            }
            if start.elapsed() > limit {
                return Err(io::Error::other(format!(
                    "daemon {} never came up",
                    self.addr
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A fresh control connection (stats, shutdown — never used for load).
    pub fn control(&self) -> io::Result<Client> {
        let mut c = Client::connect(self.addr.as_str(), 0, Duration::ZERO)?;
        c.set_timeout(Some(Duration::from_secs(30)))?;
        Ok(c)
    }

    pub fn stats(&self) -> io::Result<StatsReply> {
        self.control()?.stats()
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `(utime + stime)` in seconds, dead threads included.
    pub fn cpu_seconds(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        let rest = stat
            .rsplit_once(')')
            .map(|(_, r)| r)
            .ok_or_else(|| io::Error::other("unparseable /proc stat"))?;
        // Fields after the command name start at field 3 (state), so
        // utime (14) and stime (15) sit at indices 11 and 12.
        let f: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            f.get(i)
                .and_then(|s| s.parse::<f64>().ok())
                .ok_or_else(|| io::Error::other("short /proc stat"))
        };
        Ok((ticks(11)? + ticks(12)?) / CLOCK_TICKS)
    }

    /// Peak resident set (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Ask the daemon to shut down and reap it.
    pub fn shutdown(mut self) -> io::Result<()> {
        let asked = self.control().and_then(|mut c| c.shutdown());
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if self.child.try_wait()?.is_some() {
                return asked;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(io::Error::other(format!(
            "daemon {} ignored shutdown",
            self.addr
        )))
    }
}

/// Linux's user-visible clock tick rate (`sysconf(_SC_CLK_TCK)`), fixed at
/// 100 on every mainstream architecture.
const CLOCK_TICKS: f64 = 100.0;

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
