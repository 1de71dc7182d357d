//! The system under test as a child process, and what `/proc` says about it.
//!
//! The load generator allocates documents, hashes payloads and wakes on
//! timers; measured in one process, all of that lands in the server's CPU
//! and memory numbers. So the server is this same binary re-executed as
//! `benchmark --serve`, and its cost is read from `/proc/<pid>/…`, where the
//! generator does not appear.

use crate::Result;
use ppt_runtime::{Runtime, TcpServer};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::SocketAddr;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The server's non-default `TcpServerBuilder` knobs (the whole list; every
/// result file records it). The engine defaults — 1 MiB chunks in 16 MiB
/// windows — are batch settings: no chunk would fold before 16 MiB arrived.
pub const CHUNK_SIZE: usize = 64 << 10;
pub const WINDOW_SIZE: usize = 256 << 10;
/// `treebank_multiquery` registers 192 queries on one connection; the
/// default cap is 64.
pub const MAX_QUERIES: usize = 256;

pub fn profile() -> String {
    format!(
        "reactor, workers=nproc, chunk_size={CHUNK_SIZE}, window_size={WINDOW_SIZE}, \
         max_queries={MAX_QUERIES}"
    )
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// `benchmark --serve`: binds a loopback port, prints it, serves until
/// stdin closes. A parent that dies without a word closes the pipe too, so
/// no server outlives its benchmark.
pub fn serve() -> Result<()> {
    let runtime = Arc::new(Runtime::builder().workers(nproc()).build());
    let server = TcpServer::builder()
        .chunk_size(CHUNK_SIZE)
        .window_size(WINDOW_SIZE)
        .max_queries(MAX_QUERIES)
        .bind("127.0.0.1:0", runtime)?;
    let mut out = std::io::stdout();
    writeln!(out, "{}", server.local_addr().port())?;
    out.flush()?;
    std::io::stdin().read_to_end(&mut Vec::new())?;
    server.shutdown();
    Ok(())
}

/// A running `--serve` child.
#[derive(Debug)]
pub struct ServerProc {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns the child and waits until it reports its port (= ready).
    pub fn spawn() -> Result<ServerProc> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut line = String::new();
        let read = match child.stdout.take() {
            Some(stdout) => BufReader::new(stdout).read_line(&mut line),
            None => Ok(0),
        };
        let mut server = ServerProc { child, stdin, addr: SocketAddr::from(([127, 0, 0, 1], 0)) };
        // From here on Drop reaps the child on every error path.
        read?;
        let port: u16 =
            line.trim().parse().map_err(|_| format!("server did not report a port: {line:?}"))?;
        server.addr.set_port(port);
        Ok(server)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes the child's stdin and waits for it to drain and exit.
    pub fn stop(mut self) -> Result<()> {
        drop(self.stdin.take());
        let status = self.child.wait()?;
        if !status.success() {
            return Err(format!("server exited with {status}").into());
        }
        Ok(())
    }

    /// CPU time the server's threads have used so far, in ms: the sum of
    /// `/proc/<pid>/task/*/schedstat` (nanoseconds on a core; the server's
    /// threads all live as long as it does), or, on a kernel without
    /// scheduler statistics, `/proc/<pid>/stat` in 10 ms ticks.
    pub fn cpu_ms(&self) -> Result<f64> {
        let mut on_cpu_ns = 0u64;
        for task in std::fs::read_dir(format!("/proc/{}/task", self.pid()))? {
            match std::fs::read_to_string(task?.path().join("schedstat")) {
                Ok(text) => on_cpu_ns += parse_schedstat_ns(&text).unwrap_or(0),
                // No scheduler statistics, or a thread that exited under us.
                Err(_) => {
                    let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
                    return parse_stat_cpu_ms(&stat)
                        .ok_or_else(|| "unparsable /proc/<pid>/stat".into());
                }
            }
        }
        Ok(on_cpu_ns as f64 / 1e6)
    }

    pub fn status(&self) -> Result<ProcStatus> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        parse_status(&status).ok_or_else(|| "unparsable /proc/<pid>/status".into())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // After `stop` both calls are no-ops on a reaped child.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Linux reports process times in `USER_HZ` ticks, 100 per second on every
/// architecture this workspace targets.
const MS_PER_TICK: f64 = 10.0;

/// `utime + stime` (fields 14 and 15) of a `/proc/<pid>/stat` line. The
/// command name (field 2) may itself hold spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_cpu_ms(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * MS_PER_TICK)
}

/// Time on a core: the first field of a `schedstat` line, in ns.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_ascii_whitespace().next()?.parse().ok()
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcStatus {
    pub rss_mib: f64,
    pub peak_rss_mib: f64,
    pub threads: u64,
}

pub fn parse_status(status: &str) -> Option<ProcStatus> {
    let field = |key: &str| -> Option<u64> {
        let rest = status.lines().find_map(|l| l.strip_prefix(key))?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    };
    Some(ProcStatus {
        rss_mib: field("VmRSS:")? as f64 / 1024.0,
        peak_rss_mib: field("VmHWM:")? as f64 / 1024.0,
        threads: field("Threads:")?,
    })
}

/// Samples the server's resident set every 100 ms on its own thread until
/// stopped. (Asleep but for ten `/proc` reads a second: it does not compete
/// with the server for a core.)
#[derive(Debug)]
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<Vec<f64>>,
}

impl RssSampler {
    pub fn start(pid: u32) -> RssSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let mut samples = Vec::new();
            // Acquire pairs with the Release store in `finish`.
            while !flag.load(Ordering::Acquire) {
                let status = std::fs::read_to_string(format!("/proc/{pid}/status"));
                if let Some(s) = status.ok().as_deref().and_then(parse_status) {
                    samples.push(s.rss_mib);
                }
                std::thread::sleep(Duration::from_millis(100));
            }
            samples
        });
        RssSampler { stop, thread }
    }

    pub fn finish(self) -> Result<Vec<f64>> {
        self.stop.store(true, Ordering::Release);
        self.thread.join().map_err(|_| "RSS sampler panicked".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_is_utime_plus_stime_even_with_a_hostile_command_name() {
        let stat = "4242 (bench) mark (x)) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    150 25 7 8 20 0 6 0 12345 99999 888 18446744073709551615";
        assert_eq!(parse_stat_cpu_ms(stat), Some(1750.0));
        assert_eq!(parse_stat_cpu_ms("no parenthesis here"), None);
        assert_eq!(parse_stat_cpu_ms("1 (x) S 1 2 3"), None);
    }

    #[test]
    fn schedstat_time_on_cpu_is_the_first_field() {
        assert_eq!(parse_schedstat_ns("1008189641 6104582 41\n"), Some(1_008_189_641));
        assert_eq!(parse_schedstat_ns(""), None);
    }

    #[test]
    fn status_fields_are_read_in_kib() {
        let status = "Name:\tbenchmark\nVmPeak:\t  99999 kB\nVmHWM:\t   51200 kB\n\
                      VmRSS:\t   40960 kB\nThreads:\t7\n";
        assert_eq!(
            parse_status(status),
            Some(ProcStatus { rss_mib: 40.0, peak_rss_mib: 50.0, threads: 7 })
        );
        assert_eq!(parse_status("Name:\tkthread\nThreads:\t1\n"), None);
    }

    #[test]
    fn own_proc_files_parse() {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_stat_cpu_ms(&stat).is_some());
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        assert!(parse_status(&status).unwrap().threads >= 1);
    }
}
