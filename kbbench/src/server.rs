//! The server under test: a `patternkb-cli serve` child process, a
//! minimal keep-alive HTTP client, and the `/metrics` scrape.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a boot may take before the run is abandoned.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `patternkb-cli serve` process. Dropping it kills the process
/// and waits for it, so no error path leaves a server behind.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    /// `ip:port` the server listens on.
    pub addr: String,
    /// From spawn until the `listening on` line.
    pub setup: Duration,
    cli: PathBuf,
    args: Vec<String>,
}

impl Server {
    /// Spawn `cli serve <args> --addr 127.0.0.1:0` and wait for its
    /// `listening on` line.
    pub fn spawn(cli: &Path, args: &[String]) -> Result<Server, String> {
        let t0 = Instant::now();
        let mut child = Command::new(cli)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {cli:?}: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        // The boot line arrives on a helper thread so a hung boot times
        // out instead of blocking forever.
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut line = String::new();
            let got = stdout.read_line(&mut line).map(|_| line);
            let _ = tx.send(got);
            stdout
        });
        let line = match rx.recv_timeout(BOOT_TIMEOUT) {
            Ok(Ok(line)) => line,
            other => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return Err(format!("server did not boot: {other:?}"));
            }
        };
        let setup = t0.elapsed();
        let stdout = reader.join().map_err(|_| "boot reader panicked")?;
        let Some(addr) = line.trim().strip_prefix("listening on http://") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("unexpected boot line {line:?}"));
        };
        Ok(Server {
            addr: addr.to_string(),
            child,
            _stdout: stdout,
            setup,
            cli: cli.to_path_buf(),
            args: args.to_vec(),
        })
    }

    /// `kill -9` the process (a crash: nothing is flushed or drained),
    /// then start the same command again on the same data directory.
    pub fn respawn_after_crash(mut self) -> Result<Server, String> {
        self.child.kill().map_err(|e| format!("kill: {e}"))?;
        self.child.wait().map_err(|e| format!("wait: {e}"))?;
        Server::spawn(&self.cli, &self.args)
    }

    /// Peak resident set (`VmHWM`) of the server process, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read the server's status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in the server's status".to_string())
    }

    /// Parse `GET /metrics` into `series → value` (labels kept in the key).
    pub fn metrics(&self) -> Result<HashMap<String, f64>, String> {
        let mut c = Client::connect(&self.addr).map_err(|e| format!("metrics: {e}"))?;
        let (status, body) = c
            .request("GET", "/metrics", "")
            .map_err(|e| format!("metrics: {e}"))?;
        if status != 200 {
            return Err(format!("metrics: HTTP {status}"));
        }
        Ok(body
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (k, v) = l.rsplit_once(' ')?;
                Some((k.to_string(), v.parse().ok()?))
            })
            .collect())
    }

    /// Graceful shutdown through `POST /admin/shutdown`; waits for exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.request("POST", "/admin/shutdown", "");
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("server did not shut down".into()),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Restrict the calling thread, and every thread and process it starts
/// afterwards, to the lowest CPU it may run on; returns that CPU.
///
/// Load generator and server then share one CPU, so a closed loop's
/// request and reply never wait for the host to schedule a second vCPU.
/// On a shared two-vCPU VM that wait, not the program, set the numbers:
/// the same `hot-repeat` run gave 1 900–2 500 searches/s across two
/// vCPUs and 3 800–4 200 on one, in the same minutes.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: glibc's wrapper writes at most `size` bytes into `mask`,
    // which is `size` bytes long; pid 0 is the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..mask.len() * 64)
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("no CPU in this process's affinity mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes from `one`, which is that long.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Minimal keep-alive HTTP/1.1 client.
pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Client {
    /// Connect with Nagle off.
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    /// `POST path` with a JSON body; returns the status and the body.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<(u16, String)> {
        self.request("POST", path, body)
    }

    /// One request/response exchange.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> std::io::Result<(u16, String)> {
        let msg = format!(
            "{method} {path} HTTP/1.1\r\nhost: kbbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        self.stream.write_all(msg.as_bytes())?;
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            self.fill()?;
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_string());
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no content-length"))?;
        let start = head_end + 4;
        while self.buf.len() < start + len {
            self.fill()?;
        }
        let reply = String::from_utf8_lossy(&self.buf[start..start + len]).to_string();
        self.buf.drain(..start + len);
        Ok((status, reply))
    }

    fn fill(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16384];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }
}

/// Total size of the regular files under `dir`, in MiB.
pub fn dir_mb(dir: &Path) -> Result<f64, String> {
    let mut total = 0u64;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("cannot list {dir:?}: {e}"))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| format!("cannot stat in {dir:?}: {e}"))?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total as f64 / (1024.0 * 1024.0))
}
