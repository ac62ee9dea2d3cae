//! The daemon: a TCP accept loop feeding a bounded worker pool.
//!
//! Each accepted connection carries exactly one AIONSRV/1 request (see
//! [`protocol`](crate::protocol)): a worker reads the command line,
//! dispatches against the shared [`Registry`], and writes the response
//! lines. `feed` requests hand the connection's remaining byte stream to
//! [`aion_io::open_sniffed_stream`], so histories flow straight from the
//! socket into the checker with bounded memory — the daemon never
//! buffers a history.
//!
//! The pool is intentionally small and fixed: checking is CPU-bound and
//! per-session serialized (a busy session answers `busy` rather than
//! queueing), so a handful of workers saturates the machine while
//! keeping admission decisions simple.

use crate::protocol::{err_line, event_line, ok_line, Command, JsonLine};
use crate::registry::Registry;
use crate::ServeError;
use aion_io::{open_sniffed_stream, ReaderOptions};
use crossbeam::channel;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port `0` picks a free port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Soft admission ceiling (bytes of estimated checker state across
    /// all sessions): feeds continue but responses carry
    /// `"pressure":"soft"`.
    pub soft_limit_bytes: usize,
    /// Hard admission ceiling: feeds are refused with a typed
    /// `backpressure` error until memory drains.
    pub hard_limit_bytes: usize,
    /// Evict sessions idle longer than this many milliseconds (checked
    /// opportunistically as connections arrive). `None` disables idle
    /// eviction.
    pub idle_evict_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            soft_limit_bytes: 64 << 20,
            hard_limit_bytes: 256 << 20,
            idle_evict_ms: None,
        }
    }
}

/// A bound daemon, ready to [`run`](Server::run) or
/// [`spawn`](Server::spawn).
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    registry: Arc<Registry>,
    cfg: ServeConfig,
    shutdown: Arc<AtomicBool>,
}

/// A running daemon spawned on a background thread.
pub struct ServerHandle {
    addr: SocketAddr,
    thread: thread::JoinHandle<std::io::Result<()>>,
}

impl ServerHandle {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the serve loop to exit (after a `shutdown` request).
    pub fn join(self) -> std::io::Result<()> {
        self.thread.join().unwrap_or_else(|_| Err(std::io::Error::other("serve loop panicked")))
    }
}

impl Server {
    /// Bind the listener. No connections are accepted until
    /// [`run`](Server::run)/[`spawn`](Server::spawn).
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        // Resolve the real address once, while `bind` can still report
        // failure — `local_addr` stays infallible (and panic-free).
        let addr = listener.local_addr()?;
        let mut registry = Registry::new(cfg.soft_limit_bytes, cfg.hard_limit_bytes);
        if let Some(ms) = cfg.idle_evict_ms {
            registry = registry.with_idle_eviction(ms);
        }
        let registry = Arc::new(registry);
        Ok(Server { listener, addr, registry, cfg, shutdown: Arc::new(AtomicBool::new(false)) })
    }

    /// The bound address (with the real port when `addr` asked for 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared session registry (exposed for embedding and tests).
    pub fn registry(&self) -> Arc<Registry> {
        self.registry.clone()
    }

    /// Run the accept loop on this thread until a `shutdown` request.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.local_addr();
        #[expect(
            clippy::disallowed_methods,
            reason = "the daemon's accept loop hands real TCP connections to OS worker threads; \
                      this boundary is outside the DST scheduler by design (DST drives the \
                      registry directly instead)"
        )]
        let (tx, rx) = channel::unbounded::<TcpStream>();
        let mut pool = Vec::new();
        for i in 0..self.cfg.workers.max(1) {
            let rx = rx.clone();
            let registry = self.registry.clone();
            let shutdown = self.shutdown.clone();
            #[expect(
                clippy::disallowed_methods,
                reason = "OS worker threads for real TCP connections; see the channel note above"
            )]
            let worker =
                thread::Builder::new().name(format!("aion-serve-worker-{i}")).spawn(move || {
                    while let Ok(stream) = rx.recv() {
                        // A broken connection must not take the
                        // worker (or any other tenant) down.
                        let _ = handle_conn(stream, &registry, &shutdown, addr);
                    }
                })?;
            pool.push(worker);
        }
        for stream in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            // Opportunistic idle-session reclaim: piggyback on incoming
            // traffic so an otherwise-quiet daemon needs no timer thread.
            self.registry.evict_idle();
            match stream {
                Ok(s) => {
                    if tx.send(s).is_err() {
                        break;
                    }
                }
                Err(_) => continue,
            }
        }
        drop(tx);
        for worker in pool {
            let _ = worker.join();
        }
        Ok(())
    }

    /// Run the accept loop on a background thread. Fails only if the OS
    /// refuses the accept-loop thread itself.
    pub fn spawn(self) -> std::io::Result<ServerHandle> {
        let addr = self.local_addr();
        let builder = thread::Builder::new().name("aion-serve-accept".into());
        #[expect(
            clippy::disallowed_methods,
            reason = "the accept loop is real network I/O; DST exercises the registry in-process instead"
        )]
        let thread = builder.spawn(move || self.run())?;
        Ok(ServerHandle { addr, thread })
    }
}

/// Serve one connection: one command line, one response stream.
fn handle_conn(
    stream: TcpStream,
    registry: &Registry,
    shutdown: &AtomicBool,
    addr: SocketAddr,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut out = BufWriter::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    let reply = match Command::parse(&line) {
        Err(e) => err_line(&e),
        Ok(cmd) => match dispatch(cmd, reader, &mut out, registry, shutdown, addr) {
            Ok(line) => line,
            Err(e) => err_line(&e),
        },
    };
    writeln!(out, "{reply}")?;
    out.flush()
}

/// Execute one parsed command, returning the terminal line. Event lines
/// for `feed` are written to `out` as they happen.
fn dispatch(
    cmd: Command,
    reader: BufReader<TcpStream>,
    out: &mut BufWriter<TcpStream>,
    registry: &Registry,
    shutdown: &AtomicBool,
    addr: SocketAddr,
) -> Result<String, ServeError> {
    Ok(match cmd {
        Command::Open { session, params } => {
            let checker = registry.open(&session, &params)?;
            ok_line("open").str("session", &session).str("checker", checker).render()
        }
        Command::Feed { session, events } => {
            // Fail fast on unknown sessions, before consuming the stream.
            if !registry.exists(&session) {
                return Err(ServeError::UnknownSession(session));
            }
            let opts = ReaderOptions { strict: false, kind_hint: None };
            let (format, mut hist) = open_sniffed_stream(reader, opts)?;
            let summary = registry.feed(&session, hist.as_mut(), |evs| {
                if events {
                    for e in evs {
                        writeln!(out, "{}", event_line(e)).map_err(ServeError::Io)?;
                    }
                    // Stream promptly: clients tail verdicts in real
                    // time, they don't wait for the feed to end.
                    out.flush().map_err(ServeError::Io)?;
                }
                Ok(())
            })?;
            ok_line("feed")
                .str("session", &session)
                .str("format", format.label())
                .int("txns", summary.txns)
                .int("events", summary.events)
                .int("violations", summary.violations)
                .int("memory_bytes", summary.memory_bytes as u64)
                .str("pressure", if summary.soft_pressure { "soft" } else { "none" })
                .render()
        }
        Command::Finish { session } => {
            let (outcome, txns) = registry.finish(&session)?;
            ok_line("finish")
                .str("session", &session)
                .str("checker", outcome.checker)
                .str("verdict", &aion_io::verdict_of(&outcome))
                .bool("valid", outcome.is_ok())
                .int("txns", txns)
                .int("violations", outcome.report.violations.len() as u64)
                .int("finalized", outcome.stats.finalized as u64)
                .int("flips", outcome.flips.total_flips)
                .render()
        }
        Command::Checkpoint { session, path } => {
            let (kind, bytes) = registry.checkpoint(&session, &path)?;
            ok_line("checkpoint")
                .str("session", &session)
                .str("path", &path)
                .str("kind", kind)
                .int("bytes", bytes as u64)
                .render()
        }
        Command::Restore { session, path, shards } => {
            let checker = registry.restore(&session, &path, shards)?;
            ok_line("restore").str("session", &session).str("checker", checker).render()
        }
        Command::Stats { session } => {
            let info = registry.stats(&session)?;
            session_fields(ok_line("stats"), &info)
                .int("total_memory_bytes", registry.total_memory_bytes() as u64)
                .render()
        }
        Command::List => {
            let sessions: Vec<String> = registry
                .list()
                .iter()
                .map(|i| session_fields(JsonLine::new(), i).render())
                .collect();
            ok_line("list")
                .raw("sessions", format!("[{}]", sessions.join(",")))
                .int("total_memory_bytes", registry.total_memory_bytes() as u64)
                .render()
        }
        Command::Ping => ok_line("ping").render(),
        Command::Shutdown => {
            shutdown.store(true, Ordering::SeqCst);
            // Poke the accept loop so it observes the flag even with no
            // further client traffic.
            let _ = TcpStream::connect(addr);
            ok_line("shutdown").render()
        }
    })
}

fn session_fields(line: JsonLine, info: &crate::registry::SessionInfo) -> JsonLine {
    line.str("session", &info.name)
        .str("checker", &info.checker)
        .int("txns", info.txns)
        .int("events", info.events)
        .int("violations", info.violations)
        .int("memory_bytes", info.memory_bytes as u64)
}
