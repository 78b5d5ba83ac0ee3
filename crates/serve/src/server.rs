//! The TCP front-end: a `std::net` listener thread dispatching
//! connections to worker threads, memcached-style.
//!
//! Graceful degradation is part of the contract, not an afterthought:
//!
//! * **Max-connections cap** — a connection beyond
//!   [`ServeConfig::max_connections`] is answered `SERVER_ERROR busy`
//!   and closed instead of being accepted unboundedly.
//! * **Per-connection read timeout** — a peer that goes silent
//!   mid-command is disconnected after [`ServeConfig::read_timeout`],
//!   so stalled or adversarial clients cannot pin worker threads.
//! * **Bounded buffering** — the parser's [`MAX_LINE_BYTES`] /
//!   [`MAX_VALUE_BYTES`] limits cap the per-connection receive buffer;
//!   framing-losing protocol errors answer in-band and close.
//!
//! [`MAX_LINE_BYTES`]: densekv_kv::protocol::MAX_LINE_BYTES
//! [`MAX_VALUE_BYTES`]: densekv_kv::protocol::MAX_VALUE_BYTES

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::BytesMut;
use parking_lot::Mutex;

use densekv_kv::protocol::{parse_command, render_error, Command, Parsed};
use densekv_kv::server::{resync_after_error, Disposition, WallClock};
use densekv_kv::store::StoreConfig;

use crate::metrics::{render_prometheus, MetricsConfig, RequestPhases, ServeMetrics, Verb};
use crate::shard::{BackendKind, ShardTiming, ShardedStore};

/// Read size per syscall in the connection loop.
const READ_CHUNK: usize = 16 << 10;

/// Configuration of one front-end instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind; port 0 picks an ephemeral port.
    pub addr: SocketAddr,
    /// Total store bytes, split evenly across `shards`.
    pub store_bytes: u64,
    /// Lock stripes: 1 = global lock (Memcached 1.4), more = striped.
    pub shards: usize,
    /// Connections served concurrently; the next one is told
    /// `SERVER_ERROR busy` and closed.
    pub max_connections: usize,
    /// How long a worker blocks waiting for the next bytes of a
    /// connection before disconnecting it. Also bounds shutdown
    /// latency: a worker notices the shutdown flag at least this often.
    pub read_timeout: Duration,
    /// The observability plane: per-verb latency histograms, span
    /// sampling, slow log. Disabled keeps the data path byte-identical.
    pub metrics: MetricsConfig,
    /// The store implementation behind every shard lock: the model
    /// store (default) or the tiered fixed-page engine.
    pub backend: BackendKind,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".parse().expect("literal addr"),
            store_bytes: 64 << 20,
            shards: 8,
            max_connections: 64,
            read_timeout: Duration::from_secs(2),
            metrics: MetricsConfig::default(),
            backend: BackendKind::default(),
        }
    }
}

impl ServeConfig {
    /// Localhost on an ephemeral port with defaults — what tests and
    /// the load-generation experiments want.
    #[must_use]
    pub fn ephemeral() -> Self {
        ServeConfig::default()
    }

    /// Defaults with every `DENSEKV_SERVE_*` environment override
    /// applied — how the bench bins pick up deployment knobs without
    /// growing a flag parser.
    #[must_use]
    pub fn from_env() -> Self {
        ServeConfig::default().env_overrides()
    }

    /// Sets the concurrent-connection cap.
    #[must_use]
    pub fn with_max_connections(mut self, max_connections: usize) -> Self {
        self.max_connections = max_connections;
        self
    }

    /// Sets the per-connection read timeout.
    #[must_use]
    pub fn with_read_timeout(mut self, read_timeout: Duration) -> Self {
        self.read_timeout = read_timeout;
        self
    }

    /// Sets the lock-stripe count.
    #[must_use]
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Replaces the observability configuration.
    #[must_use]
    pub fn with_metrics(mut self, metrics: MetricsConfig) -> Self {
        self.metrics = metrics;
        self
    }

    /// Sets the store implementation behind the shard locks.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> Self {
        self.backend = backend;
        self
    }

    /// Applies any `DENSEKV_SERVE_*` environment variables on top of
    /// this config: `MAX_CONNECTIONS`, `READ_TIMEOUT_MS`, `SHARDS`,
    /// `METRICS` (`0`/`1`), `SAMPLE_EVERY`, `SLOW_US`, `WINDOW_MS`,
    /// `SLO_US`, `SLO_TARGET`, and `BACKEND` (`model`/`engine`). Unset
    /// or unparseable values leave the current setting untouched.
    ///
    /// Pathological values are clamped to safe minimums rather than
    /// taken literally: a cap of 0 connections, 0 lock stripes, a 0 ms
    /// read timeout, sampling every 0th request, or a 0 ms window would
    /// each wedge or divide-by-zero a server that a typo'd deployment
    /// variable should merely misconfigure.
    #[must_use]
    pub fn env_overrides(mut self) -> Self {
        fn parse<T: std::str::FromStr>(var: &str) -> Option<T> {
            std::env::var(var).ok()?.trim().parse().ok()
        }
        if let Some(v) = parse::<usize>("DENSEKV_SERVE_MAX_CONNECTIONS") {
            self.max_connections = v.max(1);
        }
        if let Some(v) = parse::<u64>("DENSEKV_SERVE_READ_TIMEOUT_MS") {
            self.read_timeout = Duration::from_millis(v.max(1));
        }
        if let Some(v) = parse::<usize>("DENSEKV_SERVE_SHARDS") {
            self.shards = v.max(1);
        }
        if let Some(v) = parse::<u8>("DENSEKV_SERVE_METRICS") {
            self.metrics.enabled = v != 0;
        }
        if let Some(v) = parse::<u64>("DENSEKV_SERVE_SAMPLE_EVERY") {
            self.metrics.sample_every = v.max(1);
        }
        if let Some(v) = parse::<u64>("DENSEKV_SERVE_SLOW_US") {
            self.metrics.slow_threshold = Duration::from_micros(v);
        }
        if let Some(v) = parse::<u64>("DENSEKV_SERVE_WINDOW_MS") {
            self.metrics.window = Duration::from_millis(v.max(1));
        }
        if let Some(v) = parse::<u64>("DENSEKV_SERVE_SLO_US") {
            self.metrics.slo.objective = densekv_sim::Duration::from_micros(v.max(1));
        }
        if let Some(v) = parse::<f64>("DENSEKV_SERVE_SLO_TARGET") {
            if v.is_finite() {
                self.metrics.slo.target = v.clamp(0.0, 0.9999);
            }
        }
        if let Some(v) = std::env::var("DENSEKV_SERVE_BACKEND")
            .ok()
            .and_then(|v| BackendKind::parse(v.trim()))
        {
            self.backend = v;
        }
        self
    }
}

/// Counters the front-end accumulates over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Connections accepted into a worker thread.
    pub accepted: u64,
    /// Connections refused with `SERVER_ERROR busy` (over the cap).
    pub rejected_busy: u64,
    /// Commands executed.
    pub commands: u64,
    /// Bytes read off sockets.
    pub bytes_in: u64,
    /// Bytes written to sockets.
    pub bytes_out: u64,
    /// Connections dropped by the read timeout.
    pub timeouts: u64,
    /// Protocol errors answered in-band.
    pub protocol_errors: u64,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    rejected_busy: AtomicU64,
    commands: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    timeouts: AtomicU64,
    protocol_errors: AtomicU64,
}

/// State shared between the accept loop, workers, and the handle.
struct Shared {
    store: ShardedStore,
    clock: WallClock,
    config: ServeConfig,
    shutdown: AtomicBool,
    active: AtomicUsize,
    counters: Counters,
    metrics: ServeMetrics,
    /// Clones of live connection sockets, so shutdown can interrupt
    /// blocked reads immediately instead of waiting out the timeout.
    conns: Mutex<HashMap<u64, TcpStream>>,
}

/// Reads the lifetime counters out of `counters` (shared by the handle
/// and the in-band `metrics` verb).
fn stats_of(counters: &Counters) -> ServeStats {
    ServeStats {
        accepted: counters.accepted.load(Ordering::Relaxed),
        rejected_busy: counters.rejected_busy.load(Ordering::Relaxed),
        commands: counters.commands.load(Ordering::Relaxed),
        bytes_in: counters.bytes_in.load(Ordering::Relaxed),
        bytes_out: counters.bytes_out.load(Ordering::Relaxed),
        timeouts: counters.timeouts.load(Ordering::Relaxed),
        protocol_errors: counters.protocol_errors.load(Ordering::Relaxed),
    }
}

/// A running front-end. Dropping the handle shuts the server down.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
}

/// Binds the listener and starts the accept loop.
///
/// # Errors
///
/// Propagates the bind/local-addr I/O errors.
///
/// # Examples
///
/// ```
/// use densekv_serve::{spawn, ServeConfig};
///
/// let server = spawn(ServeConfig::ephemeral()).unwrap();
/// assert_ne!(server.addr().port(), 0);
/// server.shutdown();
/// ```
pub fn spawn(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(config.addr)?;
    let addr = listener.local_addr()?;
    let store = ShardedStore::new_with_backend(
        StoreConfig::with_capacity(config.store_bytes),
        config.shards,
        config.backend,
    );
    let metrics = ServeMetrics::new(&config.metrics, config.shards);
    metrics.set_connection_capacity(config.max_connections);
    let shared = Arc::new(Shared {
        store,
        clock: WallClock::new(),
        config,
        shutdown: AtomicBool::new(false),
        active: AtomicUsize::new(0),
        counters: Counters::default(),
        metrics,
        conns: Mutex::new(HashMap::new()),
    });
    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("densekv-serve-accept".into())
            .spawn(move || accept_loop(&listener, &shared))?
    };
    Ok(ServerHandle {
        addr,
        shared,
        accept: Some(accept),
    })
}

impl ServerHandle {
    /// The bound address (with the real port when 0 was requested).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Lifetime counters so far.
    #[must_use]
    pub fn stats(&self) -> ServeStats {
        stats_of(&self.shared.counters)
    }

    /// The observability plane: per-verb latency quantiles, shard-lock
    /// accounting, sampled spans, slow log — live while serving.
    #[must_use]
    pub fn metrics(&self) -> &ServeMetrics {
        &self.shared.metrics
    }

    /// Connections currently being served.
    #[must_use]
    pub fn active_connections(&self) -> usize {
        self.shared.active.load(Ordering::Relaxed)
    }

    /// Live items in the shared store.
    #[must_use]
    pub fn items(&self) -> u64 {
        self.shared.store.shards().len()
    }

    /// Store counters (the same numbers the `stats` verb reports).
    #[must_use]
    pub fn store_stats(&self) -> densekv_kv::StoreStats {
        self.shared.store.shards().stats()
    }

    /// Stops accepting, interrupts every live connection, joins the
    /// accept loop (which joins the workers), and returns the final
    /// counters.
    pub fn shutdown(mut self) -> ServeStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocked accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // Interrupt blocked reads so workers exit now, not at timeout.
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.shutdown(Shutdown::Both);
        }
        let _ = accept.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_id = 0u64;
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        if shared.active.load(Ordering::SeqCst) >= shared.config.max_connections {
            // Over the cap: answer and close instead of queueing work we
            // cannot serve — the degradation mode the SLA experiments
            // rely on.
            shared
                .counters
                .rejected_busy
                .fetch_add(1, Ordering::Relaxed);
            shared.metrics.connection_rejected();
            let mut stream = stream;
            let _ = stream.write_all(b"SERVER_ERROR busy\r\n");
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        shared.active.fetch_add(1, Ordering::SeqCst);
        shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
        shared.metrics.connection_opened();
        let id = next_id;
        next_id += 1;
        if let Ok(clone) = stream.try_clone() {
            shared.conns.lock().insert(id, clone);
        }
        let worker_shared = Arc::clone(shared);
        match std::thread::Builder::new()
            .name(format!("densekv-serve-conn-{id}"))
            .spawn(move || serve_connection(stream, id, &worker_shared))
        {
            Ok(handle) => workers.push(handle),
            Err(_) => {
                // Thread exhaustion: treat like an over-cap connection.
                shared.conns.lock().remove(&id);
                shared.active.fetch_sub(1, Ordering::SeqCst);
                shared.metrics.connection_closed();
                shared
                    .counters
                    .rejected_busy
                    .fetch_add(1, Ordering::Relaxed);
                shared.metrics.connection_rejected();
            }
        }
        // Reap finished workers so the handle list stays bounded by the
        // connection cap rather than the connection count.
        workers.retain(|h| !h.is_finished());
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// Writes and drains `out`; false when the peer is gone.
fn flush(stream: &mut TcpStream, out: &mut BytesMut, shared: &Shared) -> bool {
    if out.is_empty() {
        return true;
    }
    let ok = stream.write_all(out).is_ok();
    shared
        .counters
        .bytes_out
        .fetch_add(out.len() as u64, Ordering::Relaxed);
    out.clear();
    ok
}

/// Flushes and, if a sampled request is pending its write phase, times
/// the flush as that phase and commits the span.
fn finish_flush(
    stream: &mut TcpStream,
    out: &mut BytesMut,
    shared: &Shared,
    pending: &mut Option<(u64, Verb, RequestPhases)>,
    id: u64,
) -> bool {
    let write_t0 = pending.is_some().then(Instant::now);
    let ok = flush(stream, out, shared);
    if let Some((seq, verb, mut phases)) = pending.take() {
        phases.write = write_t0.map(|t| t.elapsed()).unwrap_or_default();
        shared.metrics.record_span(seq, verb, id as u32, &phases);
    }
    ok
}

/// Executes one parsed command: the observability verbs (`stats
/// latency|shards|reset`, `metrics`) are answered from the plane;
/// everything else goes to the sharded store — through the lock-timed
/// path when the plane records, the plain path when it is off.
fn execute(shared: &Shared, command: Command, out: &mut BytesMut) -> (Disposition, ShardTiming) {
    match command {
        Command::Stats { arg: Some(arg) } => {
            match arg.as_ref() {
                b"latency" => shared.metrics.render_stats_latency(out),
                b"shards" => shared
                    .metrics
                    .render_stats_shards(&shared.store.shards().stripe_stats(), out),
                b"windows" => shared.metrics.render_stats_windows(out),
                b"slo" => shared.metrics.render_stats_slo(out),
                b"dump" => {
                    // One JSON object on one line, then END — readable
                    // with the same line-until-END client call as the
                    // other stats verbs.
                    out.extend_from_slice(shared.metrics.flight_recorder_json().as_bytes());
                    out.extend_from_slice(b"\r\nEND\r\n");
                }
                b"reset" => {
                    shared.metrics.reset();
                    out.extend_from_slice(b"RESET\r\n");
                }
                b"engine" => densekv_kv::server::render_backend_stats(
                    &shared.store.shards().backend_stat_lines(),
                    out,
                ),
                _ => out.extend_from_slice(b"ERROR\r\n"),
            }
            (Disposition::KeepAlive, ShardTiming::default())
        }
        Command::Metrics => {
            let text = render_prometheus(
                &shared.metrics,
                &stats_of(&shared.counters),
                shared.active.load(Ordering::Relaxed),
                &shared.store.shards().stats(),
                &shared.store.shards().backend_stat_lines(),
            );
            out.extend_from_slice(text.as_bytes());
            out.extend_from_slice(b"END\r\n");
            (Disposition::KeepAlive, ShardTiming::default())
        }
        command if shared.metrics.is_enabled() => {
            shared
                .store
                .dispatch_timed(command, &shared.clock, out, &shared.metrics)
        }
        command => (
            shared.store.dispatch(command, &shared.clock, out),
            ShardTiming::default(),
        ),
    }
}

fn serve_connection(mut stream: TcpStream, id: u64, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let mut rx = BytesMut::with_capacity(4096);
    let mut out = BytesMut::with_capacity(4096);
    let mut chunk = vec![0u8; READ_CHUNK];
    let metrics = &shared.metrics;
    let instrument = metrics.is_enabled();
    // Wall time of the socket read that delivered the bytes currently
    // buffered — the sampled span's recv phase.
    let mut last_read = Duration::ZERO;
    // A sampled request waiting for its write phase (the flush that
    // sends its response).
    let mut pending: Option<(u64, Verb, RequestPhases)> = None;

    'conn: loop {
        // Drain every complete command currently buffered.
        loop {
            let parse_t0 = instrument.then(Instant::now);
            match parse_command(&mut rx) {
                Ok(Parsed::Complete(command)) => {
                    shared.counters.commands.fetch_add(1, Ordering::Relaxed);
                    let disposition = if instrument {
                        let parse = parse_t0.map(|t| t.elapsed()).unwrap_or_default();
                        let verb = Verb::of(&command);
                        let seq = metrics.next_seq();
                        let exec_t0 = Instant::now();
                        let (disposition, timing) = execute(shared, command, &mut out);
                        let exec = exec_t0.elapsed();
                        metrics.record_command(verb, parse + exec, seq);
                        if metrics.samples(seq) {
                            // A second sampled request in one batch
                            // commits the first with a zero write phase
                            // rather than losing it.
                            if let Some((s, v, p)) = pending.take() {
                                metrics.record_span(s, v, id as u32, &p);
                            }
                            pending = Some((
                                seq,
                                verb,
                                RequestPhases {
                                    recv: std::mem::take(&mut last_read),
                                    parse,
                                    lock_wait: timing.lock_wait,
                                    store: exec.saturating_sub(timing.lock_wait),
                                    write: Duration::ZERO,
                                },
                            ));
                        }
                        disposition
                    } else {
                        execute(shared, command, &mut out).0
                    };
                    if disposition == Disposition::Close {
                        finish_flush(&mut stream, &mut out, shared, &mut pending, id);
                        break 'conn;
                    }
                }
                Ok(Parsed::Incomplete) => break,
                Err(err) => {
                    shared
                        .counters
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    render_error(&mut out, &err);
                    if !resync_after_error(&mut rx, &err) {
                        // Framing lost: answer, then close.
                        finish_flush(&mut stream, &mut out, shared, &mut pending, id);
                        break 'conn;
                    }
                }
            }
        }
        if !finish_flush(&mut stream, &mut out, shared, &mut pending, id) {
            break;
        }
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let read_t0 = instrument.then(Instant::now);
        match stream.read(&mut chunk) {
            Ok(0) => break, // peer closed
            Ok(n) => {
                last_read = read_t0.map(|t| t.elapsed()).unwrap_or_default();
                shared
                    .counters
                    .bytes_in
                    .fetch_add(n as u64, Ordering::Relaxed);
                rx.extend_from_slice(&chunk[..n]);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if !shared.shutdown.load(Ordering::SeqCst) {
                    shared.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                break; // idle or stalled peer: disconnect
            }
            Err(_) => break,
        }
    }
    shared.conns.lock().remove(&id);
    shared.active.fetch_sub(1, Ordering::SeqCst);
    shared.metrics.connection_closed();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Connection;

    fn quick_config() -> ServeConfig {
        ServeConfig {
            read_timeout: Duration::from_millis(400),
            ..ServeConfig::ephemeral()
        }
    }

    /// Serializes tests that mutate `DENSEKV_SERVE_*` process
    /// environment (env vars are process-global; tests run in
    /// parallel).
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn serves_a_full_verb_tour_over_tcp() {
        let server = spawn(quick_config()).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        assert!(conn.set(b"k", b"hello").unwrap());
        let hit = conn.get(b"k").unwrap().expect("stored value is resident");
        assert_eq!(hit.data, b"hello");
        assert!(conn.delete(b"k").unwrap());
        assert!(conn.get(b"k").unwrap().is_none());
        assert!(conn.version().unwrap().contains("densekv"));
        let stats = server.shutdown();
        assert_eq!(stats.accepted, 1);
        assert!(stats.commands >= 5);
        assert!(stats.bytes_in > 0 && stats.bytes_out > 0);
    }

    #[test]
    fn over_cap_connections_get_busy_then_closed() {
        let config = ServeConfig {
            max_connections: 3,
            ..quick_config()
        };
        let server = spawn(config).unwrap();
        // Fill the cap and prove each connection is live with a
        // round-trip (connect() alone returns before accept()).
        let mut held: Vec<Connection> = (0..3)
            .map(|_| {
                let mut c = Connection::connect(server.addr()).unwrap();
                c.version().unwrap();
                c
            })
            .collect();
        // The cap+1-th connection is told busy and dropped; the server
        // volunteers the error, so read without sending (writing first
        // could race the server's close into a reset).
        let mut over = Connection::connect(server.addr()).unwrap();
        let err = over.read_reply().expect_err("over-cap must not be served");
        let crate::client::ClientError::Server(msg) = err else {
            panic!("expected an in-band busy error, got {err:?}");
        };
        assert!(msg.contains("busy"), "{msg}");
        // The held connections still work.
        for conn in &mut held {
            assert!(conn.set(b"x", b"1").unwrap());
        }
        drop(held);
        let stats = server.shutdown();
        assert_eq!(stats.rejected_busy, 1);
        assert_eq!(stats.accepted, 3);
    }

    #[test]
    fn read_timeout_disconnects_stalled_peers() {
        let config = ServeConfig {
            read_timeout: Duration::from_millis(100),
            ..ServeConfig::ephemeral()
        };
        let server = spawn(config).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        conn.version().unwrap();
        // Go silent; the server must reclaim the worker.
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(server.active_connections(), 0);
        let stats = server.shutdown();
        assert_eq!(stats.timeouts, 1);
    }

    #[test]
    fn adversarial_bytes_answer_in_band_and_never_wedge() {
        let server = spawn(quick_config()).unwrap();
        let addr = server.addr();
        // A framing-losing error closes the connection after replying.
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("set k 0 0 {}\r\n", (1 << 20) + 1).as_bytes())
            .unwrap();
        let mut reply = String::new();
        stream.read_to_string(&mut reply).unwrap();
        assert!(reply.contains("SERVER_ERROR object too large"), "{reply}");

        // An unknown verb answers ERROR and keeps serving.
        let mut conn = Connection::connect(addr).unwrap();
        let err = conn.raw_roundtrip(b"frobnicate\r\n").unwrap();
        assert!(err.contains("ERROR"));
        assert!(conn.set(b"k", b"v").unwrap(), "connection still serves");
        let stats = server.shutdown();
        assert_eq!(stats.protocol_errors, 2);
    }

    #[test]
    fn env_overrides_clamp_pathological_values() {
        let _guard = ENV_LOCK.lock().unwrap();
        // One knob at a time: set a wedging value, check the clamp,
        // clean up — so a typo'd deployment variable can misconfigure
        // the server but never hang or panic it.
        let case = |var: &str, value: &str, check: &dyn Fn(&ServeConfig)| {
            std::env::set_var(var, value);
            let config = ServeConfig::from_env();
            std::env::remove_var(var);
            check(&config);
        };
        case("DENSEKV_SERVE_SHARDS", "0", &|c| {
            assert_eq!(c.shards, 1, "0 shards clamps to 1 lock stripe");
        });
        case("DENSEKV_SERVE_MAX_CONNECTIONS", "0", &|c| {
            assert_eq!(c.max_connections, 1, "a 0-connection server serves no one");
        });
        case("DENSEKV_SERVE_READ_TIMEOUT_MS", "0", &|c| {
            assert_eq!(
                c.read_timeout,
                Duration::from_millis(1),
                "0 ms would disable the timeout and pin workers forever"
            );
        });
        case("DENSEKV_SERVE_SAMPLE_EVERY", "0", &|c| {
            assert_eq!(c.metrics.sample_every, 1, "every-0th sampling clamps to 1");
        });
        case("DENSEKV_SERVE_WINDOW_MS", "0", &|c| {
            assert_eq!(
                c.metrics.window,
                Duration::from_millis(1),
                "a 0 ms window would rotate unboundedly"
            );
        });
        case("DENSEKV_SERVE_SLO_US", "0", &|c| {
            assert_eq!(
                c.metrics.slo.objective,
                densekv_sim::Duration::from_micros(1),
                "a 0 µs objective marks every request bad"
            );
        });
        case("DENSEKV_SERVE_SLO_TARGET", "1.5", &|c| {
            assert!(
                c.metrics.slo.target < 1.0,
                "target ≥ 1 leaves no error budget"
            );
        });
        // Sane values still pass through unclamped.
        case("DENSEKV_SERVE_WINDOW_MS", "250", &|c| {
            assert_eq!(c.metrics.window, Duration::from_millis(250));
        });
        case("DENSEKV_SERVE_SLO_TARGET", "0.99", &|c| {
            assert!((c.metrics.slo.target - 0.99).abs() < 1e-12);
        });
    }

    #[test]
    fn config_builders_and_env_overrides_compose() {
        let _guard = ENV_LOCK.lock().unwrap();
        let config = ServeConfig::ephemeral()
            .with_max_connections(5)
            .with_read_timeout(Duration::from_millis(250))
            .with_shards(2)
            .with_metrics(MetricsConfig {
                sample_every: 8,
                ..MetricsConfig::default()
            });
        assert_eq!(config.max_connections, 5);
        assert_eq!(config.read_timeout, Duration::from_millis(250));
        assert_eq!(config.shards, 2);
        assert_eq!(config.metrics.sample_every, 8);

        std::env::set_var("DENSEKV_SERVE_MAX_CONNECTIONS", "2");
        std::env::set_var("DENSEKV_SERVE_READ_TIMEOUT_MS", "300");
        std::env::set_var("DENSEKV_SERVE_METRICS", "0");
        std::env::set_var("DENSEKV_SERVE_SLOW_US", "2500");
        std::env::set_var("DENSEKV_SERVE_SHARDS", "not-a-number");
        let config = config.env_overrides();
        std::env::remove_var("DENSEKV_SERVE_MAX_CONNECTIONS");
        std::env::remove_var("DENSEKV_SERVE_READ_TIMEOUT_MS");
        std::env::remove_var("DENSEKV_SERVE_METRICS");
        std::env::remove_var("DENSEKV_SERVE_SLOW_US");
        std::env::remove_var("DENSEKV_SERVE_SHARDS");
        assert_eq!(config.max_connections, 2);
        assert_eq!(config.read_timeout, Duration::from_millis(300));
        assert!(!config.metrics.enabled);
        assert_eq!(config.metrics.slow_threshold, Duration::from_micros(2500));
        assert_eq!(config.shards, 2, "unparseable override is ignored");

        // The env-derived cap is enforced end to end: with the cap at
        // 2, the third concurrent connection is told busy.
        let server = spawn(ServeConfig {
            read_timeout: Duration::from_millis(400),
            ..config
        })
        .unwrap();
        let mut held: Vec<Connection> = (0..2)
            .map(|_| {
                let mut c = Connection::connect(server.addr()).unwrap();
                c.version().unwrap();
                c
            })
            .collect();
        let mut over = Connection::connect(server.addr()).unwrap();
        let err = over.read_reply().expect_err("over-cap must be refused");
        assert!(matches!(err, crate::client::ClientError::Server(ref m) if m.contains("busy")));
        for conn in &mut held {
            assert!(conn.set(b"x", b"1").unwrap());
        }
        drop(held);
        let stats = server.shutdown();
        assert_eq!((stats.accepted, stats.rejected_busy), (2, 1));
    }

    #[test]
    fn stats_latency_and_shards_report_live_traffic() {
        let config = quick_config().with_metrics(MetricsConfig {
            sample_every: 1,
            ..MetricsConfig::default()
        });
        let server = spawn(config).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        for i in 0..20u32 {
            assert!(conn.set(format!("k{i}").as_bytes(), b"value").unwrap());
            assert!(conn.get(format!("k{i}").as_bytes()).unwrap().is_some());
        }
        let latency = conn.text_block(b"stats latency\r\n").unwrap();
        let text = latency.join("\n");
        assert!(text.contains("STAT get_count 20"), "{text}");
        assert!(text.contains("STAT set_count 20"), "{text}");
        for stat in ["get_p50_us", "get_p95_us", "get_p999_us", "set_p99_us"] {
            assert!(text.contains(stat), "missing {stat}: {text}");
        }
        // Percentiles are real microsecond numbers, not zeros: a TCP
        // round trip cannot complete in 0 µs.
        let p50: f64 = latency
            .iter()
            .find_map(|l| l.strip_prefix("STAT get_p50_us "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(p50 > 0.0, "p50 must be positive, got {p50}");

        let shards = conn.text_block(b"stats shards\r\n").unwrap().join("\n");
        assert!(shards.contains("STAT shard_0_items"), "{shards}");
        assert!(
            shards.contains("STAT shard_0_lock_acquisitions"),
            "{shards}"
        );
        let total_acq: u64 = server
            .metrics()
            .shard_snapshots()
            .iter()
            .map(|s| s.acquisitions)
            .sum();
        assert_eq!(total_acq, 40, "20 sets + 20 single-key gets");

        // Every request was sampled; spans must have accumulated.
        assert!(server.metrics().spans_recorded() >= 40);
        let trace = server.metrics().trace_chrome_json();
        assert!(trace.contains("\"shard-lock\""), "{trace}");

        // stats reset zeroes the plane but keeps serving.
        let reset = conn.raw_roundtrip(b"stats reset\r\n").unwrap();
        assert_eq!(reset, "RESET");
        assert_eq!(server.metrics().verb_count(Verb::Get), 0);
        assert!(conn.get(b"k0").unwrap().is_some());
        assert_eq!(server.metrics().verb_count(Verb::Get), 1);

        // Unknown stats sub-commands answer ERROR in-band.
        let err = conn.raw_roundtrip(b"stats bogus\r\n").unwrap();
        assert_eq!(err, "ERROR");
        server.shutdown();
    }

    #[test]
    fn stats_windows_slo_and_dump_report_live_traffic() {
        // A 25 ms window so real rotations happen within the test.
        let config = quick_config().with_metrics(MetricsConfig {
            sample_every: 1,
            window: Duration::from_millis(25),
            ..MetricsConfig::default()
        });
        let server = spawn(config).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        for i in 0..10u32 {
            assert!(conn.set(format!("k{i}").as_bytes(), b"value").unwrap());
            assert!(conn.get(format!("k{i}").as_bytes()).unwrap().is_some());
        }
        std::thread::sleep(Duration::from_millis(60));
        // Polling rotates the due windows even though traffic stopped.
        let windows = conn.text_block(b"stats windows\r\n").unwrap().join("\n");
        assert!(windows.contains("STAT window_ms 25"), "{windows}");
        assert!(windows.contains("STAT rate_get"), "{windows}");
        let closed: u64 = windows
            .lines()
            .find_map(|l| l.strip_prefix("STAT windows_closed "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(closed >= 2, "60 ms at a 25 ms cadence: {windows}");
        assert!(windows.contains("_p95_us"), "{windows}");

        let slo = conn.text_block(b"stats slo\r\n").unwrap().join("\n");
        assert!(slo.contains("STAT slo_objective_us 1000.0"), "{slo}");
        assert!(slo.contains("STAT slo_short_burn"), "{slo}");
        assert!(slo.contains("STAT slo_alerting 0"), "{slo}");
        let total: u64 = slo
            .lines()
            .find_map(|l| l.strip_prefix("STAT slo_total "))
            .unwrap()
            .parse()
            .unwrap();
        assert!(total >= 20, "closed windows carry the traffic: {slo}");

        // The embedded Chrome trace spans multiple lines; reassemble.
        let json = conn.text_block(b"stats dump\r\n").unwrap().join("\n");
        densekv_telemetry::validate_json(&json).expect("stats dump is valid JSON");
        assert!(json.contains("\"format\":\"densekv-flight-recorder-v1\""));
        assert!(json.contains("\"verbs\":{"), "{json}");
        server.shutdown();
    }

    #[test]
    fn window_rotation_keeps_data_path_byte_identical() {
        // The passivity invariant under *rotation*: a metrics-on server
        // whose windows rotate mid-stream answers byte-identically to a
        // metrics-off server. Two bursts with a sleep between them span
        // several 5 ms window boundaries.
        let burst: &[u8] = b"set k 0 0 5\r\nhello\r\nget k\r\ngets k\r\nincr n 1\r\n\
                             set n 0 0 1\r\n7\r\nincr n 3\r\ndecr n 1\r\ntouch k 60\r\n\
                             append k 0 0 2\r\n!!\r\nget k\r\ndelete k\r\nversion\r\n";
        let run_against = |metrics: MetricsConfig| -> Vec<u8> {
            let server = spawn(quick_config().with_metrics(metrics)).unwrap();
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            let mut reply = Vec::new();
            let mut chunk = [0u8; 4096];
            for _ in 0..2 {
                stream.write_all(burst).unwrap();
                std::thread::sleep(Duration::from_millis(20));
                loop {
                    // Drain what has arrived; a short read ends the batch.
                    let n = stream.read(&mut chunk).unwrap();
                    reply.extend_from_slice(&chunk[..n]);
                    if n < chunk.len() {
                        break;
                    }
                }
            }
            stream.write_all(b"quit\r\n").unwrap();
            let mut rest = Vec::new();
            stream.read_to_end(&mut rest).unwrap();
            reply.extend_from_slice(&rest);
            server.shutdown();
            reply
        };
        let on = run_against(MetricsConfig {
            sample_every: 1,
            window: Duration::from_millis(5),
            window_retain: 2,
            ..MetricsConfig::default()
        });
        let off = run_against(MetricsConfig::disabled());
        assert!(!on.is_empty());
        assert_eq!(on, off, "window rotation must not change the data path");
    }

    #[test]
    fn metrics_verb_serves_prometheus_exposition() {
        let server = spawn(quick_config()).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        assert!(conn.set(b"k", b"v").unwrap());
        assert!(conn.get(b"k").unwrap().is_some());
        let body = conn.text_block(b"metrics\r\n").unwrap().join("\n");
        assert!(
            body.contains("# TYPE densekv_serve_accepted counter"),
            "{body}"
        );
        assert!(body.contains("densekv_serve_accepted 1"), "{body}");
        assert!(body.contains("densekv_store_curr_items 1"), "{body}");
        assert!(body.contains("serve_cmd_get 1"), "{body}");
        assert!(
            body.contains("serve_latency_set{quantile=\"0.99\"}"),
            "{body}"
        );
        assert!(
            body.contains("densekv_shard_lock_acquisitions{shard=\"0\"}"),
            "{body}"
        );
        server.shutdown();
    }

    #[test]
    fn metrics_off_data_path_is_byte_identical() {
        // The passivity invariant, live: the same request stream against
        // a metrics-on and a metrics-off server produces byte-identical
        // responses for every data-path verb.
        let script: &[u8] = b"set k 0 0 5\r\nhello\r\nget k\r\ngets k\r\nincr n 1\r\n\
                              set n 0 0 1\r\n7\r\nincr n 3\r\ndecr n 1\r\ntouch k 60\r\n\
                              append k 0 0 2\r\n!!\r\nget k\r\ndelete k\r\nversion\r\n\
                              flush_all\r\nquit\r\n";
        let run_against = |metrics: MetricsConfig| -> Vec<u8> {
            let server = spawn(quick_config().with_metrics(metrics)).unwrap();
            let mut stream = TcpStream::connect(server.addr()).unwrap();
            stream.write_all(script).unwrap();
            let mut reply = Vec::new();
            stream.read_to_end(&mut reply).unwrap();
            server.shutdown();
            reply
        };
        let on = run_against(MetricsConfig {
            sample_every: 1,
            ..MetricsConfig::default()
        });
        let off = run_against(MetricsConfig::disabled());
        assert!(!on.is_empty());
        assert_eq!(on, off, "instrumentation must not change the data path");
    }

    #[test]
    fn slow_log_catches_outliers() {
        let config = quick_config().with_metrics(MetricsConfig {
            slow_threshold: Duration::from_nanos(1),
            ..MetricsConfig::default()
        });
        let server = spawn(config).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        assert!(conn.set(b"k", b"v").unwrap());
        // Every request is "slow" at a 1 ns threshold.
        let slow = server.metrics().slow_requests();
        assert!(!slow.is_empty());
        assert!(slow[0].latency > densekv_sim::Duration::ZERO);
        server.shutdown();
    }

    #[test]
    fn shutdown_interrupts_blocked_readers_quickly() {
        let config = ServeConfig {
            read_timeout: Duration::from_secs(30),
            ..ServeConfig::ephemeral()
        };
        let server = spawn(config).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        conn.version().unwrap();
        let start = std::time::Instant::now();
        server.shutdown(); // must not wait out the 30 s read timeout
        assert!(start.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn engine_backend_serves_over_tcp() {
        let config = quick_config().with_backend(BackendKind::Engine);
        let server = spawn(config).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        assert!(conn.set(b"k", b"hello").unwrap());
        assert_eq!(conn.get(b"k").unwrap().unwrap().data, b"hello");
        assert!(conn.delete(b"k").unwrap());
        assert!(conn.set(b"k2", &[7u8; 300]).unwrap());
        // The engine's internals are visible in-band.
        let block = conn.text_block(b"stats engine\r\n").unwrap().join("\n");
        assert!(block.contains("STAT engine_items 1"), "{block}");
        assert!(
            block.contains("STAT engine_tier_512_used_pages 1"),
            "{block}"
        );
        // ... and as Prometheus gauges on the metrics verb.
        let body = conn.text_block(b"metrics\r\n").unwrap().join("\n");
        assert!(body.contains("densekv_engine_items 1"), "{body}");
        server.shutdown();

        // The model backend has no engine internals to report.
        let server = spawn(quick_config()).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        let reply = conn.raw_roundtrip(b"stats engine\r\n").unwrap();
        assert_eq!(reply, "ERROR");
        server.shutdown();
    }

    #[test]
    fn env_selects_the_backend() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("DENSEKV_SERVE_BACKEND", "engine");
        assert_eq!(ServeConfig::from_env().backend, BackendKind::Engine);
        std::env::set_var("DENSEKV_SERVE_BACKEND", "model");
        assert_eq!(ServeConfig::from_env().backend, BackendKind::Model);
        // Unknown names leave the setting untouched.
        std::env::set_var("DENSEKV_SERVE_BACKEND", "frobnicated");
        let base = ServeConfig::ephemeral().with_backend(BackendKind::Engine);
        assert_eq!(base.env_overrides().backend, BackendKind::Engine);
        std::env::remove_var("DENSEKV_SERVE_BACKEND");
    }

    #[test]
    fn engine_eviction_pressure_over_tcp_stays_in_protocol() {
        // Fill the engine well past its budget through the real server:
        // every store must answer STORED (evicting, never erroring) and
        // the evictions must be visible in-band via `stats engine`.
        let config = ServeConfig {
            store_bytes: 1 << 20,
            shards: 2,
            ..quick_config()
        }
        .with_backend(BackendKind::Engine);
        let server = spawn(config).unwrap();
        let mut conn = Connection::connect(server.addr()).unwrap();
        let value = vec![b'v'; 1024];
        for i in 0..1500u32 {
            let key = format!("pressure-key-{i}");
            assert!(
                conn.set(key.as_bytes(), &value).unwrap(),
                "set {i} must land (by evicting, not failing)"
            );
        }
        // The freshest key is resident; the engine recycled pages.
        assert!(conn.get(b"pressure-key-1499").unwrap().is_some());
        let block = conn.text_block(b"stats engine\r\n").unwrap().join("\n");
        let evictions: u64 = block
            .lines()
            .find_map(|l| l.strip_prefix("STAT engine_evictions "))
            .expect("engine_evictions gauge present")
            .parse()
            .unwrap();
        assert!(evictions > 0, "{block}");
        let stats = conn.text_block(b"stats\r\n").unwrap().join("\n");
        assert!(stats.contains("STAT evictions "), "{stats}");
        server.shutdown();
    }
}
