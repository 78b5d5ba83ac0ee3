//! `live_mget` and `live_churn`: an in-process `densekv_serve` server
//! under a closed loop of two client threads, one connection each.
//!
//! Each client thread is a caller that sends one request and waits for
//! its reply before the next, as memcached clients do. The benchmark's
//! own client renders requests, parses replies and checks every value:
//! a value encodes its key id and length, so a GET must return bytes
//! that belong to the key it asked for.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use densekv_engine::Engine;
use densekv_kv::backend::StoreBackend;
use densekv_kv::protocol::{parse_command, Parsed};
use densekv_kv::server::FixedClock;
use densekv_kv::store::{KvStore, StoreConfig};
use densekv_serve::{
    spawn, BackendKind, Connection, MetricsConfig, ServeConfig, ServerHandle, ShardedStore,
};
use densekv_sim::dist::Zipf;
use densekv_sim::SplitMix64;
use densekv_workload::{key_bytes, ETC_VALUE_MIX};

use crate::report::{median, quantile_sorted, release_freed_memory, Outcome};
use crate::Args;

/// Client threads, one connection each.
const CLIENTS: u64 = 2;

/// Set-ups per untraced run; the reported `setup_s` is their median.
const SETUPS: usize = 3;

/// Length of the closed-loop segments a run's medians are taken over.
const SEGMENT: Duration = Duration::from_millis(500);

/// Requests replayed in-process for the parse, dispatch, store and
/// engine layers.
const REPLAY: usize = 20_000;

/// Bytes of the header every value starts with: key id and length.
const HEADER: usize = 24;

/// The two live workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 24-key GETs over a store that holds every key, 5 % SETs.
    Mget,
    /// Single-key 50/50 GET/SET over a key space three times the store.
    Churn,
}

/// The fixed shape of one live workload.
#[derive(Debug, Clone, Copy)]
struct Spec {
    backend: BackendKind,
    keys: u64,
    store_bytes: u64,
    get_fraction: f64,
    batch: usize,
    /// Zipf exponent of key popularity; `None` draws keys uniformly.
    zipf: Option<f64>,
    /// Whether the store holds every key, so that a GET miss is wrong.
    all_hit: bool,
}

impl Workload {
    /// The workload's shape.
    fn spec(self) -> Spec {
        match self {
            Workload::Mget => Spec {
                backend: BackendKind::Model,
                keys: 10_000,
                store_bytes: 256 << 20,
                get_fraction: 0.95,
                batch: 24,
                zipf: Some(0.99),
                all_hit: true,
            },
            Workload::Churn => Spec {
                backend: BackendKind::Engine,
                keys: 24_000,
                store_bytes: 16 << 20,
                get_fraction: 0.5,
                batch: 1,
                zipf: None,
                all_hit: false,
            },
        }
    }
}

/// Value size of key `id`: a draw from the ETC mix, fixed per key so
/// that the stored population is the same at every seed.
fn value_len(id: u64) -> usize {
    let mut rng = SplitMix64::new(id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let total: f64 = ETC_VALUE_MIX.iter().map(|(_, w)| w).sum();
    let mut u = rng.next_f64() * total;
    for &(size, weight) in ETC_VALUE_MIX {
        if u < weight {
            return size as usize;
        }
        u -= weight;
    }
    ETC_VALUE_MIX.last().expect("non-empty mix").0 as usize
}

/// Writes the value of key `id` with length `len` into `out`: a header
/// of the id and length in hex, then a fill byte derived from the id.
fn write_value(id: u64, len: usize, out: &mut Vec<u8>) {
    out.clear();
    let _ = write!(out, "{id:016x}{len:08x}");
    out.resize(len, b'a' + (id % 26) as u8);
}

/// Whether `data` is a value of key `id`: its header names the id and
/// the returned length, and its fill is the id's.
fn value_ok(id: u64, data: &[u8]) -> bool {
    let Some((head, rest)) = data.split_at_checked(HEADER) else {
        return false;
    };
    let fill = b'a' + (id % 26) as u8;
    let mut expected = [0u8; HEADER];
    let _ = write!(&mut expected[..], "{id:016x}{:08x}", data.len());
    head == expected
        && rest.first().is_none_or(|&b| b == fill)
        && rest.last().is_none_or(|&b| b == fill)
}

/// One request of the closed loop.
#[derive(Debug, Clone)]
enum Request {
    /// A GET of these key ids.
    Get(Vec<u64>),
    /// A SET of this key id.
    Set(u64),
}

/// Seeded request stream of one client.
struct Generator {
    spec: Spec,
    zipf: Option<Zipf>,
    rng: SplitMix64,
}

impl Generator {
    /// The stream of client `client` at `seed`.
    fn new(spec: Spec, seed: u64, client: u64) -> Self {
        Generator {
            spec,
            zipf: spec.zipf.map(|alpha| Zipf::new(spec.keys as usize, alpha)),
            rng: SplitMix64::new(seed.wrapping_mul(0xD1B5_4A32_D192_ED03) ^ (client + 1)),
        }
    }

    fn key(&mut self) -> u64 {
        match &self.zipf {
            Some(zipf) => zipf.sample(&mut self.rng) as u64,
            None => self.rng.next_below(self.spec.keys),
        }
    }

    /// The next request.
    fn next_request(&mut self) -> Request {
        if self.rng.next_bool(self.spec.get_fraction) {
            Request::Get((0..self.spec.batch).map(|_| self.key()).collect())
        } else {
            Request::Set(self.key())
        }
    }
}

/// Renders `request` as protocol bytes into `out`.
fn render(request: &Request, value: &mut Vec<u8>, out: &mut Vec<u8>) {
    out.clear();
    match request {
        Request::Get(ids) => {
            out.extend_from_slice(b"get");
            for &id in ids {
                out.push(b' ');
                out.extend_from_slice(&key_bytes(id));
            }
            out.extend_from_slice(b"\r\n");
        }
        Request::Set(id) => {
            write_value(*id, value_len(*id), value);
            out.extend_from_slice(b"set ");
            out.extend_from_slice(&key_bytes(*id));
            let _ = write!(out, " 0 0 {}\r\n", value.len());
            out.extend_from_slice(value);
            out.extend_from_slice(b"\r\n");
        }
    }
}

/// Client-side spans of one request, ns.
#[derive(Debug, Clone, Copy, Default)]
struct Spans {
    send: u64,
    wait: u64,
    parse: u64,
}

/// How a reply checked out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    /// Every returned value belongs to its key; `misses` keys were absent.
    Ok {
        /// Requested keys the reply skipped.
        misses: usize,
    },
    /// A value of another key, a bad length, or a malformed reply.
    Wrong,
}

/// A blocking connection with its own receive buffer.
struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Client {
    /// Connects to `addr`.
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        Ok(Client {
            stream,
            buf: vec![0; 256 << 10],
            start: 0,
            end: 0,
        })
    }

    /// Reads more bytes, growing the buffer when it is full.
    fn fill(&mut self) -> std::io::Result<()> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            if self.end == self.buf.len() {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        match self.stream.read(&mut self.buf[self.end..])? {
            0 => Err(std::io::ErrorKind::UnexpectedEof.into()),
            n => {
                self.end += n;
                Ok(())
            }
        }
    }

    /// The next CRLF-terminated line, without its terminator, as a
    /// range of the buffer.
    fn line(&mut self) -> std::io::Result<(usize, usize)> {
        // Bytes already searched, counted from `start` (which a fill
        // may move).
        let mut scanned = 0;
        loop {
            let from = self.start + scanned;
            if let Some(i) = self.buf[from..self.end]
                .windows(2)
                .position(|w| w == b"\r\n")
            {
                let line = (self.start, from + i);
                self.start = from + i + 2;
                return Ok(line);
            }
            scanned = (self.end - self.start).saturating_sub(1);
            self.fill()?;
        }
    }

    /// Ensures `n` bytes are buffered.
    fn need(&mut self, n: usize) -> std::io::Result<()> {
        while self.end - self.start < n {
            self.fill()?;
        }
        Ok(())
    }

    /// Sends `bytes` and checks the reply to `request`.
    fn roundtrip(
        &mut self,
        request: &Request,
        bytes: &[u8],
        spans: Option<&mut Spans>,
    ) -> std::io::Result<Verdict> {
        let t0 = Instant::now();
        self.stream.write_all(bytes)?;
        let (t1, t2) = if spans.is_some() {
            let t1 = Instant::now();
            if self.start == self.end {
                self.fill()?;
            }
            (t1, Instant::now())
        } else {
            (t0, t0)
        };
        let verdict = match request {
            Request::Set(_) => {
                let (a, b) = self.line()?;
                if &self.buf[a..b] == b"STORED" {
                    Verdict::Ok { misses: 0 }
                } else {
                    Verdict::Wrong
                }
            }
            Request::Get(ids) => self.get_reply(ids)?,
        };
        if let Some(spans) = spans {
            let t3 = Instant::now();
            spans.send += (t1 - t0).as_nanos() as u64;
            spans.wait += (t2 - t1).as_nanos() as u64;
            spans.parse += (t3 - t2).as_nanos() as u64;
        }
        Ok(verdict)
    }

    fn get_reply(&mut self, ids: &[u64]) -> std::io::Result<Verdict> {
        let (mut next, mut hits) = (0, 0);
        let mut wrong = false;
        loop {
            let (a, b) = self.line()?;
            let line = &self.buf[a..b];
            if line == b"END" {
                let misses = ids.len() - hits;
                return Ok(if wrong {
                    Verdict::Wrong
                } else {
                    Verdict::Ok { misses }
                });
            }
            let mut fields = line.split(|&c| c == b' ');
            let (Some(b"VALUE"), Some(key), Some(_flags), Some(len)) =
                (fields.next(), fields.next(), fields.next(), fields.next())
            else {
                return Ok(Verdict::Wrong);
            };
            let Some(len) = std::str::from_utf8(len)
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
            else {
                return Ok(Verdict::Wrong);
            };
            // Values come back in request order, absent keys skipped.
            let found = ids[next..].iter().position(|&id| key_bytes(id) == key);
            let id = match found {
                Some(skip) => {
                    next += skip + 1;
                    hits += 1;
                    ids[next - 1]
                }
                None => {
                    wrong = true;
                    u64::MAX
                }
            };
            self.need(len + 2)?;
            let data = &self.buf[self.start..self.start + len];
            wrong |=
                !value_ok(id, data) || &self.buf[self.start + len..self.start + len + 2] != b"\r\n";
            self.start += len + 2;
        }
    }
}

/// Closed-loop results of one client thread.
#[derive(Debug, Default)]
struct Load {
    /// Client-observed RTT of every request, ns.
    latencies_ns: Vec<u64>,
    attempted: u64,
    failed: u64,
    misses: u64,
    sets: u64,
    spans: Spans,
}

/// Runs one closed-loop client until `deadline`.
fn client_loop(
    addr: SocketAddr,
    spec: Spec,
    generator: &mut Generator,
    deadline: Instant,
    traced: bool,
) -> Load {
    let mut load = Load::default();
    let Ok(mut client) = Client::connect(addr) else {
        load.attempted = 1;
        load.failed = 1;
        return load;
    };
    let (mut value, mut bytes) = (Vec::new(), Vec::new());
    while Instant::now() < deadline {
        let request = generator.next_request();
        render(&request, &mut value, &mut bytes);
        let mut spans = Spans::default();
        let start = Instant::now();
        let verdict = client.roundtrip(&request, &bytes, traced.then_some(&mut spans));
        load.latencies_ns.push(start.elapsed().as_nanos() as u64);
        load.attempted += 1;
        load.sets += u64::from(matches!(request, Request::Set(_)));
        match verdict {
            Ok(Verdict::Ok { misses }) => {
                load.misses += misses as u64;
                load.failed += u64::from(misses > 0 && spec.all_hit);
            }
            Ok(Verdict::Wrong) => load.failed += 1,
            Err(_) => {
                load.failed += 1;
                break;
            }
        }
        load.spans.send += spans.send;
        load.spans.wait += spans.wait;
        load.spans.parse += spans.parse;
    }
    load
}

/// Both client threads for `length`; loads in client order.
fn closed_loop(
    addr: SocketAddr,
    spec: Spec,
    generators: &mut [Generator],
    length: Duration,
    traced: bool,
) -> (Duration, Vec<Load>) {
    let start = Instant::now();
    let deadline = start + length;
    let loads = std::thread::scope(|scope| {
        let handles: Vec<_> = generators
            .iter_mut()
            .map(|g| scope.spawn(move || client_loop(addr, spec, g, deadline, traced)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (start.elapsed(), loads)
}

/// A server with every key stored once, and what loading it cost.
struct Server {
    handle: ServerHandle,
    setup: Duration,
    attempted: u64,
    failed: u64,
}

/// Spawns a server and stores every key through two connections.
fn start_server(spec: Spec, metrics: bool) -> Server {
    let start = Instant::now();
    let config = ServeConfig {
        store_bytes: spec.store_bytes,
        backend: spec.backend,
        metrics: if metrics {
            MetricsConfig::default()
        } else {
            MetricsConfig::disabled()
        },
        ..ServeConfig::ephemeral()
    };
    let handle = spawn(config).expect("bind a loopback port");
    let addr = handle.addr();
    let (attempted, failed) = std::thread::scope(|scope| {
        let loaders: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let Ok(mut client) = Client::connect(addr) else {
                        return (1, 1);
                    };
                    let (mut value, mut bytes, mut failed) = (Vec::new(), Vec::new(), 0);
                    let ids: Vec<u64> = (c..spec.keys).step_by(CLIENTS as usize).collect();
                    for &id in &ids {
                        let request = Request::Set(id);
                        render(&request, &mut value, &mut bytes);
                        let ok = client.roundtrip(&request, &bytes, None);
                        failed += u64::from(!matches!(ok, Ok(Verdict::Ok { .. })));
                    }
                    (ids.len() as u64, failed)
                })
            })
            .collect();
        loaders
            .into_iter()
            .map(|h| h.join().expect("loader thread panicked"))
            .fold((0, 0), |(a, f), (a2, f2)| (a + a2, f + f2))
    });
    let mut failed = failed;
    if spec.all_hit {
        // The store must hold every key: an eviction would turn GETs
        // into misses.
        let stats = handle.store_stats();
        failed += stats.evictions + spec.keys.saturating_sub(stats.items);
    }
    Server {
        handle,
        setup: start.elapsed(),
        attempted,
        failed,
    }
}

/// `stats engine` as `(name, value)` pairs.
fn engine_stats(addr: SocketAddr) -> Vec<(String, u64)> {
    let Ok(mut conn) = Connection::connect(addr) else {
        return Vec::new();
    };
    let lines = conn.text_block(b"stats engine\r\n").unwrap_or_default();
    let _ = conn.quit();
    lines
        .iter()
        .filter_map(|l| {
            let mut f = l.split_whitespace().skip(1);
            Some((f.next()?.to_owned(), f.next()?.parse().ok()?))
        })
        .collect()
}

fn stat(stats: &[(String, u64)], name: &str) -> u64 {
    stats.iter().find(|(n, _)| n == name).map_or(0, |(_, v)| *v)
}

/// Tier pages in use over tier pages carved, percent.
fn tier_fill_pct(stats: &[(String, u64)]) -> f64 {
    let sum = |suffix: &str| -> u64 {
        stats
            .iter()
            .filter(|(n, _)| n.starts_with("engine_tier_") && n.ends_with(suffix))
            .map(|(_, v)| v)
            .sum()
    };
    100.0 * sum("_used_pages") as f64 / sum("_total_pages").max(1) as f64
}

/// The in-process replays: parse, dispatch, and the store under it.
fn replay_layers(spec: Spec, seed: u64, out: &mut Outcome) {
    let mut generator = Generator::new(spec, seed, CLIENTS + 1);
    let requests: Vec<Request> = (0..REPLAY).map(|_| generator.next_request()).collect();
    let (mut value, mut bytes) = (Vec::new(), Vec::new());
    // One receive buffer per request, as a connection holds after a read.
    let mut wires: Vec<BytesMut> = requests
        .iter()
        .map(|request| {
            render(request, &mut value, &mut bytes);
            BytesMut::from(&bytes[..])
        })
        .collect();

    let start = Instant::now();
    let mut commands = Vec::with_capacity(REPLAY);
    for wire in &mut wires {
        if let Ok(Parsed::Complete(command)) = parse_command(wire) {
            commands.push(command);
        }
    }
    out.set(
        "kv.parse_ns",
        start.elapsed().as_nanos() as f64 / REPLAY as f64,
    );
    out.attempted += REPLAY as u64;
    out.failed += (REPLAY - commands.len()) as u64;

    let store = ShardedStore::new_with_backend(
        StoreConfig::with_capacity(spec.store_bytes),
        8,
        spec.backend,
    );
    let clock = FixedClock(0);
    let mut reply = BytesMut::new();
    let mut preload = BytesMut::new();
    for id in 0..spec.keys {
        render(&Request::Set(id), &mut value, &mut bytes);
        preload.extend_from_slice(&bytes);
        if let Ok(Parsed::Complete(command)) = parse_command(&mut preload) {
            store.dispatch(command, &clock, &mut reply);
            reply.clear();
        }
    }
    let start = Instant::now();
    for command in commands {
        store.dispatch(command, &clock, &mut reply);
        reply.clear();
    }
    out.set(
        "serve.dispatch_ns",
        start.elapsed().as_nanos() as f64 / REPLAY as f64,
    );

    let mut backend: Box<dyn StoreBackend> = match spec.backend {
        BackendKind::Model => Box::new(KvStore::new(StoreConfig::with_capacity(spec.store_bytes))),
        BackendKind::Engine => Box::new(Engine::new(StoreConfig::with_capacity(spec.store_bytes))),
    };
    for id in 0..spec.keys {
        write_value(id, value_len(id), &mut value);
        let _ = backend.set_with_flags(&key_bytes(id), value.clone(), 0, None, 0);
    }
    let sets: Vec<(Vec<u8>, Vec<u8>)> = requests
        .iter()
        .filter_map(|r| match r {
            Request::Set(id) => {
                write_value(*id, value_len(*id), &mut value);
                Some((key_bytes(*id), value.clone()))
            }
            Request::Get(_) => None,
        })
        .collect();
    let gets: Vec<Vec<u8>> = requests
        .iter()
        .filter_map(|r| match r {
            Request::Get(ids) => Some(ids.iter().map(|&id| key_bytes(id))),
            Request::Set(_) => None,
        })
        .flatten()
        .collect();
    let set_count = sets.len();
    let start = Instant::now();
    for (key, value) in sets {
        let _ = std::hint::black_box(backend.set_with_flags(&key, value, 0, None, 0));
    }
    let set_ns = start.elapsed().as_nanos() as f64 / set_count.max(1) as f64;
    let start = Instant::now();
    for key in &gets {
        std::hint::black_box(backend.get(key, 0));
    }
    let get_ns = start.elapsed().as_nanos() as f64 / gets.len().max(1) as f64;
    match spec.backend {
        BackendKind::Model => {
            let ops = (set_count + gets.len()).max(1) as f64;
            out.set(
                "kv.store_ns_per_op",
                (set_ns * set_count as f64 + get_ns * gets.len() as f64) / ops,
            );
        }
        BackendKind::Engine => {
            out.set("engine.set_ns", set_ns);
            out.set("engine.get_ns", get_ns);
        }
    }
}

/// Folds the client threads' loads into one.
fn merge(loads: Vec<Load>) -> Load {
    let mut all = Load::default();
    for load in loads {
        all.latencies_ns.extend_from_slice(&load.latencies_ns);
        all.attempted += load.attempted;
        all.failed += load.failed;
        all.misses += load.misses;
        all.sets += load.sets;
        all.spans.send += load.spans.send;
        all.spans.wait += load.spans.wait;
        all.spans.parse += load.spans.parse;
    }
    all
}

/// Rate and exact RTT quantiles of one segment's load.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SegmentStats {
    ops_per_s: f64,
    p50_us: f64,
    p99_us: f64,
}

fn segment_stats(load: &Load, wall: Duration) -> SegmentStats {
    let mut latencies = load.latencies_ns.clone();
    latencies.sort_unstable();
    SegmentStats {
        ops_per_s: load.attempted as f64 / wall.as_secs_f64(),
        p50_us: quantile_sorted(&latencies, 0.50) as f64 / 1e3,
        p99_us: quantile_sorted(&latencies, 0.99) as f64 / 1e3,
    }
}

/// Runs one closed-loop segment on fresh connections, so the scheduler
/// places client and server threads anew, and counts it into `out`.
/// The returned load keeps its counts, not its latencies.
fn segment(
    addr: SocketAddr,
    spec: Spec,
    generators: &mut [Generator],
    traced: bool,
    out: &mut Outcome,
) -> (SegmentStats, Load) {
    let (wall, loads) = closed_loop(addr, spec, generators, SEGMENT, traced);
    let mut load = merge(loads);
    out.attempted += load.attempted;
    out.failed += load.failed;
    let stats = segment_stats(&load, wall);
    load.latencies_ns = Vec::new();
    release_freed_memory();
    (stats, load)
}

/// Runs a live workload.
pub fn run(args: &Args, workload: Workload) -> Outcome {
    let spec = workload.spec();
    let mut out = Outcome::default();
    let mut generators: Vec<Generator> = (0..CLIENTS)
        .map(|c| Generator::new(spec, args.seed, c))
        .collect();
    let segments = (Duration::from_secs(args.seconds).as_nanos() / SEGMENT.as_nanos()).max(2);
    out.note(format!(
        "closed loop: {CLIENTS} client threads, one connection each, over {} keys, {:?} backend",
        spec.keys,
        spec.backend.as_str()
    ));

    if !args.trace {
        let mut setups = Vec::new();
        let mut server = None;
        for _ in 0..SETUPS {
            if let Some(previous) = server.take() {
                let previous: Server = previous;
                previous.handle.shutdown();
                release_freed_memory();
            }
            let s = start_server(spec, false);
            setups.push(s.setup.as_secs_f64());
            out.attempted += s.attempted;
            out.failed += s.failed;
            server = Some(s);
        }
        let server = server.expect("at least one set-up");
        out.note(format!(
            "peak RSS after set-up: {:.1} MB",
            crate::report::peak_rss_mb()
        ));
        // The medians over segments are what a run reports.
        let (mut stats, mut requests, mut sets, mut misses) = (Vec::new(), 0, 0, 0);
        for _ in 0..segments {
            let (s, load) = segment(server.handle.addr(), spec, &mut generators, false, &mut out);
            stats.push(s);
            requests += load.attempted;
            sets += load.sets;
            misses += load.misses;
        }
        server.handle.shutdown();
        out.note(format!(
            "{requests} requests ({sets} SETs, {misses} GET misses), each an exact RTT sample, \
             over {segments} segments of {SEGMENT:?}, about {} per segment",
            requests / segments as u64
        ));
        let med = |f: fn(&SegmentStats) -> f64| median(&stats.iter().map(f).collect::<Vec<_>>());
        out.set("ops_per_s", med(|s| s.ops_per_s));
        out.set("lat_p50_us", med(|s| s.p50_us));
        out.set("lat_p99_us", med(|s| s.p99_us));
        out.set("setup_s", median(&setups));
        return out;
    }

    // Traced: segments alternate between a metrics-off and a
    // metrics-on server; the on-segments carry the client spans.
    let off = start_server(spec, false);
    let on = start_server(spec, true);
    for s in [&off, &on] {
        out.attempted += s.attempted;
        out.failed += s.failed;
    }
    on.handle.metrics().reset();
    let engine_before = engine_stats(on.handle.addr());
    let (mut off_rates, mut on_rates) = (Vec::new(), Vec::new());
    let (mut requests, mut sets, mut spans) = (0, 0, Spans::default());
    for i in 0..segments {
        let traced = i % 2 == 1;
        let addr = if traced {
            on.handle.addr()
        } else {
            off.handle.addr()
        };
        let (stats, load) = segment(addr, spec, &mut generators, traced, &mut out);
        if traced {
            on_rates.push(stats.ops_per_s);
            requests += load.attempted;
            sets += load.sets;
            spans.send += load.spans.send;
            spans.wait += load.spans.wait;
            spans.parse += load.spans.parse;
        } else {
            off_rates.push(stats.ops_per_s);
        }
    }
    let engine_after = engine_stats(on.handle.addr());
    let metrics = on.handle.metrics();
    let server = metrics.overall_quantiles();
    let shards = metrics.shard_snapshots();
    let per_request = |ns: u64| ns as f64 / requests.max(1) as f64 / 1e3;
    let Spans { send, wait, parse } = spans;
    let client_us = per_request(send + wait + parse);
    let server_us = server.mean.as_micros_f64();
    let sum = |f: fn(&densekv_serve::ShardLockSnapshot) -> u64| shards.iter().map(f).sum::<u64>();
    out.set("serve.server_us", server_us);
    out.set("serve.lock_wait_us", per_request(sum(|s| s.wait_ns)));
    out.set("serve.lock_hold_us", per_request(sum(|s| s.hold_ns)));
    out.set(
        "serve.contended_frac",
        sum(|s| s.contended) as f64 / sum(|s| s.acquisitions).max(1) as f64,
    );
    out.set("client.send_us", per_request(send));
    out.set("client.wait_us", per_request(wait));
    out.set("client.parse_us", per_request(parse));
    out.set("kernel.remainder_us", client_us - server_us);
    if spec.backend == BackendKind::Engine {
        let evictions =
            stat(&engine_after, "engine_evictions") - stat(&engine_before, "engine_evictions");
        out.set(
            "engine.evictions_per_set",
            evictions as f64 / sets.max(1) as f64,
        );
        out.set("engine.tier_fill_pct", tier_fill_pct(&engine_after));
    }
    out.set(
        "trace.overhead_frac",
        1.0 - median(&on_rates) / median(&off_rates),
    );
    out.note(format!(
        "traced: {requests} requests on the metrics-on server, {} server samples",
        server.count
    ));
    off.handle.shutdown();
    on.handle.shutdown();
    replay_layers(spec, args.seed, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_name_their_key_and_length() {
        let mut v = Vec::new();
        for (id, len) in [(0, 64), (7, 1024), (123_456, 65_536)] {
            write_value(id, len, &mut v);
            assert_eq!(v.len(), len);
            assert!(value_ok(id, &v));
            assert!(!value_ok(id + 1, &v));
            assert!(!value_ok(id, &v[..len - 1]));
        }
    }

    #[test]
    fn sizes_follow_the_etc_mix() {
        let sizes: Vec<usize> = (0..10_000).map(value_len).collect();
        assert_eq!(sizes, (0..10_000).map(value_len).collect::<Vec<_>>());
        let small = sizes.iter().filter(|&&s| s <= 1024).count();
        assert!((8_500..9_500).contains(&small), "{small}");
        assert!(sizes
            .iter()
            .all(|s| ETC_VALUE_MIX.iter().any(|(m, _)| *m as usize == *s)));
    }

    /// Four keys, two-key GETs only.
    fn tiny() -> Spec {
        Spec {
            backend: BackendKind::Model,
            keys: 4,
            store_bytes: 64 << 20,
            get_fraction: 1.0,
            batch: 2,
            zipf: None,
            all_hit: true,
        }
    }

    /// A GET that returns another key's value is wrong and counts as a
    /// failed operation.
    #[test]
    fn wrong_key_value_counts_as_failed() {
        let spec = tiny();
        let server = start_server(spec, false);
        assert_eq!((server.attempted, server.failed), (4, 0));
        let addr = server.handle.addr();
        let mut generators = vec![Generator::new(spec, 9, 0)];
        let length = Duration::from_millis(100);
        let (_, loads) = closed_loop(addr, spec, &mut generators, length, false);
        let clean = merge(loads);
        assert!(clean.attempted > 0 && clean.failed == 0);

        // Store key 1's value, at key 2's length, under key 2.
        let mut value = Vec::new();
        write_value(1, value_len(2), &mut value);
        let mut forged = b"set ".to_vec();
        forged.extend_from_slice(&key_bytes(2));
        forged.extend_from_slice(format!(" 0 0 {}\r\n", value.len()).as_bytes());
        forged.extend_from_slice(&value);
        forged.extend_from_slice(b"\r\n");
        let mut client = Client::connect(addr).expect("connect");
        let stored = client
            .roundtrip(&Request::Set(2), &forged, None)
            .expect("set");
        assert_eq!(stored, Verdict::Ok { misses: 0 });
        drop(client);

        let (_, loads) = closed_loop(addr, spec, &mut generators, length, false);
        let forged = merge(loads);
        assert!(forged.failed > 0 && forged.failed < forged.attempted);
        server.handle.shutdown();
    }

    #[test]
    fn mget_reply_with_a_miss_is_reported() {
        let server = spawn(ServeConfig::ephemeral()).expect("bind");
        let mut client = Client::connect(server.addr()).expect("connect");
        let (mut value, mut bytes) = (Vec::new(), Vec::new());
        render(&Request::Set(1), &mut value, &mut bytes);
        client.roundtrip(&Request::Set(1), &bytes, None).unwrap();
        let get = Request::Get(vec![0, 1, 5]);
        render(&get, &mut value, &mut bytes);
        let mut spans = Spans::default();
        assert_eq!(
            client.roundtrip(&get, &bytes, Some(&mut spans)).unwrap(),
            Verdict::Ok { misses: 2 }
        );
        assert!(spans.wait > 0);
        server.shutdown();
    }
}
