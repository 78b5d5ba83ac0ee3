//! The live observability plane: per-verb counters and latency
//! histograms, shard-lock contention accounting, deterministic span
//! sampling, and a slow-request log — all fed by real wall-clock
//! measurements from the TCP front-end.
//!
//! The instruments are the *same types* the simulator fills
//! ([`MetricsRegistry`], [`LogHistogram`](densekv_telemetry::LogHistogram),
//! [`Tracer`]), bridged to wall time by [`Stopwatch`]. That is the
//! point: a `stats latency` reply from the live server and a
//! percentile row from the simulator are directly comparable numbers,
//! which is what lets `serve_validate` treat the simulator as a timing
//! oracle and what lets the `serve_obs` experiment cross-check
//! server-side percentiles against the load generator's client-side
//! view.
//!
//! Observability here is **opt-out passive**: with
//! [`MetricsConfig::enabled`] false every record call is a branch and
//! the data path produces byte-identical responses — the live analogue
//! of the simulator's "telemetry cannot change results" invariant.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::BytesMut;
use parking_lot::Mutex;

use densekv_kv::protocol::{Command, StoreVerb};
use densekv_sim::{Duration as SimDuration, SimTime};
use densekv_telemetry::{
    CounterId, GaugeId, HistogramId, MetricsRegistry, Quantiles, SloConfig, SloSnapshot,
    SloTracker, SpanBuilder, Stopwatch, Tracer, WindowedHistogram, WindowedRate,
};

use crate::server::ServeStats;

/// Number of protocol verbs the plane tracks (every [`Verb`] variant).
pub const VERB_COUNT: usize = 16;

/// A protocol verb as the observability plane classifies it: one label
/// per distinct command shape, with the six storage verbs split out so
/// `set` and `cas` latency are not blended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verb {
    /// `get` / `gets`.
    Get,
    /// `set`.
    Set,
    /// `add`.
    Add,
    /// `replace`.
    Replace,
    /// `append`.
    Append,
    /// `prepend`.
    Prepend,
    /// `cas`.
    Cas,
    /// `incr`.
    Incr,
    /// `decr`.
    Decr,
    /// `delete`.
    Delete,
    /// `touch`.
    Touch,
    /// `flush_all`.
    FlushAll,
    /// `stats` and its sub-commands.
    Stats,
    /// The `metrics` exposition verb.
    Metrics,
    /// `version`.
    Version,
    /// `quit`.
    Quit,
}

impl Verb {
    /// Every verb, in the order `stats latency` reports them.
    pub const ALL: [Verb; VERB_COUNT] = [
        Verb::Get,
        Verb::Set,
        Verb::Add,
        Verb::Replace,
        Verb::Append,
        Verb::Prepend,
        Verb::Cas,
        Verb::Incr,
        Verb::Decr,
        Verb::Delete,
        Verb::Touch,
        Verb::FlushAll,
        Verb::Stats,
        Verb::Metrics,
        Verb::Version,
        Verb::Quit,
    ];

    /// Classifies a parsed command.
    #[must_use]
    pub fn of(command: &Command) -> Verb {
        match command {
            Command::Get { .. } => Verb::Get,
            Command::Set { verb, .. } => match verb {
                StoreVerb::Set => Verb::Set,
                StoreVerb::Add => Verb::Add,
                StoreVerb::Replace => Verb::Replace,
                StoreVerb::Append => Verb::Append,
                StoreVerb::Prepend => Verb::Prepend,
                StoreVerb::Cas => Verb::Cas,
            },
            Command::IncrDecr {
                decrement: false, ..
            } => Verb::Incr,
            Command::IncrDecr { .. } => Verb::Decr,
            Command::Delete { .. } => Verb::Delete,
            Command::Touch { .. } => Verb::Touch,
            Command::FlushAll => Verb::FlushAll,
            Command::Stats { .. } => Verb::Stats,
            Command::Metrics => Verb::Metrics,
            Command::Version => Verb::Version,
            Command::Quit => Verb::Quit,
        }
    }

    /// The wire-level verb name (also the trace span label).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Verb::Get => "get",
            Verb::Set => "set",
            Verb::Add => "add",
            Verb::Replace => "replace",
            Verb::Append => "append",
            Verb::Prepend => "prepend",
            Verb::Cas => "cas",
            Verb::Incr => "incr",
            Verb::Decr => "decr",
            Verb::Delete => "delete",
            Verb::Touch => "touch",
            Verb::FlushAll => "flush_all",
            Verb::Stats => "stats",
            Verb::Metrics => "metrics",
            Verb::Version => "version",
            Verb::Quit => "quit",
        }
    }

    /// Registry name of this verb's command counter.
    #[must_use]
    pub fn counter_name(self) -> &'static str {
        match self {
            Verb::Get => "serve.cmd.get",
            Verb::Set => "serve.cmd.set",
            Verb::Add => "serve.cmd.add",
            Verb::Replace => "serve.cmd.replace",
            Verb::Append => "serve.cmd.append",
            Verb::Prepend => "serve.cmd.prepend",
            Verb::Cas => "serve.cmd.cas",
            Verb::Incr => "serve.cmd.incr",
            Verb::Decr => "serve.cmd.decr",
            Verb::Delete => "serve.cmd.delete",
            Verb::Touch => "serve.cmd.touch",
            Verb::FlushAll => "serve.cmd.flush_all",
            Verb::Stats => "serve.cmd.stats",
            Verb::Metrics => "serve.cmd.metrics",
            Verb::Version => "serve.cmd.version",
            Verb::Quit => "serve.cmd.quit",
        }
    }

    /// Registry name of this verb's latency histogram.
    #[must_use]
    pub fn histogram_name(self) -> &'static str {
        match self {
            Verb::Get => "serve.latency.get",
            Verb::Set => "serve.latency.set",
            Verb::Add => "serve.latency.add",
            Verb::Replace => "serve.latency.replace",
            Verb::Append => "serve.latency.append",
            Verb::Prepend => "serve.latency.prepend",
            Verb::Cas => "serve.latency.cas",
            Verb::Incr => "serve.latency.incr",
            Verb::Decr => "serve.latency.decr",
            Verb::Delete => "serve.latency.delete",
            Verb::Touch => "serve.latency.touch",
            Verb::FlushAll => "serve.latency.flush_all",
            Verb::Stats => "serve.latency.stats",
            Verb::Metrics => "serve.latency.metrics",
            Verb::Version => "serve.latency.version",
            Verb::Quit => "serve.latency.quit",
        }
    }

    /// Dense index into the per-verb handle arrays.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// How the front-end's observability plane is shaped.
#[derive(Debug, Clone)]
pub struct MetricsConfig {
    /// Master switch. Off = every instrument call is one branch and the
    /// data path is byte-identical to an uninstrumented server.
    pub enabled: bool,
    /// Trace every Nth request as a phase span (0 disables tracing
    /// while keeping counters/histograms on).
    pub sample_every: u64,
    /// Requests at or above this wall-clock latency land in the
    /// slow-request log.
    pub slow_threshold: std::time::Duration,
    /// Bounded slow-log length; the oldest entry is dropped first.
    pub slow_log_capacity: usize,
    /// Wall-clock length of one observation window — the rotation
    /// cadence of the windowed histograms, rates, and SLO tracker
    /// (clamped to ≥ 1 ms).
    pub window: std::time::Duration,
    /// Closed windows the `stats windows` ring retains.
    pub window_retain: usize,
    /// The latency objective the windowed plane burns against. With
    /// the default 1 s window, the default 5-short/60-long windows are
    /// the classic 5 s / 1 min multi-window burn-rate pair.
    pub slo: SloConfig,
    /// Window snapshots the flight recorder retains.
    pub recorder_capacity: usize,
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig {
            enabled: true,
            sample_every: 1024,
            slow_threshold: std::time::Duration::from_millis(10),
            slow_log_capacity: 64,
            window: std::time::Duration::from_secs(1),
            window_retain: 32,
            slo: SloConfig::default(),
            recorder_capacity: 32,
        }
    }
}

impl MetricsConfig {
    /// A fully inert plane (the byte-identity baseline).
    #[must_use]
    pub fn disabled() -> Self {
        MetricsConfig {
            enabled: false,
            ..MetricsConfig::default()
        }
    }
}

/// Per-shard lock accounting, updated lock-free by workers.
#[derive(Debug, Default)]
struct ShardLockStats {
    acquisitions: AtomicU64,
    contended: AtomicU64,
    wait_ns: AtomicU64,
    hold_ns: AtomicU64,
    hold_max_ns: AtomicU64,
}

/// A point-in-time copy of one shard's lock counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardLockSnapshot {
    /// Times the shard lock was taken.
    pub acquisitions: u64,
    /// Acquisitions where `try_lock` failed first (another worker held
    /// the shard) — the live analogue of the paper's §3.6 contention.
    pub contended: u64,
    /// Total nanoseconds spent waiting for the lock.
    pub wait_ns: u64,
    /// Total nanoseconds the lock was held.
    pub hold_ns: u64,
    /// Longest single hold, nanoseconds.
    pub hold_max_ns: u64,
}

/// One entry of the slow-request log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlowRequest {
    /// Global request sequence number.
    pub seq: u64,
    /// The verb that was slow.
    pub verb: Verb,
    /// Measured wall latency.
    pub latency: SimDuration,
    /// Server uptime when the request finished.
    pub at: SimDuration,
}

/// Why the flight recorder tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trigger {
    /// `"slo-burn"`, `"shard-contention"`, or `"connection-saturation"`.
    pub reason: &'static str,
    /// The window index (1-based, counted since server start) whose
    /// close tripped the recorder.
    pub window: u64,
}

/// A point-in-time summary of one closed observation window — the unit
/// the flight recorder rings.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    /// Window index, 1-based since server start (reset does not rewind
    /// it, so indices stay comparable across a `stats reset`).
    pub index: u64,
    /// Server uptime when the window closed.
    pub end_uptime: SimDuration,
    /// Requests completed in the window.
    pub total: u64,
    /// Requests that missed the latency objective.
    pub bad: u64,
    /// The window's latency quantiles.
    pub quantiles: Quantiles,
    /// Per-verb request counts (indexed by [`Verb::index`]).
    pub verbs: [u64; VERB_COUNT],
    /// Shard-lock acquisitions during the window (delta, all shards).
    pub lock_acquisitions: u64,
    /// Contended shard-lock acquisitions during the window.
    pub lock_contended: u64,
    /// Connections active when the window closed.
    pub conns_active: u64,
    /// Connections rejected `busy` during the window.
    pub conns_rejected: u64,
    /// Short-window SLO burn rate after this window.
    pub short_burn: f64,
    /// Long-window SLO burn rate after this window.
    pub long_burn: f64,
    /// The trigger this window tripped, if any.
    pub trigger: Option<&'static str>,
}

/// Contention trigger: at least this many acquisitions in the window…
const CONTENTION_MIN_ACQ: u64 = 16;
/// …of which at least half were contended.
const CONTENTION_FRACTION_NUM: u64 = 1;
const CONTENTION_FRACTION_DEN: u64 = 2;
/// Spans embedded in a flight-recorder dump (newest first retained).
const RECORDER_SPAN_CAP: usize = 64;
/// EWMA smoothing factor of the per-verb windowed rates.
const RATE_EWMA_ALPHA: f64 = 0.3;
/// Longest catch-up rotation run after an idle stretch; beyond this
/// many windows every ring and the SLO ledger are all-empty anyway, so
/// the rotation epoch just jumps.
const MAX_CATCHUP_WINDOWS: u64 = 128;

/// The windowed side of the plane, all mutated under one mutex.
struct WindowPlane {
    /// Windows closed since server start (monotonic; reset keeps it).
    closed: u64,
    /// Windowed view of all-verb latency.
    overall: WindowedHistogram,
    /// Per-verb windowed request rates.
    rates: [WindowedRate; VERB_COUNT],
    /// Multi-window burn-rate tracking against the configured
    /// objective.
    slo: SloTracker,
    /// The flight recorder's snapshot ring, oldest first.
    recorder: VecDeque<WindowSnapshot>,
    recorder_capacity: usize,
    /// The most recent trigger edge.
    last_trigger: Option<Trigger>,
    /// Whether the previous closed window was in a triggered state
    /// (the recorder dumps on the rising edge only).
    triggered: bool,
    /// The dump captured at the last rising trigger edge, waiting to
    /// be collected by [`ServeMetrics::take_auto_dump`].
    auto_dump: Option<String>,
    /// Totals at the previous window close, for per-window deltas.
    prev_acquisitions: u64,
    prev_contended: u64,
    prev_rejected: u64,
}

/// The wall-clock phase breakdown of one sampled request, mirroring the
/// simulator's NIC→TCP→kv→memory decomposition (paper Fig. 4) with the
/// phases a real socket server actually has.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestPhases {
    /// The socket read that delivered this request's bytes.
    pub recv: std::time::Duration,
    /// Protocol parse.
    pub parse: std::time::Duration,
    /// Waiting for the shard lock(s).
    pub lock_wait: std::time::Duration,
    /// Store execution (lock held) plus response rendering.
    pub store: std::time::Duration,
    /// Writing the response back to the socket.
    pub write: std::time::Duration,
}

impl RequestPhases {
    fn total(&self) -> std::time::Duration {
        self.recv + self.parse + self.lock_wait + self.store + self.write
    }
}

/// The front-end's live observability plane.
///
/// Shared by every worker thread: the registry and tracer sit behind
/// short-critical-section mutexes (one lock per completed request, not
/// per byte), shard-lock stats are plain atomics. All of it is inert
/// when constructed from a disabled [`MetricsConfig`].
pub struct ServeMetrics {
    enabled: bool,
    sample_every: u64,
    slow_threshold: std::time::Duration,
    slow_capacity: usize,
    start: Stopwatch,
    seq: AtomicU64,
    registry: Mutex<MetricsRegistry>,
    verb_counters: [CounterId; VERB_COUNT],
    verb_histograms: [HistogramId; VERB_COUNT],
    gauge_bytes_in: GaugeId,
    gauge_bytes_out: GaugeId,
    gauge_active: GaugeId,
    gauge_rejected: GaugeId,
    shards: Vec<ShardLockStats>,
    tracer: Mutex<Tracer>,
    slow: Mutex<VecDeque<SlowRequest>>,
    /// Rotation cadence (clamped ≥ 1 ms), and its picosecond form the
    /// boundary check divides by.
    window: std::time::Duration,
    window_ps: u64,
    windows: Mutex<WindowPlane>,
    /// Connection-plane counters mirrored here so window snapshots and
    /// the saturation trigger can read them without reaching into the
    /// server's shared state.
    conn_active: AtomicU64,
    conn_capacity: AtomicU64,
    conn_rejected: AtomicU64,
}

impl std::fmt::Debug for ServeMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServeMetrics")
            .field("enabled", &self.enabled)
            .field("sample_every", &self.sample_every)
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl ServeMetrics {
    /// Builds the plane for a server with `shards` lock stripes.
    #[must_use]
    pub fn new(config: &MetricsConfig, shards: usize) -> Self {
        let mut registry = if config.enabled {
            MetricsRegistry::enabled()
        } else {
            MetricsRegistry::disabled()
        };
        let verb_counters = std::array::from_fn(|i| registry.counter(Verb::ALL[i].counter_name()));
        let verb_histograms =
            std::array::from_fn(|i| registry.histogram(Verb::ALL[i].histogram_name()));
        let gauge_bytes_in = registry.gauge("serve.bytes_in");
        let gauge_bytes_out = registry.gauge("serve.bytes_out");
        let gauge_active = registry.gauge("serve.connections.active");
        let gauge_rejected = registry.gauge("serve.connections.rejected");
        let tracer = if config.enabled && config.sample_every > 0 {
            Tracer::every(config.sample_every)
        } else {
            Tracer::disabled()
        };
        let window = config.window.max(std::time::Duration::from_millis(1));
        let window_sim = SimDuration::from_std(window);
        let plane = WindowPlane {
            closed: 0,
            overall: WindowedHistogram::new(config.window_retain.max(1)),
            rates: std::array::from_fn(|_| WindowedRate::new(window_sim, RATE_EWMA_ALPHA)),
            slo: SloTracker::new(config.slo),
            recorder: VecDeque::new(),
            recorder_capacity: config.recorder_capacity.max(1),
            last_trigger: None,
            triggered: false,
            auto_dump: None,
            prev_acquisitions: 0,
            prev_contended: 0,
            prev_rejected: 0,
        };
        ServeMetrics {
            enabled: config.enabled,
            sample_every: config.sample_every,
            slow_threshold: config.slow_threshold,
            slow_capacity: config.slow_log_capacity,
            start: Stopwatch::start(),
            seq: AtomicU64::new(0),
            registry: Mutex::new(registry),
            verb_counters,
            verb_histograms,
            gauge_bytes_in,
            gauge_bytes_out,
            gauge_active,
            gauge_rejected,
            shards: (0..shards).map(|_| ShardLockStats::default()).collect(),
            tracer: Mutex::new(tracer),
            slow: Mutex::new(VecDeque::new()),
            window,
            window_ps: SimDuration::from_std(window).as_ps().max(1),
            windows: Mutex::new(plane),
            conn_active: AtomicU64::new(0),
            conn_capacity: AtomicU64::new(0),
            conn_rejected: AtomicU64::new(0),
        }
    }

    /// A fully inert plane.
    #[must_use]
    pub fn disabled(shards: usize) -> Self {
        ServeMetrics::new(&MetricsConfig::disabled(), shards)
    }

    /// Whether any instrument records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Wall time since the plane (= the server) started.
    #[must_use]
    pub fn uptime(&self) -> SimDuration {
        self.start.elapsed()
    }

    /// Next global request sequence number (drives trace sampling).
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Whether request `seq` should record a phase span.
    #[must_use]
    pub fn samples(&self, seq: u64) -> bool {
        self.enabled && self.sample_every > 0 && seq.is_multiple_of(self.sample_every)
    }

    /// Closes every window whose wall-clock boundary has passed. Called
    /// with the plane lock held; cheap when no boundary crossed (one
    /// division and a compare). After a long idle stretch the epoch
    /// jumps rather than replaying thousands of empty rotations —
    /// beyond [`MAX_CATCHUP_WINDOWS`] every bounded ring would be
    /// all-empty either way.
    fn rotate_due(&self, plane: &mut WindowPlane) {
        let uptime = self.start.elapsed();
        let target = uptime.as_ps() / self.window_ps;
        if plane.closed >= target {
            return;
        }
        let missed = target - plane.closed;
        if missed > MAX_CATCHUP_WINDOWS {
            plane.closed = target - MAX_CATCHUP_WINDOWS;
        }
        while plane.closed < target {
            self.close_window(plane);
        }
    }

    /// Closes the open window: rotates the histogram ring and the
    /// per-verb rates, feeds the SLO tracker, snapshots the window for
    /// the flight recorder, and fires the recorder on a rising trigger
    /// edge.
    fn close_window(&self, plane: &mut WindowPlane) {
        let closed_hist = plane.overall.rotate();
        let total = closed_hist.count();
        let objective = plane.slo.config().objective;
        let within = closed_hist.fraction_within(objective).unwrap_or(1.0);
        let good = ((within * total as f64).round() as u64).min(total);
        let bad = total - good;
        plane.slo.observe_window(total, bad);
        let mut verbs = [0u64; VERB_COUNT];
        for (i, rate) in plane.rates.iter_mut().enumerate() {
            rate.rotate();
            verbs[i] = rate.last_count();
        }
        let (mut acq, mut contended) = (0u64, 0u64);
        for s in &self.shards {
            acq += s.acquisitions.load(Ordering::Relaxed);
            contended += s.contended.load(Ordering::Relaxed);
        }
        let lock_acquisitions = acq.saturating_sub(plane.prev_acquisitions);
        let lock_contended = contended.saturating_sub(plane.prev_contended);
        plane.prev_acquisitions = acq;
        plane.prev_contended = contended;
        let rejected_total = self.conn_rejected.load(Ordering::Relaxed);
        let conns_rejected = rejected_total.saturating_sub(plane.prev_rejected);
        plane.prev_rejected = rejected_total;
        let conns_active = self.conn_active.load(Ordering::Relaxed);
        let capacity = self.conn_capacity.load(Ordering::Relaxed);

        let short_burn = plane.slo.short_burn();
        let long_burn = plane.slo.long_burn();
        let trigger = if plane.slo.alerting() {
            Some("slo-burn")
        } else if lock_acquisitions >= CONTENTION_MIN_ACQ
            && lock_contended * CONTENTION_FRACTION_DEN
                >= lock_acquisitions * CONTENTION_FRACTION_NUM
        {
            Some("shard-contention")
        } else if conns_rejected > 0 || (capacity > 0 && conns_active >= capacity) {
            Some("connection-saturation")
        } else {
            None
        };

        plane.closed += 1;
        let snapshot = WindowSnapshot {
            index: plane.closed,
            end_uptime: self.start.elapsed(),
            total,
            bad,
            quantiles: closed_hist.quantiles(),
            verbs,
            lock_acquisitions,
            lock_contended,
            conns_active,
            conns_rejected,
            short_burn,
            long_burn,
            trigger,
        };
        // Idle windows with nothing to say are not recorded, so one
        // request after a quiet hour still has history behind it.
        if total > 0 || lock_acquisitions > 0 || conns_rejected > 0 || trigger.is_some() {
            if plane.recorder.len() == plane.recorder_capacity {
                plane.recorder.pop_front();
            }
            plane.recorder.push_back(snapshot);
        }
        match trigger {
            Some(reason) => {
                if !plane.triggered {
                    plane.last_trigger = Some(Trigger {
                        reason,
                        window: plane.closed,
                    });
                    plane.auto_dump = Some(self.recorder_json_locked(plane));
                }
                plane.triggered = true;
            }
            None => plane.triggered = false,
        }
    }

    /// Records one completed request: bumps the verb counter, lands the
    /// latency in the verb's histogram, rotates any due windows and
    /// feeds the windowed plane, and logs it if slow.
    pub fn record_command(&self, verb: Verb, latency: std::time::Duration, seq: u64) {
        if !self.enabled {
            return;
        }
        let d = SimDuration::from_std(latency);
        {
            let mut plane = self.windows.lock();
            self.rotate_due(&mut plane);
            plane.overall.record(d);
            plane.rates[verb.index()].record(1);
        }
        {
            let mut registry = self.registry.lock();
            registry.inc(self.verb_counters[verb.index()], 1);
            registry.observe(self.verb_histograms[verb.index()], d);
        }
        if latency >= self.slow_threshold && self.slow_capacity > 0 {
            let mut slow = self.slow.lock();
            if slow.len() == self.slow_capacity {
                slow.pop_front();
            }
            slow.push_back(SlowRequest {
                seq,
                verb,
                latency: d,
                at: self.start.elapsed(),
            });
        }
    }

    /// Records one shard-lock acquisition: how long the worker waited,
    /// how long it held, and whether `try_lock` lost the race.
    pub fn record_shard(
        &self,
        shard: usize,
        wait: std::time::Duration,
        hold: std::time::Duration,
        contended: bool,
    ) {
        if !self.enabled {
            return;
        }
        let Some(s) = self.shards.get(shard) else {
            return;
        };
        s.acquisitions.fetch_add(1, Ordering::Relaxed);
        if contended {
            s.contended.fetch_add(1, Ordering::Relaxed);
        }
        let wait_ns = u64::try_from(wait.as_nanos()).unwrap_or(u64::MAX);
        let hold_ns = u64::try_from(hold.as_nanos()).unwrap_or(u64::MAX);
        s.wait_ns.fetch_add(wait_ns, Ordering::Relaxed);
        s.hold_ns.fetch_add(hold_ns, Ordering::Relaxed);
        s.hold_max_ns.fetch_max(hold_ns, Ordering::Relaxed);
    }

    /// Builds and stores the phase span of sampled request `seq`. The
    /// span is timestamped by server uptime (end minus the measured
    /// phase total), `pid` 1, `tid` = the connection id, so Perfetto
    /// shows per-connection lanes just like the simulator's traces.
    pub fn record_span(&self, seq: u64, verb: Verb, connection: u32, phases: &RequestPhases) {
        if !self.enabled {
            return;
        }
        let total = SimDuration::from_std(phases.total());
        let end = self.start.elapsed();
        let offset = if end > total {
            end - total
        } else {
            SimDuration::ZERO
        };
        let mut span = SpanBuilder::new(seq, verb.name(), 1, connection, SimTime::ZERO + offset);
        span.phase("recv", SimDuration::from_std(phases.recv))
            .phase("parse", SimDuration::from_std(phases.parse))
            .phase("shard-lock", SimDuration::from_std(phases.lock_wait))
            .phase("store", SimDuration::from_std(phases.store))
            .phase("write", SimDuration::from_std(phases.write));
        self.tracer.lock().push(span.build());
    }

    /// Number of spans collected so far.
    #[must_use]
    pub fn spans_recorded(&self) -> usize {
        self.tracer.lock().spans().len()
    }

    /// The collected spans as Chrome trace-event JSON (Perfetto-ready).
    #[must_use]
    pub fn trace_chrome_json(&self) -> String {
        self.tracer.lock().to_chrome_json()
    }

    /// Chrome trace-event JSON of only the newest `max` spans — for
    /// checked-in artifacts where the full trace would be megabytes.
    #[must_use]
    pub fn trace_chrome_json_capped(&self, max: usize) -> String {
        self.tracer.lock().to_chrome_json_capped(max)
    }

    /// The slow-request log, oldest first.
    #[must_use]
    pub fn slow_requests(&self) -> Vec<SlowRequest> {
        self.slow.lock().iter().copied().collect()
    }

    /// Quantiles of one verb's latency histogram (zeros when no
    /// requests of that verb have completed).
    #[must_use]
    pub fn verb_quantiles(&self, verb: Verb) -> Quantiles {
        self.registry
            .lock()
            .histogram_value(self.verb_histograms[verb.index()])
            .quantiles()
    }

    /// Quantiles over every verb's samples folded into one histogram —
    /// the server-side "all traffic" view the `serve_obs` experiment
    /// cross-checks against the load generator's client-side histogram.
    #[must_use]
    pub fn overall_quantiles(&self) -> Quantiles {
        let registry = self.registry.lock();
        let mut all = densekv_telemetry::LogHistogram::new();
        for verb in Verb::ALL {
            all.merge(registry.histogram_value(self.verb_histograms[verb.index()]));
        }
        all.quantiles()
    }

    /// Lifetime count of one verb.
    #[must_use]
    pub fn verb_count(&self, verb: Verb) -> u64 {
        self.registry
            .lock()
            .counter_value(self.verb_counters[verb.index()])
    }

    /// Point-in-time copies of every shard's lock counters.
    #[must_use]
    pub fn shard_snapshots(&self) -> Vec<ShardLockSnapshot> {
        self.shards
            .iter()
            .map(|s| ShardLockSnapshot {
                acquisitions: s.acquisitions.load(Ordering::Relaxed),
                contended: s.contended.load(Ordering::Relaxed),
                wait_ns: s.wait_ns.load(Ordering::Relaxed),
                hold_ns: s.hold_ns.load(Ordering::Relaxed),
                hold_max_ns: s.hold_max_ns.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Copies the front-end's own counters into the registry's gauges
    /// (called when rendering, so the exposition is always current).
    pub fn sync_gauges(&self, stats: &ServeStats, active: usize) {
        let mut registry = self.registry.lock();
        registry.set(self.gauge_bytes_in, stats.bytes_in as f64);
        registry.set(self.gauge_bytes_out, stats.bytes_out as f64);
        registry.set(self.gauge_active, active as f64);
        registry.set(self.gauge_rejected, stats.rejected_busy as f64);
    }

    /// The server calls this once at spawn so the saturation trigger
    /// knows the connection cap.
    pub fn set_connection_capacity(&self, capacity: usize) {
        self.conn_capacity.store(capacity as u64, Ordering::Relaxed);
    }

    /// One connection entered service.
    pub fn connection_opened(&self) {
        if self.enabled {
            self.conn_active.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One connection left service.
    pub fn connection_closed(&self) {
        if self.enabled {
            self.conn_active.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// One connection was refused `SERVER_ERROR busy`.
    pub fn connection_rejected(&self) {
        if self.enabled {
            self.conn_rejected.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The rotation cadence the plane was built with.
    #[must_use]
    pub fn window(&self) -> std::time::Duration {
        self.window
    }

    /// Windows closed since server start. Rotates due windows first, so
    /// polling this advances the plane even on an idle server.
    #[must_use]
    pub fn windows_closed(&self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let mut plane = self.windows.lock();
        self.rotate_due(&mut plane);
        plane.closed
    }

    /// Closes the open window immediately, regardless of the wall
    /// clock — the deterministic hook tests and experiments use to
    /// drive rotation without sleeping.
    pub fn rotate_now(&self) {
        if !self.enabled {
            return;
        }
        let mut plane = self.windows.lock();
        self.close_window(&mut plane);
    }

    /// The flight recorder's current snapshot ring, oldest first.
    #[must_use]
    pub fn window_snapshots(&self) -> Vec<WindowSnapshot> {
        if !self.enabled {
            return Vec::new();
        }
        let mut plane = self.windows.lock();
        self.rotate_due(&mut plane);
        plane.recorder.iter().cloned().collect()
    }

    /// The most recent trigger edge, if the recorder ever tripped.
    #[must_use]
    pub fn last_trigger(&self) -> Option<Trigger> {
        self.windows.lock().last_trigger
    }

    /// The SLO tracker's current reading (rotating due windows first).
    #[must_use]
    pub fn slo_snapshot(&self) -> SloSnapshot {
        let mut plane = self.windows.lock();
        if self.enabled {
            self.rotate_due(&mut plane);
        }
        plane.slo.snapshot()
    }

    /// Takes the dump captured at the last rising trigger edge, if one
    /// is waiting. The bench harness polls this and writes the JSON to
    /// disk — the plane itself never touches the filesystem.
    #[must_use]
    pub fn take_auto_dump(&self) -> Option<String> {
        self.windows.lock().auto_dump.take()
    }

    /// The on-demand flight-recorder dump (`stats dump`): rotates due
    /// windows, then serializes the snapshot ring, SLO state, slow log,
    /// and the newest sampled spans as one JSON object.
    #[must_use]
    pub fn flight_recorder_json(&self) -> String {
        if !self.enabled {
            return "{\"format\":\"densekv-flight-recorder-v1\",\"enabled\":false}".to_owned();
        }
        let mut plane = self.windows.lock();
        self.rotate_due(&mut plane);
        self.recorder_json_locked(&plane)
    }

    /// Serializes the recorder with the plane lock already held (shared
    /// by the on-demand dump and the rising-edge auto dump). Takes the
    /// slow-log and tracer locks inside the plane lock; nothing ever
    /// takes the plane lock while holding those, so the order is safe.
    fn recorder_json_locked(&self, plane: &WindowPlane) -> String {
        let mut out = String::from("{\"format\":\"densekv-flight-recorder-v1\",\"enabled\":true");
        out.push_str(&format!(
            ",\"uptime_us\":{:.1},\"window_ms\":{},\"windows_closed\":{}",
            self.start.elapsed().as_micros_f64(),
            self.window.as_millis(),
            plane.closed
        ));
        match plane.last_trigger {
            Some(t) => out.push_str(&format!(
                ",\"trigger\":{{\"reason\":\"{}\",\"window\":{}}}",
                t.reason, t.window
            )),
            None => out.push_str(",\"trigger\":null"),
        }
        let slo = plane.slo.snapshot();
        let config = plane.slo.config();
        out.push_str(&format!(
            ",\"slo\":{{\"objective_us\":{:.1},\"target\":{},\"short_burn\":{:.4},\
             \"long_burn\":{:.4},\"alerting\":{},\"windows\":{},\"total\":{},\"bad\":{}}}",
            config.objective.as_micros_f64(),
            config.target,
            slo.short_burn,
            slo.long_burn,
            slo.alerting,
            slo.windows,
            slo.total,
            slo.bad
        ));
        out.push_str(",\"windows\":[");
        for (i, w) in plane.recorder.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"end_uptime_us\":{:.1},\"total\":{},\"bad\":{},\
                 \"p50_us\":{:.2},\"p95_us\":{:.2},\"p99_us\":{:.2},\
                 \"lock_acquisitions\":{},\"lock_contended\":{},\
                 \"conns_active\":{},\"conns_rejected\":{},\
                 \"short_burn\":{:.4},\"long_burn\":{:.4},\"trigger\":{},\"verbs\":{{",
                w.index,
                w.end_uptime.as_micros_f64(),
                w.total,
                w.bad,
                w.quantiles.p50.as_micros_f64(),
                w.quantiles.p95.as_micros_f64(),
                w.quantiles.p99.as_micros_f64(),
                w.lock_acquisitions,
                w.lock_contended,
                w.conns_active,
                w.conns_rejected,
                w.short_burn,
                w.long_burn,
                match w.trigger {
                    Some(r) => format!("\"{r}\""),
                    None => "null".to_owned(),
                },
            ));
            let mut first = true;
            for verb in Verb::ALL {
                let n = w.verbs[verb.index()];
                if n == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                out.push_str(&format!("\"{}\":{n}", verb.name()));
            }
            out.push_str("}}");
        }
        out.push_str("],\"slow\":[");
        for (i, s) in self.slow.lock().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"seq\":{},\"verb\":\"{}\",\"latency_us\":{:.2},\"at_us\":{:.1}}}",
                s.seq,
                s.verb.name(),
                s.latency.as_micros_f64(),
                s.at.as_micros_f64()
            ));
        }
        out.push_str("],\"trace\":");
        out.push_str(&self.tracer.lock().to_chrome_json_capped(RECORDER_SPAN_CAP));
        out.push('}');
        out
    }

    /// Renders the `stats windows` reply: the rotation cadence, the
    /// per-verb windowed rates (last window + EWMA, events/sec), and
    /// per-window count/p50/p95/p99 for every window still in the ring
    /// (keyed by absolute window index, so a poller can align frames),
    /// terminated by `END`. Rotates due windows first, so polling this
    /// verb is what keeps an otherwise idle server's windows current.
    pub fn render_stats_windows(&self, out: &mut BytesMut) {
        if self.enabled {
            let mut plane = self.windows.lock();
            self.rotate_due(&mut plane);
            out.extend_from_slice(
                format!("STAT window_ms {}\r\n", self.window.as_millis()).as_bytes(),
            );
            out.extend_from_slice(format!("STAT windows_closed {}\r\n", plane.closed).as_bytes());
            out.extend_from_slice(
                format!("STAT windows_retained {}\r\n", plane.overall.retained()).as_bytes(),
            );
            for verb in Verb::ALL {
                let rate = &plane.rates[verb.index()];
                if rate.total() == 0 {
                    continue;
                }
                let n = verb.name();
                out.extend_from_slice(
                    format!("STAT rate_{n} {:.1}\r\n", rate.last_rate()).as_bytes(),
                );
                out.extend_from_slice(
                    format!("STAT rate_{n}_ewma {:.1}\r\n", rate.ewma_rate()).as_bytes(),
                );
            }
            let retained = plane.overall.retained() as u64;
            for (j, h) in plane.overall.windows().enumerate() {
                let idx = plane.closed - retained + j as u64 + 1;
                let q = h.quantiles();
                out.extend_from_slice(format!("STAT win_{idx}_count {}\r\n", q.count).as_bytes());
                for (stat, d) in [("p50", q.p50), ("p95", q.p95), ("p99", q.p99)] {
                    out.extend_from_slice(
                        format!("STAT win_{idx}_{stat}_us {:.2}\r\n", d.as_micros_f64()).as_bytes(),
                    );
                }
            }
        }
        out.extend_from_slice(b"END\r\n");
    }

    /// Renders the `stats slo` reply: objective, target, burn rates,
    /// alert state, and the lifetime good/bad ledger, terminated by
    /// `END`.
    pub fn render_stats_slo(&self, out: &mut BytesMut) {
        if self.enabled {
            let mut plane = self.windows.lock();
            self.rotate_due(&mut plane);
            let snap = plane.slo.snapshot();
            let config = plane.slo.config();
            out.extend_from_slice(
                format!(
                    "STAT slo_objective_us {:.1}\r\n",
                    config.objective.as_micros_f64()
                )
                .as_bytes(),
            );
            out.extend_from_slice(format!("STAT slo_target {}\r\n", config.target).as_bytes());
            out.extend_from_slice(
                format!("STAT slo_window_ms {}\r\n", self.window.as_millis()).as_bytes(),
            );
            for (stat, v) in [
                ("slo_short_windows", config.short_windows as u64),
                ("slo_long_windows", config.long_windows as u64),
                ("slo_windows", snap.windows),
                ("slo_total", snap.total),
                ("slo_bad", snap.bad),
                ("slo_alerting", u64::from(snap.alerting)),
            ] {
                out.extend_from_slice(format!("STAT {stat} {v}\r\n").as_bytes());
            }
            for (stat, v) in [
                ("slo_short_burn", snap.short_burn),
                ("slo_long_burn", snap.long_burn),
            ] {
                out.extend_from_slice(format!("STAT {stat} {v:.4}\r\n").as_bytes());
            }
        }
        out.extend_from_slice(b"END\r\n");
    }

    /// The `stats reset` semantics: zero counters and histograms, clear
    /// the slow log, and clear the *entire* windowed plane — histogram
    /// ring, per-verb rates, SLO ledger, flight recorder, trigger state,
    /// pending auto dump — in one atomic step (everything happens under
    /// the plane lock, so no window can rotate half-reset state into
    /// the ring). Kept: registered handles, collected spans, the
    /// sequence counter (sampling cadence is unaffected), and the
    /// window numbering/rotation cadence — window indices keep counting
    /// from server start so they stay comparable across a reset.
    pub fn reset(&self) {
        let mut plane = self.windows.lock();
        self.registry.lock().reset();
        for s in &self.shards {
            s.acquisitions.store(0, Ordering::Relaxed);
            s.contended.store(0, Ordering::Relaxed);
            s.wait_ns.store(0, Ordering::Relaxed);
            s.hold_ns.store(0, Ordering::Relaxed);
            s.hold_max_ns.store(0, Ordering::Relaxed);
        }
        self.slow.lock().clear();
        self.conn_rejected.store(0, Ordering::Relaxed);
        plane.overall.reset();
        for rate in &mut plane.rates {
            rate.reset();
        }
        plane.slo.reset();
        plane.recorder.clear();
        plane.last_trigger = None;
        plane.triggered = false;
        plane.auto_dump = None;
        plane.prev_acquisitions = 0;
        plane.prev_contended = 0;
        plane.prev_rejected = 0;
    }

    /// Renders the `stats latency` reply: per-verb count, mean, and
    /// p50/p90/p95/p99/p999/max in microseconds, only for verbs that
    /// have traffic, terminated by `END`.
    pub fn render_stats_latency(&self, out: &mut BytesMut) {
        let registry = self.registry.lock();
        for verb in Verb::ALL {
            let h = registry.histogram_value(self.verb_histograms[verb.index()]);
            if h.count() == 0 {
                continue;
            }
            let q = h.quantiles();
            let n = verb.name();
            out.extend_from_slice(format!("STAT {n}_count {}\r\n", q.count).as_bytes());
            for (stat, d) in [
                ("mean", q.mean),
                ("p50", q.p50),
                ("p90", q.p90),
                ("p95", q.p95),
                ("p99", q.p99),
                ("p999", q.p999),
                ("max", q.max),
            ] {
                out.extend_from_slice(
                    format!("STAT {n}_{stat}_us {:.2}\r\n", d.as_micros_f64()).as_bytes(),
                );
            }
        }
        drop(registry);
        out.extend_from_slice(b"END\r\n");
    }

    /// Renders the `stats shards` reply: per-shard item/byte occupancy
    /// plus lock acquisition, contention, wait, and hold accounting.
    pub fn render_stats_shards(
        &self,
        per_shard: &[densekv_kv::store::StoreStats],
        out: &mut BytesMut,
    ) {
        let locks = self.shard_snapshots();
        for (i, stats) in per_shard.iter().enumerate() {
            let lock = locks.get(i).copied().unwrap_or_default();
            for (stat, v) in [
                ("items", stats.items),
                ("bytes", stats.bytes),
                ("get_hits", stats.get_hits),
                ("lock_acquisitions", lock.acquisitions),
                ("lock_contended", lock.contended),
                ("lock_hold_max_ns", lock.hold_max_ns),
            ] {
                out.extend_from_slice(format!("STAT shard_{i}_{stat} {v}\r\n").as_bytes());
            }
            for (stat, ns) in [
                ("lock_wait_us", lock.wait_ns),
                ("lock_hold_us", lock.hold_ns),
            ] {
                out.extend_from_slice(
                    format!("STAT shard_{i}_{stat} {:.1}\r\n", ns as f64 / 1e3).as_bytes(),
                );
            }
        }
        out.extend_from_slice(b"END\r\n");
    }

    /// The registry plus shard-lock series in Prometheus text format.
    /// Shard locks become labeled series (`{shard="i"}`) so a scrape
    /// sees contention per stripe without N distinct metric names.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = self.registry.lock().to_prometheus();
        let locks = self.shard_snapshots();
        for (metric, get) in [
            (
                "densekv_shard_lock_acquisitions",
                (|l: &ShardLockSnapshot| l.acquisitions) as fn(&ShardLockSnapshot) -> u64,
            ),
            ("densekv_shard_lock_contended", |l| l.contended),
            ("densekv_shard_lock_wait_ns", |l| l.wait_ns),
            ("densekv_shard_lock_hold_ns", |l| l.hold_ns),
            ("densekv_shard_lock_hold_max_ns", |l| l.hold_max_ns),
        ] {
            out.push_str(&format!("# TYPE {metric} counter\n"));
            for (i, lock) in locks.iter().enumerate() {
                out.push_str(&format!("{metric}{{shard=\"{i}\"}} {}\n", get(lock)));
            }
        }
        out
    }
}

/// Renders the full `metrics` verb body: front-end counters, store
/// counters, then the registry (per-verb counters/histograms, gauges)
/// and shard-lock series — one scrape-ready Prometheus text block.
#[must_use]
pub fn render_prometheus(
    metrics: &ServeMetrics,
    serve: &ServeStats,
    active: usize,
    store: &densekv_kv::store::StoreStats,
    engine: &[(String, u64)],
) -> String {
    metrics.sync_gauges(serve, active);
    let mut out = String::new();
    for (name, v) in [
        ("accepted", serve.accepted),
        ("rejected_busy", serve.rejected_busy),
        ("commands", serve.commands),
        ("bytes_in", serve.bytes_in),
        ("bytes_out", serve.bytes_out),
        ("timeouts", serve.timeouts),
        ("protocol_errors", serve.protocol_errors),
    ] {
        out.push_str(&format!(
            "# TYPE densekv_serve_{name} counter\ndensekv_serve_{name} {v}\n"
        ));
    }
    out.push_str(&format!(
        "# TYPE densekv_serve_uptime_seconds gauge\ndensekv_serve_uptime_seconds {:.3}\n",
        metrics.uptime().as_secs_f64()
    ));
    for (name, v) in densekv_kv::server::stat_lines(store) {
        let kind = if matches!(name, "curr_items" | "bytes") {
            "gauge"
        } else {
            "counter"
        };
        out.push_str(&format!(
            "# TYPE densekv_store_{name} {kind}\ndensekv_store_{name} {v}\n"
        ));
    }
    // Backend-internal gauges (tier occupancy, bitmap fill, probe
    // lengths) when the engine is serving; empty under the model store.
    for (name, v) in engine {
        out.push_str(&format!(
            "# TYPE densekv_{name} gauge\ndensekv_{name} {v}\n"
        ));
    }
    out.push_str(&metrics.to_prometheus());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_classification_covers_the_protocol() {
        let get = Command::Get {
            keys: densekv_kv::protocol::KeyList::new(b"k").expect("one key"),
            with_cas: false,
        };
        assert_eq!(Verb::of(&get), Verb::Get);
        assert_eq!(Verb::of(&Command::Metrics), Verb::Metrics);
        assert_eq!(Verb::of(&Command::Stats { arg: None }), Verb::Stats);
        // Names, counter names, and indices are all distinct.
        let mut names: Vec<_> = Verb::ALL.iter().map(|v| v.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), VERB_COUNT);
        for (i, v) in Verb::ALL.iter().enumerate() {
            assert_eq!(v.index(), i);
            assert!(v.counter_name().ends_with(v.name()));
            assert!(v.histogram_name().contains("latency"));
        }
    }

    #[test]
    fn record_and_render_latency_stats() {
        let m = ServeMetrics::new(&MetricsConfig::default(), 4);
        for us in [100u64, 200, 300] {
            m.record_command(Verb::Get, std::time::Duration::from_micros(us), 0);
        }
        m.record_command(Verb::Set, std::time::Duration::from_micros(50), 1);
        assert_eq!(m.verb_count(Verb::Get), 3);
        let q = m.verb_quantiles(Verb::Get);
        assert_eq!(q.count, 3);
        assert!(q.p50 >= SimDuration::from_micros(200));
        let mut out = BytesMut::new();
        m.render_stats_latency(&mut out);
        let text = String::from_utf8(out.to_vec()).unwrap();
        assert!(text.contains("STAT get_count 3\r\n"), "{text}");
        assert!(text.contains("STAT get_p99_us "), "{text}");
        assert!(text.contains("STAT set_count 1\r\n"), "{text}");
        // Untouched verbs are omitted entirely.
        assert!(!text.contains("STAT cas_"), "{text}");
        assert!(text.ends_with("END\r\n"), "{text}");
    }

    #[test]
    fn disabled_plane_is_inert() {
        let m = ServeMetrics::disabled(2);
        assert!(!m.is_enabled());
        m.record_command(Verb::Get, std::time::Duration::from_micros(10), 0);
        m.record_shard(0, Default::default(), Default::default(), true);
        m.record_span(0, Verb::Get, 7, &RequestPhases::default());
        assert_eq!(m.verb_count(Verb::Get), 0);
        assert_eq!(m.verb_quantiles(Verb::Get).count, 0);
        assert_eq!(m.shard_snapshots()[0], ShardLockSnapshot::default());
        assert_eq!(m.spans_recorded(), 0);
        assert!(!m.samples(0));
    }

    #[test]
    fn sampling_is_deterministic_every_nth() {
        let m = ServeMetrics::new(
            &MetricsConfig {
                sample_every: 4,
                ..MetricsConfig::default()
            },
            1,
        );
        let sampled: Vec<u64> = (0..10).filter(|&s| m.samples(s)).collect();
        assert_eq!(sampled, vec![0, 4, 8]);
        assert_eq!(m.next_seq(), 0);
        assert_eq!(m.next_seq(), 1);
    }

    #[test]
    fn spans_tile_the_phase_breakdown() {
        let m = ServeMetrics::new(&MetricsConfig::default(), 1);
        let phases = RequestPhases {
            recv: std::time::Duration::from_micros(5),
            parse: std::time::Duration::from_micros(2),
            lock_wait: std::time::Duration::from_micros(1),
            store: std::time::Duration::from_micros(10),
            write: std::time::Duration::from_micros(3),
        };
        m.record_span(42, Verb::Get, 7, &phases);
        assert_eq!(m.spans_recorded(), 1);
        let json = m.trace_chrome_json();
        for phase in ["recv", "parse", "shard-lock", "store", "write"] {
            assert!(json.contains(&format!("\"name\":\"{phase}\"")), "{json}");
        }
        assert!(json.contains("\"tid\":7"), "{json}");
        densekv_telemetry::validate_json(&json).expect("trace must be valid JSON");
    }

    #[test]
    fn shard_lock_accounting_accumulates_and_resets() {
        let m = ServeMetrics::new(&MetricsConfig::default(), 2);
        let us = std::time::Duration::from_micros;
        m.record_shard(0, us(5), us(10), true);
        m.record_shard(0, us(0), us(20), false);
        m.record_shard(1, us(1), us(2), false);
        let snaps = m.shard_snapshots();
        assert_eq!(snaps[0].acquisitions, 2);
        assert_eq!(snaps[0].contended, 1);
        assert_eq!(snaps[0].wait_ns, 5_000);
        assert_eq!(snaps[0].hold_ns, 30_000);
        assert_eq!(snaps[0].hold_max_ns, 20_000);
        assert_eq!(snaps[1].acquisitions, 1);
        m.record_command(Verb::Get, us(100), 0);
        m.reset();
        assert_eq!(m.shard_snapshots()[0], ShardLockSnapshot::default());
        assert_eq!(m.verb_count(Verb::Get), 0);
        // Handles survive the reset.
        m.record_command(Verb::Get, us(10), 1);
        assert_eq!(m.verb_count(Verb::Get), 1);
    }

    #[test]
    fn slow_log_is_bounded_and_ordered() {
        let m = ServeMetrics::new(
            &MetricsConfig {
                slow_threshold: std::time::Duration::from_micros(100),
                slow_log_capacity: 2,
                ..MetricsConfig::default()
            },
            1,
        );
        m.record_command(Verb::Get, std::time::Duration::from_micros(50), 0);
        for seq in 1..=3 {
            m.record_command(Verb::Set, std::time::Duration::from_micros(200), seq);
        }
        let slow = m.slow_requests();
        assert_eq!(slow.len(), 2, "capacity bound");
        assert_eq!((slow[0].seq, slow[1].seq), (2, 3), "oldest dropped first");
        assert_eq!(slow[0].verb, Verb::Set);
        assert!(slow[0].latency >= SimDuration::from_micros(200));
    }

    /// A plane with a short-fuse SLO (objective 1 µs, 1-window short /
    /// 2-window long burn) so tests can trip it deterministically.
    fn touchy_plane() -> ServeMetrics {
        ServeMetrics::new(
            &MetricsConfig {
                slo: densekv_telemetry::SloConfig {
                    objective: SimDuration::from_micros(1),
                    target: 0.95,
                    short_windows: 1,
                    long_windows: 2,
                    alert_burn: 2.0,
                },
                window_retain: 4,
                recorder_capacity: 4,
                ..MetricsConfig::default()
            },
            2,
        )
    }

    #[test]
    fn windows_rotate_deterministically_and_render() {
        let m = ServeMetrics::new(
            &MetricsConfig {
                window_retain: 2,
                ..MetricsConfig::default()
            },
            1,
        );
        let us = std::time::Duration::from_micros;
        m.record_command(Verb::Get, us(100), 0);
        m.record_command(Verb::Get, us(200), 1);
        m.rotate_now();
        m.record_command(Verb::Set, us(50), 2);
        m.rotate_now();
        m.rotate_now(); // empty third window evicts the first
        assert_eq!(m.windows_closed(), 3);
        let mut out = BytesMut::new();
        m.render_stats_windows(&mut out);
        let text = String::from_utf8(out.to_vec()).unwrap();
        assert!(text.contains("STAT windows_closed 3\r\n"), "{text}");
        assert!(text.contains("STAT windows_retained 2\r\n"), "{text}");
        // Ring holds windows #2 (one set) and #3 (empty); #1 evicted.
        assert!(text.contains("STAT win_2_count 1\r\n"), "{text}");
        assert!(text.contains("STAT win_3_count 0\r\n"), "{text}");
        assert!(!text.contains("win_1_count"), "{text}");
        assert!(text.contains("STAT rate_get "), "{text}");
        assert!(text.contains("STAT rate_set_ewma "), "{text}");
        assert!(text.contains("STAT win_2_p95_us "), "{text}");
        assert!(text.ends_with("END\r\n"), "{text}");
        // Cumulative view is untouched by rotation.
        assert_eq!(m.overall_quantiles().count, 3);
    }

    #[test]
    fn slo_burn_trips_the_flight_recorder_once_per_edge() {
        let m = touchy_plane();
        let slow = std::time::Duration::from_micros(500); // 500× objective
        for seq in 0..10 {
            m.record_command(Verb::Get, slow, seq);
        }
        m.rotate_now();
        let snap = m.slo_snapshot();
        assert!(snap.alerting, "{snap:?}");
        assert!(snap.short_burn > 2.0);
        let trigger = m.last_trigger().expect("burn must trip the recorder");
        assert_eq!(trigger.reason, "slo-burn");
        assert_eq!(trigger.window, 1);
        let dump = m.take_auto_dump().expect("rising edge captures a dump");
        densekv_telemetry::validate_json(&dump).expect("auto dump is valid JSON");
        assert!(dump.contains("\"reason\":\"slo-burn\""), "{dump}");

        // Still burning: no second dump while the state holds.
        for seq in 10..20 {
            m.record_command(Verb::Get, slow, seq);
        }
        m.rotate_now();
        assert!(m.take_auto_dump().is_none(), "no dump without a new edge");

        // Recover (two clean windows clear the 2-window long burn),
        // then trip again: a fresh edge captures a fresh dump.
        m.rotate_now();
        m.rotate_now();
        assert!(!m.slo_snapshot().alerting);
        for seq in 20..30 {
            m.record_command(Verb::Get, slow, seq);
        }
        m.rotate_now();
        let second = m.take_auto_dump().expect("new edge, new dump");
        assert!(second.contains("\"reason\":\"slo-burn\""));
    }

    #[test]
    fn contention_and_saturation_trip_their_triggers() {
        let m = touchy_plane();
        let us = std::time::Duration::from_micros;
        for _ in 0..20 {
            m.record_shard(0, us(5), us(5), true);
        }
        m.rotate_now();
        assert_eq!(m.last_trigger().unwrap().reason, "shard-contention");

        let m = touchy_plane();
        m.set_connection_capacity(2);
        m.connection_opened();
        m.connection_opened();
        m.rotate_now();
        assert_eq!(m.last_trigger().unwrap().reason, "connection-saturation");
        m.connection_closed();

        let m = touchy_plane();
        m.connection_rejected();
        m.rotate_now();
        assert_eq!(m.last_trigger().unwrap().reason, "connection-saturation");
    }

    #[test]
    fn stats_dump_is_valid_json_with_every_section() {
        let m = touchy_plane();
        let us = std::time::Duration::from_micros;
        m.record_command(Verb::Get, us(300), 0);
        m.record_command(Verb::Set, us(40), 1);
        m.record_span(0, Verb::Get, 3, &RequestPhases::default());
        m.rotate_now();
        let json = m.flight_recorder_json();
        densekv_telemetry::validate_json(&json).expect("dump is valid JSON");
        for section in [
            "\"format\":\"densekv-flight-recorder-v1\"",
            "\"slo\":{",
            "\"windows\":[",
            "\"slow\":[",
            "\"trace\":",
            "\"verbs\":{\"get\":1,\"set\":1}",
        ] {
            assert!(json.contains(section), "missing {section}: {json}");
        }
        // Disabled plane still answers with valid JSON.
        let off = ServeMetrics::disabled(1);
        let json = off.flight_recorder_json();
        densekv_telemetry::validate_json(&json).expect("disabled dump is valid JSON");
        assert!(json.contains("\"enabled\":false"));
    }

    #[test]
    fn reset_clears_window_ring_and_slo_state_atomically() {
        let m = touchy_plane();
        let slow = std::time::Duration::from_micros(500);
        for seq in 0..10 {
            m.record_command(Verb::Get, slow, seq);
        }
        m.rotate_now();
        m.rotate_now();
        assert!(m.slo_snapshot().windows >= 2);
        assert!(!m.window_snapshots().is_empty());
        assert!(m.last_trigger().is_some());

        m.reset();
        // Windowed state is gone…
        assert!(m.window_snapshots().is_empty(), "recorder ring cleared");
        let snap = m.slo_snapshot();
        assert_eq!((snap.windows, snap.total, snap.bad), (0, 0, 0));
        assert_eq!(snap.short_burn, 0.0);
        assert!(m.last_trigger().is_none(), "trigger state cleared");
        assert!(m.take_auto_dump().is_none(), "pending dump cleared");
        // …and so is the cumulative registry (the PR-7 semantics).
        assert_eq!(m.verb_count(Verb::Get), 0);
        // Window numbering continues: indices stay comparable across
        // the reset instead of restarting at 1.
        let before = m.windows_closed();
        m.record_command(Verb::Get, std::time::Duration::from_nanos(100), 10);
        m.rotate_now();
        assert_eq!(m.windows_closed(), before + 1);
        let snaps = m.window_snapshots();
        assert_eq!(snaps.len(), 1);
        assert_eq!(snaps[0].index, before + 1);
        assert_eq!(snaps[0].total, 1);
        assert_eq!(snaps[0].bad, 0, "pre-reset SLO misses do not leak");
    }

    #[test]
    fn disabled_plane_windowed_surface_is_inert() {
        let m = ServeMetrics::disabled(1);
        m.record_command(Verb::Get, std::time::Duration::from_micros(10), 0);
        m.rotate_now();
        assert_eq!(m.windows_closed(), 0);
        assert!(m.window_snapshots().is_empty());
        assert!(m.last_trigger().is_none());
        let mut out = BytesMut::new();
        m.render_stats_windows(&mut out);
        assert_eq!(&out[..], b"END\r\n");
        let mut out = BytesMut::new();
        m.render_stats_slo(&mut out);
        assert_eq!(&out[..], b"END\r\n");
    }

    #[test]
    fn prometheus_block_has_every_layer() {
        let m = ServeMetrics::new(&MetricsConfig::default(), 2);
        m.record_command(Verb::Get, std::time::Duration::from_micros(120), 0);
        m.record_shard(
            1,
            Default::default(),
            std::time::Duration::from_micros(3),
            false,
        );
        let serve = ServeStats {
            accepted: 4,
            bytes_in: 128,
            ..ServeStats::default()
        };
        let store = densekv_kv::store::StoreStats {
            items: 7,
            ..Default::default()
        };
        let text = render_prometheus(&m, &serve, 2, &store, &[("engine_items".to_string(), 7)]);
        assert!(text.contains("densekv_serve_accepted 4\n"), "{text}");
        assert!(text.contains("densekv_engine_items 7\n"), "{text}");
        assert!(
            text.contains("# TYPE densekv_store_curr_items gauge"),
            "{text}"
        );
        assert!(text.contains("densekv_store_curr_items 7\n"), "{text}");
        assert!(text.contains("serve_cmd_get 1\n"), "{text}");
        assert!(
            text.contains("serve_latency_get{quantile=\"0.99\"}"),
            "{text}"
        );
        assert!(text.contains("serve_connections_active 2\n"), "{text}");
        assert!(
            text.contains("densekv_shard_lock_acquisitions{shard=\"1\"} 1\n"),
            "{text}"
        );
    }
}
