//! `serve_mixed`: an in-process `snslpd` with `ServeConfig::default()`,
//! driven closed-loop by [`CONNECTIONS`] connections.
//!
//! Requests are 12-function fuzz modules whose lines are assembled from
//! pre-escaped function texts before they are timed, so the client
//! measures the daemon and not its own JSON encoding. The seed fixes an endless sequence of request
//! slots, generated ahead of the send cursor between epochs of traffic
//! and never replayed:
//!
//! * most slots repeat an earlier module, recency-skewed: memo hits;
//! * some recombine eleven functions seen before with one new one: the
//!   memo misses, the function cache hits eleven times and compiles once;
//! * a few are novel modules: a full compile and 12 cache inserts.
//!
//! Set-up also warms the daemon with [`Mix::warm`] modules, so the
//! function cache is close to its capacity when timing starts and the
//! novel modules cause evictions. No recorded `snslpd` traffic exists to
//! derive the mix from, so every number of [`Mix`] is an assumption; the
//! crate's README gives the reason for each.
//!
//! Oracle: every `ok` reply must equal (by 64-bit hash) the reply
//! rendered from an uncached direct compile of its module (`run_slp` per
//! function, then the protocol's own `ok_body`/`address` rendering). The
//! direct compiles run after the timed phase, for the modules the run
//! reached. `busy` and `error` replies count as failed.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use snslp_bench::json::Json;
use snslp_core::{run_slp, FunctionReport, SlpConfig, SlpMode};
use snslp_serve::proto::{address, ok_body, ArtifactSet, CompileRequest};
use snslp_serve::{Client, Request, ServeConfig, Server, TelemetrySnapshot};
use snslp_trace::hist::percentile;

use crate::calib::Calibrator;
use crate::compile::panic_message;
use crate::report::{overhead_pct, Failures, Outcome, Values};
use crate::spans::{layer_times, Tracer};
use crate::stats::{per_second, sorted};
use crate::{kernels, peak_rss_mib, timed_setup, Fault, Opts, Scale};

/// Closed-loop client connections (the host's two cores).
pub const CONNECTIONS: usize = 2;

/// Functions per request module.
pub const FUNCS_PER_MODULE: usize = 12;

/// How long a client waits for a reply before it counts the request as
/// lost and the phase stops (a compile takes milliseconds; a reply that
/// never comes means a daemon worker died).
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// The shape of the traffic. Every number is an assumed value, not one
/// measured from `snslpd` callers.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Modules sent during set-up to warm the memo and function cache.
    pub warm: usize,
    /// Request slots kept generated ahead of the send cursor before each
    /// epoch. An epoch that uses them all ends early; the slots are
    /// never replayed.
    pub ahead: usize,
    /// Per-mille of slots that are novel modules.
    pub novel_permille: u64,
    /// Per-mille of slots that are recombined modules.
    pub recombined_permille: u64,
}

impl Mix {
    /// The mix at `scale`.
    pub fn at(scale: Scale) -> Mix {
        match scale {
            Scale::Full => Mix {
                warm: 100,
                ahead: 4000,
                novel_permille: 20,
                recombined_permille: 40,
            },
            Scale::Tiny => Mix {
                warm: 2,
                ahead: 24,
                novel_permille: 100,
                recombined_permille: 200,
            },
        }
    }
}

/// One request module. Its request line (`id` is the module index) is
/// the envelope around its functions' JSON-escaped texts joined by an
/// escaped newline, so that it is assembled by copying, not by JSON
/// encoding, and each function's text is held once.
#[derive(Debug)]
pub struct Module {
    /// Indices into [`Setup::fragments`], in module order.
    pub functions: Vec<u32>,
    /// The request line up to the module text.
    head: String,
    /// The request line after the module text.
    tail: String,
}

/// Stands for the module text when the envelope is rendered.
const MODULE_MARK: &str = "MODULE_TEXT_MARK";

/// The JSON string escape of `text`, without the quotes.
fn escaped(text: &str) -> String {
    let quoted = Json::Str(text.to_string()).render_compact();
    quoted[1..quoted.len() - 1].to_string()
}

/// Function `i` of `seed` as `.snir` text.
fn function_text(seed: u64, i: u32) -> String {
    snslp_fuzz::generate(seed, u64::from(i))
        .function
        .to_string()
}

/// A running daemon that is shut down when dropped.
#[derive(Debug)]
struct Daemon(Option<Server>);

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(server) = self.0.take() {
            server.shutdown();
        }
    }
}

/// Everything the run needs, with the daemon already warm.
#[derive(Debug)]
pub struct Setup {
    /// The fuzz seed: function `i` is `snslp_fuzz::generate(seed, i)`.
    pub seed: u64,
    mix: Mix,
    /// Draws the slots; continues across [`Setup::extend`] calls, so
    /// that the slot sequence depends only on the seed.
    rng: snslp_fuzz::Rng,
    /// Every generated function's `.snir` text, JSON-escaped.
    pub fragments: Vec<String>,
    /// The escaped newline that joins functions in a module text.
    newline: String,
    /// Every distinct module.
    pub modules: Vec<Module>,
    /// Module index of each request slot generated so far.
    pub schedule: Vec<u32>,
    /// The replies to the warm-up modules, checked with the run's.
    warm_replies: Seen,
    daemon: Daemon,
}

/// Picks an index in `0..len`, recency-skewed: the distance back from
/// the newest is `len·u²` for uniform `u`, so half the picks fall in the
/// newest quarter.
fn recent(rng: &mut snslp_fuzz::Rng, len: usize) -> usize {
    let u = rng.below(1 << 20) as f64 / f64::from(1 << 20);
    let back = ((len as f64) * u * u) as usize;
    len - 1 - back.min(len - 1)
}

impl Setup {
    fn new_function(&mut self) -> u32 {
        let i = self.fragments.len() as u32;
        self.fragments.push(escaped(&function_text(self.seed, i)));
        i
    }

    fn add_module(&mut self, functions: Vec<u32>) -> u32 {
        let id = self.modules.len() as u32;
        let envelope = Request::render_compile(u64::from(id), MODULE_MARK, "snslp", "sse2", &[]);
        let (head, tail) = envelope
            .split_once(MODULE_MARK)
            .expect("the module text appears in the request line");
        self.modules.push(Module {
            functions,
            head: head.to_string(),
            tail: tail.to_string(),
        });
        id
    }

    /// Writes the newline-terminated request line of `module` into `out`.
    fn render(&self, module: u32, out: &mut String) {
        let m = &self.modules[module as usize];
        out.clear();
        out.push_str(&m.head);
        for (i, &f) in m.functions.iter().enumerate() {
            if i > 0 {
                out.push_str(&self.newline);
            }
            out.push_str(&self.fragments[f as usize]);
        }
        out.push_str(&m.tail);
        out.push('\n');
    }

    fn novel(&mut self) -> u32 {
        let fns = (0..FUNCS_PER_MODULE).map(|_| self.new_function()).collect();
        self.add_module(fns)
    }

    /// Eleven functions seen before plus one new one.
    fn recombined(&mut self) -> u32 {
        let known = self.fragments.len();
        let mut fns: Vec<u32> = Vec::with_capacity(FUNCS_PER_MODULE);
        while fns.len() < FUNCS_PER_MODULE - 1 {
            let f = recent(&mut self.rng, known) as u32;
            if !fns.contains(&f) {
                fns.push(f);
            }
        }
        fns.push(self.new_function());
        self.add_module(fns)
    }

    /// Generates slots (and the modules they introduce) until the
    /// schedule holds `len`.
    fn extend(&mut self, len: usize) {
        while self.schedule.len() < len {
            let mix = self.mix;
            let draw = self.rng.below(1000);
            let m = if draw < mix.novel_permille {
                self.novel()
            } else if draw < mix.novel_permille + mix.recombined_permille {
                self.recombined()
            } else {
                recent(&mut self.rng, self.modules.len()) as u32
            };
            self.schedule.push(m);
        }
    }
}

/// Starts the daemon, generates the warm-up modules and the first
/// [`Mix::ahead`] slots of `seed`, and warms the daemon.
///
/// # Panics
///
/// Panics if the in-process connection cannot be made.
pub fn setup(seed: u64, scale: Scale) -> Setup {
    let mix = Mix::at(scale);
    let mut setup = Setup {
        seed,
        mix,
        rng: snslp_fuzz::Rng::new(seed ^ 0x5e17e),
        fragments: Vec::new(),
        newline: escaped("\n"),
        modules: Vec::new(),
        schedule: Vec::new(),
        warm_replies: Seen::default(),
        daemon: Daemon(Some(Server::start(ServeConfig::default()))),
    };
    for _ in 0..mix.warm {
        setup.novel();
    }
    setup.extend(mix.ahead);
    // The assembled line is the protocol's own rendering.
    let first = &setup.modules[0];
    let texts: Vec<String> = first
        .functions
        .iter()
        .map(|&f| function_text(seed, f))
        .collect();
    let mut line = String::new();
    setup.render(0, &mut line);
    assert_eq!(
        line,
        Request::render_compile(0, &texts.join("\n"), "snslp", "sse2", &[]) + "\n"
    );
    let warm: Vec<u32> = (0..mix.warm as u32).collect();
    let mut off = [
        Tracer::new(false, Instant::now()),
        Tracer::new(false, Instant::now()),
    ];
    let (seen, _) = drive(
        &setup,
        &warm,
        &AtomicUsize::new(0),
        None,
        Fault::None,
        &mut off,
    );
    for conn in seen {
        setup.warm_replies.absorb(conn);
    }
    setup
}

impl Setup {
    fn server(&self) -> &Server {
        self.daemon
            .0
            .as_ref()
            .expect("daemon runs until the setup is dropped")
    }

    fn connect(&self) -> UnixStream {
        let stream = self
            .server()
            .connect_in_process()
            .expect("in-process connection to the daemon");
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .expect("a read timeout on a unix stream");
        stream
    }
}

/// What one client connection saw.
#[derive(Debug, Default)]
struct Seen {
    /// Client-side latency of each reply, µs.
    latency_us: Vec<f64>,
    /// Module and reply hash of each request.
    replies: Vec<(u32, u64)>,
    /// Modules whose reply never came.
    lost: Vec<u32>,
}

impl Seen {
    /// Adds what another connection (or epoch) saw.
    fn absorb(&mut self, other: Seen) {
        self.latency_us.extend(other.latency_us);
        self.replies.extend(other.replies);
        self.lost.extend(other.lost);
    }
}

fn hash_of(text: &str) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.finish()
}

/// What the client connections of one [`drive`] share.
struct Traffic<'a> {
    setup: &'a Setup,
    slots: &'a [u32],
    next: &'a AtomicUsize,
    budget: Option<Duration>,
    start: Instant,
    /// Set when a reply never came: every connection stops.
    stop: AtomicBool,
}

/// Sends the modules of `slots` (taken in order through the shared
/// cursor `next`) over [`CONNECTIONS`] closed-loop connections until the
/// slots run out or `budget` is spent. Returns what each connection saw
/// and the wall time.
fn drive(
    setup: &Setup,
    slots: &[u32],
    next: &AtomicUsize,
    budget: Option<Duration>,
    fault: Fault,
    tracers: &mut [Tracer; CONNECTIONS],
) -> (Vec<Seen>, f64) {
    let traffic = Traffic {
        setup,
        slots,
        next,
        budget,
        start: Instant::now(),
        stop: AtomicBool::new(false),
    };
    let streams: Vec<UnixStream> = (0..CONNECTIONS).map(|_| setup.connect()).collect();
    let seen = std::thread::scope(|scope| {
        let handles: Vec<_> = streams
            .into_iter()
            .zip(tracers.iter_mut())
            .enumerate()
            .map(|(conn, (stream, tr))| {
                let traffic = &traffic;
                let corrupt = fault == Fault::AlterReplyByte && conn == 0;
                scope.spawn(move || client_loop(traffic, stream, tr, corrupt))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (seen, traffic.start.elapsed().as_secs_f64())
}

/// One closed-loop connection: send a request line, wait for its reply,
/// record it, repeat. With `corrupt`, the first reply gets one byte
/// changed before it is recorded.
fn client_loop(t: &Traffic, stream: UnixStream, tr: &mut Tracer, mut corrupt: bool) -> Seen {
    let mut seen = Seen::default();
    let mut writer = stream.try_clone().expect("clone unix stream");
    let mut reader = BufReader::new(stream);
    let mut request = String::new();
    let mut reply = String::new();
    loop {
        if t.stop.load(Ordering::Relaxed) || t.budget.is_some_and(|b| t.start.elapsed() >= b) {
            break;
        }
        let slot = t.next.fetch_add(1, Ordering::Relaxed);
        let Some(&module) = t.slots.get(slot) else {
            break;
        };
        let op = slot as u64;
        let root = tr.enter("op", op);
        let s = tr.enter("bench.render", op);
        t.setup.render(module, &mut request);
        tr.exit(s);
        let t0 = Instant::now();
        let s = tr.enter("serve.request", op);
        let sent = writer.write_all(request.as_bytes());
        reply.clear();
        let got = sent.is_ok() && reader.read_line(&mut reply).is_ok_and(|n| n > 0);
        tr.exit(s);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        if !got {
            tr.exit(root);
            seen.lost.push(module);
            t.stop.store(true, Ordering::Relaxed);
            break;
        }
        let s = tr.enter("bench.check", op);
        let line = reply.trim_end_matches('\n');
        let h = if std::mem::take(&mut corrupt) {
            let mut bytes = line.as_bytes().to_vec();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x01;
            hash_of(&String::from_utf8_lossy(&bytes))
        } else {
            hash_of(line)
        };
        seen.replies.push((module, h));
        seen.latency_us.push(us);
        tr.exit(s);
        tr.exit(root);
    }
    seen
}

/// The replies uncached direct compiles render, one function report per
/// generated function, computed on first use.
struct Reference<'a> {
    setup: &'a Setup,
    cfg: SlpConfig,
    reports: HashMap<u32, FunctionReport>,
}

impl<'a> Reference<'a> {
    fn new(setup: &'a Setup) -> Reference<'a> {
        let cfg = CompileRequest {
            module_text: String::new(),
            mode: SlpMode::SnSlp,
            target: "sse2".to_string(),
            artifacts: ArtifactSet::default(),
        }
        .config();
        Reference {
            setup,
            cfg,
            reports: HashMap::new(),
        }
    }

    /// The reply to `module`.
    fn reply(&mut self, module: u32) -> Result<String, String> {
        let m = &self.setup.modules[module as usize];
        let mut reports = Vec::with_capacity(m.functions.len());
        for &f in &m.functions {
            if !self.reports.contains_key(&f) {
                let text = function_text(self.setup.seed, f);
                let mut function = snslp_ir::parse_function_str(&text)
                    .map_err(|e| format!("fuzz index {f} does not parse: {e}"))?;
                let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_slp(&mut function, &self.cfg)
                }))
                .map_err(|p| {
                    format!("run_slp panicked on fuzz index {f}: {}", panic_message(&*p))
                })?;
                self.reports.insert(f, report);
            }
            reports.push(self.reports[&f].clone());
        }
        Ok(address(u64::from(module), &ok_body(&reports, &[])))
    }
}

/// Sends `module` once more on a fresh connection; returns the reply.
fn resend(setup: &Setup, module: u32) -> Option<String> {
    let stream = setup.connect();
    let mut writer = stream.try_clone().ok()?;
    let mut line = String::new();
    setup.render(module, &mut line);
    writer.write_all(line.as_bytes()).ok()?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).ok()?;
    Some(reply.trim_end_matches('\n').to_string())
}

/// Where `got` departs from `want`, with 40 bytes of context.
fn first_difference(want: &str, got: &str) -> String {
    let at = want
        .bytes()
        .zip(got.bytes())
        .take_while(|(a, b)| a == b)
        .count();
    let lo = at.saturating_sub(40);
    format!(
        "at byte {at}:\n  want …{}…\n  got  …{}…",
        want.get(lo..(at + 40).min(want.len())).unwrap_or(""),
        got.get(lo..(at + 40).min(got.len())).unwrap_or(""),
    )
}

/// Checks every reply against the direct compile by hash; returns the
/// number of requests checked. A mismatching module is sent once more to
/// show where its reply departs from the direct compile.
fn check_replies(reference: &mut Reference, seen: &Seen, failures: &mut Failures) -> u64 {
    let setup = reference.setup;
    let mut counts: HashMap<(u32, u64), u64> = HashMap::new();
    for &key in &seen.replies {
        *counts.entry(key).or_default() += 1;
    }
    let mut keys: Vec<_> = counts.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let (module, h) = key;
        let verdict = reference.reply(module).and_then(|want| {
            if hash_of(&want) == h {
                return Ok(());
            }
            Err(match resend(setup, module) {
                Some(again) if hash_of(&again) == h => format!(
                    "reply differs from the direct compile {}",
                    first_difference(&want, &again)
                ),
                Some(again) if again == want => format!(
                    "reply (hash {h:#x}) differed from the direct compile; sent again, \
                     it matched"
                ),
                _ => format!(
                    "reply (hash {h:#x}) differs from the direct compile; sent again, \
                     it differed otherwise"
                ),
            })
        });
        if let Err(e) = verdict {
            for _ in 0..counts[&key] {
                failures.fail(&format!("module {module}: {e}"), || describe(setup, module));
            }
        }
    }
    for &module in &seen.lost {
        let why = match reference.reply(module) {
            Err(e) => e,
            Ok(_) => format!("no reply within {REPLY_TIMEOUT:?}"),
        };
        failures.fail(&format!("module {module}: {why}"), || {
            describe(setup, module)
        });
    }
    counts.values().sum::<u64>() + seen.lost.len() as u64
}

/// Names a module's functions as fuzz cases.
fn describe(setup: &Setup, module: u32) -> String {
    let indices: Vec<String> = setup.modules[module as usize]
        .functions
        .iter()
        .map(u32::to_string)
        .collect();
    format!(
        "module {module}: snslp_fuzz::generate({:#x}, i) for i in [{}]",
        setup.seed,
        indices.join(", ")
    )
}

/// Replies seen over some epochs and their wall time, as measured and in
/// host-calibrated time (see [`crate::calib`]).
#[derive(Debug, Default)]
struct Epochs {
    seen: Seen,
    wall_s: f64,
    /// Client-side latencies, calibrated, µs.
    latency_us: Vec<f64>,
    /// Wall time, calibrated, s.
    calibrated_s: f64,
}

impl Epochs {
    /// Adds one epoch whose probes gave the factor `f`.
    fn add(&mut self, seen: Vec<Seen>, wall_s: f64, f: f64) {
        for conn in seen {
            self.latency_us
                .extend(conn.latency_us.iter().map(|us| us * f));
            self.seen.absorb(conn);
        }
        self.wall_s += wall_s;
        self.calibrated_s += wall_s * f;
    }

    /// Replies per calibrated second.
    fn ops_per_s(&self) -> f64 {
        per_second(self.latency_us.len() as u64, self.calibrated_s * 1e6)
    }
}

/// One measured run: untraced and traced epochs, and the daemon's stats
/// delta over the whole run.
struct Phase {
    plain: Epochs,
    traced: Epochs,
    stats: TelemetrySnapshot,
    /// Epochs that used up the generated slots before their time.
    cut_short: usize,
}

/// Length of one epoch of traffic.
const EPOCH: Duration = kernels::PROBE_EVERY;

/// Drives the schedule for `budget` in epochs of [`EPOCH`], extending it
/// to [`Mix::ahead`] slots past the cursor before each epoch. With
/// `traced`, every other epoch runs with spans on; with `probe`, the
/// traffic stops after each epoch for one kernel round. A lost reply
/// ends the run.
fn phase(
    setup: &mut Setup,
    budget: Duration,
    fault: Fault,
    mut traced: Option<&mut [Tracer; CONNECTIONS]>,
    mut probe: Option<(&mut kernels::Rounds, &mut Failures)>,
) -> Phase {
    let mut stats_client = Client::from_stream(setup.connect());
    let before = stats_client
        .telemetry()
        .expect("daemon stats before the run");
    let next = AtomicUsize::new(0);
    let now = Instant::now();
    let mut off = [Tracer::new(false, now), Tracer::new(false, now)];
    let mut plain = Epochs::default();
    let mut spanned = Epochs::default();
    let mut fault = fault;
    let mut cut_short = 0;
    let start = Instant::now();
    for k in 0.. {
        let left = budget.saturating_sub(start.elapsed());
        if left.is_zero() {
            break;
        }
        setup.extend(next.load(Ordering::Relaxed) + setup.mix.ahead);
        let (tracers, into) = match traced.as_deref_mut() {
            Some(on) if k % 2 == 1 => (on, &mut spanned),
            _ => (&mut off, &mut plain),
        };
        let mut calib = Calibrator::pair();
        let (seen, wall_s) = drive(
            setup,
            &setup.schedule,
            &next,
            Some(left.min(EPOCH)),
            fault,
            tracers,
        );
        fault = Fault::None;
        let len = setup.schedule.len();
        if next.fetch_min(len, Ordering::Relaxed) >= len {
            cut_short += 1;
        }
        into.add(seen, wall_s, calib.factor());
        if !into.seen.lost.is_empty() {
            break;
        }
        if let Some((rounds, failures)) = probe.as_mut() {
            rounds.round(&mut Tracer::new(false, Instant::now()), failures);
        }
    }
    let after = stats_client
        .telemetry()
        .expect("daemon stats after the run");
    Phase {
        plain,
        traced: spanned,
        stats: after.delta(&before),
        cut_short,
    }
}

impl Phase {
    /// Reports the traffic the run sent on stderr.
    fn describe(&self, setup: &Setup) {
        let sent = |e: &Epochs| e.seen.latency_us.len() + e.seen.lost.len();
        eprintln!(
            "perfbench: serve_mixed sent {} requests in {:.1} s of traffic \
             ({} modules and {} functions generated; {} epochs used up their slots)",
            sent(&self.plain) + sent(&self.traced),
            self.plain.wall_s + self.traced.wall_s,
            setup.modules.len(),
            setup.fragments.len(),
            self.cut_short,
        );
    }
}

fn serve_values(p: &Phase, out: &mut Values) {
    let s = &p.stats;
    let p50 = |name: &str| s.hist(name).map_or(0.0, |h| h.quantile(50.0) as f64 / 1e3);
    let c = &s.counters;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.set("serve.request_total_p50_us", p50("request_total"));
    out.set(
        "serve.request_total_p99_us",
        s.hist("request_total")
            .map_or(0.0, |h| h.quantile(99.0) as f64 / 1e3),
    );
    for stage in [
        "parse",
        "queue",
        "compile_hit",
        "compile_miss",
        "render",
        "write",
    ] {
        out.set(format!("serve.{stage}_p50_us"), p50(stage));
    }
    out.set("serve.memo_hit_rate", ratio(c.memo_hits, c.requests_served));
    out.set(
        "serve.cache_hit_rate",
        ratio(s.cache.hits, s.cache.hits + s.cache.misses),
    );
    out.set("serve.cache_evictions", s.cache.evictions as f64);
    out.set("serve.busy_replies", c.busy_replies as f64);
    out.set("serve.error_replies", c.error_replies as f64);
    out.set(
        "serve.bytes_in_per_req",
        ratio(
            c.bytes_in,
            c.requests_served + c.busy_replies + c.error_replies,
        ),
    );
    out.set("serve.peak_queue_depth", s.gauges.peak_queue_depth as f64);
    let mut lat = p.traced.seen.latency_us.clone();
    lat.extend(&p.plain.seen.latency_us);
    out.set(
        "serve.client_gap_us",
        percentile(&sorted(lat), 50.0) - p50("request_total"),
    );
}

/// Runs the `serve_mixed` workload.
pub fn run(opts: &Opts) -> Outcome {
    let ((mut setup, ksetup), setup_s) =
        timed_setup(|| (setup(opts.seed, opts.scale), kernels::setup(opts.scale)));
    let mut failures = Failures::default();
    let mut values = Values::default();
    let budget = match opts.scale {
        Scale::Full => opts.budget(),
        Scale::Tiny => Duration::from_millis(50),
    };
    let epoch = Instant::now();
    let mut traced = [Tracer::new(true, epoch), Tracer::new(true, epoch)];
    let mut probe = kernels::Rounds::new(&ksetup, opts.seed, Fault::None);
    let p = if opts.trace {
        phase(&mut setup, budget, opts.fault, Some(&mut traced), None)
    } else {
        let probe = Some((&mut probe, &mut failures));
        phase(&mut setup, budget, opts.fault, None, probe)
    };
    // Before the replies are checked: the direct compiles are the
    // benchmark's own work, not the daemon's.
    let rss = peak_rss_mib();
    p.describe(&setup);
    let mut reference = Reference::new(&setup);
    let mut attempted = check_replies(&mut reference, &setup.warm_replies, &mut failures);
    attempted += check_replies(&mut reference, &p.plain.seen, &mut failures);
    attempted += check_replies(&mut reference, &p.traced.seen, &mut failures);
    if opts.trace {
        serve_values(&p, &mut values);
        values.set(
            "trace.overhead_pct",
            overhead_pct(p.plain.ops_per_s(), p.traced.ops_per_s()),
        );
        let times = layer_times(&[&traced[0], &traced[1]]);
        crate::finish_trace(opts, &times, &[&traced[0], &traced[1]]);
    } else {
        let lat = sorted(p.plain.latency_us.clone());
        values.set("setup_s", setup_s);
        values.set("ops_per_s", p.plain.ops_per_s());
        values.set("p50_us", percentile(&lat, 50.0));
        values.set("p99_us", percentile(&lat, 99.0));
        attempted += probe.m.attempted;
        attempted += kernels::end_to_end(&ksetup, &probe.m, &mut failures, &mut values);
        values.set("peak_rss_mib", rss);
    }
    Outcome::finish(attempted, failures.count(), values, opts.trace)
}
