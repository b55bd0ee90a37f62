//! The serving phase: one closed-loop client over an 8-alpha book.
//!
//! The book is the four `init` alphas plus a rescaled variant of each
//! (as in `crates/bench/benches/router.rs`). The client sends, in a
//! seeded order: one-day requests to an in-process `ServerSession` (no
//! wire), the same days through a 2-shard `ShardedRouter` over loopback
//! pipes, then 20-day ranges through the router. Every block is checked
//! bit for bit against a reference pass of the direct session.
//!
//! The benchmark boots the shards itself from `partition_archive` and
//! `serve_connection`, each shard behind a [`TimedService`] wrapper, so
//! every shard's server time is measured at the layer boundary; a
//! [`Counted`] transport counts the wire bytes the client moves.

use std::io::{self, Read, Write};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use alphaevolve_backtest::CrossSections;
use alphaevolve_core::{
    fingerprint, init, AlphaConfig, AlphaProgram, EvalOptions, Instruction, Op,
};
use alphaevolve_market::features::FeatureSet;
use alphaevolve_market::Dataset;
use alphaevolve_obs::MetricsSnapshot;
use alphaevolve_store::wire::{
    decode_predictions_into, encode_predictions, frame_payload, read_message,
};
use alphaevolve_store::{
    feature_set_id, loopback, partition_archive, serve_connection, AlphaArchive, AlphaServer,
    AlphaService, ArchivedAlpha, Loopback, ServiceClient, ServiceMetadata, ShardedRouter,
    Transport,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::affinity::pin_current_thread;
use crate::alloc;
use crate::stats::{median, quantile};
use crate::trace::{Span, Tracer, ROOT};
use crate::Ops;

/// Shards behind the router.
pub const SHARDS: usize = 2;
/// Days per range request.
pub const RANGE_DAYS: usize = 20;
/// Untimed requests that warm each path before it is measured.
const WARMUP: usize = 16;
/// Calls per codec timing in the traced pass.
const CODEC_REPS: usize = 64;

/// A transport that counts the bytes moved through it.
pub struct Counted<T> {
    inner: T,
    bytes: Arc<AtomicU64>,
}

impl<T> Counted<T> {
    pub fn new(inner: T, bytes: Arc<AtomicU64>) -> Counted<T> {
        Counted { inner, bytes }
    }
}

impl<T: Read> Read for Counted<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

impl<T: Write> Write for Counted<T> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<T: Transport> Transport for Counted<T> {}

/// Per-shard log of `(start, end)` nanoseconds (since the run's epoch)
/// of every request served while timing is on.
type ShardLog = Arc<Mutex<Vec<(u64, u64)>>>;

/// An `AlphaService` that times each served request of the service it
/// wraps.
struct TimedService<S> {
    inner: S,
    epoch: Instant,
    on: Arc<AtomicBool>,
    log: ShardLog,
}

impl<S: AlphaService> TimedService<S> {
    fn timed(
        &mut self,
        f: impl FnOnce(&mut S) -> alphaevolve_store::Result<()>,
    ) -> alphaevolve_store::Result<()> {
        if !self.on.load(Ordering::Relaxed) {
            return f(&mut self.inner);
        }
        let t0 = Instant::now();
        let r = f(&mut self.inner);
        let t1 = Instant::now();
        let ns = |t: Instant| (t - self.epoch).as_nanos() as u64;
        self.log.lock().unwrap().push((ns(t0), ns(t1)));
        r
    }
}

impl<S: AlphaService> AlphaService for TimedService<S> {
    fn metadata(&mut self) -> alphaevolve_store::Result<ServiceMetadata> {
        self.inner.metadata()
    }

    fn serve_day(&mut self, day: usize, out: &mut CrossSections) -> alphaevolve_store::Result<()> {
        self.timed(|s| s.serve_day(day, out))
    }

    fn serve_range(
        &mut self,
        days: Range<usize>,
        out: &mut CrossSections,
    ) -> alphaevolve_store::Result<()> {
        self.timed(|s| s.serve_range(days, out))
    }

    fn prefetch_day(&mut self, day: usize) -> alphaevolve_store::Result<()> {
        self.inner.prefetch_day(day)
    }

    fn metrics(&mut self, out: &mut MetricsSnapshot) -> alphaevolve_store::Result<()> {
        self.inner.metrics(out)
    }
}

/// The served book: four `init` alphas and a rescaled variant of each.
fn book(cfg: &AlphaConfig, features: &FeatureSet) -> AlphaArchive {
    let mut programs: Vec<(String, AlphaProgram)> = vec![
        ("expert".into(), init::domain_expert(cfg)),
        ("momentum".into(), init::momentum(cfg)),
        ("reversal".into(), init::industry_reversal(cfg)),
        ("nn".into(), init::two_layer_nn(cfg)),
    ];
    for (i, (name, base)) in programs.clone().into_iter().enumerate() {
        let mut scaled = base;
        scaled.predict.push(Instruction::new(
            Op::SConst,
            0,
            0,
            7,
            [0.5 + i as f64 / 10.0, 0.0],
            [0; 2],
        ));
        scaled
            .predict
            .push(Instruction::new(Op::SMul, 1, 7, 1, [0.0; 2], [0; 2]));
        programs.push((format!("{name}_scaled"), scaled));
    }
    let fsid = feature_set_id(features);
    // Cutoff 1.0: the book is fixed, the gate must not thin it.
    let mut archive = AlphaArchive::with_cutoff(16, 1.0);
    for (i, (name, program)) in programs.into_iter().enumerate() {
        let admitted = archive
            .admit(ArchivedAlpha {
                name,
                fingerprint: fingerprint(&program, cfg).0,
                program,
                ic: 0.1 + i as f64 / 100.0,
                val_returns: (0..40)
                    .map(|t| ((i + 1) as f64 * t as f64).sin() * 0.01)
                    .collect(),
                train_days: (0, 1),
                feature_set_id: fsid,
            })
            .admitted();
        assert!(admitted, "the fixed book admits every alpha");
    }
    archive
}

/// A booted serving stack: the direct server plus the routed shards.
pub struct ServeStack {
    server: AlphaServer,
    router: Option<ShardedRouter<ServiceClient<Counted<Loopback>>>>,
    threads: Vec<JoinHandle<alphaevolve_store::Result<()>>>,
    logs: Vec<ShardLog>,
    timing: Arc<AtomicBool>,
    bytes: Arc<AtomicU64>,
    /// Reference blocks per servable day, from the direct session.
    refs: Vec<CrossSections>,
}

impl ServeStack {
    /// `AlphaServer::from_archive` for the direct path, plus a 2-shard
    /// router over loopback (every alpha compiled and trained). Shard `i`
    /// runs pinned to the `i`-th allowed CPU, so the shards always serve
    /// side by side, as shards on separate machines would.
    pub fn boot(ds: &Arc<Dataset>, epoch: Instant) -> Result<ServeStack, String> {
        let cfg = AlphaConfig::default();
        let opts = EvalOptions::default();
        let features = FeatureSet::paper();
        let archive = book(&cfg, &features);
        let server = AlphaServer::from_archive(&archive, cfg, &opts, Arc::clone(ds), &features)
            .map_err(|e| e.to_string())?;
        let timing = Arc::new(AtomicBool::new(false));
        let bytes = Arc::new(AtomicU64::new(0));
        let (mut clients, mut threads, mut logs) = (Vec::new(), Vec::new(), Vec::new());
        let (pinned_tx, pinned_rx) = std::sync::mpsc::channel();
        for (i, part) in partition_archive(&archive, SHARDS).into_iter().enumerate() {
            let shard = AlphaServer::from_archive(&part, cfg, &opts, Arc::clone(ds), &features)
                .map_err(|e| e.to_string())?;
            let (client_end, mut server_end) = loopback();
            let log: ShardLog = Arc::new(Mutex::new(Vec::with_capacity(1 << 14)));
            let (on, shard_log) = (Arc::clone(&timing), Arc::clone(&log));
            let pinned = pinned_tx.clone();
            threads.push(std::thread::spawn(move || {
                let _ = pinned.send(pin_current_thread(i));
                let mut service = TimedService {
                    inner: shard.session(),
                    epoch,
                    on,
                    log: shard_log,
                };
                serve_connection(&mut service, &mut server_end)
            }));
            logs.push(log);
            clients.push(ServiceClient::new(Counted::new(
                client_end,
                Arc::clone(&bytes),
            )));
        }
        let all_pinned = (0..SHARDS).all(|_| pinned_rx.recv() == Ok(true));
        let router = ShardedRouter::new(clients).map_err(|e| e.to_string())?;
        let stack = ServeStack {
            server,
            router: Some(router),
            threads,
            logs,
            timing,
            bytes,
            refs: Vec::new(),
        };
        if !all_pinned {
            stack.shutdown();
            return Err("a shard thread could not be pinned to its CPU".into());
        }
        Ok(stack)
    }

    fn days(&self) -> Range<usize> {
        self.server.min_day()..self.server.n_days()
    }

    /// The direct session's block for every servable day (untimed; the
    /// bit-equality reference for every later request).
    pub fn build_references(&mut self) {
        let mut session = self.server.session();
        let refs = self
            .days()
            .map(|day| {
                let mut out = CrossSections::new(0, 0);
                session
                    .serve_day(day, &mut out)
                    .expect("reference day serves");
                out
            })
            .collect();
        self.refs = refs;
    }

    fn reference(&self, day: usize) -> &CrossSections {
        &self.refs[day - self.server.min_day()]
    }

    /// Drops the router (closing every shard connection) and waits for
    /// each shard thread; returns false if any shard loop failed.
    pub fn shutdown(mut self) -> bool {
        drop(self.router.take());
        self.threads
            .drain(..)
            .all(|h| h.join().map(|r| r.is_ok()).unwrap_or(false))
    }

    fn take_logs(&self) -> Vec<Vec<(u64, u64)>> {
        self.logs
            .iter()
            .map(|l| std::mem::take(&mut *l.lock().unwrap()))
            .collect()
    }
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Request counts of one serving phase.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// One-day requests (sent direct, then routed).
    pub days: usize,
    /// 20-day range requests through the router.
    pub ranges: usize,
    /// Passes over the three request sequences; each named percentile
    /// is taken over one pass's sends.
    pub passes: usize,
}

/// Everything one serving phase measured.
#[derive(Debug, Default)]
pub struct ServePass {
    /// Per pass: the named percentiles over that pass's sends.
    pub direct_p50_ns: Vec<f64>,
    pub day_p50_ns: Vec<f64>,
    pub day_p99_ns: Vec<f64>,
    pub range_p50_ns: Vec<f64>,
    pub range_p90_ns: Vec<f64>,
    /// Requests per pass: one-day (each sent direct and routed), ranges.
    pub days: usize,
    pub ranges: usize,
    pub routed_bytes: u64,
    pub range_bytes: u64,
    /// Passes run: times each request was sent.
    pub sends: usize,
    // Traced pass only.
    pub direct_allocs: u64,
    /// Latency of every routed send (day, range), for attribution.
    pub routed_sent_ns: Vec<f64>,
    pub range_sent_ns: Vec<f64>,
    /// Per routed day request: Σ shard server time, and the slowest shard's.
    pub shard_day_sum_ns: Vec<f64>,
    pub shard_day_max_ns: Vec<f64>,
    pub shard_range_sum_ns: Vec<f64>,
    pub shard_range_max_ns: Vec<f64>,
    /// Per shard block: codec times, day-sized and range-sized.
    pub encode_day_ns: f64,
    pub decode_day_ns: f64,
    pub encode_range_ns: f64,
    pub decode_range_ns: f64,
}

impl ServePass {
    /// Codec time one routed request pays: shards encode in parallel,
    /// the router decodes every shard's block in turn.
    pub fn codec_day_ns(&self) -> f64 {
        self.encode_day_ns + SHARDS as f64 * self.decode_day_ns
    }

    pub fn codec_range_ns(&self) -> f64 {
        self.encode_range_ns + SHARDS as f64 * self.decode_range_ns
    }
}

/// Quantile `q` of one pass's latencies (sorted in place).
fn pct(lat: &mut [f64], q: f64) -> f64 {
    quantile(lat, q).unwrap_or(0.0)
}

/// One serving phase, run pass by pass. `seed` fixes the request order.
/// Each pass sends the three request sequences (direct days, routed
/// days, routed ranges) in turn and records their named percentiles
/// over that pass's sends. Attribution uses every send.
pub struct ServePhase {
    days: Vec<usize>,
    ranges: Vec<usize>,
    /// One sequence's latencies in the current pass.
    lat: Vec<f64>,
    out: ServePass,
    routed_spans: Vec<(Instant, Instant)>,
    range_spans: Vec<(Instant, Instant)>,
    day_logs: Vec<Vec<(u64, u64)>>,
    range_logs: Vec<Vec<(u64, u64)>>,
}

impl ServePhase {
    pub fn new(stack: &ServeStack, spec: ServeSpec, seed: u64) -> ServePhase {
        let window = stack.days();
        let mut rng = SmallRng::seed_from_u64(seed);
        let days = (0..spec.days)
            .map(|_| rng.gen_range(window.clone()))
            .collect();
        let ranges = (0..spec.ranges)
            .map(|_| rng.gen_range(window.start..window.end - RANGE_DAYS + 1))
            .collect();
        ServePhase {
            days,
            ranges,
            lat: Vec::with_capacity(spec.days.max(spec.ranges)),
            out: ServePass {
                days: spec.days,
                ranges: spec.ranges,
                ..ServePass::default()
            },
            routed_spans: Vec::new(),
            range_spans: Vec::new(),
            day_logs: vec![Vec::new(); SHARDS],
            range_logs: vec![Vec::new(); SHARDS],
        }
    }

    /// Sends every request of the three sequences once.
    pub fn pass(&mut self, stack: &mut ServeStack, mut tracer: Option<&mut Tracer>, ops: &mut Ops) {
        let (res, lat) = (&mut self.out, &mut self.lat);
        let mut block = CrossSections::new(0, 0);
        let mut session = stack.server.session();
        let mut router = stack.router.take().expect("router is up");
        for &day in self.days.iter().take(WARMUP) {
            let _ = session.serve_day(day, &mut block);
            let _ = router.serve_day(day, &mut block);
        }
        let _ = stack.take_logs();

        // Direct: an in-process session, no wire.
        lat.clear();
        for (i, &day) in self.days.iter().enumerate() {
            let t0 = Instant::now();
            let (r, allocs) = if tracer.is_some() {
                alloc::count(|| session.serve_day(day, &mut block))
            } else {
                (session.serve_day(day, &mut block), 0)
            };
            let t1 = Instant::now();
            lat.push((t1 - t0).as_nanos() as f64);
            res.direct_allocs += allocs;
            ops.check(
                r.is_ok() && same_bits(block.as_slice(), stack.reference(day).as_slice()),
                "direct day request serves the reference block",
            );
            if let Some(t) = tracer.as_deref_mut() {
                t.record("server.direct", t0, t1, ROOT, i as u64);
            }
        }
        drop(session);
        res.direct_p50_ns.push(pct(lat, 0.5));

        stack.timing.store(tracer.is_some(), Ordering::Relaxed);
        // Routed days.
        let b0 = stack.bytes.load(Ordering::Relaxed);
        lat.clear();
        for &day in &self.days {
            let t0 = Instant::now();
            let r = router.serve_day(day, &mut block);
            let t1 = Instant::now();
            lat.push((t1 - t0).as_nanos() as f64);
            self.routed_spans.push((t0, t1));
            ops.check(
                r.is_ok() && same_bits(block.as_slice(), stack.reference(day).as_slice()),
                "routed day block is bit-equal to the direct session's",
            );
        }
        res.routed_bytes += stack.bytes.load(Ordering::Relaxed) - b0;
        res.day_p50_ns.push(pct(lat, 0.5));
        res.day_p99_ns.push(pct(lat, 0.99));
        append(&mut self.day_logs, stack.take_logs());

        // Routed ranges.
        let b0 = stack.bytes.load(Ordering::Relaxed);
        lat.clear();
        for &start in &self.ranges {
            let t0 = Instant::now();
            let r = router.serve_range(start..start + RANGE_DAYS, &mut block);
            let t1 = Instant::now();
            lat.push((t1 - t0).as_nanos() as f64);
            self.range_spans.push((t0, t1));
            let rows = block.n_days() / RANGE_DAYS;
            let n = rows * block.n_stocks();
            let ok = r.is_ok()
                && block.n_days().is_multiple_of(RANGE_DAYS)
                && (0..RANGE_DAYS).all(|d| {
                    same_bits(
                        &block.as_slice()[d * n..(d + 1) * n],
                        stack.reference(start + d).as_slice(),
                    )
                });
            ops.check(
                ok,
                "routed range block is bit-equal to the direct session's days",
            );
        }
        res.range_bytes += stack.bytes.load(Ordering::Relaxed) - b0;
        res.range_p50_ns.push(pct(lat, 0.5));
        res.range_p90_ns.push(pct(lat, 0.9));
        append(&mut self.range_logs, stack.take_logs());
        stack.timing.store(false, Ordering::Relaxed);
        stack.router = Some(router);
        res.sends += 1;
    }

    /// The per-pass percentiles, plus (traced) the per-send attribution
    /// and the codec timings.
    pub fn finish(
        mut self,
        stack: &ServeStack,
        tracer: Option<&mut Tracer>,
        ops: &mut Ops,
    ) -> ServePass {
        let out = &mut self.out;
        if let Some(t) = tracer {
            out.routed_sent_ns = attribute_shards(
                t,
                "router.day",
                &self.routed_spans,
                &self.day_logs,
                &mut out.shard_day_sum_ns,
                &mut out.shard_day_max_ns,
                ops,
            );
            out.range_sent_ns = attribute_shards(
                t,
                "router.range",
                &self.range_spans,
                &self.range_logs,
                &mut out.shard_range_sum_ns,
                &mut out.shard_range_max_ns,
                ops,
            );
            time_codec(stack, out, ops);
        }
        self.out
    }
}

fn append(into: &mut [Vec<(u64, u64)>], logs: Vec<Vec<(u64, u64)>>) {
    for (a, l) in into.iter_mut().zip(logs) {
        a.extend(l);
    }
}

/// Records each routed send as a span with its shards' server spans as
/// children, and per send the summed and slowest shard time; returns
/// each send's latency.
#[allow(clippy::too_many_arguments)]
fn attribute_shards(
    t: &mut Tracer,
    name: &'static str,
    requests: &[(Instant, Instant)],
    logs: &[Vec<(u64, u64)>],
    sum_ns: &mut Vec<f64>,
    max_ns: &mut Vec<f64>,
    ops: &mut Ops,
) -> Vec<f64> {
    ops.check(
        logs.iter().all(|l| l.len() == requests.len()),
        "every shard logged every routed request",
    );
    for (i, &(t0, t1)) in requests.iter().enumerate() {
        let parent = t.record(name, t0, t1, ROOT, i as u64);
        let (mut sum, mut max) = (0u64, 0u64);
        for log in logs {
            if let Some(&(s, e)) = log.get(i) {
                t.record_ns(Span {
                    name: "server.shard",
                    start_ns: s,
                    end_ns: e,
                    parent,
                    id: i as u64,
                });
                sum += e - s;
                max = max.max(e - s);
            }
        }
        sum_ns.push(sum as f64);
        max_ns.push(max as f64);
    }
    requests
        .iter()
        .map(|&(a, b)| (b - a).as_nanos() as f64)
        .collect()
}

/// Times the prediction codec on one shard's share of a day block and of
/// a range block: `encode_predictions` (framing and CRC), and
/// `read_message` (frame and CRC check) plus `decode_predictions_into`.
fn time_codec(stack: &ServeStack, pass: &mut ServePass, ops: &mut Ops) {
    let day = stack.days().start;
    let k = stack.reference(day).n_stocks();
    let rows = stack.server.n_alphas().div_ceil(SHARDS);
    let day_block = CrossSections::from_fn(rows, k, |r, s| stack.reference(day).row(r)[s]);
    let range_block = CrossSections::from_fn(rows * RANGE_DAYS, k, |r, s| {
        stack.reference(day + r / rows).row(r % rows)[s]
    });
    let (e, d) = codec_once(&day_block, ops);
    pass.encode_day_ns = e;
    pass.decode_day_ns = d;
    let (e, d) = codec_once(&range_block, ops);
    pass.encode_range_ns = e;
    pass.decode_range_ns = d;
}

fn codec_once(block: &CrossSections, ops: &mut Ops) -> (f64, f64) {
    let (mut buf, mut frame, mut back) = (Vec::new(), Vec::new(), CrossSections::new(0, 0));
    let (mut enc, mut dec) = (
        Vec::with_capacity(CODEC_REPS),
        Vec::with_capacity(CODEC_REPS),
    );
    let mut ok = true;
    for _ in 0..CODEC_REPS {
        let t0 = Instant::now();
        encode_predictions(block, &mut buf);
        let t1 = Instant::now();
        ok &= read_message(&mut &buf[..], &mut frame).is_ok_and(|k| k.is_some())
            && decode_predictions_into(frame_payload(&frame), &mut back).is_ok();
        let t2 = Instant::now();
        enc.push((t1 - t0).as_nanos() as f64);
        dec.push((t2 - t1).as_nanos() as f64);
    }
    ops.check(
        ok && same_bits(back.as_slice(), block.as_slice()),
        "prediction codec round-trips bit for bit",
    );
    (
        median(&mut enc).unwrap_or(0.0),
        median(&mut dec).unwrap_or(0.0),
    )
}
