//! The performance ledger: named workloads through the public APIs
//! of `alphaevolve_core`, `alphaevolve_store` and `alphaevolve_mine`,
//! with correctness checks, end-to-end metrics, and a traced run that
//! splits the time by layer. See `ledger/README.md`.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! The line before it stamps the environment. The exit code is non-zero
//! when any operation or correctness check failed. Metric names and units
//! are read from `BENCHMARK.json` at the repository root.

mod affinity;
mod alloc;
mod fleet;
mod manifest;
mod search;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use alphaevolve_core::{EvalOptions, Evaluator};
use alphaevolve_mine::Fleet;

use crate::fleet::{FleetPass, FleetPhase, FleetSpec};
use crate::manifest::Workload;
use crate::search::{SearchPass, SearchPhase, SearchSpec};
use crate::serve::{ServePass, ServePhase, ServeSpec, ServeStack};
use crate::stats::{median, percentile_supported};
use crate::trace::Tracer;

/// The small market: the determinism pin's shape and seed.
const SMALL: (usize, usize, u64) = (16, 140, 21);
/// The large market: the paper's 1026-stock universe, 200 days.
const LARGE: (usize, usize, u64) = (1026, 200, 2021);
/// Set-up is repeated this many times; `setup_s` is the median.
const SETUP_REPS: usize = 5;
/// Operations and correctness checks, counted.
#[derive(Debug, Default)]
pub struct Ops {
    attempted: u64,
    failed: u64,
}

impl Ops {
    /// Counts one operation or check; a false `ok` is a failure.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("ledger: FAILED: {what}");
            }
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The repository root (the ledger's parent directory).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("ledger lives inside the repository")
        .to_path_buf()
}

/// SplitMix64: decorrelates the per-phase seeds derived from one
/// workload seed, so neighbouring workload seeds share no searches.
fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What each phase of a workload runs, sized from `--seconds`.
#[derive(Debug, Clone, Copy)]
struct Plan {
    search: SearchSpec,
    search_large: bool,
    serve: ServeSpec,
    serve_large: bool,
    fleet: FleetSpec,
}

// Min-of-N. On a shared VM a neighbour's load slows the same binary by
// up to 2× for seconds at a time, with short full-speed spells between.
// So each phase runs its whole sequence of work in several passes, spread
// over the run (see `run_pass`). A search or a fleet does the same work
// every pass and keeps its least time; a latency percentile is taken over
// one pass's requests, so a stall on one request still reaches the tail,
// and the median over passes is reported. Cheap 16-stock units afford
// many passes (measured: 20 passes over 80 200-candidate rounds hold the median to
// ±3% across seeds); 1026-stock units are long, vary less, and afford few.
const ROUND_PASSES: usize = 16;
const LONG_SEARCH_PASSES: usize = 2;
const FLEET_PASSES: usize = 6;
const SERVE_SMALL_PASSES: usize = 24;
const SERVE_LARGE_PASSES: usize = 3;

// Measured cost of one run of each unit on a 2-core VM; the plan turns
// each phase's share of `--seconds` into a fixed amount of work, so a
// given seed and `--seconds` always do the same work.
const ROUND_S: f64 = 0.006;
const LONG_SEARCH_S: f64 = 0.18;
const FLEET_S: f64 = 0.012;
/// One direct day + one routed day + a tenth of a range request.
const SERVE_SMALL_S: f64 = 110e-6;
const SERVE_LARGE_S: f64 = 3e-3;

fn plan(w: Workload, seconds: f64) -> Plan {
    let (search_share, serve_share, fleet_share) = match w {
        Workload::MineRoundsK16 => (0.4, 0.2, 0.4),
        Workload::ServeK1026 => (0.45, 0.35, 0.2),
    };
    let n = |share: f64, unit: f64, passes: usize, min: usize| {
        ((seconds * share / (unit * passes as f64)) as usize).max(min)
    };
    let search_large = w == Workload::ServeK1026;
    let search = if search_large {
        SearchSpec {
            count: n(search_share, LONG_SEARCH_S, LONG_SEARCH_PASSES, 4),
            candidates: 200,
            batch: 8,
            gated: false,
            passes: LONG_SEARCH_PASSES,
        }
    } else {
        SearchSpec {
            // A median over fewer rounds still carries their seeds' luck.
            count: n(search_share, ROUND_S, ROUND_PASSES, 60),
            candidates: 200,
            batch: 1,
            gated: true,
            passes: ROUND_PASSES,
        }
    };
    let serve_large = w == Workload::ServeK1026;
    let (unit, passes) = if serve_large {
        (SERVE_LARGE_S, SERVE_LARGE_PASSES)
    } else {
        (SERVE_SMALL_S, SERVE_SMALL_PASSES)
    };
    // p99 needs ≥ 1000 samples and p90 ≥ 100 to keep ten beyond them.
    let days = n(serve_share, unit, passes, 1000);
    Plan {
        search,
        search_large,
        serve: ServeSpec {
            days,
            ranges: (days / 10).max(100),
            passes,
        },
        serve_large,
        fleet: FleetSpec {
            fleets: n(fleet_share, FLEET_S, FLEET_PASSES, 40),
            rounds: 2,
            round_searches: 100,
            passes: FLEET_PASSES,
        },
    }
}

/// Everything set up before the first timed operation.
struct World {
    small: Arc<Evaluator>,
    large: Option<Arc<Evaluator>>,
    stack: ServeStack,
}

/// The evaluator the workload's search phase runs on.
fn search_ev<'w>(
    plan: &Plan,
    small: &'w Arc<Evaluator>,
    large: &'w Option<Arc<Evaluator>>,
) -> &'w Evaluator {
    match large {
        Some(ev) if plan.search_large => ev,
        _ => small,
    }
}

struct Setup {
    setup_s: f64,
    market_s: f64,
    boot_s: f64,
}

fn set_up_once(plan: &Plan, epoch: Instant) -> Result<(World, Setup), String> {
    let t = Instant::now();
    let (small_ds, small, mut market_s) = search::evaluator(SMALL.0, SMALL.1, SMALL.2);
    let large = (plan.search_large || plan.serve_large)
        .then(|| search::evaluator(LARGE.0, LARGE.1, LARGE.2));
    market_s += large.as_ref().map_or(0.0, |l| l.2);
    let b = Instant::now();
    let serve_ds = match &large {
        Some((ds, _, _)) if plan.serve_large => ds,
        _ => &small_ds,
    };
    let stack =
        ServeStack::boot(serve_ds, epoch).map_err(|e| format!("serving stack boot: {e}"))?;
    let boot_s = b.elapsed().as_secs_f64();
    // The first fleet's coordinator and link threads.
    let probe = Fleet::new(Arc::clone(&small), fleet::config(plan.fleet, 0));
    let booted = fleet::boot(&probe, &Arc::new(AtomicU64::new(0)));
    let setup_s = t.elapsed().as_secs_f64();
    if !booted.shutdown() {
        return Err("fleet connection loop failed on shutdown".into());
    }
    Ok((
        World {
            small,
            large: large.map(|l| l.1),
            stack,
        },
        Setup {
            setup_s,
            market_s,
            boot_s,
        },
    ))
}

/// One pass over every phase of a workload.
struct Pass {
    search: SearchPass,
    serve: ServePass,
    fleet: FleetPass,
    /// Wall time of the whole pass over every phase.
    wall_s: f64,
}

/// Runs every phase of a workload, interleaving their passes: a phase
/// with `p` passes runs its `j`-th pass in slot `j × slots / p`, so each
/// phase's repeats spread over the whole run instead of one stretch of
/// it, and a slow spell on the machine cannot cover all of them.
fn run_pass(
    args: &Args,
    plan: &Plan,
    world: &mut World,
    mut tracer: Option<&mut Tracer>,
    ops: &mut Ops,
) -> Pass {
    let t = Instant::now();
    let World {
        small,
        large,
        stack,
    } = world;
    let mut search = SearchPhase::new(
        search_ev(plan, small, large),
        plan.search,
        mix(args.seed, 1),
    );
    let mut serve = ServePhase::new(stack, plan.serve, mix(args.seed, 2));
    let mut fleet = FleetPhase::new(small, plan.fleet, mix(args.seed, 3));
    let passes = [plan.search.passes, plan.serve.passes, plan.fleet.passes];
    let slots = passes.iter().copied().max().unwrap_or(1);
    let mut done = [0usize; 3];
    for slot in 0..slots {
        for (phase, &p) in passes.iter().enumerate() {
            while done[phase] < p && done[phase] * slots / p <= slot {
                match phase {
                    0 => search.pass(tracer.as_deref_mut(), ops),
                    1 => serve.pass(stack, tracer.as_deref_mut(), ops),
                    _ => fleet.pass(tracer.as_deref_mut(), ops),
                }
                done[phase] += 1;
            }
        }
    }
    let search = search.finish();
    let serve = serve.finish(stack, tracer, ops);
    let fleet = fleet.finish();
    Pass {
        search,
        serve,
        fleet,
        wall_s: t.elapsed().as_secs_f64(),
    }
}

/// Peak resident set (`VmHWM`) of this process, MiB.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

type Metrics = Vec<(&'static str, f64)>;

fn med(v: &[f64]) -> f64 {
    median(&mut v.to_vec()).unwrap_or(0.0)
}

fn end_to_end(setup: f64, pass: &Pass, ops: &mut Ops) -> Metrics {
    let (s, v, f) = (&pass.search, &pass.serve, &pass.fleet);
    ops.check(
        percentile_supported(v.days, 0.99) && percentile_supported(v.ranges, 0.9),
        "every named percentile has at least ten samples beyond it",
    );
    // Each percentile is over one pass's sends; the median over passes
    // keeps a pass that a slow spell on the machine covered from
    // counting more than once.
    let rss = peak_rss_mib();
    ops.check(rss.is_some(), "peak RSS is readable");
    vec![
        ("setup_s", setup),
        ("search_cand_per_s", med(&s.rates)),
        ("serve_direct_day_p50_us", med(&v.direct_p50_ns) / 1e3),
        ("serve_day_p50_us", med(&v.day_p50_ns) / 1e3),
        ("serve_day_p99_us", med(&v.day_p99_ns) / 1e3),
        ("serve_range_p50_ms", med(&v.range_p50_ns) / 1e6),
        ("serve_range_p90_ms", med(&v.range_p90_ns) / 1e6),
        ("fleet_cand_per_s", med(&f.rates)),
        ("peak_rss_mb", rss.unwrap_or(0.0)),
    ]
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn per_layer(
    plan: &Plan,
    setups: &[Setup],
    untraced: &Pass,
    traced: &Pass,
    world: &World,
) -> Metrics {
    let (s, v, f) = (&traced.search, &traced.serve, &traced.fleet);
    let st = &s.stats;
    let searched = st.searched as f64;
    let sp = &s.split;
    let search_ev = search_ev(plan, &world.small, &world.large);
    let ds = search_ev.dataset();
    let opts: &EvalOptions = search_ev.options();
    let (train_days, valid_days) = (ds.train_days().len() as f64, ds.valid_days().len() as f64);
    // One day's staged input: every feature × the window × every stock,
    // 8 bytes each, for every tile-day a flush sweeps (computed, not
    // counted: a validation sweep that aborts early stages fewer days).
    let day_bytes = (ds.n_features() * ds.window() * ds.n_stocks() * 8) as f64;
    let tile_days = train_days * opts.train_epochs as f64 + valid_days;
    let staged = day_bytes * tile_days * sp.flushes as f64;

    let search_ns = s.first_ns;
    let mutation = s.mutate.per_call() * searched;
    let analysis = s.analyze.per_call() * searched;
    let interp = (sp.train_ns + sp.load_day_ns + sp.predict_ns + sp.update_ns) as f64;
    let gate = if plan.search.gated {
        s.gate.per_call() * (st.evaluated - st.invalid) as f64
    } else {
        0.0
    };
    let flush = sp.flush.sum_ns as f64;
    let search_share = |x: f64| ratio(x, search_ns);

    let (routed_total, range_total): (f64, f64) =
        (v.routed_sent_ns.iter().sum(), v.range_sent_ns.iter().sum());
    let server_routed: f64 =
        v.shard_day_max_ns.iter().sum::<f64>() + v.shard_range_max_ns.iter().sum::<f64>();
    let codec = v.codec_day_ns() * v.routed_sent_ns.len() as f64
        + v.codec_range_ns() * v.range_sent_ns.len() as f64;
    let router_overhead: Vec<f64> = v
        .routed_sent_ns
        .iter()
        .zip(&v.shard_day_max_ns)
        .map(|(r, m)| r - m)
        .collect();

    let fleet_busy = fleet::ISLANDS as f64 * f.first_ns;
    let reeval = reeval_us(&world.small, &f.elites);
    let (admit_us, backtest_ms) = (med(&s.admit_ns) / 1e3, med(&s.backtest_ns) / 1e6);

    let setup_med = |pick: fn(&Setup) -> f64| med(&setups.iter().map(pick).collect::<Vec<_>>());
    vec![
        ("mutation.ns_per_cand", s.mutate.per_call()),
        ("fingerprint.ns_per_cand", s.analyze.per_call()),
        (
            "fingerprint.allocs_per_cand",
            ratio(s.analyze_allocs as f64, s.analyze.calls as f64),
        ),
        (
            "evolution.cache_hit_ratio",
            ratio(st.cache_hits as f64, searched),
        ),
        (
            "evolution.evaluated_ratio",
            ratio(st.evaluated as f64, searched),
        ),
        (
            "evolution.redundant_ratio",
            ratio(st.redundant as f64, searched),
        ),
        ("evolution.searched", searched),
        ("evolution.evaluated", st.evaluated as f64),
        ("evolution.redundant", st.redundant as f64),
        ("evolution.cache_hits", st.cache_hits as f64),
        ("evolution.invalid", st.invalid as f64),
        ("evolution.gate_rejected", st.gate_rejected as f64),
        ("evolution.static_rejected", st.static_rejected as f64),
        ("evolution.folded", st.folded as f64),
        ("backtest.gate_ns_per_eval", s.gate.per_call()),
        ("archive.admit_us", admit_us),
        ("eval.backtest_ms", backtest_ms),
        ("compile.ns_total", sp.compile_ns as f64),
        ("interp.load_day_ns", sp.load_day_ns as f64),
        (
            "interp.staged_bytes_per_cand",
            ratio(staged, sp.candidates as f64),
        ),
        ("interp.predict_ns", sp.predict_ns as f64),
        ("interp.update_ns", sp.update_ns as f64),
        ("interp.train_ns", sp.train_ns as f64),
        (
            "kernels.rank_reuse_ratio",
            ratio(
                sp.rank_reused as f64,
                (sp.rank_reused + sp.rank_resorted) as f64,
            ),
        ),
        (
            "eval.flush_p50_us",
            sp.flush.quantile_upper_ns(0.5).unwrap_or(0) as f64 / 1e3,
        ),
        ("search.mutation_share", search_share(mutation)),
        ("search.fingerprint_share", search_share(analysis)),
        ("search.compile_share", search_share(sp.compile_ns as f64)),
        ("search.load_day_share", search_share(sp.load_day_ns as f64)),
        ("search.predict_share", search_share(sp.predict_ns as f64)),
        ("search.update_share", search_share(sp.update_ns as f64)),
        ("search.train_share", search_share(sp.train_ns as f64)),
        ("search.gate_share", search_share(gate)),
        ("search.score_share", search_share(flush - interp - gate)),
        (
            "search.unattributed_ratio",
            1.0 - search_share(mutation + analysis + sp.compile_ns as f64 + flush),
        ),
        ("server.day_us", med(&v.shard_day_sum_ns) / 1e3),
        (
            "server.range_us_per_day",
            med(&v.shard_range_sum_ns) / 1e3 / serve::RANGE_DAYS as f64,
        ),
        (
            "server.allocs_per_req",
            ratio(v.direct_allocs as f64, (v.days * v.sends) as f64),
        ),
        ("wire.encode_us", v.encode_day_ns / 1e3),
        ("wire.decode_us", v.decode_day_ns / 1e3),
        (
            "wire.bytes_per_req",
            ratio(v.routed_bytes as f64, (v.days * v.sends) as f64),
        ),
        (
            "wire.range_bytes_per_req",
            ratio(v.range_bytes as f64, (v.ranges * v.sends) as f64),
        ),
        (
            "router.overhead_us",
            (med(&router_overhead) - v.codec_day_ns()) / 1e3,
        ),
        (
            "serve.server_share",
            ratio(server_routed, routed_total + range_total),
        ),
        ("serve.wire_share", ratio(codec, routed_total + range_total)),
        (
            "serve.unattributed_ratio",
            1.0 - ratio(server_routed + codec, routed_total + range_total),
        ),
        ("island.search_ms_per_round", med(&f.island_search_ns) / 1e6),
        ("coordinator.round_ms", med(&f.coordinator_round_ns) / 1e6),
        ("coordinator.reeval_us_per_elite", reeval),
        (
            "fleet.barrier_wait_ratio",
            ratio(f.barrier_wait_ns as f64, fleet_busy),
        ),
        ("fleet.search_share", ratio(f.search_ns as f64, fleet_busy)),
        (
            "fleet.coordinator_share",
            ratio(
                f.submit_ns.saturating_sub(f.barrier_wait_ns) as f64,
                fleet_busy,
            ),
        ),
        (
            "fleet.unattributed_ratio",
            1.0 - ratio((f.search_ns + f.submit_ns) as f64, fleet_busy),
        ),
        (
            "fleetwire.bytes_per_round",
            ratio(f.bytes as f64, f.rounds as f64),
        ),
        ("market.build_s", setup_med(|s| s.market_s)),
        ("server.boot_s", setup_med(|s| s.boot_s)),
        (
            "trace.overhead_ratio",
            ratio(traced.wall_s, untraced.wall_s) - 1.0,
        ),
    ]
}

/// Median `Evaluator::evaluate` time over (at most 64 of) the elites the
/// islands submitted — the coordinator's per-elite re-evaluation.
fn reeval_us(ev: &Evaluator, elites: &[alphaevolve_core::AlphaProgram]) -> f64 {
    let times: Vec<f64> = elites
        .iter()
        .take(64)
        .map(|p| {
            let t = Instant::now();
            std::hint::black_box(ev.evaluate(p));
            t.elapsed().as_nanos() as f64
        })
        .collect();
    med(&times) / 1e3
}

/// The environment stamp printed with every result.
fn env_stamp(args: &Args) -> String {
    let root = repo_root();
    let commit = if root.join(".git").exists() {
        std::process::Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    } else {
        "unknown (not a git checkout)".to_string()
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut features = vec!["obs"];
    if cfg!(feature = "reference-oracle") {
        features.push("reference-oracle");
    }
    format!(
        "{{\"env\": {{\"commit\": {}, \"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"profile\": {}, \"features\": [{}], \"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        json_str(&commit),
        json_str(&cpu),
        json_str(env!("LEDGER_RUSTC")),
        json_str(env!("LEDGER_PROFILE")),
        features.iter().map(|f| json_str(f)).collect::<Vec<_>>().join(", "),
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    )
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: every metric `BENCHMARK.json` declares for the
/// mode, in its order and with its unit.
fn result_line(metrics: &Metrics, trace: bool, ops: &mut Ops) -> String {
    let manifest = std::fs::read_to_string(repo_root().join("BENCHMARK.json"));
    ops.check(manifest.is_ok(), "BENCHMARK.json is readable");
    let section = if trace { "per_layer" } else { "end_to_end" };
    let declared = manifest::declared(&manifest.unwrap_or_default(), section);
    let mut body = Vec::with_capacity(declared.len());
    for (name, unit) in &declared {
        let value = metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        ops.check(
            value.is_some_and(f64::is_finite),
            &format!("metric {name} is measured and finite"),
        );
        let v = value.filter(|v| v.is_finite()).unwrap_or(0.0);
        body.push(format!(
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    ops.check(
        metrics
            .iter()
            .all(|(n, _)| declared.iter().any(|(d, _)| d == n)),
        "every computed metric is declared in BENCHMARK.json",
    );
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0,
        ops.attempted,
        ops.failed,
        body.join(", ")
    )
}

fn write_spans(args: &Args, tracer: &Tracer) -> std::io::Result<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!(
        "{}-seed{}.spans.tsv",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, tracer.render())?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "ledger: {e}\nusage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                manifest::WORKLOADS
                    .iter()
                    .map(|w| w.name())
                    .collect::<Vec<_>>()
                    .join("|")
            );
            return ExitCode::from(2);
        }
    };
    let epoch = Instant::now();
    let mut ops = Ops::default();
    println!("{}", env_stamp(&args));
    search::check_pin(&mut ops);

    let plan = plan(args.workload, args.seconds);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut world = None;
    for _ in 0..SETUP_REPS {
        // Tear the previous set-up down first: one world alive at a time.
        if let Some(World { stack, .. }) = world.take() {
            ops.check(stack.shutdown(), "serving shards shut down cleanly");
        }
        match set_up_once(&plan, epoch) {
            Ok((w, s)) => {
                world = Some(w);
                setups.push(s);
            }
            Err(e) => {
                ops.check(false, &e);
                println!("{}", result_line(&Vec::new(), args.trace, &mut ops));
                return ExitCode::FAILURE;
            }
        }
    }
    let mut world = world.expect("set up at least once");
    let setup_s = med(&setups.iter().map(|s| s.setup_s).collect::<Vec<_>>());
    world.stack.build_references();

    let untraced = run_pass(&args, &plan, &mut world, None, &mut ops);
    let metrics = if args.trace {
        let mut tracer = Tracer::new(epoch);
        let traced = run_pass(&args, &plan, &mut world, Some(&mut tracer), &mut ops);
        eprintln!(
            "ledger: pass wall untraced {:.3} s, traced {:.3} s",
            untraced.wall_s, traced.wall_s
        );
        let m = per_layer(&plan, &setups, &untraced, &traced, &world);
        match write_spans(&args, &tracer) {
            Ok(path) => eprintln!("ledger: spans written to {}", path.display()),
            Err(e) => ops.check(false, &format!("writing spans: {e}")),
        }
        for (name, ns) in tracer.self_time_by_name() {
            eprintln!("ledger: self time {name:<20} {:>12.3} ms", ns as f64 / 1e6);
        }
        m
    } else {
        end_to_end(setup_s, &untraced, &mut ops)
    };
    let World { stack, .. } = world;
    ops.check(stack.shutdown(), "serving shards shut down cleanly");
    for (name, v) in &metrics {
        eprintln!("ledger: {name:<34} {v}");
    }
    println!("{}", result_line(&metrics, args.trace, &mut ops));
    if ops.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
