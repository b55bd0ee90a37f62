//! Search phases: the paper's round-by-round mining behind one live
//! correlation gate, and repeated short searches at a large universe.
//!
//! Both run single-worker searches through `Evolution`, admit each
//! winner into an `AlphaArchive` and backtest it. The untraced pass
//! times each search; the traced pass additionally captures every
//! search's final population through `run_with_checkpoints` (pinned
//! bit-identical to `run`), reads the evaluation split from
//! `Evolution::telemetry()`, and re-times `Mutator::mutate`,
//! `fingerprint_analyzed` and `CorrelationGate::passes` on that
//! captured material.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use alphaevolve_core::{
    fingerprint, fingerprint_analyzed, init, AlphaConfig, AlphaProgram, Budget, EvalOptions,
    Evaluator, Evolution, EvolutionCheckpoint, EvolutionConfig, EvolutionOutcome, Mutator,
    SearchStats,
};
use alphaevolve_market::features::FeatureSet;
use alphaevolve_market::{generator::MarketConfig, Dataset, SplitSpec};
use alphaevolve_obs::{HistogramSnapshot, MetricValue, MetricsSnapshot};
use alphaevolve_store::{feature_set_id, AlphaArchive, ArchivedAlpha};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::trace::{Tracer, ROOT};
use crate::{alloc, Ops};

/// The paper's population and tournament sizes (§5.2).
pub const POPULATION: usize = 100;
pub const TOURNAMENT: usize = 10;
/// The paper's weak-correlation cutoff.
pub const GATE_CUTOFF: f64 = 0.15;
/// Hall-of-fame capacity of the archive winners are admitted into.
pub const ARCHIVE_CAPACITY: usize = 64;
/// `CorrelationGate::passes` calls timed per search in the traced pass.
const GATE_REPS: usize = 64;

/// What one search phase runs.
#[derive(Debug, Clone, Copy)]
pub struct SearchSpec {
    /// Searches to run, each a fresh `Evolution` from `init::domain_expert`.
    pub count: usize,
    /// Candidates searched per search.
    pub candidates: usize,
    /// Evaluation tile size.
    pub batch: usize,
    /// Run each search behind the archive's live gate.
    pub gated: bool,
    /// Passes over the whole sequence of searches; each search keeps its
    /// least time.
    pub passes: usize,
}

/// Evaluation split summed over a phase's searches, from
/// `Evolution::telemetry()`.
#[derive(Debug, Default, Clone)]
pub struct EvalSplit {
    pub compile_ns: u64,
    pub train_ns: u64,
    pub load_day_ns: u64,
    pub predict_ns: u64,
    pub update_ns: u64,
    pub candidates: u64,
    pub rank_reused: u64,
    pub rank_resorted: u64,
    pub flushes: u64,
    pub flush: HistogramSnapshot,
}

impl EvalSplit {
    fn absorb(&mut self, snap: &MetricsSnapshot) {
        let c = |name: &str| snap.counter_value(name, &[]);
        self.compile_ns += c("eval_compile_ns_total");
        self.train_ns += c("eval_train_ns_total");
        self.load_day_ns += c("eval_load_day_ns_total");
        self.predict_ns += c("eval_predict_ns_total");
        self.update_ns += c("eval_update_ns_total");
        self.candidates += c("eval_candidates_total");
        self.rank_reused += c("eval_rank_reused_total");
        self.rank_resorted += c("eval_rank_resorted_total");
        for cause in ["init", "tile_full", "pending_draw", "checkpoint", "final"] {
            self.flushes += snap.counter_value("search_flushes_total", &[("cause", cause)]);
        }
        if let Some(MetricValue::Histogram(h)) = snap.get("search_flush_ns", &[]) {
            self.flush.merge_from(h);
        }
    }
}

/// Everything one search phase measured.
#[derive(Debug, Default)]
pub struct SearchPass {
    /// Per search: candidates searched ÷ its least wall time.
    pub rates: Vec<f64>,
    /// Σ wall time inside `Evolution::run` in the first pass (the pass
    /// the evaluation split is read from).
    pub first_ns: f64,
    /// Counters summed over every search.
    pub stats: SearchStats,
    /// Per admitted winner: `AlphaArchive::admit` time.
    pub admit_ns: Vec<f64>,
    /// Per winner: `Evaluator::backtest` time.
    pub backtest_ns: Vec<f64>,
    // Traced pass only.
    pub split: EvalSplit,
    pub mutate: Timed,
    pub analyze: Timed,
    pub analyze_allocs: u64,
    pub gate: Timed,
}

/// A total time over a number of timed calls.
#[derive(Debug, Default, Clone, Copy)]
pub struct Timed {
    pub ns: u64,
    pub calls: u64,
}

impl Timed {
    fn add(&mut self, since: Instant, calls: usize) {
        self.ns += since.elapsed().as_nanos() as u64;
        self.calls += calls as u64;
    }

    /// Mean nanoseconds per call (0 when nothing was timed).
    pub fn per_call(self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// A market, its dataset and an evaluator over it, plus the seconds
/// market generation and `Dataset::build` took.
pub fn evaluator(
    n_stocks: usize,
    n_days: usize,
    market_seed: u64,
) -> (Arc<Dataset>, Arc<Evaluator>, f64) {
    let t = Instant::now();
    let market = MarketConfig {
        n_stocks,
        n_days,
        seed: market_seed,
        ..Default::default()
    }
    .generate();
    let ds = Dataset::build(&market, &FeatureSet::paper(), SplitSpec::paper_ratios())
        .expect("synthetic market builds a dataset");
    let build_s = t.elapsed().as_secs_f64();
    let ds = Arc::new(ds);
    let ev = Evaluator::new(
        AlphaConfig::default(),
        EvalOptions::default(),
        Arc::clone(&ds),
    );
    (ds, Arc::new(ev), build_s)
}

fn add_stats(into: &mut SearchStats, s: &SearchStats) {
    into.searched += s.searched;
    into.evaluated += s.evaluated;
    into.redundant += s.redundant;
    into.cache_hits += s.cache_hits;
    into.invalid += s.invalid;
    into.gate_rejected += s.gate_rejected;
    into.static_rejected += s.static_rejected;
    into.folded += s.folded;
}

/// What a repeated search must reproduce: its counters and its best
/// alpha's IC bits and program.
fn digest(o: &EvolutionOutcome) -> (SearchStats, Option<(u64, AlphaProgram)>) {
    (
        o.stats,
        o.best.as_ref().map(|b| (b.ic.to_bits(), b.pruned.clone())),
    )
}

/// The `searched = evaluated + redundant + cache_hits + static_rejected`
/// identity every search must satisfy.
pub fn identity_holds(s: &SearchStats) -> bool {
    s.searched == s.evaluated + s.redundant + s.cache_hits + s.static_rejected
}

/// Reproduces the pinned fixed-seed run (`tests/determinism.rs`): best
/// alpha fingerprint `0x60f0a96b0af11c64`, IC `0.21213852898918362`. The
/// bit pins hold on linux/x86-64; elsewhere only the structure is checked.
pub fn check_pin(ops: &mut Ops) {
    let (_, ev, _) = evaluator(16, 140, 21);
    let outcome = Evolution::new(
        &ev,
        EvolutionConfig {
            population_size: 20,
            tournament_size: 5,
            budget: Budget::Searched(300),
            seed: 7,
            workers: 1,
            ..Default::default()
        },
    )
    .run(&init::domain_expert(ev.config()));
    let Some(best) = outcome.best else {
        ops.check(false, "pinned run finds an alpha");
        return;
    };
    ops.check(
        outcome.stats.searched == 300,
        "pinned run searches 300 candidates",
    );
    if cfg!(all(target_os = "linux", target_arch = "x86_64")) {
        let fp = fingerprint(&best.program, ev.config()).0;
        ops.check(
            fp == 0x60f0_a96b_0af1_1c64,
            "pinned run reproduces fingerprint 0x60f0a96b0af11c64",
        );
        ops.check(
            best.ic.to_bits() == 0.212_138_528_989_183_62_f64.to_bits(),
            "pinned run reproduces IC 0.21213852898918362",
        );
    } else {
        ops.check(best.ic.is_finite(), "pinned run IC is finite");
    }
}

/// One search phase: a fixed sequence of searches (`seed + i` seeds
/// search `i`), run pass by pass. Each pass runs the whole sequence,
/// with the admissions that the gate of later searches sees, and each
/// search keeps its least wall time over the passes. Every pass must
/// reproduce the first one's outcomes bit for bit; checks, backtests and
/// the traced split come from the first pass.
pub struct SearchPhase<'a> {
    ev: &'a Evaluator,
    spec: SearchSpec,
    seed: u64,
    seed_program: AlphaProgram,
    mutator: Mutator,
    walls: Vec<f64>,
    outcomes: Vec<(SearchStats, Option<(u64, AlphaProgram)>)>,
    out: SearchPass,
}

impl<'a> SearchPhase<'a> {
    pub fn new(ev: &'a Evaluator, spec: SearchSpec, seed: u64) -> SearchPhase<'a> {
        let cfg = *ev.config();
        SearchPhase {
            ev,
            spec,
            seed,
            seed_program: init::domain_expert(&cfg),
            mutator: Mutator::new(cfg, EvolutionConfig::default().mutation),
            walls: vec![f64::INFINITY; spec.count],
            outcomes: Vec::with_capacity(spec.count),
            out: SearchPass::default(),
        }
    }

    /// Runs one pass over the whole sequence.
    pub fn pass(&mut self, mut tracer: Option<&mut Tracer>, ops: &mut Ops) {
        let (ev, spec) = (self.ev, self.spec);
        let cfg = *ev.config();
        let fsid = feature_set_id(&FeatureSet::paper());
        let train = ev.dataset().train_days();
        let steady = spec.candidates.saturating_sub(POPULATION).max(1);
        let first = self.outcomes.is_empty();
        let mut archive = AlphaArchive::with_cutoff(ARCHIVE_CAPACITY, GATE_CUTOFF);
        for i in 0..spec.count {
            let search_seed = self.seed.wrapping_add(i as u64);
            let econfig = EvolutionConfig {
                population_size: POPULATION,
                tournament_size: TOURNAMENT,
                budget: Budget::Searched(spec.candidates),
                seed: search_seed,
                workers: 1,
                batch: spec.batch,
                ..Default::default()
            };
            let mut captured: Option<EvolutionCheckpoint> = None;
            let mut evo = Evolution::new(ev, econfig);
            if spec.gated {
                evo = evo.with_gate(archive.gate());
            }
            let t0 = Instant::now();
            let outcome = if tracer.is_some() {
                evo.run_with_checkpoints(&self.seed_program, steady, &mut |cp| captured = Some(cp))
            } else {
                evo.run(&self.seed_program)
            };
            let t1 = Instant::now();
            let ns = (t1 - t0).as_nanos() as f64;
            self.walls[i] = self.walls[i].min(ns);
            if let Some(t) = tracer.as_deref_mut() {
                t.record("evolution.run", t0, t1, ROOT, i as u64);
                if first {
                    let mut snap = MetricsSnapshot::new();
                    evo.telemetry().snapshot_into(&mut snap);
                    self.out.split.absorb(&snap);
                }
            }
            drop(evo);

            if first {
                self.out.first_ns += ns;
                add_stats(&mut self.out.stats, &outcome.stats);
                ops.check(
                    identity_holds(&outcome.stats),
                    "searched = evaluated + redundant + cache_hits + static_rejected",
                );
                ops.check(
                    outcome.stats.searched == spec.candidates,
                    "search stops at its budget",
                );
                self.outcomes.push(digest(&outcome));
            } else {
                ops.check(
                    self.outcomes[i] == digest(&outcome),
                    "a repeated search reproduces its counters and best alpha bit for bit",
                );
            }

            let Some(best) = outcome.best else {
                // Every candidate died (non-finite or gated): nothing to admit.
                continue;
            };
            if first {
                ops.check(
                    ev.evaluate(&best.pruned).ic.to_bits() == best.ic.to_bits(),
                    "best alpha re-scored with Evaluator::evaluate reproduces its IC bits",
                );
                if tracer.is_some() {
                    if let Some(cp) = &captured {
                        time_admission_layers(&self.mutator, &cfg, cp, search_seed, &mut self.out);
                    }
                    if !archive.is_empty() {
                        let gate = archive.gate();
                        let g = Instant::now();
                        for _ in 0..GATE_REPS {
                            black_box(gate.passes(black_box(&best.val_returns)));
                        }
                        self.out.gate.add(g, GATE_REPS);
                    }
                }
            }

            let candidate = ArchivedAlpha {
                name: format!("search_{i}"),
                fingerprint: fingerprint(&best.pruned, &cfg).0,
                program: best.pruned.clone(),
                ic: best.ic,
                val_returns: best.val_returns,
                train_days: (train.start as u64, train.end as u64),
                feature_set_id: fsid,
            };
            let a0 = Instant::now();
            black_box(archive.admit(candidate));
            let a1 = Instant::now();
            if first {
                let report = ev.backtest(&best.pruned);
                let b1 = Instant::now();
                black_box(&report);
                self.out.admit_ns.push((a1 - a0).as_nanos() as f64);
                self.out.backtest_ns.push((b1 - a1).as_nanos() as f64);
                if let Some(t) = tracer.as_deref_mut() {
                    t.record("archive.admit", a0, a1, ROOT, i as u64);
                    t.record("eval.backtest", a1, b1, ROOT, i as u64);
                }
            }
        }
    }

    /// Per-search throughput at each search's least wall time.
    pub fn finish(mut self) -> SearchPass {
        self.out.rates = self
            .walls
            .iter()
            .map(|&w| self.spec.candidates as f64 / (w * 1e-9))
            .collect();
        self.out
    }
}

/// Re-times the per-candidate admission pipeline on one search's own
/// final population: mutate every member once, then analyze every
/// mutant — the two calls the search makes before its cache lookup.
fn time_admission_layers(
    mutator: &Mutator,
    cfg: &AlphaConfig,
    cp: &EvolutionCheckpoint,
    seed: u64,
    pass: &mut SearchPass,
) {
    let parents: Vec<&AlphaProgram> = cp.population.iter().map(|i| &i.program).collect();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut children = Vec::with_capacity(parents.len());
    let m = Instant::now();
    for p in &parents {
        children.push(mutator.mutate(&mut rng, p));
    }
    pass.mutate.add(m, parents.len());
    let f = Instant::now();
    for c in &children {
        black_box(fingerprint_analyzed(black_box(c), cfg));
    }
    pass.analyze.add(f, children.len());
    let ((), allocs) = alloc::count(|| {
        for c in &children {
            black_box(fingerprint_analyzed(black_box(c), cfg));
        }
    });
    pass.analyze_allocs += allocs;
}
