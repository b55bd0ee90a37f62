//! The fleet phase: two islands, one per core, over `FleetClient`
//! loopback links to one `Coordinator` served by
//! `serve_fleet_connection`.
//!
//! Each link is wrapped in a [`TimedLink`] that logs every submit's
//! start and end, so a round splits into each island's search time, the
//! time it waited at the barrier, and the coordinator's round (verify →
//! re-evaluate → gated admit), which the last-arriving island's submit
//! spans. A [`Counted`] transport counts the fleet wire bytes.

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use alphaevolve_core::{init, AlphaProgram, Evaluator, EvolutionConfig};
use alphaevolve_market::features::FeatureSet;
use alphaevolve_mine::{
    serve_fleet_connection, Coordinator, Fleet, FleetClient, FleetConfig, FleetOutcome,
    MigrationLink,
};
use alphaevolve_store::{
    feature_set_id, loopback, AlphaArchive, EliteAck, EliteSubmit, MigrantSet, Result,
};

use crate::search::{identity_holds, ARCHIVE_CAPACITY, POPULATION, TOURNAMENT};
use crate::serve::Counted;
use crate::trace::{Tracer, ROOT};
use crate::Ops;

pub const ISLANDS: usize = 2;
pub const MIGRANT_FRACTION: f64 = 0.25;
pub const ELITES_PER_ROUND: usize = 3;

/// What one fleet phase runs.
#[derive(Debug, Clone, Copy)]
pub struct FleetSpec {
    /// Independent fleets, each with a fresh coordinator.
    pub fleets: usize,
    /// Migration rounds per fleet.
    pub rounds: u64,
    /// Candidates each island searches per round.
    pub round_searches: usize,
    /// Passes over the sequence of fleets; each fleet keeps its least
    /// time.
    pub passes: usize,
}

/// One submit as the island's link saw it.
#[derive(Debug, Clone)]
struct Submit {
    round: u64,
    start: Instant,
    end: Instant,
    searched: u64,
    elites: Vec<AlphaProgram>,
}

/// A `MigrationLink` that logs every submit it forwards.
struct TimedLink<L> {
    inner: L,
    log: Arc<Mutex<Vec<Submit>>>,
}

impl<L: MigrationLink> MigrationLink for TimedLink<L> {
    fn submit(&mut self, submit: &EliteSubmit) -> Result<EliteAck> {
        let start = Instant::now();
        let ack = self.inner.submit(submit);
        let end = Instant::now();
        self.log.lock().unwrap().push(Submit {
            round: submit.round,
            start,
            end,
            searched: submit.searched,
            elites: submit.programs.clone(),
        });
        ack
    }

    fn fetch(&mut self, island: u64, round: u64) -> Result<MigrantSet> {
        self.inner.fetch(island, round)
    }

    fn sync_archive(&mut self, island: u64) -> Result<AlphaArchive> {
        self.inner.sync_archive(island)
    }
}

/// Everything one fleet phase measured.
#[derive(Debug, Default)]
pub struct FleetPass {
    /// Per fleet: candidates searched by all islands ÷ its least wall time.
    pub rates: Vec<f64>,
    /// Σ fleet wall time in the first pass (the attributed one).
    pub first_ns: f64,
    pub rounds: u64,
    pub bytes: u64,
    /// Per island round: search time before its submit.
    pub island_search_ns: Vec<f64>,
    /// Per round: the last-arriving island's submit latency.
    pub coordinator_round_ns: Vec<f64>,
    /// Σ over islands and rounds of time blocked at the barrier.
    pub barrier_wait_ns: u64,
    /// Σ over islands and rounds of submit latency.
    pub submit_ns: u64,
    /// Σ over islands and rounds of search time.
    pub search_ns: u64,
    /// Every elite submitted (traced pass: re-evaluation timing input).
    pub elites: Vec<AlphaProgram>,
}

/// The fleet shape of every fleet this phase runs.
pub fn config(spec: FleetSpec, fleet_seed: u64) -> FleetConfig {
    FleetConfig {
        islands: ISLANDS,
        fleet_seed,
        rounds: spec.rounds,
        round_searches: spec.round_searches,
        migrant_fraction: MIGRANT_FRACTION,
        elites_per_round: ELITES_PER_ROUND,
        econfig: EvolutionConfig {
            population_size: POPULATION,
            tournament_size: TOURNAMENT,
            workers: 1,
            batch: 1,
            ..Default::default()
        },
        archive_capacity: ARCHIVE_CAPACITY,
        feature_set_id: feature_set_id(&FeatureSet::paper()),
        round_deadline: Duration::from_secs(60),
        stop_after: None,
        checkpoint_dir: None,
    }
}

/// A coordinator served over one loopback connection per island, and
/// the island ends of those connections.
pub struct Booted {
    coordinator: Arc<Coordinator>,
    servers: Vec<std::thread::JoinHandle<Result<()>>>,
    links: Vec<Box<dyn MigrationLink + Send>>,
    logs: Vec<Arc<Mutex<Vec<Submit>>>>,
}

/// Boots a fresh coordinator and its link threads.
pub fn boot(fleet: &Fleet, bytes: &Arc<AtomicU64>) -> Booted {
    let coordinator = fleet.coordinator();
    let (mut servers, mut links, mut logs) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ISLANDS {
        let (island_end, mut coordinator_end) = loopback();
        let c = Arc::clone(&coordinator);
        servers.push(std::thread::spawn(move || {
            serve_fleet_connection(&c, &mut coordinator_end)
        }));
        let log = Arc::new(Mutex::new(Vec::new()));
        links.push(Box::new(TimedLink {
            inner: FleetClient::new(Counted::new(island_end, Arc::clone(bytes))),
            log: Arc::clone(&log),
        }) as Box<dyn MigrationLink + Send>);
        logs.push(log);
    }
    Booted {
        coordinator,
        servers,
        links,
        logs,
    }
}

impl Booted {
    /// Closes the links and waits for every coordinator thread.
    pub fn shutdown(self) -> bool {
        drop(self.links);
        self.servers
            .into_iter()
            .all(|h| h.join().map(|r| r.is_ok()).unwrap_or(false))
    }
}

/// One fleet run: its outcome, its wall-clock interval, each island's
/// submit log, and the fleet wire bytes it moved.
struct Run {
    outcome: Result<FleetOutcome>,
    t0: Instant,
    t1: Instant,
    logs: Vec<Vec<Submit>>,
    bytes: u64,
}

fn run_once(fleet: &Fleet, seed_program: &AlphaProgram, ops: &mut Ops) -> Run {
    let bytes = Arc::new(AtomicU64::new(0));
    let Booted {
        coordinator,
        servers,
        links,
        logs,
    } = boot(fleet, &bytes);
    let t0 = Instant::now();
    let outcome = fleet.run_with_links(seed_program, &coordinator, links);
    let t1 = Instant::now();
    let servers_ok = servers
        .into_iter()
        .all(|h| h.join().map(|r| r.is_ok()).unwrap_or(false));
    ops.check(servers_ok, "every fleet connection loop ends cleanly");
    let logs = logs
        .iter()
        .map(|l| std::mem::take(&mut *l.lock().unwrap()))
        .collect();
    Run {
        outcome,
        t0,
        t1,
        logs,
        bytes: bytes.load(std::sync::atomic::Ordering::Relaxed),
    }
}

/// One fleet phase: a fixed sequence of fleets (fleet `f` uses fleet
/// seed `seed + f`), run pass by pass; each fleet keeps its least wall
/// time over the passes. Every pass must leave byte-identical archives
/// (the fleet determinism contract). Checks and the per-layer split come
/// from the first pass.
pub struct FleetPhase<'a> {
    ev: &'a Arc<Evaluator>,
    spec: FleetSpec,
    seed: u64,
    seed_program: AlphaProgram,
    walls: Vec<f64>,
    searched: Vec<u64>,
    archives: Vec<Vec<u8>>,
    out: FleetPass,
}

impl<'a> FleetPhase<'a> {
    pub fn new(ev: &'a Arc<Evaluator>, spec: FleetSpec, seed: u64) -> FleetPhase<'a> {
        FleetPhase {
            ev,
            spec,
            seed,
            seed_program: init::domain_expert(ev.config()),
            walls: vec![f64::INFINITY; spec.fleets],
            searched: vec![0; spec.fleets],
            archives: Vec::with_capacity(spec.fleets),
            out: FleetPass::default(),
        }
    }

    /// Runs every fleet of the sequence once.
    pub fn pass(&mut self, mut tracer: Option<&mut Tracer>, ops: &mut Ops) {
        let (ev, spec) = (self.ev, self.spec);
        let first = self.archives.is_empty();
        let per_island = (POPULATION + spec.rounds as usize * spec.round_searches) as u64;
        for f in 0..spec.fleets {
            let fleet = Fleet::new(
                Arc::clone(ev),
                config(spec, self.seed.wrapping_add(f as u64)),
            );
            let Run {
                outcome,
                t0,
                t1,
                logs,
                bytes,
            } = run_once(&fleet, &self.seed_program, ops);
            let ns = (t1 - t0).as_nanos() as f64;
            self.walls[f] = self.walls[f].min(ns);
            let outcome = match outcome {
                Ok(o) => o,
                Err(e) => {
                    ops.check(false, &format!("fleet run completes: {e}"));
                    if first {
                        self.archives.push(Vec::new());
                    }
                    continue;
                }
            };
            ops.check(true, "fleet run completes");
            let archive_bytes = outcome.archive.to_bytes();
            if !first {
                ops.check(
                    self.archives[f] == archive_bytes,
                    "a repeated fleet leaves a byte-identical archive",
                );
                if let Some(t) = tracer.as_deref_mut() {
                    t.record("fleet.run", t0, t1, ROOT, f as u64);
                }
                continue;
            }
            self.searched[f] = outcome
                .outcomes
                .iter()
                .map(|o| o.stats.searched as u64)
                .sum();
            ops.check(
                outcome
                    .outcomes
                    .iter()
                    .all(|o| identity_holds(&o.stats) && o.stats.searched as u64 == per_island),
                "every island searches its budget and its counters satisfy the identity",
            );
            ops.check(
                AlphaArchive::from_bytes(&archive_bytes)
                    .is_ok_and(|a| a.entries() == outcome.archive.entries()),
                "fleet archive round-trips AlphaArchive::from_bytes",
            );
            for entry in outcome.archive.entries() {
                ops.check(
                    ev.evaluate(&entry.program).ic.to_bits() == entry.ic.to_bits(),
                    "fleet archive entry re-evaluates to its stored IC bits",
                );
            }
            ops.check(
                logs.iter().all(|l| {
                    l.len() as u64 == spec.rounds
                        && l.last().is_some_and(|s| s.searched == per_island)
                }),
                "every island submits once per round",
            );
            self.archives.push(archive_bytes);
            self.out.first_ns += ns;
            self.out.rounds += spec.rounds;
            self.out.bytes += bytes;
            attribute(
                &mut self.out,
                tracer.as_deref_mut(),
                f,
                t0,
                t1,
                &logs,
                spec.rounds,
            );
        }
    }

    /// Per-fleet throughput at each fleet's least wall time.
    pub fn finish(mut self) -> FleetPass {
        self.out.rates = self
            .walls
            .iter()
            .zip(&self.searched)
            .map(|(&w, &n)| n as f64 / (w * 1e-9))
            .collect();
        self.out
    }
}

/// Splits one fleet run into each island's search time, its barrier
/// wait and the coordinator's round, from the islands' submit logs.
fn attribute(
    pass: &mut FleetPass,
    mut tracer: Option<&mut Tracer>,
    f: usize,
    t0: Instant,
    t1: Instant,
    logs: &[Vec<Submit>],
    rounds: u64,
) {
    let fleet_span = tracer
        .as_deref_mut()
        .map(|t| t.record("fleet.run", t0, t1, ROOT, f as u64));
    for (island, log) in logs.iter().enumerate() {
        let mut prev = t0;
        for s in log {
            pass.island_search_ns
                .push((s.start - prev).as_nanos() as f64);
            pass.search_ns += (s.start - prev).as_nanos() as u64;
            pass.submit_ns += (s.end - s.start).as_nanos() as u64;
            if let (Some(t), Some(parent)) = (tracer.as_deref_mut(), fleet_span) {
                let id = (island as u64) << 32 | s.round;
                t.record("island.search", prev, s.start, parent, id);
                t.record("coordinator.submit", s.start, s.end, parent, id);
                pass.elites.extend(s.elites.iter().cloned());
            }
            prev = s.end;
        }
    }
    for round in 0..rounds {
        let of_round: Vec<&Submit> = logs
            .iter()
            .filter_map(|l| l.iter().find(|s| s.round == round))
            .collect();
        let Some(last) = of_round.iter().max_by_key(|s| s.start) else {
            continue;
        };
        pass.coordinator_round_ns
            .push((last.end - last.start).as_nanos() as f64);
        for s in &of_round {
            pass.barrier_wait_ns += (last.start - s.start).as_nanos() as u64;
        }
    }
}
