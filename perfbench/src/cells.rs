//! The simulation cells the workloads run, and the two ways the benchmark
//! runs one.
//!
//! * [`run_plain`] is the program's own harness ([`nas::BenchRun`], the
//!   loop behind `nas::run_benchmark` and `xp::run_one`), timed only from
//!   outside. The untraced run measures it.
//! * [`run_traced`] makes the same calls into the layers one by one —
//!   machine, `vmm` placement install, benchmark constructor, `nas::proof`,
//!   `cold_start`, `iterate`, the `upmlib` engine calls, `verify` — with a
//!   span around each. Its result must equal [`run_plain`]'s bit for bit,
//!   which checks that the spans time the same work the program does.

use crate::spans::{Guard, Recorder};
use ccnuma::{FastpathStats, Machine};
use nas::bt::Bt;
use nas::cg::Cg;
use nas::ft::Ft;
use nas::mg::Mg;
use nas::sp::Sp;
use nas::{BenchName, BenchRun, EngineMode, NasBenchmark, PhasePoint, RunConfig, RunResult, Scale};
use omp::Runtime;
use std::sync::Arc;
use upmlib::UpmEngine;
use vmm::{install_placement, KernelMigrationEngine, PlacementScheme};

pub const BENCHES: [BenchName; 5] = [
    BenchName::Bt,
    BenchName::Sp,
    BenchName::Cg,
    BenchName::Mg,
    BenchName::Ft,
];

/// One simulation cell: a benchmark at a scale under one configuration.
#[derive(Clone)]
pub struct Cell {
    pub bench: BenchName,
    pub scale: Scale,
    pub cfg: RunConfig,
}

impl Cell {
    pub fn new(
        bench: BenchName,
        scale: Scale,
        placement: PlacementScheme,
        engine: EngineMode,
    ) -> Cell {
        Cell {
            bench,
            scale,
            cfg: RunConfig {
                placement,
                engine,
                ..RunConfig::paper_default()
            },
        }
    }

    /// The cell's service spec (its cache key and its id).
    pub fn spec(&self) -> svc::CellSpec {
        xp::spec::plain(self.bench, self.scale, &self.cfg)
    }

    /// `bench:placement-engine`, with the random seed when there is one.
    pub fn id(&self) -> String {
        match self.cfg.placement {
            PlacementScheme::Random { seed } => format!("{}#{seed}", self.spec().cell_id()),
            _ => self.spec().cell_id(),
        }
    }
}

/// The simulated counts of one cell. They are exact: every run of one
/// commit must repeat them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// L1 hits + L2 hits + memory accesses.
    pub accesses: u64,
    pub mem_local: u64,
    pub mem_remote: u64,
    pub page_migrations: u64,
    pub fastpath_replays: u64,
    pub fastpath_records: u64,
    pub fastpath_misses: u64,
    pub regions: u64,
    pub kernel_migrations: u64,
    /// Pages moved by `migrate_memory`, `replay` and `undo`.
    pub upm_pages: u64,
}

impl Counts {
    fn read(rt: &Runtime, upm: Option<&UpmEngine>, fastpath: Option<FastpathStats>) -> Counts {
        let cpu = rt.machine().aggregate_cpu_stats();
        let fp = fastpath.unwrap_or_default();
        Counts {
            accesses: cpu.l1_hits + cpu.l2_hits + cpu.mem_local + cpu.mem_remote,
            mem_local: cpu.mem_local,
            mem_remote: cpu.mem_remote,
            page_migrations: rt.machine().stats().page_migrations,
            fastpath_replays: fp.replays,
            fastpath_records: fp.records,
            fastpath_misses: fp.misses,
            regions: rt.regions(),
            kernel_migrations: rt.kernel_migration().stats().migrations,
            upm_pages: upm.map_or(0, |e| {
                let s = e.stats();
                s.total_distribution_migrations() + s.replay_migrations + s.undo_migrations
            }),
        }
    }

    pub fn add(&mut self, o: &Counts) {
        self.accesses += o.accesses;
        self.mem_local += o.mem_local;
        self.mem_remote += o.mem_remote;
        self.page_migrations += o.page_migrations;
        self.fastpath_replays += o.fastpath_replays;
        self.fastpath_records += o.fastpath_records;
        self.fastpath_misses += o.fastpath_misses;
        self.regions += o.regions;
        self.kernel_migrations += o.kernel_migrations;
        self.upm_pages += o.upm_pages;
    }
}

/// What running one cell produced.
pub struct Outcome {
    /// The result in the service's exact cache encoding.
    pub json: String,
    pub verified: bool,
    pub counts: Counts,
}

impl Outcome {
    fn of(result: RunResult, counts: Counts) -> Outcome {
        Outcome {
            json: result.to_cache_json().to_string(),
            verified: result.verification.passed,
            counts,
        }
    }
}

/// Run a cell through the program's harness.
pub fn run_plain(cell: &Cell) -> Outcome {
    let scale = cell.scale;
    let cfg = &cell.cfg;
    let mut run = match cell.bench {
        BenchName::Bt => BenchRun::new(|rt| Bt::new(rt, scale), cfg),
        BenchName::Sp => BenchRun::new(|rt| Sp::new(rt, scale), cfg),
        BenchName::Cg => BenchRun::new(|rt| Cg::new(rt, scale), cfg),
        BenchName::Mg => BenchRun::new(|rt| Mg::new(rt, scale), cfg),
        BenchName::Ft => BenchRun::new(|rt| Ft::new(rt, scale), cfg),
    };
    while !run.is_done() {
        run.step();
    }
    let counts = Counts::read(run.runtime(), run.upm(), run.fastpath_stats());
    Outcome::of(run.finish(), counts)
}

fn alloc(bench: BenchName, rt: &mut Runtime, scale: Scale) -> Box<dyn NasBenchmark> {
    match bench {
        BenchName::Bt => Box::new(Bt::new(rt, scale)),
        BenchName::Sp => Box::new(Sp::new(rt, scale)),
        BenchName::Cg => Box::new(Cg::new(rt, scale)),
        BenchName::Mg => Box::new(Mg::new(rt, scale)),
        BenchName::Ft => Box::new(Ft::new(rt, scale)),
    }
}

/// Whether the fast path is on, decided exactly as the harness decides it.
fn fastpath_on(cfg: &RunConfig) -> bool {
    !cfg.trace
        && std::env::var("DDNOMP_FASTPATH")
            .map(|v| v != "0")
            .unwrap_or(true)
}

/// Run a cell layer call by layer call, with a span around each call,
/// following the harness's protocol step for step.
pub fn run_traced(cell: &Cell, rec: &Arc<Recorder>) -> Outcome {
    let group: Arc<str> = cell.id().into();
    let span = |name: &'static str| -> Guard { rec.span(name, &group) };
    let _cell = span("cell");
    let cfg = &cell.cfg;
    let mut machine = {
        let _s = span("ccnuma.machine");
        Machine::new(cfg.machine.clone())
    };
    {
        let _s = span("vmm.install_placement");
        install_placement(&mut machine, cfg.placement.clone());
    }
    let mut rt = Runtime::with_threads(machine, cfg.threads);
    if let EngineMode::IrixMig(kcfg) = &cfg.engine {
        rt.set_kernel_migration(KernelMigrationEngine::enabled(*kcfg));
    }
    let mut bench = {
        let _s = span("nas.alloc");
        alloc(cell.bench, &mut rt, cell.scale)
    };
    let mut upm = match &cfg.engine {
        EngineMode::Upmlib(opts) | EngineMode::RecRep(opts) => {
            let _s = span("upmlib.attach");
            let mut engine = UpmEngine::new(rt.machine(), *opts);
            bench.register_hot(&mut engine);
            Some(engine)
        }
        _ => None,
    };
    let recrep = matches!(cfg.engine, EngineMode::RecRep(_));
    let fastpath = fastpath_on(cfg);

    // Cold start, with the fast path armed as the harness arms it.
    let model = if fastpath {
        let _s = span("nas.proof");
        bench.access_model()
    } else {
        None
    };
    if let Some(model) = &model {
        let proofs = {
            let _s = span("nas.proof");
            nas::derive_proofs(model.cold(), rt.threads())
        };
        rt.install_fastpath(proofs);
    }
    {
        let _s = span("nas.cold_start");
        bench.cold_start(&mut rt);
    }
    if let Some(model) = &model {
        let proofs = {
            let _s = span("nas.proof");
            nas::derive_proofs(model.iteration(), rt.threads())
        };
        rt.install_fastpath(proofs);
    }
    if let Some(engine) = &upm {
        engine.reset_counters(rt.machine());
    }

    // The timed iterations, under the engine's protocol.
    let t_start = rt.machine().clock().now_secs();
    let mut per_iter_secs = Vec::new();
    for step in 0..bench.iterations() {
        rt.fastpath_reset_cursor();
        let t0 = rt.machine().clock().now_secs();
        match (upm.as_mut(), recrep, step) {
            (Some(engine), false, _) => {
                {
                    let _s = span("nas.iterate");
                    bench.iterate(&mut rt, &mut |_, _| {});
                }
                if engine.is_active() {
                    let _s = span("upmlib.migrate_memory");
                    engine.migrate_memory(rt.machine_mut());
                }
            }
            (Some(engine), true, 0) => {
                {
                    let _s = span("nas.iterate");
                    bench.iterate(&mut rt, &mut |_, _| {});
                }
                let _s = span("upmlib.migrate_memory");
                engine.migrate_memory(rt.machine_mut());
            }
            (Some(engine), true, 1) => {
                {
                    let _s = span("nas.iterate");
                    let mut hook = |rt: &mut Runtime, _: PhasePoint| {
                        let _s = span("upmlib.record");
                        engine.record(rt.machine());
                    };
                    bench.iterate(&mut rt, &mut hook);
                }
                let _s = span("upmlib.record");
                engine.compare_counters();
            }
            (Some(engine), true, _) => {
                {
                    let _s = span("nas.iterate");
                    let mut hook = |rt: &mut Runtime, pp: PhasePoint| {
                        if matches!(pp, PhasePoint::Before(_)) {
                            let _s = span("upmlib.replay");
                            engine.replay(rt.machine_mut());
                        }
                    };
                    bench.iterate(&mut rt, &mut hook);
                }
                let _s = span("upmlib.undo");
                engine.undo(rt.machine_mut());
            }
            (None, _, _) => {
                let _s = span("nas.iterate");
                bench.iterate(&mut rt, &mut |_, _| {});
            }
        }
        per_iter_secs.push(rt.machine().clock().now_secs() - t0);
    }

    let total_secs = rt.machine().clock().now_secs() - t_start;
    let counts = Counts::read(&rt, upm.as_ref(), rt.fastpath_stats());
    let verification = {
        let _s = span("nas.verify");
        bench.verify()
    };
    let upm_stats = upm.as_ref().map(|e| e.stats().clone());
    let result = RunResult {
        bench: bench.name(),
        placement: cfg.placement.label().to_string(),
        engine: cfg.engine.label().to_string(),
        total_secs,
        per_iter_secs,
        verification,
        recrep_overhead_secs: upm_stats.as_ref().map_or(0.0, |s| s.recrep_ns * 1e-9),
        upm: upm_stats,
        kernel_migrations: rt.kernel_migration().stats().migrations,
        remote_fraction: rt.machine().aggregate_cpu_stats().remote_fraction(),
        trace: None,
    };
    Outcome::of(result, counts)
}
