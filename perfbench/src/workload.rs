//! The three workloads: which cells each runs offline, which cells its
//! service traffic requests, and how a run splits its measured time.
//!
//! * `steady` — all five kernels under first-touch and under the
//!   lint-synthesized static placement, no migration engine. The phase
//!   fast path is fully armed and no page moves, so the offline batch is
//!   the access-simulation hot path (`ccnuma` + `omp`).
//! * `migrate` — round-robin and worst-case placement under the IRIX
//!   kernel engine and under UPMlib on all five kernels, plus first-touch
//!   record–replay on BT and SP (on CG record–replay panics: it needs two
//!   recorded snapshots). Pages move every iteration, which keeps `upmlib`
//!   and `vmm` busy and invalidates fast-path memos.
//! * `served` — a small warm set (first-touch, round-robin + UPMlib,
//!   worst-case + IRIX migration on the five kernels) fetched from an
//!   in-process server: the `svc` protocol, cache and in-flight joins with
//!   almost no simulation.
//!
//! Every workload reports every end-to-end metric, so each one both runs
//! its cells offline on a 2-worker `CellPlan` and fetches them from the
//! server; the split of the measured time says which part the workload is
//! about. The seed reaches the program only through the random-placement
//! seeds of the fresh cells the service computes on request (`migrate`,
//! `served`); `steady` has no seeded input and evicts one of its own cells
//! to make its misses.

use crate::cells::{Cell, BENCHES};
use nas::{BenchName, EngineMode, Scale};
use vmm::PlacementScheme;

/// Every cell runs at `tiny` scale. A `small` batch takes 8 s (`steady`) to
/// 23 s (`migrate`) on two cores, too long to sample repeatedly inside one
/// run; at `tiny` a run measures dozens to hundreds of batches.
const SCALE: Scale = Scale::Tiny;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Steady,
    Migrate,
    Served,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "steady" => Some(Workload::Steady),
            "migrate" => Some(Workload::Migrate),
            "served" => Some(Workload::Served),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady => "steady",
            Workload::Migrate => "migrate",
            Workload::Served => "served",
        }
    }

    /// Share of the measured seconds spent on the offline batches; the
    /// rest goes to the service traffic.
    pub fn offline_share(self) -> f64 {
        match self {
            Workload::Steady | Workload::Migrate => 0.6,
            Workload::Served => 0.4,
        }
    }
}

/// Synthesize the static placement of every kernel (the `lint` pass) for
/// the workloads whose cells use it.
pub fn synthesize(w: Workload) -> Vec<(BenchName, PlacementScheme)> {
    if w != Workload::Steady {
        return Vec::new();
    }
    BENCHES
        .iter()
        .map(|&b| (b, xp::lint::static_scheme(b, SCALE)))
        .collect()
}

/// The workload's cell set: its offline batch and the warm set its
/// service traffic requests.
pub fn cells(w: Workload, statics: &[(BenchName, PlacementScheme)]) -> Vec<Cell> {
    let (kcfg, upm) = xp::default_engine_configs();
    let mut out = Vec::new();
    match w {
        Workload::Steady => {
            for &(b, ref st) in statics {
                out.push(Cell::new(
                    b,
                    SCALE,
                    PlacementScheme::FirstTouch,
                    EngineMode::None,
                ));
                out.push(Cell::new(b, SCALE, st.clone(), EngineMode::None));
            }
        }
        Workload::Migrate => {
            for b in BENCHES {
                for placement in [
                    PlacementScheme::RoundRobin,
                    PlacementScheme::WorstCase { node: 0 },
                ] {
                    out.push(Cell::new(
                        b,
                        SCALE,
                        placement.clone(),
                        EngineMode::IrixMig(kcfg),
                    ));
                    out.push(Cell::new(b, SCALE, placement, EngineMode::Upmlib(upm)));
                }
            }
            for b in [BenchName::Bt, BenchName::Sp] {
                out.push(Cell::new(
                    b,
                    SCALE,
                    PlacementScheme::FirstTouch,
                    EngineMode::RecRep(upm),
                ));
            }
        }
        Workload::Served => {
            for b in BENCHES {
                out.push(Cell::new(
                    b,
                    SCALE,
                    PlacementScheme::FirstTouch,
                    EngineMode::None,
                ));
                out.push(Cell::new(
                    b,
                    SCALE,
                    PlacementScheme::RoundRobin,
                    EngineMode::Upmlib(upm),
                ));
                out.push(Cell::new(
                    b,
                    SCALE,
                    PlacementScheme::WorstCase { node: 0 },
                    EngineMode::IrixMig(kcfg),
                ));
            }
        }
    }
    out
}

/// The cells the service must compute on request. All are CG cells, so
/// every miss costs about the same and the median stays put.
pub enum Misses {
    /// Evict this warm cell's cache entry and request it again.
    Evict(Box<Cell>),
    /// Fresh random-placement cells, seeded from the run's seed.
    Fresh(FreshCells),
}

/// An endless sequence of fresh random-placement CG cells.
pub struct FreshCells {
    engine: EngineMode,
    state: u64,
}

impl Iterator for FreshCells {
    type Item = Cell;

    fn next(&mut self) -> Option<Cell> {
        // Specs travel as JSON numbers, exact only below 2^53.
        let seed = splitmix64(&mut self.state) >> 12;
        Some(Cell::new(
            BenchName::Cg,
            SCALE,
            PlacementScheme::Random { seed },
            self.engine.clone(),
        ))
    }
}

pub fn misses(w: Workload, seed: u64) -> Misses {
    let (_, upm) = xp::default_engine_configs();
    let fresh = |engine: EngineMode| {
        Misses::Fresh(FreshCells {
            engine,
            state: seed,
        })
    };
    match w {
        Workload::Steady => Misses::Evict(Box::new(Cell::new(
            BenchName::Cg,
            SCALE,
            PlacementScheme::FirstTouch,
            EngineMode::None,
        ))),
        Workload::Migrate => fresh(EngineMode::Upmlib(upm)),
        Workload::Served => fresh(EngineMode::None),
    }
}

/// SplitMix64: a well-mixed 64-bit sequence from any start value.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
