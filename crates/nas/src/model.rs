//! Static access models of the benchmark kernels.
//!
//! A [`KernelModel`] describes — without running the machine simulation —
//! exactly which simulated virtual addresses every loop iteration of a
//! benchmark touches, how each loop's iterations are scheduled, and in what
//! program order the loops execute. It is the contract between the
//! benchmark implementations and the `lint` crate's static NUMA/race
//! analyzer: the analyzer replays the model's access streams symbolically
//! (first-touch placement, per-page reference counts, per-line writer sets)
//! instead of simulating caches, coherence and timing.
//!
//! The model is *exact* for these kernels because every loop body's access
//! pattern depends only on the iteration index and on host-side metadata
//! fixed at allocation time (grid geometry, the CG sparse-matrix pattern) —
//! never on simulated floating-point values. Each benchmark builds its
//! model from the same state that drives the real run ([`ArrayLayout`]
//! snapshots of its `SimArray`s plus clones of its loop metadata), so model
//! addresses agree bit-for-bit with the simulated run's addresses.

use crate::common::BenchName;
use ccnuma::{AccessKind, ArrayLayout};
use omp::Schedule;

/// How a modeled loop's iterations are assigned to threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopKind {
    /// A `parallel_for`: iterations split among threads by the schedule.
    Parallel,
    /// A `parallel_reduce`: iterations split by the team-size-invariant
    /// `REDUCTION_BLOCKS` partition (see `omp::reduction_chunks`).
    Reduction,
    /// A `serial` region: all iterations execute on thread 0.
    Serial,
}

/// Closure enumerating one iteration's element accesses: called with the
/// iteration index and an emitter receiving `(vaddr, kind)` per access.
pub type AccessFn = Box<dyn Fn(usize, &mut dyn FnMut(u64, AccessKind))>;

/// One worksharing construct of a benchmark: an iteration space, a
/// schedule, and the per-iteration element accesses.
pub struct LoopModel {
    name: String,
    n: usize,
    schedule: Schedule,
    kind: LoopKind,
    accesses: AccessFn,
}

impl LoopModel {
    /// Model of a `parallel_for` over `0..n`.
    pub fn parallel(
        name: &str,
        n: usize,
        schedule: Schedule,
        accesses: impl Fn(usize, &mut dyn FnMut(u64, AccessKind)) + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            n,
            schedule,
            kind: LoopKind::Parallel,
            accesses: Box::new(accesses),
        }
    }

    /// Model of a `parallel_reduce` over `0..n`.
    pub fn reduction(
        name: &str,
        n: usize,
        schedule: Schedule,
        accesses: impl Fn(usize, &mut dyn FnMut(u64, AccessKind)) + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            n,
            schedule,
            kind: LoopKind::Reduction,
            accesses: Box::new(accesses),
        }
    }

    /// Model of a `serial` region (one iteration, executed by thread 0).
    pub fn serial(
        name: &str,
        accesses: impl Fn(usize, &mut dyn FnMut(u64, AccessKind)) + 'static,
    ) -> Self {
        Self {
            name: name.to_string(),
            n: 1,
            schedule: Schedule::Static,
            kind: LoopKind::Serial,
            accesses: Box::new(accesses),
        }
    }

    /// The loop's name (stable across runs; used in lint finding keys).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Iteration-space size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The loop's schedule clause.
    pub fn schedule(&self) -> Schedule {
        self.schedule
    }

    /// How iterations map to threads.
    pub fn kind(&self) -> LoopKind {
        self.kind
    }

    /// Enumerate iteration `iter`'s element accesses.
    pub fn for_each_access(&self, iter: usize, emit: &mut dyn FnMut(u64, AccessKind)) {
        debug_assert!(iter < self.n);
        (self.accesses)(iter, emit);
    }

    /// The iteration ranges owned by each thread (indexed by tid), exactly
    /// mirroring the runtime's static assignment — `static_chunks` for
    /// `parallel_for`, the `REDUCTION_BLOCKS` block partition for
    /// `parallel_reduce`, everything on thread 0 for serial regions.
    pub fn ownership(&self, threads: usize) -> Vec<Vec<(usize, usize)>> {
        match self.kind {
            LoopKind::Parallel => self.schedule.static_chunks(self.n, threads),
            LoopKind::Reduction => omp::reduction_chunks(self.schedule, self.n, threads),
            LoopKind::Serial => {
                let mut owns = vec![Vec::new(); threads];
                owns[0].push((0, self.n));
                owns
            }
        }
    }
}

impl std::fmt::Debug for LoopModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopModel")
            .field("name", &self.name)
            .field("n", &self.n)
            .field("schedule", &self.schedule)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

/// A named program phase: a sequence of loops executed back to back. For
/// BT/SP the phases are the paper's Figure 2/3 phases (`compute_rhs`, the
/// three sweeps, `add`); other benchmarks phase at operator granularity.
#[derive(Debug)]
pub struct PhaseModel {
    name: String,
    loops: Vec<LoopModel>,
}

impl PhaseModel {
    /// A phase from its loops, in program order.
    pub fn new(name: &str, loops: Vec<LoopModel>) -> Self {
        Self {
            name: name.to_string(),
            loops,
        }
    }

    /// Phase name (stable; used in lint finding keys).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The phase's loops in program order.
    pub fn loops(&self) -> &[LoopModel] {
        &self.loops
    }
}

/// The full static model of one benchmark instance: its shared arrays and
/// the phase sequences of the cold-start iteration and of one timed
/// iteration.
#[derive(Debug)]
pub struct KernelModel {
    bench: BenchName,
    shape: String,
    arrays: Vec<ArrayLayout>,
    cold: Vec<PhaseModel>,
    iteration: Vec<PhaseModel>,
}

impl KernelModel {
    /// Assemble a model.
    pub fn new(
        bench: BenchName,
        arrays: Vec<ArrayLayout>,
        cold: Vec<PhaseModel>,
        iteration: Vec<PhaseModel>,
    ) -> Self {
        Self {
            bench,
            shape: String::new(),
            arrays,
            cold,
            iteration,
        }
    }

    /// Tag the model with its shape: a string that, together with the
    /// bench and the array layouts, determines every loop's access stream
    /// (the kernels use the `{:?}` of their config). The proof memo keys on
    /// it; an untagged model is never memoized.
    pub fn with_shape(mut self, shape: String) -> Self {
        self.shape = shape;
        self
    }

    /// Which benchmark this models.
    pub fn bench(&self) -> BenchName {
        self.bench
    }

    /// The shape tag (empty when untagged; see [`KernelModel::with_shape`]).
    pub fn shape(&self) -> &str {
        &self.shape
    }

    /// Layouts of the shared simulated arrays (the `register_hot` set).
    pub fn arrays(&self) -> &[ArrayLayout] {
        &self.arrays
    }

    /// Phases of the discarded cold-start iteration, in program order
    /// (first-touch placement happens here).
    pub fn cold(&self) -> &[PhaseModel] {
        &self.cold
    }

    /// Phases of one timed iteration, in program order.
    pub fn iteration(&self) -> &[PhaseModel] {
        &self.iteration
    }

    /// Flattened `phase/loop` labels of the cold-start phases, in program
    /// order. Every modeled loop — `parallel_for`, `parallel_reduce` or
    /// `serial` — executes as exactly one machine region, so these labels
    /// name the run's regions in order: the profiler's region-to-phase map.
    pub fn cold_loop_names(&self) -> Vec<String> {
        Self::flatten(&self.cold)
    }

    /// Flattened `phase/loop` labels of one timed iteration, in program
    /// order (see [`KernelModel::cold_loop_names`]).
    pub fn iteration_loop_names(&self) -> Vec<String> {
        Self::flatten(&self.iteration)
    }

    fn flatten(phases: &[PhaseModel]) -> Vec<String> {
        phases
            .iter()
            .flat_map(|p| {
                p.loops()
                    .iter()
                    .map(move |l| format!("{}/{}", p.name(), l.name()))
            })
            .collect()
    }

    /// The array containing `vaddr`, if any (attribution for findings).
    pub fn array_of(&self, vaddr: u64) -> Option<&ArrayLayout> {
        self.arrays.iter().find(|a| {
            let (base, len) = a.vrange();
            vaddr >= base && vaddr < base + len
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn touch_loop(kind: LoopKind, n: usize) -> LoopModel {
        let f = |i: usize, emit: &mut dyn FnMut(u64, AccessKind)| {
            emit(i as u64 * 8, AccessKind::Write);
        };
        match kind {
            LoopKind::Parallel => LoopModel::parallel("l", n, Schedule::Static, f),
            LoopKind::Reduction => LoopModel::reduction("l", n, Schedule::Static, f),
            LoopKind::Serial => LoopModel::serial("l", f),
        }
    }

    #[test]
    fn ownership_partitions_iteration_space() {
        for kind in [LoopKind::Parallel, LoopKind::Reduction] {
            let l = touch_loop(kind, 100);
            let owns = l.ownership(16);
            assert_eq!(owns.len(), 16);
            let mut seen = [false; 100];
            for chunks in &owns {
                for &(s, e) in chunks {
                    for i in s..e {
                        assert!(!seen[i], "iteration {i} owned twice ({kind:?})");
                        seen[i] = true;
                    }
                }
            }
            assert!(seen.iter().all(|&s| s), "not all iterations owned");
        }
    }

    #[test]
    fn serial_ownership_is_thread_zero() {
        let l = touch_loop(LoopKind::Serial, 1);
        let owns = l.ownership(8);
        assert_eq!(owns[0], vec![(0, 1)]);
        assert!(owns[1..].iter().all(|c| c.is_empty()));
    }

    #[test]
    fn access_enumeration_reaches_emitter() {
        let l = touch_loop(LoopKind::Parallel, 4);
        let mut got = Vec::new();
        l.for_each_access(2, &mut |va, kind| got.push((va, kind)));
        assert_eq!(got, vec![(16, AccessKind::Write)]);
    }

    #[test]
    fn loop_names_flatten_in_program_order() {
        let phase = |name: &str| {
            PhaseModel::new(
                name,
                vec![
                    touch_loop(LoopKind::Parallel, 4),
                    touch_loop(LoopKind::Serial, 1),
                ],
            )
        };
        let km = KernelModel::new(
            BenchName::Cg,
            vec![],
            vec![phase("init")],
            vec![phase("cg"), phase("tail")],
        );
        assert_eq!(km.cold_loop_names(), vec!["init/l", "init/l"]);
        assert_eq!(
            km.iteration_loop_names(),
            vec!["cg/l", "cg/l", "tail/l", "tail/l"]
        );
    }

    #[test]
    fn array_attribution() {
        use ccnuma::{Machine, MachineConfig, SimArray};
        let mut m = Machine::new(MachineConfig::tiny_test());
        let a = SimArray::new(&mut m, "a", 32, 0.0f64);
        let b = SimArray::new(&mut m, "b", 32, 0.0f64);
        let km = KernelModel::new(BenchName::Bt, vec![a.layout(), b.layout()], vec![], vec![]);
        assert_eq!(km.array_of(a.vaddr_of(3)).unwrap().name(), "a");
        assert_eq!(km.array_of(b.vaddr_of(0)).unwrap().name(), "b");
        assert!(km.array_of(b.vrange().0 + b.vrange().1).is_none());
    }
}
