//! [`PhaseProof`] derivation: the `nas`→`ccnuma` contract for the phase
//! fast path.
//!
//! A [`crate::model::KernelModel`] enumerates, address-exactly, every element
//! access of every modeled loop. This module folds those access streams over
//! the runtime's ownership partition into per-line reader/writer thread sets
//! and emits a [`PhaseProof`] — the complete line footprint plus per-line
//! write counts — for every loop whose pattern is safe to memoize:
//!
//! * **statically scheduled** — dynamic/guided dispatch depends on simulated
//!   timing, which a suppressed replay would starve;
//! * **no cross-thread write sharing** — each line has at most one writing
//!   thread, and a written line is accessed by its writer only (shared
//!   *read-only* lines are fine). The simulator executes threads
//!   sequentially, so a cross-thread write/read interleaving would leave
//!   some CPU's cached copy stale at region exit — reconstructible in
//!   principle but outside the contract the replay engine validates.
//!
//! Ineligible loops get `None` and simply run on the exact line-by-line
//! path. The proof is re-validated at runtime: recording diffs the real
//! region against the claim and discards (loudly, in debug builds) on any
//! disagreement — see `ccnuma::fastpath`.
//!
//! A proof depends only on the kernel's access model and the team size,
//! never on placement or engine, so [`kernel_proofs`] derives each kernel
//! shape's proofs once per process and shares them (see [`ProofMemo`]).

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use ccnuma::fastpath::PhaseProof;
use ccnuma::{AccessKind, ArrayLayout, LINE_SHIFT};

use crate::common::BenchName;
use crate::model::{KernelModel, LoopKind, LoopModel, PhaseModel};

/// Derive the proof for one loop, or `None` if it is ineligible.
///
/// `label` must be the flattened `"phase/loop"` name (memo pools are shared
/// per label). `threads` is the team size of the runtime that will execute
/// the loop; serial regions run as a one-thread team on the master CPU, so
/// their proofs are derived for team size 1.
pub fn derive_loop_proof(label: &str, l: &LoopModel, threads: usize) -> Option<PhaseProof> {
    if l.schedule().is_dynamic() {
        return None;
    }
    let team = if l.kind() == LoopKind::Serial {
        1
    } else {
        threads
    };
    if team > 64 {
        return None; // reader/writer sets are u64 bitmasks
    }
    // line -> (reader tid mask, writer tid mask, total writes)
    let mut lines: BTreeMap<u64, (u64, u64, u32)> = BTreeMap::new();
    for (tid, chunks) in l.ownership(team).iter().enumerate() {
        let bit = 1u64 << tid;
        for &(start, end) in chunks {
            for i in start..end {
                l.for_each_access(i, &mut |vaddr, kind| {
                    let e = lines.entry(vaddr >> LINE_SHIFT).or_insert((0, 0, 0));
                    match kind {
                        AccessKind::Read => e.0 |= bit,
                        AccessKind::Write => {
                            e.1 |= bit;
                            e.2 += 1;
                        }
                    }
                });
            }
        }
    }
    for &(readers, writers, _) in lines.values() {
        if writers.count_ones() > 1 || (writers != 0 && readers & !writers != 0) {
            return None;
        }
    }
    let line_writes = lines
        .iter()
        .filter(|(_, v)| v.2 > 0)
        // Eligibility guarantees exactly one writer bit; its index is the
        // writing thread, which partial replays use to attribute directory
        // bumps per thread.
        .map(|(&line, v)| (line, v.2, v.1.trailing_zeros()))
        .collect();
    Some(PhaseProof::new(
        label.to_string(),
        team,
        lines.into_keys().collect(),
        line_writes,
    ))
}

/// Derive proofs for a phase sequence, flattened to one entry per region in
/// program order — the shape `omp::Runtime::install_fastpath` expects.
pub fn derive_proofs(phases: &[PhaseModel], threads: usize) -> Vec<Option<PhaseProof>> {
    phases
        .iter()
        .flat_map(|p| {
            p.loops().iter().map(move |l| {
                let label = format!("{}/{}", p.name(), l.name());
                derive_loop_proof(&label, l, threads)
            })
        })
        .collect()
}

/// A kernel's cold-start and per-iteration proof sequences, shared by
/// every run of the same kernel shape (cloning copies two pointers).
#[derive(Debug, Clone)]
pub struct KernelProofs {
    /// Proofs of the cold-start regions, in program order.
    pub cold: Arc<[Option<PhaseProof>]>,
    /// Proofs of one timed iteration's regions, in program order.
    pub iteration: Arc<[Option<PhaseProof>]>,
}

/// Entries the process-wide memo keeps before evicting the oldest: far
/// above the 5 kernels x 3 scales x a few team sizes a sweep or a resident
/// service sees, yet bounded.
pub const PROOF_MEMO_CAPACITY: usize = 64;

/// What a kernel's proofs are a function of: the model's identity (bench
/// and shape tag), where its arrays sit, and the team size. The layouts
/// matter because proofs name absolute line addresses — the same kernel
/// allocated after an extra array has shifted bases and different proofs.
#[derive(Debug, PartialEq)]
struct MemoKey {
    bench: BenchName,
    shape: String,
    arrays: Vec<ArrayLayout>,
    threads: usize,
}

/// A bounded, insertion-ordered proof memo. [`kernel_proofs`] uses one
/// process-wide instance; tests build their own.
#[derive(Debug, Default)]
pub struct ProofMemo {
    entries: Mutex<VecDeque<(MemoKey, KernelProofs)>>,
}

impl ProofMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The proofs of `model` at team size `threads`, derived on the first
    /// request for its key and shared afterwards. Derivation runs outside
    /// the lock; when two callers race on a cold key the first insert wins
    /// (both derived the same proofs). Models without a shape tag cannot
    /// be keyed safely and are derived afresh every time.
    pub fn get_or_derive(&self, model: &KernelModel, threads: usize) -> KernelProofs {
        if model.shape().is_empty() {
            return Self::derive(model, threads);
        }
        let key = MemoKey {
            bench: model.bench(),
            shape: model.shape().to_string(),
            arrays: model.arrays().to_vec(),
            threads,
        };
        if let Some(hit) = self.find(&key) {
            return hit;
        }
        let fresh = Self::derive(model, threads);
        let mut entries = self.lock();
        if let Some((_, first)) = entries.iter().find(|(k, _)| *k == key) {
            return first.clone();
        }
        if entries.len() >= PROOF_MEMO_CAPACITY {
            entries.pop_front();
        }
        entries.push_back((key, fresh.clone()));
        fresh
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn find(&self, key: &MemoKey) -> Option<KernelProofs> {
        self.lock()
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, p)| p.clone())
    }

    fn derive(model: &KernelModel, threads: usize) -> KernelProofs {
        let _hp = hostprof::span("nas.proof.derive");
        KernelProofs {
            cold: derive_proofs(model.cold(), threads).into(),
            iteration: derive_proofs(model.iteration(), threads).into(),
        }
    }

    /// A panic elsewhere while the lock was held cannot leave an entry half
    /// written (pushes and pops are single calls), so poison is ignored.
    fn lock(&self) -> std::sync::MutexGuard<'_, VecDeque<(MemoKey, KernelProofs)>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// [`ProofMemo::get_or_derive`] on the process-wide memo: what
/// `BenchRun` arms the fast path with.
pub fn kernel_proofs(model: &KernelModel, threads: usize) -> KernelProofs {
    static MEMO: OnceLock<ProofMemo> = OnceLock::new();
    MEMO.get_or_init(ProofMemo::new)
        .get_or_derive(model, threads)
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp::Schedule;

    const LINE: u64 = 1 << LINE_SHIFT;

    #[test]
    fn disjoint_writes_are_eligible() {
        // Thread-owned stripes: iteration i writes line i, reads line i.
        let l = LoopModel::parallel("stripe", 64, Schedule::Static, |i, emit| {
            emit(i as u64 * LINE, AccessKind::Read);
            emit(i as u64 * LINE, AccessKind::Write);
        });
        let p = derive_loop_proof("ph/stripe", &l, 8).expect("eligible");
        assert_eq!(p.threads, 8);
        assert_eq!(p.lines.len(), 64);
        assert_eq!(p.line_writes.len(), 64);
        assert!(p.line_writes.iter().all(|&(_, c, _)| c == 1));
        // Static chunks of 64 iterations over 8 threads: 8 lines per thread.
        for t in 0..8u32 {
            assert_eq!(
                p.line_writes.iter().filter(|&&(_, _, w)| w == t).count(),
                8,
                "thread {t} writes its own stripe"
            );
        }
        assert_eq!(p.pages, vec![0]); // 64 lines < 128 lines/page
    }

    #[test]
    fn shared_read_only_is_eligible() {
        let l = LoopModel::parallel("bcast", 64, Schedule::Static, |i, emit| {
            emit(0, AccessKind::Read); // everyone reads line 0
            emit((1 + i as u64) * LINE, AccessKind::Write);
        });
        let p = derive_loop_proof("ph/bcast", &l, 8).expect("eligible");
        assert_eq!(
            p.line_writes.iter().map(|&(_, c, _)| c as u64).sum::<u64>(),
            64
        );
    }

    #[test]
    fn cross_thread_write_sharing_is_rejected() {
        // Everyone writes line 0.
        let l = LoopModel::parallel("clash", 64, Schedule::Static, |_, emit| {
            emit(0, AccessKind::Write);
        });
        assert!(derive_loop_proof("ph/clash", &l, 8).is_none());
        // One writer, other threads read the same line.
        let l = LoopModel::parallel("wr", 64, Schedule::Static, |i, emit| {
            if i == 0 {
                emit(0, AccessKind::Write);
            } else {
                emit(0, AccessKind::Read);
            }
        });
        assert!(derive_loop_proof("ph/wr", &l, 8).is_none());
        // But single-threaded, the same pattern is trivially fine.
        assert!(derive_loop_proof("ph/wr", &l, 1).is_some());
    }

    #[test]
    fn dynamic_schedules_are_rejected() {
        let l = LoopModel::parallel("dyn", 64, Schedule::Dynamic(4), |i, emit| {
            emit(i as u64 * LINE, AccessKind::Write);
        });
        assert!(derive_loop_proof("ph/dyn", &l, 8).is_none());
    }

    #[test]
    fn serial_loops_prove_for_team_of_one() {
        let l = LoopModel::serial("s", |_, emit| {
            emit(0, AccessKind::Write);
            emit(0, AccessKind::Write);
            emit(LINE, AccessKind::Read);
        });
        let p = derive_loop_proof("ph/s", &l, 16).expect("eligible");
        assert_eq!(p.threads, 1, "serial regions run as a one-thread team");
        assert_eq!(p.line_writes, vec![(0, 2, 0)]);
    }

    #[test]
    fn derive_proofs_flattens_in_program_order() {
        let mk = || {
            PhaseModel::new(
                "ph",
                vec![
                    LoopModel::parallel("a", 8, Schedule::Static, |i, emit| {
                        emit(i as u64 * LINE, AccessKind::Write)
                    }),
                    LoopModel::parallel("b", 8, Schedule::Dynamic(1), |i, emit| {
                        emit(i as u64 * LINE, AccessKind::Write)
                    }),
                ],
            )
        };
        let proofs = derive_proofs(&[mk()], 4);
        assert_eq!(proofs.len(), 2);
        assert_eq!(proofs[0].as_ref().unwrap().label, "ph/a");
        assert!(proofs[1].is_none(), "dynamic loop has no proof");
    }

    fn stripe_model(shape: &str) -> KernelModel {
        let phase = PhaseModel::new(
            "ph",
            vec![LoopModel::parallel("a", 8, Schedule::Static, |i, emit| {
                emit(i as u64 * LINE, AccessKind::Write)
            })],
        );
        KernelModel::new(BenchName::Cg, vec![], vec![], vec![phase]).with_shape(shape.into())
    }

    #[test]
    fn memo_shares_hits_and_evicts_oldest_past_capacity() {
        let memo = ProofMemo::new();
        let first = memo.get_or_derive(&stripe_model("s0"), 4);
        let hit = memo.get_or_derive(&stripe_model("s0"), 4);
        assert!(Arc::ptr_eq(&first.iteration, &hit.iteration));
        // A different team size is a different key.
        let other = memo.get_or_derive(&stripe_model("s0"), 2);
        assert!(!Arc::ptr_eq(&first.iteration, &other.iteration));
        for i in 1..PROOF_MEMO_CAPACITY {
            memo.get_or_derive(&stripe_model(&format!("s{i}")), 4);
        }
        assert_eq!(memo.len(), PROOF_MEMO_CAPACITY, "bounded");
        // ("s0", 4) was the oldest entry and is gone; ("s0", 2) survived.
        let kept = memo.get_or_derive(&stripe_model("s0"), 2);
        assert!(Arc::ptr_eq(&other.iteration, &kept.iteration));
        let again = memo.get_or_derive(&stripe_model("s0"), 4);
        assert!(!Arc::ptr_eq(&first.iteration, &again.iteration));
        assert_eq!(first.iteration[..], again.iteration[..]);
    }

    #[test]
    fn untagged_models_bypass_the_memo() {
        let memo = ProofMemo::new();
        let p = memo.get_or_derive(&stripe_model(""), 4);
        assert!(memo.is_empty());
        assert_eq!(p.iteration.len(), 1);
        assert!(p.cold.is_empty());
    }
}
