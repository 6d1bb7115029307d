//! Differential equivalence suite for the ccnuma phase fast path.
//!
//! The fast path (`ccnuma::fastpath`) replays whole parallel regions from
//! memoized effect sets instead of walking the cache/coherence/counter
//! machinery line by line. Its contract is *bit-identity*: a run with the
//! fast path on must produce exactly the same simulated times, statistics,
//! verification values, engine behaviour and reports as the exact path.
//! These tests enforce that contract end to end, on every benchmark and
//! every engine protocol.
//!
//! The fast path is on by default and disabled with `DDNOMP_FASTPATH=0`;
//! tests here force it per-run via `BenchRun::set_fastpath` /
//! `run_one_fastpath` so they stay independent of the ambient environment.

use std::sync::Arc;

use nas::{BenchName, BenchRun, EngineMode, RunConfig, Scale};
use upmlib::UpmOptions;
use vmm::{KernelMigrationConfig, PlacementScheme};
use xp::run_one_fastpath;

/// Byte-exact serialized form of everything a run measures (simulated
/// times, per-iteration times, verification, UPMlib stats, kernel
/// migrations, remote fraction, record–replay overhead).
fn run_bytes(bench: BenchName, cfg: &RunConfig, fastpath: bool) -> String {
    run_one_fastpath(bench, Scale::Tiny, cfg, fastpath)
        .to_cache_json()
        .to_string()
}

fn assert_differential(bench: BenchName, cfg: &RunConfig, what: &str) {
    let slow = run_bytes(bench, cfg, false);
    let fast = run_bytes(bench, cfg, true);
    assert_eq!(
        slow,
        fast,
        "{} {what}: fast path diverged from the exact path",
        bench.label()
    );
}

#[test]
fn all_benches_bit_identical_plain() {
    for bench in BenchName::all() {
        assert_differential(bench, &RunConfig::paper_default(), "plain");
    }
}

#[test]
fn all_benches_bit_identical_under_irix_migration() {
    // The kernel engine reads the same reference counters the fast path
    // updates in bulk; a single miscredited counter changes its migration
    // decisions and shows up here.
    for bench in BenchName::all() {
        let cfg = RunConfig {
            placement: PlacementScheme::RoundRobin,
            engine: EngineMode::IrixMig(KernelMigrationConfig::default()),
            ..RunConfig::paper_default()
        };
        assert_differential(bench, &cfg, "IRIXmig");
    }
}

#[test]
fn all_benches_bit_identical_under_upmlib() {
    // UPMlib's distribution passes consume counter snapshots between
    // iterations and migrate pages — which also invalidates fast-path
    // memos (frame fingerprints change), exercising re-recording.
    for bench in BenchName::all() {
        let cfg = RunConfig {
            placement: PlacementScheme::WorstCase { node: 0 },
            engine: EngineMode::Upmlib(UpmOptions::default()),
            ..RunConfig::paper_default()
        };
        assert_differential(bench, &cfg, "upmlib");
    }
}

#[test]
fn recrep_protocol_bit_identical() {
    // Record–replay migrates pages at phase boundaries *inside* an
    // iteration: the fast path must fall back / re-record around them.
    // (BT and SP are the phase-change benchmarks the protocol targets.)
    for bench in [BenchName::Bt, BenchName::Sp] {
        let cfg = RunConfig {
            placement: PlacementScheme::WorstCase { node: 0 },
            engine: EngineMode::RecRep(UpmOptions::default()),
            ..RunConfig::paper_default()
        };
        assert_differential(bench, &cfg, "recrep");
    }
}

#[test]
fn upm_stats_bit_identical() {
    let cfg = RunConfig {
        placement: PlacementScheme::WorstCase { node: 0 },
        engine: EngineMode::Upmlib(UpmOptions::default()),
        ..RunConfig::paper_default()
    };
    let slow = run_one_fastpath(BenchName::Cg, Scale::Tiny, &cfg, false);
    let fast = run_one_fastpath(BenchName::Cg, Scale::Tiny, &cfg, true);
    assert_eq!(slow.upm, fast.upm, "UpmStats diverged");
    assert_eq!(slow.total_secs.to_bits(), fast.total_secs.to_bits());
    for (a, b) in slow.per_iter_secs.iter().zip(&fast.per_iter_secs) {
        assert_eq!(a.to_bits(), b.to_bits(), "per-iteration time diverged");
    }
}

#[test]
fn fast_path_actually_engages() {
    // The equivalence tests above are vacuous if the fast path never
    // fires; pin that CG and MG replay most of their timed regions.
    for bench in [BenchName::Cg, BenchName::Mg] {
        let cfg = RunConfig::paper_default();
        let mut run = match bench {
            BenchName::Cg => BenchRun::new(|rt| nas::cg::Cg::new(rt, Scale::Tiny), &cfg),
            _ => BenchRun::new(|rt| nas::mg::Mg::new(rt, Scale::Tiny), &cfg),
        };
        run.set_fastpath(true);
        while !run.is_done() {
            run.step();
        }
        let stats = run
            .fastpath_stats()
            .expect("fast path installed for a modeled benchmark");
        assert!(
            stats.records > 0,
            "{}: no region was ever recorded: {stats:?}",
            bench.label()
        );
        assert!(
            stats.replays > stats.records,
            "{}: steady-state iterations should replay far more than they \
             record: {stats:?}",
            bench.label()
        );
    }
}

#[test]
fn forced_off_never_installs() {
    let cfg = RunConfig::paper_default();
    let mut run = BenchRun::new(|rt| nas::cg::Cg::new(rt, Scale::Tiny), &cfg);
    run.set_fastpath(false);
    assert!(!run.fastpath_enabled());
    while !run.is_done() {
        run.step();
    }
    assert!(run.fastpath_stats().is_none());
}

#[test]
fn traced_runs_force_the_exact_path() {
    // The fast path replays a region without emitting per-access trace
    // events, so traced runs must silently stay exact.
    let cfg = RunConfig {
        trace: true,
        ..RunConfig::paper_default()
    };
    let mut run = BenchRun::new(|rt| nas::cg::Cg::new(rt, Scale::Tiny), &cfg);
    run.set_fastpath(true); // explicitly requested, still refused
    assert!(!run.fastpath_enabled());
    while !run.is_done() {
        run.step();
    }
    assert!(run.fastpath_stats().is_none());
}

/// Environment-variable semantics and whole-report byte-identity. All
/// `DDNOMP_FASTPATH` mutation lives in this one test: other tests in this
/// binary force the mode per-run, so the ambient value never matters to
/// them and there is no cross-test race.
#[test]
fn env_var_semantics_and_golden_report_identity() {
    let cfg = RunConfig::paper_default();

    std::env::set_var("DDNOMP_FASTPATH", "0");
    let run = BenchRun::new(|rt| nas::cg::Cg::new(rt, Scale::Tiny), &cfg);
    assert!(!run.fastpath_enabled(), "DDNOMP_FASTPATH=0 must disable");
    // A full figure-1 grid on the exact path…
    let slow_report = xp::fig1::run(Scale::Tiny).to_json().to_string_pretty();

    std::env::set_var("DDNOMP_FASTPATH", "1");
    let run = BenchRun::new(|rt| nas::cg::Cg::new(rt, Scale::Tiny), &cfg);
    assert!(run.fastpath_enabled(), "DDNOMP_FASTPATH=1 must enable");
    // …must match the same grid on the fast path, byte for byte.
    let fast_report = xp::fig1::run(Scale::Tiny).to_json().to_string_pretty();

    std::env::remove_var("DDNOMP_FASTPATH");
    let run = BenchRun::new(|rt| nas::cg::Cg::new(rt, Scale::Tiny), &cfg);
    assert!(run.fastpath_enabled(), "fast path defaults on");

    assert_eq!(slow_report, fast_report, "fig1 tiny report diverged");

    // The committed golden fixture was recorded with the default (fast)
    // path; the slow-path report matching it closes the loop with the
    // golden_reports suite.
    let fixture = std::fs::read_to_string(
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/fig1_tiny.json"),
    )
    .expect("golden fig1 fixture");
    assert_eq!(slow_report + "\n", fixture, "slow path drifted from golden");
}

#[test]
fn lint_findings_identical_either_way() {
    // Lint consumes the same KernelModel the proofs are derived from but
    // never executes the machine; its findings must be untouched by the
    // fast path. (Static by construction — pinned so a future lint that
    // *does* run the machine keeps the invariant.)
    let deny = std::collections::BTreeSet::new();
    let allow = lint::Allowlist::empty();
    let a = xp::lint::run(&BenchName::all(), Scale::Tiny, &deny, &allow)
        .report
        .to_json()
        .to_string();
    let b = xp::lint::run(&BenchName::all(), Scale::Tiny, &deny, &allow)
        .report
        .to_json()
        .to_string();
    assert_eq!(a, b);
}

/// Allocate `bench` at `scale` on a fresh 16-CPU runtime — after `pad`
/// extra elements of an unrelated array, which shifts every base — and
/// return its access model.
fn model_of(bench: BenchName, scale: Scale, pad: usize) -> nas::KernelModel {
    use ccnuma::{Machine, MachineConfig, SimArray};
    use nas::NasBenchmark;
    let mut rt = omp::Runtime::new(Machine::new(MachineConfig::origin2000_16p_scaled()));
    if pad > 0 {
        let _ = SimArray::new(rt.machine_mut(), "pad", pad, 0.0f64);
    }
    match bench {
        BenchName::Bt => nas::bt::Bt::new(&mut rt, scale).access_model(),
        BenchName::Sp => nas::sp::Sp::new(&mut rt, scale).access_model(),
        BenchName::Cg => nas::cg::Cg::new(&mut rt, scale).access_model(),
        BenchName::Mg => nas::mg::Mg::new(&mut rt, scale).access_model(),
        BenchName::Ft => nas::ft::Ft::new(&mut rt, scale).access_model(),
    }
    .expect("every bench ships an access model")
}

const ALL_BENCHES: [BenchName; 5] = [
    BenchName::Bt,
    BenchName::Sp,
    BenchName::Cg,
    BenchName::Mg,
    BenchName::Ft,
];

/// For every kernel at `scale` and teams {1, 4, 16}: the process-wide memo
/// hands out exactly what a fresh `derive_proofs` computes, and a second
/// lookup shares the entry instead of copying it.
fn memo_matches_fresh_derivation(scale: Scale) {
    for bench in ALL_BENCHES {
        let model = model_of(bench, scale, 0);
        for threads in [1, 4, 16] {
            let what = format!("{} {} x{threads}", bench.label(), scale.label());
            let memo = nas::kernel_proofs(&model, threads);
            let cold = nas::derive_proofs(model.cold(), threads);
            let iteration = nas::derive_proofs(model.iteration(), threads);
            assert_eq!(&memo.cold[..], &cold[..], "{what}: cold proofs");
            assert_eq!(
                &memo.iteration[..],
                &iteration[..],
                "{what}: iteration proofs"
            );
            let again = nas::kernel_proofs(&model, threads);
            assert!(Arc::ptr_eq(&memo.cold, &again.cold), "{what}: cold shared");
            assert!(
                Arc::ptr_eq(&memo.iteration, &again.iteration),
                "{what}: iteration shared"
            );
        }
    }
}

#[test]
fn memoized_proofs_equal_fresh_derivation_tiny() {
    memo_matches_fresh_derivation(Scale::Tiny);
}

/// The `small` models take about four minutes to derive twice over in an
/// unoptimized build, so this case runs in release builds only (the CI
/// `fastpath` job runs this file with `--release`).
#[test]
#[cfg_attr(debug_assertions, ignore = "release tier: slow in debug builds")]
fn memoized_proofs_equal_fresh_derivation_small() {
    memo_matches_fresh_derivation(Scale::Small);
}

#[test]
fn shifted_allocation_gets_its_own_memo_entry() {
    let memo = nas::ProofMemo::new();
    let base = model_of(BenchName::Cg, Scale::Tiny, 0);
    // 1 MB of padding: more than a page, so every array base moves.
    let shifted = model_of(BenchName::Cg, Scale::Tiny, 1 << 17);
    assert_eq!(base.shape(), shifted.shape(), "same kernel shape");
    assert_ne!(base.arrays(), shifted.arrays(), "bases moved");
    let a = memo.get_or_derive(&base, 16);
    let b = memo.get_or_derive(&shifted, 16);
    assert_eq!(memo.len(), 2, "one entry per layout");
    assert!(!Arc::ptr_eq(&a.iteration, &b.iteration));
    assert_ne!(&a.iteration[..], &b.iteration[..], "proofs name the lines");
    assert_eq!(
        &b.iteration[..],
        &nas::derive_proofs(shifted.iteration(), 16)[..],
        "the shifted entry is the shifted model's own proofs"
    );
    assert_eq!(&b.cold[..], &nas::derive_proofs(shifted.cold(), 16)[..]);
}

#[test]
fn racing_lookups_on_a_cold_key_agree() {
    let memo = Arc::new(nas::ProofMemo::new());
    let gate = Arc::new(std::sync::Barrier::new(2));
    let racers: Vec<_> = (0..2)
        .map(|_| {
            let (memo, gate) = (memo.clone(), gate.clone());
            std::thread::spawn(move || {
                let model = model_of(BenchName::Mg, Scale::Tiny, 0);
                gate.wait();
                let p = memo.get_or_derive(&model, 16);
                (p.cold.to_vec(), p.iteration.to_vec())
            })
        })
        .collect();
    let got: Vec<_> = racers.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(got[0], got[1], "both racers see the same proofs");
    assert_eq!(memo.len(), 1, "the losing insert is dropped");
    let model = model_of(BenchName::Mg, Scale::Tiny, 0);
    assert_eq!(got[0].1, nas::derive_proofs(model.iteration(), 16));
}
