//! Host-time benchmark of the simulator's sweeps and of the result
//! service, end to end (untraced) and per layer (traced).
//!
//! ```text
//! perfbench --workload steady|migrate|served --seed N --seconds S --trace 0|1
//!           [--out DIR] [--plan]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`). A human summary
//! goes to standard error. `--plan` prints the cells the workload runs
//! for this seed and exits. See `README.md` for the metric glossary.

mod affinity;
mod cells;
mod served;
mod spans;
mod stats;
mod workload;

use cells::{Cell, Counts, Outcome};
use served::Service;
use spans::Recorder;
use stats::{median, tail};
use std::collections::HashMap;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{Misses, Workload};

/// Worker threads of the offline `CellPlan`s (the host has two cores).
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Slices of a run, each with offline batches then service traffic.
const SLICES: usize = 10;
/// A run still going after this long is hung: the watchdog reports it
/// as a failure and ends the process.
const WATCHDOG: Duration = Duration::from_secs(170);

/// Operations attempted and failed so far, for the watchdog's report.
static ATTEMPTED: AtomicU64 = AtomicU64::new(0);
static FAILED: AtomicU64 = AtomicU64::new(0);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    plan: bool,
}

const USAGE: &str = "usage: perfbench --workload steady|migrate|served --seed N --seconds S \
                     --trace 0|1 [--out DIR] [--plan]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: Workload::Steady,
        seed: 0,
        seconds: 0.0,
        trace: false,
        out: PathBuf::from(".bench_build/perfbench-out"),
        plan: false,
    };
    let mut seen_workload = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--plan" {
            a.plan = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" => {
                a.workload = Workload::parse(&value).ok_or_else(bad)?;
                seen_workload = true;
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => a.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !seen_workload {
        return Err("--workload is required".into());
    }
    if a.seconds == 0.0 && !a.plan {
        return Err("--seconds is required".into());
    }
    Ok(a)
}

/// One run's tally: operations, failures with their reasons, and metrics.
#[derive(Default)]
struct Tally {
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Tally {
    fn attempt(&mut self, n: u64) {
        ATTEMPTED.fetch_add(n, Ordering::Relaxed);
    }

    fn fail(&mut self, why: String) {
        FAILED.fetch_add(1, Ordering::Relaxed);
        if self.errors.len() < 50 {
            eprintln!("[perfbench] FAIL {why}");
        }
        self.errors.push(why);
    }

    /// Record a metric; a missing or non-finite value is a failure.
    fn metric(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        match value {
            // `+ 0.0` turns the -0.0 of an empty sum into 0.0.
            Some(v) if v.is_finite() => self.metrics.push((name, v + 0.0, unit)),
            _ => {
                self.fail(format!("metric {name} has no value"));
                self.metrics.push((name, 0.0, unit));
            }
        }
    }

    fn count(&mut self, name: &'static str, n: u64) {
        self.metrics.push((name, n as f64, "count"));
    }
}

/// `num / den`, or 0 when there is nothing to divide.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn result_line(correct: bool, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ATTEMPTED.load(Ordering::Relaxed).max(1),
        FAILED.load(Ordering::Relaxed),
        body.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // The sweep dashboard draws on a terminal; keep stderr plain.
    std::env::set_var("XP_DASH", "0");
    if args.plan {
        print_plan(&args);
        return;
    }
    std::thread::Builder::new()
        .name("perfbench-watchdog".into())
        .spawn(|| {
            std::thread::sleep(WATCHDOG);
            eprintln!("[perfbench] FAIL run still going after {WATCHDOG:?}: hung");
            FAILED.fetch_add(1, Ordering::Relaxed);
            println!("{}", result_line(false, &[]));
            std::process::exit(1);
        })
        .expect("spawning the watchdog");
    match run(&args) {
        Ok(t) => println!("{}", result_line(t.errors.is_empty(), &t.metrics)),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Print the cells this workload and seed give the program.
fn print_plan(args: &Args) {
    let statics = workload::synthesize(args.workload);
    for c in workload::cells(args.workload, &statics) {
        println!("cell {}", c.id());
    }
    match workload::misses(args.workload, args.seed) {
        Misses::Evict(c) => println!("miss {} (evicted)", c.id()),
        Misses::Fresh(f) => {
            for c in f.take(10) {
                println!("miss {}", c.id());
            }
        }
    }
}

/// One offline batch: every cell of the set on the `CellPlan`.
struct Batch {
    wall_s: f64,
    outcomes: Vec<Result<Outcome, String>>,
    cell_walls: Vec<f64>,
}

fn run_batch(cells: &[Cell], rec: Option<&Arc<Recorder>>) -> Batch {
    let mut plan = xp::CellPlan::new();
    for cell in cells {
        let cell = cell.clone();
        let rec = rec.cloned();
        plan.add(cell.id(), move || match &rec {
            Some(rec) => cells::run_traced(&cell, rec),
            None => cells::run_plain(&cell),
        });
    }
    let t0 = Instant::now();
    let outputs = plan.execute();
    let wall_s = t0.elapsed().as_secs_f64();
    Batch {
        wall_s,
        cell_walls: outputs.iter().map(|o| o.wall_secs).collect(),
        outcomes: outputs
            .into_iter()
            .map(|o| o.value.map_err(|p| p.message))
            .collect(),
    }
}

/// The reference of one cell: its cache encoding and its exact counts.
type Reference = (String, Counts);

/// Check a batch against the reference run of each cell (the first
/// untraced batch sets it). Results must match bit for bit, counts
/// exactly, and every cell must verify.
fn check_batch(
    t: &mut Tally,
    what: &str,
    cells: &[Cell],
    b: &Batch,
    refs: &mut HashMap<String, Reference>,
) {
    t.attempt(cells.len() as u64);
    for (cell, outcome) in cells.iter().zip(&b.outcomes) {
        let id = cell.id();
        match outcome {
            Err(e) => t.fail(format!("{what} {id}: cell failed: {e}")),
            Ok(o) if !o.verified => t.fail(format!("{what} {id}: verification failed")),
            Ok(o) => match refs.get(&id) {
                None => {
                    refs.insert(id, (o.json.clone(), o.counts));
                }
                Some((json, _)) if *json != o.json => {
                    t.fail(format!("{what} {id}: result differs from the first run"))
                }
                Some((_, counts)) if *counts != o.counts => t.fail(format!(
                    "{what} {id}: exact counts differ from the first run: {:?} vs {:?}",
                    o.counts, counts
                )),
                Some(_) => {}
            },
        }
    }
}

/// Simulated references per host second of cell compute, in millions.
fn maccess_per_s(b: &Batch) -> f64 {
    let accesses: u64 = b.outcomes.iter().flatten().map(|o| o.counts.accesses).sum();
    accesses as f64 / b.cell_walls.iter().sum::<f64>() / 1e6
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// What the set-up leaves for the measured part.
struct Setup {
    cells: Vec<Cell>,
    service: Service,
    filled: HashMap<String, String>,
    setup_s: Vec<f64>,
    synth_s: Vec<f64>,
}

/// Set up `SETUP_REPS` times from scratch — static-placement synthesis,
/// worker-pool spawn (an `xp` sweep session), server bind and a cache fill
/// through the server — and keep the last.
fn setup(args: &Args) -> Result<Setup, String> {
    xp::jobs::set(WORKERS);
    let mut setup_s = Vec::new();
    let mut synth_s = Vec::new();
    for rep in 0..SETUP_REPS {
        let dir = args.out.join(format!("cache-{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let t0 = Instant::now();
        let statics = workload::synthesize(args.workload);
        synth_s.push(t0.elapsed().as_secs_f64());
        let cells = workload::cells(args.workload, &statics);
        xp::session::begin();
        let service = Service::start(&dir)?;
        let filled = served::fill(&service, &cells)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            service.stop()?;
            xp::session::end();
            continue;
        }
        return Ok(Setup {
            cells,
            service,
            filled,
            setup_s,
            synth_s,
        });
    }
    unreachable!("SETUP_REPS is at least one")
}

fn run(args: &Args) -> Result<Tally, String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let mut t = Tally::default();
    let s = setup(args)?;
    let cells = &s.cells;

    // The first offline batch is the reference every later run of a cell
    // must reproduce. It also warms the process up, so it is not timed.
    let mut refs: HashMap<String, Reference> = HashMap::new();
    let first = run_batch(cells, None);
    check_batch(&mut t, "untraced", cells, &first, &mut refs);
    // Only the timings of the untraced batches are kept: holding their
    // results would grow the peak resident set with the number of batches
    // a run happens to fit.
    let mut walls = Vec::new();
    let mut rates = Vec::new();

    // The served cache JSON of the set-up fill must equal the offline
    // encoding byte for byte.
    t.attempt(cells.len() as u64);
    for cell in cells {
        let id = cell.id();
        match (s.filled.get(&id), refs.get(&id)) {
            (Some(served), Some((offline, _))) if served == offline => {}
            (Some(_), Some(_)) => t.fail(format!(
                "fill {id}: served payload differs from the offline run"
            )),
            _ => t.fail(format!("fill {id}: no payload to compare")),
        }
    }
    // The warm set: every cell with an offline reference to check against
    // (a cell without one has already failed).
    let warm: Vec<(Cell, String)> = cells
        .iter()
        .filter_map(|c| refs.get(&c.id()).map(|(json, _)| (c.clone(), json.clone())))
        .collect();
    if warm.is_empty() {
        return Err("no cell ran offline; nothing to serve".into());
    }

    // The measured time, in slices of offline batches then service
    // traffic, so a slow spell of the host lands on every metric alike.
    let slice = Duration::from_secs_f64(args.seconds / SLICES as f64);
    let offline = slice.mul_f64(args.workload.offline_share());
    let served_rec = args.trace.then(Recorder::new);
    let mut misses = workload::misses(args.workload, args.seed);
    let mut traffic = served::Traffic::default();
    let mut traced = Vec::new();
    let mut recorders = Vec::new();
    // The offline batches run on every CPU; the service traffic on one
    // (see `affinity`).
    let cpus = affinity::current().map_err(|e| format!("CPU affinity: {e}"))?;
    let traffic_cpus = affinity::first_cpu(&cpus);
    for _ in 0..SLICES {
        let t0 = Instant::now();
        loop {
            let b = run_batch(cells, None);
            check_batch(&mut t, "untraced", cells, &b, &mut refs);
            walls.push(b.wall_s);
            rates.push(maccess_per_s(&b));
            if t0.elapsed() >= offline {
                break;
            }
        }
        // A traced run adds one batch per slice with a span around each
        // layer call; the untraced batches beside it are the baseline of
        // the tracing overhead.
        if args.trace {
            let rec = Recorder::new();
            let b = run_batch(cells, Some(&rec));
            check_batch(&mut t, "traced", cells, &b, &mut refs);
            check_spans(&mut t, cells, &b, &rec);
            traced.push(b);
            recorders.push(rec);
        }
        affinity::set_all(&traffic_cpus).map_err(|e| format!("pinning the traffic: {e}"))?;
        served::traffic(
            &s.service,
            &warm,
            &mut misses,
            t0 + slice,
            served_rec.as_ref(),
            &mut traffic,
        );
        affinity::set_all(&cpus).map_err(|e| format!("unpinning after the traffic: {e}"))?;
    }
    t.attempt(traffic.attempted);
    for e in &traffic.errors {
        t.fail(e.clone());
    }

    let probes = served_rec.as_ref().map(|rec| {
        (
            served::probe_connect(&s.service, 10, rec),
            served::probe_lookup(&s.service, &warm, 3, rec),
            served::probe_store(&args.out.join("store-probe"), &warm, rec),
        )
    });
    t.attempt(1);
    let scrape = served::scrape(&s.service)
        .map_err(|e| t.fail(format!("metrics scrape: {e}")))
        .ok();
    t.attempt(1);
    if let Err(e) = s.service.stop() {
        t.fail(format!("server shutdown: {e}"));
    }

    // Fresh cells the server computed must equal offline runs.
    if !traffic.fresh.is_empty() {
        let fresh: Vec<Cell> = traffic.fresh.iter().map(|(c, _)| c.clone()).collect();
        let b = run_batch(&fresh, None);
        t.attempt(fresh.len() as u64);
        for ((cell, served), outcome) in traffic.fresh.iter().zip(&b.outcomes) {
            match outcome {
                Ok(o) if o.json == *served && o.verified => {}
                Ok(_) => t.fail(format!(
                    "miss {}: served payload differs from the offline run",
                    cell.id()
                )),
                Err(e) => t.fail(format!("miss {}: offline run failed: {e}", cell.id())),
            }
        }
    }
    xp::session::end();

    eprintln!(
        "[perfbench] {} seed {}: {} offline batches of {} cells ({} traced); \
         requests: {} new, {} open, {} sweep, {} miss ({} joined)",
        args.workload.name(),
        args.seed,
        walls.len(),
        cells.len(),
        traced.len(),
        traffic.new_ms.len(),
        traffic.open_ms.len(),
        traffic.sweep_s.len(),
        traffic.miss_ms.len(),
        traffic.joined
    );

    if !args.trace {
        // Request tails follow the load other tenants put on the host far
        // more than the medians do, so they are shown here and not reported
        // as metrics. So is the miss latency, one cell's compute plus an
        // fsync'd cache store: it was the least steady request metric.
        for (kind, samples) in [("new", &traffic.new_ms), ("open", &traffic.open_ms)] {
            if let Some((v, q)) = tail(samples) {
                eprintln!(
                    "[perfbench] {kind} request tail: {v:.3} ms at the {:.1}th percentile of {}",
                    q * 100.0,
                    samples.len()
                );
            }
        }
        if let Some(v) = median(&traffic.miss_ms) {
            eprintln!(
                "[perfbench] miss request median: {v:.3} ms of {}",
                traffic.miss_ms.len()
            );
        }
        t.metric("setup_s", median(&s.setup_s), "s");
        t.metric("wall_s", median(&walls), "s");
        t.metric("sim_maccess_per_s", median(&rates), "Maccess/s");
        t.metric("peak_rss_mb", peak_rss_mb(), "MB");
        t.metric("req_new_p50_ms", median(&traffic.new_ms), "ms");
        t.metric("req_open_p50_ms", traffic.open_p50_ms(), "ms");
        t.metric("sweep_warm_s", median(&traffic.sweep_s), "s");
        return Ok(t);
    }

    // Per-layer metrics from the traced batches and the traced traffic.
    let mut total = Counts::default();
    for o in traced[0].outcomes.iter().flatten() {
        total.add(&o.counts);
    }
    let per_batch = |name: &str| -> Option<f64> {
        Some(recorders.iter().map(|r| r.total_secs(name)).sum::<f64>() / recorders.len() as f64)
    };
    let traced_walls: Vec<f64> = traced.iter().map(|b| b.wall_s).collect();
    let cell_walls: Vec<f64> = traced
        .iter()
        .flat_map(|b| b.cell_walls.iter().copied())
        .collect();
    let busy: Vec<f64> = traced
        .iter()
        .map(|b| b.cell_walls.iter().sum::<f64>() / (WORKERS as f64 * b.wall_s))
        .collect();
    let max_cell: Vec<f64> = traced
        .iter()
        .map(|b| b.cell_walls.iter().copied().fold(0.0, f64::max))
        .collect();
    let fp_all = total.fastpath_replays + total.fastpath_records + total.fastpath_misses;
    t.count("ccnuma.accesses", total.accesses);
    let remote = ratio(total.mem_remote, total.mem_local + total.mem_remote);
    t.metric("ccnuma.remote_frac", Some(remote), "frac");
    t.count("ccnuma.page_migrations", total.page_migrations);
    t.count("ccnuma.fastpath.replays", total.fastpath_replays);
    t.count("ccnuma.fastpath.misses", total.fastpath_misses);
    let replay_ratio = ratio(total.fastpath_replays, fp_all);
    t.metric("ccnuma.fastpath.replay_ratio", Some(replay_ratio), "frac");
    t.count("omp.regions", total.regions);
    t.metric("nas.alloc_s", per_batch("nas.alloc"), "s");
    t.metric("nas.cold_start_s", per_batch("nas.cold_start"), "s");
    t.metric("nas.iterate_s", per_batch("nas.iterate"), "s");
    t.metric("nas.verify_s", per_batch("nas.verify"), "s");
    t.metric("nas.proof_s", per_batch("nas.proof"), "s");
    t.metric(
        "vmm.install_placement_s",
        per_batch("vmm.install_placement"),
        "s",
    );
    t.count("vmm.kernel_migrations", total.kernel_migrations);
    t.metric(
        "upmlib.migrate_memory_s",
        per_batch("upmlib.migrate_memory"),
        "s",
    );
    t.metric("upmlib.record_s", per_batch("upmlib.record"), "s");
    t.metric("upmlib.replay_s", per_batch("upmlib.replay"), "s");
    t.metric("upmlib.undo_s", per_batch("upmlib.undo"), "s");
    t.count("upmlib.pages_moved", total.upm_pages);
    t.metric("lint.synth_s", median(&s.synth_s), "s");
    t.metric("exec.busy_frac", median(&busy), "frac");
    t.metric("exec.cell_p50_s", median(&cell_walls), "s");
    t.metric("exec.cell_max_s", median(&max_cell), "s");
    let (connect, lookup, store) = probes.expect("a traced run probes the service");
    let mut probe = |name: &'static str, r: Result<Vec<f64>, String>| {
        t.attempt(1);
        match r {
            Ok(v) => t.metric(name, median(&v), "ms"),
            Err(e) => {
                t.fail(format!("{name} probe: {e}"));
                t.metric(name, None, "ms");
            }
        }
    };
    probe("svc.connect_ms", connect);
    probe("svc.cache.lookup_ms", lookup);
    probe("svc.cache.store_ms", store);
    t.metric("svc.compute_ms", median(&traffic.compute_ms), "ms");
    t.count("svc.flight.joined", traffic.joined);
    let hit_ratio = scrape
        .as_ref()
        .map(|m| m.hits / (m.hits + m.computed + m.joined).max(1.0));
    t.metric("svc.cache.hit_ratio", hit_ratio, "frac");
    t.metric(
        "svc.server.run_mean_ms",
        scrape.as_ref().map(|m| m.run_mean_ms),
        "ms",
    );
    let overhead = match (median(&traced_walls), median(&walls)) {
        (Some(tr), Some(un)) => Some((tr - un) / un),
        _ => None,
    };
    t.metric("trace.overhead_frac", overhead, "frac");

    let path = args
        .out
        .join(format!("spans-{}.jsonl", args.workload.name()));
    let written = std::fs::File::create(&path).and_then(|f| {
        let mut out = std::io::BufWriter::new(f);
        for rec in recorders.iter().chain(served_rec.as_ref()) {
            rec.write_jsonl(&mut out)?;
        }
        out.flush()
    });
    t.attempt(1);
    match written {
        Ok(()) => eprintln!("[perfbench] spans written to {}", path.display()),
        Err(e) => t.fail(format!("writing {}: {e}", path.display())),
    }
    Ok(t)
}

/// A cell's top-level span must fit inside the wall time the pool
/// measured around the cell, and its child spans inside it.
fn check_spans(t: &mut Tally, cells: &[Cell], b: &Batch, rec: &Recorder) {
    let spans = rec.spans();
    t.attempt(cells.len() as u64);
    for (cell, &wall) in cells.iter().zip(&b.cell_walls) {
        let id = cell.id();
        let Some(root) = spans.iter().find(|s| s.name == "cell" && *s.group == *id) else {
            t.fail(format!("spans {id}: no cell span"));
            continue;
        };
        let children: f64 = spans
            .iter()
            .filter(|s| s.parent == Some(root.id))
            .map(spans::Span::secs)
            .sum();
        if root.secs() > wall || children > root.secs() {
            t.fail(format!(
                "spans {id}: cell span {:.6}s, its children {:.6}s, pool wall {:.6}s",
                root.secs(),
                children,
                wall
            ));
        }
    }
}
