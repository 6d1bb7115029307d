//! The service side of every workload: an in-process `svc::Server` on
//! loopback and one closed-loop client sending four kinds of request.
//!
//! 1. `new` — a single warm cell through `svc::Client`, which opens a new
//!    connection per call as `xp client` does. Requests come in bursts, so
//!    all but the first of a burst meet the server's 20 ms accept poll at
//!    the same phase.
//! 2. `open` — the same frames on one held raw connection.
//! 3. `sweep` — the whole warm set as one batch on the held connection.
//! 4. `miss` — a cell the cache does not hold, sent on the held connection
//!    and at once on a second held connection, so one request computes it
//!    and the other joins it in flight.
//!
//! The single-cell requests walk the warm set in order across rounds and
//! slices, so every warm cell is asked for equally often.
//!
//! Every payload is compared with the offline result of the same cell in
//! the service's cache encoding.

use crate::cells::Cell;
use crate::spans::{maybe, Recorder};
use crate::stats::median;
use crate::workload::Misses;
use obs::json::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use svc::proto::CellSource;
use svc::{CellSpec, TraceCtx};

/// Single-cell requests per burst of new connections.
const NEW_BURST: usize = 4;
/// Held-connection single-cell requests per round.
const OPEN_PER_ROUND: usize = 24;
/// Warm whole-set batches per round.
const SWEEPS_PER_ROUND: usize = 2;
/// A reply slower than this is an error, so a stuck server cannot stall
/// the client forever.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// An in-process server with one pool worker and its own cache directory.
pub struct Service {
    server: Arc<svc::Server>,
    thread: JoinHandle<std::io::Result<()>>,
    pub addr: String,
    pub cache_dir: PathBuf,
}

impl Service {
    pub fn start(cache_dir: &Path) -> Result<Service, String> {
        let server = svc::Server::bind(
            "127.0.0.1:0",
            1,
            svc::Cache::new(cache_dir),
            xp::spec::compute(),
            xp::spec::CODE_VERSION,
        )
        .map_err(|e| format!("binding the server: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("server address: {e}"))?
            .to_string();
        let server = Arc::new(server);
        let serving = Arc::clone(&server);
        let thread = std::thread::Builder::new()
            .name("perfbench-server".into())
            .spawn(move || serving.run())
            .map_err(|e| format!("spawning the server thread: {e}"))?;
        Ok(Service {
            server,
            thread,
            addr,
            cache_dir: cache_dir.to_path_buf(),
        })
    }

    pub fn client(&self) -> svc::Client {
        svc::Client::new(&self.addr, xp::spec::CODE_VERSION)
    }

    /// Stop the accept loop and wait for the server to join its
    /// connection threads. Close every held connection first: the server
    /// has no read timeout and joins each connection thread.
    pub fn stop(self) -> Result<(), String> {
        self.server.stop();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server accept loop failed: {e}")),
            Err(_) => Err("server thread panicked".into()),
        }
    }

    /// The on-disk entry of `spec` (the cache's content-addressed layout).
    fn entry_path(&self, spec: &CellSpec) -> PathBuf {
        let key = spec.key();
        self.cache_dir.join(&key[..2]).join(format!("{key}.json"))
    }
}

/// One cell as the server returned it.
pub struct Served {
    pub payload: Result<String, String>,
    pub source: String,
    pub wall_secs: f64,
}

/// A held raw protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

impl Conn {
    /// Connect and read the server's hello.
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(READ_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut conn = Conn { reader, stream };
        let hello = conn.event()?;
        if hello["event"] != "hello" || hello["code_version"] != xp::spec::CODE_VERSION {
            return Err(format!("unexpected hello: {hello}"));
        }
        Ok(conn)
    }

    /// Send one `run` frame.
    pub fn send(&mut self, specs: &[CellSpec]) -> Result<(), String> {
        let frame = Value::object(vec![
            ("op", "run".into()),
            ("trace", TraceCtx::fresh().to_json()),
            (
                "cells",
                Value::Array(specs.iter().map(CellSpec::to_json).collect()),
            ),
        ]);
        writeln!(self.stream, "{frame}").map_err(|e| format!("send: {e}"))
    }

    /// Read the reply to a `run` frame of `n` cells.
    pub fn receive(&mut self, n: usize) -> Result<Vec<Served>, String> {
        let mut cells: Vec<Option<Served>> = (0..n).map(|_| None).collect();
        loop {
            let event = self.event()?;
            match event["event"].as_str() {
                Some("cell") => {
                    let i = event["index"].as_u64().unwrap_or(u64::MAX) as usize;
                    let slot = cells
                        .get_mut(i)
                        .ok_or_else(|| format!("bad cell index in {event}"))?;
                    let payload = if event["ok"].as_bool() == Some(true) {
                        Ok(event["result"].to_string())
                    } else {
                        Err(event["error"]
                            .as_str()
                            .unwrap_or("unknown error")
                            .to_string())
                    };
                    *slot = Some(Served {
                        payload,
                        source: event["source"].as_str().unwrap_or("").to_string(),
                        wall_secs: event["wall_secs"].as_f64().unwrap_or(0.0),
                    });
                }
                Some("progress") => {}
                Some("done") => break,
                _ => return Err(format!("unexpected event: {event}")),
            }
        }
        cells
            .into_iter()
            .enumerate()
            .map(|(i, c)| c.ok_or_else(|| format!("no reply for cell {i}")))
            .collect()
    }

    fn event(&mut self) -> Result<Value, String> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Value::parse(line.trim()).map_err(|e| format!("bad event JSON: {e}"))
    }

    /// Close both halves of the socket (the reader shares it).
    pub fn close(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// What the closed loop measured.
#[derive(Default)]
pub struct Traffic {
    pub new_ms: Vec<f64>,
    pub open_ms: Vec<f64>,
    /// `open` latencies by warm cell, in the warm set's order.
    pub open_by_cell: Vec<Vec<f64>>,
    pub sweep_s: Vec<f64>,
    pub miss_ms: Vec<f64>,
    /// Server-reported compute seconds of the missed cells, in ms.
    pub compute_ms: Vec<f64>,
    /// Miss requests that joined the other connection's computation.
    pub joined: u64,
    pub attempted: u64,
    pub errors: Vec<String>,
    /// Fresh cells the server computed, with the payload it returned; the
    /// caller checks them against offline runs.
    pub fresh: Vec<(Cell, String)>,
    /// The warm cell the next single-cell request asks for.
    next_warm: usize,
}

impl Traffic {
    /// The median `open` latency of each warm cell, averaged over the set
    /// with equal weights. Cells differ in payload size and so in
    /// latency; the median of the pooled samples would move with the mix
    /// of cells a run happened to ask for.
    pub fn open_p50_ms(&self) -> Option<f64> {
        let medians: Option<Vec<f64>> = self.open_by_cell.iter().map(|v| median(v)).collect();
        let medians = medians.filter(|m| !m.is_empty())?;
        Some(medians.iter().sum::<f64>() / medians.len() as f64)
    }

    /// Check one warm reply: served from the cache, equal to the offline
    /// payload.
    fn check(&mut self, what: &str, cell: &Cell, served: Result<Served, String>, want: &str) {
        self.attempted += 1;
        let id = cell.id();
        match served {
            Err(e) => self.errors.push(format!("{what} {id}: {e}")),
            Ok(s) => match s.payload {
                Err(e) => self.errors.push(format!("{what} {id}: server error: {e}")),
                Ok(p) if p != want => self.errors.push(format!(
                    "{what} {id}: served payload differs from the offline run"
                )),
                Ok(_) if s.source != "cache" => self.errors.push(format!(
                    "{what} {id}: warm request not served from cache ({})",
                    s.source
                )),
                Ok(_) => {}
            },
        }
    }
}

fn one(result: Result<Vec<Served>, String>) -> Result<Served, String> {
    let mut v = result?;
    if v.len() != 1 {
        return Err(format!("{} replies for one cell", v.len()));
    }
    Ok(v.remove(0))
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Run the closed loop until `deadline`, adding to `t`; it stops early
/// once `t` holds an error. `warm` pairs each warm cell with its offline
/// payload.
pub fn traffic(
    service: &Service,
    warm: &[(Cell, String)],
    misses: &mut Misses,
    deadline: Instant,
    rec: Option<&Arc<Recorder>>,
    t: &mut Traffic,
) {
    if !t.errors.is_empty() {
        return;
    }
    let (mut a, mut b) = match (Conn::open(&service.addr), Conn::open(&service.addr)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            t.attempted += 1;
            t.errors.push(format!(
                "opening held connections: {:?} / {:?}",
                a.err(),
                b.err()
            ));
            return;
        }
    };
    let client = service.client();
    let specs: Vec<CellSpec> = warm.iter().map(|(c, _)| c.spec()).collect();
    t.open_by_cell.resize(warm.len(), Vec::new());
    // Request ids name span groups; they run on across calls.
    static REQUEST: AtomicU64 = AtomicU64::new(0);
    let group =
        || -> Arc<str> { format!("req-{}", REQUEST.fetch_add(1, Ordering::Relaxed) + 1).into() };
    // At least one round, however late the slice's offline part ran.
    loop {
        for _ in 0..NEW_BURST {
            let (cell, want) = &warm[t.next_warm % warm.len()];
            t.next_warm += 1;
            let g = group();
            let _s = maybe(rec, "svc.request.new", &g);
            let t0 = Instant::now();
            let out = client.run_cells(&[cell.spec()], |_| {}).and_then(|v| {
                let mut v = v.into_iter();
                match (v.next(), v.next()) {
                    (Some(o), None) => Ok(Served {
                        payload: o.result.map(|p| p.to_string()),
                        source: match o.source {
                            CellSource::Cache => "cache",
                            CellSource::Computed => "computed",
                            CellSource::Inflight => "inflight",
                        }
                        .to_string(),
                        wall_secs: o.wall_secs,
                    }),
                    _ => Err("expected one outcome".into()),
                }
            });
            t.new_ms.push(ms(t0));
            t.check("new", cell, out, want);
        }
        for _ in 0..OPEN_PER_ROUND {
            let i = t.next_warm % warm.len();
            t.next_warm += 1;
            let (cell, want) = &warm[i];
            let g = group();
            let _s = maybe(rec, "svc.request.open", &g);
            let t0 = Instant::now();
            let out = one(a.send(&[cell.spec()]).and_then(|_| a.receive(1)));
            let took = ms(t0);
            t.open_ms.push(took);
            t.open_by_cell[i].push(took);
            t.check("open", cell, out, want);
        }
        for _ in 0..SWEEPS_PER_ROUND {
            let g = group();
            let _s = maybe(rec, "svc.request.sweep", &g);
            let t0 = Instant::now();
            let out = a.send(&specs).and_then(|_| a.receive(specs.len()));
            t.sweep_s.push(t0.elapsed().as_secs_f64());
            match out {
                Ok(cells) => {
                    for ((cell, want), s) in warm.iter().zip(cells) {
                        t.check("sweep", cell, Ok(s), want);
                    }
                }
                Err(e) => {
                    t.attempted += 1;
                    t.errors.push(format!("sweep: {e}"));
                }
            }
        }
        let (cell, want) = match misses {
            Misses::Evict(cell) => {
                let Some((_, want)) = warm.iter().find(|(c, _)| c.id() == cell.id()) else {
                    t.attempted += 1;
                    t.errors
                        .push(format!("evicted cell {} is not warm", cell.id()));
                    break;
                };
                if let Err(e) = std::fs::remove_file(service.entry_path(&cell.spec())) {
                    t.attempted += 1;
                    t.errors.push(format!("evicting {}: {e}", cell.id()));
                    break;
                }
                (Cell::clone(cell), Some(want.as_str()))
            }
            Misses::Fresh(f) => (f.next().expect("fresh cells never end"), None),
        };
        let spec = cell.spec();
        let g = group();
        let span = maybe(rec, "svc.request.miss", &g);
        let t0 = Instant::now();
        let sent = a
            .send(std::slice::from_ref(&spec))
            .and_then(|_| b.send(&[spec]));
        let first = one(sent.clone().and_then(|_| a.receive(1)));
        t.miss_ms.push(ms(t0));
        let second = one(sent.and_then(|_| b.receive(1)));
        drop(span);
        for s in [&first, &second].into_iter().flatten() {
            match s.source.as_str() {
                "computed" => t.compute_ms.push(s.wall_secs * 1e3),
                "inflight" => t.joined += 1,
                _ => {}
            }
        }
        t.attempted += 2;
        let payload = |r: Result<Served, String>| r.and_then(|s| s.payload);
        let id = cell.id();
        match (payload(first), payload(second)) {
            (Ok(pa), Ok(pb)) if pa != pb => {
                t.errors.push(format!("miss {id}: the two replies differ"))
            }
            (Ok(p), Ok(_)) => match want {
                Some(want) if p != want => t.errors.push(format!(
                    "miss {id}: served payload differs from the offline run"
                )),
                Some(_) => {}
                None => t.fresh.push((cell, p)),
            },
            (Err(e), _) | (_, Err(e)) => t.errors.push(format!("miss {id}: {e}")),
        }
        if !t.errors.is_empty() || Instant::now() >= deadline {
            break;
        }
    }
    a.close();
    b.close();
}

/// Counters and histogram means scraped once from the server's own
/// `metrics` op.
pub struct Scrape {
    pub hits: f64,
    pub computed: f64,
    pub joined: f64,
    pub run_mean_ms: f64,
}

pub fn scrape(service: &Service) -> Result<Scrape, String> {
    let m = service.client().metrics(false)?;
    let counter = |name: &str| m["counters"][name].as_f64().unwrap_or(0.0);
    Ok(Scrape {
        hits: counter("svc.cells.hit"),
        computed: counter("svc.cells.computed"),
        joined: counter("svc.flight.joins"),
        run_mean_ms: m["histograms"]["svc.run_us"]["mean"]
            .as_f64()
            .unwrap_or(0.0)
            * 1e-3,
    })
}

/// Connect-plus-hello times of `n` fresh connections, in ms.
pub fn probe_connect(service: &Service, n: usize, rec: &Arc<Recorder>) -> Result<Vec<f64>, String> {
    let group: Arc<str> = "probe-connect".into();
    (0..n)
        .map(|_| {
            let _s = rec.span("svc.connect", &group);
            let t0 = Instant::now();
            let conn = Conn::open(&service.addr)?;
            let took = ms(t0);
            conn.close();
            Ok(took)
        })
        .collect()
}

/// Times of `svc::Cache::lookup` over the warm set, in ms; every lookup
/// must hit.
pub fn probe_lookup(
    service: &Service,
    warm: &[(Cell, String)],
    rounds: usize,
    rec: &Arc<Recorder>,
) -> Result<Vec<f64>, String> {
    let cache = svc::Cache::new(&service.cache_dir);
    let group: Arc<str> = "probe-lookup".into();
    let specs: Vec<CellSpec> = warm.iter().map(|(c, _)| c.spec()).collect();
    let mut out = Vec::new();
    for _ in 0..rounds {
        for spec in &specs {
            let _s = rec.span("svc.cache.lookup", &group);
            let t0 = Instant::now();
            let hit = cache.lookup(spec);
            out.push(ms(t0));
            if hit.is_none() {
                return Err(format!("lookup of warm cell {spec} missed"));
            }
        }
    }
    Ok(out)
}

/// Times of `svc::Cache::store` of the warm payloads into a side cache
/// directory, in ms.
pub fn probe_store(
    dir: &Path,
    warm: &[(Cell, String)],
    rec: &Arc<Recorder>,
) -> Result<Vec<f64>, String> {
    let cache = svc::Cache::new(dir);
    let group: Arc<str> = "probe-store".into();
    let mut out = Vec::new();
    for (cell, payload) in warm {
        let value = Value::parse(payload).map_err(|e| format!("payload JSON: {e}"))?;
        let _s = rec.span("svc.cache.store", &group);
        let t0 = Instant::now();
        cache
            .store(&cell.spec(), &value)
            .map_err(|e| format!("store {}: {e}", cell.id()))?;
        out.push(ms(t0));
    }
    Ok(out)
}

/// Warm the cache through the server: request every cell once, so the
/// server computes and stores each. Returns the payloads by cell id.
pub fn fill(service: &Service, cells: &[Cell]) -> Result<HashMap<String, String>, String> {
    let specs: Vec<CellSpec> = cells.iter().map(Cell::spec).collect();
    let outcomes = service.client().run_cells(&specs, |_| {})?;
    let mut payloads = HashMap::new();
    for (cell, o) in cells.iter().zip(outcomes) {
        let p = o
            .result
            .map_err(|e| format!("filling {}: {e}", cell.id()))?;
        payloads.insert(cell.id(), p.to_string());
    }
    Ok(payloads)
}
