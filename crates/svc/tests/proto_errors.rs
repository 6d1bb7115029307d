//! Protocol error paths and telemetry ops, end to end over real sockets.
//!
//! The contract under test: every malformed input — bad JSON, unknown op,
//! a stream truncated mid-`run`, a version-mismatched hello — produces a
//! *typed* error (an `error` event on the wire, or a typed `Err` on the
//! client) and never a hang or a silent close; and the telemetry surface
//! (`stats.runs_failed`, the `metrics` and `log` ops) sees what happened.
//! Connection handling is bounded too: a stop never waits on a client, a
//! new connection is answered at once, and an oversize frame is refused.

use obs::json::Value;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use svc::server::{Compute, Server, MAX_FRAME_BYTES};
use svc::{Cache, CellSpec, Client};

fn spec(bench: &str, seed: u64) -> CellSpec {
    CellSpec {
        bench: bench.into(),
        placement: "rand".into(),
        placement_fp: String::new(),
        engine: "upmlib".into(),
        scale: "tiny".into(),
        seed,
        variant: String::new(),
        config_fp: "fefefefefefefefe".into(),
        code_version: "test-code".into(),
    }
}

/// How long a stopped server may take to return from `run`.
const STOP_TIMEOUT: Duration = Duration::from_secs(5);

/// Wait for `join` to finish, failing (instead of hanging the test run)
/// when it takes longer than [`STOP_TIMEOUT`].
fn join_within_timeout(join: std::thread::JoinHandle<()>, what: &str) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || tx.send(join.join().is_ok()));
    let ok = rx
        .recv_timeout(STOP_TIMEOUT)
        .unwrap_or_else(|_| panic!("{what}: server still running after {STOP_TIMEOUT:?}"));
    assert!(ok, "{what}: server thread panicked");
}

/// Start a server whose compute panics for bench `boom`, refuses bench
/// `refuse`, and answers everything else.
fn start(tag: &str) -> (Client, std::thread::JoinHandle<()>) {
    let server = bind(tag);
    let addr = server.local_addr().unwrap().to_string();
    let join = std::thread::spawn(move || server.run().unwrap());
    (Client::new(&addr, "test-code"), join)
}

/// Bind (but do not run) a server with the test compute function.
fn bind(tag: &str) -> Server {
    let compute: Compute = Arc::new(|spec: &CellSpec| match spec.bench.as_str() {
        "boom" => panic!("cell exploded on purpose"),
        "refuse" => Err("spec refused on purpose".to_string()),
        _ => Ok(Value::object(vec![("seed", spec.seed.into())])),
    });
    let root =
        std::env::temp_dir().join(format!("ddnomp-proto-errors-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    Server::bind("127.0.0.1:0", 2, Cache::new(root), compute, "test-code").unwrap()
}

/// Open a raw protocol connection: consume the hello, return the pair.
fn raw_connect(addr: &str) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut hello = String::new();
    reader.read_line(&mut hello).unwrap();
    let hello = Value::parse(hello.trim()).unwrap();
    assert_eq!(hello["event"].as_str(), Some("hello"));
    (reader, stream)
}

fn read_event(reader: &mut BufReader<TcpStream>) -> Value {
    let mut line = String::new();
    let n = reader.read_line(&mut line).unwrap();
    assert!(n > 0, "server closed instead of answering");
    Value::parse(line.trim()).unwrap()
}

#[test]
fn malformed_json_yields_typed_error_and_keeps_the_connection() {
    let (client, join) = start("badjson");
    let (mut reader, mut stream) = raw_connect(client.addr());
    writeln!(stream, "{{this is not json").unwrap();
    let event = read_event(&mut reader);
    assert_eq!(event["event"].as_str(), Some("error"));
    assert!(
        event["message"]
            .as_str()
            .unwrap()
            .contains("bad request JSON"),
        "{event}"
    );
    // A frame that is not UTF-8 is a bad request too, not a hang-up.
    stream.write_all(b"{\"op\":\"\xff\"}\n").unwrap();
    let event = read_event(&mut reader);
    assert_eq!(event["event"].as_str(), Some("error"));
    assert!(
        event["message"].as_str().unwrap().contains("UTF-8"),
        "{event}"
    );
    // Same connection still serves well-formed requests.
    writeln!(stream, "{{\"op\":\"ping\"}}").unwrap();
    assert_eq!(read_event(&mut reader)["event"].as_str(), Some("pong"));
    // Close the raw connection before shutdown: the server joins its
    // connection threads, and ours lives until this stream closes.
    drop((reader, stream));
    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn unknown_and_missing_ops_yield_typed_errors() {
    let (client, join) = start("unknownop");
    let (mut reader, mut stream) = raw_connect(client.addr());
    writeln!(stream, "{{\"op\":\"frobnicate\"}}").unwrap();
    let event = read_event(&mut reader);
    assert_eq!(event["event"].as_str(), Some("error"));
    assert!(event["message"].as_str().unwrap().contains("frobnicate"));
    writeln!(stream, "{{\"payload\":1}}").unwrap();
    let event = read_event(&mut reader);
    assert_eq!(event["event"].as_str(), Some("error"));
    assert!(event["message"].as_str().unwrap().contains("unknown op"));
    // A run frame without cells is an error event too, not a stream.
    writeln!(stream, "{{\"op\":\"run\"}}").unwrap();
    let event = read_event(&mut reader);
    assert_eq!(event["event"].as_str(), Some("error"));
    assert!(event["message"].as_str().unwrap().contains("cells"));
    drop((reader, stream));
    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn truncated_stream_mid_run_does_not_wedge_the_server() {
    let (client, join) = start("truncated");
    {
        let (_reader, mut stream) = raw_connect(client.addr());
        // Half a run request, no newline — then the client vanishes.
        write!(stream, "{{\"op\":\"run\",\"cells\":[").unwrap();
        stream.flush().unwrap();
        drop(stream);
    }
    // The server must shrug that connection off and keep serving.
    assert!(client.ping(), "server wedged after a truncated stream");
    let outcomes = client.run_cells(&[spec("cg", 1)], |_| {}).unwrap();
    assert!(outcomes[0].result.is_ok());
    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn version_mismatch_hello_is_a_typed_client_error() {
    let (client, join) = start("vermismatch");
    let wrong = Client::new(client.addr(), "some-other-build");
    assert!(!wrong.ping());
    let err = wrong.run_cells(&[spec("cg", 1)], |_| {}).unwrap_err();
    assert!(err.contains("code version mismatch"), "{err}");
    let err = wrong.metrics(false).unwrap_err();
    assert!(err.contains("code version mismatch"), "{err}");
    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn panicking_cells_are_counted_in_runs_failed() {
    let (client, join) = start("runsfailed");
    let specs = vec![spec("cg", 1), spec("boom", 2), spec("refuse", 3)];
    let outcomes = client.run_cells(&specs, |_| {}).unwrap();
    assert!(outcomes[0].result.is_ok());
    let boom = outcomes[1].result.as_ref().unwrap_err();
    assert!(boom.contains("panicked"), "{boom}");
    let refused = outcomes[2].result.as_ref().unwrap_err();
    assert!(refused.contains("refused"), "{refused}");
    let stats = client.stats().unwrap();
    assert_eq!(
        stats["runs_failed"].as_u64(),
        Some(2),
        "panicked + refused cells must both be visible: {stats}"
    );
    // The pool's own jobs_failed stays 0: the flight-resolution wrapper
    // catches the unwind before the pool sees it — exactly why stats
    // needs its own counter.
    assert_eq!(stats["pool"]["jobs_failed"].as_u64(), Some(0));
    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn metrics_and_log_ops_see_the_request_history() {
    let (client, join) = start("metrics");
    let specs = vec![spec("cg", 10), spec("cg", 11)];
    client.run_cells(&specs, |_| {}).unwrap();
    client.run_cells(&specs, |_| {}).unwrap(); // warm: all hits
    assert!(client.ping());

    let m = client.metrics(false).unwrap();
    assert_eq!(m["schema"].as_str(), Some("ddnomp-metrics v1"));
    assert_eq!(m["counters"]["svc.requests.run.ok"].as_u64(), Some(2));
    assert_eq!(m["counters"]["svc.cells.computed"].as_u64(), Some(2));
    assert_eq!(m["counters"]["svc.cells.hit"].as_u64(), Some(2));
    assert_eq!(m["counters"]["svc.cache.hits"].as_u64(), Some(2));
    assert_eq!(m["counters"]["svc.cache.stores"].as_u64(), Some(2));
    assert_eq!(m["gauges"]["svc.cache.entries"].as_f64(), Some(2.0));
    assert!(m["gauges"]["svc.cache.bytes"].as_f64().unwrap() > 0.0);
    assert_eq!(m["gauges"]["svc.queue_depth"].as_f64(), Some(0.0));
    assert_eq!(m["workers"].as_array().unwrap().len(), 2);
    assert_eq!(m["histograms"]["svc.run_us"]["count"].as_u64(), Some(2));
    assert!(m["histograms"]["svc.compute_us"]["count"].as_u64() == Some(2));
    assert!(m["histograms"]["svc.cache_lookup_us"]["count"].as_u64() == Some(4));

    let p = client.metrics(true).unwrap();
    assert_eq!(p["format"].as_str(), Some("prometheus"));
    let text = p["text"].as_str().unwrap();
    assert!(text.contains("# TYPE svc_cache_hits counter\nsvc_cache_hits 2\n"));
    assert!(text.contains("# TYPE svc_run_us histogram"));
    assert!(text.contains("svc_run_us_bucket{le=\"+Inf\"}"));

    let log = client.log_tail(10).unwrap();
    let records = log["records"].as_array().unwrap();
    assert!(records.len() >= 3, "{log}");
    let runs: Vec<&Value> = records
        .iter()
        .filter(|r| r["op"].as_str() == Some("run"))
        .collect();
    assert_eq!(runs.len(), 2);
    assert!(runs[0]["ok"].as_bool().unwrap());
    assert!(runs[1]["detail"]
        .as_str()
        .unwrap()
        .contains("2 cached, 0 computed"));
    let tid = runs[0]["trace_id"].as_str().unwrap();
    assert_eq!(tid.len(), 16, "trace id propagated from the client: {tid}");
    client.shutdown().unwrap();
    join.join().unwrap();
}

#[test]
fn stop_without_clients_returns_promptly() {
    let server = Arc::new(bind("stop"));
    let running = Arc::clone(&server);
    let join = std::thread::spawn(move || running.run().unwrap());
    // Let `run` reach its blocking accept before stopping it.
    std::thread::sleep(Duration::from_millis(50));
    server.stop();
    join_within_timeout(join, "stop()");
}

#[test]
fn a_new_connection_is_answered_at_once() {
    let (client, join) = start("connect");
    let mut samples: Vec<Duration> = (0..20)
        .map(|_| {
            let t = Instant::now();
            drop(raw_connect(client.addr()));
            t.elapsed()
        })
        .collect();
    samples.sort();
    let median = samples[samples.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "connect+hello median {median:?} over {} connections",
        samples.len()
    );
    client.shutdown().unwrap();
    join_within_timeout(join, "shutdown");
}

#[test]
fn shutdown_does_not_wait_on_an_idle_connection() {
    let (client, join) = start("idle");
    // Held open, silent, across the shutdown: the server must stop
    // reading it rather than wait for the client to hang up.
    let (mut reader, _stream) = raw_connect(client.addr());
    client.shutdown().unwrap();
    join_within_timeout(join, "shutdown with an idle client");
    let mut rest = String::new();
    assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "{rest}");
}

#[test]
fn oversize_frame_is_refused_and_the_server_keeps_serving() {
    let (client, join) = start("oversize");
    {
        let (mut reader, mut stream) = raw_connect(client.addr());
        stream.write_all(&vec![b'x'; MAX_FRAME_BYTES + 1]).unwrap();
        stream.flush().unwrap();
        let event = read_event(&mut reader);
        assert_eq!(event["event"].as_str(), Some("error"));
        assert!(
            event["message"].as_str().unwrap().contains("exceeds"),
            "{event}"
        );
        let mut rest = String::new();
        assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "connection closed");
    }
    assert!(client.ping(), "a new connection still answers");
    // A frame of exactly the cap is read (and parsed) as usual.
    let (mut reader, mut stream) = raw_connect(client.addr());
    let ping = br#"{"op":"ping"}"#;
    let mut frame = vec![b' '; MAX_FRAME_BYTES];
    frame[..ping.len()].copy_from_slice(ping);
    frame.push(b'\n');
    stream.write_all(&frame).unwrap();
    assert_eq!(read_event(&mut reader)["event"].as_str(), Some("pong"));
    drop((reader, stream));
    client.shutdown().unwrap();
    join_within_timeout(join, "shutdown");
}
