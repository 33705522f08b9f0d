//! The traced run: a fixed sample of the workload's requests, timed layer
//! by layer from outside.
//!
//! 1. A reference pass sends the sample through `pcmax_serve::Client` with
//!    nothing recorded; its wall time is the untraced baseline. An earlier
//!    identical pass warms the process up.
//! 2. The traced pass sends the same sample to a fresh daemon over the
//!    benchmark's own wire calls, with a span around each, and reads the
//!    `pcmax_metrics` registry before and after.
//! 3. A single-submitter replay resubmits every distinct sampled request to
//!    an in-process `Engine`, then replays each `par-ptas` solve stage by
//!    stage (rounding, table layout, config enumeration, the wavefront sweep
//!    at the solver's threads and at one thread, witness extraction, and
//!    reconstruction) and times each `ptas-q` request as a whole solve.
//! 4. The profile-cache lookups the sample makes are replayed on a fresh
//!    `ProfileMemo`.

use crate::check::{check_answer, Answer};
use crate::e2e::stop_checked;
use crate::report::{write_out, Metric, Outcome};
use crate::stats::{mean, median, p99_or_max, ratio, sorted};
use crate::trace::Tracer;
use crate::traffic::{closed_loop, wire_solve, Daemon, Tally};
use crate::workload::{self, Request, Scale, Workload};
use crate::Config;
use pcmax_core::json::{object, FromJson, ToJson, Value};
use pcmax_core::wire::{
    read_frame, write_frame, WireOp, WireOutcome, WireRequest, WireResponse, MAX_FRAME,
};
use pcmax_core::{Instance, MakespanBounds, ProfileCache, ProfileKey, SolveRequest};
use pcmax_engine::{Engine, EngineConfig, ProfileMemo, SolverParams, Submission};
use pcmax_metrics::{SampleValue, Snapshot};
use pcmax_parallel::wavefront::bucketed_sweep_space_with;
use pcmax_parallel::{effective_threads, CellKernel, Chunking, ParallelPtas};
use pcmax_ptas::driver::reconstruct;
use pcmax_ptas::{dp::finish, rounded_problem, DpProblem, DpScratch, PcmaxSpace, QPtas, Scenario};
use std::io::{self, BufReader, BufWriter, Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Which end-to-end metric each layer's figures should move, and where.
const PREDICTIONS: [(&str, &str); 8] = [
    ("serve", "latency_p50_ms on mix-repeat"),
    ("wire", "cpu_ms_per_req, latency_p50_ms on mix-repeat"),
    (
        "engine",
        "latency_p99_ms on mix-fresh (failed requests show as `failed`)",
    ),
    (
        "cache",
        "throughput_rps on mix-repeat; latency_p50_ms on mix-fresh",
    ),
    (
        "ptas",
        "latency_p50_ms on mix-fresh and mix-repeat; negligible on big-solve",
    ),
    (
        "parallel",
        "latency_p50_ms, cpu_ms_per_req on mix-fresh; latency_p50_ms on big-solve",
    ),
    ("workloads", "setup_s"),
    ("trace", "none: validity of the trace"),
];

/// Requests in the traced sample (after `mix-repeat`'s warm lap).
fn sample_size(workload: Workload, scale: Scale) -> usize {
    match (workload, scale) {
        (Workload::MixFresh, Scale::Full) => 1000,
        (Workload::MixRepeat, Scale::Full) => 10_000,
        (Workload::BigSolve, Scale::Full) => 2,
        (Workload::BigSolve, Scale::Smoke) => 1,
        (_, Scale::Smoke) => 16,
    }
}

/// The traced sample of one workload.
struct Sample {
    pool: Vec<Request>,
    /// Pool indices sent before the sample to warm the cache (`mix-repeat`).
    warm: usize,
    /// Request indices of the sample; request `i` is `pool[i % pool.len()]`.
    range: std::ops::Range<usize>,
    clients: usize,
}

impl Sample {
    fn request(&self, i: usize) -> &Request {
        &self.pool[i % self.pool.len()]
    }
}

/// One traced request as the client saw it.
#[derive(Debug, Default, Clone)]
struct WireRecord {
    latency: Duration,
    encode: Duration,
    decode: Duration,
    request_bytes: usize,
    response_bytes: usize,
    solve_wall_us: u64,
    probes: u64,
    cells: u64,
}

/// The counters the traced pass reads from `pcmax_metrics`.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    rejected: u64,
    busy_ns: u64,
    extent_ns: u64,
    parks: u64,
    levels: u64,
}

impl Counters {
    fn read(snap: &Snapshot) -> Self {
        let sum = |name: &str| -> u64 {
            snap.samples
                .iter()
                .filter(|s| s.name == name)
                .map(|s| match s.value {
                    SampleValue::Counter(v) => v,
                    _ => 0,
                })
                .sum()
        };
        Self {
            rejected: sum("pcmax_engine_rejected_total"),
            busy_ns: sum("pcmax_worker_busy_nanos_total"),
            extent_ns: sum("pcmax_pool_extent_nanos_total"),
            parks: sum("pcmax_pool_parks_total"),
            levels: sum("pcmax_dp_levels_total"),
        }
    }

    fn since(self, before: Self) -> Self {
        Self {
            rejected: self.rejected - before.rejected,
            busy_ns: self.busy_ns - before.busy_ns,
            extent_ns: self.extent_ns - before.extent_ns,
            parks: self.parks - before.parks,
            levels: self.levels - before.levels,
        }
    }
}

/// Stage times of the replayed `par-ptas` solves, summed over the sample.
#[derive(Debug, Default)]
struct StageSums {
    solves: usize,
    solve_wall: Duration,
    round: Duration,
    layout: Duration,
    configs: Duration,
    sweep: Duration,
    sweep_one: Duration,
    extract: Duration,
    reconstruct: Duration,
    cells: u64,
}

impl StageSums {
    fn covered(&self) -> Duration {
        self.round + self.layout + self.configs + self.sweep + self.extract + self.reconstruct
    }

    fn per_solve_us(&self, d: Duration) -> f64 {
        d.as_secs_f64() * 1e6 / self.solves as f64
    }
}

/// The traced run of `cfg.workload`.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    cfg.describe(&mut out);
    out.fact(
        "predictions",
        object(
            PREDICTIONS
                .iter()
                .map(|&(l, m)| (l, Value::Str(m.into())))
                .collect(),
        ),
    );
    let mut tracer = Tracer::new(Instant::now());
    let (sample, generate) = tracer.time("workloads.generate", 0, || build_sample(cfg));
    out.fact("sample_requests", Value::UInt(sample.range.len() as u64));

    // The first pass in the process pays one-off costs (thread stacks,
    // allocator growth); it warms up and is not compared.
    reference_pass(&sample, &mut out);
    let untraced = reference_pass(&sample, &mut out);
    let (records, traced_wall, counters, cache_entries, bye_hit_ratio) =
        traced_pass(&sample, &mut tracer, &mut out);
    let (stages, keys, queue_waits_us, submits_us) = replay(&sample, &mut tracer, &mut out);
    let (gets, puts) = replay_cache(&sample, &keys, &mut tracer);

    let layer_times = tracer.layers();
    out.fact(
        "self_ms_by_layer",
        object(
            layer_times
                .iter()
                .map(|(&layer, t)| (layer, Value::Float(t.self_ms)))
                .collect(),
        ),
    );
    let trace_name = format!("trace-{}-seed{}.json", cfg.workload.name(), cfg.seed);
    let trace_doc = object(vec![
        ("workload", Value::Str(cfg.workload.name().into())),
        ("seed", Value::UInt(cfg.seed)),
        ("spans", tracer.to_json()),
    ]);
    match write_out(&trace_name, &trace_doc.to_string_compact()) {
        Ok(path) => out.fact("trace_file", Value::Str(path.display().to_string())),
        Err(e) => out.problem(format!("trace not written: {e}")),
    }

    let us = |d: &Duration| d.as_secs_f64() * 1e6;
    let n = records.len();
    let overhead = sorted(
        records
            .iter()
            .map(|r| us(&r.latency) - r.solve_wall_us as f64)
            .collect(),
    );
    let (overhead_tail, overhead_stat) = p99_or_max(&overhead);
    let encode = sorted(records.iter().map(|r| us(&r.encode)).collect());
    let decode = sorted(records.iter().map(|r| us(&r.decode)).collect());
    let mean_of = |f: &dyn Fn(&WireRecord) -> f64| mean(&records.iter().map(f).collect::<Vec<_>>());
    let waits = sorted(queue_waits_us);
    let (wait_tail, wait_stat) = p99_or_max(&waits);
    let replayed = waits.len();
    let get_us: Vec<f64> = gets.iter().map(us).collect();
    let put_us: Vec<f64> = puts.iter().map(us).collect();
    let s = &stages;
    let secs = |d: Duration| d.as_secs_f64();
    let per_solve = "mean per solve";
    #[rustfmt::skip]
    let metrics = [
        ("serve.overhead_p50_us", median(&overhead), "us", n, "median"),
        ("serve.overhead_p99_us", overhead_tail, "us", n, overhead_stat),
        ("wire.encode_us", median(&encode), "us", n, "median"),
        ("wire.decode_us", median(&decode), "us", n, "median"),
        ("wire.request_bytes", mean_of(&|r| r.request_bytes as f64), "bytes", n, "mean"),
        ("wire.response_bytes", mean_of(&|r| r.response_bytes as f64), "bytes", n, "mean"),
        ("engine.submit_us", median(&sorted(submits_us)), "us", replayed, "median"),
        ("engine.queue_wait_p50_us", median(&waits), "us", replayed, "median"),
        ("engine.queue_wait_p99_us", wait_tail, "us", replayed, wait_stat),
        ("engine.rejected", counters.rejected as f64, "count", n, "total"),
        ("cache.hit_ratio", bye_hit_ratio, "ratio", n, "bye"),
        ("cache.get_us", mean(&get_us), "us", get_us.len(), "mean"),
        ("cache.put_us", mean(&put_us), "us", put_us.len(), "mean"),
        ("cache.entries", cache_entries, "count", 1, "gauge"),
        ("ptas.probes_per_solve", mean_of(&|r| r.probes as f64), "count", n, "mean"),
        ("ptas.cells_per_solve", mean_of(&|r| r.cells as f64), "count", n, "mean"),
        ("ptas.round_us", s.per_solve_us(s.round), "us", s.solves, per_solve),
        ("ptas.layout_us", s.per_solve_us(s.layout), "us", s.solves, per_solve),
        ("ptas.configs_us", s.per_solve_us(s.configs), "us", s.solves, per_solve),
        ("ptas.extract_us", s.per_solve_us(s.extract), "us", s.solves, per_solve),
        ("ptas.reconstruct_us", s.per_solve_us(s.reconstruct), "us", s.solves, per_solve),
        ("parallel.sweep_us", s.per_solve_us(s.sweep), "us", s.solves, per_solve),
        ("parallel.cells_per_s", ratio(s.cells as f64, secs(s.sweep)), "1/s", s.solves, "total"),
        ("parallel.busy_share", ratio(counters.busy_ns as f64, counters.extent_ns as f64), "ratio", n, "total"),
        ("parallel.parks_per_level", ratio(counters.parks as f64, counters.levels as f64), "ratio", n, "total"),
        ("parallel.thread_speedup", ratio(secs(s.sweep_one), secs(s.sweep)), "ratio", s.solves, "total"),
        ("workloads.generate_ms", secs(generate) * 1e3, "ms", 1, "once"),
        ("trace.stage_coverage", ratio(secs(s.covered()), secs(s.solve_wall)), "ratio", s.solves, "total"),
        ("trace.overhead_share", ratio(secs(traced_wall), secs(untraced)) - 1.0, "ratio", n, "total"),
    ];
    for (name, value, unit, samples, stat) in metrics {
        out.metric(Metric::new(name, value, unit, samples, stat));
    }
    out
}

fn build_sample(cfg: &Config) -> Sample {
    let size = sample_size(cfg.workload, cfg.scale);
    match cfg.workload {
        Workload::MixFresh => Sample {
            pool: workload::mix_fresh(cfg.seed, size),
            warm: 0,
            range: 0..size,
            clients: cfg.clients,
        },
        Workload::MixRepeat => {
            let pool = workload::mix_repeat(cfg.seed);
            let warm = pool.len();
            Sample {
                pool,
                warm,
                range: warm..warm + size,
                clients: cfg.clients,
            }
        }
        Workload::BigSolve => Sample {
            pool: workload::big_solve(cfg.seed, size, cfg.scale),
            warm: 0,
            range: 0..size,
            clients: 1,
        },
    }
}

/// Starts a daemon and sends the warm lap; returns it with the warm
/// requests sent.
fn warmed_daemon(sample: &Sample, out: &mut Outcome) -> Option<(Daemon, u64)> {
    let daemon = Daemon::start()
        .map_err(|e| out.problem(format!("bind: {e}")))
        .ok()?;
    let mut clients = daemon
        .connect(sample.clients)
        .map_err(|e| out.problem(format!("connect: {e}")))
        .ok()?;
    let lap = closed_loop(&mut clients, &sample.pool, 0..sample.warm, None, 0..0);
    out.count(&lap);
    Some((daemon, lap.sent))
}

/// Sends the sample through `Client` with nothing recorded; returns the
/// wall time of the sample.
fn reference_pass(sample: &Sample, out: &mut Outcome) -> Duration {
    let Some((daemon, warm_sent)) = warmed_daemon(sample, out) else {
        return Duration::ZERO;
    };
    let mut clients = match daemon.connect(sample.clients) {
        Ok(clients) => clients,
        Err(e) => {
            out.problem(format!("connect: {e}"));
            return Duration::ZERO;
        }
    };
    let start = Instant::now();
    let tally = closed_loop(&mut clients, &sample.pool, sample.range.clone(), None, 0..0);
    let wall = start.elapsed();
    out.count(&tally);
    drop(clients);
    stop_checked(daemon, Vec::new(), warm_sent + tally.sent, out);
    wall
}

/// A connection that frames requests with the benchmark's own wire calls.
struct RawClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// Counts the bytes written through it.
struct Counting<'a, W: Write> {
    inner: &'a mut W,
    bytes: usize,
}

impl<W: Write> Write for Counting<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl RawClient {
    fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(Self {
            writer: BufWriter::new(stream.try_clone()?),
            reader: BufReader::new(stream),
        })
    }

    /// One traced request: `wire.encode` (`to_json` + `write_frame`),
    /// `serve.wait` (until the whole response frame has arrived) and
    /// `wire.decode` (`read_frame` over the received bytes + `from_json`),
    /// inside a `client.request` span.
    fn solve(
        &mut self,
        tracer: &mut Tracer,
        id: u64,
        req: &Request,
    ) -> (WireRecord, io::Result<WireResponse>) {
        let request = WireRequest {
            id,
            op: WireOp::Solve(wire_solve(req)),
        };
        let mut rec = WireRecord::default();
        let root = tracer.enter("client.request", id);
        let (sent, encode) = tracer.time("wire.encode", id, || {
            let mut w = Counting {
                inner: &mut self.writer,
                bytes: 0,
            };
            write_frame(&mut w, &request.to_json()).map(|()| w.bytes)
        });
        rec.encode = encode;
        let result = sent.and_then(|bytes| {
            rec.request_bytes = bytes;
            let (frame, _) = tracer.time("serve.wait", id, || self.read_raw_frame());
            let frame = frame?;
            rec.response_bytes = frame.len();
            let (response, decode) = tracer.time("wire.decode", id, || {
                let value = read_frame(&mut Cursor::new(&frame))?
                    .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "empty frame"))?;
                WireResponse::from_json(&value)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
            });
            rec.decode = decode;
            response
        });
        rec.latency = tracer.exit(root);
        (rec, result)
    }

    /// Reads one length-prefixed frame without parsing it.
    fn read_raw_frame(&mut self) -> io::Result<Vec<u8>> {
        let mut len = [0u8; 4];
        self.reader.read_exact(&mut len)?;
        let n = u32::from_be_bytes(len) as usize;
        if n > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "frame over the cap",
            ));
        }
        let mut frame = vec![0u8; 4 + n];
        frame[..4].copy_from_slice(&len);
        self.reader.read_exact(&mut frame[4..])?;
        Ok(frame)
    }
}

/// The traced pass: the sample against a fresh (warmed) daemon over traced
/// wire calls. Returns the records, the sample's wall time, the registry
/// counter deltas, the cache-entries gauge and the `bye` hit ratio.
fn traced_pass(
    sample: &Sample,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (Vec<WireRecord>, Duration, Counters, f64, f64) {
    let empty = (Vec::new(), Duration::ZERO, Counters::default(), 0.0, 0.0);
    let Some((daemon, warm_sent)) = warmed_daemon(sample, out) else {
        return empty;
    };
    let clients: io::Result<Vec<RawClient>> = (0..sample.clients)
        .map(|_| RawClient::connect(daemon.addr()))
        .collect();
    let mut clients = match clients {
        Ok(c) => c,
        Err(e) => {
            out.problem(format!("connect: {e}"));
            return empty;
        }
    };
    let before = Counters::read(&pcmax_metrics::snapshot());
    let next = AtomicUsize::new(sample.range.start);
    let merged = Mutex::new((Vec::new(), Tally::default(), Vec::new()));
    let start = Instant::now();
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            let (next, merged) = (&next, &merged);
            let mut local = Tracer::new(tracer.origin());
            s.spawn(move || {
                let (mut records, mut tally) = (Vec::new(), Tally::default());
                loop {
                    // Relaxed: the counter only hands out distinct indices.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= sample.range.end {
                        break;
                    }
                    let req = sample.request(i);
                    tally.sent += 1;
                    let (mut rec, response) = client.solve(&mut local, i as u64, req);
                    if let Ok(WireResponse {
                        outcome: WireOutcome::Ok { stats, .. },
                        ..
                    }) = &response
                    {
                        rec.solve_wall_us = stats.wall_micros;
                        rec.probes = stats.bisection_probes;
                        rec.cells = stats.dp_cells;
                    }
                    let broken = response.is_err();
                    if tally.record(&req.instance, response).is_some() {
                        records.push(rec);
                    }
                    if broken {
                        break;
                    }
                }
                let mut m = merged.lock().expect("no merger panics");
                m.0.extend(records);
                m.1.merge(tally);
                m.2.push(local);
            });
        }
    });
    let wall = start.elapsed();
    let snap = pcmax_metrics::snapshot();
    let counters = Counters::read(&snap).since(before);
    let entries = snap
        .gauge("pcmax_profile_cache_entries", None)
        .unwrap_or(0.0);
    drop(clients);
    let (records, tally, locals) = merged.into_inner().expect("no merger panics");
    for local in locals {
        tracer.absorb(local);
    }
    out.count(&tally);
    let hit_ratio = stop_checked(daemon, Vec::new(), warm_sent + tally.sent, out)
        .map_or(0.0, |b| {
            ratio(b.cache_hits as f64, (b.cache_hits + b.cache_misses) as f64)
        });
    (records, wall, counters, entries, hit_ratio)
}

/// The profile-cache keys one request's probes look up, in probe order.
type Keys = Vec<ProfileKey>;

/// Replays every distinct sampled request with a single submitter. Returns
/// the `par-ptas` stage sums, the cache keys per pool index, the queue
/// waits and the submit times (µs).
fn replay(
    sample: &Sample,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> (StageSums, Vec<Option<Keys>>, Vec<f64>, Vec<f64>) {
    let engine = Engine::new();
    let mut stages = StageSums::default();
    let mut keys: Vec<Option<Keys>> = vec![None; sample.pool.len()];
    let (mut waits, mut submits) = (Vec::new(), Vec::new());
    for i in sample.range.clone() {
        let slot = i % sample.pool.len();
        if keys[slot].is_some() {
            continue;
        }
        let req = &sample.pool[slot];
        let id = i as u64;
        out.attempted += 1;
        let root = tracer.enter("replay.request", id);
        let submission = Submission::new(req.instance.clone(), req.solver)
            .with_params(SolverParams::with_epsilon(req.eps));
        let start = Instant::now();
        let (handle, submit) = tracer.time("engine.submit", id, || engine.submit(submission));
        let report = handle.and_then(|h| tracer.time("engine.wait", id, || h.wait()).0);
        let elapsed = start.elapsed();
        let replayed = report.map_err(|e| e.to_string()).and_then(|report| {
            let answer = Answer {
                makespan: report.makespan,
                certified: report.certified_target,
                assignment: report
                    .schedule
                    .assignment()
                    .iter()
                    .map(|&m| m as u64)
                    .collect(),
            };
            check_answer(&req.instance, &answer)?;
            submits.push(submit.as_secs_f64() * 1e6);
            waits.push(elapsed.saturating_sub(report.stats.wall).as_secs_f64() * 1e6);
            match req.solver {
                "ptas-q" => replay_q(req, tracer, id),
                _ => replay_p(req, tracer, id, &mut stages),
            }
        });
        tracer.exit(root);
        match replayed {
            Ok(k) => keys[slot] = Some(k),
            Err(e) => {
                out.failed += 1;
                out.problem(format!("replay of request {i}: {e}"));
                keys[slot] = Some(Vec::new());
            }
        }
    }
    let totals = engine.shutdown();
    out.fact(
        "replay_cache",
        object(vec![
            ("hits", Value::UInt(totals.cache_hits)),
            ("misses", Value::UInt(totals.cache_misses)),
        ]),
    );
    out.fact(
        "replayed_par_ptas_solves",
        Value::UInt(stages.solves as u64),
    );
    (stages, keys, waits, submits)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Times a `ptas-q` request as one whole (serial-engine) solve; returns its
/// probes' cache keys.
fn replay_q(req: &Request, tracer: &mut Tracer, id: u64) -> Result<Keys, String> {
    let solver = QPtas::new(req.eps).map_err(err)?;
    let (solved, _) = tracer.time("ptas_q.solve", id, || {
        solver.solve_with(&SolveRequest::new(&req.instance))
    });
    let (output, _) = solved.map_err(err)?;
    Ok(output
        .log
        .probes
        .iter()
        .filter_map(|p| solver.profile_key(&req.instance, p.target))
        .collect())
}

/// Replays a `par-ptas` solve stage by stage from its bisection log, in the
/// order the solve runs them, and checks every replayed verdict against the
/// log; then sweeps every probe's table again on one thread. Returns the
/// probes' cache keys.
fn replay_p(
    req: &Request,
    tracer: &mut Tracer,
    id: u64,
    sums: &mut StageSums,
) -> Result<Keys, String> {
    let inst: &Instance = &req.instance;
    let solver = ParallelPtas::new(req.eps).map_err(err)?;
    let driver = solver.driver();
    let (solved, _) = tracer.time("ptas.reference_solve", id, || {
        driver.solve_with(&SolveRequest::new(inst))
    });
    let (output, stats) = solved.map_err(err)?;
    let max_entries = DpProblem::DEFAULT_MAX_ENTRIES;
    let mut scratch = DpScratch::new();
    let mut witness = None;
    let mut swept = Vec::with_capacity(output.log.probes.len());
    let root = tracer.enter("ptas.replay", id);

    // The chassis reserves the bracket's largest table once per solve.
    let ((), reserve) = tracer.time("ptas.layout", id, || {
        let lower = MakespanBounds::of(inst).lower.max(1);
        if let Some(entries) = driver.reserve_hint(inst, lower) {
            scratch.reserve(entries);
        }
    });
    sums.layout += reserve;
    for probe in &output.log.probes {
        let p = tracer.enter("ptas.probe", id);
        let ((problem, rounded, partition), d) = tracer.time("ptas.round", id, || {
            rounded_problem(inst, driver.params(), probe.target, max_entries)
        });
        sums.round += d;
        let (table, d) = tracer.time("ptas.layout", id, || {
            problem.build_level_major_table_in(&mut scratch)
        });
        sums.layout += d;
        let mut table = table.map_err(err)?;
        let (configs, d) = tracer.time("ptas.configs", id, || problem.configs_with_offsets(&table));
        sums.configs += d;
        let cells_before = scratch.cells_computed;
        // As `ParallelDp::sweep` does: seed cell 0, resolve the thread
        // count, run the bucketed sweep.
        let ((), d) = tracer.time("parallel.sweep", id, || {
            table.values[0] = 0;
            bucketed_sweep_space_with(
                &mut table,
                &PcmaxSpace::new(&configs),
                effective_threads(None),
                &mut scratch,
                CellKernel::default(),
                Chunking::default(),
            );
        });
        sums.sweep += d;
        sums.cells += scratch.cells_computed - cells_before;
        let (outcome, d) = tracer.time("ptas.extract", id, || {
            finish(&problem, table, &configs, &mut scratch)
        });
        sums.extract += d;
        let outcome = outcome.map_err(err)?;
        tracer.exit(p);
        if outcome.machines != probe.dp_machines || outcome.feasible() != probe.feasible {
            return Err(format!(
                "probe at {} replayed to {} machines, the solve saw {}",
                probe.target, outcome.machines, probe.dp_machines
            ));
        }
        if let (true, Some(configs)) = (probe.target == output.target, outcome.schedule) {
            witness = Some((configs, rounded, partition));
        }
        swept.push((problem, configs, outcome.machines));
    }
    let (configs, rounded, partition) = witness.ok_or_else(|| {
        format!(
            "no feasible probe at the certified target {}",
            output.target
        )
    })?;
    let (schedule, d) = tracer.time("ptas.reconstruct", id, || {
        reconstruct(inst, &configs, &rounded, &partition)
    });
    sums.reconstruct += d;
    tracer.exit(root);
    let schedule = schedule.map_err(err)?;
    if schedule.makespan(inst) != output.schedule.makespan(inst) {
        return Err("replayed reconstruction changed the makespan".into());
    }
    sums.solves += 1;
    sums.solve_wall += stats.wall;

    // The same sweeps on one thread, for the thread speed-up.
    for (problem, configs, machines) in &swept {
        let mut table = problem
            .build_level_major_table_in(&mut scratch)
            .map_err(err)?;
        let ((), d) = tracer.time("parallel.sweep_1t", id, || {
            table.values[0] = 0;
            let space = PcmaxSpace::new(configs);
            bucketed_sweep_space_with(
                &mut table,
                &space,
                1,
                &mut scratch,
                CellKernel::default(),
                Chunking::default(),
            );
        });
        sums.sweep_one += d;
        let opt = table.value_at(table.last_index());
        scratch.recycle(table);
        if u32::from(opt).min(u32::from(u16::MAX)) != (*machines).min(u32::from(u16::MAX)) {
            return Err(format!(
                "probe at {}: the one-thread sweep disagrees",
                problem.target
            ));
        }
    }
    Ok(output
        .log
        .probes
        .iter()
        .filter_map(|p| driver.profile_key(inst, p.target))
        .collect())
}

/// Replays the sample's profile-cache traffic, in request order, on a fresh
/// memo: a lookup per probe key, and an insert after each miss. Returns the
/// lookup and insert times.
fn replay_cache(
    sample: &Sample,
    keys: &[Option<Keys>],
    tracer: &mut Tracer,
) -> (Vec<Duration>, Vec<Duration>) {
    let memo = ProfileMemo::new(EngineConfig::default().cache_capacity);
    let (mut gets, mut puts) = (Vec::new(), Vec::new());
    for i in 0..sample.range.end {
        let Some(Some(request_keys)) = keys.get(i % sample.pool.len()) else {
            continue;
        };
        for key in request_keys {
            let (found, d) = tracer.time("cache.get", i as u64, || memo.get(key));
            gets.push(d);
            if found.is_none() {
                // The insert's cost is the key's: hashing, the FIFO order and
                // the map entry. A placeholder verdict stands in for the DP's.
                let verdict = pcmax_core::ProfileVerdict::Infeasible { machines: 0 };
                let ((), d) = tracer.time("cache.put", i as u64, || memo.put(key.clone(), verdict));
                puts.push(d);
            }
        }
    }
    (gets, puts)
}
