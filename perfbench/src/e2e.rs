//! The untraced run: set-up, the timed traffic phase, and the end-to-end
//! figures a user of the system sees.
//!
//! The timed phase is cut into windows: ten equal slices of `--seconds` for
//! the mixes, one solve each for `big-solve`. Each window records how much
//! of the machine's CPU time the hypervisor gave to other guests (`steal`
//! in `/proc/stat`). Mix timings are taken over the quiet windows only —
//! those within one percentage point of the least-stolen window, and at
//! least half of them; big-solve timings over each instance's median
//! across at least three laps. Either way, a burst of load from outside
//! this machine moves them less.

use crate::check::{check_answer, check_sequential, Answer};
use crate::report::{Metric, Outcome};
use crate::stats::{median, p99_or_max, sorted};
use crate::sys;
use crate::traffic::{closed_loop, Bye, Daemon, Tally};
use crate::workload::{self, Request, Scale, Workload};
use crate::Config;
use pcmax_core::json::{object, Value};
use pcmax_core::MakespanBounds;
use pcmax_engine::{Engine, EngineConfig, SolverParams, Submission};
use pcmax_parallel::metrics::{POOL_PARKS, POOL_WAKES};
use pcmax_serve::Client;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
fn setup_reps(scale: Scale) -> usize {
    match scale {
        Scale::Full => 5,
        Scale::Smoke => 2,
    }
}

/// Windows the timed phase of a mix is cut into.
const MIX_WINDOWS: u32 = 10;

/// `mix-fresh` pool size: room for this many requests per second of the
/// run. The phase ends early if a faster program uses the pool up.
const FRESH_POOL_PER_SECOND: usize = 4000;

/// Requests per mix run re-solved by the sequential solvers.
const MIX_SEQUENTIAL_SAMPLE: usize = 24;

/// Big-solve instances per run, solved round robin in whole laps.
fn big_pool(scale: Scale) -> usize {
    match scale {
        Scale::Full => 10,
        Scale::Smoke => 2,
    }
}

/// One window of the timed phase.
struct Window {
    latencies_ms: Vec<f64>,
    ok: u64,
    sent: u64,
    wall_s: f64,
    cpu_s: f64,
    /// Share of the machine's CPU time stolen by the hypervisor.
    steal: f64,
}

/// Runs `f` as one window; returns the window and `f`'s tally.
fn measure(f: impl FnOnce() -> Tally) -> (Window, Tally) {
    let (cpu0, ticks0) = (sys::cpu_seconds(), sys::CpuTicks::read());
    let start = Instant::now();
    let tally = f();
    let window = Window {
        latencies_ms: tally.latencies_ms.clone(),
        ok: tally.ok,
        sent: tally.sent,
        wall_s: start.elapsed().as_secs_f64(),
        cpu_s: sys::cpu_seconds() - cpu0,
        steal: sys::CpuTicks::read().steal_share_since(ticks0),
    };
    (window, tally)
}

/// The untraced run of `cfg.workload`.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    cfg.describe(&mut out);
    match cfg.workload {
        Workload::BigSolve => big_solve(cfg, &mut out),
        _ => mix(cfg, &mut out),
    }
    out.fact(
        "peak_rss_with_checks_mib",
        Value::Float(sys::peak_rss_mib()),
    );
    out
}

/// The live state a mix set-up leaves behind for the timed phase.
struct Served {
    pool: Vec<Request>,
    daemon: Daemon,
    clients: Vec<Client>,
    sent: u64,
}

/// One mix set-up: pool generation, daemon bind and engine start, client
/// connections, and for `mix-repeat` the first lap.
fn mix_setup(cfg: &Config, out: &mut Outcome) -> Result<Served, String> {
    let pool = match (cfg.workload, cfg.scale) {
        (Workload::MixFresh, Scale::Full) => workload::mix_fresh(
            cfg.seed,
            FRESH_POOL_PER_SECOND * cfg.seconds.ceil() as usize,
        ),
        (Workload::MixFresh, Scale::Smoke) => workload::mix_fresh(cfg.seed, 64),
        _ => workload::mix_repeat(cfg.seed),
    };
    let daemon = Daemon::start().map_err(|e| format!("bind: {e}"))?;
    let mut clients = daemon
        .connect(cfg.clients)
        .map_err(|e| format!("connect: {e}"))?;
    let mut sent = 0;
    if cfg.workload == Workload::MixRepeat {
        let lap = closed_loop(&mut clients, &pool, 0..pool.len(), None, 0..0);
        sent = lap.sent;
        for p in lap.problems {
            out.problem(format!("first lap: {p}"));
        }
    }
    Ok(Served {
        pool,
        daemon,
        clients,
        sent,
    })
}

fn mix(cfg: &Config, out: &mut Outcome) {
    let mut setups = Vec::new();
    let mut live: Option<Served> = None;
    for _ in 0..setup_reps(cfg.scale) {
        if let Some(old) = live.take() {
            stop_checked(old.daemon, old.clients, old.sent, out);
        }
        let start = Instant::now();
        match mix_setup(cfg, out) {
            Ok(served) => live = Some(served),
            Err(e) => {
                out.problem(e);
                return;
            }
        }
        setups.push(start.elapsed().as_secs_f64());
    }
    let Some(Served {
        pool,
        daemon,
        mut clients,
        sent,
    }) = live
    else {
        return;
    };

    let repeat = cfg.workload == Workload::MixRepeat;
    let (first, end) = if repeat {
        (pool.len(), usize::MAX)
    } else {
        (0, pool.len())
    };
    let slice = Duration::from_secs_f64(cfg.seconds / f64::from(MIX_WINDOWS));
    let keep = first..first + MIX_SEQUENTIAL_SAMPLE;
    let mut total = Tally::default();
    let mut windows = Vec::new();
    let mut next = first;
    for _ in 0..MIX_WINDOWS {
        let (window, tally) = measure(|| {
            let deadline = Instant::now() + slice;
            closed_loop(&mut clients, &pool, next..end, Some(deadline), keep.clone())
        });
        next += tally.sent as usize;
        windows.push(window);
        total.merge(tally);
    }
    let peak_rss = sys::peak_rss_mib();
    let bye = stop_checked(daemon, clients, sent + total.sent, out);

    let sequential = sequential_checks(&pool, &total.kept, out);
    out.fact("pool_requests", Value::UInt(pool.len() as u64));
    out.fact("pool_exhausted", Value::Bool(next >= end));
    out.fact("sequential_checked", Value::UInt(sequential));
    out.fact(
        "cache_hit_responses",
        Value::UInt(total.cache_hit_responses),
    );
    if let Some(bye) = bye {
        out.fact(
            "bye",
            object(vec![
                ("served", Value::UInt(bye.served)),
                ("cache_hits", Value::UInt(bye.cache_hits)),
                ("cache_misses", Value::UInt(bye.cache_misses)),
                ("parks", Value::UInt(bye.parks)),
                ("wakes", Value::UInt(bye.wakes)),
            ]),
        );
    }
    let timings = mix_timings(&quiet_mix_windows(&windows));
    let peak_rss = (peak_rss, "VmHWM at the end of the phase");
    phase_metrics(out, &total, &windows, timings, &setups, peak_rss);
}

/// Stops a daemon and checks its `bye` totals against `sent`.
pub fn stop_checked(
    daemon: Daemon,
    clients: Vec<Client>,
    sent: u64,
    out: &mut Outcome,
) -> Option<Bye> {
    match daemon.stop(clients) {
        Ok(bye) => {
            if let Err(e) = bye.check(sent) {
                out.problem(e);
            }
            Some(bye)
        }
        Err(e) => {
            out.problem(e);
            None
        }
    }
}

/// Re-solves the kept answers sequentially; a disagreement is a failed
/// request. Returns how many were checked.
fn sequential_checks(pool: &[Request], kept: &[(usize, Answer)], out: &mut Outcome) -> u64 {
    for (i, answer) in kept {
        if let Err(e) = check_sequential(&pool[i % pool.len()], answer) {
            out.failed += 1;
            out.problem(e);
        }
    }
    kept.len() as u64
}

/// How far above the quietest window's steal share a window still counts
/// as quiet.
const QUIET_SLACK: f64 = 0.01;

/// The quiet mix windows: those within [`QUIET_SLACK`] of the least
/// stolen, or, if that is less than half of them, the least-stolen half.
fn quiet_mix_windows(windows: &[Window]) -> Vec<&Window> {
    let mut windows: Vec<&Window> = windows.iter().filter(|w| w.sent > 0).collect();
    let least = windows
        .iter()
        .map(|w| w.steal)
        .fold(f64::INFINITY, f64::min);
    let quiet: Vec<&Window> = windows
        .iter()
        .copied()
        .filter(|w| w.steal <= least + QUIET_SLACK)
        .collect();
    if quiet.len() * 2 >= windows.len() {
        return quiet;
    }
    windows.sort_by(|a, b| a.steal.total_cmp(&b.steal));
    windows.truncate(windows.len().div_ceil(2));
    windows
}

/// The timing figures of a phase, each with the statistic it is.
struct Timings {
    throughput: (f64, &'static str),
    p50: (f64, &'static str),
    p99: (f64, &'static str),
    cpu_ms: (f64, &'static str),
    samples: usize,
}

/// Mix timings over the quiet windows: throughput and CPU per request over
/// their total, latencies as the median of their per-window statistics
/// (every window holds well over 1000 samples, so its p99 has ten beyond).
fn mix_timings(kept: &[&Window]) -> Timings {
    let sum = |f: &dyn Fn(&Window) -> f64| kept.iter().map(|w| f(w)).sum::<f64>();
    let over_windows = |f: &dyn Fn(&[f64]) -> f64| {
        let per_window = kept.iter().map(|w| f(&sorted(w.latencies_ms.clone())));
        median(&sorted(per_window.collect()))
    };
    Timings {
        throughput: (
            sum(&|w| w.ok as f64) / sum(&|w| w.wall_s),
            "ok/wall of quiet windows",
        ),
        p50: (over_windows(&median), "median of quiet-window medians"),
        p99: (
            over_windows(&|l| p99_or_max(l).0),
            "median of quiet-window p99",
        ),
        cpu_ms: (
            sum(&|w| w.cpu_s) * 1e3 / sum(&|w| w.sent as f64),
            "cpu/requests of quiet windows",
        ),
        samples: kept.iter().map(|w| w.latencies_ms.len()).sum(),
    }
}

/// Big-solve timings from whole laps over `instances` instances (solve `i`
/// is of instance `i % instances`): each instance's median latency over
/// its laps, so one slow lap moves nothing; the median of those, their
/// maximum (an upper bound on the 99th percentile, which about 30 solves
/// cannot support), and instances ÷ their sum as throughput.
fn big_timings(solves: &[Window], instances: usize) -> Timings {
    let typical: Vec<f64> = (0..instances)
        .map(|i| {
            let laps = solves.iter().skip(i).step_by(instances);
            median(&sorted(laps.flat_map(|w| w.latencies_ms.clone()).collect()))
        })
        .collect();
    let typical = sorted(typical);
    let cpu_s: f64 = solves.iter().map(|w| w.cpu_s).sum();
    Timings {
        throughput: (
            1e3 * instances as f64 / typical.iter().sum::<f64>(),
            "instances / sum of instance medians",
        ),
        p50: (median(&typical), "median of instance medians"),
        p99: (
            typical.last().copied().unwrap_or(f64::NAN),
            "max of instance medians",
        ),
        cpu_ms: (cpu_s * 1e3 / solves.len() as f64, "cpu/solves"),
        samples: solves.len(),
    }
}

/// The end-to-end figures of a timed phase: the timings, the makespan ratio
/// over every ok response, the median set-up, and the peak resident set
/// (read before the benchmark's own sequential re-solves).
fn phase_metrics(
    out: &mut Outcome,
    total: &Tally,
    windows: &[Window],
    timings: Timings,
    setups: &[f64],
    peak_rss: (f64, &'static str),
) {
    out.count(total);
    let floats = |f: &dyn Fn(&Window) -> f64| {
        Value::Array(windows.iter().map(|w| Value::Float(f(w))).collect())
    };
    out.fact("windows", Value::UInt(windows.len() as u64));
    out.fact("window_steal_share", floats(&|w| w.steal));
    out.fact("window_wall_s", floats(&|w| w.wall_s));
    out.fact(
        "phase_wall_s",
        Value::Float(windows.iter().map(|w| w.wall_s).sum()),
    );
    let n = timings.samples;
    let metrics = [
        ("throughput_rps", timings.throughput, "1/s", n),
        ("latency_p50_ms", timings.p50, "ms", n),
        ("latency_p99_ms", timings.p99, "ms", n),
        ("cpu_ms_per_req", timings.cpu_ms, "ms", n),
        (
            "makespan_ratio",
            (total.ratio_sum / total.ok as f64, "mean over ok"),
            "ratio",
            total.ok as usize,
        ),
        (
            "setup_s",
            (median(&sorted(setups.to_vec())), "median"),
            "s",
            setups.len(),
        ),
        ("peak_rss_mib", peak_rss, "MiB", 1),
    ];
    for (name, (value, stat), unit, samples) in metrics {
        out.metric(Metric::new(name, value, unit, samples, stat));
    }
}

/// The engine big-solve submits to: one worker, since one solve runs at a
/// time, so every solve runs on the same thread (and its allocator arena).
pub fn big_engine() -> EngineConfig {
    EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }
}

/// One checked big solve: `par-ptas` at default threads, bypassing the
/// profile cache. The first ok answer is kept.
fn big_one(engine: &Engine, req: &Request, first: &mut Option<Answer>) -> Tally {
    let mut tally = Tally {
        sent: 1,
        ..Tally::default()
    };
    let submission = Submission::new(req.instance.clone(), req.solver)
        .with_params(SolverParams::with_epsilon(req.eps))
        .without_cache();
    let start = Instant::now();
    let report = engine.submit(submission).and_then(|h| h.wait());
    tally.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
    let checked = report
        .map_err(|e| format!("solve failed: {e}"))
        .and_then(|report| {
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
            check_answer(&req.instance, &answer).map(|()| answer)
        });
    match checked {
        Ok(answer) => {
            tally.ok = 1;
            tally.ratio_sum =
                answer.makespan as f64 / MakespanBounds::of(&req.instance).lower as f64;
            first.get_or_insert(answer);
        }
        Err(e) => {
            tally.failed = 1;
            tally.problems.push(e);
        }
    }
    tally
}

/// Laps over the big-solve pool: whole laps until `--seconds` have passed,
/// and at least this many, so every instance's median has three samples.
const BIG_MIN_LAPS: usize = 3;

fn big_solve(cfg: &Config, out: &mut Outcome) {
    let mut setups = Vec::new();
    let mut live: Option<(Vec<Request>, Engine)> = None;
    for _ in 0..setup_reps(cfg.scale) {
        if let Some((_, engine)) = live.take() {
            engine.shutdown();
        }
        let start = Instant::now();
        let pool = workload::big_solve(cfg.seed, big_pool(cfg.scale), cfg.scale);
        live = Some((pool, Engine::with_config(big_engine())));
        setups.push(start.elapsed().as_secs_f64());
    }
    let Some((pool, engine)) = live else {
        return;
    };

    let parks0 = (POOL_PARKS.get(), POOL_WAKES.get());
    let start = Instant::now();
    let mut first = None;
    let mut total = Tally::default();
    let mut solves: Vec<Window> = Vec::new();
    let mut peak_rss = None;
    while solves.len() < BIG_MIN_LAPS * pool.len() || start.elapsed().as_secs_f64() < cfg.seconds {
        for req in &pool {
            let (window, tally) = measure(|| big_one(&engine, req, &mut first));
            solves.push(window);
            total.merge(tally);
            // The memory one big solve needs: set-up and the first solve, of
            // the largest instance. What later solves add to the high-water
            // mark depends on how the allocator's retained blocks happen to
            // fit the next instance's tables, so it differs from seed to
            // seed; it is recorded beside as `peak_rss_end_of_phase_mib`.
            peak_rss.get_or_insert_with(sys::peak_rss_mib);
        }
    }
    out.fact(
        "peak_rss_end_of_phase_mib",
        Value::Float(sys::peak_rss_mib()),
    );
    let peak_rss = peak_rss.unwrap_or(f64::NAN);
    let totals = engine.shutdown();
    if totals.served != total.sent {
        out.problem(format!(
            "engine served {} of {} solves",
            totals.served, total.sent
        ));
    }
    let (parks, wakes) = (POOL_PARKS.get() - parks0.0, POOL_WAKES.get() - parks0.1);
    if parks != wakes {
        out.problem(format!("pool: {parks} parks but {wakes} wakes"));
    }
    let checked: Vec<(usize, Answer)> = first.into_iter().map(|a| (0, a)).collect();
    let check_start = Instant::now();
    let sequential = sequential_checks(&pool, &checked, out);
    out.fact(
        "sequential_check_s",
        Value::Float(check_start.elapsed().as_secs_f64()),
    );
    out.fact("pool_instances", Value::UInt(pool.len() as u64));
    out.fact("sequential_checked", Value::UInt(sequential));
    out.fact("pool_parks", Value::UInt(parks));
    let timings = big_timings(&solves, pool.len());
    let peak_rss = (peak_rss, "VmHWM after the first solve");
    phase_metrics(out, &total, &solves, timings, &setups, peak_rss);
}
