//! Micro-benchmark for the wavefront DP hot path: DP cells per second of
//! the persistent-pool level-major executor (`dp-parallel`, pinned to 4
//! worker threads) against the serial reference engine (`dp-serial`) on the
//! paper's U(1,100) family.
//!
//! ```text
//! cargo bench -p pcmax-bench --bench wavefront -- [--smoke] \
//!     [--json FILE] [--check FILE] [--min-secs S] [--trace FILE]
//! ```
//!
//! * `--json FILE`  — write the measurements as JSON (the tracked baseline
//!   `BENCH_wavefront.json` is produced this way).
//! * `--check FILE` — load a baseline and fail (exit 1) if the persistent
//!   executor's speedup over the serial engine regressed by more than 25%
//!   for any case measured in both runs. The gate compares *speedups*, not
//!   raw cells/sec, so it is machine-normalized: CI hardware may be slower
//!   than the machine that wrote the baseline, but the ratio between the
//!   two engines on identical inputs should hold.
//! * `--smoke`      — only run the small fixed case (the CI `bench-smoke`
//!   job uses this together with `--check`).
//! * `--trace FILE` — additionally run one traced end-to-end PTAS solve of
//!   the first measured case and write its Chrome-trace timeline to FILE.
//!
//! Alongside the executor micro-benchmark, each case runs one full
//! `ParallelPtas` solve and reports two throughputs: cells over the *total*
//! solve wall (bisection + reconstruction included — the figure
//! `SolveStats::dp_cells_per_sec` has always produced) and cells over the
//! dp *phase* wall only (`dp_phase_cells_per_sec`). The micro-benchmark
//! times nothing but the DP sweep, so the phase-scoped figure is the one
//! comparable to the executor columns.

use pcmax_bench::timing::time_stable;
use pcmax_core::json::{self, Value};
use pcmax_core::{SolveRequest, Solver};
use pcmax_parallel::{ParallelDp, ParallelPtas};
use pcmax_ptas::dp::DpProblem;
use pcmax_ptas::{rounded_problem, EpsilonParams, SerialEngine, SpaceEngine};
use pcmax_workloads::{generate, Distribution, Family};
use std::process::ExitCode;

/// Threads the parallel executor is pinned to.
const THREADS: usize = 4;

/// Regression tolerance on the persistent/serial speedup ratio.
const TOLERANCE: f64 = 0.25;

/// Interleaved persistent/serial timing rounds per case; the gated speedup
/// is the median of the per-round ratios, so drift across the run (clock
/// boost, a noisy neighbour) hits both engines of a round alike.
const ROUNDS: usize = 5;

struct Case {
    name: &'static str,
    machines: usize,
    jobs: usize,
    epsilon: f64,
    smoke: bool,
}

/// The paper's U(1,100) workload at the Figure-2 scale, plus a small fixed
/// instance for the CI smoke gate.
const CASES: &[Case] = &[
    Case {
        name: "u100-m20-n100-eps0.3",
        machines: 20,
        jobs: 100,
        epsilon: 0.3,
        smoke: false,
    },
    Case {
        name: "smoke-u100-m10-n50-eps0.3",
        machines: 10,
        jobs: 50,
        epsilon: 0.3,
        smoke: true,
    },
];

struct Measurement {
    name: &'static str,
    cells: u64,
    /// Best of the rounds, per engine.
    persistent_cps: f64,
    serial_cps: f64,
    /// Median over the rounds of persistent/serial cells per second.
    speedup: f64,
    /// Full-solve throughput over the *total* wall (bisection included).
    solve_total_cps: Option<f64>,
    /// Full-solve throughput over the dp phase wall only — the figure
    /// comparable to the executor micro-benchmark columns above.
    solve_dp_phase_cps: Option<f64>,
}

impl Measurement {
    fn to_json(&self) -> Value {
        let mut fields = vec![
            ("case", Value::Str(self.name.to_string())),
            ("cells", Value::UInt(self.cells)),
            (
                "persistent_cells_per_sec",
                Value::Float(self.persistent_cps),
            ),
            ("serial_cells_per_sec", Value::Float(self.serial_cps)),
            ("speedup", Value::Float(self.speedup)),
        ];
        if let Some(cps) = self.solve_total_cps {
            fields.push(("solve_cells_per_sec_total_wall", Value::Float(cps)));
        }
        if let Some(cps) = self.solve_dp_phase_cps {
            fields.push(("solve_cells_per_sec_dp_phase", Value::Float(cps)));
        }
        json::object(fields)
    }
}

fn rounded(case: &Case) -> DpProblem {
    let inst = generate(
        Family::new(case.machines, case.jobs, Distribution::U1To100),
        1,
    );
    let eps = EpsilonParams::new(case.epsilon).expect("valid epsilon");
    let target = pcmax_core::lower_bound(&inst);
    rounded_problem(&inst, &eps, target, DpProblem::DEFAULT_MAX_ENTRIES).0
}

fn measure(case: &Case, min_secs: f64) -> Measurement {
    let problem = rounded(case);
    let cells = (problem.build_table().expect("guarded size").len - 1) as u64;

    let persistent = ParallelDp::with_threads(THREADS);

    // The two engines must agree before their speeds are worth comparing.
    let a = persistent.solve(&problem).expect("persistent solve");
    let b = SerialEngine.solve(&problem).expect("serial solve");
    assert_eq!(a, b, "{}: engines diverged", case.name);

    let rounds: Vec<(f64, f64)> = (0..ROUNDS)
        .map(|_| {
            let t_persistent = time_stable(min_secs, || persistent.solve(&problem).expect("solve"));
            let t_serial = time_stable(min_secs, || SerialEngine.solve(&problem).expect("solve"));
            (cells as f64 / t_persistent, cells as f64 / t_serial)
        })
        .collect();
    let mut ratios: Vec<f64> = rounds.iter().map(|(p, s)| p / s).collect();
    ratios.sort_by(f64::total_cmp);

    // One end-to-end PTAS solve for the two report-level throughputs: the
    // total-wall figure divides by bisection + reconstruction too, so only
    // the dp-phase figure compares like with like against the columns above.
    let inst = generate(
        Family::new(case.machines, case.jobs, Distribution::U1To100),
        1,
    );
    let solver = ParallelPtas::with_threads(case.epsilon, THREADS).expect("valid epsilon");
    let report = solver
        .solve(&SolveRequest::new(&inst))
        .expect("end-to-end solve");

    Measurement {
        name: case.name,
        cells,
        persistent_cps: rounds.iter().map(|r| r.0).fold(0.0, f64::max),
        serial_cps: rounds.iter().map(|r| r.1).fold(0.0, f64::max),
        speedup: ratios[ROUNDS / 2],
        solve_total_cps: report.stats.dp_cells_per_sec(),
        solve_dp_phase_cps: report.stats.dp_phase_cells_per_sec(),
    }
}

/// Runs one traced end-to-end PTAS solve of `case` and writes the merged
/// timeline as Chrome-trace JSON to `path`.
fn write_trace(case: &Case, path: &str) {
    let inst = generate(
        Family::new(case.machines, case.jobs, Distribution::U1To100),
        1,
    );
    let solver = ParallelPtas::with_threads(case.epsilon, THREADS).expect("valid epsilon");
    let session = pcmax_trace::Session::start().expect("no other trace session active");
    let req = SolveRequest::new(&inst).with_trace(std::sync::Arc::new(pcmax_trace::GlobalSink));
    solver.solve(&req).expect("traced end-to-end solve");
    let timeline = session.finish();
    std::fs::write(path, pcmax_trace::chrome::to_json_string(&timeline)).expect("write trace");
    println!("wrote {path} ({} trace events)", timeline.total_events());
}

fn check_against(baseline: &Value, current: &[Measurement]) -> Result<(), String> {
    let cases = baseline
        .get("cases")
        .and_then(Value::as_array)
        .ok_or("baseline JSON has no `cases` array")?;
    let mut compared = 0usize;
    for m in current {
        let Some(base) = cases
            .iter()
            .find(|c| c.get("case").and_then(Value::as_str) == Some(m.name))
        else {
            continue;
        };
        let base_speedup = base
            .get("speedup")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("baseline case {} has no `speedup`", m.name))?;
        compared += 1;
        let floor = base_speedup * (1.0 - TOLERANCE);
        println!(
            "check {:<28} baseline x{base_speedup:.2}  current x{:.2}  floor x{floor:.2}",
            m.name, m.speedup
        );
        if m.speedup < floor {
            return Err(format!(
                "{}: speedup regressed to x{:.2} (baseline x{base_speedup:.2}, \
                 floor x{floor:.2})",
                m.name, m.speedup
            ));
        }
    }
    if compared == 0 {
        return Err("no case overlapped with the baseline — gate is vacuous".to_string());
    }
    Ok(())
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut min_secs = 0.3f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--json" => json_path = args.next(),
            "--check" => check_path = args.next(),
            "--trace" => trace_path = args.next(),
            "--min-secs" => {
                min_secs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--min-secs needs a number");
            }
            // `cargo bench` forwards its own flags (e.g. --bench) to the
            // target; ignore anything we do not recognize.
            _ => {}
        }
    }

    println!("== wavefront ({THREADS} threads) ==");
    let mut results = Vec::new();
    for case in CASES.iter().filter(|c| !smoke || c.smoke) {
        let m = measure(case, min_secs);
        println!(
            "{:<28} {:>10} cells   persistent {:>12.0} cells/s   serial \
             {:>12.0} cells/s   x{:.2}",
            m.name, m.cells, m.persistent_cps, m.serial_cps, m.speedup
        );
        if let (Some(total), Some(phase)) = (m.solve_total_cps, m.solve_dp_phase_cps) {
            println!(
                "{:<28} full solve: {total:>12.0} cells/s over total wall   \
                 {phase:>12.0} cells/s in the dp phase",
                ""
            );
        }
        results.push(m);
    }

    if let Some(path) = &trace_path {
        let case = CASES
            .iter()
            .find(|c| !smoke || c.smoke)
            .expect("at least one case selected");
        write_trace(case, path);
    }

    if let Some(path) = json_path {
        let doc = json::object(vec![
            ("bench", Value::Str("wavefront".to_string())),
            ("threads", Value::UInt(THREADS as u64)),
            ("tolerance", Value::Float(TOLERANCE)),
            (
                "cases",
                Value::Array(results.iter().map(Measurement::to_json).collect()),
            ),
        ]);
        std::fs::write(&path, doc.to_string_pretty()).expect("write json");
        println!("wrote {path}");
    }

    if let Some(path) = check_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
        let baseline = json::parse(&text).expect("baseline parses");
        match check_against(&baseline, &results) {
            Ok(()) => println!("bench-smoke gate: OK (within {:.0}%)", TOLERANCE * 100.0),
            Err(msg) => {
                eprintln!("bench-smoke gate FAILED: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
