//! Micro-benchmark for the batched wavefront **cell kernel**: DP cells per
//! second of the bucketed sweep, isolated from table construction and
//! witness extraction, across three kernel columns —
//!
//! * `scalar` — the pre-batching per-cell kernel ([`CellKernel::Scalar`]),
//! * `lane`   — the strip kernel pinned to the portable fixed-width lane
//!   loops (`simd::force_portable(true)`),
//! * `native` — the strip kernel under the widest ISA the CPU offers
//!   (compile-time intrinsics or the runtime AVX2 trampoline; the JSON
//!   records which via `isa`),
//!
//! each at 1/2/4 worker threads, over a `u100-m*-n*-eps*` grid whose
//! largest case exceeds 10⁶ DP cells — the tracked cases in
//! `BENCH_wavefront.json` (≤1139 cells) are far too small to measure
//! throughput honestly.
//!
//! ```text
//! cargo bench -p pcmax-bench --bench kernel -- [--smoke] [--list] \
//!     [--json FILE] [--check FILE] [--min-secs S]
//! ```
//!
//! * `--list`       — print each case's table size and exit (grid design aid).
//! * `--json FILE`  — write measurements (tracked `BENCH_kernel.json`).
//! * `--check FILE` — regression gate: fail if the single-threaded
//!   native/scalar speedup regressed by more than 25% for any case in both
//!   runs. Like the `wavefront` gate this compares *ratios*, so it is
//!   machine-normalized.
//! * `--smoke`      — only the small fixed case (CI `bench-smoke`).
//!
//! Every measuring run also applies the **crossover gates**, whose figures
//! are again same-run ratios: under the default adaptive chunking (the
//! serial/parallel crossover) the native kernel at any thread count must
//! reach at least 0.9× its 1-thread cells/sec on every case — threads may
//! not make a table slower — and, on a host with at least 2 cores, the
//! largest case at 2 threads must reach 1.3× its 1-thread rate.
//!
//! Every timed sweep is first checked bit-identical against the serial
//! generic engine on the same rounded problem.

use pcmax_bench::timing::time_stable;
use pcmax_core::json::{self, Value};
use pcmax_parallel::wavefront::bucketed_sweep_space_with;
use pcmax_parallel::{simd, CellKernel, Chunking};
use pcmax_ptas::dp::DpProblem;
use pcmax_ptas::space::{PcmaxSpace, SerialEngine, SpaceEngine};
use pcmax_ptas::table::DpScratch;
use pcmax_ptas::{rounded_problem, EpsilonParams};
use pcmax_workloads::{generate, Distribution, Family};
use std::process::ExitCode;

/// Worker-thread columns; the last is the PR's acceptance point.
const THREAD_COUNTS: &[usize] = &[1, 2, 4];

/// Regression tolerance on the native/scalar speedup ratio.
const TOLERANCE: f64 = 0.25;

/// Crossover gate: native@T ≥ this × native@1T on every case.
const NEVER_SLOWER: f64 = 0.9;

/// Crossover gate: the big case at 2 threads ≥ this × its 1-thread rate.
const BIG_CASE_2T: f64 = 1.3;

/// The case the 2-thread scaling gate applies to (the paper's largest).
const BIG_CASE: &str = "u100-m30-n90-eps0.3";

/// Interleaved rounds (1T, 2T, 4T, 1T, …) of the native column: a burst of
/// host load then hits every thread count alike, so the per-round ratios
/// the crossover gates use stay comparable.
const NATIVE_ROUNDS: usize = 5;

struct Case {
    name: &'static str,
    machines: usize,
    jobs: usize,
    epsilon: f64,
    smoke: bool,
}

/// The paper's U(1,100) workload, scaled from the CI smoke case up to a
/// table of more than 10⁶ cells. σ only grows when `T` stays near the largest
/// job size (small `n/m`) — otherwise every job falls below the `ε·T` long
/// threshold and the table collapses — so the grid scales `m` with `n` and
/// trims ε rather than inflating `n` alone.
const CASES: &[Case] = &[
    Case {
        name: "smoke-u100-m10-n50-eps0.3",
        machines: 10,
        jobs: 50,
        epsilon: 0.3,
        smoke: true,
    },
    Case {
        name: "u100-m20-n100-eps0.3",
        machines: 20,
        jobs: 100,
        epsilon: 0.3,
        smoke: false,
    },
    Case {
        name: "u100-m40-n120-eps0.35",
        machines: 40,
        jobs: 120,
        epsilon: 0.35,
        smoke: false,
    },
    Case {
        name: "u100-m30-n90-eps0.3",
        machines: 30,
        jobs: 90,
        epsilon: 0.3,
        smoke: false,
    },
];

struct Column {
    threads: usize,
    scalar_cps: f64,
    lane_cps: f64,
    native_cps: f64,
    /// Median over the interleaved native rounds of this thread count's
    /// cells/sec over the same round's 1-thread cells/sec.
    native_vs_1t: f64,
}

struct Measurement {
    name: &'static str,
    cells: u64,
    columns: Vec<Column>,
}

impl Measurement {
    /// Native-over-scalar speedup at **one** thread — the machine-normalized
    /// figure the `--check` gate compares. Single-threaded deliberately: at
    /// higher thread counts the barrier and park/wake costs are shared by
    /// both kernels and drown the ratio in scheduler noise, while the pool
    /// itself is already gated by the `wavefront` bench.
    fn speedup(&self) -> f64 {
        let first = self.columns.first().expect("at least one thread count");
        first.native_cps / first.scalar_cps
    }

    fn to_json(&self) -> Value {
        json::object(vec![
            ("case", Value::Str(self.name.to_string())),
            ("cells", Value::UInt(self.cells)),
            (
                "columns",
                Value::Array(
                    self.columns
                        .iter()
                        .map(|c| {
                            json::object(vec![
                                ("threads", Value::UInt(c.threads as u64)),
                                ("scalar_cells_per_sec", Value::Float(c.scalar_cps)),
                                ("lane_cells_per_sec", Value::Float(c.lane_cps)),
                                ("native_cells_per_sec", Value::Float(c.native_cps)),
                                ("native_vs_1t", Value::Float(c.native_vs_1t)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("speedup", Value::Float(self.speedup())),
        ])
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
    let mut scratch = DpScratch::new();

    // Reference values from the serial generic engine, once.
    let mut reference = problem.build_table().expect("guarded size");
    let ref_configs = problem.configs_with_offsets(&reference);
    SerialEngine.sweep(&mut reference, &PcmaxSpace::new(&ref_configs), &mut scratch);
    let want = reference.values_row_major();
    let cells = (reference.len - 1) as u64;

    let mut table = problem
        .build_level_major_table_in(&mut scratch)
        .expect("guarded size");
    let configs = problem.configs_with_offsets(&table);
    let space = PcmaxSpace::new(&configs);

    // The sweep rewrites every cell, so re-sweeping the same table in place
    // is sound — and it is exactly the kernel-only measurement we want.
    let mut sweep = |threads: usize, kernel: CellKernel| -> f64 {
        table.values[0] = 0;
        bucketed_sweep_space_with(
            &mut table,
            &space,
            threads,
            &mut scratch,
            kernel,
            Chunking::default(),
        );
        assert_eq!(
            table.values_row_major(),
            want,
            "{}: {kernel:?} kernel diverged from the serial engine",
            case.name
        );
        let secs = time_stable(min_secs, || {
            table.values[0] = 0;
            bucketed_sweep_space_with(
                &mut table,
                &space,
                threads,
                &mut scratch,
                kernel,
                Chunking::default(),
            );
        });
        cells as f64 / secs
    };
    // Best-of-3: the max rate filters scheduler noise, which matters for
    // the ratio gate far more than absolute accuracy does.
    let mut best_of_3 = |threads: usize, kernel: CellKernel| -> f64 {
        (0..3).map(|_| sweep(threads, kernel)).fold(0.0, f64::max)
    };

    let mut columns = Vec::new();
    for &threads in THREAD_COUNTS {
        let scalar_cps = best_of_3(threads, CellKernel::Scalar);
        simd::force_portable(true);
        let lane_cps = best_of_3(threads, CellKernel::Strip);
        simd::force_portable(false);
        columns.push(Column {
            threads,
            scalar_cps,
            lane_cps,
            native_cps: 0.0,
            native_vs_1t: 1.0,
        });
    }
    let rounds: Vec<Vec<f64>> = (0..NATIVE_ROUNDS)
        .map(|_| {
            THREAD_COUNTS
                .iter()
                .map(|&threads| sweep(threads, CellKernel::Strip))
                .collect()
        })
        .collect();
    for (i, column) in columns.iter_mut().enumerate() {
        column.native_cps = rounds.iter().map(|r| r[i]).fold(0.0, f64::max);
        let mut ratios: Vec<f64> = rounds.iter().map(|r| r[i] / r[0]).collect();
        ratios.sort_by(f64::total_cmp);
        column.native_vs_1t = ratios[ratios.len() / 2];
    }

    Measurement {
        name: case.name,
        cells,
        columns,
    }
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
            "check {:<24} baseline x{base_speedup:.2}  current x{:.2}  floor x{floor:.2}",
            m.name,
            m.speedup()
        );
        if m.speedup() < floor {
            return Err(format!(
                "{}: native/scalar speedup regressed to x{:.2} (baseline \
                 x{base_speedup:.2}, floor x{floor:.2})",
                m.name,
                m.speedup()
            ));
        }
    }
    if compared == 0 {
        return Err("no case overlapped with the baseline — gate is vacuous".to_string());
    }
    Ok(())
}

/// The crossover gates (see the module docs), over same-run ratios.
fn crossover_gates(results: &[Measurement], cores: usize) -> Result<(), String> {
    let mut failures = Vec::new();
    for m in results {
        for c in &m.columns[1..] {
            let ratio = c.native_vs_1t;
            println!(
                "gate {:<26} native {}T/1T x{ratio:.2}  floor x{NEVER_SLOWER:.2}",
                m.name, c.threads
            );
            if ratio < NEVER_SLOWER {
                failures.push(format!(
                    "{} at {} threads runs at x{ratio:.2} of 1 thread",
                    m.name, c.threads
                ));
            }
        }
        if m.name == BIG_CASE && cores >= 2 {
            if let Some(c) = m.columns.iter().find(|c| c.threads == 2) {
                let ratio = c.native_vs_1t;
                println!(
                    "gate {:<26} native 2T/1T x{ratio:.2}  floor x{BIG_CASE_2T:.2}",
                    m.name
                );
                if ratio < BIG_CASE_2T {
                    failures.push(format!("{} scales only x{ratio:.2} at 2 threads", m.name));
                }
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() -> ExitCode {
    let mut smoke = false;
    let mut list = false;
    let mut json_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut min_secs = 0.3f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--list" => list = true,
            "--json" => json_path = args.next(),
            "--check" => check_path = args.next(),
            "--min-secs" => {
                min_secs = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .expect("--min-secs needs a number");
            }
            // `cargo bench` forwards its own flags; ignore the rest.
            _ => {}
        }
    }

    if list {
        for case in CASES {
            let problem = rounded(case);
            match problem.build_table() {
                Ok(table) => println!(
                    "{:<24} {:>10} cells   dims {:?}",
                    case.name,
                    table.len - 1,
                    table.dims
                ),
                Err(e) => println!("{:<24} oversize: {e}", case.name),
            }
        }
        return ExitCode::SUCCESS;
    }

    println!("== kernel (isa: {}) ==", simd::kernel_isa());
    let mut results = Vec::new();
    for case in CASES.iter().filter(|c| !smoke || c.smoke) {
        let m = measure(case, min_secs);
        println!("{:<24} {:>10} cells", m.name, m.cells);
        for c in &m.columns {
            println!(
                "  {} threads: scalar {:>12.0}   lane {:>12.0}   native {:>12.0} cells/s",
                c.threads, c.scalar_cps, c.lane_cps, c.native_cps
            );
        }
        println!("  native/scalar speedup at 1 thread: x{:.2}", m.speedup());
        results.push(m);
    }

    if let Some(path) = json_path {
        let doc = json::object(vec![
            ("bench", Value::Str("kernel".to_string())),
            ("isa", Value::Str(simd::kernel_isa().to_string())),
            ("tolerance", Value::Float(TOLERANCE)),
            ("never_slower_floor", Value::Float(NEVER_SLOWER)),
            ("big_case_2t_floor", Value::Float(BIG_CASE_2T)),
            (
                "cases",
                Value::Array(results.iter().map(Measurement::to_json).collect()),
            ),
        ]);
        std::fs::write(&path, doc.to_string_pretty()).expect("write json");
        println!("wrote {path}");
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    match crossover_gates(&results, cores) {
        Ok(()) => println!("crossover gates: OK ({cores} cores)"),
        Err(msg) => {
            eprintln!("crossover gates FAILED: {msg}");
            return ExitCode::FAILURE;
        }
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
