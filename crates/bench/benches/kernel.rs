//! Micro-benchmark for the wavefront **cell kernel**: DP cells per second of
//! the production sweep (the tiled bucketed sweep under the default adaptive
//! chunking), isolated from table construction and witness extraction, at
//! 1/2/4 worker threads, against the serial reference engine
//! (`SerialEngine`) on the same table. The `u100-m*-n*-eps*` grid runs from
//! the CI smoke case up to the 2.57M-cell table of the paper's largest
//! instance.
//!
//! ```text
//! cargo bench -p pcmax-bench --bench kernel -- [--smoke] [--list] \
//!     [--json FILE] [--check FILE] [--min-secs S]
//! ```
//!
//! * `--list`       — print each case's table size and exit (grid design aid).
//! * `--json FILE`  — write measurements (tracked `BENCH_kernel.json`).
//! * `--check FILE` — regression gate: fail if the single-threaded
//!   sweep/serial speedup regressed by more than 25% against the baseline
//!   for any case in both runs. It compares *ratios*, so it is
//!   machine-normalized.
//! * `--smoke`      — only the small fixed case (CI `bench-smoke`).
//!
//! Each case runs [`ROUNDS`] interleaved rounds (serial, 1T, 2T, 4T, serial,
//! …), so a burst of host load hits every column alike, and every measuring
//! run applies four **same-run gates** to the medians of the per-round
//! ratios:
//!
//! * the sweep at 1 thread is at least [`VS_SERIAL`]× `SerialEngine` on
//!   every case, and at least [`BIG_CASE_VS_SERIAL`]× on the big case;
//! * under the adaptive crossover, the sweep at any thread count reaches
//!   at least [`NEVER_SLOWER`]× its 1-thread rate on every case — threads
//!   may not make a table slower;
//! * on a host with at least 2 cores, the big case at 2 threads reaches
//!   [`BIG_CASE_2T`]× its 1-thread rate.
//!
//! Every timed sweep is first checked bit-identical against the serial
//! engine's table.

use pcmax_bench::timing::time_stable;
use pcmax_core::json::{self, Value};
use pcmax_parallel::simd;
use pcmax_parallel::wavefront::bucketed_sweep_space;
use pcmax_ptas::dp::DpProblem;
use pcmax_ptas::space::{PcmaxSpace, SerialEngine, SpaceEngine};
use pcmax_ptas::table::DpScratch;
use pcmax_ptas::{rounded_problem, EpsilonParams};
use pcmax_workloads::{generate, Distribution, Family};
use std::process::ExitCode;

/// Worker-thread columns.
const THREAD_COUNTS: &[usize] = &[1, 2, 4];

/// Regression tolerance of `--check` on the sweep/serial speedup.
const TOLERANCE: f64 = 0.25;

/// Same-run gate: the sweep at 1 thread ≥ this × `SerialEngine`, every case.
const VS_SERIAL: f64 = 1.0;

/// Same-run gate: the big case at 1 thread ≥ this × `SerialEngine`.
const BIG_CASE_VS_SERIAL: f64 = 3.0;

/// Crossover gate: sweep@T ≥ this × sweep@1T on every case.
const NEVER_SLOWER: f64 = 0.9;

/// Crossover gate: the big case at 2 threads ≥ this × its 1-thread rate.
const BIG_CASE_2T: f64 = 1.3;

/// The case the big-case gates apply to (the paper's largest).
const BIG_CASE: &str = "u100-m30-n90-eps0.3";

/// Interleaved rounds per case; every gate reads the median over them.
const ROUNDS: usize = 5;

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
    /// Best of the rounds.
    cells_per_sec: f64,
    /// Median over the rounds of this thread count's cells/sec over the
    /// same round's 1-thread cells/sec.
    vs_1t: f64,
}

struct Measurement {
    name: &'static str,
    cells: u64,
    /// Best of the rounds.
    serial_cps: f64,
    /// Median over the rounds of the 1-thread sweep's cells/sec over the
    /// same round's `SerialEngine` cells/sec.
    vs_serial: f64,
    columns: Vec<Column>,
}

impl Measurement {
    fn to_json(&self) -> Value {
        json::object(vec![
            ("case", Value::Str(self.name.to_string())),
            ("cells", Value::UInt(self.cells)),
            ("serial_cells_per_sec", Value::Float(self.serial_cps)),
            (
                "columns",
                Value::Array(
                    self.columns
                        .iter()
                        .map(|c| {
                            json::object(vec![
                                ("threads", Value::UInt(c.threads as u64)),
                                ("cells_per_sec", Value::Float(c.cells_per_sec)),
                                ("vs_1t", Value::Float(c.vs_1t)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("speedup", Value::Float(self.vs_serial)),
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

/// The median of `values` (sorted in place).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

fn measure(case: &Case, min_secs: f64) -> Measurement {
    let problem = rounded(case);
    let mut scratch = DpScratch::new();
    let mut table = problem.build_table().expect("guarded size");
    let configs = problem.configs_with_offsets(&table);
    let space = PcmaxSpace::new(&configs);
    let cells = (table.len - 1) as u64;

    // Both engines rewrite every cell, so re-sweeping the same table in
    // place is sound — and it is exactly the kernel-only measurement wanted.
    SerialEngine.sweep(&mut table, &space, &mut scratch);
    let want = table.values.clone();
    let mut serial = || -> f64 {
        let secs = time_stable(min_secs, || {
            SerialEngine.sweep(&mut table, &space, &mut scratch)
        });
        cells as f64 / secs
    };
    let mut sweep_table = problem.build_table().expect("guarded size");
    let mut sweep = |threads: usize| -> f64 {
        sweep_table.values[0] = 0;
        bucketed_sweep_space(&mut sweep_table, &space, threads, &mut DpScratch::new());
        assert_eq!(
            sweep_table.values, want,
            "{}: the sweep at {threads} threads diverged from the serial engine",
            case.name
        );
        let mut scratch = DpScratch::new();
        let secs = time_stable(min_secs, || {
            sweep_table.values[0] = 0;
            bucketed_sweep_space(&mut sweep_table, &space, threads, &mut scratch);
        });
        cells as f64 / secs
    };

    // rounds[r] = [serial, 1T, 2T, 4T]
    let rounds: Vec<Vec<f64>> = (0..ROUNDS)
        .map(|_| {
            std::iter::once(serial())
                .chain(THREAD_COUNTS.iter().map(|&threads| sweep(threads)))
                .collect()
        })
        .collect();
    let best = |i: usize| rounds.iter().map(|r| r[i]).fold(0.0, f64::max);
    let columns = THREAD_COUNTS
        .iter()
        .enumerate()
        .map(|(i, &threads)| Column {
            threads,
            cells_per_sec: best(i + 1),
            vs_1t: median(&mut rounds.iter().map(|r| r[i + 1] / r[1]).collect::<Vec<_>>()),
        })
        .collect();
    Measurement {
        name: case.name,
        cells,
        serial_cps: best(0),
        vs_serial: median(&mut rounds.iter().map(|r| r[1] / r[0]).collect::<Vec<_>>()),
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
            m.name, m.vs_serial
        );
        if m.vs_serial < floor {
            return Err(format!(
                "{}: sweep/serial speedup regressed to x{:.2} (baseline \
                 x{base_speedup:.2}, floor x{floor:.2})",
                m.name, m.vs_serial
            ));
        }
    }
    if compared == 0 {
        return Err("no case overlapped with the baseline — gate is vacuous".to_string());
    }
    Ok(())
}

/// One gate line: prints it and records a failure below `floor`.
fn gate(failures: &mut Vec<String>, what: String, ratio: f64, floor: f64) {
    println!("gate {what:<40} x{ratio:.2}  floor x{floor:.2}");
    if ratio < floor {
        failures.push(format!("{what} is x{ratio:.2} (floor x{floor:.2})"));
    }
}

/// The same-run gates (see the module docs).
fn same_run_gates(results: &[Measurement], cores: usize) -> Result<(), String> {
    let mut failures = Vec::new();
    for m in results {
        let big = m.name == BIG_CASE;
        gate(
            &mut failures,
            format!("{} 1T/serial", m.name),
            m.vs_serial,
            if big { BIG_CASE_VS_SERIAL } else { VS_SERIAL },
        );
        for c in &m.columns[1..] {
            gate(
                &mut failures,
                format!("{} {}T/1T", m.name, c.threads),
                c.vs_1t,
                if big && c.threads == 2 && cores >= 2 {
                    BIG_CASE_2T
                } else {
                    NEVER_SLOWER
                },
            );
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
        println!(
            "{:<24} {:>10} cells   serial {:>12.0} cells/s",
            m.name, m.cells, m.serial_cps
        );
        for c in &m.columns {
            println!(
                "  {} threads: {:>12.0} cells/s   x{:.2} of 1T",
                c.threads, c.cells_per_sec, c.vs_1t
            );
        }
        println!("  sweep/serial at 1 thread: x{:.2}", m.vs_serial);
        results.push(m);
    }

    if let Some(path) = json_path {
        let doc = json::object(vec![
            ("bench", Value::Str("kernel".to_string())),
            ("isa", Value::Str(simd::kernel_isa().to_string())),
            ("rounds", Value::UInt(ROUNDS as u64)),
            ("tolerance", Value::Float(TOLERANCE)),
            ("vs_serial_floor", Value::Float(VS_SERIAL)),
            ("big_case_vs_serial_floor", Value::Float(BIG_CASE_VS_SERIAL)),
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
    match same_run_gates(&results, cores) {
        Ok(()) => println!("same-run gates: OK ({cores} cores)"),
        Err(msg) => {
            eprintln!("same-run gates FAILED: {msg}");
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
