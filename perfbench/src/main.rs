//! `pcmax-perfbench`: the end-to-end and per-layer benchmark of the pcmax
//! serving stack and the parallel PTAS.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mix-fresh|mix-repeat|big-solve|all --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end figures of one workload; `--trace 1`
//! is the separate traced run that splits a fixed sample of its requests
//! across the layers. `--workload all` runs every workload, each in its own
//! process. `--smoke` shrinks every size for the self-test. The last line
//! of standard output is the JSON verdict; `perfbench/out/` receives the
//! self-describing record and, for traced runs, the spans.

mod check;
mod e2e;
mod layers;
mod report;
mod stats;
mod sys;
mod trace;
mod traffic;
mod workload;

use pcmax_core::json::{self, Value};
use report::Outcome;
use std::process::{Command, ExitCode};
use workload::{Scale, Workload, SPEED_MAX};

const USAGE: &str = "usage: pcmax-perfbench --workload mix-fresh|mix-repeat|big-solve|all \
                     --seed N --seconds S --trace 0|1 [--smoke]";

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload measured.
    pub workload: Workload,
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Measurement or self-test sizes.
    pub scale: Scale,
    /// Closed-loop client connections: at most one per core, two at most.
    pub clients: usize,
}

impl Config {
    /// Records how the run is set up.
    pub fn describe(&self, out: &mut Outcome) {
        let solver_threads = pcmax_parallel::effective_threads(None);
        let engine_workers = match self.workload {
            Workload::BigSolve if !self.trace => e2e::big_engine().workers,
            _ => pcmax_engine::EngineConfig::default().workers,
        };
        let clients = match self.workload {
            Workload::BigSolve if !self.trace => 0,
            Workload::BigSolve => 1,
            _ => self.clients,
        };
        out.fact("bench", Value::Str("pcmax-perfbench/1".into()));
        out.fact("workload", Value::Str(self.workload.name().into()));
        out.fact("why", Value::Str(self.workload.why().into()));
        out.fact("seed", Value::UInt(self.seed));
        out.fact("seconds", Value::Float(self.seconds));
        out.fact("trace", Value::Bool(self.trace));
        out.fact(
            "scale",
            Value::Str(format!("{:?}", self.scale).to_lowercase()),
        );
        out.fact("commit", Value::Str(sys::commit()));
        out.fact("nproc", Value::UInt(sys::nproc() as u64));
        out.fact("load", Value::Str("closed loop, one process".into()));
        out.fact("clients", Value::UInt(clients as u64));
        out.fact("engine_workers", Value::UInt(engine_workers as u64));
        out.fact("solver_threads", Value::UInt(solver_threads as u64));
        out.fact(
            "kernel_isa",
            Value::Str(pcmax_parallel::simd::kernel_isa().into()),
        );
        out.fact("eps", Value::Float(self.workload.eps()));
        if self.workload != Workload::BigSolve {
            out.fact("ptas_q_speeds", Value::Str(format!("U(1,{SPEED_MAX})")));
        }
    }

    fn file_stem(&self) -> String {
        format!(
            "{}-seed{}-trace{}",
            self.workload.name(),
            self.seed,
            u8::from(self.trace)
        )
    }
}

/// Command-line arguments; `workload: None` means every workload.
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    match workload.as_deref() {
        None => return Err("--workload is required".into()),
        Some("all") => {}
        Some(name) => {
            args.workload =
                Some(Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?)
        }
    }
    Ok(args)
}

fn run_one(args: &Args, workload: Workload) -> ExitCode {
    let cfg = Config {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scale: if args.smoke {
            Scale::Smoke
        } else {
            Scale::Full
        },
        clients: sys::nproc().clamp(1, 2),
    };
    let out = if cfg.trace {
        layers::run(&cfg)
    } else {
        e2e::run(&cfg)
    };
    out.finish(&cfg.file_stem());
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in a process of its own and ends with one verdict
/// whose metrics are prefixed by workload name.
fn run_all(args: &Args) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the benchmark executable");
        return ExitCode::FAILURE;
    };
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name(), "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        let output = match cmd.output() {
            Ok(output) => output,
            Err(e) => {
                eprintln!("{}: cannot run: {e}", w.name());
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&output.stdout);
        println!("## {}", w.name());
        print!("{stdout}");
        let verdict = stdout.lines().last().and_then(|l| json::parse(l).ok());
        let field = |key: &str| verdict.as_ref().and_then(|v| v.get(key)).cloned();
        correct &= output.status.success() && field("correct") == Some(Value::Bool(true));
        attempted += field("attempted").and_then(|v| v.as_u64()).unwrap_or(0);
        failed += field("failed").and_then(|v| v.as_u64()).unwrap_or(1);
        if let Some(Value::Object(members)) = field("metrics") {
            metrics.extend(
                members
                    .into_iter()
                    .map(|(k, v)| (format!("{}.{k}", w.name()), v)),
            );
        }
    }
    let verdict = json::object(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(attempted.max(1))),
        ("failed", Value::UInt(failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    println!("{}", verdict.to_string_compact());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(w) => run_one(&args, w),
        None => run_all(&args),
    }
}
