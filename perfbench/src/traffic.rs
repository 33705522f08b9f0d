//! The in-process `pcmax-serve` daemon and the closed-loop clients that
//! drive it over TCP.

use crate::check::{check_answer, Answer};
use crate::workload::Request;
use pcmax_core::wire::{WireOutcome, WireResponse, WireSolve};
use pcmax_core::{Instance, MakespanBounds};
use pcmax_serve::{Client, Server, ServerConfig};
use std::io;
use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

/// Lifetime totals the daemon reports in its `bye` frame.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bye {
    /// Solve requests answered.
    pub served: u64,
    /// Profile-cache hits.
    pub cache_hits: u64,
    /// Profile-cache misses.
    pub cache_misses: u64,
    /// Worker park events.
    pub parks: u64,
    /// Worker wake events.
    pub wakes: u64,
}

impl Bye {
    /// Checks the totals against the requests sent: every request served,
    /// and the worker pools parked exactly as often as they woke.
    pub fn check(&self, sent: u64) -> Result<(), String> {
        if self.served != sent {
            return Err(format!(
                "bye: served {} of {sent} requests sent",
                self.served
            ));
        }
        if self.parks != self.wakes {
            return Err(format!(
                "bye: {} parks but {} wakes",
                self.parks, self.wakes
            ));
        }
        Ok(())
    }
}

/// A running daemon at its default configuration.
pub struct Daemon {
    addr: SocketAddr,
    thread: JoinHandle<io::Result<pcmax_engine::EngineTotals>>,
}

impl Daemon {
    /// Binds an ephemeral local port, starts the engine and the accept loop.
    pub fn start() -> io::Result<Self> {
        let server = Server::bind(ServerConfig::default())?;
        let addr = server.local_addr()?;
        let thread = std::thread::spawn(move || server.run());
        Ok(Self { addr, thread })
    }

    /// The listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Opens `n` client connections.
    pub fn connect(&self, n: usize) -> io::Result<Vec<Client>> {
        (0..n).map(|_| Client::connect(self.addr)).collect()
    }

    /// Closes `clients`, shuts the daemon down over the wire, waits for it,
    /// and returns its `bye` totals.
    pub fn stop(self, mut clients: Vec<Client>) -> Result<Bye, String> {
        let last = match clients.pop() {
            Some(client) => client,
            None => Client::connect(self.addr).map_err(|e| format!("connect: {e}"))?,
        };
        drop(clients);
        let bye = last.shutdown().map_err(|e| format!("shutdown: {e}"));
        self.thread
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| format!("daemon: {e}"))?;
        match bye?.outcome {
            WireOutcome::Bye {
                served,
                cache_hits,
                cache_misses,
                parks,
                wakes,
            } => Ok(Bye {
                served,
                cache_hits,
                cache_misses,
                parks,
                wakes,
            }),
            other => Err(format!("shutdown answered {other:?}")),
        }
    }
}

/// The wire request for `req`.
pub fn wire_solve(req: &Request) -> WireSolve {
    WireSolve {
        solver: req.solver.into(),
        eps: req.eps,
        threads: None,
        timeout_ms: None,
        instance: req.instance.clone(),
    }
}

/// What one closed-loop phase saw.
#[derive(Debug, Default)]
pub struct Tally {
    /// Requests written to the wire.
    pub sent: u64,
    /// Ok responses that passed the output check.
    pub ok: u64,
    /// Requests that failed: error, cancelled, overloaded or missing
    /// responses, and answers failing the output check.
    pub failed: u64,
    /// Client latency of every response, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Σ makespan ÷ lower bound over the ok responses.
    pub ratio_sum: f64,
    /// Ok responses that hit the profile cache.
    pub cache_hit_responses: u64,
    /// Answers of the requests selected for the sequential check, by pool
    /// index.
    pub kept: Vec<(usize, Answer)>,
    /// Reasons of failed requests.
    pub problems: Vec<String>,
}

impl Tally {
    /// Adds another phase's counts to this one.
    pub fn merge(&mut self, other: Tally) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.latencies_ms.extend(other.latencies_ms);
        self.ratio_sum += other.ratio_sum;
        self.cache_hit_responses += other.cache_hit_responses;
        self.kept.extend(other.kept);
        self.problems.extend(other.problems);
    }

    /// Classifies one response to `req` and checks its answer.
    pub fn record(
        &mut self,
        inst: &Instance,
        response: io::Result<WireResponse>,
    ) -> Option<Answer> {
        let outcome = match response {
            Ok(response) => response.outcome,
            Err(e) => {
                self.fail(format!("missing response: {e}"));
                return None;
            }
        };
        let WireOutcome::Ok {
            makespan,
            certified_target,
            assignment,
            cache_hit,
            ..
        } = outcome
        else {
            self.fail(format!("not ok: {outcome:?}"));
            return None;
        };
        let answer = Answer {
            makespan,
            certified: certified_target,
            assignment,
        };
        if let Err(e) = check_answer(inst, &answer) {
            self.fail(e);
            return None;
        }
        self.ok += 1;
        self.cache_hit_responses += u64::from(cache_hit);
        self.ratio_sum += makespan as f64 / MakespanBounds::of(inst).lower.max(1) as f64;
        Some(answer)
    }

    fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.problems.len() < 4 {
            self.problems.push(reason);
        }
    }
}

/// Drives `clients` in a closed loop: each sends its next request when the
/// previous answer arrives. Request `i` of `range` is `pool[i % pool.len()]`;
/// the phase ends when `range` is used up or, once `deadline` passes, when
/// every in-flight request has been answered. Answers of the pool indices
/// in `keep` are returned for the sequential check.
pub fn closed_loop(
    clients: &mut [Client],
    pool: &[Request],
    range: Range<usize>,
    deadline: Option<Instant>,
    keep: Range<usize>,
) -> Tally {
    let next = AtomicUsize::new(range.start);
    let total = Mutex::new(Tally::default());
    std::thread::scope(|s| {
        for client in clients.iter_mut() {
            let (next, total, keep) = (&next, &total, keep.clone());
            let end = range.end;
            s.spawn(move || {
                let mut tally = Tally::default();
                loop {
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        break;
                    }
                    // Relaxed: the counter only hands out distinct indices.
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= end {
                        break;
                    }
                    let req = &pool[i % pool.len()];
                    let solve = wire_solve(req);
                    tally.sent += 1;
                    let start = Instant::now();
                    let response = client.solve(solve);
                    tally.latencies_ms.push(start.elapsed().as_secs_f64() * 1e3);
                    let broken = response.is_err();
                    if let Some(answer) = tally.record(&req.instance, response) {
                        if keep.contains(&i) {
                            tally.kept.push((i, answer));
                        }
                    }
                    if broken {
                        break;
                    }
                }
                total.lock().expect("no tally holder panics").merge(tally);
            });
        }
    });
    total.into_inner().expect("no tally holder panics")
}
