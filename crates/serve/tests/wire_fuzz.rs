//! Wire fuzz: a live daemon is sent truncated frames, oversized length
//! prefixes, byte-mutated golden payloads and random bytes. Every frame must
//! be answered with response frames (a `bad-request` error for anything that
//! does not decode) or a clean close — never a panic, an abort or a hang —
//! and a fresh connection's solve must still be served afterwards.
//!
//! One test in its own binary: the panic counter below is process-global.

use pcmax_core::json::{FromJson, ToJson};
use pcmax_core::wire::{
    encode_frame, parse_payload, read_frame, WireOp, WireOutcome, WireRequest, WireResponse,
    WireSolve, MAX_FRAME,
};
use pcmax_core::Instance;
use pcmax_engine::EngineConfig;
use pcmax_serve::{Client, Server, ServerConfig};
use proptest::prelude::*;
use proptest::{run_property, TestRng};
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

/// Panics raised anywhere in the process (daemon threads included).
static PANICS: AtomicUsize = AtomicUsize::new(0);

/// The golden request frames of `pcmax-wire/1` (see `pcmax-core`'s
/// `wire_golden` test), minus `shutdown`, which would stop the daemon.
fn golden_payloads() -> Vec<Vec<u8>> {
    let solve =
        |id, solver: &str, eps, threads, timeout_ms, times: Vec<u64>, machines| WireRequest {
            id,
            op: WireOp::Solve(WireSolve {
                solver: solver.into(),
                eps,
                threads,
                timeout_ms,
                instance: Instance::new(times, machines).expect("valid golden instance"),
            }),
        };
    [
        solve(1, "pptas", 0.25, Some(4), Some(1500), vec![9, 7, 5, 3], 2),
        solve(2, "lpt", 0.5, None, None, vec![2, 1], 1),
        WireRequest {
            id: 3,
            op: WireOp::Cancel { target: 1 },
        },
    ]
    .iter()
    .map(|request| encode_frame(&request.to_json())[4..].to_vec())
    .collect()
}

/// What one bad frame must produce: any response frames (the mutation left
/// a valid request), or only `bad-request` errors.
#[derive(Debug, Clone, Copy)]
enum Expect {
    AnyResponse,
    BadRequest,
}

fn framed(payload: &[u8]) -> Vec<u8> {
    let mut out = (payload.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(payload);
    out
}

fn random_bytes(rng: &mut TestRng, max_len: u64) -> Vec<u8> {
    (0..rng.below(max_len + 1))
        .map(|_| rng.next_u64() as u8)
        .collect()
}

/// Draws one bad frame of one of the four kinds, or `None` when a mutation
/// happens to produce a `shutdown` request.
fn bad_frame(rng: &mut TestRng, goldens: &[Vec<u8>]) -> Option<(&'static str, Vec<u8>, Expect)> {
    let golden = &goldens[rng.below(goldens.len() as u64) as usize];
    Some(match rng.below(4) {
        0 => {
            let whole = framed(golden);
            let cut = rng.below(whole.len() as u64) as usize;
            ("truncated", whole[..cut].to_vec(), Expect::BadRequest)
        }
        1 => {
            let len = MAX_FRAME as u64 + 1 + rng.below(u64::from(u32::MAX) - MAX_FRAME as u64);
            let mut bytes = (len as u32).to_be_bytes().to_vec();
            bytes.extend(random_bytes(rng, 16));
            ("oversized", bytes, Expect::BadRequest)
        }
        2 => {
            let mut payload = golden.clone();
            for _ in 0..=rng.below(4) {
                let at = rng.below(payload.len() as u64) as usize;
                payload[at] = rng.next_u64() as u8;
            }
            let decoded = parse_payload(payload.clone()).and_then(|v| WireRequest::from_json(&v));
            let expect = match decoded {
                Ok(WireRequest {
                    op: WireOp::Shutdown,
                    ..
                }) => return None,
                Ok(_) => Expect::AnyResponse,
                Err(_) => Expect::BadRequest,
            };
            ("mutated", framed(&payload), expect)
        }
        _ => {
            let bytes = random_bytes(rng, 64);
            if rng.below(2) == 0 {
                // Raw bytes: the first four are read as a length prefix.
                ("random", bytes, Expect::BadRequest)
            } else {
                ("random-framed", framed(&bytes), Expect::BadRequest)
            }
        }
    })
}

/// Sends `bytes` on a fresh connection, half-closes it, and collects every
/// response until the daemon closes the connection.
fn exchange(addr: SocketAddr, bytes: &[u8]) -> Result<Vec<WireResponse>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    // The daemon may close before reading everything (an oversized prefix):
    // a failed write is that close, seen early.
    let _ = stream.write_all(bytes);
    let _ = stream.shutdown(Shutdown::Write);
    let mut responses = Vec::new();
    loop {
        match read_frame(&mut stream) {
            Ok(Some(v)) => responses.push(
                WireResponse::from_json(&v).map_err(|e| format!("undecodable response: {e}"))?,
            ),
            Ok(None) => return Ok(responses),
            // Closing with unread input resets the connection.
            Err(e) if e.kind() == ErrorKind::ConnectionReset => return Ok(responses),
            Err(e) => return Err(format!("no clean close: {e}")),
        }
    }
}

fn check_responses(responses: &[WireResponse], expect: Expect) -> Result<(), String> {
    for response in responses {
        match (&response.outcome, expect) {
            (WireOutcome::Error { code, .. }, Expect::BadRequest) if code != "bad-request" => {
                return Err(format!("expected bad-request, got error {code}"));
            }
            (WireOutcome::Error { .. }, _) => {}
            (WireOutcome::Ok { .. } | WireOutcome::Cancelled, Expect::AnyResponse) => {}
            (other, _) => return Err(format!("unexpected response {other:?}")),
        }
    }
    Ok(())
}

/// A small solve on a fresh connection: the daemon is still serving.
fn still_serving(addr: SocketAddr) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let response = client
        .solve(WireSolve {
            solver: "lpt".into(),
            eps: 0.5,
            threads: None,
            timeout_ms: None,
            instance: Instance::new(vec![5, 4, 3, 3], 2).expect("valid instance"),
        })
        .map_err(|e| format!("solve: {e}"))?;
    match response.outcome {
        WireOutcome::Ok { makespan: 8, .. } => Ok(()),
        other => Err(format!("fresh solve not served: {other:?}")),
    }
}

#[test]
fn bad_frames_get_error_frames_or_a_clean_close() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        default_hook(info);
    }));
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        engine: EngineConfig {
            workers: 2,
            capacity: 64,
            cache_capacity: 256,
        },
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let daemon = std::thread::spawn(move || server.run());

    let goldens = golden_payloads();
    run_property(
        "bad_frames_get_error_frames_or_a_clean_close",
        &ProptestConfig::with_cases(1000),
        |rng| {
            let Some((kind, bytes, expect)) = bad_frame(rng, &goldens) else {
                return Err(TestCaseError::Reject("mutated into shutdown".into()));
            };
            let outcome = exchange(addr, &bytes)
                .and_then(|responses| check_responses(&responses, expect))
                .and_then(|()| still_serving(addr));
            prop_assert!(outcome.is_ok(), "{kind} frame {bytes:?}: {outcome:?}");
            prop_assert_eq!(PANICS.load(Ordering::SeqCst), 0, "{kind} frame {bytes:?}");
            Ok(())
        },
    );

    let client = Client::connect(addr).expect("connect");
    assert!(matches!(
        client.shutdown().expect("bye").outcome,
        WireOutcome::Bye { .. }
    ));
    daemon.join().expect("daemon thread").expect("daemon io");
    assert_eq!(PANICS.load(Ordering::SeqCst), 0, "the daemon panicked");
}
