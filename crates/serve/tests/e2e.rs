//! End-to-end daemon tests: real TCP, real frames, real engine.

use pcmax_core::wire::{WireOutcome, WireSolve};
use pcmax_core::{Instance, Time};
use pcmax_engine::EngineConfig;
use pcmax_serve::{run_loadtest, Client, LoadtestConfig, Server, ServerConfig};
use pcmax_workloads::{generate_batch, Distribution, Family};

fn small_server() -> (
    std::thread::JoinHandle<std::io::Result<pcmax_engine::EngineTotals>>,
    std::net::SocketAddr,
) {
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
    (std::thread::spawn(move || server.run()), addr)
}

fn sample_instance() -> Instance {
    generate_batch(Family::new(4, 30, Distribution::U1To100), 11, 1)
        .pop()
        .expect("one instance")
}

fn solve_frame(solver: &str, instance: Instance) -> WireSolve {
    WireSolve {
        solver: solver.into(),
        eps: 0.4,
        threads: None,
        timeout_ms: None,
        instance,
    }
}

fn makespan_of(instance: &Instance, assignment: &[u64]) -> Time {
    let mut loads = vec![0; instance.machines()];
    for (job, &machine) in assignment.iter().enumerate() {
        loads[machine as usize] += instance.times()[job];
    }
    loads.into_iter().max().unwrap_or(0)
}

#[test]
fn solve_roundtrip_and_bye_balance() {
    let (server, addr) = small_server();
    let instance = sample_instance();
    let mut client = Client::connect(addr).expect("connect");
    let response = client
        .solve(solve_frame("lpt", instance.clone()))
        .expect("solve");
    match response.outcome {
        WireOutcome::Ok {
            makespan,
            assignment,
            ..
        } => {
            assert_eq!(assignment.len(), instance.jobs());
            assert_eq!(makespan_of(&instance, &assignment), makespan);
        }
        other => panic!("expected ok, got {other:?}"),
    }
    let bye = client.shutdown().expect("bye");
    match bye.outcome {
        WireOutcome::Bye { served, .. } => assert_eq!(served, 1),
        other => panic!("expected bye, got {other:?}"),
    }
    server.join().expect("server thread").expect("server io");
}

#[test]
fn repeat_solves_report_cache_hits_on_the_wire() {
    let (server, addr) = small_server();
    let instance = sample_instance();
    let mut client = Client::connect(addr).expect("connect");
    let cold = client
        .solve(solve_frame("pptas", instance.clone()))
        .expect("cold solve");
    let warm = client
        .solve(solve_frame("pptas", instance.clone()))
        .expect("warm solve");
    let (cold_hit, cold_makespan) = match cold.outcome {
        WireOutcome::Ok {
            cache_hit,
            makespan,
            ..
        } => (cache_hit, makespan),
        other => panic!("expected ok, got {other:?}"),
    };
    let (warm_hit, warm_makespan) = match warm.outcome {
        WireOutcome::Ok {
            cache_hit,
            makespan,
            ..
        } => (cache_hit, makespan),
        other => panic!("expected ok, got {other:?}"),
    };
    assert!(
        !cold_hit,
        "first solve of an instance cannot be a cache hit"
    );
    assert!(warm_hit, "identical repeat must be served from the cache");
    assert_eq!(
        cold_makespan, warm_makespan,
        "cache must not change answers"
    );
    let bye = client.shutdown().expect("bye");
    match bye.outcome {
        WireOutcome::Bye {
            cache_hits,
            cache_misses,
            ..
        } => {
            assert!(cache_hits > 0, "bye must report the warm solve's hits");
            assert!(cache_misses > 0, "bye must report the cold solve's misses");
        }
        other => panic!("expected bye, got {other:?}"),
    }
    server.join().expect("server thread").expect("server io");
}

#[test]
fn errors_do_not_wedge_the_connection() {
    let (server, addr) = small_server();
    let mut client = Client::connect(addr).expect("connect");
    let bad = client
        .solve(solve_frame("no-such-solver", sample_instance()))
        .expect("bad solve");
    match bad.outcome {
        WireOutcome::Error { code, .. } => assert_eq!(code, "unknown-solver"),
        other => panic!("expected error, got {other:?}"),
    }
    let missing = client.cancel(999).expect("cancel send");
    let ack = client.recv().expect("cancel ack").expect("frame");
    assert_eq!(ack.id, missing);
    match ack.outcome {
        WireOutcome::Error { code, .. } => assert_eq!(code, "unknown-target"),
        other => panic!("expected error, got {other:?}"),
    }
    // The connection still serves real work after both failures.
    let ok = client
        .solve(solve_frame("ls", sample_instance()))
        .expect("good solve");
    assert!(matches!(ok.outcome, WireOutcome::Ok { .. }));
    client.shutdown().expect("bye");
    server.join().expect("server thread").expect("server io");
}

#[test]
fn too_deep_frame_is_answered_and_the_next_solve_served() {
    use pcmax_core::json::{FromJson, ToJson};
    use pcmax_core::wire::{read_frame, write_frame, WireOp, WireRequest, WireResponse};
    use std::io::Write;

    let (server, addr) = small_server();
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    // One 100 KB frame of `[`: it used to overflow the connection thread's
    // stack and abort the daemon.
    let deep = vec![b'['; 100_000];
    writer
        .write_all(&(deep.len() as u32).to_be_bytes())
        .and_then(|()| writer.write_all(&deep))
        .expect("send deep frame");
    let mut recv = || -> WireResponse {
        let frame = read_frame(&mut stream).expect("read").expect("a frame");
        WireResponse::from_json(&frame).expect("a response")
    };
    match recv().outcome {
        WireOutcome::Error { code, message } => {
            assert_eq!(code, "bad-request");
            assert!(message.contains("nesting"), "{message}");
        }
        other => panic!("expected an error frame, got {other:?}"),
    }
    // A plain syntax error gets the same answer.
    writer
        .write_all(&3u32.to_be_bytes())
        .and_then(|()| writer.write_all(b"{1}"))
        .expect("send bad frame");
    match recv().outcome {
        WireOutcome::Error { code, .. } => assert_eq!(code, "bad-request"),
        other => panic!("expected an error frame, got {other:?}"),
    }
    let instance = sample_instance();
    let solve = WireRequest {
        id: 1,
        op: WireOp::Solve(solve_frame("lpt", instance.clone())),
    };
    write_frame(&mut writer, &solve.to_json()).expect("send solve");
    let ok = recv();
    assert_eq!(ok.id, 1);
    match ok.outcome {
        WireOutcome::Ok {
            makespan,
            assignment,
            ..
        } => assert_eq!(makespan_of(&instance, &assignment), makespan),
        other => panic!("expected ok, got {other:?}"),
    }
    let shutdown = WireRequest {
        id: 2,
        op: WireOp::Shutdown,
    };
    write_frame(&mut writer, &shutdown.to_json()).expect("send shutdown");
    assert!(matches!(recv().outcome, WireOutcome::Bye { .. }));
    server.join().expect("server thread").expect("server io");
}

#[test]
fn pipelined_submissions_answer_in_order() {
    let (server, addr) = small_server();
    let instances = generate_batch(Family::new(8, 50, Distribution::U1To10), 3, 6);
    let mut client = Client::connect(addr).expect("connect");
    let ids: Vec<u64> = instances
        .iter()
        .map(|inst| {
            client
                .submit(solve_frame("pptas", inst.clone()))
                .expect("submit")
        })
        .collect();
    for id in ids {
        let response = client.recv().expect("recv").expect("frame");
        assert_eq!(
            response.id, id,
            "responses must come back in submission order"
        );
        assert!(matches!(response.outcome, WireOutcome::Ok { .. }));
    }
    client.shutdown().expect("bye");
    server.join().expect("server thread").expect("server io");
}

#[test]
fn loadtest_smoke_has_zero_dropped_responses() {
    let report = run_loadtest(&LoadtestConfig {
        clients: 3,
        requests: 96,
        solver: "pptas".into(),
        eps: 0.5,
        seed: 5,
        per_family: 1,
        engine: EngineConfig {
            workers: 2,
            capacity: 64,
            cache_capacity: 1024,
        },
    })
    .expect("loadtest");
    assert_eq!(report.requests, 96, "every request must get a response");
    assert_eq!(report.ok, 96, "no request may fail");
    assert_eq!(report.served, 96);
    assert!(
        report.cache_hit_responses > 0,
        "fixed-seed laps over the pool must produce wire-visible cache hits"
    );
    // parks == wakes is asserted in tests/park_balance.rs, which runs as
    // its own binary: the counters are process-global, so any concurrently
    // running test with parked workers would make the check flaky here.
    assert!(report.p99_micros >= report.p50_micros);
}
