//! Property tests for the tiled wavefront sweep through its public entry
//! point: the full table must be **bit-identical** to the serial reference
//! sweep for both state spaces, at 1/2/4 threads under both chunk policies,
//! across random mixed radices. The generator covers the kernel's ragged
//! edges: radix-1 digits (count-0 classes are elided), a single class,
//! radix-2 classes, tables of fewer than 16 cells and tiles that are not
//! whole strips, and the degenerate one-cell table. A fixed table of more
//! than one tile exercises the production tile bound itself.

use pcmax_parallel::wavefront::bucketed_sweep_space_with;
use pcmax_parallel::{CellKernel, Chunking};
use pcmax_ptas::dp::DpProblem;
use pcmax_ptas::space::{serial_sweep, PcmaxSpace, QSpace};
use pcmax_ptas::table::DpScratch;
use proptest::prelude::*;

/// The serial table and the parallel one for the same problem, under the
/// capacity-filtered [`QSpace`] when `caps` is set, else [`PcmaxSpace`].
fn serial_and_parallel(
    problem: &DpProblem,
    caps: Option<&[u64]>,
    chunking: Chunking,
    threads: usize,
) -> (Vec<u16>, Vec<u16>) {
    let mut scratch = DpScratch::new();
    let mut want = problem.build_table().expect("table fits the guard");
    let mut got = problem
        .build_table_in(&mut scratch)
        .expect("table fits the guard");
    let configs = problem.configs_with_offsets(&want);
    let sizes = want.sizes.clone();
    got.values[0] = 0;
    let kernel = CellKernel::default();
    match caps {
        None => {
            let space = PcmaxSpace::new(&configs);
            serial_sweep(&mut want, &space);
            bucketed_sweep_space_with(&mut got, &space, threads, &mut scratch, kernel, chunking);
        }
        Some(caps) => {
            let space = QSpace::new(&configs, &sizes, caps);
            serial_sweep(&mut want, &space);
            bucketed_sweep_space_with(&mut got, &space, threads, &mut scratch, kernel, chunking);
        }
    }
    (want.values, got.values)
}

fn arb_counts() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..=5, 1..=5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tiled_sweep_matches_the_serial_engine(
        counts in arb_counts(),
        target in 1u64..=16,
        mut caps in prop::collection::vec(0u64..=30, 1..=6),
    ) {
        // QSpace requires non-increasing capacities (fastest machine first).
        caps.sort_unstable_by(|a, b| b.cmp(a));
        let problem = DpProblem::new(counts, 1, target, 64);
        for caps in [None, Some(caps.as_slice())] {
            for chunking in [Chunking::Static, Chunking::Adaptive] {
                for threads in [1usize, 2, 4] {
                    let (want, got) = serial_and_parallel(&problem, caps, chunking, threads);
                    prop_assert_eq!(
                        &got,
                        &want,
                        "caps {:?}, {:?}, {} threads",
                        caps,
                        chunking,
                        threads
                    );
                }
            }
        }
    }
}

#[test]
fn a_table_of_many_tiles_matches_the_serial_engine() {
    // dims [4, 5, 6, 7, 8, 9]: 60 480 cells, more than one tile at the
    // production bound, with tiles over the low-order classes.
    let problem = DpProblem::new(vec![3, 4, 5, 6, 7, 8], 1, 14, 64);
    let caps = [14u64, 12, 9, 5];
    for caps in [None, Some(&caps[..])] {
        for chunking in [Chunking::Static, Chunking::Adaptive] {
            for threads in [1usize, 2, 4] {
                let (want, got) = serial_and_parallel(&problem, caps, chunking, threads);
                assert!(
                    want == got,
                    "caps {caps:?}, {chunking:?}, {threads} threads"
                );
            }
        }
    }
}
