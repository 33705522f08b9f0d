//! Property tests for the row-major table layout the tiled wavefront sweep
//! relies on: every transition is a fixed rank offset (so a strip of
//! consecutive cells reads a strip of consecutive predecessors), the level
//! buckets partition the table by digit sum with row-major order preserved
//! inside each bucket, and `value_at` reads by row-major rank.

use pcmax_ptas::dp::{fits, DpProblem};
use proptest::prelude::*;

/// Digit sum of a row-major rank under the table's mixed radix.
fn level_of(mut rank: usize, strides: &[usize]) -> u32 {
    let mut sum = 0usize;
    for &stride in strides {
        sum += rank / stride;
        rank %= stride;
    }
    sum as u32
}

fn arb_counts() -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(0u32..=4, 1..=6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_transition_is_one_fixed_rank_offset(counts in arb_counts(), target in 1u64..=12) {
        let problem = DpProblem::new(counts, 1, target, 64);
        let table = problem.build_table().expect("small tables always fit the guard");
        for (c, offset) in problem.configs_with_offsets(&table) {
            prop_assert!(offset > 0, "config {:?} must move to an earlier rank", c);
            for rank in 0..table.len {
                let v = table.decode(rank);
                if !fits(&c, &v) {
                    continue;
                }
                let below: Vec<u32> = v.iter().zip(&c).map(|(&x, &y)| x - y).collect();
                prop_assert_eq!(table.index(&below), rank - offset);
                prop_assert!(level_of(rank - offset, &table.strides) < level_of(rank, &table.strides));
            }
        }
    }

    #[test]
    fn level_buckets_partition_the_table_by_digit_sum(counts in arb_counts()) {
        let problem = DpProblem::new(counts, 1, 1_000, 64);
        let table = problem.build_table().expect("small tables always fit the guard");
        let buckets = table.level_buckets();
        let max_level: u32 = table.dims.iter().map(|&d| d - 1).sum();
        prop_assert_eq!(buckets.len() as u32, max_level + 1);
        prop_assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), table.len);
        for (level, bucket) in buckets.iter().enumerate() {
            for &rank in bucket {
                prop_assert_eq!(level_of(rank as usize, &table.strides), level as u32);
            }
            prop_assert!(
                bucket.windows(2).all(|w| w[0] < w[1]),
                "bucket for level {} is not rank-sorted",
                level
            );
        }
    }

    #[test]
    fn value_at_reads_by_row_major_rank(counts in arb_counts()) {
        let problem = DpProblem::new(counts, 1, 1_000, 64);
        let mut table = problem.build_table().expect("small tables always fit the guard");
        for rank in 0..table.len {
            table.values[rank] = (rank % 60_000) as u16;
        }
        for rank in 0..table.len {
            prop_assert_eq!(table.value_at(rank), (rank % 60_000) as u16);
            prop_assert_eq!(table.index(&table.decode(rank)), rank);
        }
    }
}
