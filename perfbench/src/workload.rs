//! The three workloads: what each sends, drawn from the workload seed, and
//! why each exists.

use pcmax_core::rng::SplitMix64;
use pcmax_core::{Instance, MakespanBounds};
use pcmax_ptas::{enumerate_configs, rounded_problem, DpProblem, DpTable, EpsilonParams};
use pcmax_workloads::{
    generate, generate_batch, generate_uniform_batch, paper_families, Distribution, Family,
    SpeedFamily,
};

/// ε of the served mixes.
pub const MIX_EPS: f64 = 0.4;
/// ε of the big solve (the paper's setting).
pub const BIG_EPS: f64 = 0.3;
/// Upper end of the `U(1, s)` machine speeds of the `ptas-q` requests.
pub const SPEED_MAX: u64 = 4;
/// Instances per paper family in the `mix-repeat` pool.
pub const REPEAT_PER_FAMILY: usize = 2;
/// Accepted relative distance of a big-solve draw's predicted DP size from
/// the seed-1 instance's.
pub const BIG_BAND: f64 = 0.05;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Never-seen paper-family instances over TCP.
    MixFresh,
    /// A 48-instance paper-family pool lapped over TCP.
    MixRepeat,
    /// One large `par-ptas` solve at a time, in process, uncached.
    BigSolve,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Self::MixFresh, Self::MixRepeat, Self::BigSolve];

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Self::MixFresh => "mix-fresh",
            Self::MixRepeat => "mix-repeat",
            Self::BigSolve => "big-solve",
        }
    }

    /// Why the workload exists: the layers it stresses.
    pub fn why(self) -> &'static str {
        match self {
            Self::MixFresh => {
                "fresh paper-family instances: small DP tables, so per-probe set-up, pool \
                 barriers and cache inserts dominate; exposes the serial/parallel crossover"
            }
            Self::MixRepeat => {
                "a lapped 48-instance pool: nearly every probe is a profile-cache read, so time \
                 goes to serve, wire, cache lookups, rounding replay and reconstruct"
            }
            Self::BigSolve => {
                "the paper's measurement: one 2.57M-cell-table par-ptas solve at a time, where \
                 the wavefront kernel and the pool do nearly all the work"
            }
        }
    }

    /// ε every request of the workload is solved at.
    pub fn eps(self) -> f64 {
        match self {
            Self::BigSolve => BIG_EPS,
            _ => MIX_EPS,
        }
    }
}

/// How large a run is: `Full` for measurement, `Smoke` for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Measurement sizes.
    Full,
    /// Tiny sizes that only exercise every code path.
    Smoke,
}

/// One request: an instance, the registry solver that serves it, and ε.
#[derive(Debug, Clone)]
pub struct Request {
    /// The instance to schedule.
    pub instance: Instance,
    /// Registry name of the solver (`par-ptas` or `ptas-q`).
    pub solver: &'static str,
    /// Accuracy parameter.
    pub eps: f64,
}

/// An independent seed stream for one use of the workload seed.
fn stream(seed: u64, salt: u64) -> SplitMix64 {
    SplitMix64::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Generates the requests named by `picks` — `(paper family index, is
/// ptas-q)` — in order. Instances of one family and solver come from one
/// `generate_batch` / `generate_uniform_batch` call on consecutive seeds;
/// the two solvers draw from disjoint seed ranges.
fn materialize(picks: &[(usize, bool)], seed: u64) -> Vec<Request> {
    let families = paper_families();
    let mut rng = stream(seed, 1);
    let (base_p, base_q) = (rng.next_u64() >> 2, (rng.next_u64() >> 2) | 1 << 62);
    let mut batches: Vec<[std::vec::IntoIter<Instance>; 2]> = families
        .iter()
        .enumerate()
        .map(|(f, &family)| {
            let count = |q: bool| picks.iter().filter(|&&p| p == (f, q)).count();
            [
                generate_batch(family, base_p, count(false)).into_iter(),
                generate_uniform_batch(SpeedFamily::new(family, SPEED_MAX), base_q, count(true))
                    .into_iter(),
            ]
        })
        .collect();
    picks
        .iter()
        .map(|&(f, q)| Request {
            instance: batches[f][usize::from(q)]
                .next()
                .expect("one instance generated per pick"),
            solver: if q { "ptas-q" } else { "par-ptas" },
            eps: MIX_EPS,
        })
        .collect()
}

/// `count` never-repeated paper-family requests: families drawn uniformly,
/// every fourth request `ptas-q` on the family's `SpeedFamily` sibling.
pub fn mix_fresh(seed: u64, count: usize) -> Vec<Request> {
    let n_families = paper_families().len() as u64;
    let mut rng = stream(seed, 2);
    let picks: Vec<(usize, bool)> = (0..count)
        .map(|i| (rng.below(n_families) as usize, i % 4 == 3))
        .collect();
    materialize(&picks, seed)
}

/// The `mix-repeat` pool: [`REPEAT_PER_FAMILY`] instances per paper family,
/// one in four `ptas-q`, in a seeded lap order.
pub fn mix_repeat(seed: u64) -> Vec<Request> {
    let n = paper_families().len() * REPEAT_PER_FAMILY;
    let mut picks: Vec<(usize, bool)> = (0..n)
        .map(|j| (j / REPEAT_PER_FAMILY, j % 4 == 3))
        .collect();
    let mut rng = stream(seed, 3);
    for i in (1..picks.len()).rev() {
        picks.swap(i, rng.below(i as u64 + 1) as usize);
    }
    materialize(&picks, seed)
}

/// The DP size of a `P||Cmax` solve of `inst` at `eps`, predicted from the
/// rounding alone along the bisection path toward the lower bound (every
/// probe feasible, as for the paper-size instances, whose certified target
/// is their lower bound): the largest table's cells, and the work
/// Σ table cells × machine configurations over the path's probes.
pub fn predicted_dp_size(inst: &Instance, eps: f64) -> Option<(usize, f64)> {
    let params = EpsilonParams::new(eps).ok()?;
    let MakespanBounds { lower, mut upper } = MakespanBounds::of(inst);
    let (mut largest, mut work) = (0, 0.0);
    while lower < upper {
        let target = (lower + upper) / 2;
        let (problem, _, _) =
            rounded_problem(inst, &params, target, DpProblem::DEFAULT_MAX_ENTRIES);
        let cells = DpTable::entries_needed(
            &problem.counts,
            problem.unit,
            DpProblem::DEFAULT_MAX_ENTRIES,
        )?;
        let configs = enumerate_configs(&problem.counts, problem.unit, target).len();
        largest = largest.max(cells);
        work += cells as f64 * configs as f64;
        upper = target;
    }
    Some((largest, work))
}

/// Cells of the DP table a `P||Cmax` solve of `inst` at `eps` builds at the
/// lower bound, its largest.
pub fn largest_table(inst: &Instance, eps: f64) -> Option<usize> {
    let params = EpsilonParams::new(eps).ok()?;
    let lower = MakespanBounds::of(inst).lower;
    let (problem, _, _) = rounded_problem(inst, &params, lower, DpProblem::DEFAULT_MAX_ENTRIES);
    DpTable::entries_needed(
        &problem.counts,
        problem.unit,
        DpProblem::DEFAULT_MAX_ENTRIES,
    )
}

/// `count` big-solve requests. At full scale each is a seeded draw of
/// `U(1,100)`, m = 30, n = 90 whose predicted largest table and DP work
/// ([`predicted_dp_size`]) both lie within [`BIG_BAND`] of the seed-1
/// instance's (2.57M cells, 8.03M cells over 7 probes), so every seed
/// measures the same problem size; the smoke scale takes any small
/// instance.
pub fn big_solve(seed: u64, count: usize, scale: Scale) -> Vec<Request> {
    let family = match scale {
        Scale::Full => Family::new(30, 90, Distribution::U1To100),
        Scale::Smoke => Family::new(6, 18, Distribution::U1To100),
    };
    let reference = match scale {
        Scale::Full => predicted_dp_size(&generate(family, 1), BIG_EPS),
        Scale::Smoke => None,
    };
    let near = |x: f64, reference: f64| (x / reference - 1.0).abs() <= BIG_BAND;
    let mut rng = stream(seed, 4);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let instance = generate(family, rng.next_u64() >> 1);
        // The largest table alone is one rounding away; the path work only
        // for draws whose largest table already fits the band.
        let in_band = reference.is_none_or(|(ref_cells, ref_work)| {
            largest_table(&instance, BIG_EPS)
                .is_some_and(|cells| near(cells as f64, ref_cells as f64))
                && predicted_dp_size(&instance, BIG_EPS)
                    .is_some_and(|(_, work)| near(work, ref_work))
        });
        if in_band {
            out.push(Request {
                instance,
                solver: "par-ptas",
                eps: BIG_EPS,
            });
        }
    }
    // Largest table first: the first solve's allocations are then the
    // largest of the run for every seed, which keeps the allocator's reuse
    // of freed tables, and so the peak resident set, alike across seeds.
    out.sort_by_cached_key(|r| std::cmp::Reverse(largest_table(&r.instance, BIG_EPS)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_seeded_and_split_three_to_one() {
        let a = mix_fresh(7, 40);
        let b = mix_fresh(7, 40);
        assert!(a.iter().zip(&b).all(|(x, y)| x.instance == y.instance));
        assert_eq!(a.iter().filter(|r| r.solver == "ptas-q").count(), 10);
        assert!(a
            .iter()
            .filter(|r| r.solver == "ptas-q")
            .all(|r| r.instance.is_uniform()));
        let pool = mix_repeat(7);
        assert_eq!(pool.len(), 48);
        assert_eq!(pool.iter().filter(|r| r.solver == "ptas-q").count(), 12);
        assert_ne!(mix_fresh(8, 40)[0].instance, a[0].instance);
    }

    #[test]
    fn big_draws_match_the_seed_one_size() {
        let family = Family::new(30, 90, Distribution::U1To100);
        let (cells, work) = predicted_dp_size(&generate(family, 1), BIG_EPS).expect("fits");
        assert_eq!(cells, 2_566_080);
        for r in big_solve(1, 2, Scale::Full) {
            let (c, w) = predicted_dp_size(&r.instance, BIG_EPS).expect("fits");
            assert!((c as f64 / cells as f64 - 1.0).abs() <= BIG_BAND);
            assert!((w / work - 1.0).abs() <= BIG_BAND);
        }
    }
}
