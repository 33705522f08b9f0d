//! Output checks: every ok answer is re-derived from its assignment, and a
//! fixed sample is re-solved with the sequential solvers.

use crate::workload::Request;
use pcmax_core::{Instance, SolveRequest, Solver, Time};
use pcmax_ptas::{Ptas, QPtas};

/// An answer as a client sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// Reported makespan.
    pub makespan: Time,
    /// Reported certified target (the bisection's `T* ≤ OPT`).
    pub certified: Option<Time>,
    /// Machine of every job.
    pub assignment: Vec<u64>,
}

/// Checks one answer against its instance: the assignment places every
/// job on an existing machine, the makespan recomputed from it equals the
/// reported one, and it is at least the certified target.
pub fn check_answer(inst: &Instance, answer: &Answer) -> Result<(), String> {
    let (n, m) = (inst.jobs(), inst.machines());
    if answer.assignment.len() != n {
        return Err(format!(
            "assignment has {} entries for {n} jobs",
            answer.assignment.len()
        ));
    }
    let mut loads = vec![0 as Time; m];
    for (job, &machine) in answer.assignment.iter().enumerate() {
        let slot = usize::try_from(machine)
            .ok()
            .and_then(|i| loads.get_mut(i))
            .ok_or_else(|| format!("job {job} on machine {machine} of {m}"))?;
        *slot += inst.time(job);
    }
    let makespan = loads
        .iter()
        .enumerate()
        .map(|(i, &load)| load.div_ceil(inst.speed(i).max(1)))
        .max()
        .unwrap_or(0);
    if makespan != answer.makespan {
        return Err(format!(
            "assignment has makespan {makespan}, reported {}",
            answer.makespan
        ));
    }
    match answer.certified {
        Some(target) if makespan >= target => Ok(()),
        Some(target) => Err(format!(
            "makespan {makespan} under certified target {target}"
        )),
        None => Err("no certified target".into()),
    }
}

/// Re-solves `req` with the sequential solver of its scenario (`ptas` for
/// `par-ptas`, the serial-engine `ptas-q` for `ptas-q`), without a profile
/// cache, and requires the same makespan and certified target.
pub fn check_sequential(req: &Request, answer: &Answer) -> Result<(), String> {
    let solve = SolveRequest::new(&req.instance);
    let report = match req.solver {
        "ptas-q" => QPtas::new(req.eps).and_then(|s| s.solve(&solve)),
        _ => Ptas::new(req.eps).and_then(|s| s.solve(&solve)),
    }
    .map_err(|e| format!("sequential solve failed: {e}"))?;
    if (report.makespan, report.certified_target) == (answer.makespan, answer.certified) {
        Ok(())
    } else {
        Err(format!(
            "{} answered makespan {} target {:?}; sequential gives {} target {:?}",
            req.solver, answer.makespan, answer.certified, report.makespan, report.certified_target
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{mix_fresh, MIX_EPS};
    use pcmax_core::SolveReport;

    fn answer_of(report: &SolveReport) -> Answer {
        Answer {
            makespan: report.makespan,
            certified: report.certified_target,
            assignment: report
                .schedule
                .assignment()
                .iter()
                .map(|&m| m as u64)
                .collect(),
        }
    }

    #[test]
    fn true_answers_pass_and_corrupted_ones_fail() {
        for req in mix_fresh(3, 8) {
            let report = pcmax_engine::build(
                req.solver,
                &pcmax_engine::SolverParams::with_epsilon(MIX_EPS),
            )
            .and_then(|s| s.solve(&SolveRequest::new(&req.instance)))
            .expect("solve");
            let good = answer_of(&report);
            check_answer(&req.instance, &good).expect("true answer passes");
            check_sequential(&req, &good).expect("sequential solver agrees");

            // Every job piled onto machine 0: the reported makespan no longer
            // matches the assignment.
            let mut piled = good.clone();
            piled.assignment.iter_mut().for_each(|machine| *machine = 0);
            assert!(check_answer(&req.instance, &piled).is_err());

            let m = req.instance.machines() as u64;
            let mut out_of_range = good.clone();
            out_of_range.assignment[0] = m;
            assert!(check_answer(&req.instance, &out_of_range).is_err());

            let mut short = good.clone();
            short.assignment.pop();
            assert!(check_answer(&req.instance, &short).is_err());

            let mut wrong = good.clone();
            wrong.makespan += 1;
            assert!(check_answer(&req.instance, &wrong).is_err());
            assert!(check_sequential(&req, &wrong).is_err());
        }
    }
}
