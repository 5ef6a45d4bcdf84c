//! The rotation solver: decide compatibility and produce rotation angles.
//!
//! Implements the paper's optimization formulation (§3): discretize the
//! unified circle into sectors, then search for one rotation offset per job
//! such that no sector has more than one job communicating
//! ([`SolveMode::Exclusive`], the paper's constraint), or — generalized —
//! such that the per-sector sum of bandwidth demands never exceeds link
//! capacity ([`SolveMode::Capacity`]).
//!
//! Algorithmically:
//!
//! * 2 jobs, exclusive: exact — scan every relative offset with word-level
//!   mask intersection; also yields the *minimum achievable overlap* when
//!   incompatible.
//! * k ≥ 3 (or capacity mode): depth-first search over jobs in descending
//!   busy-size order with incremental occupancy, randomized candidate
//!   order across restarts, and a node budget. An exhausted search space
//!   proves incompatibility; an exhausted *budget* returns
//!   [`Verdict::Inconclusive`] — the solver never lies.
//!
//! Soundness: masks over-approximate the true arcs (see [`crate::unified`]),
//! so a `Compatible` verdict always maps back to truly non-overlapping
//! communication phases; near the resolution limit the solver may miss
//! marginally-feasible rotations (use more sectors).

use crate::unified::GeometryError;
use crate::{Profile, SectorMask, UnifiedCircle};
use eventsim::Rng;
use simtime::Dur;

/// Which per-sector constraint the solver enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMode {
    /// The paper's formulation: at most one job communicating per sector.
    #[default]
    Exclusive,
    /// Generalization: per-sector sum of bandwidth demands ≤ 1 (link
    /// capacity). Equivalent to `Exclusive` when every demand is 1.0.
    Capacity,
}

/// Solver parameters.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Sectors in the discretization (resolution). 720 = half-degree.
    pub sectors: usize,
    /// Constraint mode.
    pub mode: SolveMode,
    /// Randomized restarts for the k ≥ 3 search.
    pub restarts: usize,
    /// Total DFS node budget across all restarts.
    pub max_steps: u64,
    /// Seed for randomized candidate ordering.
    pub seed: u64,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            sectors: 720,
            mode: SolveMode::Exclusive,
            restarts: 8,
            max_steps: 2_000_000,
            seed: 0x6d6c_6363, // "mlcc"
        }
    }
}

/// A job's assigned rotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rotation {
    /// Rotation in sectors.
    pub sectors: usize,
    /// The equivalent time shift of the job's communication phases.
    pub shift: Dur,
    /// The equivalent angle in degrees (counterclockwise, as in Fig. 5).
    pub degrees: f64,
}

/// The solver's answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// A conflict-free rotation assignment exists.
    Compatible {
        /// One rotation per job, in input order (job 0 pinned at zero).
        rotations: Vec<Rotation>,
        /// Fraction of the circle left idle under the assignment —
        /// headroom for additional jobs.
        slack_fraction: f64,
    },
    /// No conflict-free assignment exists at this resolution.
    Incompatible {
        /// The smallest overlap found. Overlap is communication demand
        /// above link capacity, summed over the circle's sectors and
        /// divided by their number: `Σ max(0, load − 1) / S`, with `load`
        /// a sector's summed demand in units of link capacity (a job that
        /// needs the whole link counts 1). A sector where three such jobs
        /// communicate counts 2, so the value can exceed 1 (Table 1's
        /// three-job BERT group reports 111%).
        best_overlap_fraction: f64,
    },
    /// The node budget was exhausted before the search space was: the jobs
    /// may or may not be compatible.
    Inconclusive {
        /// The smallest overlap encountered before giving up, measured as
        /// for [`Verdict::Incompatible`].
        best_overlap_fraction: f64,
    },
}

impl Verdict {
    /// `true` for [`Verdict::Compatible`].
    pub fn is_compatible(&self) -> bool {
        matches!(self, Verdict::Compatible { .. })
    }

    /// The rotation assignment, if compatible.
    pub fn rotations(&self) -> Option<&[Rotation]> {
        match self {
            Verdict::Compatible { rotations, .. } => Some(rotations),
            _ => None,
        }
    }

    /// The best (smallest) overlap known, as defined on
    /// [`Verdict::Incompatible`]: 0 when compatible.
    pub fn overlap_fraction(&self) -> f64 {
        match self {
            Verdict::Compatible { .. } => 0.0,
            Verdict::Incompatible {
                best_overlap_fraction,
            }
            | Verdict::Inconclusive {
                best_overlap_fraction,
            } => *best_overlap_fraction,
        }
    }
}

/// Decides compatibility of a set of job profiles sharing one link.
///
/// Returns rotations in the input order, with job 0 pinned at rotation 0
/// (only relative rotation is observable; congestion control cannot move
/// absolute time).
pub fn solve(profiles: &[Profile], cfg: &SolverConfig) -> Result<Verdict, GeometryError> {
    let uc = UnifiedCircle::new(profiles, cfg.sectors)?;
    Ok(solve_on(&uc, cfg))
}

/// Finds rotations maximizing the **drift margin**: the largest `m` such
/// that the jobs stay compatible even with every communication arc widened
/// by `m` on both sides. Real phases jitter (stragglers, imperfect clocks);
/// a schedule with zero slack collapses at the first wobble, so a deployed
/// scheduler wants the most robust rotation, not just any feasible one.
///
/// Binary-searches `m` over `[0, max_margin]` to `resolution` granularity
/// (both in time units of the circle). Returns the verdict at the best
/// feasible margin together with that margin; if the jobs are incompatible
/// even at zero margin, returns that verdict and `Dur::ZERO`.
pub fn solve_max_margin(
    profiles: &[Profile],
    cfg: &SolverConfig,
    max_margin: Dur,
    resolution: Dur,
) -> Result<(Verdict, Dur), GeometryError> {
    assert!(!resolution.is_zero(), "solve_max_margin: zero resolution");
    let at = |m: Dur| -> Result<Verdict, GeometryError> {
        let inflated: Vec<Profile> = profiles.iter().map(|p| p.inflated(m)).collect();
        solve(&inflated, cfg)
    };
    let base = at(Dur::ZERO)?;
    if !base.is_compatible() {
        return Ok((base, Dur::ZERO));
    }
    let mut lo = Dur::ZERO; // known feasible
    let mut hi = max_margin; // candidate
    let mut best = base;
    // If even the max margin fits, take it.
    if let v @ Verdict::Compatible { .. } = at(hi)? {
        return Ok((v, hi));
    }
    while hi.saturating_sub(lo) > resolution {
        let mid = lo + (hi - lo) / 2;
        match at(mid)? {
            v @ Verdict::Compatible { .. } => {
                best = v;
                lo = mid;
            }
            _ => hi = mid,
        }
    }
    Ok((best, lo))
}

/// Online admission: can `newcomer` join jobs already running with
/// **fixed** rotations, by choosing only its own rotation?
///
/// A running job's phase cannot be moved without pausing it, so an online
/// scheduler admits a new job against the residents' occupancy as-is
/// (rotating only the newcomer) instead of re-solving everyone — weaker
/// than a full re-solve, but deployable without disturbing training.
///
/// `residents` pairs each running profile with its current rotation.
/// Returns the newcomer's rotation if a conflict-free one exists at this
/// resolution.
pub fn admit(
    residents: &[(Profile, Rotation)],
    newcomer: &Profile,
    cfg: &SolverConfig,
) -> Result<Option<Rotation>, GeometryError> {
    let mut profiles: Vec<Profile> = residents.iter().map(|(p, r)| p.rotated(r.shift)).collect();
    profiles.push(newcomer.clone());
    let uc = UnifiedCircle::new(&profiles, cfg.sectors)?;
    let new_idx = profiles.len() - 1;
    // Residents' occupancy is fixed: OR their masks once.
    let mut acc = SectorMask::empty(uc.sectors());
    for j in 0..new_idx {
        acc.or_assign(uc.mask(j));
    }
    for o in 0..uc.offset_cap(new_idx) {
        let rm = uc.mask(new_idx).rotated(o);
        if !rm.intersects(&acc) {
            return Ok(Some(rotation(&uc, o)));
        }
    }
    Ok(None)
}

/// Convenience wrapper for exactly two jobs.
pub fn solve_pair(a: &Profile, b: &Profile, cfg: &SolverConfig) -> Result<Verdict, GeometryError> {
    solve(&[a.clone(), b.clone()], cfg)
}

/// Runs the solver on an already-built unified circle.
pub fn solve_on(uc: &UnifiedCircle, cfg: &SolverConfig) -> Verdict {
    let k = uc.job_count();
    let s = uc.sectors();
    if k == 1 {
        return Verdict::Compatible {
            rotations: vec![zero_rotation()],
            slack_fraction: 1.0 - uc.load(),
        };
    }
    let exclusive =
        cfg.mode == SolveMode::Exclusive || (0..k).all(|j| (uc.demand(j) - 1.0).abs() < 1e-9);

    // Necessary condition (exclusive): total busy sectors must fit.
    if exclusive {
        let total_busy: usize = uc.masks().iter().map(|m| m.count()).sum();
        if total_busy > s {
            // Overlap of at least (total_busy − S)/S is unavoidable.
            let lower = (total_busy - s) as f64 / s as f64;
            let best = greedy_overlap(uc, cfg).max(lower);
            return Verdict::Incompatible {
                best_overlap_fraction: best.max(lower),
            };
        }
        if k == 2 {
            return solve_pair_exact(uc);
        }
        return dfs_exclusive(uc, cfg);
    }
    dfs_capacity(uc, cfg)
}

fn zero_rotation() -> Rotation {
    Rotation {
        sectors: 0,
        shift: Dur::ZERO,
        degrees: 0.0,
    }
}

fn rotation(uc: &UnifiedCircle, offset: usize) -> Rotation {
    Rotation {
        sectors: offset,
        shift: uc.shift_of(offset),
        degrees: uc.degrees_of(offset),
    }
}

/// Exact two-job scan: job 0 fixed, job 1 tried at every offset.
fn solve_pair_exact(uc: &UnifiedCircle) -> Verdict {
    let m0 = uc.mask(0);
    let m1 = uc.mask(1);
    let s = uc.sectors();
    let mut best = usize::MAX;
    for o in 0..s {
        let r = m1.rotated(o);
        let overlap = m0.overlap(&r);
        if overlap == 0 {
            return Verdict::Compatible {
                rotations: vec![zero_rotation(), rotation(uc, o)],
                slack_fraction: 1.0 - uc.load(),
            };
        }
        if overlap < best {
            best = overlap;
        }
    }
    Verdict::Incompatible {
        best_overlap_fraction: best as f64 / s as f64,
    }
}

/// DFS over rotation offsets with exclusive (bitmask) occupancy.
fn dfs_exclusive(uc: &UnifiedCircle, cfg: &SolverConfig) -> Verdict {
    let k = uc.job_count();
    // Search biggest jobs first: they are the hardest to place.
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&j| std::cmp::Reverse(uc.mask(j).count()));

    let mut rng = Rng::new(cfg.seed);
    let budget_per_restart = (cfg.max_steps / cfg.restarts.max(1) as u64).max(1);
    let mut exhausted_any_budget = false;

    for restart in 0..cfg.restarts.max(1) {
        let mut acc = uc.mask(order[0]).clone();
        let mut offsets = vec![0usize; k];
        let mut steps = 0u64;
        // Candidate offset order per job: identity on the first restart
        // (deterministic, finds "canonical" solutions), shuffled afterwards.
        let mut candidate_orders: Vec<Vec<usize>> = Vec::with_capacity(k);
        for &j in &order {
            let mut cands: Vec<usize> = (0..uc.offset_cap(j)).collect();
            if restart > 0 {
                rng.shuffle(&mut cands);
            }
            candidate_orders.push(cands);
        }
        let complete = dfs_exclusive_rec(
            uc,
            &order,
            &candidate_orders,
            1,
            &mut acc,
            &mut offsets,
            &mut steps,
            budget_per_restart,
        );
        match complete {
            DfsOutcome::Found => {
                let mut rotations = vec![zero_rotation(); k];
                for (pos, &j) in order.iter().enumerate() {
                    rotations[j] = rotation(uc, offsets[pos]);
                }
                return Verdict::Compatible {
                    rotations,
                    slack_fraction: 1.0 - uc.load(),
                };
            }
            DfsOutcome::ExhaustedSpace => {
                // Complete search proved infeasibility at this resolution.
                return Verdict::Incompatible {
                    best_overlap_fraction: greedy_overlap(uc, cfg),
                };
            }
            DfsOutcome::ExhaustedBudget => {
                exhausted_any_budget = true;
            }
        }
    }
    debug_assert!(exhausted_any_budget);
    Verdict::Inconclusive {
        best_overlap_fraction: greedy_overlap(uc, cfg),
    }
}

#[derive(PartialEq)]
enum DfsOutcome {
    Found,
    ExhaustedSpace,
    ExhaustedBudget,
}

#[allow(clippy::too_many_arguments)]
fn dfs_exclusive_rec(
    uc: &UnifiedCircle,
    order: &[usize],
    cands: &[Vec<usize>],
    depth: usize,
    acc: &mut SectorMask,
    offsets: &mut [usize],
    steps: &mut u64,
    budget: u64,
) -> DfsOutcome {
    if depth == order.len() {
        return DfsOutcome::Found;
    }
    let j = order[depth];
    let mut budget_hit = false;
    for &o in &cands[depth] {
        *steps += 1;
        if *steps > budget {
            return DfsOutcome::ExhaustedBudget;
        }
        let rm = uc.mask(j).rotated(o);
        if rm.intersects(acc) {
            continue;
        }
        acc.or_assign(&rm);
        offsets[depth] = o;
        match dfs_exclusive_rec(uc, order, cands, depth + 1, acc, offsets, steps, budget) {
            DfsOutcome::Found => return DfsOutcome::Found,
            DfsOutcome::ExhaustedBudget => budget_hit = true,
            DfsOutcome::ExhaustedSpace => {}
        }
        acc.and_not_assign(&rm);
        if budget_hit {
            return DfsOutcome::ExhaustedBudget;
        }
    }
    DfsOutcome::ExhaustedSpace
}

/// DFS with fractional per-sector demand accumulation (capacity mode).
fn dfs_capacity(uc: &UnifiedCircle, cfg: &SolverConfig) -> Verdict {
    let k = uc.job_count();
    let s = uc.sectors();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&j| {
        std::cmp::Reverse((uc.mask(j).count() as f64 * uc.demand(j) * 1e6) as u64)
    });

    let mut rng = Rng::new(cfg.seed ^ 0xCAFE);
    let budget_per_restart = (cfg.max_steps / cfg.restarts.max(1) as u64).max(1);
    let mut exhausted_budget = false;

    for restart in 0..cfg.restarts.max(1) {
        let mut load = vec![0.0f64; s];
        let j0 = order[0];
        for i in uc.mask(j0).iter_set() {
            load[i] += uc.demand(j0);
        }
        let mut offsets = vec![0usize; k];
        let mut steps = 0u64;
        let mut candidate_orders: Vec<Vec<usize>> = Vec::with_capacity(k);
        for &j in &order {
            let mut cands: Vec<usize> = (0..uc.offset_cap(j)).collect();
            if restart > 0 {
                rng.shuffle(&mut cands);
            }
            candidate_orders.push(cands);
        }

        #[allow(clippy::too_many_arguments)] // recursion state, not an API
        fn rec(
            uc: &UnifiedCircle,
            order: &[usize],
            cands: &[Vec<usize>],
            depth: usize,
            load: &mut [f64],
            offsets: &mut [usize],
            steps: &mut u64,
            budget: u64,
        ) -> DfsOutcome {
            const EPS: f64 = 1e-9;
            if depth == order.len() {
                return DfsOutcome::Found;
            }
            let j = order[depth];
            let d = uc.demand(j);
            let s = uc.sectors();
            let mut budget_hit = false;
            'cand: for &o in &cands[depth] {
                *steps += 1;
                if *steps > budget {
                    return DfsOutcome::ExhaustedBudget;
                }
                for i in uc.mask(j).iter_set() {
                    if load[(i + o) % s] + d > 1.0 + EPS {
                        continue 'cand;
                    }
                }
                for i in uc.mask(j).iter_set() {
                    load[(i + o) % s] += d;
                }
                offsets[depth] = o;
                match rec(uc, order, cands, depth + 1, load, offsets, steps, budget) {
                    DfsOutcome::Found => return DfsOutcome::Found,
                    DfsOutcome::ExhaustedBudget => budget_hit = true,
                    DfsOutcome::ExhaustedSpace => {}
                }
                for i in uc.mask(j).iter_set() {
                    load[(i + o) % s] -= d;
                }
                if budget_hit {
                    return DfsOutcome::ExhaustedBudget;
                }
            }
            DfsOutcome::ExhaustedSpace
        }

        match rec(
            uc,
            &order,
            &candidate_orders,
            1,
            &mut load,
            &mut offsets,
            &mut steps,
            budget_per_restart,
        ) {
            DfsOutcome::Found => {
                let mut rotations = vec![zero_rotation(); k];
                for (pos, &j) in order.iter().enumerate() {
                    rotations[j] = rotation(uc, offsets[pos]);
                }
                return Verdict::Compatible {
                    rotations,
                    slack_fraction: (1.0 - uc.load()).max(0.0),
                };
            }
            DfsOutcome::ExhaustedSpace => {
                return Verdict::Incompatible {
                    best_overlap_fraction: greedy_overlap(uc, cfg),
                };
            }
            DfsOutcome::ExhaustedBudget => exhausted_budget = true,
        }
    }
    debug_assert!(exhausted_budget);
    Verdict::Inconclusive {
        best_overlap_fraction: greedy_overlap(uc, cfg),
    }
}

/// The overlap fraction of a **given** rotation assignment: the fraction
/// of the unified circle where aggregate communication demand exceeds link
/// capacity, with each job's arcs shifted by its rotation.
///
/// This is the predicted analogue of what a run-trace auditor measures —
/// diagnostics compare a trace's observed interleaving against the value
/// the solver's rotations promise. Rotations are applied by their time
/// `shift` (converted to sectors at this resolution), so assignments
/// computed at a different sector count remain usable.
///
/// Zero for any `Compatible` verdict's rotations (by construction);
/// positive when the assignment double-books part of the circle.
pub fn overlap_fraction_of(
    profiles: &[Profile],
    rotations: &[Rotation],
    sectors: usize,
) -> Result<f64, GeometryError> {
    assert_eq!(
        profiles.len(),
        rotations.len(),
        "overlap_fraction_of: one rotation per profile"
    );
    let uc = UnifiedCircle::new(profiles, sectors)?;
    let s = uc.sectors();
    let perimeter_ns = uc.perimeter().as_nanos() as f64;
    let mut load = vec![0.0f64; s];
    for (j, rot) in rotations.iter().enumerate() {
        let o = ((rot.shift.as_nanos() as f64 / perimeter_ns) * s as f64).round() as usize % s;
        let d = uc.demand(j);
        for i in uc.mask(j).iter_set() {
            load[(i + o) % s] += d;
        }
    }
    let total_excess: f64 = load.iter().map(|&v| (v - 1.0).max(0.0)).sum();
    Ok(total_excess / s as f64)
}

/// Greedy best-effort overlap: place jobs (largest first), each at the
/// offset that adds the least demand-excess; report the resulting overlap
/// fraction. Used only for *reporting* how bad an incompatible set is —
/// corresponds to the residual contention unfairness cannot remove.
fn greedy_overlap(uc: &UnifiedCircle, _cfg: &SolverConfig) -> f64 {
    let k = uc.job_count();
    let s = uc.sectors();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by_key(|&j| std::cmp::Reverse(uc.mask(j).count()));
    let mut load = vec![0.0f64; s];
    for i in uc.mask(order[0]).iter_set() {
        load[i] += uc.demand(order[0]);
    }
    for &j in &order[1..] {
        let d = uc.demand(j);
        let mut best_o = 0;
        let mut best_excess = f64::INFINITY;
        for o in 0..uc.offset_cap(j) {
            let mut excess = 0.0;
            for i in uc.mask(j).iter_set() {
                let v = load[(i + o) % s] + d;
                if v > 1.0 {
                    excess += v - 1.0;
                }
            }
            if excess < best_excess {
                best_excess = excess;
                best_o = o;
                if excess == 0.0 {
                    break;
                }
            }
        }
        for i in uc.mask(j).iter_set() {
            load[(i + best_o) % s] += d;
        }
    }
    let total_excess: f64 = load.iter().map(|&v| (v - 1.0).max(0.0)).sum();
    total_excess / s as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Dur {
        Dur::from_millis(v)
    }

    fn cfg() -> SolverConfig {
        SolverConfig::default()
    }

    /// Fig. 4: two jobs with the same period whose comm arcs collide at
    /// rotation 0 but fit after rotating one of them.
    #[test]
    fn fig4_same_period_pair_compatible() {
        let a = Profile::compute_then_comm(ms(141), ms(114)); // VGG16-like
        let b = Profile::compute_then_comm(ms(200), ms(55)); // WRN-like
        let v = solve_pair(&a, &b, &cfg()).unwrap();
        assert!(v.is_compatible(), "verdict: {v:?}");
        let rots = v.rotations().unwrap();
        assert_eq!(rots[0].sectors, 0, "job 0 pinned");
        // Verify the rotation truly de-overlaps the continuous arcs.
        let b_rot = b.rotated(rots[1].shift);
        for t in (0..255).map(ms) {
            assert!(
                !(a.communicating_at(t) && b_rot.communicating_at(t)),
                "overlap at {t}"
            );
        }
    }

    /// Two half-period jobs exactly fill the circle: compatible with zero
    /// slack.
    #[test]
    fn exact_fit_pair() {
        let a = Profile::compute_then_comm(ms(50), ms(50));
        let b = Profile::compute_then_comm(ms(50), ms(50));
        let v = solve_pair(&a, &b, &cfg()).unwrap();
        assert!(v.is_compatible());
        match v {
            Verdict::Compatible { slack_fraction, .. } => {
                assert!(slack_fraction.abs() < 1e-9, "slack {slack_fraction}")
            }
            _ => unreachable!(),
        }
    }

    /// Comm fractions summing above 1 can never be compatible (the BERT +
    /// VGG19 shape from Table 1 group 1).
    #[test]
    fn oversubscribed_pair_incompatible() {
        let bert = Profile::compute_then_comm(ms(40), ms(110)); // 73% comm
        let vgg = Profile::compute_then_comm(ms(130), ms(119)); // 48% comm
        let v = solve_pair(&bert, &vgg, &cfg()).unwrap();
        assert!(!v.is_compatible());
        assert!(v.overlap_fraction() > 0.0);
    }

    /// Fig. 5: periods 40 and 60 ms on a 120 ms unified circle; a rotation
    /// exists.
    ///
    /// Note the arc lengths: with periods 40 and 60 (gcd 20 ms), the two
    /// jobs are compatible iff their comm arcs can be made disjoint *modulo
    /// 20 ms*, so the arcs must jointly fit in 20 ms. (An arc of length
    /// ≥ 20 ms would occupy every residue class and block any partner —
    /// a fact the solver proved to us when this test originally used one.)
    #[test]
    fn fig5_different_periods_compatible() {
        let j1 = Profile::compute_then_comm(ms(32), ms(8));
        let j2 = Profile::compute_then_comm(ms(50), ms(10));
        let v = solve_pair(&j1, &j2, &cfg()).unwrap();
        assert!(v.is_compatible(), "verdict: {v:?}");
        // Check on the continuous unified circle: tile and test all ms.
        let rots = v.rotations().unwrap();
        let s1 = rots[0].shift;
        let s2 = rots[1].shift;
        for t in 0..120 {
            let t1 = (ms(t) + ms(120) - (s1 % ms(40))) % ms(40);
            let t2 = (ms(t) + ms(120) - (s2 % ms(60))) % ms(60);
            let c1 = j1.communicating_at(t1);
            let c2 = j2.communicating_at(t2);
            assert!(!(c1 && c2), "overlap at unified offset {t} ms");
        }
    }

    /// Three-job harmonic group (Table 1 group 5 shape): two ≈285 ms jobs
    /// plus one at half period. Measured periods are not exactly harmonic
    /// (285.04, 285.11, 142.51 ms), so — as the scheduler does — we snap
    /// them to a 2.5 ms grid before building the unified circle; the
    /// congestion-control layer absorbs sub-grid drift.
    #[test]
    fn three_job_harmonic_group() {
        let grid = Dur::from_micros(2_500);
        let q = |compute_us: u64, comm_us: u64| {
            let period = crate::quantize_period(Dur::from_micros(compute_us + comm_us), grid);
            let comm = Dur::from_micros(comm_us);
            Profile::compute_then_comm(period - comm, comm)
        };
        let vgg19 = q(166_320, 118_720); // period → 285 ms
        let vgg16 = q(171_190, 113_920); // period → 285 ms
        let rn = q(121_550, 20_960); // period → 142.5 ms
        let v = solve(&[vgg19, vgg16, rn], &cfg()).unwrap();
        assert!(v.is_compatible(), "verdict: {v:?}");
    }

    /// Three jobs that cannot fit (fractions sum to ≈1.5).
    #[test]
    fn three_job_overload_incompatible() {
        let jobs = [
            Profile::compute_then_comm(ms(50), ms(50)),
            Profile::compute_then_comm(ms(50), ms(50)),
            Profile::compute_then_comm(ms(50), ms(50)),
        ];
        let v = solve(&jobs, &cfg()).unwrap();
        assert!(!v.is_compatible());
        // At least half the circle must be double-booked.
        assert!(v.overlap_fraction() >= 0.49, "{}", v.overlap_fraction());
    }

    /// Single job: trivially compatible.
    #[test]
    fn single_job_compatible() {
        let v = solve(&[Profile::compute_then_comm(ms(10), ms(90))], &cfg()).unwrap();
        assert!(v.is_compatible());
        assert_eq!(v.rotations().unwrap().len(), 1);
    }

    /// Capacity mode admits overlapping jobs whose demands fit together.
    #[test]
    fn capacity_mode_allows_partial_demands() {
        // Two jobs that communicate all the time at 50% demand each:
        // exclusive says no, capacity says yes.
        let a = Profile::compute_then_comm_with_demand(ms(1), ms(99), 0.5);
        let b = Profile::compute_then_comm_with_demand(ms(1), ms(99), 0.5);
        let mut c = cfg();
        c.mode = SolveMode::Capacity;
        let v = solve(&[a.clone(), b.clone()], &c).unwrap();
        assert!(v.is_compatible(), "capacity verdict: {v:?}");
        // Same pair at 60% each cannot fit.
        let a6 = Profile::compute_then_comm_with_demand(ms(1), ms(99), 0.6);
        let b6 = Profile::compute_then_comm_with_demand(ms(1), ms(99), 0.6);
        let v = solve(&[a6, b6], &c).unwrap();
        assert!(!v.is_compatible());
    }

    /// Exclusive mode on full-demand profiles equals capacity mode.
    #[test]
    fn modes_agree_on_full_demand() {
        let a = Profile::compute_then_comm(ms(60), ms(40));
        let b = Profile::compute_then_comm(ms(70), ms(30));
        let mut cap = cfg();
        cap.mode = SolveMode::Capacity;
        let ve = solve(&[a.clone(), b.clone()], &cfg()).unwrap();
        let vc = solve(&[a, b], &cap).unwrap();
        assert_eq!(ve.is_compatible(), vc.is_compatible());
    }

    /// The verdict surface behaves.
    #[test]
    fn verdict_accessors() {
        let compat = Verdict::Compatible {
            rotations: vec![zero_rotation()],
            slack_fraction: 0.5,
        };
        assert!(compat.is_compatible());
        assert_eq!(compat.overlap_fraction(), 0.0);
        let incompat = Verdict::Incompatible {
            best_overlap_fraction: 0.25,
        };
        assert!(!incompat.is_compatible());
        assert_eq!(incompat.rotations(), None);
        assert_eq!(incompat.overlap_fraction(), 0.25);
        let unknown = Verdict::Inconclusive {
            best_overlap_fraction: 0.1,
        };
        assert!(!unknown.is_compatible());
        assert_eq!(unknown.overlap_fraction(), 0.1);
    }

    /// A tiny budget on a hard instance yields Inconclusive, not a wrong
    /// answer.
    #[test]
    fn budget_exhaustion_is_honest() {
        // Feasible but needing search: several jobs, tight fit.
        let jobs: Vec<Profile> = (0..5)
            .map(|i| Profile::compute_then_comm(ms(80 + i), ms(20 - i)))
            .collect();
        let mut c = cfg();
        c.max_steps = 3; // absurdly small
        c.restarts = 1;
        let v = solve(&jobs, &c).unwrap();
        assert!(
            matches!(v, Verdict::Inconclusive { .. }) || v.is_compatible(),
            "tiny budget must not prove incompatibility: {v:?}"
        );
    }

    /// The max-margin solver finds the robustness slack: two half-loaded
    /// jobs on a 100 ms circle have 50 ms of free arc, so each arc can
    /// inflate by ~12.5 ms on each side before the fit is exact.
    #[test]
    fn max_margin_finds_the_slack() {
        let a = Profile::compute_then_comm(ms(75), ms(25));
        let b = Profile::compute_then_comm(ms(75), ms(25));
        let (v, margin) =
            crate::solve_max_margin(&[a, b], &cfg(), ms(40), Dur::from_micros(500)).unwrap();
        assert!(v.is_compatible());
        // Free space: 100 − 50 = 50 ms over 4 inflated arc sides → 12.5 ms
        // per side, minus sector-rounding slack.
        let m = margin.as_millis_f64();
        assert!((11.0..=12.5).contains(&m), "margin {m:.2} ms");
        // An exactly-full pair has no slack at all.
        let c = Profile::compute_then_comm(ms(50), ms(50));
        let d = Profile::compute_then_comm(ms(50), ms(50));
        let (v, margin) =
            crate::solve_max_margin(&[c, d], &cfg(), ms(40), Dur::from_micros(500)).unwrap();
        assert!(v.is_compatible());
        assert!(margin < ms(1), "tight pair margin {margin}");
        // Incompatible pairs report zero margin with the base verdict.
        let e = Profile::compute_then_comm(ms(30), ms(70));
        let f = Profile::compute_then_comm(ms(30), ms(70));
        let (v, margin) =
            crate::solve_max_margin(&[e, f], &cfg(), ms(40), Dur::from_micros(500)).unwrap();
        assert!(!v.is_compatible());
        assert_eq!(margin, Dur::ZERO);
    }

    /// A huge margin budget that still fits is returned as-is.
    #[test]
    fn max_margin_saturates_at_budget() {
        let a = Profile::compute_then_comm(ms(95), ms(5));
        let b = Profile::compute_then_comm(ms(95), ms(5));
        let (v, margin) =
            crate::solve_max_margin(&[a, b], &cfg(), ms(10), Dur::from_micros(500)).unwrap();
        assert!(v.is_compatible());
        assert_eq!(margin, ms(10));
    }

    /// Online admission against fixed residents: feasible when space
    /// remains, refused when the newcomer cannot fit around them, and the
    /// returned rotation verifiably avoids every resident.
    #[test]
    fn admit_respects_fixed_residents() {
        let cfg = cfg();
        // Resident occupying [50, 80) of a 100 ms circle (rotated there).
        let resident = Profile::compute_then_comm(ms(70), ms(30));
        let r_rot = Rotation {
            sectors: 0,
            shift: ms(80), // comm [70,100) shifted 80 → [150,180) ≡ [50,80)
            degrees: 0.0,
        };
        // Newcomer needing 40 ms: fits in the remaining 70.
        let newcomer = Profile::compute_then_comm(ms(60), ms(40));
        let got = admit(&[(resident.clone(), r_rot)], &newcomer, &cfg)
            .unwrap()
            .expect("40 ms fits around a 30 ms resident");
        let placed = newcomer.rotated(got.shift);
        let fixed = resident.rotated(r_rot.shift);
        for t in 0..100 {
            assert!(
                !(placed.communicating_at(ms(t)) && fixed.communicating_at(ms(t))),
                "overlap at {t} ms"
            );
        }
        // A newcomer needing 75 ms cannot fit around 30.
        let big = Profile::compute_then_comm(ms(25), ms(75));
        assert!(admit(&[(resident, r_rot)], &big, &cfg).unwrap().is_none());
    }

    /// Admission is strictly weaker than a full re-solve: two residents
    /// pinned at clashing-for-the-newcomer positions can refuse a job that
    /// a global re-solve would fit.
    #[test]
    fn admit_is_weaker_than_resolve() {
        let cfg = cfg();
        // Residents: 30 ms arcs pinned at [0,30) and [50,80) — the free
        // gaps are 20 ms each, too small for a 35 ms newcomer.
        let a = Profile::new(
            ms(100),
            vec![crate::Arc {
                start: ms(0),
                end: ms(30),
            }],
            1.0,
        );
        let b = Profile::new(
            ms(100),
            vec![crate::Arc {
                start: ms(50),
                end: ms(80),
            }],
            1.0,
        );
        let zero = Rotation {
            sectors: 0,
            shift: Dur::ZERO,
            degrees: 0.0,
        };
        let newcomer = Profile::compute_then_comm(ms(65), ms(35));
        assert!(
            admit(&[(a.clone(), zero), (b.clone(), zero)], &newcomer, &cfg)
                .unwrap()
                .is_none()
        );
        // But globally, 30 + 30 + 35 = 95 ≤ 100: a full re-solve fits it.
        let v = solve(&[a, b, newcomer], &cfg).unwrap();
        assert!(v.is_compatible(), "{v:?}");
    }

    /// A compatible verdict's rotations score zero overlap; the unrotated
    /// (all-zero) assignment of a clashing pair scores positive, and a
    /// fully clashing pair scores its joint arc length.
    #[test]
    fn overlap_of_assignment_matches_verdict() {
        let a = Profile::compute_then_comm(ms(141), ms(114));
        let b = Profile::compute_then_comm(ms(200), ms(55));
        let v = solve_pair(&a, &b, &cfg()).unwrap();
        let rots = v.rotations().unwrap();
        let sectors = cfg().sectors;
        let solved = overlap_fraction_of(&[a.clone(), b.clone()], rots, sectors).unwrap();
        assert_eq!(solved, 0.0, "compatible rotations must not overlap");
        // Identical jobs left unrotated collide over their whole comm arc.
        let c = Profile::compute_then_comm(ms(75), ms(25));
        let zero = [zero_rotation(), zero_rotation()];
        let clash = overlap_fraction_of(&[c.clone(), c.clone()], &zero, sectors).unwrap();
        assert!((clash - 0.25).abs() < 0.01, "clash {clash}");
        // Rotating one of them by its arc length clears the overlap.
        let shifted = [
            zero_rotation(),
            Rotation {
                sectors: sectors / 4,
                shift: ms(25),
                degrees: 90.0,
            },
        ];
        let cleared = overlap_fraction_of(&[c.clone(), c], &shifted, sectors).unwrap();
        assert_eq!(cleared, 0.0, "rotated copies must not overlap");
    }

    /// Determinism: same inputs and seed give the same verdict and
    /// rotations.
    #[test]
    fn solver_is_deterministic() {
        let jobs = [
            Profile::compute_then_comm(ms(141), ms(114)),
            Profile::compute_then_comm(ms(200), ms(55)),
        ];
        let v1 = solve(&jobs, &cfg()).unwrap();
        let v2 = solve(&jobs, &cfg()).unwrap();
        assert_eq!(v1, v2);
    }
}
