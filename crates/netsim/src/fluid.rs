//! The event-driven fluid engine: idealized bandwidth sharing over an
//! arbitrary topology.
//!
//! Where the [`crate::rate`] engine lets congestion control *emerge*, this
//! engine imposes an instantaneous allocation policy and advances directly
//! from flow event to flow event — no fixed time step, so a 1000-iteration
//! cluster experiment costs thousands of allocation recomputes rather than
//! tens of millions of micro-steps. It drives the paper's mechanism
//! experiments:
//!
//! * [`SharingPolicy::MaxMin`] — the idealized fair baseline;
//! * [`SharingPolicy::Weighted`] — static unfairness as a weight vector
//!   (the fluid analogue of tuning DCQCN's `T`);
//! * [`SharingPolicy::Priority`] — switch priority queues (§4.ii): higher
//!   classes preempt lower ones entirely;
//! * [`SharingPolicy::Cc`] — one [`CcVariant`] per job, mapped to
//!   allocation weights via [`CcVariant::fluid_weight`] so the whole
//!   congestion-control zoo runs on all three engines;
//! * [`Gate`]s — precise flow scheduling (§4.iii): a job's communication
//!   phase is released only at scheduled instants derived from the
//!   geometry solver's rotation angles.

use crate::alloc::{strict_priority_into, weighted_max_min_into, AllocScratch, FlowDemand};
use crate::job::{self, Job};
use crate::snapshot::{check_barrier, check_version, SnapshotError, SNAPSHOT_VERSION};
use crate::Engine;
use dcqcn::CcVariant;
use eventsim::EventQueue;
use simtime::{Bandwidth, Dur, Time};
use telemetry::{CcState, Event, NoopRecorder, Recorder, SpanTracker};
use topology::{partition, LinkId, LinkSchedule, Topology};
use workload::{JobProgress, JobSpec, PhaseNoise};

/// How link bandwidth is divided among contending flows.
#[derive(Debug, Clone)]
pub enum SharingPolicy {
    /// Plain max-min fairness (what ideal fair congestion control gives).
    MaxMin,
    /// Weighted max-min with one weight per job.
    Weighted(Vec<f64>),
    /// Strict priorities with one class per job; higher class wins the
    /// whole link while it communicates.
    Priority(Vec<u8>),
    /// One congestion-control variant per job, realized as weighted
    /// max-min with each job's weight given by
    /// [`CcVariant::fluid_weight`] — the fluid analogue of the emergent
    /// split the packet/rate engines produce for the same variants.
    /// Progress-sensitive variants (`AdaptiveUnfair`, `Mltcp`,
    /// bonus-decay policies) are re-weighted from each job's current
    /// phase progress at every allocation event.
    Cc(Vec<CcVariant>),
}

/// A job's progress through its current communication phase in `[0, 1]`
/// (0 while computing), feeding [`CcVariant::fluid_weight`].
fn comm_progress(progress: &JobProgress) -> f64 {
    if !progress.is_communicating() {
        return 0.0;
    }
    let total = progress.comm_bytes_per_iteration();
    if total <= 0.0 {
        return 0.0;
    }
    ((total - progress.remaining_bytes()) / total).clamp(0.0, 1.0)
}

/// A communication-phase release gate (§4.iii): the phase may start only at
/// instants `t` with `(t − offset) ≡ 0 (mod period)`. A job whose forward
/// pass finishes between slots waits for the next one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// Slot anchor.
    pub offset: Dur,
    /// Slot period (normally the job's iteration time).
    pub period: Dur,
}

impl Gate {
    /// The first release instant at or after `now`.
    pub fn next_release(&self, now: Time) -> Time {
        assert!(!self.period.is_zero(), "Gate: zero period");
        let off = self.offset % self.period;
        let pos = (now.elapsed() + self.period - off) % self.period;
        if pos.is_zero() {
            now
        } else {
            now + (self.period - pos)
        }
    }
}

/// One flow of a job: a path through the fabric and the share of the job's
/// per-iteration bytes it carries.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Links traversed.
    pub links: Vec<LinkId>,
    /// Fraction of the job's communication bytes on this flow, in `(0, 1]`.
    pub fraction: f64,
}

/// A job participating in the fluid simulation.
#[derive(Debug, Clone)]
pub struct FluidJob {
    /// The training job.
    pub spec: JobSpec,
    /// When its first compute phase starts.
    pub start_offset: Dur,
    /// Its flows. Fractions must sum to 1.
    pub flows: Vec<FlowSpec>,
    /// Total bytes injected per iteration across all flows. `None` uses
    /// the spec's calibrated volume; placements that split the allreduce
    /// into `k` concurrent inter-rack hops set `k ×` the calibrated bytes
    /// (each hop carries the full ring volume).
    pub total_bytes_override: Option<f64>,
    /// Fault injection: per-iteration phase jitter and stragglers.
    /// `None` keeps the unperturbed iteration plan.
    pub noise: Option<PhaseNoise>,
    /// Fault injection: the job leaves the cluster at the first compute
    /// instant at or after this time (an in-flight communication phase
    /// finishes first).
    pub depart_at: Option<Time>,
}

impl FluidJob {
    /// A job with one flow carrying all its bytes over `links`.
    pub fn single_path(spec: JobSpec, links: Vec<LinkId>) -> FluidJob {
        FluidJob {
            spec,
            start_offset: Dur::ZERO,
            flows: vec![FlowSpec {
                links,
                fraction: 1.0,
            }],
            total_bytes_override: None,
            noise: None,
            depart_at: None,
        }
    }

    /// Same, with a staggered start.
    pub fn single_path_at(spec: JobSpec, links: Vec<LinkId>, start_offset: Dur) -> FluidJob {
        FluidJob {
            start_offset,
            ..FluidJob::single_path(spec, links)
        }
    }
}

/// Configuration of the fluid engine.
#[derive(Debug, Clone)]
pub struct FluidConfig {
    /// Allocation policy.
    pub policy: SharingPolicy,
    /// Optional per-job communication gates (§4.iii).
    pub gates: Vec<Option<Gate>>,
    /// Per-flow rate cap (NIC line rate).
    pub nic_rate: Bandwidth,
    /// Fault injection: per-link capacity schedules (empty = no faults).
    /// When non-empty, must have one entry per topology link; identity
    /// entries cost nothing at runtime.
    pub link_schedules: Vec<LinkSchedule>,
}

impl FluidConfig {
    /// Max-min sharing, no gates, 50 Gbps NICs.
    pub fn fair() -> FluidConfig {
        FluidConfig {
            policy: SharingPolicy::MaxMin,
            gates: Vec::new(),
            nic_rate: Bandwidth::from_gbps(50),
            link_schedules: Vec::new(),
        }
    }
}

/// Legacy array-of-structs per-flow state. The engine itself now keeps
/// flows in the SoA [`FlowArena`]; this layout survives (for one PR) as
/// the **differential-oracle view** — [`FluidSimulator::aos_view`]
/// reconstructs it from the arena, and the invariant probe feeds the
/// reference allocator from it, so any divergence between the two layouts
/// fails loudly instead of silently corrupting an allocation.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowState {
    /// Links traversed (indices into the topology's link table).
    pub links: Vec<usize>,
    /// Fraction of the job's phase bytes carried by this flow, in `(0, 1]`.
    pub fraction: f64,
    /// Bytes left in the current phase (0 while idle).
    pub remaining: f64,
    /// Current allocated rate, bits/s.
    pub rate: f64,
}

/// Arena-indexed SoA storage for every flow in the simulation: parallel
/// columns indexed by a global flow id, per-job contiguous ranges, and
/// CSR-flattened link lists. The allocator's hot loop walks contiguous
/// slices instead of chasing per-job `Vec<FlowState>` pointers, and a
/// snapshot of the whole arena is a handful of near-memcpy `Vec` clones.
#[derive(Debug, Clone, Default)]
struct FlowArena {
    /// Flows of job `j` occupy global ids `flow_off[j] .. flow_off[j+1]`.
    flow_off: Vec<u32>,
    /// Owning job of each flow (the inverse of `flow_off`).
    job_of: Vec<u32>,
    /// Share of the job's phase bytes carried by each flow, in `(0, 1]`.
    fraction: Vec<f64>,
    /// Bytes left in the current phase (0 while idle).
    remaining: Vec<f64>,
    /// Current allocated rate, bits/s.
    rate: Vec<f64>,
    /// CSR-flattened link lists in the owning component's local link ids
    /// (see [`Component::links`]); flow `f` traverses
    /// `links[link_off[f] .. link_off[f+1]]`.
    links: Vec<usize>,
    link_off: Vec<u32>,
    /// The same lists cut to the links the owning component's solves run
    /// over, numbered by position in [`Component::solved`]; flow `f`
    /// crosses `solve_links[solve_off[f] .. solve_off[f+1]]`.
    solve_links: Vec<usize>,
    solve_off: Vec<u32>,
}

impl FlowArena {
    fn job_range(&self, j: usize) -> std::ops::Range<usize> {
        self.flow_off[j] as usize..self.flow_off[j + 1] as usize
    }

    fn links_of(&self, f: usize) -> &[usize] {
        &self.links[self.link_off[f] as usize..self.link_off[f + 1] as usize]
    }

    fn solve_links_of(&self, f: usize) -> &[usize] {
        &self.solve_links[self.solve_off[f] as usize..self.solve_off[f + 1] as usize]
    }

    fn flow_count(&self) -> usize {
        self.fraction.len()
    }

    /// Structural invariants a well-formed arena satisfies; `restore`
    /// rejects a snapshot whose columns disagree.
    fn validate(&self, job_count: usize) -> Result<(), SnapshotError> {
        let n = self.flow_count();
        if self.flow_off.len() != job_count + 1
            || self.flow_off[0] != 0
            || *self.flow_off.last().unwrap() as usize != n
            || self.flow_off.windows(2).any(|w| w[0] > w[1])
        {
            return Err(SnapshotError::Malformed {
                what: "flow arena job offsets",
            });
        }
        if self.job_of.len() != n || self.remaining.len() != n || self.rate.len() != n {
            return Err(SnapshotError::Malformed {
                what: "flow arena column lengths disagree",
            });
        }
        for (off, links) in [
            (&self.link_off, &self.links),
            (&self.solve_off, &self.solve_links),
        ] {
            if off.len() != n + 1
                || *off.last().unwrap() as usize != links.len()
                || off.windows(2).any(|w| w[0] > w[1])
            {
                return Err(SnapshotError::Malformed {
                    what: "flow arena link offsets",
                });
            }
        }
        Ok(())
    }
}

/// One link-disjoint component of the job set. Routes never change, so
/// the split is made once at construction; no flow of one component ever
/// shares a link with another's. Each component is solved, advanced,
/// traced and cached on its own, performing exactly the float operations
/// a simulator holding only its jobs would — so a global run and a
/// per-component sharded run agree bit for bit.
///
/// Its solves run over [`Component::solved`], the links that can bind:
/// [`binding_links`] drops each link whose flows all cross another link
/// of the same capacity, neither with a capacity schedule. Progressive
/// filling raises both links' flows by the same level each round. The
/// dropped link's sum of unfrozen weights stays at or below the other's
/// (always for identical flow sets, and for nested ones when the weights
/// are whole, see [`exact_weight_sums`]), so, float rounding being
/// monotone, its residual stays at or above the other's. Its share is
/// then never the minimum, and with equal saturation thresholds it
/// cannot saturate unless the other link does: the rates are those of
/// the full solve, bit for bit. `Priority` keeps every link, since each
/// class re-derives thresholds from residuals, which then differ. A
/// `MaxMin` component left with one link skips the kernel: each flow on
/// it gets `(cap / n).min(nic).max(0.0)`, the one round
/// `progressive_fill` performs on that input.
#[derive(Debug, Clone)]
struct Component {
    /// Member jobs, ascending global index.
    jobs: Vec<usize>,
    /// The global ids of the links the members' flows traverse, ascending:
    /// local link `k` is global link `links[k]`, the numbering
    /// `topology::subgraph` gives the same link set.
    links: Vec<usize>,
    /// Current capacity of each local link, bits/s.
    capacities: Vec<f64>,
    /// Local ids of the links the solves run over, ascending; solve link
    /// `i` is local link `solved[i]`.
    solved: Vec<usize>,
    /// The fluid clock: the instant this component's flows were last
    /// advanced to (never ahead of the simulator's clock).
    clock: Time,
    /// A reallocation is pending.
    dirty: bool,
    /// The next reallocation re-runs the solver even if the active set is
    /// unchanged: set for the first solve and when a link's capacity
    /// changes, which invalidates rates without touching the set.
    force_resolve: bool,
    /// Allocation weights depend on live job progress (progress-sensitive
    /// [`SharingPolicy::Cc`] variants): the skip-solve fast path would
    /// freeze stale weights, so every reallocation re-runs the solver.
    dynamic: bool,
    /// Sorted global-flow-id index of currently active flows — the flows
    /// the activity predicate would select, maintained incrementally at
    /// releases, completions, and phase ends so the allocator never
    /// rescans every job.
    active: Vec<u32>,
    /// The active set the last solver pass ran over. When a reallocation
    /// request finds the set unchanged, the solve is skipped outright.
    /// Only these flows can hold a nonzero rate.
    solved_active: Vec<u32>,
    /// Earliest absolute completion instant among active flows under the
    /// current allocation, or `None` if nothing is draining. Completion
    /// times are invariant between rate changes (remaining bytes shrink
    /// linearly), so this is refreshed only when rates change instead of
    /// rescanning every flow per event loop turn.
    next_completion: Option<Time>,
    /// Reusable allocator working memory.
    scratch: AllocScratch,
    /// Reusable solver output buffer, parallel to `active`.
    rate_buf: Vec<f64>,
    /// Reusable capacities of the `solved` links, rebuilt per solve.
    solve_caps: Vec<f64>,
}

impl Component {
    fn new(jobs: Vec<usize>, links: Vec<usize>, capacities: Vec<f64>, dynamic: bool) -> Component {
        Component {
            jobs,
            links,
            capacities,
            solved: Vec::new(),
            clock: Time::ZERO,
            dirty: true,
            force_resolve: true,
            dynamic,
            active: Vec::new(),
            solved_active: Vec::new(),
            next_completion: None,
            scratch: AllocScratch::new(),
            rate_buf: Vec::new(),
            solve_caps: Vec::new(),
        }
    }
}

/// The rate each of `n > 0` unit-weight flows capped at `nic` gets on one
/// link of capacity `cap`: the single round of `progressive_fill` on that
/// input (share `cap / n`, cut to the cap, floored at zero, added to a
/// zero rate), after which every flow freezes at once.
fn one_link_share(cap: f64, n: usize, nic: f64) -> f64 {
    (cap / n as f64).min(nic).max(0.0)
}

/// Whether every weight `policy` gives `members` is a whole number no
/// larger than 2^20, so that any sum or difference of a link's weights
/// (fewer than 2^33 terms) is exact. With rounded weights, a flow
/// freezing off the larger of two nested links can leave that link's
/// weight a few ulps below the smaller one's; only identical link sets
/// stay bit-exact then.
fn exact_weight_sums(policy: &SharingPolicy, members: &[usize]) -> bool {
    let whole = |w: f64| w.fract() == 0.0 && w <= 1_048_576.0;
    match policy {
        SharingPolicy::MaxMin => true,
        SharingPolicy::Weighted(w) => members.iter().all(|&j| whole(w[j])),
        SharingPolicy::Priority(_) => false,
        SharingPolicy::Cc(vs) => members
            .iter()
            .all(|&j| !vs[j].wants_progress() && whole(vs[j].fluid_weight(0.0))),
    }
}

/// The local ids of the links `comp`'s solves must run over, ascending.
///
/// Drops link `k` when another link `d` of equal capacity carries every
/// flow `k` carries, neither link has a capacity schedule
/// (`scheduled`, by global id) and no flow crosses `k` twice: if both
/// carry the same flows, the higher id goes; if `d` carries more, `k` goes
/// only when `strict` (see [`exact_weight_sums`]). Each dropped link has a
/// kept link carrying all its flows, since every chain of drops ends at a
/// link that nothing drops. Every superset of `k`'s flows contains its
/// first flow's links, so only those are tried: with the link → flow
/// incidence in two flat buffers (`off`, `flows`), the pass costs the
/// incidence count times the square of the longest route.
fn binding_links(
    comp: &Component,
    arena: &FlowArena,
    scheduled: impl Fn(usize) -> bool,
    strict: bool,
    off: &mut Vec<u32>,
    flows: &mut Vec<u32>,
) -> Vec<usize> {
    let m = comp.links.len();
    let comp_flows = || comp.jobs.iter().flat_map(|&j| arena.job_range(j));
    off.clear();
    off.resize(m + 1, 0);
    for f in comp_flows() {
        for &k in arena.links_of(f) {
            off[k + 1] += 1;
        }
    }
    for k in 0..m {
        off[k + 1] += off[k];
    }
    flows.clear();
    flows.resize(off[m] as usize, 0);
    // Fill each link's run through its start offset, then shift back.
    for f in comp_flows() {
        for &k in arena.links_of(f) {
            flows[off[k] as usize] = f as u32;
            off[k] += 1;
        }
    }
    for k in (0..m).rev() {
        off[k + 1] = off[k];
    }
    off[0] = 0;
    let on = |k: usize| &flows[off[k] as usize..off[k + 1] as usize];
    let dominated = |k: usize| {
        let fs = on(k);
        if fs.is_empty() || scheduled(comp.links[k]) || fs.windows(2).any(|w| w[0] == w[1]) {
            return false;
        }
        arena.links_of(fs[0] as usize).iter().any(|&d| {
            let wider = on(d).len() > fs.len();
            d != k
                && (if wider { strict } else { d < k })
                && comp.capacities[d] == comp.capacities[k]
                && !scheduled(comp.links[d])
                && fs.iter().all(|&f| arena.links_of(f as usize).contains(&d))
        })
    };
    (0..m).filter(|&k| !dominated(k)).collect()
}

/// Each job's component, and each link's `(component, local id)`.
type ComponentIndex = (Vec<u32>, Vec<Option<(u32, u32)>>);

/// Where each job and link sits among the components: the job's
/// component, and each link's `(component, local id)` (`None` for links no
/// flow crosses). Checks that `comps` partition the jobs and own disjoint,
/// ascending link sets, so a restored snapshot cannot alias state.
fn index_components(
    comps: &[Component],
    job_count: usize,
    link_count: usize,
) -> Result<ComponentIndex, SnapshotError> {
    let malformed = |what| Err(SnapshotError::Malformed { what });
    let mut comp_of_job = vec![u32::MAX; job_count];
    let mut link_owner = vec![None; link_count];
    for (c, comp) in comps.iter().enumerate() {
        if comp.jobs.is_empty() || comp.jobs.windows(2).any(|w| w[0] >= w[1]) {
            return malformed("component jobs empty or unsorted");
        }
        for &j in &comp.jobs {
            match comp_of_job.get_mut(j) {
                Some(slot) if *slot == u32::MAX => *slot = c as u32,
                _ => return malformed("component jobs overlap or out of range"),
            }
        }
        if comp.links.windows(2).any(|w| w[0] >= w[1]) || comp.capacities.len() != comp.links.len()
        {
            return malformed("component links unsorted or capacities mismatch");
        }
        for (k, &l) in comp.links.iter().enumerate() {
            match link_owner.get_mut(l) {
                Some(slot @ None) => *slot = Some((c as u32, k as u32)),
                _ => return malformed("component links overlap or out of range"),
            }
        }
    }
    if comp_of_job.contains(&u32::MAX) {
        return malformed("a job belongs to no component");
    }
    Ok((comp_of_job, link_owner))
}

#[derive(Debug, Clone)]
struct JState {
    job: Job,
    gate: Option<Gate>,
    /// Whether the current communication phase has been released.
    released: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// Check a job's compute deadline.
    Poll(usize),
    /// A gate releases a job's pending communication phase.
    GateOpen(usize),
    /// A link's fault schedule changes its capacity multiplier.
    LinkChange(usize),
}

/// Sub-byte residual below which a flow's phase share counts as finished.
const FLOW_EPS: f64 = 0.5;

/// Inserts job `j`'s flows with bytes pending into the sorted active
/// index. Per-job flow ids are contiguous in the arena, so the job's
/// flows splice in as one ascending run (free function so callers can
/// hold `&mut` job state alongside).
fn activate_job_flows(active: &mut Vec<u32>, arena: &FlowArena, j: usize) {
    let range = arena.job_range(j);
    let at = active.partition_point(|&f| (f as usize) < range.start);
    debug_assert!(
        active.get(at).is_none_or(|&f| f as usize >= range.end),
        "job {j} released while already active"
    );
    active.splice(
        at..at,
        range
            .filter(|&f| arena.remaining[f] > 0.0)
            .map(|f| f as u32),
    );
}

/// Removes one flow from the active index, if present.
fn deactivate_flow(active: &mut Vec<u32>, f: usize) {
    if let Ok(pos) = active.binary_search(&(f as u32)) {
        active.remove(pos);
    }
}

/// Removes every flow of job `j` from the active index (phase end).
fn deactivate_job(active: &mut Vec<u32>, arena: &FlowArena, j: usize) {
    let range = arena.job_range(j);
    let lo = active.partition_point(|&f| (f as usize) < range.start);
    let hi = active.partition_point(|&f| (f as usize) < range.end);
    active.drain(lo..hi);
}

/// The event-driven fluid simulator.
///
/// Generic over a [`Recorder`]; the default [`NoopRecorder`] compiles all
/// instrumentation away. Observed runs use
/// [`FluidSimulator::with_recorder`].
///
/// Jobs are split at construction into link-disjoint components
/// ([`topology::partition`] over their routes). An event or completion
/// advances, re-solves and traces only its own component, so one global
/// simulator costs what per-component shards do and produces the same
/// bits.
pub struct FluidSimulator<R: Recorder = NoopRecorder> {
    st: FluidState,
    rec: R,
}

/// Everything a [`FluidSimulator`] holds but its recorder. A
/// [`FluidSnapshot`] is a clone of it.
#[derive(Clone)]
struct FluidState {
    /// Current capacity of every topology link.
    capacities: Vec<f64>,
    /// Unperturbed link capacities; `capacities` is this scaled by the
    /// fault schedules' current multipliers. Empty when no schedules.
    base_capacities: Vec<f64>,
    /// Per-link fault schedules (empty = no capacity faults).
    link_schedules: Vec<LinkSchedule>,
    jobs: Vec<JState>,
    /// SoA per-flow state, indexed by global flow id.
    arena: FlowArena,
    /// Link-disjoint components, ordered by smallest member job.
    comps: Vec<Component>,
    /// Component of each job.
    comp_of_job: Vec<u32>,
    /// `(component, local id)` of each topology link a flow crosses.
    link_owner: Vec<Option<(u32, u32)>>,
    events: EventQueue<Ev>,
    /// The simulator's clock: the last instant the event loop reached.
    /// Distinct from the event queue's internal clock, which only advances
    /// when events pop; each component's flows were last advanced to its
    /// own [`Component::clock`], at or before this.
    now: Time,
    policy: SharingPolicy,
    nic_rate: f64,
    /// Typed-span emission state (empty when `R` is disabled).
    spans: SpanTracker,
    /// Allocation-solver passes so far (also the solver-iteration index).
    allocs: u64,
    /// Events popped from the queue so far.
    events_popped: u64,
    /// Last aggregate rate recorded per job, to compress telemetry.
    last_rates: Vec<f64>,
}

impl FluidSimulator {
    /// Builds an unobserved simulator over `topo` for the given jobs.
    ///
    /// # Panics
    /// Panics if `jobs` is empty, a flow fraction is outside `(0, 1]`, a
    /// job's fractions do not sum to 1, a policy vector's length mismatches
    /// the job count, or a gate vector's length mismatches.
    pub fn new(topo: &Topology, cfg: FluidConfig, jobs: &[FluidJob]) -> FluidSimulator {
        FluidSimulator::with_recorder(topo, cfg, jobs, NoopRecorder)
    }
}

impl<R: Recorder> FluidSimulator<R> {
    /// Builds a simulator whose instrumentation feeds `rec`.
    ///
    /// # Panics
    /// Same conditions as [`FluidSimulator::new`].
    pub fn with_recorder(
        topo: &Topology,
        cfg: FluidConfig,
        jobs: &[FluidJob],
        mut rec: R,
    ) -> FluidSimulator<R> {
        assert!(!jobs.is_empty(), "FluidSimulator: no jobs");
        let mut spans = SpanTracker::new::<R>(jobs.len());
        if R::ENABLED {
            for (j, job) in jobs.iter().enumerate() {
                let mut links: Vec<u32> = job
                    .flows
                    .iter()
                    .flat_map(|f| f.links.iter().map(|l| l.0))
                    .collect();
                links.sort_unstable();
                links.dedup();
                job::record_start(
                    &mut rec,
                    &mut spans,
                    Time::ZERO + job.start_offset,
                    j,
                    &links,
                );
            }
        }
        match &cfg.policy {
            SharingPolicy::MaxMin => {}
            SharingPolicy::Weighted(w) => {
                assert_eq!(w.len(), jobs.len(), "policy weights length mismatch")
            }
            SharingPolicy::Priority(p) => {
                assert_eq!(p.len(), jobs.len(), "policy priorities length mismatch")
            }
            SharingPolicy::Cc(vs) => {
                assert_eq!(vs.len(), jobs.len(), "policy variants length mismatch")
            }
        }
        if !cfg.gates.is_empty() {
            assert_eq!(cfg.gates.len(), jobs.len(), "gates length mismatch");
            for (j, job) in jobs.iter().enumerate() {
                assert!(
                    cfg.gates[j].is_none() || job.spec.pipeline.chunks == 1,
                    "job {j}: gates release whole communication phases; a \
                     pipelined job's gap segments would each wait for the \
                     next slot (unsupported combination)"
                );
            }
        }
        let mut capacities: Vec<f64> = topo
            .links()
            .iter()
            .map(|l| l.capacity.as_bps_f64())
            .collect();
        if !cfg.link_schedules.is_empty() {
            assert_eq!(
                cfg.link_schedules.len(),
                capacities.len(),
                "link_schedules length mismatches topology links"
            );
        }
        let mut events = EventQueue::new();
        // Seed one LinkChange per scheduled link; the handler chains to the
        // next change point, so the queue holds at most one per link. A
        // change at exactly t = 0 is already in effect and is applied here.
        let mut base_capacities = Vec::new();
        let mut link_schedules = Vec::new();
        if cfg.link_schedules.iter().any(|s| !s.is_identity()) {
            base_capacities = capacities.clone();
            for (l, s) in cfg.link_schedules.iter().enumerate() {
                let m = s.multiplier_at(Time::ZERO);
                if m != 1.0 {
                    capacities[l] = base_capacities[l] * m;
                    if R::ENABLED {
                        rec.record(
                            Time::ZERO,
                            Event::LinkCapacity {
                                link: l as u32,
                                fraction: m,
                            },
                        );
                    }
                }
                if let Some(at) = s.next_change_after(Time::ZERO) {
                    events.schedule_at(at, Ev::LinkChange(l));
                }
            }
            link_schedules = cfg.link_schedules.clone();
        }
        let mut states = Vec::with_capacity(jobs.len());
        let mut arena = FlowArena::default();
        arena.flow_off.push(0);
        arena.link_off.push(0);
        for (j, job) in jobs.iter().enumerate() {
            let total: f64 = job.flows.iter().map(|f| f.fraction).sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "job {j}: flow fractions sum to {total}, expected 1"
            );
            for f in &job.flows {
                assert!(
                    f.fraction > 0.0 && f.fraction <= 1.0,
                    "job {j}: flow fraction {} outside (0, 1]",
                    f.fraction
                );
                arena.job_of.push(j as u32);
                arena.fraction.push(f.fraction);
                arena.remaining.push(0.0);
                arena.rate.push(0.0);
                arena.links.extend(f.links.iter().map(|l| l.0 as usize));
                arena.link_off.push(arena.links.len() as u32);
            }
            arena.flow_off.push(arena.flow_count() as u32);
            let bytes = job
                .total_bytes_override
                .unwrap_or(job.spec.comm_bytes().as_bytes() as f64);
            let progress =
                JobProgress::with_noise(job.spec, Time::ZERO + job.start_offset, bytes, job.noise);
            let poll_at = progress
                .next_self_transition()
                .expect("job starts computing");
            events.schedule_at(poll_at, Ev::Poll(j));
            states.push(JState {
                job: Job::new(progress, job.depart_at),
                gate: cfg.gates.get(j).copied().flatten(),
                released: false,
            });
        }
        // Split the jobs into link-disjoint components and renumber each
        // flow's links densely within its component.
        let link_sets: Vec<Vec<LinkId>> = jobs
            .iter()
            .map(|job| job.flows.iter().flat_map(|f| f.links.clone()).collect())
            .collect();
        let mut comps: Vec<Component> = partition(&link_sets)
            .components()
            .iter()
            .map(|members| {
                let mut links: Vec<usize> = members
                    .iter()
                    .flat_map(|&j| link_sets[j].iter().map(|l| l.0 as usize))
                    .collect();
                links.sort_unstable();
                links.dedup();
                let caps = links.iter().map(|&l| capacities[l]).collect();
                let dynamic = matches!(&cfg.policy, SharingPolicy::Cc(vs)
                    if members.iter().any(|&j| vs[j].wants_progress()));
                Component::new(members.clone(), links, caps, dynamic)
            })
            .collect();
        let (comp_of_job, link_owner) = index_components(&comps, jobs.len(), capacities.len())
            .expect("partition yields disjoint components");
        for f in 0..arena.flow_count() {
            let comp = &comps[comp_of_job[arena.job_of[f] as usize] as usize];
            let span = arena.link_off[f] as usize..arena.link_off[f + 1] as usize;
            for l in &mut arena.links[span] {
                *l = comp
                    .links
                    .binary_search(l)
                    .expect("link inside its component");
            }
        }
        // Cut each component to the links that can bind its solves, and
        // each flow's list to those links, renumbered.
        let scheduled = |l: usize| link_schedules.get(l).is_some_and(|s| !s.is_identity());
        let (mut off, mut inc) = (Vec::new(), Vec::new());
        for comp in &mut comps {
            comp.solved = match &cfg.policy {
                SharingPolicy::Priority(_) => (0..comp.links.len()).collect(),
                policy => {
                    let strict = exact_weight_sums(policy, &comp.jobs);
                    binding_links(comp, &arena, scheduled, strict, &mut off, &mut inc)
                }
            };
        }
        arena.solve_off.push(0);
        for f in 0..arena.flow_count() {
            let comp = &comps[comp_of_job[arena.job_of[f] as usize] as usize];
            let span = arena.link_off[f] as usize..arena.link_off[f + 1] as usize;
            for k in &arena.links[span] {
                if let Ok(i) = comp.solved.binary_search(k) {
                    arena.solve_links.push(i);
                }
            }
            arena.solve_off.push(arena.solve_links.len() as u32);
        }
        let st = FluidState {
            capacities,
            base_capacities,
            link_schedules,
            jobs: states,
            arena,
            comps,
            comp_of_job,
            link_owner,
            events,
            now: Time::ZERO,
            policy: cfg.policy,
            nic_rate: cfg.nic_rate.as_bps_f64(),
            spans,
            allocs: 0,
            events_popped: 0,
            last_rates: vec![0.0; jobs.len()],
        };
        FluidSimulator { st, rec }
    }

    /// Reconstructs every job's flows in the legacy array-of-structs
    /// layout — the differential-oracle view of the SoA arena, with link
    /// ids mapped back to the topology's. Test and validation code diffs
    /// engine behaviour through this view; it is not on any hot path.
    pub fn aos_view(&self) -> Vec<Vec<FlowState>> {
        let st = &self.st;
        (0..st.jobs.len())
            .map(|j| {
                let comp = &st.comps[st.comp_of_job[j] as usize];
                st.arena
                    .job_range(j)
                    .map(|f| FlowState {
                        links: st
                            .arena
                            .links_of(f)
                            .iter()
                            .map(|&k| comp.links[k])
                            .collect(),
                        fraction: st.arena.fraction[f],
                        remaining: st.arena.remaining[f],
                        rate: st.arena.rate[f],
                    })
                    .collect()
            })
            .collect()
    }

    /// Test-only invariant probe: reconstructs the legacy AoS layout via
    /// [`aos_view`](Self::aos_view), checks the incremental active index
    /// against a full predicate scan over it, and checks the arena's rates
    /// against a from-scratch reference allocation over every component
    /// at once, whose demands are built from the AoS view — a genuine
    /// SoA-vs-AoS and component-vs-global differential oracle.
    ///
    /// Returns `None` when rates are dirty (a reallocation is pending, so
    /// flow rates are transiently stale by design); otherwise the maximum
    /// absolute rate divergence in bits/s — which should be within float
    /// accumulation noise of zero.
    ///
    /// # Panics
    /// Panics if the active index disagrees with the predicate scan.
    #[doc(hidden)]
    pub fn debug_max_rate_divergence(&self) -> Option<f64> {
        let st = &self.st;
        if st.comps.iter().any(|c| c.dirty) {
            return None;
        }
        // Progress-sensitive weights move continuously between solves;
        // an oracle rebuilt from *current* progress would legitimately
        // diverge from rates solved at the last event, so the comparison
        // is only meaningful for static weights.
        if st.comps.iter().any(|c| c.dynamic) {
            return None;
        }
        let aos = self.aos_view();
        let scan: Vec<u32> = st
            .jobs
            .iter()
            .zip(&aos)
            .enumerate()
            .flat_map(|(j, (js, flows))| {
                let base = st.arena.flow_off[j];
                flows
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| {
                        js.job.progress.is_communicating() && js.released && f.remaining > 0.0
                    })
                    .map(move |(fi, _)| base + fi as u32)
            })
            .collect();
        let mut active: Vec<u32> = st.comps.iter().flat_map(|c| c.active.clone()).collect();
        active.sort_unstable();
        assert_eq!(
            scan, active,
            "active-flow index diverged from the AoS activity scan"
        );
        let demands: Vec<FlowDemand<'_>> = active
            .iter()
            .map(|&f| {
                let j = st.arena.job_of[f as usize] as usize;
                let fi = f as usize - st.arena.flow_off[j] as usize;
                let (weight, priority) = match &st.policy {
                    SharingPolicy::MaxMin => (1.0, 0),
                    SharingPolicy::Weighted(w) => (w[j], 0),
                    SharingPolicy::Priority(p) => (1.0, p[j]),
                    // Only static-weight variants reach here (see above).
                    SharingPolicy::Cc(vs) => (vs[j].fluid_weight(0.0), 0),
                };
                FlowDemand {
                    links: &aos[j][fi].links,
                    weight,
                    priority,
                    rate_cap: st.nic_rate,
                }
            })
            .collect();
        let reference = match &st.policy {
            SharingPolicy::Priority(_) => {
                crate::alloc::reference::strict_priority(&demands, &st.capacities)
            }
            _ => crate::alloc::reference::weighted_max_min(&demands, &st.capacities),
        };
        let mut worst = 0.0f64;
        for (k, &f) in active.iter().enumerate() {
            let got = st.arena.rate[f as usize];
            worst = worst.max((got - reference[k]).abs());
        }
        Some(worst)
    }

    /// Recomputes the allocation for component `c`'s active flows at its
    /// clock.
    ///
    /// Demands are borrowed straight from the flow states (no link-list
    /// clones) over the component's [`Component::solved`] links and
    /// solved into its reusable scratch buffers; a one-link `MaxMin`
    /// component takes its closed form instead. If the active set is
    /// identical to the one the last solve ran over, the rates cannot
    /// have changed and the solver is skipped entirely — only the
    /// telemetry/trace bookkeeping below runs, so observed streams are
    /// identical either way.
    fn recompute_rates(&mut self, c: usize) {
        let comp = &mut self.st.comps[c];
        if comp.force_resolve || comp.dynamic || comp.active != comp.solved_active {
            comp.force_resolve = false;
            for &f in &comp.solved_active {
                self.st.arena.rate[f as usize] = 0.0;
            }
            if matches!(self.st.policy, SharingPolicy::MaxMin) && comp.solved.len() <= 1 {
                let arena = &mut self.st.arena;
                let on_link = |f: &&u32| !arena.solve_links_of(**f as usize).is_empty();
                let n = comp.active.iter().filter(on_link).count();
                let share = comp.solved.first().map_or(0.0, |&k| {
                    one_link_share(comp.capacities[k], n, self.st.nic_rate)
                });
                for &f in &comp.active {
                    let linked = !arena.solve_links_of(f as usize).is_empty();
                    arena.rate[f as usize] = if linked { share } else { self.st.nic_rate };
                }
            } else {
                let arena = &self.st.arena;
                let jobs = &self.st.jobs;
                let mut demands: Vec<FlowDemand<'_>> = Vec::with_capacity(comp.active.len());
                for &f in &comp.active {
                    let j = arena.job_of[f as usize] as usize;
                    let (weight, priority) = match &self.st.policy {
                        SharingPolicy::MaxMin => (1.0, 0),
                        SharingPolicy::Weighted(w) => (w[j], 0),
                        SharingPolicy::Priority(p) => (1.0, p[j]),
                        SharingPolicy::Cc(vs) => {
                            (vs[j].fluid_weight(comm_progress(&jobs[j].job.progress)), 0)
                        }
                    };
                    demands.push(FlowDemand {
                        links: arena.solve_links_of(f as usize),
                        weight,
                        priority,
                        rate_cap: self.st.nic_rate,
                    });
                }
                comp.solve_caps.clear();
                let caps = comp.solved.iter().map(|&k| comp.capacities[k]);
                comp.solve_caps.extend(caps);
                let solve = match &self.st.policy {
                    SharingPolicy::Priority(_) => strict_priority_into,
                    _ => weighted_max_min_into,
                };
                solve(
                    &demands,
                    &comp.solve_caps,
                    &mut comp.scratch,
                    &mut comp.rate_buf,
                );
                for (k, &f) in comp.active.iter().enumerate() {
                    self.st.arena.rate[f as usize] = comp.rate_buf[k];
                }
            }
            comp.solved_active.clone_from(&comp.active);
        }
        self.st.allocs += 1;
        let now = comp.clock;
        if R::ENABLED {
            self.rec.record(
                now,
                Event::SolverIteration {
                    component: "fluid.alloc",
                    index: self.st.allocs,
                },
            );
            // Each member job's aggregate rate, when it changed.
            for &j in &comp.jobs {
                let total: f64 = self.st.arena.rate[self.st.arena.job_range(j)].iter().sum();
                if total != self.st.last_rates[j] {
                    self.st.last_rates[j] = total;
                    self.rec.record(
                        now,
                        Event::RateChange {
                            flow: j as u32,
                            bps: total,
                            state: CcState::Alloc,
                        },
                    );
                }
            }
        }
        comp.dirty = false;
        self.refresh_completion_cache(c);
    }

    /// Recomputes component `c`'s earliest-completion cache from its
    /// active index: O(active flows), run only when rates change (or to
    /// re-anchor after float dust), never per event-loop turn.
    fn refresh_completion_cache(&mut self, c: usize) {
        let comp = &mut self.st.comps[c];
        let mut best: Option<Time> = None;
        for &f in &comp.active {
            let (rate, remaining) = (
                self.st.arena.rate[f as usize],
                self.st.arena.remaining[f as usize],
            );
            if rate > 0.0 && remaining > 0.0 {
                let secs = remaining * 8.0 / rate;
                // Round up so we never stall on sub-nanosecond slices.
                let d = Dur::from_secs_f64(secs).max(Dur::NANOSECOND);
                let t = comp.clock + d;
                best = Some(match best {
                    None => t,
                    Some(b) => b.min(t),
                });
            }
        }
        comp.next_completion = best;
    }

    /// Advances component `c`'s active flows to `t`, delivering bytes to
    /// their jobs.
    fn advance_component(&mut self, c: usize, t: Time) {
        let comp = &mut self.st.comps[c];
        if t <= comp.clock {
            return;
        }
        let dt = (t - comp.clock).as_secs_f64();
        comp.clock = t;
        for &j in &comp.jobs {
            let js = &mut self.st.jobs[j];
            if !(js.job.progress.is_communicating() && js.released) {
                continue;
            }
            let mut delivered = 0.0;
            let mut all_done = true;
            let mut any_flow_finished = false;
            for f in self.st.arena.job_range(j) {
                let remaining = self.st.arena.remaining[f];
                if remaining > 0.0 {
                    let mut d = (self.st.arena.rate[f] * dt / 8.0).min(remaining);
                    if remaining - d <= FLOW_EPS {
                        d = remaining; // flush sub-byte dust exactly
                    }
                    self.st.arena.remaining[f] = remaining - d;
                    delivered += d;
                    if self.st.arena.remaining[f] > 0.0 {
                        all_done = false;
                    } else {
                        any_flow_finished = true;
                        deactivate_flow(&mut comp.active, f);
                    }
                }
            }
            if any_flow_finished {
                // A finished flow frees capacity for its siblings and
                // competitors: reallocate.
                comp.dirty = true;
            }
            if delivered > 0.0 {
                let progress = &mut js.job.progress;
                let mut finished_phase = progress.deliver(delivered, t).is_some();
                if !finished_phase && all_done && progress.is_communicating() {
                    // All flows delivered but the job believes bytes remain:
                    // float dust mismatch. Flush it.
                    let res = progress.remaining_bytes();
                    if res > 0.0 {
                        finished_phase = progress.deliver(res, t).is_some();
                    }
                }
                // Whether the delivery ended the whole iteration
                // (`finished_phase`) or just one pipelined segment, the job
                // is now computing: park the flows and schedule its poll.
                if !progress.is_communicating() {
                    debug_assert!(
                        all_done || !finished_phase,
                        "job finished with flow bytes left"
                    );
                    let poll_at = progress
                        .next_self_transition()
                        .expect("job computes between communication segments");
                    js.released = false;
                    deactivate_job(&mut comp.active, &self.st.arena, j);
                    self.st.events.schedule_at(poll_at.max(t), Ev::Poll(j));
                    comp.dirty = true;
                    js.job
                        .record_compute(&mut self.rec, &mut self.st.spans, t, j, finished_phase);
                }
            }
        }
    }

    /// The component whose state event `ev` touches, if any (a capacity
    /// change on a link no flow crosses touches none).
    fn component_of(&self, ev: Ev) -> Option<usize> {
        match ev {
            Ev::Poll(j) | Ev::GateOpen(j) => Some(self.st.comp_of_job[j] as usize),
            Ev::LinkChange(l) => self.st.link_owner[l].map(|(c, _)| c as usize),
        }
    }

    fn handle_event(&mut self, ev: Ev) {
        let now = self.st.now;
        match ev {
            Ev::Poll(j) => {
                let comp = &mut self.st.comps[self.st.comp_of_job[j] as usize];
                let js = &mut self.st.jobs[j];
                // The job arms no further events once it has departed.
                if js.job.departs(&mut self.rec, now, j) {
                    return;
                }
                if js.job.poll(&mut self.rec, &mut self.st.spans, now, j) {
                    // Phase bytes split across flows by fraction.
                    let total = js.job.progress.remaining_bytes();
                    for f in self.st.arena.job_range(j) {
                        self.st.arena.remaining[f] = total * self.st.arena.fraction[f];
                    }
                    match js.gate.map(|g| g.next_release(now)) {
                        Some(at) if at != now => {
                            self.st.events.schedule_at(at, Ev::GateOpen(j));
                        }
                        _ => {
                            js.released = true;
                            activate_job_flows(&mut comp.active, &self.st.arena, j);
                            comp.dirty = true;
                        }
                    }
                }
            }
            Ev::GateOpen(j) => {
                let comp = &mut self.st.comps[self.st.comp_of_job[j] as usize];
                let js = &mut self.st.jobs[j];
                if js.job.progress.is_communicating() && !js.released {
                    js.released = true;
                    activate_job_flows(&mut comp.active, &self.st.arena, j);
                    comp.dirty = true;
                    if R::ENABLED {
                        self.rec.record(now, Event::GateRelease { job: j as u32 });
                    }
                }
            }
            Ev::LinkChange(l) => {
                let s = &self.st.link_schedules[l];
                let m = s.multiplier_at(now);
                let new_cap = if m == 1.0 {
                    self.st.base_capacities[l]
                } else {
                    self.st.base_capacities[l] * m
                };
                if new_cap != self.st.capacities[l] {
                    self.st.capacities[l] = new_cap;
                    if let Some((c, local)) = self.st.link_owner[l] {
                        let comp = &mut self.st.comps[c as usize];
                        comp.capacities[local as usize] = new_cap;
                        comp.dirty = true;
                        comp.force_resolve = true;
                    }
                    if R::ENABLED {
                        self.rec.record(
                            now,
                            Event::LinkCapacity {
                                link: l as u32,
                                fraction: m,
                            },
                        );
                    }
                }
                if let Some(at) = s.next_change_after(now) {
                    self.st.events.schedule_at(at, Ev::LinkChange(l));
                }
            }
        }
    }

    /// The event loop. Each turn moves to the next instant anything
    /// happens — the earliest pending event, component completion, or
    /// `t_stop` — and touches only the components with work there: the
    /// ones with a completion due are advanced up front, the ones with an
    /// event just before it is handled, and at `t_stop` all of them. A
    /// component therefore sees exactly the advance instants, solves and
    /// float operations it would see simulated alone.
    fn run_until_inner(&mut self, t_stop: Time) {
        loop {
            for c in 0..self.st.comps.len() {
                if self.st.comps[c].dirty {
                    self.recompute_rates(c);
                }
            }
            if self.st.now >= t_stop {
                return;
            }
            let completion = self.st.comps.iter().filter_map(|c| c.next_completion).min();
            let next_ev = self.st.events.peek_time();
            let t_next = [completion, next_ev, Some(t_stop)]
                .into_iter()
                .flatten()
                .min()
                .unwrap();
            for c in 0..self.st.comps.len() {
                if t_next == t_stop
                    || self.st.comps[c]
                        .next_completion
                        .is_some_and(|t| t <= t_next)
                {
                    self.advance_component(c, t_next);
                }
            }
            self.st.now = t_next;
            // Process all events due exactly now.
            while let Some(e) = self.st.events.pop_until(t_next) {
                self.st.events_popped += 1;
                if let Some(c) = self.component_of(e.event) {
                    self.advance_component(c, t_next);
                }
                self.handle_event(e.event);
            }
            let mut settled = true;
            for c in 0..self.st.comps.len() {
                let comp = &self.st.comps[c];
                if comp.dirty {
                    settled = false;
                } else if let Some(t) = comp.next_completion {
                    if t <= comp.clock {
                        // We advanced to (or past) the cached completion
                        // without any flow finishing — float dust left a
                        // sub-byte residue. Re-anchor at the component's
                        // clock so its next target is strictly in the
                        // future.
                        self.refresh_completion_cache(c);
                    }
                    settled &= self.st.comps[c].next_completion.is_none();
                }
            }
            if settled && self.st.events.is_empty() {
                // Nothing will ever happen again (all jobs somehow idle
                // with no pending polls — impossible in normal operation,
                // but guard against infinite loops).
                return;
            }
            if t_next >= t_stop {
                return;
            }
        }
    }

    /// Runs for a span of simulated time.
    pub fn run_for(&mut self, span: Dur) {
        let stop = self.st.now + span;
        self.run_until(stop);
    }
}

/// Complete captured state of a [`FluidSimulator`] at a simulated-time
/// barrier: everything the engine holds but its recorder. See
/// [`crate::snapshot`] for the contract.
#[derive(Clone)]
pub struct FluidSnapshot {
    version: u32,
    state: FluidState,
}

impl FluidSnapshot {
    /// The simulated instant the snapshot was taken at.
    pub fn taken_at(&self) -> Time {
        self.state.now
    }

    /// Overrides the version field — test hook for the mismatch path.
    #[doc(hidden)]
    pub fn with_version(mut self, v: u32) -> FluidSnapshot {
        self.version = v;
        self
    }

    /// Schedules an already-due event — test hook for the barrier check.
    #[doc(hidden)]
    pub fn with_stale_event(mut self) -> FluidSnapshot {
        let st = &mut self.state;
        st.events.schedule_at(st.now, Ev::Poll(0));
        self
    }
}

impl FluidState {
    /// Checks the per-component state against the jobs, links and flows
    /// it indexes; returns the job and link maps it implies.
    fn validate_components(&self) -> Result<ComponentIndex, SnapshotError> {
        let (comp_of_job, link_owner) =
            index_components(&self.comps, self.jobs.len(), self.capacities.len())?;
        let malformed = |what| Err(SnapshotError::Malformed { what });
        let arena = &self.arena;
        for (c, comp) in self.comps.iter().enumerate() {
            if comp.clock > self.now {
                return malformed("component clock ahead of the snapshot");
            }
            let owned = |f: &u32| {
                let job = arena.job_of.get(*f as usize);
                job.and_then(|&j| comp_of_job.get(j as usize)) == Some(&(c as u32))
            };
            for set in [&comp.active, &comp.solved_active] {
                if set.windows(2).any(|w| w[0] >= w[1]) || !set.iter().all(owned) {
                    return malformed("component active index unsorted or foreign");
                }
            }
            if comp.solved.windows(2).any(|w| w[0] >= w[1])
                || comp.solved.last().is_some_and(|&k| k >= comp.links.len())
            {
                return malformed("component solve links unsorted or out of range");
            }
            for &j in &comp.jobs {
                for f in arena.job_range(j) {
                    if arena.links_of(f).iter().any(|&k| k >= comp.links.len())
                        || arena
                            .solve_links_of(f)
                            .iter()
                            .any(|&i| i >= comp.solved.len())
                    {
                        return malformed("flow link outside its component");
                    }
                }
            }
        }
        Ok((comp_of_job, link_owner))
    }
}

impl<R: Recorder> Engine for FluidSimulator<R> {
    type Rec = R;
    type Snapshot = FluidSnapshot;

    fn now(&self) -> Time {
        self.st.now
    }

    fn num_jobs(&self) -> usize {
        self.st.jobs.len()
    }

    fn progress(&self, j: usize) -> &JobProgress {
        &self.st.jobs[j].job.progress
    }

    fn departed(&self, j: usize) -> bool {
        self.st.jobs[j].job.departed
    }

    fn run_until(&mut self, t_stop: Time) {
        let wall = R::ENABLED.then(std::time::Instant::now);
        let (allocs0, popped0) = (self.st.allocs, self.st.events_popped);
        self.run_until_inner(t_stop);
        if let Some(t0) = wall {
            self.rec.span(
                "netsim.fluid",
                t0.elapsed(),
                self.st.events_popped - popped0,
            );
            self.rec
                .count("fluid_allocations_total", self.st.allocs - allocs0);
        }
    }

    fn run_until_iterations(&mut self, n: usize, max_span: Dur) -> bool {
        let reached = |jobs: &[JState]| jobs.iter().all(|j| j.job.done(n));
        let stop = self.st.now + max_span;
        while self.st.now < stop {
            if reached(&self.st.jobs) {
                return true;
            }
            // Run in slices so we can check the predicate.
            let slice_end = (self.st.now + Dur::from_millis(10)).min(stop);
            self.run_until(slice_end);
        }
        reached(&self.st.jobs)
    }

    fn recorder(&self) -> &R {
        &self.rec
    }

    fn into_recorder(self) -> R {
        self.rec
    }

    fn snapshot(&self) -> Result<FluidSnapshot, SnapshotError> {
        check_barrier(self.st.events.peek_time(), self.st.now)?;
        Ok(FluidSnapshot {
            version: SNAPSHOT_VERSION,
            state: self.st.clone(),
        })
    }

    /// Validates the snapshot, then rebuilds its job and link maps from
    /// the components it carries.
    fn restore(snap: FluidSnapshot, rec: R) -> Result<FluidSimulator<R>, SnapshotError> {
        check_version(snap.version)?;
        let mut st = snap.state;
        check_barrier(st.events.peek_time(), st.now)?;
        st.arena.validate(st.jobs.len())?;
        if st.jobs.is_empty() {
            return Err(SnapshotError::Malformed { what: "no jobs" });
        }
        if st.last_rates.len() != st.jobs.len() {
            return Err(SnapshotError::Malformed {
                what: "last-rate count mismatches jobs",
            });
        }
        if !st.spans.fits::<R>(st.jobs.len()) {
            return Err(SnapshotError::Malformed {
                what: "span state does not fit the recorder",
            });
        }
        (st.comp_of_job, st.link_owner) = st.validate_components()?;
        Ok(FluidSimulator { st, rec })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventsim::Cdf;
    use topology::builders::dumbbell;
    use workload::Model;

    const LINE: Bandwidth = Bandwidth::from_gbps(50);

    /// A dumbbell with two left→right jobs, both crossing the bottleneck.
    fn two_job_setup(
        spec_a: JobSpec,
        spec_b: JobSpec,
        cfg: FluidConfig,
    ) -> (FluidSimulator, Topology) {
        let d = dumbbell(2, LINE, LINE, Dur::ZERO);
        let t = d.topology.clone();
        let path = |i: usize| d.pair_links(i);
        let jobs = [
            FluidJob::single_path(spec_a, path(0)),
            FluidJob::single_path(spec_b, path(1)),
        ];
        (FluidSimulator::new(&t, cfg, &jobs), t)
    }

    fn median_ms(sim: &FluidSimulator, j: usize, skip: usize) -> f64 {
        let times: Vec<_> = sim
            .progress(j)
            .iteration_times()
            .into_iter()
            .skip(skip)
            .collect();
        Cdf::from_samples(times).median().as_millis_f64()
    }

    #[test]
    fn solo_job_matches_analytic() {
        let d = dumbbell(1, LINE, LINE, Dur::ZERO);
        let spec = JobSpec::reference(Model::Vgg16, 1400);
        let job = FluidJob::single_path(spec, d.pair_links(0));
        let mut sim = FluidSimulator::new(&d.topology, FluidConfig::fair(), &[job]);
        assert!(sim.run_until_iterations(5, Dur::from_secs(3)));
        let expected = spec.iteration_time_at(LINE).as_millis_f64();
        let got = median_ms(&sim, 0, 0);
        assert!(
            (got - expected).abs() < 0.5,
            "solo {got:.2} ms vs analytic {expected:.2} ms"
        );
    }

    /// Fluid max-min locks two identical simultaneous jobs at K + 2C —
    /// the same steady state the rate-based DCQCN engine converges to.
    #[test]
    fn fair_maxmin_locks_identical_jobs() {
        let spec = JobSpec::reference(Model::Vgg19, 1200);
        let (mut sim, _t) = two_job_setup(spec, spec, FluidConfig::fair());
        assert!(sim.run_until_iterations(6, Dur::from_secs(5)));
        let expected = (spec.compute_time() + spec.comm_time_at(LINE) * 2).as_millis_f64();
        for j in 0..2 {
            let got = median_ms(&sim, j, 1);
            assert!(
                (got - expected).abs() < 1.0,
                "job {j}: {got:.1} ms vs K+2C = {expected:.1} ms"
            );
        }
    }

    /// Weighted max-min (static unfairness) slides compatible jobs apart:
    /// both converge to their solo iteration time.
    #[test]
    fn weighted_unfairness_interleaves_compatible_jobs() {
        let spec = JobSpec::reference(Model::Vgg19, 1200);
        let cfg = FluidConfig {
            policy: SharingPolicy::Weighted(vec![2.0, 1.0]),
            ..FluidConfig::fair()
        };
        let (mut sim, _t) = two_job_setup(spec, spec, cfg);
        assert!(sim.run_until_iterations(10, Dur::from_secs(6)));
        let solo = spec.iteration_time_at(LINE).as_millis_f64();
        for j in 0..2 {
            let got = median_ms(&sim, j, 5);
            assert!(
                (got - solo).abs() < 2.0,
                "job {j}: median {got:.1} ms did not reach solo {solo:.1} ms"
            );
        }
    }

    /// `SharingPolicy::Cc` with all-`Fair` variants is the
    /// congestion-control zoo's spelling of max-min: every weight is
    /// exactly 1.0, so the runs match bit for bit.
    #[test]
    fn cc_fair_policy_matches_maxmin_exactly() {
        let spec = JobSpec::reference(Model::Vgg19, 1200);
        let cfg = FluidConfig {
            policy: SharingPolicy::Cc(vec![CcVariant::Fair, CcVariant::Fair]),
            ..FluidConfig::fair()
        };
        let (mut cc, _t) = two_job_setup(spec, spec, cfg);
        let (mut mm, _t) = two_job_setup(spec, spec, FluidConfig::fair());
        assert!(cc.run_until_iterations(6, Dur::from_secs(5)));
        assert!(mm.run_until_iterations(6, Dur::from_secs(5)));
        for j in 0..2 {
            assert_eq!(
                cc.progress(j).iteration_times(),
                mm.progress(j).iteration_times(),
                "job {j}: Cc(Fair) diverged from MaxMin"
            );
        }
    }

    /// Static wrapped variants reduce to weighted max-min: a proportional
    /// fairness policy with weight 2 against `Fair` reproduces the
    /// `Weighted([2, 1])` run exactly.
    #[test]
    fn cc_proportional_policy_matches_weighted_exactly() {
        let spec = JobSpec::reference(Model::Vgg19, 1200);
        let cc_cfg = FluidConfig {
            policy: SharingPolicy::Cc(vec![
                CcVariant::Policy {
                    policy: dcqcn::FairnessPolicy::Proportional { weight: 2.0 },
                },
                CcVariant::Fair,
            ]),
            ..FluidConfig::fair()
        };
        let w_cfg = FluidConfig {
            policy: SharingPolicy::Weighted(vec![2.0, 1.0]),
            ..FluidConfig::fair()
        };
        let (mut cc, _t) = two_job_setup(spec, spec, cc_cfg);
        let (mut w, _t) = two_job_setup(spec, spec, w_cfg);
        assert!(cc.run_until_iterations(10, Dur::from_secs(6)));
        assert!(w.run_until_iterations(10, Dur::from_secs(6)));
        for j in 0..2 {
            assert_eq!(
                cc.progress(j).iteration_times(),
                w.progress(j).iteration_times(),
                "job {j}: Cc(Proportional) diverged from Weighted"
            );
        }
    }

    /// MLTCP on the fluid engine: the progress bonus favours whichever
    /// job is further through its allreduce, sliding staggered compatible
    /// jobs apart until both run at solo pace — where plain max-min keeps
    /// them locked in contention.
    #[test]
    fn cc_mltcp_interleaves_staggered_jobs() {
        let spec = JobSpec::reference(Model::Vgg19, 1200);
        let d = dumbbell(2, LINE, LINE, Dur::ZERO);
        let t = d.topology.clone();
        let path = |i: usize| d.pair_links(i);
        let stagger = spec.comm_time_at(LINE) / 2;
        let run = |policy: SharingPolicy| {
            let jobs = [
                FluidJob::single_path(spec, path(0)),
                FluidJob::single_path_at(spec, path(1), stagger),
            ];
            let cfg = FluidConfig {
                policy,
                ..FluidConfig::fair()
            };
            let mut sim = FluidSimulator::new(&t, cfg, &jobs);
            assert!(sim.run_until_iterations(12, Dur::from_secs(8)));
            (median_ms(&sim, 0, 6), median_ms(&sim, 1, 6))
        };
        let mltcp = SharingPolicy::Cc(vec![CcVariant::Mltcp { bonus: 4.0 }; 2]);
        let (m0, m1) = run(mltcp);
        let (f0, f1) = run(SharingPolicy::MaxMin);
        let solo = spec.iteration_time_at(LINE).as_millis_f64();
        for (j, (m, f)) in [(m0, f0), (m1, f1)].into_iter().enumerate() {
            assert!(
                m < f - 0.5,
                "job {j}: MLTCP median {m:.2} ms not faster than max-min {f:.2} ms"
            );
            assert!(
                (m - solo).abs() < 2.0,
                "job {j}: MLTCP median {m:.2} ms did not settle at solo {solo:.2} ms"
            );
        }
    }

    /// Strict priorities (§4.ii) achieve the same interleaving without
    /// touching congestion control.
    #[test]
    fn priority_queues_interleave_compatible_jobs() {
        let spec = JobSpec::reference(Model::Vgg19, 1200);
        let cfg = FluidConfig {
            policy: SharingPolicy::Priority(vec![1, 0]),
            ..FluidConfig::fair()
        };
        let (mut sim, _t) = two_job_setup(spec, spec, cfg);
        assert!(sim.run_until_iterations(10, Dur::from_secs(6)));
        let solo = spec.iteration_time_at(LINE).as_millis_f64();
        for j in 0..2 {
            let got = median_ms(&sim, j, 5);
            assert!(
                (got - solo).abs() < 2.0,
                "job {j}: median {got:.1} ms did not reach solo {solo:.1} ms"
            );
        }
    }

    /// Gated flow scheduling (§4.iii): with slots from complementary
    /// offsets, two jobs never contend from the very first iteration.
    #[test]
    fn gates_schedule_comm_phases_apart() {
        let spec = JobSpec::reference(Model::Vgg19, 1200); // 261.28 ms period
        let period = spec.iteration_time_at(LINE);
        let comm = spec.comm_time_at(LINE);
        let compute = spec.compute_time();
        // Job 0's comm naturally occupies [compute, period). Gate job 1's
        // comm to start where job 0's ends: offset compute + comm.
        let gates = vec![
            Some(Gate {
                offset: compute,
                period,
            }),
            Some(Gate {
                offset: compute + comm,
                period,
            }),
        ];
        let cfg = FluidConfig {
            gates,
            ..FluidConfig::fair()
        };
        let (mut sim, _t) = two_job_setup(spec, spec, cfg);
        assert!(sim.run_until_iterations(6, Dur::from_secs(4)));
        // Job 0 runs at exactly solo pace; job 1 pays its initial wait then
        // also settles at solo pace (its slot repeats every period).
        let solo = period.as_millis_f64();
        for j in 0..2 {
            let got = median_ms(&sim, j, 2);
            assert!(
                (got - solo).abs() < 1.0,
                "job {j}: {got:.2} ms vs solo {solo:.2} ms under gating"
            );
        }
    }

    /// Multi-flow jobs: a job splitting bytes across two disjoint paths
    /// finishes when the slower flow finishes.
    #[test]
    fn multi_flow_job_completes_on_slowest_flow() {
        let d = dumbbell(2, LINE, LINE, Dur::ZERO);
        let t = d.topology.clone();
        let path = |i: usize| d.pair_links(i);
        let spec = JobSpec::reference(Model::Vgg16, 1400);
        // 70% of bytes on path 0, 30% on path 1; both share the bottleneck,
        // so total transfer time is governed by the aggregate anyway.
        let job = FluidJob {
            spec,
            start_offset: Dur::ZERO,
            flows: vec![
                FlowSpec {
                    links: path(0),
                    fraction: 0.7,
                },
                FlowSpec {
                    links: path(1),
                    fraction: 0.3,
                },
            ],
            total_bytes_override: None,
            noise: None,
            depart_at: None,
        };
        let mut sim = FluidSimulator::new(&t, FluidConfig::fair(), &[job]);
        assert!(sim.run_until_iterations(3, Dur::from_secs(2)));
        // Both flows cross the same bottleneck: max-min gives each 25G,
        // the 70% flow takes 0.7·C/0.5 = 1.4× the solo comm time... but
        // once the 30% flow finishes, the 70% flow gets the full link.
        // Transfer time: 0.3 of bytes at 25+25 in parallel... compute the
        // exact schedule: phase ends when the big flow is done.
        // Stage 1: both at 25G until small flow (0.3·B) drains: t1 = 0.3B/25G.
        // Big flow delivered 0.3B too; remaining 0.4B at 50G: t2 = 0.4B/50G.
        let spec_bytes = spec.comm_bytes().as_bytes() as f64;
        let t1 = 0.3 * spec_bytes * 8.0 / 25e9;
        let t2 = 0.4 * spec_bytes * 8.0 / 50e9;
        let expected_ms = spec.compute_time().as_millis_f64() + (t1 + t2) * 1e3;
        let got = median_ms(&sim, 0, 0);
        assert!(
            (got - expected_ms).abs() < 1.0,
            "multi-flow iteration {got:.2} ms vs {expected_ms:.2} ms"
        );
    }

    /// Jobs on disjoint paths never affect each other.
    #[test]
    fn disjoint_jobs_do_not_interact() {
        let d = dumbbell(2, LINE, Bandwidth::from_gbps(100), Dur::ZERO);
        let t = d.topology.clone();
        // Job 0 left→right, job 1 right→left: different link directions.
        let fwd = t
            .route(topology::FlowKey {
                src: d.left_hosts[0],
                dst: d.right_hosts[0],
                tag: 0,
            })
            .unwrap();
        let rev = t
            .route(topology::FlowKey {
                src: d.right_hosts[1],
                dst: d.left_hosts[1],
                tag: 0,
            })
            .unwrap();
        let spec = JobSpec::reference(Model::Vgg16, 1400);
        let jobs = [
            FluidJob::single_path(spec, fwd.links().to_vec()),
            FluidJob::single_path(spec, rev.links().to_vec()),
        ];
        let mut sim = FluidSimulator::new(&t, FluidConfig::fair(), &jobs);
        assert!(sim.run_until_iterations(4, Dur::from_secs(3)));
        let solo = spec.iteration_time_at(LINE).as_millis_f64();
        for j in 0..2 {
            let got = median_ms(&sim, j, 0);
            assert!((got - solo).abs() < 0.5, "job {j}: {got:.2} vs {solo:.2}");
        }
    }

    #[test]
    fn gate_next_release_math() {
        let g = Gate {
            offset: Dur::from_millis(30),
            period: Dur::from_millis(100),
        };
        let t = |ms: u64| Time::from_nanos(ms * 1_000_000);
        assert_eq!(g.next_release(t(0)), t(30));
        assert_eq!(g.next_release(t(30)), t(30));
        assert_eq!(g.next_release(t(31)), t(130));
        assert_eq!(g.next_release(t(130)), t(130));
        assert_eq!(g.next_release(t(999)), t(1030));
    }

    /// An observed gated run records phase transitions, solver passes,
    /// alloc-tagged rate changes, and gate releases.
    #[test]
    fn recorder_captures_fluid_events() {
        use telemetry::BufferRecorder;
        let spec = JobSpec::reference(Model::Vgg19, 1200);
        let period = spec.iteration_time_at(LINE);
        let comm = spec.comm_time_at(LINE);
        let compute = spec.compute_time();
        let gates = vec![
            None,
            Some(Gate {
                offset: compute + comm,
                period,
            }),
        ];
        let cfg = FluidConfig {
            gates,
            ..FluidConfig::fair()
        };
        let d = dumbbell(2, LINE, LINE, Dur::ZERO);
        let t = d.topology.clone();
        let path = |i: usize| d.pair_links(i);
        let jobs = [
            FluidJob::single_path(spec, path(0)),
            FluidJob::single_path(spec, path(1)),
        ];
        let mut rec = BufferRecorder::new();
        let mut sim = FluidSimulator::with_recorder(&t, cfg, &jobs, &mut rec);
        assert!(sim.run_until_iterations(4, Dur::from_secs(3)));
        drop(sim);
        let kinds: std::collections::BTreeSet<&str> =
            rec.events().iter().map(|e| e.event.kind()).collect();
        for k in [
            "phase_enter",
            "phase_exit",
            "solver_iteration",
            "rate_change",
            "gate_release",
        ] {
            assert!(kinds.contains(k), "missing {k} in {kinds:?}");
        }
        let m = rec.metrics();
        assert!(m.counter_total("solver_iterations_total") > 0);
        assert!(m.counter("gate_releases_total", "job=1") > 0);
        assert!(m.counter("rate_changes_total", "flow=0,state=alloc") > 0);
        assert!(rec.counts()["fluid_allocations_total"] > 0);
        assert!(rec.spans().contains_key("netsim.fluid"));
    }

    /// The incremental active index and skip-unchanged solver must stay
    /// equivalent to a from-scratch scan + reallocation at every slice
    /// boundary of a contended, gated, multi-policy run.
    #[test]
    fn incremental_allocation_matches_reference_throughout() {
        let spec_a = JobSpec::reference(Model::Vgg19, 1200);
        let spec_b = JobSpec::reference(Model::Vgg16, 1400);
        for policy in [
            SharingPolicy::MaxMin,
            SharingPolicy::Weighted(vec![2.0, 1.0]),
            SharingPolicy::Priority(vec![1, 0]),
        ] {
            let cfg = FluidConfig {
                policy,
                ..FluidConfig::fair()
            };
            let (mut sim, _t) = two_job_setup(spec_a, spec_b, cfg);
            for _ in 0..200 {
                sim.run_for(Dur::from_millis(7));
                if let Some(div) = sim.debug_max_rate_divergence() {
                    assert!(div <= 1.0, "rate divergence {div} bits/s");
                }
            }
            assert!(sim.progress(0).completed() > 2);
        }
    }

    #[test]
    #[should_panic(expected = "fractions sum")]
    fn bad_fractions_rejected() {
        let d = dumbbell(1, LINE, LINE, Dur::ZERO);
        let spec = JobSpec::reference(Model::Vgg16, 1400);
        let job = FluidJob {
            spec,
            start_offset: Dur::ZERO,
            flows: vec![FlowSpec {
                links: vec![],
                fraction: 0.4,
            }],
            total_bytes_override: None,
            noise: None,
            depart_at: None,
        };
        let _ = FluidSimulator::new(&d.topology, FluidConfig::fair(), &[job]);
    }

    #[test]
    #[should_panic(expected = "weights length")]
    fn bad_policy_length_rejected() {
        let d = dumbbell(1, LINE, LINE, Dur::ZERO);
        let spec = JobSpec::reference(Model::Vgg16, 1400);
        let job = FluidJob::single_path(spec, vec![]);
        let cfg = FluidConfig {
            policy: SharingPolicy::Weighted(vec![1.0, 2.0]),
            ..FluidConfig::fair()
        };
        let _ = FluidSimulator::new(&d.topology, cfg, &[job]);
    }

    #[test]
    fn capacity_schedule_degrades_and_recovers() {
        let spec = JobSpec::reference(Model::Vgg19, 1200);
        let run = |schedules: Option<(Time, Time, f64)>| {
            let d = dumbbell(1, LINE, LINE, Dur::ZERO);
            let t = d.topology.clone();
            let path = d.pair_links(0);
            let mut cfg = FluidConfig::fair();
            if let Some((from, to, factor)) = schedules {
                cfg.link_schedules = (0..t.links().len())
                    .map(|l| {
                        if path.iter().any(|id| id.0 as usize == l) {
                            LinkSchedule::degraded(from, to, factor)
                        } else {
                            LinkSchedule::identity()
                        }
                    })
                    .collect();
            }
            let mut sim = FluidSimulator::new(&t, cfg, &[FluidJob::single_path(spec, path)]);
            assert!(sim.run_until_iterations(8, Dur::from_secs(20)));
            sim.progress(0)
                .iteration_times()
                .iter()
                .map(|x| x.as_millis_f64())
                .collect::<Vec<_>>()
        };
        let clean = run(None);
        // All-identity schedules take the scheduled path but change nothing.
        let identity = run(Some((
            Time::ZERO + Dur::from_millis(1),
            Time::ZERO + Dur::from_millis(2),
            1.0,
        )));
        assert_eq!(clean, identity, "identity schedules must be a no-op");
        let degraded = run(Some((
            Time::ZERO + Dur::from_millis(100),
            Time::ZERO + Dur::from_millis(700),
            0.25,
        )));
        let base = clean[0];
        let worst = degraded.iter().cloned().fold(0.0f64, f64::max);
        assert!(
            worst > base * 1.3,
            "expected a degraded iteration above {base:.2} ms, worst {worst:.2} ms"
        );
        let last = *degraded.last().unwrap();
        assert!(
            (last - base).abs() < base * 0.05,
            "tail should recover to {base:.2} ms, got {last:.2} ms"
        );
    }

    #[test]
    fn departed_job_frees_the_link() {
        let spec = JobSpec::reference(Model::Vgg19, 1200);
        let (mut sim, _t) = {
            let d = dumbbell(2, LINE, LINE, Dur::ZERO);
            let t = d.topology.clone();
            let path = |i: usize| d.pair_links(i);
            let jobs = [
                FluidJob {
                    depart_at: Some(Time::ZERO + Dur::from_millis(400)),
                    ..FluidJob::single_path(spec, path(0))
                },
                FluidJob::single_path(spec, path(1)),
            ];
            (FluidSimulator::new(&t, FluidConfig::fair(), &jobs), t)
        };
        assert!(sim.run_until_iterations(8, Dur::from_secs(20)));
        assert!(sim.departed(0), "job 0 should have departed");
        assert!(sim.progress(0).completed() < 8, "leaver must not finish");
        // Once alone, the survivor's tail iterations run at the solo pace.
        let solo = spec.iteration_time_at(LINE).as_millis_f64();
        let times = sim.progress(1).iteration_times();
        let tail = times.last().unwrap().as_millis_f64();
        assert!(
            (tail - solo).abs() < solo * 0.03,
            "survivor tail {tail:.2} ms vs solo {solo:.2} ms"
        );
    }

    #[test]
    fn phase_noise_is_deterministic_and_varies() {
        let noise = PhaseNoise {
            seed: 5,
            job: 0,
            compute_jitter: 0.25,
            comm_jitter: 0.25,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
        };
        let run = || {
            let d = dumbbell(1, LINE, LINE, Dur::ZERO);
            let t = d.topology.clone();
            let path = d.pair_links(0);
            let job = FluidJob {
                noise: Some(noise),
                ..FluidJob::single_path(JobSpec::reference(Model::Vgg19, 1200), path)
            };
            let mut sim = FluidSimulator::new(&t, FluidConfig::fair(), &[job]);
            assert!(sim.run_until_iterations(6, Dur::from_secs(20)));
            sim.progress(0)
                .iteration_times()
                .iter()
                .map(|x| x.as_nanos())
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seeded noise must be reproducible");
        let spread = a.iter().max().unwrap() - a.iter().min().unwrap();
        assert!(spread > 0, "jitter should vary iteration times");
    }

    /// run(0→T) ≡ run(0→t) + snapshot + restore + run(t→T), with noise,
    /// link-fault schedules (pending LinkChange events cross the barrier),
    /// and two contending jobs.
    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        use telemetry::{BufferRecorder, TimedEvent};
        let noise = PhaseNoise {
            seed: 9,
            job: 0,
            compute_jitter: 0.2,
            comm_jitter: 0.2,
            straggler_prob: 0.1,
            straggler_factor: 1.8,
        };
        let build = |rec: BufferRecorder| {
            let d = dumbbell(2, LINE, LINE, Dur::ZERO);
            let t = d.topology.clone();
            let path = |i: usize| d.pair_links(i);
            let spec = JobSpec::reference(Model::Vgg19, 1200);
            let jobs = [
                FluidJob {
                    noise: Some(noise),
                    ..FluidJob::single_path(spec, path(0))
                },
                FluidJob::single_path(spec, path(1)),
            ];
            let mut schedules = vec![LinkSchedule::identity(); t.links().len()];
            schedules[0] = LinkSchedule::degraded(
                Time::ZERO + Dur::from_millis(350),
                Time::ZERO + Dur::from_millis(500),
                0.5,
            );
            let cfg = FluidConfig {
                link_schedules: schedules,
                ..FluidConfig::fair()
            };
            FluidSimulator::with_recorder(&t, cfg, &jobs, rec)
        };
        let rate_changes = |sim: FluidSimulator<BufferRecorder>| -> Vec<TimedEvent> {
            let rec = sim.into_recorder();
            let is_rate = |e: &&TimedEvent| matches!(e.event, Event::RateChange { .. });
            rec.events().iter().filter(is_rate).cloned().collect()
        };
        let stop = Time::ZERO + Dur::from_millis(800);
        let mut whole = build(BufferRecorder::new());
        whole.run_until(stop);

        let barrier = Time::ZERO + Dur::from_millis(300);
        let mut prefix = build(BufferRecorder::new());
        prefix.run_until(barrier);
        let snap = prefix.snapshot().expect("run_until leaves a barrier");
        assert_eq!(snap.taken_at(), barrier);
        let mut forked = FluidSimulator::restore(snap, BufferRecorder::new()).expect("restore");
        forked.run_until(stop);

        assert_eq!(whole.now(), forked.now());
        for j in 0..2 {
            assert_eq!(
                whole.progress(j).iteration_times(),
                forked.progress(j).iteration_times(),
                "job {j}: iteration times diverged across snapshot/restore"
            );
        }
        // The prefix's rate changes followed by the fork's are the whole
        // run's, time and bits alike.
        let mut stitched = rate_changes(prefix);
        stitched.extend(rate_changes(forked));
        let whole = rate_changes(whole);
        assert!(
            whole.iter().any(|e| e.at > barrier),
            "no rate change after the fork"
        );
        assert_eq!(
            whole, stitched,
            "rate changes diverged across snapshot/restore"
        );
    }

    /// Version mismatch and mid-event-barrier misuse surface as typed
    /// errors, never panics.
    #[test]
    fn snapshot_misuse_returns_typed_errors() {
        let spec = JobSpec::reference(Model::Vgg19, 1200);
        let (mut sim, _t) = two_job_setup(spec, spec, FluidConfig::fair());
        sim.run_until(Time::ZERO + Dur::from_millis(200));
        let snap = sim.snapshot().expect("barrier");

        let err = match FluidSimulator::restore(snap.clone().with_version(7), NoopRecorder) {
            Err(e) => e,
            Ok(_) => panic!("version mismatch accepted"),
        };
        assert_eq!(
            err,
            SnapshotError::VersionMismatch {
                expected: SNAPSHOT_VERSION,
                found: 7
            }
        );

        let mut ahead = snap.clone();
        ahead.state.comps[0].clock = ahead.state.now + Dur::NANOSECOND;
        let err = match FluidSimulator::restore(ahead, NoopRecorder) {
            Err(e) => e,
            Ok(_) => panic!("component clock past the snapshot accepted"),
        };
        assert_eq!(
            err,
            SnapshotError::Malformed {
                what: "component clock ahead of the snapshot"
            }
        );

        let err = match FluidSimulator::restore(snap.with_stale_event(), NoopRecorder) {
            Err(e) => e,
            Ok(_) => panic!("stale event accepted"),
        };
        match err {
            SnapshotError::MidEventBarrier { pending_at, now } => {
                assert!(pending_at <= now, "{pending_at:?} vs {now:?}")
            }
            other => panic!("wrong error: {other}"),
        }
    }

    /// One job per route, one flow each, over local links `0..caps.len()`
    /// (global ids equal to local ones).
    fn incidence(routes: &[Vec<usize>], caps: &[f64]) -> (Component, FlowArena) {
        let n = routes.len();
        let comp = Component::new(
            (0..n).collect(),
            (0..caps.len()).collect(),
            caps.to_vec(),
            false,
        );
        let mut arena = FlowArena {
            flow_off: (0..=n as u32).collect(),
            job_of: (0..n as u32).collect(),
            link_off: vec![0],
            ..FlowArena::default()
        };
        for r in routes {
            arena.links.extend(r);
            arena.link_off.push(arena.links.len() as u32);
        }
        (comp, arena)
    }

    /// Each job's allocation weight under `policy` at a random phase
    /// progress (which only progress-sensitive variants read).
    fn policy_weights(policy: &SharingPolicy, n: usize, rng: &mut eventsim::Rng) -> Vec<f64> {
        (0..n)
            .map(|j| match policy {
                SharingPolicy::MaxMin | SharingPolicy::Priority(_) => 1.0,
                SharingPolicy::Weighted(w) => w[j],
                SharingPolicy::Cc(vs) => vs[j].fluid_weight(rng.f64()),
            })
            .collect()
    }

    /// The policies the differential test draws: plain max-min, whole and
    /// rounded weights, and congestion-control variants (static whole,
    /// static rounded, progress-weighted).
    fn random_policy(n: usize, rng: &mut eventsim::Rng) -> SharingPolicy {
        let variant = |rng: &mut eventsim::Rng| match rng.below(5) {
            0 => CcVariant::Fair,
            1 => CcVariant::StaticUnfair {
                timer: Dur::from_micros(rng.range(50, 200)),
            },
            2 => CcVariant::Policy {
                policy: dcqcn::FairnessPolicy::Proportional {
                    weight: rng.range(1, 4) as f64,
                },
            },
            3 => CcVariant::Mltcp { bonus: 4.0 },
            _ => CcVariant::AdaptiveUnfair,
        };
        match rng.below(5) {
            0 => SharingPolicy::MaxMin,
            1 => SharingPolicy::Weighted((0..n).map(|_| rng.range(1, 5) as f64).collect()),
            2 => SharingPolicy::Weighted((0..n).map(|_| rng.f64_range(0.1, 3.0)).collect()),
            3 => SharingPolicy::Cc((0..n).map(|_| CcVariant::Fair).collect()),
            _ => SharingPolicy::Cc((0..n).map(|_| variant(rng)).collect()),
        }
    }

    fn demands_over<'a>(
        lists: &'a [Vec<usize>],
        active: &[usize],
        weights: &[f64],
        nic: f64,
    ) -> Vec<FlowDemand<'a>> {
        active
            .iter()
            .map(|&f| FlowDemand {
                links: &lists[f],
                weight: weights[f],
                priority: 0,
                rate_cap: nic,
            })
            .collect()
    }

    /// Solves random active subsets of `routes` over every link and over
    /// the links [`binding_links`] keeps under `policy`, and requires the
    /// same bits for every flow; a one-link `MaxMin` cut must also equal
    /// [`one_link_share`]. Returns how many links were dropped.
    fn assert_cut_is_exact(
        routes: &[Vec<usize>],
        caps: &[f64],
        policy: &SharingPolicy,
        nic: f64,
        rng: &mut eventsim::Rng,
        what: &str,
    ) -> usize {
        let n = routes.len();
        let (comp, arena) = incidence(routes, caps);
        let strict = exact_weight_sums(policy, &comp.jobs);
        let solved = binding_links(
            &comp,
            &arena,
            |_| false,
            strict,
            &mut Vec::new(),
            &mut Vec::new(),
        );
        let cut: Vec<Vec<usize>> = routes
            .iter()
            .map(|r| {
                r.iter()
                    .filter_map(|k| solved.binary_search(k).ok())
                    .collect()
            })
            .collect();
        let cut_caps: Vec<f64> = solved.iter().map(|&k| caps[k]).collect();
        let (mut scratch, mut full, mut pruned) = (AllocScratch::new(), Vec::new(), Vec::new());
        for trial in 0..4 {
            let active: Vec<usize> = (0..n)
                .filter(|_| trial == 0 || rng.bernoulli(0.6))
                .collect();
            let weights = policy_weights(policy, n, rng);
            let demands = |lists| demands_over(lists, &active, &weights, nic);
            weighted_max_min_into(&demands(routes), caps, &mut scratch, &mut full);
            weighted_max_min_into(&demands(&cut), &cut_caps, &mut scratch, &mut pruned);
            let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&full),
                bits(&pruned),
                "{what}: kept {solved:?} of {caps:?}"
            );
            if matches!(policy, SharingPolicy::MaxMin) && solved.len() == 1 {
                let linked = active.iter().filter(|&&f| !cut[f].is_empty()).count();
                for (k, &f) in active.iter().enumerate() {
                    let closed = if cut[f].is_empty() {
                        nic
                    } else {
                        one_link_share(cut_caps[0], linked, nic)
                    };
                    assert_eq!(full[k].to_bits(), closed.to_bits(), "{what}: closed form");
                }
            }
        }
        caps.len() - solved.len()
    }

    /// Random link subsets, funnels, fat-tree routes and duplicated links,
    /// with equal and unequal capacities (some zero) under every weight
    /// kind: the cut solve equals the full one bit for bit.
    #[test]
    fn cut_solves_equal_full_solves_bit_for_bit() {
        let ft = topology::builders::fat_tree(4, LINE, Dur::ZERO);
        let hosts: Vec<_> = ft.hosts.iter().flatten().flatten().copied().collect();
        let mut dropped = [0usize; 4];
        for seed in 0..300u64 {
            let mut rng = eventsim::Rng::new(seed);
            let cap =
                |rng: &mut eventsim::Rng| [10e9, 10e9, 10e9, 25e9, 0.0][rng.below(5) as usize];
            let nic = [5e9, 50e9, 1e12][rng.below(3) as usize];
            // Random subsets of a few links.
            let m = rng.range(1, 7) as usize;
            let caps: Vec<f64> = (0..m).map(|_| cap(&mut rng)).collect();
            let routes: Vec<Vec<usize>> = (0..rng.range(1, 11))
                .map(|_| {
                    let mask = rng.range(1, 1 << m);
                    (0..m).filter(|k| mask >> k & 1 == 1).collect()
                })
                .collect();
            // Funnels: up-link, shared link, down-link per job.
            let jobs = rng.range(1, 17) as usize;
            let funnel: Vec<Vec<usize>> =
                (0..jobs).map(|j| vec![1 + 2 * j, 0, 2 + 2 * j]).collect();
            let mut funnel_caps = vec![50e9; 1 + 2 * jobs];
            if rng.bernoulli(0.5) {
                funnel_caps[0] = [10e9, 100e9][rng.below(2) as usize];
            }
            // Fat-tree ECMP routes, renumbered densely.
            let paths: Vec<Vec<usize>> = (0..rng.range(1, 13))
                .map(|_| {
                    let src = hosts[rng.below(hosts.len() as u64) as usize];
                    let dst = hosts[rng.below(hosts.len() as u64) as usize];
                    let all = ft.topology.ecmp_paths(src, dst);
                    let p = &all[rng.below(all.len() as u64) as usize];
                    p.links().iter().map(|l| l.0 as usize).collect()
                })
                .collect();
            let mut used: Vec<usize> = paths.iter().flatten().copied().collect();
            used.sort_unstable();
            used.dedup();
            let tree: Vec<Vec<usize>> = paths
                .iter()
                .map(|p| p.iter().map(|l| used.binary_search(l).unwrap()).collect())
                .collect();
            let tree_caps: Vec<f64> = used.iter().map(|_| cap(&mut rng)).collect();
            // Copies of random links: same flows, same or other capacity.
            let mut twins = routes.clone();
            let mut twin_caps = caps.clone();
            for _ in 0..rng.range(1, 4) {
                let k = rng.below(m as u64) as usize;
                let copy = twin_caps.len();
                twin_caps.push(if rng.bernoulli(0.7) {
                    caps[k]
                } else {
                    cap(&mut rng)
                });
                for r in &mut twins {
                    if r.contains(&k) {
                        r.push(copy);
                    }
                }
            }
            let shapes = [
                ("subsets", &routes, &caps),
                ("funnel", &funnel, &funnel_caps),
                ("fat-tree", &tree, &tree_caps),
                ("twins", &twins, &twin_caps),
            ];
            for (s, (name, routes, caps)) in shapes.into_iter().enumerate() {
                let policy = random_policy(routes.len(), &mut rng);
                let what = format!("seed {seed} {name} {policy:?}");
                dropped[s] += assert_cut_is_exact(routes, caps, &policy, nic, &mut rng, &what);
            }
        }
        // Every shape exercises the cut.
        assert!(
            dropped.iter().all(|&d| d > 0),
            "links dropped per shape: {dropped:?}"
        );
    }

    /// The closed form is the kernel's answer on one link for every flow
    /// count up to 1024, with the share above and below the NIC cap and
    /// on a dead link.
    #[test]
    fn one_link_share_equals_the_kernel() {
        let mut scratch = AllocScratch::new();
        let mut rates = Vec::new();
        for n in 1..=1024usize {
            for (cap, nic) in [
                (50e9, 50e9),
                (50e9, 1e9),
                (0.0, 50e9),
                (7e9, 1e12),
                (1e12, 3e9),
            ] {
                let demands = vec![
                    FlowDemand {
                        links: &[0],
                        weight: 1.0,
                        priority: 0,
                        rate_cap: nic,
                    };
                    n
                ];
                weighted_max_min_into(&demands, &[cap], &mut scratch, &mut rates);
                let closed = one_link_share(cap, n, nic).to_bits();
                assert!(
                    rates.iter().all(|r| r.to_bits() == closed),
                    "n {n} cap {cap} nic {nic}"
                );
            }
        }
    }

    /// Why strict subsets need whole weights: flows 0 and 2 cross links
    /// `A` and `B`, flow 1 crosses `B` and the dead link `C`. Once flow 1
    /// freezes on `C`, `B`'s weight `(0.1 + 0.7 + 0.1) - 0.7` rounds below
    /// `A`'s `0.1 + 0.1`, so `A`'s share is the smaller, and a solve
    /// without `A` grants 5000000000.000001 where the full one grants
    /// 5e9. [`binding_links`] keeps `A` here.
    #[test]
    fn nested_links_under_rounded_weights_stay_in_the_solve() {
        let routes = vec![vec![0, 1], vec![1, 2], vec![0, 1]];
        let caps = [10e9, 10e9, 0.0];
        let flow = |links, weight| FlowDemand {
            links,
            weight,
            priority: 0,
            rate_cap: 1e12,
        };
        let full = [
            flow(&[0, 1][..], 0.1),
            flow(&[1, 2], 0.7),
            flow(&[0, 1], 0.1),
        ];
        let cut = [flow(&[0][..], 0.1), flow(&[0, 1], 0.7), flow(&[0], 0.1)];
        let (a, b) = (
            crate::alloc::weighted_max_min(&full, &caps),
            crate::alloc::weighted_max_min(&cut, &caps[1..]),
        );
        assert_eq!((a[0], b[0]), (5e9, 5000000000.000001));
        let (comp, arena) = incidence(&routes, &caps);
        let policy = SharingPolicy::Weighted(vec![0.1, 0.7, 0.1]);
        assert!(!exact_weight_sums(&policy, &comp.jobs));
        let keep = |strict| {
            binding_links(
                &comp,
                &arena,
                |_| false,
                strict,
                &mut Vec::new(),
                &mut Vec::new(),
            )
        };
        assert_eq!(keep(false), vec![0, 1, 2]);
        assert_eq!(keep(true), vec![1, 2]);
    }

    /// A link with a capacity schedule neither goes nor keeps another out:
    /// in a funnel whose shared link is scheduled, every up-link stays
    /// (its twin down-link, unscheduled, still goes), and a scheduled
    /// down-link stays beside its up-link.
    #[test]
    fn scheduled_links_are_never_cut_or_cutting() {
        let routes: Vec<Vec<usize>> = (0..3).map(|j| vec![1 + 2 * j, 0, 2 + 2 * j]).collect();
        let (comp, arena) = incidence(&routes, &[50e9; 7]);
        let keep = |sched: &[usize]| {
            binding_links(
                &comp,
                &arena,
                |l| sched.contains(&l),
                true,
                &mut Vec::new(),
                &mut Vec::new(),
            )
        };
        assert_eq!(keep(&[]), vec![0]);
        assert_eq!(keep(&[0]), vec![0, 1, 3, 5]);
        assert_eq!(keep(&[0, 4]), vec![0, 1, 3, 4, 5]);
    }

    /// The engine cuts `fluid_cluster`'s funnel to its shared link and
    /// keeps every link under strict priority.
    #[test]
    fn engine_solves_a_funnel_over_its_shared_link() {
        let d = dumbbell(3, LINE, LINE, Dur::ZERO);
        let spec = JobSpec::reference(Model::Vgg16, 1200);
        let jobs: Vec<FluidJob> = (0..3)
            .map(|i| FluidJob::single_path(spec, d.pair_links(i)))
            .collect();
        let fair = FluidSimulator::new(&d.topology, FluidConfig::fair(), &jobs);
        assert_eq!(fair.st.comps.len(), 1);
        assert_eq!(fair.st.comps[0].solved.len(), 1);
        assert!(fair.st.arena.solve_links.iter().all(|&i| i == 0));
        let cfg = FluidConfig {
            policy: SharingPolicy::Priority(vec![0, 1, 2]),
            ..FluidConfig::fair()
        };
        let prio = FluidSimulator::new(&d.topology, cfg, &jobs);
        assert_eq!(prio.st.comps[0].solved.len(), prio.st.comps[0].links.len());
        assert_eq!(prio.st.arena.solve_links, prio.st.arena.links);
    }
}
