//! The rate-based DCQCN engine: emergent congestion dynamics on a shared
//! bottleneck.
//!
//! Reproduces the paper's testbed setup (Fig. 1a): a set of training jobs
//! whose flows all funnel through one bottleneck link (`L1`). The engine
//! advances in fixed microsecond-scale steps; in each step every
//! communicating job injects at its DCQCN-controlled rate, the link drains
//! at capacity into a shared FIFO queue, the queue's depth drives RED/ECN
//! marking, marks become CNPs (paced per flow by the notification point),
//! and CNPs cut rates. Nothing about sharing is hard-coded: fair 50/50
//! splits, the 30/15 split under a smaller `T`, and the phase-sliding that
//! makes compatible jobs interleave all *emerge* from the control loop —
//! exactly the surprising behaviour §2 reports.
//!
//! Scope: one bottleneck link (the paper's experiments are all
//! single-bottleneck; multi-link topologies are the fluid engine's job).
//!
//! A step is three parts: the compute-deadline and departure polls, one
//! traffic kernel (injection, pro-rata FIFO service, marking and CNPs,
//! controller advance, delivery) over the jobs that communicate or hold
//! queued bytes, and the samples (throughput traces and telemetry, on one
//! clock). The run loops take most steps faster than
//! [`RateSimulator::step`] without changing a bit of output: any stretch
//! in which no poll or sample falls due is a stepping window. An idle
//! window (every job computing, queue empty) is one controller advance;
//! any other runs the kernel alone, however many jobs communicate, until
//! a phase ends. Inside a window a computing job's controller only moves
//! its clock, so it catches up once afterwards, except that a
//! delay-sensing one is advanced through each step whose queue stands.
//! Every other step is a full `step`.

use crate::fault::BottleneckFaults;
use crate::job::{self, Job};
use crate::snapshot::{check_version, SnapshotError, SNAPSHOT_VERSION};
use crate::Engine;
use dcqcn::{
    CcAlgorithm, CcVariant, DcqcnParams, NotificationPoint, RedMarker, RpStage, SignalLoss,
};
use eventsim::{Rng, TimeSeries};
use simtime::{Bandwidth, Dur, Time};
use telemetry::{CcState, Event, NoopRecorder, Recorder, SpanTracker};
use topology::LinkSchedule;
use workload::{JobProgress, JobSpec, PhaseNoise};

/// Telemetry sampling cadence (queue depth + per-flow rate) used when the
/// run is observed but no trace interval is configured.
const DEFAULT_SAMPLE_INTERVAL: Dur = Dur::from_micros(500);

/// Simulation step. 5 µs resolves the 50–125 µs DCQCN time constants.
const DT: Dur = Dur::from_micros(5);

/// Packet size that converts fluid bytes into "packets" for the
/// marking-probability computation (the RoCE default).
const MTU_BYTES: f64 = 1024.0;

/// DCQCN parameters each job's controller is built from, at the link's
/// line rate (variants override them per job).
const BASE_PARAMS: DcqcnParams = DcqcnParams::testbed_default();

/// Configuration of the rate-based engine.
#[derive(Debug, Clone)]
pub struct RateSimConfig {
    /// Bottleneck link capacity (also the default NIC line rate).
    pub capacity: Bandwidth,
    /// ECN marking curve of the bottleneck queue.
    pub marker: RedMarker,
    /// Marking noise in `[0, 1)`. The fluid CP accumulates *expected*
    /// marked packets per flow and fires deterministically when the
    /// accumulator crosses 1 — this keeps two identical fair jobs exactly
    /// locked in contention, as the paper's scenario 1 observes (Fig. 2a).
    /// A positive value jitters the firing threshold in
    /// `[1−noise, 1+noise]`, modelling packet-level randomness.
    pub mark_noise: f64,
    /// RNG seed for marking jitter (only consulted when `mark_noise > 0`).
    pub seed: u64,
    /// Whether a job's flow restarts at line rate when a new communication
    /// phase begins (RDMA message semantics; see [`dcqcn::DcqcnRp::restart`]).
    pub restart_on_phase: bool,
    /// If set, per-job throughput traces are recorded at this granularity
    /// (and observed runs sample telemetry at it).
    pub trace_interval: Option<Dur>,
    /// Fault injection: a time-varying multiplier on the bottleneck
    /// capacity (degradation windows, up/down flaps). `None` is the exact
    /// unperturbed engine.
    pub capacity_schedule: Option<LinkSchedule>,
    /// Fault injection: probabilistic loss of ECN marks and CNPs, rolled
    /// on a dedicated chaos RNG that is never consulted when `None`.
    pub signal_loss: Option<SignalLoss>,
}

impl Default for RateSimConfig {
    fn default() -> RateSimConfig {
        RateSimConfig {
            capacity: Bandwidth::from_gbps(50),
            marker: RedMarker::default_50g(),
            mark_noise: 0.0,
            seed: 1,
            restart_on_phase: true,
            trace_interval: None,
            capacity_schedule: None,
            signal_loss: None,
        }
    }
}

/// A job on the DCQCN bottleneck, as both [`RateSimulator`] and
/// [`crate::packet::PacketSimulator`] take it.
#[derive(Debug, Clone)]
pub struct RateJob {
    /// The training job.
    pub spec: JobSpec,
    /// Its congestion-control behaviour (the packet engine takes the
    /// mark-reactive DCQCN family only).
    pub variant: CcVariant,
    /// When the job's first compute phase starts.
    pub start_offset: Dur,
    /// Fault injection: per-iteration phase jitter/stragglers. `None` is
    /// the exact unperturbed job.
    pub noise: Option<PhaseNoise>,
    /// Fault injection: churn — the job permanently leaves the cluster at
    /// the first compute-phase instant at/after this time (an in-flight
    /// communication phase is allowed to finish).
    pub depart_at: Option<Time>,
}

impl RateJob {
    /// A job starting at t = 0 with the given variant.
    pub fn new(spec: JobSpec, variant: CcVariant) -> RateJob {
        RateJob {
            spec,
            variant,
            start_offset: Dur::ZERO,
            noise: None,
            depart_at: None,
        }
    }
}

/// Telemetry tag for a controller's current increase regime: DCQCN's
/// stage machinery when it has one, the delay tag otherwise.
pub(crate) fn cc_state_of(cc: &dyn CcAlgorithm) -> CcState {
    match cc.stage() {
        Some(RpStage::FastRecovery) => CcState::FastRecovery,
        Some(RpStage::AdditiveIncrease) => CcState::AdditiveIncrease,
        Some(RpStage::HyperIncrease) => CcState::HyperIncrease,
        None => CcState::Delay,
    }
}

/// A fresh controller running `variant` on a link of `capacity`.
fn controller(variant: CcVariant, capacity: Bandwidth) -> Box<dyn CcAlgorithm> {
    variant.build(BASE_PARAMS.with_line_rate(capacity))
}

#[derive(Clone)]
struct JobState {
    job: Job,
    /// The congestion-control behaviour `cc` runs.
    variant: CcVariant,
    /// The job's live congestion controller, built from `variant`.
    cc: Box<dyn CcAlgorithm>,
    /// `cc.reacts_to_marks()`, cached: refreshed whenever `cc` is replaced.
    marks: bool,
    np: NotificationPoint,
    /// Whether the controller consumes communication-phase progress
    /// ([`CcVariant::wants_progress`]).
    adaptive: bool,
    /// The iteration's communication bytes, taken when a phase starts:
    /// [`JobProgress::comm_bytes_per_iteration`] holds until the iteration
    /// rolls over.
    phase_bytes: f64,
    /// Bytes of the current phase not yet placed into the link queue.
    to_inject: f64,
    /// This job's bytes sitting in the link queue.
    backlog: f64,
    /// Bytes the link delivered for this job in the current step: scratch
    /// that every step of an active job overwrites.
    delivered: f64,
    /// Bytes delivered since the last trace sample.
    traced_bytes: f64,
    /// Expected marked packets accumulated since the last CNP decision.
    expected_marks: f64,
    /// Accumulator level that triggers the next CNP (1.0 unless jittered).
    mark_threshold: f64,
}

/// Steps a run loop took in each mode (the rest were full steps).
#[derive(Default)]
struct StepSplit {
    /// Window steps in which no job communicated or held queued bytes.
    idle: u64,
    /// Window steps with one job sending into an empty, unmarked queue.
    solo: u64,
    /// The other window steps.
    contended: u64,
}

/// What one step of [`RateState::traffic`] leaves behind.
struct Traffic {
    /// Bytes still queued after the step's service.
    standing: f64,
    /// The queueing delay the controllers observed: zero unless the queue
    /// stands and some controller senses delay.
    delay: Dur,
    /// Whether a job's communication phase (or pipelined segment) ended.
    ended: bool,
}

/// The rate-based simulator over one bottleneck link.
///
/// Generic over a [`Recorder`]; the default [`NoopRecorder`] compiles all
/// instrumentation away, so `RateSimulator::new` is exactly as fast as the
/// uninstrumented engine. Observed runs use
/// [`RateSimulator::with_recorder`].
pub struct RateSimulator<R: Recorder = NoopRecorder> {
    st: RateState,
    rec: R,
}

/// Everything a [`RateSimulator`] holds but its recorder. A
/// [`RateSnapshot`] is a clone of it.
#[derive(Clone)]
struct RateState {
    /// The configuration; its fault fields live in `faults`.
    cfg: RateSimConfig,
    now: Time,
    jobs: Vec<JobState>,
    rng: Rng,
    rate_traces: Vec<TimeSeries>,
    /// Typed-span emission state (empty when `R` is disabled).
    spans: SpanTracker,
    /// When the next trace and telemetry sample falls due (unused while
    /// the run is unobserved and untraced).
    next_sample_at: Time,
    steps: u64,
    /// The bottleneck's capacity schedule and signal loss.
    faults: BottleneckFaults,
    /// Whether some controller senses queueing delay (does not react to
    /// marks), so that a standing queue's delay must be computed.
    senses_delay: bool,
    /// The jobs that communicate or hold queued bytes, in job order, and
    /// the rest: scratch that [`RateState::sort_jobs`] refills, kept
    /// across steps so stepping never allocates.
    active: Vec<usize>,
    idle: Vec<usize>,
}

impl RateState {
    /// Splits the jobs for the next step: `active` gets those that
    /// communicate or still hold queued bytes, `idle` the rest, both in
    /// job order. Returns how many communicate.
    fn sort_jobs(&mut self) -> usize {
        self.active.clear();
        self.idle.clear();
        let mut communicating = 0;
        for (i, js) in self.jobs.iter().enumerate() {
            if js.job.progress.is_communicating() {
                communicating += 1;
                self.active.push(i);
            } else if js.backlog != 0.0 {
                self.active.push(i);
            } else {
                self.idle.push(i);
            }
        }
        communicating
    }

    /// The traffic kernel: one step of the `active` jobs' traffic, with
    /// `service` bytes of link service at capacity `bps`. Injection, FIFO
    /// service shared pro-rata by backlog, ECN marking and CNPs, the
    /// controllers' advance, and delivery to the jobs, in job order within
    /// each stage. An idle job's backlog is 0, so it would be served 0 and
    /// marked never; its controller is left to the caller. Does not move
    /// `now`.
    fn traffic<R: Recorder>(&mut self, rec: &mut R, service: f64, bps: f64) -> Traffic {
        let RateState {
            cfg,
            now,
            jobs,
            rng,
            spans,
            faults,
            senses_delay,
            active,
            ..
        } = self;
        let dt_secs = DT.as_secs_f64();
        let t_end = *now + DT;

        // 1. Injection at the controllers' rates (capped by the phase
        // residual), summing the link's backlog.
        let mut total_backlog = 0.0;
        for &i in active.iter() {
            let js = &mut jobs[i];
            if js.job.progress.is_communicating() {
                let offered = js.cc.rate() * dt_secs / 8.0; // bytes
                let a = offered.min(js.to_inject);
                js.backlog += a;
                js.to_inject -= a;
            }
            total_backlog += js.backlog;
        }

        // 2. FIFO service at the (possibly degraded) link capacity, shared
        // pro-rata by backlog, then ECN marking on the standing queue →
        // CNPs (paced per flow; DCQCN controllers only — delay-based flows
        // observe the queue directly in stage 3).
        // Fluid marking: accumulate the expected number of marked packets
        // and fire when it crosses the threshold. Marks suppressed by CNP
        // pacing are dropped, as NP hardware coalesces them. At zero
        // marking probability no accumulator moves and, with `mark_noise`
        // in `[0, 1)` (checked at construction), every threshold is
        // positive, so no mark can fire: the marking is skipped.
        let served_total = total_backlog.min(service);
        let standing = total_backlog - served_total;
        let mark_p = cfg.marker.mark_probability(standing);
        for &i in active.iter() {
            let js = &mut jobs[i];
            js.delivered = 0.0;
            if total_backlog > 0.0 {
                // Clamp against float dust: pro-rata shares can overshoot a
                // job's backlog by an ulp, and a negative backlog would
                // poison the next step's totals.
                let d = (served_total * js.backlog / total_backlog).clamp(0.0, js.backlog);
                js.backlog = (js.backlog - d).max(0.0);
                js.delivered = d;
            }
            if !(mark_p > 0.0 && js.marks && js.delivered > 0.0) {
                continue;
            }
            let packets = js.delivered / MTU_BYTES;
            js.expected_marks += packets * mark_p;
            if js.expected_marks < js.mark_threshold {
                continue;
            }
            js.expected_marks = 0.0;
            js.mark_threshold = if cfg.mark_noise > 0.0 {
                1.0 + cfg.mark_noise * (rng.f64() * 2.0 - 1.0)
            } else {
                1.0
            };
            // Fault injection: the mark may be stripped before it reaches
            // the NP.
            if faults.mark_lost() {
                continue;
            }
            if R::ENABLED {
                rec.record(t_end, Event::EcnMark { flow: i as u32 });
            }
            if !js.np.on_marked_arrival(t_end) {
                continue;
            }
            // The NP sent a CNP; it may be lost on the reverse path before
            // the RP sees it.
            let cnp_lost = faults.cnp_lost();
            if R::ENABLED {
                rec.record(t_end, Event::CnpSent { flow: i as u32 });
            }
            if !cnp_lost {
                js.cc.on_cnp();
                if R::ENABLED {
                    // NP→RP notification is modeled as zero-delay, so send
                    // and receipt land on the same instant.
                    rec.record(t_end, Event::CnpReceived { flow: i as u32 });
                    rec.record(
                        t_end,
                        Event::RateChange {
                            flow: i as u32,
                            bps: js.cc.rate(),
                            state: CcState::Cut,
                        },
                    );
                }
            }
        }

        // 3. Controller clocks, adaptive progress, and delivery to jobs.
        // The queueing delay a delay-based controller observes: the time
        // the standing queue takes to drain at line rate. Mark-reactive
        // controllers ignore it, so it is computed only for a delay-based
        // one.
        let delay = if *senses_delay && standing != 0.0 {
            Dur::from_secs_f64(standing * 8.0 / bps)
        } else {
            Dur::ZERO
        };
        let mut ended = false;
        for &i in active.iter() {
            let js = &mut jobs[i];
            let progress = &mut js.job.progress;
            let communicating = progress.is_communicating();
            if js.adaptive && communicating {
                let sent = js.phase_bytes - progress.remaining_bytes();
                js.cc.on_phase_progress(sent / js.phase_bytes);
            }
            js.cc.advance(DT, js.delivered, delay);
            if communicating && js.delivered > 0.0 {
                js.traced_bytes += js.delivered;
                let finished = progress.deliver(js.delivered, t_end).is_some();
                if finished {
                    // Iteration finished: residual float dust is discarded.
                    js.to_inject = 0.0;
                    js.backlog = 0.0;
                    js.cc.on_iteration_end();
                }
                // Iteration end — or, for pipelined jobs, a mid-iteration
                // gap between communication segments — returns the job to
                // computing.
                if !progress.is_communicating() {
                    js.job.record_compute(rec, spans, t_end, i, finished);
                    ended = true;
                }
            }
        }
        Traffic {
            standing,
            delay,
            ended,
        }
    }

    /// Advances the idle delay-sensing controllers through `lag` earlier
    /// steps without queueing delay, then one step of `delay`.
    fn sense_delay(&mut self, lag: u64, delay: Dur) {
        for &i in &self.idle {
            let js = &mut self.jobs[i];
            if !js.marks {
                if lag > 0 {
                    js.cc.advance(DT * lag, 0.0, Dur::ZERO);
                }
                js.cc.advance(DT, 0.0, delay);
            }
        }
    }

    /// Catches the idle controllers up after `taken` steps: a
    /// mark-reactive one through all of them, a delay-sensing one through
    /// the last `lag`, which had no queueing delay.
    fn catch_up_idle(&mut self, taken: u64, lag: u64) {
        for &i in &self.idle {
            let js = &mut self.jobs[i];
            let n = if js.marks { taken } else { lag };
            if n > 0 {
                js.cc.advance(DT * n, 0.0, Dur::ZERO);
            }
        }
    }
}

impl RateSimulator {
    /// Builds an unobserved simulator for `jobs` sharing the bottleneck.
    ///
    /// # Panics
    /// Panics if `jobs` is empty or `mark_noise` is outside `[0, 1)`.
    pub fn new(cfg: RateSimConfig, jobs: &[RateJob]) -> RateSimulator {
        RateSimulator::with_recorder(cfg, jobs, NoopRecorder)
    }
}

impl<R: Recorder> RateSimulator<R> {
    /// Builds a simulator whose instrumentation feeds `rec`.
    ///
    /// # Panics
    /// Panics if `jobs` is empty or `mark_noise` is outside `[0, 1)` (NaN
    /// included): the engine skips the marking pass at zero marking
    /// probability, which is exact only while every CNP threshold is
    /// positive.
    pub fn with_recorder(mut cfg: RateSimConfig, jobs: &[RateJob], mut rec: R) -> RateSimulator<R> {
        assert!(!jobs.is_empty(), "RateSimulator: no jobs");
        assert!(
            (0.0..1.0).contains(&cfg.mark_noise),
            "RateSimulator: mark_noise {} outside [0, 1)",
            cfg.mark_noise
        );
        let mut spans = SpanTracker::new::<R>(jobs.len());
        for (i, j) in jobs.iter().enumerate() {
            // Single shared bottleneck: every job's flow crosses link 0.
            job::record_start(&mut rec, &mut spans, Time::ZERO + j.start_offset, i, &[0]);
        }
        let states = jobs
            .iter()
            .map(|j| {
                let cc = controller(j.variant, cfg.capacity);
                JobState {
                    job: Job::new(
                        JobProgress::with_noise(
                            j.spec,
                            Time::ZERO + j.start_offset,
                            j.spec.comm_bytes().as_bytes() as f64,
                            j.noise,
                        ),
                        j.depart_at,
                    ),
                    variant: j.variant,
                    marks: cc.reacts_to_marks(),
                    cc,
                    np: NotificationPoint::new(BASE_PARAMS.cnp_interval),
                    adaptive: j.variant.wants_progress(),
                    phase_bytes: 0.0,
                    to_inject: 0.0,
                    backlog: 0.0,
                    delivered: 0.0,
                    traced_bytes: 0.0,
                    expected_marks: 0.0,
                    mark_threshold: 1.0,
                }
            })
            .collect::<Vec<JobState>>();
        let n = jobs.len();
        let faults = BottleneckFaults::new(cfg.capacity_schedule.take(), cfg.signal_loss.take());
        let st = RateState {
            rng: Rng::new(cfg.seed),
            cfg,
            now: Time::ZERO,
            senses_delay: states.iter().any(|js| !js.marks),
            jobs: states,
            rate_traces: (0..n).map(|_| TimeSeries::new()).collect(),
            spans,
            next_sample_at: Time::ZERO,
            steps: 0,
            faults,
            active: Vec::with_capacity(n),
            idle: Vec::with_capacity(n),
        };
        RateSimulator { st, rec }
    }

    /// Per-job delivered-throughput trace (Gbps), if tracing is enabled.
    pub fn rate_trace(&self, i: usize) -> &TimeSeries {
        &self.st.rate_traces[i]
    }

    /// Total steps taken so far, window steps included.
    pub fn steps(&self) -> u64 {
        self.st.steps
    }

    /// Advances the simulation by one step.
    pub fn step(&mut self) {
        let st = &mut self.st;

        // 1. Fault injection: the capacity in effect this step, the exact
        // config value on the quiet path.
        let effective_bps =
            st.faults
                .capacity_bps(&mut self.rec, st.now, st.cfg.capacity.as_bps_f64());

        // 2. Compute→communicate transitions due at (or before) this step,
        // and churn departures (a departing job finishes any in-flight
        // communication phase, then idles forever instead of re-entering).
        for (i, js) in st.jobs.iter_mut().enumerate() {
            if js.job.departs(&mut self.rec, st.now, i) {
                continue;
            }
            if js.job.poll(&mut self.rec, &mut st.spans, st.now, i) {
                js.to_inject = js.job.progress.remaining_bytes();
                js.phase_bytes = js.job.progress.comm_bytes_per_iteration();
                js.backlog = 0.0;
                if st.cfg.restart_on_phase {
                    js.cc.restart();
                }
                js.np.reset();
                if R::ENABLED && st.cfg.restart_on_phase {
                    self.rec.record(
                        st.now,
                        Event::RateChange {
                            flow: i as u32,
                            bps: js.cc.rate(),
                            state: CcState::Restart,
                        },
                    );
                }
            }
        }

        // 3. The step's traffic.
        st.sort_jobs();
        let (_, _, standing_queue) = self.run_traffic(1, effective_bps, false);

        // 4. Samples, on one clock: each job's throughput trace (traced
        // runs) and the queue depth plus each communicating flow's rate,
        // tagged with its DCQCN increase stage (observed runs).
        let st = &mut self.st;
        let t_end = st.now;
        let sampled = R::ENABLED || st.cfg.trace_interval.is_some();
        if !(sampled && t_end >= st.next_sample_at) {
            return;
        }
        if let Some(interval) = st.cfg.trace_interval {
            let span = interval.as_secs_f64();
            for (i, js) in st.jobs.iter_mut().enumerate() {
                let gbps = js.traced_bytes * 8.0 / span / 1e9;
                st.rate_traces[i].push(t_end, gbps);
                js.traced_bytes = 0.0;
            }
        }
        if R::ENABLED {
            self.rec.record(
                t_end,
                Event::QueueDepth {
                    link: 0,
                    bytes: standing_queue,
                },
            );
            for (i, js) in st.jobs.iter().enumerate() {
                if js.job.progress.is_communicating() {
                    self.rec.record(
                        t_end,
                        Event::RateChange {
                            flow: i as u32,
                            bps: js.cc.rate(),
                            state: cc_state_of(js.cc.as_ref()),
                        },
                    );
                }
            }
        }
        st.next_sample_at = t_end + st.cfg.trace_interval.unwrap_or(DEFAULT_SAMPLE_INTERVAL);
    }

    /// Up to `k` steps of traffic at link capacity `bps`, over the jobs
    /// that [`RateState::sort_jobs`] last split, stopping after a step
    /// that ends a phase. Each step runs the [`traffic`](RateState::traffic)
    /// kernel over the active jobs. An idle controller sees no traffic, so
    /// it only needs its clock moved: a delay-sensing one is advanced
    /// through each step whose queue stands, and every other stretch of
    /// idle steps is one `advance(n·dt, 0, 0)` per controller, exact under
    /// the idle-coalescing rule of [`CcAlgorithm::advance`] (and, for a
    /// mark-reactive controller, its rule that it ignores the queueing
    /// delay). Returns the steps taken; among them, in observed runs with
    /// `solo` set, those whose queue stayed empty; and the last step's
    /// standing queue.
    fn run_traffic(&mut self, k: u64, bps: f64, solo: bool) -> (u64, u64, f64) {
        let st = &mut self.st;
        let service = bps * DT.as_secs_f64() / 8.0;
        let idle_senses = st.idle.iter().any(|&i| !st.jobs[i].marks);
        let (mut taken, mut lag, mut empty) = (0, 0, 0);
        let mut standing = 0.0;
        while taken < k {
            let step = st.traffic(&mut self.rec, service, bps);
            taken += 1;
            st.now += DT;
            if idle_senses && !step.delay.is_zero() {
                st.sense_delay(lag, step.delay);
                lag = 0;
            } else {
                lag += 1;
            }
            if R::ENABLED && solo && step.standing == 0.0 {
                empty += 1;
            }
            standing = step.standing;
            if step.ended {
                break;
            }
        }
        st.catch_up_idle(taken, lag);
        st.steps += taken;
        (taken, empty, standing)
    }

    /// Whole `dt` steps from `now` that a fast path may take at once, on
    /// the same grid as [`step`](Self::step): each starts before `end`,
    /// before every computing job's compute deadline and departure, and
    /// before the next capacity-schedule change, and ends before the next
    /// sample (traced or observed runs). 0 when the capacity multiplier
    /// changes at `now`, which a step must record.
    fn window_steps(&self, end: Time) -> u64 {
        let now = self.st.now.as_nanos();
        let dt = DT.as_nanos();
        // Whole steps from `now` that start strictly before `t`, and that
        // end strictly before it.
        let starting_before = |t: Time| t.as_nanos().saturating_sub(now).div_ceil(dt);
        let ending_before = |t: Time| t.as_nanos().saturating_sub(now).saturating_sub(1) / dt;
        let mut k = starting_before(end);
        for js in self
            .st
            .jobs
            .iter()
            .map(|j| &j.job)
            .filter(|j| !j.departed && !j.progress.is_communicating())
        {
            if let Some(deadline) = js.progress.next_self_transition() {
                k = k.min(starting_before(deadline));
            }
            if let Some(at) = js.depart_at {
                k = k.min(starting_before(at));
            }
        }
        if let Some(change) = self.st.faults.next_change(self.st.now) {
            k = k.min(starting_before(change));
        }
        if R::ENABLED || self.st.cfg.trace_interval.is_some() {
            k = k.min(ending_before(self.st.next_sample_at));
        }
        k
    }

    /// Exact stepping window: takes the
    /// [`window_steps`](Self::window_steps) bound at once. Inside it no
    /// compute deadline, departure, capacity change or sample falls due,
    /// so a step is `step()` without its polls and its tail.
    ///
    /// - An idle window (no job communicates or holds queued bytes) only
    ///   moves the controllers' clocks, as one `advance(k·dt, 0, 0)` per
    ///   controller, which fires the same timer events in the same order as
    ///   `k` separate advances. It needs `k ≥ 2`; a lone idle step is left
    ///   to `step()`.
    /// - Any other window runs [`run_traffic`](Self::run_traffic),
    ///   whatever the number of communicators, and stops after a step that
    ///   ends a phase, which moves a deadline.
    ///
    /// Tallies the steps in `split` (split exactly in observed runs): idle;
    /// solo while one job sends alone into an empty queue that the marker
    /// leaves unmarked; contended otherwise. Returns the steps taken, 0 if
    /// none.
    fn run_window(&mut self, end: Time, split: &mut StepSplit) -> u64 {
        let communicating = self.st.sort_jobs();
        let k = self.window_steps(end);
        let st = &mut self.st;
        if st.active.is_empty() {
            if k < 2 {
                return 0;
            }
            st.catch_up_idle(k, k);
            st.steps += k;
            st.now += DT * k;
            split.idle += k;
            return k;
        }
        if k == 0 {
            return 0;
        }
        let solo = communicating == 1
            && st.active.len() == 1
            && st.cfg.marker.mark_probability(0.0) == 0.0;
        // `window_steps` holds the capacity multiplier where it was.
        let bps = st.faults.held_capacity_bps(st.cfg.capacity.as_bps_f64());
        let (taken, empty, _) = self.run_traffic(k, bps, solo);
        split.solo += empty;
        split.contended += taken - empty;
        taken
    }

    /// Reports a finished run loop to the recorder: the `netsim.rate` span
    /// and the steps taken since `steps0`, in total and by mode.
    fn record_run(&mut self, wall: Option<std::time::Instant>, steps0: u64, split: StepSplit) {
        if let Some(t0) = wall {
            let steps = self.st.steps - steps0;
            self.rec.span("netsim.rate", t0.elapsed(), steps);
            self.rec.count("rate_steps_total", steps);
            self.rec.count("rate_steps_idle", split.idle);
            self.rec.count("rate_steps_solo", split.solo);
            self.rec.count("rate_steps_contended", split.contended);
        }
    }

    /// Runs for a fixed span of simulated time.
    pub fn run_for(&mut self, span: Dur) {
        self.run_loop(span, None);
    }

    /// Runs for `span`, or until every job has finished `n` iterations,
    /// and returns whether they have: a stepping window where one fits,
    /// else a full step. The one loop behind both run entry points, so
    /// that `run_window` has one caller and is inlined.
    fn run_loop(&mut self, span: Dur, n: Option<usize>) -> bool {
        let wall = R::ENABLED.then(std::time::Instant::now);
        let steps0 = self.st.steps;
        let mut split = StepSplit::default();
        let end = self.st.now + span;
        let reached = |jobs: &[JobState]| n.is_some_and(|n| jobs.iter().all(|j| j.job.done(n)));
        while self.st.now < end && !reached(&self.st.jobs) {
            if self.run_window(end, &mut split) == 0 {
                self.step();
            }
        }
        self.record_run(wall, steps0, split);
        reached(&self.st.jobs)
    }

    /// Takes `jobs`' and `cfg`'s chaos data onto a running engine, as a
    /// run resumed at a fork barrier needs it: each job's phase noise
    /// (from its next iteration rollover) and departure, and the
    /// bottleneck's capacity schedule and signal loss from now on. A job
    /// whose variant differs from the one it runs gets a fresh controller,
    /// as if its transport restarted (line rate at its next phase restart,
    /// CNP pacing cleared). Start offsets and the rest of `cfg` stay the
    /// engine's. With the jobs and config the engine was built from, it
    /// changes nothing.
    ///
    /// # Panics
    /// Panics unless `jobs` has one entry per engine job.
    pub fn adopt(&mut self, jobs: &[RateJob], cfg: &RateSimConfig) {
        assert_eq!(
            jobs.len(),
            self.st.jobs.len(),
            "RateSimulator::adopt: job count"
        );
        for (js, j) in self.st.jobs.iter_mut().zip(jobs) {
            if js.variant != j.variant {
                js.variant = j.variant;
                js.cc = controller(j.variant, self.st.cfg.capacity);
                js.marks = js.cc.reacts_to_marks();
                js.adaptive = j.variant.wants_progress();
                js.np.reset();
            }
            js.job.progress.set_noise(j.noise);
            js.job.depart_at = j.depart_at;
        }
        self.st.senses_delay = self.st.jobs.iter().any(|js| !js.marks);
        self.st
            .faults
            .adopt(cfg.capacity_schedule.clone(), cfg.signal_loss);
    }
}

/// Complete captured state of a [`RateSimulator`] at a step boundary:
/// everything the engine holds but its recorder.
#[derive(Clone)]
pub struct RateSnapshot {
    version: u32,
    state: RateState,
}

impl RateSnapshot {
    /// The simulated instant the snapshot was taken at.
    pub fn taken_at(&self) -> Time {
        self.state.now
    }

    /// Overrides the version tag — test hook for exercising the
    /// [`SnapshotError::VersionMismatch`] path.
    #[doc(hidden)]
    pub fn with_version(mut self, version: u32) -> RateSnapshot {
        self.version = version;
        self
    }
}

impl<R: Recorder> Engine for RateSimulator<R> {
    type Rec = R;
    type Snapshot = RateSnapshot;

    fn now(&self) -> Time {
        self.st.now
    }

    fn num_jobs(&self) -> usize {
        self.st.jobs.len()
    }

    fn progress(&self, i: usize) -> &JobProgress {
        &self.st.jobs[i].job.progress
    }

    fn departed(&self, i: usize) -> bool {
        self.st.jobs[i].job.departed
    }

    fn run_until(&mut self, t: Time) {
        self.run_for(t.saturating_since(self.st.now));
    }

    fn run_until_iterations(&mut self, n: usize, max_span: Dur) -> bool {
        self.run_loop(max_span, Some(n))
    }

    fn recorder(&self) -> &R {
        &self.rec
    }

    fn into_recorder(self) -> R {
        self.rec
    }

    fn snapshot(&self) -> Result<RateSnapshot, SnapshotError> {
        Ok(RateSnapshot {
            version: SNAPSHOT_VERSION,
            state: self.st.clone(),
        })
    }

    fn restore(snap: RateSnapshot, rec: R) -> Result<RateSimulator<R>, SnapshotError> {
        check_version(snap.version)?;
        let st = snap.state;
        if st.jobs.is_empty() {
            return Err(SnapshotError::Malformed { what: "no jobs" });
        }
        if st.rate_traces.len() != st.jobs.len() {
            return Err(SnapshotError::Malformed {
                what: "rate-trace count does not match job count",
            });
        }
        if !st.spans.fits::<R>(st.jobs.len()) {
            return Err(SnapshotError::Malformed {
                what: "span state does not fit the recorder",
            });
        }
        Ok(RateSimulator { st, rec })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eventsim::Cdf;
    use workload::Model;

    fn vgg19(batch: u32) -> JobSpec {
        JobSpec::reference(Model::Vgg19, batch)
    }

    fn median_ms(sim: &RateSimulator, i: usize, skip: usize) -> f64 {
        let times: Vec<_> = sim
            .progress(i)
            .iteration_times()
            .into_iter()
            .skip(skip)
            .collect();
        Cdf::from_samples(times).median().as_millis_f64()
    }

    /// A lone job on an empty link iterates at its solo time.
    #[test]
    fn solo_job_matches_analytic_iteration_time() {
        let spec = vgg19(1200);
        let mut sim = RateSimulator::new(
            RateSimConfig::default(),
            &[RateJob::new(spec, CcVariant::Fair)],
        );
        assert!(sim.run_until_iterations(5, Dur::from_secs(5)));
        let expected = spec
            .iteration_time_at(Bandwidth::from_gbps(50))
            .as_millis_f64();
        let measured = median_ms(&sim, 0, 1);
        let err = (measured - expected).abs() / expected;
        assert!(
            err < 0.02,
            "solo iteration {measured:.1} ms vs analytic {expected:.1} ms"
        );
    }

    /// Two identical jobs under default DCQCN share fairly: equal medians.
    #[test]
    fn fair_sharing_is_symmetric() {
        let mut sim = RateSimulator::new(
            RateSimConfig::default(),
            &[
                RateJob::new(vgg19(1200), CcVariant::Fair),
                RateJob::new(vgg19(1200), CcVariant::Fair),
            ],
        );
        assert!(sim.run_until_iterations(8, Dur::from_secs(10)));
        let a = median_ms(&sim, 0, 2);
        let b = median_ms(&sim, 1, 2);
        let rel = (a - b).abs() / a.max(b);
        assert!(rel < 0.10, "medians {a:.1} vs {b:.1} ms");
        // And both are slower than solo (they contend).
        let solo = vgg19(1200)
            .iteration_time_at(Bandwidth::from_gbps(50))
            .as_millis_f64();
        assert!(a > solo * 1.02, "contended {a:.1} ms vs solo {solo:.1} ms");
    }

    /// The headline §2 result: making one of two compatible jobs more
    /// aggressive (T = 100 µs vs 125 µs) speeds up BOTH jobs.
    #[test]
    fn unfairness_speeds_up_compatible_pair() {
        let jobs_fair = [
            RateJob::new(vgg19(1200), CcVariant::Fair),
            RateJob::new(vgg19(1200), CcVariant::Fair),
        ];
        let jobs_unfair = [
            RateJob::new(
                vgg19(1200),
                CcVariant::StaticUnfair {
                    timer: Dur::from_micros(100),
                },
            ),
            RateJob::new(vgg19(1200), CcVariant::Fair),
        ];
        let mut fair = RateSimulator::new(RateSimConfig::default(), &jobs_fair);
        let mut unfair = RateSimulator::new(RateSimConfig::default(), &jobs_unfair);
        assert!(fair.run_until_iterations(12, Dur::from_secs(12)));
        assert!(unfair.run_until_iterations(12, Dur::from_secs(12)));
        for i in 0..2 {
            let f = median_ms(&fair, i, 4);
            let u = median_ms(&unfair, i, 4);
            assert!(
                u < f,
                "job {i}: unfair median {u:.1} ms not faster than fair {f:.1} ms"
            );
        }
    }

    /// Determinism: identical seeds give byte-identical iteration times;
    /// with zero marking noise the run is seed-independent entirely.
    #[test]
    fn same_seed_same_run() {
        let jobs = [
            RateJob::new(vgg19(1200), CcVariant::Fair),
            RateJob::new(vgg19(1400), CcVariant::Fair),
        ];
        let run = |seed, noise| {
            let cfg = RateSimConfig {
                seed,
                mark_noise: noise,
                ..RateSimConfig::default()
            };
            let mut sim = RateSimulator::new(cfg, &jobs);
            sim.run_until_iterations(5, Dur::from_secs(10));
            (
                sim.progress(0).iteration_times(),
                sim.progress(1).iteration_times(),
            )
        };
        // Noise-free: fully deterministic, independent of seed.
        assert_eq!(run(7, 0.0), run(7, 0.0));
        assert_eq!(run(7, 0.0), run(8, 0.0));
        // With noise: reproducible per seed, different across seeds.
        assert_eq!(run(7, 0.3), run(7, 0.3));
        assert_ne!(run(7, 0.3), run(8, 0.3), "noisy runs should differ by seed");
    }

    /// Traces are recorded when enabled and capture utilization ≤ capacity.
    #[test]
    fn traces_record_throughput() {
        let cfg = RateSimConfig {
            trace_interval: Some(Dur::from_millis(1)),
            ..RateSimConfig::default()
        };
        let mut sim = RateSimulator::new(
            cfg,
            &[
                RateJob::new(vgg19(1200), CcVariant::Fair),
                RateJob::new(vgg19(1200), CcVariant::Fair),
            ],
        );
        sim.run_for(Dur::from_millis(600));
        let t0 = sim.rate_trace(0);
        let t1 = sim.rate_trace(1);
        assert!(t0.len() > 100);
        // No sample exceeds line rate; at least one sample sees real traffic.
        assert!(t0.iter().all(|(_, v)| v <= 50.5));
        assert!(t0.max_value().unwrap() > 10.0);
        assert!(t1.max_value().unwrap() > 10.0);
    }

    /// Staggered starts shift the first communication phase.
    #[test]
    fn start_offset_respected() {
        let mut job = RateJob::new(vgg19(1200), CcVariant::Fair);
        job.start_offset = Dur::from_millis(50);
        let mut sim = RateSimulator::new(RateSimConfig::default(), &[job]);
        assert!(sim.run_until_iterations(1, Dur::from_secs(2)));
        let rec = sim.progress(0).iterations()[0];
        assert_eq!(rec.started, Time::ZERO + Dur::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "no jobs")]
    fn empty_jobs_rejected() {
        let _ = RateSimulator::new(RateSimConfig::default(), &[]);
    }

    fn with_mark_noise(mark_noise: f64) -> RateSimulator {
        let cfg = RateSimConfig {
            mark_noise,
            ..RateSimConfig::default()
        };
        RateSimulator::new(cfg, &[RateJob::new(vgg19(1200), CcVariant::Fair)])
    }

    /// At `mark_noise = 1` a jittered CNP threshold can reach 0.
    #[test]
    #[should_panic(expected = "mark_noise 1 outside [0, 1)")]
    fn mark_noise_of_one_rejected() {
        let _ = with_mark_noise(1.0);
    }

    #[test]
    #[should_panic(expected = "mark_noise NaN outside [0, 1)")]
    fn nan_mark_noise_rejected() {
        let _ = with_mark_noise(f64::NAN);
    }

    /// An observed contended run records the full event vocabulary: phase
    /// transitions, ECN marks, CNPs, rate changes, and queue samples.
    #[test]
    fn recorder_captures_congestion_events() {
        use telemetry::BufferRecorder;
        let mut rec = BufferRecorder::new();
        let jobs = [
            RateJob::new(vgg19(1200), CcVariant::Fair),
            RateJob::new(vgg19(1200), CcVariant::Fair),
        ];
        let mut sim = RateSimulator::with_recorder(RateSimConfig::default(), &jobs, &mut rec);
        assert!(sim.run_until_iterations(3, Dur::from_secs(5)));
        drop(sim);
        let kinds: std::collections::BTreeSet<&str> =
            rec.events().iter().map(|e| e.event.kind()).collect();
        for k in [
            "phase_enter",
            "phase_exit",
            "ecn_mark",
            "cnp_received",
            "rate_change",
            "queue_depth",
        ] {
            assert!(kinds.contains(k), "missing {k} in {kinds:?}");
        }
        let m = rec.metrics();
        assert!(m.counter("ecn_marks_total", "flow=0") > 0);
        assert!(m.counter("cnp_total", "flow=0") > 0);
        assert!(m.counter("cnp_total", "flow=1") > 0);
        // The engine reported a profiling span with its step count.
        assert!(rec.spans()["netsim.rate"].events > 0);
        assert!(rec.counts()["rate_steps_total"] > 0);
        // Phase events alternate consistently per job: enters and exits of
        // the communicate phase pair up (±1 for the trailing phase).
        let enters = rec
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    telemetry::Event::PhaseEnter {
                        job: 0,
                        phase: telemetry::Phase::Communicate,
                        ..
                    }
                )
            })
            .count() as i64;
        let exits = rec
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.event,
                    telemetry::Event::PhaseExit {
                        job: 0,
                        phase: telemetry::Phase::Communicate,
                        ..
                    }
                )
            })
            .count() as i64;
        assert!((enters - exits).abs() <= 1, "enters {enters} exits {exits}");
    }

    /// An idle window crosses a whole compute phase in one jump that stays
    /// on the step grid and stops on the step that starts the
    /// communication phase; while any bytes are queued or any job
    /// communicates, a window runs traffic instead.
    #[test]
    fn idle_skip_stops_on_the_deadline_step() {
        let spec = vgg19(1200);
        let mut sim = RateSimulator::new(
            RateSimConfig::default(),
            &[RateJob::new(spec, CcVariant::Fair)],
        );
        let deadline = Time::ZERO + spec.compute_time();
        let end = Time::ZERO + Dur::from_secs(1);
        let mut split = StepSplit::default();

        let mut dusty = sim.snapshot().unwrap();
        dusty.state.jobs[0].backlog = 0.25;
        let mut dusty: RateSimulator = Engine::restore(dusty, NoopRecorder).unwrap();
        assert!(dusty.run_window(end, &mut split) > 0);
        assert_eq!(split.idle, 0, "jumped over queued bytes");

        let taken = sim.run_window(end, &mut split);
        assert!(taken > 0);
        assert_eq!(split.idle, taken);
        assert!(sim.now() >= deadline && sim.now() < deadline + DT);
        assert_eq!(sim.now().as_nanos(), sim.steps() * DT.as_nanos());
        assert_eq!(
            sim.run_window(end, &mut split),
            0,
            "a second jump past the deadline"
        );
        sim.step();
        assert!(sim.progress(0).is_communicating());
        assert!(sim.run_window(end, &mut split) > 0);
        assert_eq!(split.idle, taken, "an idle window while communicating");
    }

    /// A lone communicator's whole phase is one window that ends on the
    /// step delivering its last byte; a computing job's queued bytes are
    /// served inside a window.
    #[test]
    fn window_ends_on_the_phase_end_step() {
        let spec = vgg19(1200);
        let late = RateJob {
            start_offset: Dur::from_millis(200),
            ..RateJob::new(spec, CcVariant::Fair)
        };
        let mut sim = RateSimulator::new(
            RateSimConfig::default(),
            &[RateJob::new(spec, CcVariant::Fair), late],
        );
        let end = Time::ZERO + Dur::from_secs(1);
        let mut split = StepSplit::default();
        let idle = sim.run_window(end, &mut split);
        assert!(idle > 0);
        assert_eq!(split.idle, idle, "no job communicates yet");
        sim.step();
        assert!(sim.progress(0).is_communicating());

        let mut dusty = sim.snapshot().unwrap();
        dusty.state.jobs[1].backlog = 0.25;
        let mut dusty: RateSimulator = Engine::restore(dusty, NoopRecorder).unwrap();
        assert!(dusty.run_window(end, &mut split) > 0);
        assert_eq!(dusty.st.jobs[1].backlog, 0.0, "queued bytes left unserved");

        let steps = sim.steps();
        let taken = sim.run_window(end, &mut split);
        assert_eq!(sim.steps(), steps + taken);
        assert!(!sim.progress(0).is_communicating());
        assert_eq!(sim.progress(0).iterations()[0].completed, sim.now());
        assert_eq!(sim.now().as_nanos(), sim.steps() * DT.as_nanos());
    }

    /// A capacity degradation window slows delivery while open and the
    /// engine recovers afterwards; an identity schedule changes nothing.
    #[test]
    fn capacity_schedule_degrades_and_recovers() {
        use topology::LinkSchedule;
        let jobs = [RateJob::new(vgg19(1200), CcVariant::Fair)];
        let run = |schedule: Option<LinkSchedule>| {
            let cfg = RateSimConfig {
                capacity_schedule: schedule,
                ..RateSimConfig::default()
            };
            let mut sim = RateSimulator::new(cfg, &jobs);
            assert!(sim.run_until_iterations(6, Dur::from_secs(10)));
            sim.progress(0).iteration_times()
        };
        let base = run(None);
        assert_eq!(base, run(Some(LinkSchedule::identity())));
        // Degrade to 20% for the first ~3 nominal iterations.
        let hit = run(Some(LinkSchedule::degraded(
            Time::ZERO + Dur::from_millis(50),
            Time::ZERO + Dur::from_millis(800),
            0.2,
        )));
        assert!(
            hit[0] > base[0].mul_f64(1.5),
            "degraded iteration {:?} not slower than {:?}",
            hit[0],
            base[0]
        );
        // The tail recovers to the nominal pace.
        assert!(
            hit.last().unwrap().as_millis_f64() < base.last().unwrap().as_millis_f64() * 1.05,
            "tail did not recover: {:?} vs {:?}",
            hit.last(),
            base.last()
        );
    }

    /// CNP loss starves the control loop of cuts: the lossy run delivers
    /// no slower, and the chaos RNG leaves the quiet path untouched.
    #[test]
    fn signal_loss_reduces_cnp_cuts() {
        use dcqcn::SignalLoss;
        use telemetry::BufferRecorder;
        let jobs = [
            RateJob::new(vgg19(1200), CcVariant::Fair),
            RateJob::new(vgg19(1200), CcVariant::Fair),
        ];
        let cnps = |loss: Option<SignalLoss>| {
            let cfg = RateSimConfig {
                signal_loss: loss,
                ..RateSimConfig::default()
            };
            let mut rec = BufferRecorder::new();
            let mut sim = RateSimulator::with_recorder(cfg, &jobs, &mut rec);
            sim.run_until_iterations(5, Dur::from_secs(10));
            drop(sim);
            let m = rec.metrics();
            m.counter("cnp_total", "flow=0") + m.counter("cnp_total", "flow=1")
        };
        let clean = cnps(None);
        let lossy = cnps(Some(SignalLoss {
            mark_loss: 0.0,
            cnp_loss: 0.5,
            seed: 3,
        }));
        assert!(clean > 0);
        assert!(
            (lossy as f64) < clean as f64 * 0.75,
            "cnp_loss=0.5 should drop cuts: {lossy} vs {clean}"
        );
    }

    /// Churn: a job with `depart_at` leaves at a compute boundary, stops
    /// gating `run_until_iterations`, and frees the link for the survivor.
    #[test]
    fn departed_job_frees_the_link() {
        let mut leaver = RateJob::new(vgg19(1200), CcVariant::Fair);
        leaver.depart_at = Some(Time::ZERO + Dur::from_millis(300));
        let stayer = RateJob::new(vgg19(1200), CcVariant::Fair);
        let mut sim = RateSimulator::new(RateSimConfig::default(), &[leaver, stayer]);
        assert!(sim.run_until_iterations(8, Dur::from_secs(10)));
        assert!(sim.departed(0));
        assert!(!sim.departed(1));
        // The survivor's late iterations run at solo pace.
        let solo = vgg19(1200)
            .iteration_time_at(Bandwidth::from_gbps(50))
            .as_millis_f64();
        let tail = sim.progress(1).iteration_times();
        let last = tail.last().unwrap().as_millis_f64();
        assert!(
            (last - solo).abs() / solo < 0.03,
            "survivor tail {last:.1} ms vs solo {solo:.1} ms"
        );
        // The leaver froze after its departure point.
        assert!(sim.progress(0).completed() < 8);
    }

    /// Snapshot/restore splices invisibly: run(0→T) is bit-identical to
    /// run(0→t) + snapshot + restore + run(t→T), including RNG-dependent
    /// marking jitter, traces, and step counts.
    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let jobs = [
            RateJob::new(vgg19(1200), CcVariant::Fair),
            RateJob::new(vgg19(1400), CcVariant::Fair),
        ];
        let cfg = RateSimConfig {
            mark_noise: 0.3,
            trace_interval: Some(Dur::from_millis(1)),
            ..RateSimConfig::default()
        };
        let mut whole = RateSimulator::new(cfg.clone(), &jobs);
        whole.run_for(Dur::from_millis(800));

        let mut prefix = RateSimulator::new(cfg, &jobs);
        prefix.run_for(Dur::from_millis(300));
        let snap = prefix.snapshot().unwrap();
        assert_eq!(snap.taken_at(), prefix.now());
        let mut resumed: RateSimulator = Engine::restore(snap, NoopRecorder).unwrap();
        resumed.run_until(Time::ZERO + Dur::from_millis(800));

        assert_eq!(whole.now(), resumed.now());
        assert_eq!(whole.steps(), resumed.steps());
        for i in 0..2 {
            assert_eq!(
                whole.progress(i).iteration_times(),
                resumed.progress(i).iteration_times()
            );
            assert_eq!(whole.rate_trace(i), resumed.rate_trace(i));
        }
    }

    /// Adopting the jobs and config the engine was built from changes
    /// nothing, noise, departures, capacity schedule and signal loss
    /// included: the barrier step of every chaos-free forked run.
    #[test]
    fn adopting_the_build_data_is_a_no_op() {
        use dcqcn::SignalLoss;
        use telemetry::BufferRecorder;
        use topology::LinkSchedule;
        let ms = |n| Time::ZERO + Dur::from_millis(n);
        let jobs = [
            RateJob {
                noise: Some(PhaseNoise {
                    seed: 5,
                    job: 0,
                    compute_jitter: 0.1,
                    comm_jitter: 0.1,
                    straggler_prob: 0.3,
                    straggler_factor: 2.0,
                }),
                depart_at: Some(ms(1200)),
                ..RateJob::new(
                    vgg19(1200),
                    CcVariant::StaticUnfair {
                        timer: Dur::from_micros(100),
                    },
                )
            },
            RateJob::new(vgg19(1400), CcVariant::Fair),
        ];
        let cfg = RateSimConfig {
            capacity_schedule: Some(LinkSchedule::degraded(ms(200), ms(600), 0.5)),
            signal_loss: Some(SignalLoss {
                mark_loss: 0.2,
                cnp_loss: 0.2,
                seed: 9,
            }),
            ..RateSimConfig::default()
        };
        let mut prefix = RateSimulator::with_recorder(cfg.clone(), &jobs, BufferRecorder::new());
        prefix.run_for(Dur::from_millis(300));
        let snap = prefix.snapshot().unwrap();
        let resume = |adopt: bool| {
            let mut rec = BufferRecorder::new();
            let mut sim: RateSimulator<&mut BufferRecorder> =
                Engine::restore(snap.clone(), &mut rec).unwrap();
            if adopt {
                sim.adopt(&jobs, &cfg);
            }
            sim.run_until(ms(2000));
            let times: Vec<_> = (0..2).map(|i| sim.progress(i).iteration_times()).collect();
            assert!(sim.departed(0));
            drop(sim);
            (rec.events().to_vec(), times)
        };
        let (events, times) = resume(false);
        assert!(events.iter().any(|e| e.event.kind() == "link_capacity"));
        assert_eq!((events, times), resume(true));
    }

    /// A snapshot from a different layout version is rejected with a typed
    /// error, not misread.
    #[test]
    fn snapshot_version_mismatch_is_typed() {
        use crate::snapshot::{SnapshotError, SNAPSHOT_VERSION};
        let mut sim = RateSimulator::new(
            RateSimConfig::default(),
            &[RateJob::new(vgg19(1200), CcVariant::Fair)],
        );
        sim.run_for(Dur::from_millis(10));
        let snap = sim.snapshot().unwrap().with_version(SNAPSHOT_VERSION + 7);
        let err = match <RateSimulator>::restore(snap, NoopRecorder) {
            Err(e) => e,
            Ok(_) => panic!("version mismatch accepted"),
        };
        assert_eq!(
            err,
            SnapshotError::VersionMismatch {
                expected: SNAPSHOT_VERSION,
                found: SNAPSHOT_VERSION + 7
            }
        );
    }

    /// The same run, observed or not, produces identical simulation
    /// results: recording must never perturb dynamics.
    #[test]
    fn recorder_does_not_perturb_dynamics() {
        let jobs = [
            RateJob::new(vgg19(1200), CcVariant::Fair),
            RateJob::new(vgg19(1400), CcVariant::Fair),
        ];
        let cfg = RateSimConfig {
            mark_noise: 0.3,
            ..RateSimConfig::default()
        };
        let mut plain = RateSimulator::new(cfg.clone(), &jobs);
        let mut rec = telemetry::BufferRecorder::new();
        let mut observed = RateSimulator::with_recorder(cfg, &jobs, &mut rec);
        plain.run_until_iterations(4, Dur::from_secs(8));
        observed.run_until_iterations(4, Dur::from_secs(8));
        for i in 0..2 {
            assert_eq!(
                plain.progress(i).iteration_times(),
                observed.progress(i).iteration_times()
            );
        }
    }
}

#[cfg(test)]
mod swift_tests {
    use super::*;
    use eventsim::Cdf;
    use workload::Model;

    fn vgg19() -> JobSpec {
        JobSpec::reference(Model::Vgg19, 1200)
    }

    fn median_ms(sim: &RateSimulator, i: usize, skip: usize) -> f64 {
        let times: Vec<_> = sim
            .progress(i)
            .iteration_times()
            .into_iter()
            .skip(skip)
            .collect();
        Cdf::from_samples(times).median().as_millis_f64()
    }

    fn run_pair(targets_us: [u64; 2]) -> RateSimulator {
        let jobs = [
            RateJob::new(
                vgg19(),
                CcVariant::Swift {
                    target_delay: Dur::from_micros(targets_us[0]),
                },
            ),
            RateJob::new(
                vgg19(),
                CcVariant::Swift {
                    target_delay: Dur::from_micros(targets_us[1]),
                },
            ),
        ];
        let mut sim = RateSimulator::new(RateSimConfig::default(), &jobs);
        assert!(sim.run_until_iterations(12, Dur::from_secs(12)));
        sim
    }

    /// Equal delay targets: the delay-based controller shares fairly and
    /// two synchronized identical jobs stay locked in contention, like
    /// fair DCQCN.
    #[test]
    fn swift_equal_targets_lock_like_fair_dcqcn() {
        let sim = run_pair([30, 30]);
        let locked = (vgg19().compute_time() + vgg19().comm_time_at(Bandwidth::from_gbps(50)) * 2)
            .as_millis_f64();
        for i in 0..2 {
            let m = median_ms(&sim, i, 4);
            assert!(
                (m - locked).abs() < locked * 0.03,
                "job {i}: {m:.1} ms vs locked {locked:.1} ms"
            );
        }
    }

    /// Unequal delay targets: the paper's payoff is transport-agnostic —
    /// the tolerant-target job wins overlaps, the phases slide apart, and
    /// BOTH jobs converge to dedicated-network pace.
    #[test]
    fn swift_unequal_targets_interleave_both_jobs() {
        let sim = run_pair([60, 30]);
        let solo = vgg19()
            .iteration_time_at(Bandwidth::from_gbps(50))
            .as_millis_f64();
        for i in 0..2 {
            let m = median_ms(&sim, i, 6);
            assert!(
                (m - solo).abs() < solo * 0.03,
                "job {i}: {m:.1} ms vs solo {solo:.1} ms"
            );
        }
    }
}
