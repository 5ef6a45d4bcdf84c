//! Packet-level validation engine.
//!
//! The [`crate::rate`] engine treats flows as fluids; this module is the
//! ground truth it is validated against: an event-driven **per-packet**
//! simulation of DCQCN senders over one bottleneck queue. Every packet is
//! an event — paced out of the sender at the reaction point's current
//! rate, enqueued (and possibly ECN-marked against the instantaneous queue
//! depth), serviced at line rate, and acknowledged; marked arrivals
//! produce CNPs after a propagation delay, paced per flow by the
//! notification point.
//!
//! It is 3–4 orders of magnitude more expensive per simulated second than
//! the fluid engine (a 50 Gbps flow is ~6M packets/s), so it runs the
//! *validation* scenarios — short phase-level runs asserting that fair
//! flows split the link evenly, that the `T` knob biases the split the
//! same way, and that job iteration times agree with the fluid engine
//! within a few percent (see `tests/packet_validation.rs`).
//!
//! For paper-scale validation runs the engine can **batch packet trains**:
//! with [`PacketSimConfig::train_packets`] > 1, consecutive packets of one
//! flow coalesce into a single `SenderWake`/`Dequeue` event pair carrying N
//! MTUs. Trains are capped so no CNP pacing deadline is outrun (one train's
//! airtime never exceeds the NP's CNP interval), and `train_packets = 1`
//! reproduces the per-packet engine event-for-event and bit-for-bit.
//!
//! Inside an event the train advances **by runs**. The leading full
//! packets that land at a depth ≤ `kmin` draw no marking coin, so they are
//! enqueued in one step; every other packet is judged on its own. At the
//! receiver, the unmarked packets before each marked packet (and before
//! the train's last) are delivered in one step; each marked packet gets
//! its own timestamp, NP pacing check and CNP. Both steps give the same
//! bits as packet-by-packet stepping (see `EXACT_BYTES`).

use crate::fault::BottleneckFaults;
use crate::job::{self, Job};
use crate::rate::RateJob;
use crate::snapshot::{check_barrier, check_version, SnapshotError, SNAPSHOT_VERSION};
use crate::Engine;
use dcqcn::{CcAlgorithm, DcqcnParams, NotificationPoint, RedMarker, SignalLoss};
use eventsim::{EventQueue, Rng};
use simtime::{Bandwidth, Dur, Time};
use telemetry::{CcState, Event, NoopRecorder, Recorder, SpanTracker};
use topology::LinkSchedule;
use workload::JobProgress;

/// Configuration of the packet engine.
#[derive(Debug, Clone)]
pub struct PacketSimConfig {
    /// Bottleneck link capacity.
    pub capacity: Bandwidth,
    /// ECN marking curve, evaluated against the instantaneous queue depth
    /// at enqueue.
    pub marker: RedMarker,
    /// Marking RNG seed (packet marking is genuinely per-packet random
    /// here — the packet engine is where that physics lives).
    pub seed: u64,
    /// Packets coalesced per sender/dequeue event (a "packet train").
    /// `1` is the exact per-packet engine; larger values trade event count
    /// for a bounded marking/pacing approximation (capped at
    /// [`MAX_TRAIN_PACKETS`], and per train to one CNP interval of
    /// airtime).
    pub train_packets: u32,
    /// Fault injection: a time-varying multiplier on the bottleneck
    /// capacity. Service times are sampled at each train start, so a
    /// degradation stretches serialization from the next train onwards.
    /// `None` is the exact unperturbed engine.
    pub capacity_schedule: Option<LinkSchedule>,
    /// Fault injection: probabilistic loss of ECN marks (between CP and
    /// NP) and CNPs (between NP and RP), rolled on a dedicated chaos RNG
    /// that is never consulted when `None`.
    pub signal_loss: Option<SignalLoss>,
}

/// Packet size (the RoCE MTU).
const MTU_BYTES: u64 = 1024;

/// One-way propagation delay (sender→switch and switch→receiver each;
/// CNPs travel one hop back).
const PROP_DELAY: Dur = Dur::from_micros(2);

/// DCQCN parameters each flow's controller is built from, at the link's
/// line rate.
const BASE_PARAMS: DcqcnParams = DcqcnParams::testbed_default();

/// Upper bound on [`PacketSimConfig::train_packets`] (the per-train ECN
/// mark bitmask is a `u64`).
pub const MAX_TRAIN_PACKETS: u32 = 64;

/// Bound (2^52 bytes) below which the byte counters step by whole MTUs
/// exactly, so a run of `k` packets can be applied as one `± k·mtu`.
///
/// Why that gives the same bits as `k` single steps:
/// - Below 2^52 a value's ulp is at most 1/2, so the value and the
///   integer MTU are both multiples of that ulp. `x − mtu` with
///   `x ≥ mtu` is then a multiple of `ulp(x)` in `[0, x)`, which is
///   representable: each single subtraction is exact, and so is one
///   subtraction of `k·mtu`. The unsent bytes (`to_send`) and the phase's
///   undelivered bytes (`remaining`) only fall, by whole MTUs, from
///   values ≥ one MTU.
/// - `delivered` sums whole MTUs, and so does `sent_since_advance` from
///   its reset at an RP advance until a phase's partial last payload.
///   Sums of whole numbers below 2^53 are exact in any grouping. A wake
///   steps a run only while `sent_since_advance` is whole.
/// - A phase can only end at a train's last packet: delivering past the
///   end would panic on the next packet, and the bulk step keeps that as
///   an assertion.
///
/// Counters at or above the bound fall back to packet-by-packet steps.
const EXACT_BYTES: f64 = (1u64 << 52) as f64;

/// Whether `bytes` is a whole number below [`EXACT_BYTES`].
fn whole_below_exact(bytes: f64) -> bool {
    bytes < EXACT_BYTES && bytes as u64 as f64 == bytes
}

/// How many times `bytes -= mtu` can run before `bytes < mtu`: the whole
/// MTUs in `bytes`, or 0 at or above [`EXACT_BYTES`].
fn whole_mtus(bytes: f64, mtu: f64) -> u64 {
    if bytes >= EXACT_BYTES {
        return 0;
    }
    // The rounded quotient can only overshoot, by at most one; the check
    // runs on exact integers (`n·mtu < 2^53`).
    let n = (bytes / mtu) as u64;
    if n as f64 * mtu > bytes {
        n - 1
    } else {
        n
    }
}

impl Default for PacketSimConfig {
    fn default() -> PacketSimConfig {
        PacketSimConfig {
            capacity: Bandwidth::from_gbps(50),
            marker: RedMarker::default_50g(),
            seed: 1,
            train_packets: 1,
            capacity_schedule: None,
            signal_loss: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    /// A job's compute deadline may have passed.
    Poll(usize),
    /// Flow `i` may emit its next packet.
    SenderWake(usize),
    /// The queue head finishes transmission (delivery at receiver after
    /// prop delay is folded in).
    Dequeue,
    /// A CNP reaches flow `i`'s sender.
    Cnp(usize),
}

#[derive(Clone)]
struct FlowState {
    job: Job,
    /// The flow's live congestion controller, built from its
    /// [`dcqcn::CcVariant`] spec (mark-reactive family only — see the
    /// constructor's delay-based rejection).
    rp: Box<dyn CcAlgorithm>,
    /// Whether the controller consumes communication-phase progress
    /// ([`dcqcn::CcVariant::wants_progress`]).
    wants_progress: bool,
    np: NotificationPoint,
    /// Bytes of the current phase not yet emitted as packets.
    to_send: f64,
    /// Last instant the RP's clocks were advanced.
    rp_clock: Time,
    /// Bytes sent since the last RP advance (feeds the byte counter).
    sent_since_advance: f64,
    /// Whether a SenderWake is already scheduled.
    wake_armed: bool,
    /// Whether an `Ev::Poll` is already scheduled (prevents redundant
    /// polls from the two dequeue-side scheduling sites).
    poll_armed: bool,
    /// Packets the next SenderWake may emit, planned when the wake was
    /// armed (the wake is paced for exactly this many serialization gaps).
    pending_train: u32,
    /// Delivered bytes (for goodput accounting), counted in wire MTUs:
    /// every packet adds a full MTU, the padded last packet of a phase
    /// included.
    delivered: f64,
}

/// A contiguous run of one flow's packets occupying the switch FIFO.
#[derive(Clone)]
struct Train {
    flow: usize,
    packets: u32,
    /// Bit `j` set = packet `j` of the train was ECN-marked at enqueue.
    marked: u64,
}

/// The per-packet simulator over one bottleneck link.
pub struct PacketSimulator<R: Recorder = NoopRecorder> {
    st: PacketState,
    rec: R,
}

/// Everything a [`PacketSimulator`] holds but its recorder. A
/// [`PacketSnapshot`] is a clone of it.
#[derive(Clone)]
struct PacketState {
    /// The configuration; its fault fields live in `faults`.
    cfg: PacketSimConfig,
    events: EventQueue<Ev>,
    flows: Vec<FlowState>,
    rng: Rng,
    /// Queue occupancy in bytes (instantaneous, at the switch).
    queue_bytes: u64,
    /// FIFO of packet trains in the queue (each train is ≥ 1 packet of
    /// one flow; `train_packets = 1` makes every train a single packet).
    fifo: std::collections::VecDeque<Train>,
    /// Whether the link is currently transmitting a packet.
    busy: bool,
    packets_sent: u64,
    packets_marked: u64,
    cnps_sent: u64,
    /// Typed-span emission state (empty when `R` is disabled).
    spans: SpanTracker,
    events_processed: u64,
    /// The bottleneck's capacity schedule and signal loss.
    faults: BottleneckFaults,
}

impl PacketSimulator {
    /// Builds the simulator without telemetry.
    ///
    /// # Panics
    /// Panics as [`PacketSimulator::with_recorder`] does.
    pub fn new(cfg: PacketSimConfig, jobs: &[RateJob]) -> PacketSimulator {
        PacketSimulator::with_recorder(cfg, jobs, NoopRecorder)
    }
}

impl<R: Recorder> PacketSimulator<R> {
    /// Builds the simulator with a telemetry recorder.
    ///
    /// # Panics
    /// Panics if `jobs` is empty, if `cfg.train_packets` is outside
    /// `1..=MAX_TRAIN_PACKETS`, or if a job uses the delay-based variant
    /// (the packet engine models DCQCN's ECN/CNP path).
    pub fn with_recorder(
        mut cfg: PacketSimConfig,
        jobs: &[RateJob],
        mut rec: R,
    ) -> PacketSimulator<R> {
        assert!(!jobs.is_empty(), "PacketSimulator: no jobs");
        assert!(
            (1..=MAX_TRAIN_PACKETS).contains(&cfg.train_packets),
            "PacketSimulator: train_packets must be in 1..={MAX_TRAIN_PACKETS}"
        );
        let mut events = EventQueue::new();
        let flows: Vec<FlowState> = jobs
            .iter()
            .enumerate()
            .map(|(i, j)| {
                assert!(
                    !j.variant.is_delay_based(),
                    "PacketSimulator: DCQCN variants only"
                );
                let params = BASE_PARAMS.with_line_rate(cfg.capacity);
                let progress = JobProgress::with_noise(
                    j.spec,
                    Time::ZERO + j.start_offset,
                    j.spec.comm_bytes().as_bytes() as f64,
                    j.noise,
                );
                events.schedule_at(
                    progress.next_self_transition().expect("starts computing"),
                    Ev::Poll(i),
                );
                FlowState {
                    job: Job::new(progress, j.depart_at),
                    rp: j.variant.build(params),
                    wants_progress: j.variant.wants_progress(),
                    np: NotificationPoint::new(BASE_PARAMS.cnp_interval),
                    to_send: 0.0,
                    rp_clock: Time::ZERO,
                    sent_since_advance: 0.0,
                    wake_armed: false,
                    poll_armed: true,
                    pending_train: 1,
                    delivered: 0.0,
                }
            })
            .collect();
        let mut spans = SpanTracker::new::<R>(jobs.len());
        for (i, j) in jobs.iter().enumerate() {
            // One shared bottleneck, like the rate engine: announce it so
            // offline attribution can blame contention on a link.
            job::record_start(&mut rec, &mut spans, Time::ZERO + j.start_offset, i, &[0]);
        }
        let faults = BottleneckFaults::new(cfg.capacity_schedule.take(), cfg.signal_loss.take());
        let st = PacketState {
            rng: Rng::new(cfg.seed),
            cfg,
            events,
            flows,
            queue_bytes: 0,
            fifo: std::collections::VecDeque::new(),
            busy: false,
            packets_sent: 0,
            packets_marked: 0,
            cnps_sent: 0,
            spans,
            events_processed: 0,
            faults,
        };
        PacketSimulator { st, rec }
    }

    /// The bottleneck capacity in bps as of `now`, honouring any fault
    /// schedule. Capacity is sampled at service start, not on a timer, so
    /// a `LinkCapacity` event lands at the first transmission under the
    /// new capacity.
    fn effective_capacity_bps(&mut self, now: Time) -> f64 {
        let base = self.st.cfg.capacity.as_bps_f64();
        self.st.faults.capacity_bps(&mut self.rec, now, base)
    }

    /// Total bytes delivered for flow `i`.
    pub fn delivered(&self, i: usize) -> f64 {
        self.st.flows[i].delivered
    }

    /// `(sent, marked)` packet totals.
    pub fn packet_counts(&self) -> (u64, u64) {
        (self.st.packets_sent, self.st.packets_marked)
    }

    /// CNPs the notification points emitted.
    pub fn cnps_sent(&self) -> u64 {
        self.st.cnps_sent
    }

    /// Events processed so far (the cost batching exists to reduce).
    pub fn events_processed(&self) -> u64 {
        self.st.events_processed
    }

    fn advance_rp(&mut self, i: usize, now: Time) {
        let f = &mut self.st.flows[i];
        let dt = now.saturating_since(f.rp_clock);
        if !dt.is_zero() {
            if f.wants_progress && f.job.progress.is_communicating() {
                let total = f.job.progress.comm_bytes_per_iteration();
                let sent = total - f.job.progress.remaining_bytes();
                f.rp.on_phase_progress(sent / total);
            }
            f.rp.advance(dt, f.sent_since_advance, Dur::ZERO);
            f.sent_since_advance = 0.0;
            f.rp_clock = now;
        }
    }

    fn arm_sender(&mut self, i: usize, now: Time) {
        if self.st.flows[i].wake_armed || self.st.flows[i].to_send < 1.0 {
            return;
        }
        self.advance_rp(i, now);
        let mtu = MTU_BYTES as f64;
        let f = &mut self.st.flows[i];
        // Pacing: the next packet leaves one serialization interval (at
        // the *controlled* rate) after now.
        let gap_secs = mtu * 8.0 / f.rp.rate().max(1.0);
        // Plan the train the wake will emit: bounded by the config knob,
        // by what the phase still needs, and — so a rate cut is never
        // outrun mid-train — by one CNP pacing interval of airtime at the
        // current rate. A rate change between arm and wake keeps the
        // planned schedule (pacing error of one train, exactly as a
        // single packet's pending wake kept its schedule before).
        let mut n = self.st.cfg.train_packets as u64;
        if n > 1 {
            let packets_left = (f.to_send / mtu).ceil() as u64;
            n = n.min(packets_left.max(1));
            let airtime_cap = (BASE_PARAMS.cnp_interval.as_secs_f64() / gap_secs) as u64;
            n = n.min(airtime_cap.max(1));
        }
        let gap = Dur::from_secs_f64(gap_secs * n as f64).max(Dur::NANOSECOND);
        f.pending_train = n as u32;
        f.wake_armed = true;
        self.st.events.schedule_at(now + gap, Ev::SenderWake(i));
    }

    /// Schedules an `Ev::Poll` for flow `i` unless one is already pending.
    /// The poll handler re-arms if it fires before the actual transition,
    /// so suppressing a redundant poll never loses a deadline.
    fn arm_poll(&mut self, i: usize, at: Time) {
        if self.st.flows[i].poll_armed {
            return;
        }
        self.st.flows[i].poll_armed = true;
        self.st.events.schedule_at(at, Ev::Poll(i));
    }

    fn start_service_if_idle(&mut self, now: Time) {
        if self.st.busy {
            return;
        }
        let Some(front) = self.st.fifo.front() else {
            return;
        };
        self.st.busy = true;
        let packets = front.packets;
        let bps = self.effective_capacity_bps(now);
        let pkt_service = Dur::from_secs_f64(MTU_BYTES as f64 * 8.0 / bps);
        let service = Dur::from_nanos(pkt_service.as_nanos() * packets as u64);
        self.st.events.schedule_at(now + service, Ev::Dequeue);
    }

    /// Handles one event. `run_packets` tallies the packets enqueued in
    /// one-step runs (only while `R` is enabled).
    fn handle(&mut self, ev: Ev, now: Time, run_packets: &mut u64) {
        match ev {
            Ev::Poll(i) => {
                self.st.flows[i].poll_armed = false;
                // The flow arms no further events once it has departed.
                if self.st.flows[i].job.departs(&mut self.rec, now, i) {
                    return;
                }
                let f = &mut self.st.flows[i];
                if f.job.poll(&mut self.rec, &mut self.st.spans, now, i) {
                    // A new phase restarts the flow at line rate (RDMA
                    // message semantics).
                    f.to_send = f.job.progress.remaining_bytes();
                    f.rp.restart();
                    f.np.reset();
                    if R::ENABLED {
                        self.rec.record(
                            now,
                            Event::RateChange {
                                flow: i as u32,
                                bps: f.rp.rate(),
                                state: CcState::Restart,
                            },
                        );
                    }
                    self.arm_sender(i, now);
                } else if let Some(t) = f.job.progress.next_self_transition() {
                    // Premature poll (its twin was suppressed): re-arm at
                    // the real deadline.
                    self.arm_poll(i, t.max(now));
                }
            }
            Ev::SenderWake(i) => {
                let st = &mut self.st;
                st.flows[i].wake_armed = false;
                if !st.flows[i].job.progress.is_communicating() || st.flows[i].to_send < 1.0 {
                    return;
                }
                // Emit the planned train into the queue, marking each
                // packet against the instantaneous depth as it lands.
                let mtu = MTU_BYTES as f64;
                let planned = st.flows[i].pending_train.max(1);
                // The depth only grows during the wake, so only the leading
                // packets can land at ≤ kmin, where no coin is drawn. Those
                // that carry a full MTU are enqueued in one exact step
                // (`EXACT_BYTES`).
                let f = &mut st.flows[i];
                let mut emitted = 0u32;
                if whole_below_exact(f.sent_since_advance) {
                    let unmarked = st.cfg.marker.unmarked_run(st.queue_bytes, MTU_BYTES);
                    let run = whole_mtus(f.to_send, mtu).min(planned as u64).min(unmarked);
                    let bytes = run as f64 * mtu;
                    f.to_send -= bytes;
                    f.sent_since_advance += bytes;
                    st.packets_sent += run;
                    st.queue_bytes += run * MTU_BYTES;
                    emitted = run as u32;
                    if R::ENABLED {
                        *run_packets += run;
                    }
                }
                let mut mask = 0u64;
                while emitted < planned && st.flows[i].to_send >= 1.0 {
                    let payload = mtu.min(st.flows[i].to_send);
                    st.flows[i].to_send -= payload;
                    st.flows[i].sent_since_advance += payload;
                    let p_mark = st.cfg.marker.mark_probability(st.queue_bytes as f64);
                    // Fault injection: the mark may be stripped in flight
                    // and is then invisible everywhere downstream. The
                    // loss is only rolled for marked packets.
                    let marked = st.rng.bernoulli(p_mark) && !st.faults.mark_lost();
                    st.packets_sent += 1;
                    if marked {
                        st.packets_marked += 1;
                        mask |= 1 << emitted;
                        if R::ENABLED {
                            self.rec.record(now, Event::EcnMark { flow: i as u32 });
                            self.rec.record(
                                now,
                                Event::QueueDepth {
                                    link: 0,
                                    bytes: st.queue_bytes as f64,
                                },
                            );
                        }
                    }
                    st.queue_bytes += payload as u64;
                    emitted += 1;
                }
                if emitted > 0 {
                    st.fifo.push_back(Train {
                        flow: i,
                        packets: emitted,
                        marked: mask,
                    });
                    self.start_service_if_idle(now);
                }
                self.arm_sender(i, now);
            }
            Ev::Dequeue => {
                self.st.busy = false;
                let train = self.st.fifo.pop_front().expect("dequeue from empty FIFO");
                let i = train.flow;
                let mtu = MTU_BYTES as f64;
                self.st.queue_bytes = self
                    .st
                    .queue_bytes
                    .saturating_sub(MTU_BYTES * train.packets as u64);
                self.start_service_if_idle(now);
                // Packet `j` left the wire `packets - 1 - j` serialization
                // quanta before `now`, and reaches the receiver a prop
                // delay later; the NP judges each marked arrival at its own
                // timestamp.
                let bps = self.effective_capacity_bps(now);
                let pkt_ns = Dur::from_secs_f64(mtu * 8.0 / bps).as_nanos();
                let last = train.packets - 1;
                let runs = {
                    let f = &self.st.flows[i];
                    f.delivered < EXACT_BYTES && f.job.progress.remaining_bytes() < EXACT_BYTES
                };
                let mut j = 0;
                while j <= last {
                    // The unmarked packets before the next marked one, and
                    // before the last, touch only the byte counters: deliver
                    // them in one exact step (`EXACT_BYTES`).
                    let next = if runs {
                        (j + (train.marked >> j).trailing_zeros()).min(last)
                    } else {
                        j
                    };
                    if next > j {
                        let bytes = (next - j) as f64 * mtu;
                        let f = &mut self.st.flows[i];
                        f.delivered += bytes;
                        let ended = f.job.progress.deliver(bytes, now).is_some()
                            || !f.job.progress.is_communicating();
                        assert!(!ended, "packet engine: a phase ended mid-train");
                        j = next;
                    }
                    let lag = pkt_ns * (last - j) as u64;
                    let exit = Time::from_nanos(now.as_nanos().saturating_sub(lag));
                    let deliver_at = exit + PROP_DELAY;
                    let marked = train.marked >> j & 1 == 1;
                    let f = &mut self.st.flows[i];
                    f.delivered += mtu;
                    if marked && f.np.on_marked_arrival(deliver_at) {
                        self.st.cnps_sent += 1;
                        if R::ENABLED {
                            self.rec.record(now, Event::CnpSent { flow: i as u32 });
                        }
                        // Fault injection: the CNP may be dropped on the
                        // reverse path — the NP has still consumed its
                        // pacing slot, but the RP never reacts.
                        if !self.st.faults.cnp_lost() {
                            // CNP travels back one hop (never into the past:
                            // early packets of a long train may have
                            // delivered before `now`).
                            self.st
                                .events
                                .schedule_at((deliver_at + PROP_DELAY).max(now), Ev::Cnp(i));
                        }
                    }
                    let finished = f.job.progress.deliver(mtu, deliver_at.max(now)).is_some();
                    if finished {
                        f.to_send = 0.0;
                        f.rp.on_iteration_end();
                    }
                    // Iteration end — or, for pipelined jobs, a segment gap —
                    // returns the job to computing until its next poll.
                    if !f.job.progress.is_communicating() {
                        let poll_at = f
                            .job
                            .progress
                            .next_self_transition()
                            .expect("job computes after communicating");
                        f.job
                            .record_compute(&mut self.rec, &mut self.st.spans, now, i, finished);
                        self.arm_poll(i, poll_at.max(now));
                    }
                    j += 1;
                }
            }
            Ev::Cnp(i) => {
                self.advance_rp(i, now);
                self.st.flows[i].rp.on_cnp();
                if R::ENABLED {
                    self.rec.record(now, Event::CnpReceived { flow: i as u32 });
                    self.rec.record(
                        now,
                        Event::RateChange {
                            flow: i as u32,
                            bps: self.st.flows[i].rp.rate(),
                            state: CcState::Cut,
                        },
                    );
                }
                // Rate changed: the pending wake keeps its schedule (pacing
                // error of one packet), new wakes use the new rate.
            }
        }
    }

    /// Handles events up to `stop`, or until every job has finished `n`
    /// iterations, and returns whether they have. The one loop behind both
    /// run entry points.
    fn run_loop(&mut self, stop: Time, n: Option<usize>) -> bool {
        let wall = R::ENABLED.then(std::time::Instant::now);
        let before = (self.st.events_processed, self.st.packets_sent);
        let mut in_runs = 0;
        let reached = |flows: &[FlowState]| n.is_some_and(|n| flows.iter().all(|f| f.job.done(n)));
        while !reached(&self.st.flows) {
            let Some(e) = self.st.events.pop_until(stop) else {
                break;
            };
            self.st.events_processed += 1;
            self.handle(e.event, e.at, &mut in_runs);
        }
        self.record_run(wall, before, in_runs);
        reached(&self.st.flows)
    }

    /// Reports a finished run loop to the recorder: the `netsim.packet`
    /// span, the events handled and the packets sent since `before`
    /// (`(events, packets)`), and how many of those packets were enqueued
    /// in one-step runs.
    fn record_run(&mut self, wall: Option<std::time::Instant>, before: (u64, u64), in_runs: u64) {
        if let Some(start) = wall {
            let events = self.st.events_processed - before.0;
            self.rec.span("netsim.packet", start.elapsed(), events);
            self.rec.count("packet_events_total", events);
            self.rec
                .count("packet_packets_total", self.st.packets_sent - before.1);
            self.rec.count("packet_packets_in_runs", in_runs);
        }
    }
}

/// Complete captured state of a [`PacketSimulator`] at an event barrier:
/// everything the engine holds but its recorder, the pending event queue
/// and its FIFO tie-break counter included.
#[derive(Clone)]
pub struct PacketSnapshot {
    version: u32,
    state: PacketState,
}

impl PacketSnapshot {
    /// The simulated instant the snapshot was taken at.
    pub fn taken_at(&self) -> Time {
        self.state.events.now()
    }

    /// Overrides the version tag — test hook for the
    /// [`SnapshotError::VersionMismatch`] path.
    #[doc(hidden)]
    pub fn with_version(mut self, version: u32) -> PacketSnapshot {
        self.version = version;
        self
    }

    /// Corrupts the snapshot by scheduling an event at its own clock, the
    /// state a mid-event capture would leave behind — test hook for the
    /// [`SnapshotError::MidEventBarrier`] path.
    #[doc(hidden)]
    pub fn with_stale_event(mut self) -> PacketSnapshot {
        let at = self.state.events.now();
        self.state.events.schedule_at(at, Ev::Dequeue);
        self
    }
}

impl<R: Recorder> Engine for PacketSimulator<R> {
    type Rec = R;
    type Snapshot = PacketSnapshot;

    fn now(&self) -> Time {
        self.st.events.now()
    }

    fn num_jobs(&self) -> usize {
        self.st.flows.len()
    }

    fn progress(&self, i: usize) -> &JobProgress {
        &self.st.flows[i].job.progress
    }

    fn departed(&self, i: usize) -> bool {
        self.st.flows[i].job.departed
    }

    fn run_until(&mut self, t_stop: Time) {
        self.run_loop(t_stop, None);
    }

    fn run_until_iterations(&mut self, n: usize, max_span: Dur) -> bool {
        self.run_loop(self.now() + max_span, Some(n))
    }

    fn recorder(&self) -> &R {
        &self.rec
    }

    fn into_recorder(self) -> R {
        self.rec
    }

    fn snapshot(&self) -> Result<PacketSnapshot, SnapshotError> {
        check_barrier(self.st.events.peek_time(), self.st.events.now())?;
        Ok(PacketSnapshot {
            version: SNAPSHOT_VERSION,
            state: self.st.clone(),
        })
    }

    fn restore(snap: PacketSnapshot, rec: R) -> Result<PacketSimulator<R>, SnapshotError> {
        check_version(snap.version)?;
        let st = snap.state;
        check_barrier(st.events.peek_time(), st.events.now())?;
        if st.flows.is_empty() {
            return Err(SnapshotError::Malformed { what: "no flows" });
        }
        if st.busy && st.fifo.is_empty() {
            return Err(SnapshotError::Malformed {
                what: "link busy with an empty FIFO",
            });
        }
        if !st.spans.fits::<R>(st.flows.len()) {
            return Err(SnapshotError::Malformed {
                what: "span state does not fit the recorder",
            });
        }
        Ok(PacketSimulator { st, rec })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcqcn::CcVariant;
    use workload::{JobSpec, Model, PhaseNoise};

    /// A deliberately small job so packet-level tests stay fast: ResNet50
    /// at batch 400 → 30.4 ms compute + 21 ms comm ≈ 51 ms iterations.
    fn small_job() -> JobSpec {
        JobSpec::reference(Model::ResNet50, 400)
    }

    #[test]
    fn solo_job_runs_at_line_rate() {
        let mut sim = PacketSimulator::new(
            PacketSimConfig::default(),
            &[RateJob::new(small_job(), CcVariant::Fair)],
        );
        assert!(sim.run_until_iterations(3, Dur::from_secs(2)));
        let solo = small_job()
            .iteration_time_at(Bandwidth::from_gbps(50))
            .as_millis_f64();
        let times = sim.progress(0).iteration_times();
        for d in &times {
            let ms = d.as_millis_f64();
            // Packetization adds at most a few serialization quanta.
            assert!(
                (ms - solo).abs() < solo * 0.02,
                "iteration {ms:.2} ms vs solo {solo:.2} ms"
            );
        }
        let (sent, _marked) = sim.packet_counts();
        assert!(sent > 10_000, "sent {sent} packets");
    }

    #[test]
    fn two_fair_flows_split_evenly() {
        let jobs = [
            RateJob::new(small_job(), CcVariant::Fair),
            RateJob::new(small_job(), CcVariant::Fair),
        ];
        let mut sim = PacketSimulator::new(PacketSimConfig::default(), &jobs);
        // Run through the overlapped first communication phase only.
        sim.run_until(Time::ZERO + Dur::from_millis(60));
        let d0 = sim.delivered(0);
        let d1 = sim.delivered(1);
        assert!(d0 > 0.0 && d1 > 0.0);
        let ratio = d0 / d1;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "fair packet split ratio {ratio:.2}"
        );
        // Marks happened (the queue really built up).
        let (sent, marked) = sim.packet_counts();
        assert!(marked > 0, "no ECN marks among {sent} packets");
    }

    #[test]
    fn aggressive_timer_wins_at_packet_level() {
        // A comm-heavy pair (73% comm fraction) that cannot slide apart:
        // sustained contention lets the T asymmetry accumulate.
        let heavy = JobSpec::reference(Model::ResNet50, 100);
        let jobs = [
            RateJob::new(
                heavy,
                CcVariant::StaticUnfair {
                    timer: Dur::from_micros(100),
                },
            ),
            RateJob::new(heavy, CcVariant::Fair),
        ];
        let mut sim = PacketSimulator::new(PacketSimConfig::default(), &jobs);
        sim.run_until(Time::ZERO + Dur::from_millis(400));
        let (d0, d1) = (sim.delivered(0), sim.delivered(1));
        assert!(
            d0 > d1 * 1.05,
            "aggressive flow should lead: {d0:.0} vs {d1:.0} bytes"
        );
    }

    #[test]
    fn recorder_captures_packet_events() {
        use std::collections::BTreeSet;
        use telemetry::BufferRecorder;

        let jobs = [
            RateJob::new(small_job(), CcVariant::Fair),
            RateJob::new(small_job(), CcVariant::Fair),
        ];
        let mut rec = BufferRecorder::new();
        let mut sim = PacketSimulator::with_recorder(PacketSimConfig::default(), &jobs, &mut rec);
        sim.run_until(Time::ZERO + Dur::from_millis(60));
        let (sent, _) = sim.packet_counts();
        let kinds: BTreeSet<&str> = rec.events().iter().map(|e| e.event.kind()).collect();
        for want in [
            "phase_enter",
            "phase_exit",
            "ecn_mark",
            "cnp_sent",
            "cnp_received",
            "rate_change",
            "queue_depth",
        ] {
            assert!(kinds.contains(want), "missing event kind {want:?}");
        }
        let metrics = rec.metrics();
        assert!(
            metrics.counter_total("ecn_marks_total") > 0,
            "no ECN marks recorded"
        );
        assert!(metrics.counter_total("cnp_total") > 0, "no CNPs recorded");
        assert!(
            metrics.counter_total("rate_changes_total") > 0,
            "no rate changes recorded"
        );
        assert!(rec.spans().contains_key("netsim.packet"));
        let counts = rec.counts();
        assert!(counts["packet_events_total"] > 0);
        assert_eq!(counts["packet_packets_total"], sent);
        // The queue builds past `kmin` (marks happened), so some packets
        // leave the one-step runs.
        let in_runs = counts["packet_packets_in_runs"];
        assert!(
            in_runs > 0 && in_runs < sent,
            "{in_runs} of {sent} packets in runs"
        );
    }

    #[test]
    fn recorder_does_not_perturb_packet_dynamics() {
        let jobs = [
            RateJob::new(small_job(), CcVariant::Fair),
            RateJob::new(small_job(), CcVariant::Fair),
        ];
        let mut plain = PacketSimulator::new(PacketSimConfig::default(), &jobs);
        plain.run_until(Time::ZERO + Dur::from_millis(60));
        let mut rec = telemetry::BufferRecorder::new();
        let mut observed =
            PacketSimulator::with_recorder(PacketSimConfig::default(), &jobs, &mut rec);
        observed.run_until(Time::ZERO + Dur::from_millis(60));
        assert_eq!(plain.packet_counts(), observed.packet_counts());
        assert_eq!(plain.delivered(0), observed.delivered(0));
        assert_eq!(plain.delivered(1), observed.delivered(1));
    }

    #[test]
    fn batched_trains_speed_up_without_changing_outcome() {
        // Same scenario per-packet and with 32-packet trains: delivered
        // bytes and congestion signals must agree within a few percent,
        // and the batched run must process far fewer events. The horizon
        // lands mid-way through the first contended communication phase —
        // comparing at a phase boundary would measure cutoff luck, not
        // batching error (compute→comm transitions are compute-driven and
        // land at identical instants in both runs).
        let jobs = [
            RateJob::new(small_job(), CcVariant::Fair),
            RateJob::new(small_job(), CcVariant::Fair),
        ];
        let run = |train_packets: u32| {
            let cfg = PacketSimConfig {
                train_packets,
                ..PacketSimConfig::default()
            };
            let mut sim = PacketSimulator::new(cfg, &jobs);
            sim.run_until(Time::ZERO + Dur::from_millis(45));
            (
                sim.delivered(0) + sim.delivered(1),
                sim.packet_counts(),
                sim.events_processed(),
            )
        };
        // Tolerances are calibrated to DCQCN's sensitivity, not batching
        // sloppiness: shifting one CNP by a few µs shifts the whole rate
        // sawtooth, so instantaneous goodput wobbles ±5–10% while the
        // congestion statistics (mark rate, CNP count) stay put.
        let (bytes_1, (sent_1, _), events_1) = run(1);
        let (bytes_32, (sent_32, _), events_32) = run(32);
        let db = (bytes_32 - bytes_1).abs() / bytes_1;
        assert!(db < 0.10, "delivered bytes diverged by {:.1}%", db * 100.0);
        let ds = (sent_32 as f64 - sent_1 as f64).abs() / sent_1 as f64;
        assert!(ds < 0.10, "sent packets diverged by {:.1}%", ds * 100.0);
        assert!(
            events_32 * 5 < events_1,
            "batching should cut events ≥5×: {events_32} vs {events_1}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(6))]
        // Batching is an approximation with a bounded error: for arbitrary
        // train lengths and marking seeds, delivered bytes, ECN mark
        // counts, and CNP counts must stay within tolerance of the exact
        // per-packet run. Marks/CNPs are sparse stochastic counts, so
        // their tolerance is looser than goodput's.
        #[test]
        fn train_batching_stays_within_tolerance(
            train in 2u32..(MAX_TRAIN_PACKETS + 1),
            seed in 1u64..1_000,
        ) {
            let jobs = [
                RateJob::new(small_job(), CcVariant::Fair),
                RateJob::new(small_job(), CcVariant::Fair),
            ];
            let run = |train_packets: u32| {
                let cfg = PacketSimConfig {
                    train_packets,
                    seed,
                    ..PacketSimConfig::default()
                };
                let mut sim = PacketSimulator::new(cfg, &jobs);
                sim.run_until(Time::ZERO + Dur::from_millis(45));
                let (_, marked) = sim.packet_counts();
                (sim.delivered(0) + sim.delivered(1), marked, sim.cnps_sent())
            };
            let (bytes_exact, marked_exact, cnps_exact) = run(1);
            let (bytes_train, marked_train, cnps_train) = run(train);
            let db = (bytes_train - bytes_exact).abs() / bytes_exact;
            proptest::prop_assert!(
                db < 0.10,
                "delivered bytes diverged by {:.1}% at train={}", db * 100.0, train
            );
            let dm = (marked_train as f64 - marked_exact as f64).abs()
                / (marked_exact.max(1) as f64);
            proptest::prop_assert!(
                dm < 0.5,
                "ECN marks diverged by {:.0}% at train={} ({marked_train} vs {marked_exact})",
                dm * 100.0, train
            );
            let dc = (cnps_train as f64 - cnps_exact as f64).abs()
                / (cnps_exact.max(1) as f64);
            proptest::prop_assert!(
                dc < 0.5,
                "CNPs diverged by {:.0}% at train={} ({cnps_train} vs {cnps_exact})",
                dc * 100.0, train
            );
        }
    }

    #[test]
    fn whole_mtus_matches_repeated_subtraction() {
        for mtu in [1.0, 1024.0, 1500.0, 4097.0] {
            for bytes in [
                0.0,
                0.5,
                1.0,
                mtu - 0.5,
                mtu,
                mtu + 0.25,
                3.0 * mtu - 1e-9,
                3.0 * mtu,
                123_456.7,
            ] {
                let (mut left, mut n) = (bytes, 0);
                while left >= mtu {
                    left -= mtu;
                    n += 1;
                }
                assert_eq!(whole_mtus(bytes, mtu), n, "{bytes} bytes, mtu {mtu}");
            }
        }
        assert_eq!(whole_mtus(EXACT_BYTES, 1024.0), 0);
        assert!(whole_below_exact(3.0 * 1024.0));
        assert!(!whole_below_exact(1024.5));
        assert!(!whole_below_exact(EXACT_BYTES));
    }

    #[test]
    #[should_panic(expected = "DCQCN variants only")]
    fn swift_rejected() {
        let _ = PacketSimulator::new(
            PacketSimConfig::default(),
            &[RateJob::new(
                small_job(),
                CcVariant::Swift {
                    target_delay: Dur::from_micros(30),
                },
            )],
        );
    }

    #[test]
    fn capacity_schedule_stretches_serialization() {
        let run = |schedule: Option<LinkSchedule>| {
            let cfg = PacketSimConfig {
                capacity_schedule: schedule,
                ..PacketSimConfig::default()
            };
            let mut sim = PacketSimulator::new(cfg, &[RateJob::new(small_job(), CcVariant::Fair)]);
            assert!(sim.run_until_iterations(6, Dur::from_secs(4)));
            sim.progress(0)
                .iteration_times()
                .iter()
                .map(|d| d.as_millis_f64())
                .collect::<Vec<_>>()
        };
        let clean = run(None);
        let identity = run(Some(LinkSchedule::identity()));
        assert_eq!(clean, identity, "identity schedule must be a no-op");
        // Halve the link for the run's middle stretch: iterations there
        // spend twice as long communicating.
        let degraded = run(Some(LinkSchedule::degraded(
            Time::ZERO + Dur::from_millis(60),
            Time::ZERO + Dur::from_millis(200),
            0.5,
        )));
        let worst = degraded.iter().cloned().fold(0.0f64, f64::max);
        let base = clean[0];
        assert!(
            worst > base * 1.2,
            "expected a degraded iteration above {base:.2} ms, worst {worst:.2} ms"
        );
        let last = *degraded.last().unwrap();
        assert!(
            (last - base).abs() < base * 0.05,
            "tail should recover to {base:.2} ms, got {last:.2} ms"
        );
    }

    #[test]
    fn signal_loss_reduces_cnp_pressure() {
        let heavy = JobSpec::reference(Model::ResNet50, 100);
        let run = |loss: Option<SignalLoss>| {
            let cfg = PacketSimConfig {
                signal_loss: loss,
                ..PacketSimConfig::default()
            };
            let jobs = [
                RateJob::new(heavy, CcVariant::Fair),
                RateJob::new(heavy, CcVariant::Fair),
            ];
            let mut sim = PacketSimulator::new(cfg, &jobs);
            sim.run_until(Time::ZERO + Dur::from_millis(300));
            sim.cnps_sent()
        };
        let clean = run(None);
        let lossless = run(Some(SignalLoss::none()));
        assert_eq!(clean, lossless, "zero-probability loss must be a no-op");
        assert!(clean > 0, "contended pair should produce CNPs");
        // Stripping every mark starves the NPs completely. (Partial loss
        // is NOT monotone in CNP count: less backoff deepens the queue,
        // which generates more marks — so the test pins the total-loss
        // endpoint where the causal chain is unambiguous.)
        let starved = run(Some(SignalLoss {
            mark_loss: 1.0,
            cnp_loss: 0.0,
            seed: 7,
        }));
        assert_eq!(starved, 0, "total mark loss must silence the NPs");
    }

    #[test]
    fn departed_flow_frees_the_link() {
        let jobs = [
            RateJob {
                depart_at: Some(Time::ZERO + Dur::from_millis(120)),
                ..RateJob::new(small_job(), CcVariant::Fair)
            },
            RateJob::new(small_job(), CcVariant::Fair),
        ];
        let mut sim = PacketSimulator::new(PacketSimConfig::default(), &jobs);
        assert!(sim.run_until_iterations(8, Dur::from_secs(4)));
        assert!(sim.departed(0), "flow 0 should have departed");
        assert!(
            sim.progress(0).completed() < 8,
            "leaver must not finish the run"
        );
        // Once alone, the survivor runs at the solo pace.
        let solo = small_job()
            .iteration_time_at(Bandwidth::from_gbps(50))
            .as_millis_f64();
        let times = sim.progress(1).iteration_times();
        let tail = times.last().unwrap().as_millis_f64();
        assert!(
            (tail - solo).abs() < solo * 0.03,
            "survivor tail {tail:.2} ms vs solo {solo:.2} ms"
        );
    }

    /// Snapshot/restore splices invisibly: run(0→T) matches
    /// run(0→t) + snapshot + restore + run(t→T) exactly — packet counts,
    /// delivered bytes, CNPs, and events processed — with batched trains.
    #[test]
    fn snapshot_round_trip_is_bit_identical() {
        let cfg = PacketSimConfig {
            train_packets: 8,
            ..PacketSimConfig::default()
        };
        let jobs = [
            RateJob::new(small_job(), CcVariant::Fair),
            RateJob::new(small_job(), CcVariant::Fair),
        ];
        let mut whole = PacketSimulator::new(cfg.clone(), &jobs);
        whole.run_until(Time::ZERO + Dur::from_millis(60));

        let mut prefix = PacketSimulator::new(cfg, &jobs);
        prefix.run_until(Time::ZERO + Dur::from_millis(25));
        let snap = prefix.snapshot().unwrap();
        let mut resumed: PacketSimulator = Engine::restore(snap, NoopRecorder).unwrap();
        resumed.run_until(Time::ZERO + Dur::from_millis(60));

        assert_eq!(whole.packet_counts(), resumed.packet_counts());
        assert_eq!(whole.cnps_sent(), resumed.cnps_sent());
        assert_eq!(whole.events_processed(), resumed.events_processed());
        for i in 0..2 {
            assert_eq!(whole.delivered(i), resumed.delivered(i));
            assert_eq!(
                whole.progress(i).iteration_times(),
                resumed.progress(i).iteration_times()
            );
        }
    }

    /// Tampered snapshots surface typed errors, never panics: a stale
    /// same-instant event trips the barrier check, a foreign version tag
    /// trips the version check.
    #[test]
    fn snapshot_misuse_returns_typed_errors() {
        use crate::snapshot::{SnapshotError, SNAPSHOT_VERSION};
        let mut sim = PacketSimulator::new(
            PacketSimConfig::default(),
            &[RateJob::new(small_job(), CcVariant::Fair)],
        );
        sim.run_until(Time::ZERO + Dur::from_millis(40));
        let clean = sim.snapshot().unwrap();
        assert_eq!(clean.taken_at(), sim.now());

        let stale = clean.clone().with_stale_event();
        match <PacketSimulator>::restore(stale, NoopRecorder) {
            Err(SnapshotError::MidEventBarrier { pending_at, now }) => {
                assert!(pending_at <= now);
            }
            Err(e) => panic!("wrong error {e}"),
            Ok(_) => panic!("stale snapshot accepted"),
        }

        let old = clean.with_version(0);
        match <PacketSimulator>::restore(old, NoopRecorder) {
            Err(SnapshotError::VersionMismatch { expected, found }) => {
                assert_eq!((expected, found), (SNAPSHOT_VERSION, 0));
            }
            Err(e) => panic!("wrong error {e}"),
            Ok(_) => panic!("old snapshot accepted"),
        }
    }

    #[test]
    fn phase_noise_perturbs_iterations_deterministically() {
        let noise = PhaseNoise {
            seed: 99,
            job: 0,
            compute_jitter: 0.2,
            comm_jitter: 0.2,
            straggler_prob: 0.0,
            straggler_factor: 1.0,
        };
        let run = || {
            let job = RateJob {
                noise: Some(noise),
                ..RateJob::new(small_job(), CcVariant::Fair)
            };
            let mut sim = PacketSimulator::new(PacketSimConfig::default(), &[job]);
            assert!(sim.run_until_iterations(5, Dur::from_secs(4)));
            sim.progress(0)
                .iteration_times()
                .iter()
                .map(|d| d.as_nanos())
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "seeded noise must be reproducible");
        let spread = a.iter().max().unwrap() - a.iter().min().unwrap();
        assert!(spread > 0, "jitter should vary iteration times");
    }
}
