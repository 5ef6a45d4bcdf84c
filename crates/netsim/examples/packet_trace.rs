//! Traced packet-engine run for the determinism gate: fixed two-job
//! scenario, telemetry streamed to a JSONL file.
//!
//! ```text
//! cargo run --release -p netsim --example packet_trace -- <train_packets> <out.jsonl>
//! ```
//!
//! `scripts/check.sh` runs this at `train_packets = 1` (the per-packet
//! engine) and at 64 (full trains), and requires each JSONL's sha256 and
//! the printed `N telemetry events (P packets, M marked)` line to equal
//! pinned values.

use dcqcn::CcVariant;
use netsim::packet::{PacketSimConfig, PacketSimulator};
use netsim::rate::RateJob;
use netsim::Engine;
use simtime::{Dur, Time};
use telemetry::{export, BufferRecorder};
use workload::{JobSpec, Model};

fn main() {
    let mut args = std::env::args().skip(1);
    let usage = "usage: packet_trace <train_packets> <out.jsonl>";
    let train_packets: u32 = args.next().expect(usage).parse().expect("train_packets");
    let out = args.next().expect(usage);

    let spec = JobSpec::reference(Model::ResNet50, 400);
    let jobs = [
        RateJob::new(spec, CcVariant::Fair),
        RateJob::new(
            spec,
            CcVariant::StaticUnfair {
                timer: Dur::from_micros(100),
            },
        ),
    ];
    let mut sim = PacketSimulator::with_recorder(
        PacketSimConfig {
            train_packets,
            ..PacketSimConfig::default()
        },
        &jobs,
        BufferRecorder::new(),
    );
    sim.run_until(Time::ZERO + Dur::from_millis(120));
    let (sent, marked) = sim.packet_counts();
    let events = sim.recorder().events().len();
    std::fs::write(&out, export::jsonl(sim.recorder().events())).expect("write trace");
    println!("{out}: {events} telemetry events ({sent} packets, {marked} marked)");
}
