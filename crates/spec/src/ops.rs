//! The device-level op language: what crosses one device, when, and what
//! reaches it from the registry. One op list runs through
//! [`crate::Device`] and through the engine's `TspuDevice` alike.

use std::fmt;
use std::net::Ipv4Addr;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use tspu_core::{FailureProfile, Policy, PolicyDelta, PolicyHandle, TspuDevice};
use tspu_netsim::fault::DeviceFaults;
use tspu_netsim::{Direction, Time};
use tspu_wire::ipv4::{Ipv4Repr, Protocol};
use tspu_wire::tcp::{TcpFlags, TcpRepr};
use tspu_wire::udp::UdpRepr;

use crate::device::Device;

/// One step of a device-level experiment.
#[derive(Clone)]
pub enum Op {
    /// A comment for whoever reads the rendered run; no effect.
    Note(&'static str),
    /// One packet reaching the device.
    Send(Packet),
    /// A registry update reaching the device (and every device sharing
    /// its registry) at once.
    Delta(PolicyDelta),
    /// The device restarts at this instant, losing its flow and fragment
    /// tables; it notices at the first packet at or after it. No packet
    /// listed before a restart may be later than it.
    Restart(Time),
}

/// A packet, when it arrives, which way it travels, and the names a
/// rendering gives its flow and itself.
#[derive(Clone)]
pub struct Packet {
    pub at: Time,
    pub direction: Direction,
    pub flow: String,
    pub what: String,
    pub packet: Vec<u8>,
}

impl fmt::Debug for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Op::Note(note) => write!(f, "-- {note}"),
            Op::Send(s) => {
                let arrow = if s.direction == Direction::LocalToRemote { '>' } else { '<' };
                write!(f, "{}µs {arrow} {} {} ({} B)", s.at.as_micros(), s.flow, s.what, s.packet.len())
            }
            Op::Delta(delta) => write!(f, "delta {delta:?}"),
            Op::Restart(at) => write!(f, "{}µs restart", at.as_micros()),
        }
    }
}

/// The restart schedule `ops` writes down.
fn restarts(ops: &[Op]) -> Vec<Time> {
    ops.iter().filter_map(|op| if let Op::Restart(at) = op { Some(*at) } else { None }).collect()
}

/// What a device starts from: its registry, its failure odds (Table 1)
/// and the seed of its dice.
#[derive(Clone)]
pub struct Setup {
    pub policy: Policy,
    pub failure: FailureProfile,
    pub seed: u64,
}

/// What a failing case varies (`differential::setups`): the switch, the
/// odds and the seed; the lists would bury them.
impl fmt::Debug for Setup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Setup")
            .field("throttle_active", &self.policy.throttle_active)
            .field("failure", &self.failure)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

impl Setup {
    /// The engine as `TspuDevice::new` builds it (the `tspu` profile),
    /// restarting where `ops` says.
    pub fn engine(&self, label: &str, ops: &[Op]) -> TspuDevice {
        let faults =
            DeviceFaults { restarts: restarts(ops).into_iter().map(|at| at.since(Time::ZERO)).collect() };
        let policy = PolicyHandle::new(self.policy.clone());
        TspuDevice::new(label, policy, self.failure, self.seed).with_device_faults(faults)
    }

    /// The spec, its dice a `SmallRng` seeded as the engine's are.
    pub fn spec(&self, ops: &[Op]) -> Device<SmallRng> {
        Device::new(&self.policy, self.failure, SmallRng::seed_from_u64(self.seed), restarts(ops))
    }
}

/// A TCP/IPv4 packet with TTL 64.
pub(crate) fn tcp(src: Ipv4Addr, sp: u16, dst: Ipv4Addr, dp: u16, flags: TcpFlags, payload: &[u8]) -> Vec<u8> {
    let mut tcp = TcpRepr::new(sp, dp, flags);
    tcp.payload = payload.to_vec();
    let segment = tcp.build(src, dst);
    Ipv4Repr::new(src, dst, Protocol::Tcp, segment.len()).build(&segment)
}

/// A UDP/IPv4 packet with TTL 64.
pub(crate) fn udp(src: Ipv4Addr, sp: u16, dst: Ipv4Addr, dp: u16, payload: &[u8]) -> Vec<u8> {
    let datagram = UdpRepr::new(sp, dp, payload.to_vec()).build(src, dst);
    Ipv4Repr::new(src, dst, Protocol::Udp, datagram.len()).build(&datagram)
}

/// An ICMP echo request.
pub(crate) fn icmp(src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
    let echo = [8, 0, 0xf7, 0xfe, 0, 1, 0, 0];
    Ipv4Repr::new(src, dst, Protocol::Icmp, echo.len()).build(&echo)
}
