//! The middlebox trait and traffic direction.

use std::any::Any;
use std::time::Duration;

use crate::time::Time;

/// Index of a middlebox registered with a [`crate::Network`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MiddleboxId(pub usize);

/// The direction of a packet *as seen by a particular middlebox placement*.
///
/// The TSPU cares which side of it is "inside Russia": triggers are only
/// honored when sent from the local side (paper §5.3.2). A device placed on
/// a directed route is told, per placement, whether packets on that route
/// flow local→remote or remote→local. An upstream-only device simply has no
/// placement on any remote→local route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From the device's local (client-network) side toward the remote
    /// side — "upstream" in the paper's wording.
    LocalToRemote,
    /// From the remote side toward the device's local side — "downstream".
    RemoteToLocal,
}

impl Direction {
    /// The opposite direction.
    pub fn flip(self) -> Direction {
        match self {
            Direction::LocalToRemote => Direction::RemoteToLocal,
            Direction::RemoteToLocal => Direction::LocalToRemote,
        }
    }
}

/// The outcome of processing one packet.
///
/// The common cases — forward unchanged, drop — carry no packet buffers at
/// all, so an in-path chain of non-mutating devices moves a packet from
/// hop to hop without a single copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Forward the input packet, possibly rewritten in place.
    Pass,
    /// Consume the packet: dropped, or absorbed into device state (the
    /// TSPU's fragment cache buffering a fragment).
    Drop,
    /// Forward a different packet in the input's place (the TSPU's RST/ACK
    /// rewrite, NAT translation).
    Replace(Vec<u8>),
    /// Forward several packets (the fragment cache flushing a buffered
    /// train when its last fragment arrives).
    Fanout(Vec<Vec<u8>>),
    /// Forward the input packet, but only after an extra queueing delay on
    /// top of the link's hop latency (a chaos link's jitter). Delays from
    /// several devices on the same link accumulate.
    Delay(Duration),
}

/// Object-safe downcast support, blanket-implemented for every `'static`
/// type. [`Middlebox`] requires it so a network-owned `Box<dyn Middlebox>`
/// can be borrowed back at its concrete type through a typed
/// [`crate::MiddleboxHandle`].
pub trait AsAny {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

impl<T: Any> AsAny for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An in-path packet processor.
///
/// `process` inspects one packet — mutating it in place if needed — and
/// returns a [`Verdict`] saying what continues along the route from the
/// device's position.
///
/// State expiry is lazy: implementations compare `now` against their own
/// deadlines on each call. The simulator never calls middleboxes when no
/// packet crosses them, exactly like real in-path hardware.
///
/// `Send` is a supertrait so a whole [`crate::Network`] (which owns its
/// middleboxes) can move between sweep worker threads.
pub trait Middlebox: Send + AsAny {
    /// Processes one packet traveling in `direction`.
    fn process(&mut self, now: Time, direction: Direction, packet: &mut Vec<u8>) -> Verdict;

    /// Convenience wrapper: takes the packet by value and materializes the
    /// verdict as the list of packets that continue. Tests and measurement
    /// drivers use this; the event loop itself consumes [`Verdict`]s
    /// directly to stay copy-free.
    fn process_owned(&mut self, now: Time, direction: Direction, packet: Vec<u8>) -> Vec<Vec<u8>> {
        let mut packet = packet;
        match self.process(now, direction, &mut packet) {
            Verdict::Pass => vec![packet],
            Verdict::Drop => Vec::new(),
            Verdict::Replace(replacement) => vec![replacement],
            Verdict::Fanout(packets) => packets,
            Verdict::Delay(_) => vec![packet],
        }
    }

    /// A short name for captures and debugging.
    fn label(&self) -> String {
        "middlebox".to_string()
    }

    /// The device's immutable configuration as a shareable image, if it
    /// supports forking. [`crate::Network::image`] requires every
    /// installed middlebox to return `Some`; ad-hoc test middleboxes can
    /// keep the `None` default and simply opt out of snapshotting.
    fn image(&self) -> Option<Box<dyn MiddleboxImage>> {
        None
    }
}

/// The immutable half of a fork-able middlebox: everything needed to
/// rebuild a pristine instance (configuration, seeds, export names), none
/// of the per-run state (flow tables, RNG position, counters).
///
/// `Send + Sync` is the point: a [`crate::NetworkImage`] holding these can
/// be shared by reference across sweep worker threads even though the
/// instantiated `Box<dyn Middlebox>` is only `Send`.
pub trait MiddleboxImage: Send + Sync {
    /// Builds a fresh middlebox, byte-identical in behavior to the one
    /// the image was taken from at construction time.
    fn instantiate(&self) -> Box<dyn Middlebox>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_flip() {
        assert_eq!(Direction::LocalToRemote.flip(), Direction::RemoteToLocal);
        assert_eq!(Direction::RemoteToLocal.flip(), Direction::LocalToRemote);
    }
}
