//! Packet capture: the simulator's equivalent of running tcpdump on both
//! ends, which the paper's methodology does for every measurement (§3) —
//! plus per-middlebox trace points, the equivalent of a tap on either side
//! of an in-path device, which the chaos oracle replays to check model
//! invariants exactly where the device acted.
//!
//! A [`Capture`] is one append-only log: every captured packet's bytes go
//! into one buffer, and each record is a fixed-size (time, trace point,
//! byte range) entry beside it. Readers borrow [`CaptureView`]s of it, so
//! writing a record allocates nothing once the two buffers have room.

use std::fmt;
use std::ops::Range;

use crate::middlebox::MiddleboxId;
use crate::network::HostId;
use crate::time::Time;

/// Where a captured packet was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracePoint {
    /// Leaving a host's network interface.
    HostTx(HostId),
    /// Arriving at a host's network interface.
    HostRx(HostId),
    /// Dropped in transit: TTL expiry or a middlebox drop, at the given
    /// route step index.
    Dropped { step: usize },
    /// Entering a middlebox at the given route step (the packet as the
    /// device sees it, post router-TTL-decrement).
    DeviceIngress { device: MiddleboxId, step: usize },
    /// Leaving a middlebox: one record per packet the device forwarded for
    /// the preceding ingress, in forwarding order. An ingress followed by
    /// no egress means the device consumed the packet (drop or buffering).
    DeviceEgress { device: MiddleboxId, step: usize },
}

/// One captured packet, borrowed from its [`Capture`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaptureView<'a> {
    pub time: Time,
    pub point: TracePoint,
    pub bytes: &'a [u8],
}

/// One record of the log: where its packet's bytes lie in the buffer.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Record {
    time: Time,
    point: TracePoint,
    start: usize,
    end: usize,
}

/// An append-only capture log: the packets' bytes end to end in one
/// buffer, and one fixed-size record per packet.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Capture {
    bytes: Vec<u8>,
    records: Vec<Record>,
}

impl Capture {
    /// An empty log; it allocates at its first [`Capture::push`].
    pub fn new() -> Capture {
        Capture::default()
    }

    /// Appends one packet observed at `point` at `time`.
    pub fn push(&mut self, time: Time, point: TracePoint, bytes: &[u8]) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(bytes);
        self.records.push(Record { time, point, start, end: self.bytes.len() });
    }

    /// Records in the log.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The `index`-th record, if there is one.
    pub fn get(&self, index: usize) -> Option<CaptureView<'_>> {
        self.records.get(index).map(|record| view(&self.bytes, record))
    }

    /// Every record, oldest first.
    pub fn iter(&self) -> CaptureIter<'_> {
        self.range(0..self.len())
    }

    /// The records at `indices`, oldest first.
    ///
    /// # Panics
    /// Panics if `indices` reaches past the log.
    pub(crate) fn range(&self, indices: Range<usize>) -> CaptureIter<'_> {
        CaptureIter { bytes: &self.bytes, records: self.records[indices].iter() }
    }

    /// A log of its own holding copies of the records at `indices`.
    pub(crate) fn copy_range(&self, indices: Range<usize>) -> Capture {
        let mut copy = Capture::new();
        let bytes = self.range(indices.clone()).map(|view| view.bytes.len()).sum();
        copy.reserve(indices.len(), bytes);
        for view in self.range(indices) {
            copy.push(view.time, view.point, view.bytes);
        }
        copy
    }

    /// Room for `records` more records and `bytes` more packet bytes.
    pub(crate) fn reserve(&mut self, records: usize, bytes: usize) {
        self.records.reserve_exact(records);
        self.bytes.reserve_exact(bytes);
    }

    /// Buffer capacity in (records, bytes).
    pub(crate) fn capacity(&self) -> (usize, usize) {
        (self.records.capacity(), self.bytes.capacity())
    }
}

fn view<'a>(bytes: &'a [u8], record: &Record) -> CaptureView<'a> {
    CaptureView { time: record.time, point: record.point, bytes: &bytes[record.start..record.end] }
}

impl fmt::Debug for Capture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Capture {
    type Item = CaptureView<'a>;
    type IntoIter = CaptureIter<'a>;

    fn into_iter(self) -> CaptureIter<'a> {
        self.iter()
    }
}

/// Consecutive records of a [`Capture`], borrowed, oldest first.
#[derive(Clone)]
pub struct CaptureIter<'a> {
    bytes: &'a [u8],
    records: std::slice::Iter<'a, Record>,
}

impl<'a> Iterator for CaptureIter<'a> {
    type Item = CaptureView<'a>;

    fn next(&mut self) -> Option<CaptureView<'a>> {
        self.records.next().map(|record| view(self.bytes, record))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.records.size_hint()
    }
}

impl ExactSizeIterator for CaptureIter<'_> {}
