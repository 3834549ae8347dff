//! The fragment cache as Fig. 3 describes it (§5.3.1), as straight-line
//! code: fragments held in arrival order, every new one checked against
//! every one held, the train sorted when its MF = 0 fragment arrives.
//!
//! 1. An incomplete train is buffered, not forwarded.
//! 2. The MF = 0 fragment releases every fragment, unreassembled, in
//!    offset order.
//! 3. Fragments 2..n leave with the first fragment's TTL.
//! 4. A duplicate or overlapping fragment poisons the train.
//! 5. The 46th fragment of one datagram discards its queue.
//! 6. A train is dropped 5 s after its first fragment.
//!
//! The table holds at most `max_trains` trains; a new one past that first
//! sweeps the expired trains, then evicts the oldest (ties by key).

use std::collections::HashMap;
use std::time::Duration;

use tspu_core::frag_cache::{FragConfig, FragKey};
use tspu_netsim::Time;
use tspu_wire::ipv4::Ipv4Packet;

/// The TSPU's limits: 45 fragments a train (the §7.2 fingerprint), 5 s,
/// and 4096 trains (a bound the paper does not measure).
pub fn tspu_config() -> FragConfig {
    FragConfig { queue_limit: 45, timeout: Duration::from_secs(5), max_trains: 4096 }
}

struct Train {
    started: Time,
    /// (offset, payload_len, packet bytes), in arrival order.
    fragments: Vec<(usize, usize, Vec<u8>)>,
    poisoned: bool,
}

impl Train {
    fn timed_out(&self, now: Time, timeout: Duration) -> bool {
        now.since(self.started) > timeout
    }
}

/// Fig. 3: the trains in flight and what became of the others.
pub struct Fragments {
    config: FragConfig,
    trains: HashMap<FragKey, Train>,
    pub discarded: u64,
    pub flushed: u64,
    pub evictions: u64,
}

impl Fragments {
    pub fn new(config: FragConfig) -> Fragments {
        Fragments { config, trains: HashMap::new(), discarded: 0, flushed: 0, evictions: 0 }
    }

    /// Trains buffered now.
    pub fn pending(&self) -> usize {
        self.trains.len()
    }

    /// A restart loses every train; the counts survive.
    pub fn clear(&mut self) {
        self.trains.clear();
    }

    fn make_room(&mut self, now: Time) {
        if self.trains.len() < self.config.max_trains {
            return;
        }
        let timeout = self.config.timeout;
        let before = self.trains.len();
        self.trains.retain(|_, t| !t.timed_out(now, timeout));
        self.discarded += (before - self.trains.len()) as u64;
        while self.trains.len() >= self.config.max_trains {
            let victim = self
                .trains
                .iter()
                .map(|(k, t)| (t.started, k.src, k.dst, k.ident))
                .min()
                .map(|(_, src, dst, ident)| FragKey { src, dst, ident })
                .expect("table is non-empty");
            self.trains.remove(&victim);
            self.discarded += 1;
            self.evictions += 1;
        }
    }

    /// One fragment in; the packets it releases out.
    pub fn offer(&mut self, now: Time, packet: &[u8]) -> Vec<Vec<u8>> {
        let Ok(view) = Ipv4Packet::new_checked(packet) else {
            return vec![packet.to_vec()];
        };
        let key = FragKey { src: view.src_addr(), dst: view.dst_addr(), ident: view.ident() };
        let offset = view.frag_offset();
        let len = view.payload().len();
        let more = view.more_fragments();

        // Rule 6, swept lazily.
        let timeout = self.config.timeout;
        if self.trains.get(&key).is_some_and(|t| t.timed_out(now, timeout)) {
            self.trains.remove(&key);
            self.discarded += 1;
        }
        if !self.trains.contains_key(&key) {
            self.make_room(now);
        }
        let train = self.trains.entry(key).or_insert(Train { started: now, fragments: Vec::new(), poisoned: false });
        if train.poisoned {
            return Vec::new();
        }

        // Rule 4, against every fragment held; rule 5.
        let new_range = offset..offset + len.max(1);
        let overlaps = train.fragments.iter().any(|(off, flen, _)| {
            let existing = *off..*off + (*flen).max(1);
            new_range.start < existing.end && existing.start < new_range.end
        });
        if overlaps || train.fragments.len() >= self.config.queue_limit {
            train.fragments.clear();
            train.poisoned = true;
            self.discarded += 1;
            return Vec::new();
        }
        train.fragments.push((offset, len, packet.to_vec()));
        if more {
            return Vec::new(); // Rule 1.
        }

        // Rules 2 and 3.
        let mut train = self.trains.remove(&key).expect("train exists");
        train.fragments.sort_by_key(|(off, _, _)| *off);
        let first_ttl = train
            .fragments
            .iter()
            .find(|(off, _, _)| *off == 0)
            .map(|(_, _, bytes)| Ipv4Packet::new_unchecked(&bytes[..]).ttl());
        self.flushed += 1;
        train
            .fragments
            .into_iter()
            .map(|(offset, _, mut bytes)| {
                if offset != 0 {
                    if let Some(ttl) = first_ttl {
                        let mut view = Ipv4Packet::new_unchecked(&mut bytes[..]);
                        view.set_ttl(ttl);
                        view.fill_checksum();
                    }
                }
                bytes
            })
            .collect()
    }
}
