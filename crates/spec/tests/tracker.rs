//! The flow tracker against `spec::conntrack`'s model: see
//! `tspu_spec::tracker`.
//!
//! ## Seeded mutations
//!
//! Each is a patch under `tests/mutants/` this suite must fail on:
//! `conntrack_gc_evicts_at_timeout` (GC evicts at `>=` its timeout),
//! `conntrack_gc_keeps_index_key` (GC frees a slot but keeps its key),
//! `conntrack_reuse_keeps_block` (an expired entry replaced in place keeps
//! its verdict), `conntrack_index_delete_without_shift` (an index delete
//! skips the backward shift) and `sharded_remove_ignores_shard` (a
//! removal always goes to shard 0).

use std::time::Duration;

use proptest::prelude::*;
use tspu_core::behaviors::BlockKind;
use tspu_core::Side;
use tspu_spec::tracker::{ops, play, Op};
use tspu_wire::tcp::TcpFlags;

proptest! {
    #[test]
    fn trackers_match_the_model(ops in ops(), provisioned in any::<bool>()) {
        play(&ops, provisioned);
    }
}

/// `conntrack_reuse_keeps_block`'s shrunk counterexample, pinned: a blocked
/// SYN-SENT flow expires and is re-observed in its own slot, which the GC
/// hand (four slots a packet, five live flows) has just passed over. The
/// random search finds a case like it in about half of its 64-case runs.
#[test]
fn an_expired_flow_replaced_in_its_slot_drops_its_verdict() {
    let syn = |id| Op::Tcp { id, side: Side::Local, flags: TcpFlags::SYN, payload: 0 };
    let udp = |id| Op::Udp { id, side: Side::Local };
    let block = Op::Block { id: 4, kind: BlockKind::RstRewrite, both: false, window_secs: 61, epoch: 0 };
    let jump = Op::Jump(Duration::from_micros(60_000_001));
    play(&[syn(0), Op::Sweep, syn(4), block, udp(10), udp(11), udp(10), udp(12), jump, syn(4)], false);
}
