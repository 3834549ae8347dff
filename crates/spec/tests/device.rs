//! The engine against `spec::Device`: see `tspu_spec::differential`. The
//! transcript's op list first, then random op lists.
//!
//! ## Seeded mutations
//!
//! Each is a patch under `tests/mutants/` this suite must fail on: a
//! 46-fragment queue (`frag_queue_limit_46`), a 74 s SNI-I window
//! (`sni1_window_74s`), an SNI-II allowance of up to nine
//! (`sni2_allowance_up_to_9`), a 1000-byte QUIC floor (`quic_floor_1000`),
//! an RST/ACK with TTL 64 (`rst_rewrite_fresh_ttl`), SNI-IV blind to a
//! role reversal (`sni4_ignores_reversal`), throttling past its switch
//! (`throttle_ignores_switch`), a remote-IP verdict cache that ignores the
//! epoch (`remote_ip_cache_ignores_epoch`), roles flipped on a first
//! SYN/ACK (`synack_first_flips_roles`) and an HTTP trigger under the
//! TSPU (`profile_http_trigger_without_filter`).

use proptest::prelude::*;
use tspu_spec::differential::{ops, play, setups};
use tspu_spec::{transcript_ops, transcript_setup};

#[test]
fn the_transcript_runs_as_the_spec_says() {
    play(&transcript_setup(), &transcript_ops());
}

proptest! {
    #[test]
    fn the_engine_does_what_the_spec_does(setup in setups(), ops in ops()) {
        play(&setup, &ops);
    }
}
