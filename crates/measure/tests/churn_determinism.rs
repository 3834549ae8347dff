//! The churn campaign's determinism guarantee: per-delta convergence
//! latencies — and the whole campaign snapshot — are byte-identical no
//! matter how many worker threads shard the cells. Each cell is a pure
//! function of (schedule, batch index, config); the pool reassembles
//! results by index, so worker assignment cannot leak in.

use tspu_measure::ChurnCampaign;
use tspu_registry::Universe;

mod common;
use common::assert_thread_independent;

#[test]
fn churn_campaign_is_byte_identical_across_thread_counts() {
    let universe = Universe::generate(7);
    let mut campaign = ChurnCampaign::escalation_2022();
    // Ten escalation days make enough cells for 8 workers to genuinely
    // shard the replay.
    campaign.churn.end_day = campaign.churn.start_day + 10;

    assert_thread_independent(&[8], |pool| {
        let report = campaign.run(&universe, pool);
        assert!(!report.cells.is_empty());
        format!("{:?}\n{}", report.cells, report.snapshot.to_json())
    });
}
