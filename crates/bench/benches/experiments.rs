//! The regeneration harness: `cargo bench -p tspu-bench --bench experiments`
//! re-runs every table and figure of the paper and prints paper-vs-measured.
//!
//! Not a criterion bench (harness = false): the artifact is the output,
//! not a latency distribution. Scaling knobs are environment variables —
//! see `tspu-bench`'s crate docs.

fn main() {
    // `cargo bench` passes --bench; ignore arguments.
    let started = std::time::Instant::now();
    println!("TSPU reproduction — experiment regeneration");
    println!("(paper: 'TSPU: Russia's Decentralized Censorship System', IMC 2022)");
    for report in tspu_bench::run_all() {
        println!("{}", report.render());
    }
    // Wall clock goes to stderr with the per-experiment timings, so stdout
    // depends on the seed alone.
    eprintln!("\nall experiments regenerated in {:.1?}", started.elapsed());
}
