//! The concurrent fleet workload: one shared, sharded location service,
//! producer threads ingesting every vehicle's update stream while query
//! threads ask the paper's motivating questions against it.
//!
//! ```text
//! cargo run --release -p mbdr-examples --example service_throughput
//! ```

use mbdr_sim::{run_service_workload, QueryMix, WorkloadConfig};
use std::time::Instant;

fn main() {
    let config = WorkloadConfig {
        objects: 96,
        shards: 16,
        producers: 4,
        query_threads: 4,
        queries_per_thread: 400,
        query_mix: QueryMix::BALANCED,
        trip_length_m: 1_200.0,
        ..WorkloadConfig::default()
    };
    println!(
        "replaying {} vehicles over {} producers against a {}-shard service, \
         {} query threads x {} queries...",
        config.objects,
        config.producers,
        config.shards,
        config.query_threads,
        config.queries_per_thread
    );
    let started = Instant::now();
    let report = run_service_workload(&config);
    let elapsed = started.elapsed();
    println!();
    println!(
        "ingest:  {} of {} generated updates applied over {:.0} virtual seconds",
        report.updates_applied, report.updates_sent, report.virtual_duration_s
    );
    println!(
        "queries: {} ({} rect, {} nearest, {} zone)",
        report.queries_issued, report.rect_queries, report.nearest_queries, report.zone_queries
    );
    println!(
        "query-observed accuracy: mean {:.1} m, max {:.1} m over {} samples \
         ({} within the {:.0} m skew bound)",
        report.accuracy.mean_m,
        report.accuracy.max_m,
        report.accuracy.samples,
        report.accuracy.within_bound,
        report.accuracy.bound_m
    );
    println!("whole run, update generation included: {:.1} ms", elapsed.as_secs_f64() * 1e3);
    println!();
    println!("JSON: {}", report.to_json());
}
