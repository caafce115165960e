//! The TCP serving layer end to end: a `NetServer` on loopback, a fleet's
//! protocol-generated updates streamed to it as encoded frames over real
//! sockets, and the motivating queries answered over the same connections.
//!
//! ```text
//! cargo run --release -p mbdr-examples --example net_serve
//! ```

use mbdr_sim::{run_net_workload, NetWorkloadConfig};
use std::time::Instant;

fn main() {
    let config = NetWorkloadConfig {
        objects: 64,
        producer_connections: 4,
        query_connections: 4,
        queries_per_connection: 300,
        trip_length_m: 1_200.0,
        ..NetWorkloadConfig::default()
    };
    println!(
        "serving a {}-vehicle fleet over loopback TCP: {} producer + {} query connections...",
        config.objects, config.producer_connections, config.query_connections
    );
    let started = Instant::now();
    let report = run_net_workload(&config);
    let elapsed = started.elapsed();
    println!();
    println!(
        "ingest:  {} of {} updates applied from {} frames",
        report.updates_applied, report.updates_sent, report.frames_sent
    );
    println!(
        "queries: {} ({} rect, {} nearest, {} zone polls) answered {} + {} objects, {} zone events",
        report.queries_issued,
        report.rect_queries,
        report.nearest_queries,
        report.zone_polls,
        report.rect_results,
        report.nearest_results,
        report.zone_events
    );
    println!(
        "wire:    clients sent {} bytes, server sent {} bytes back",
        report.client_bytes_sent, report.server.bytes_sent
    );
    println!("whole run, update generation included: {:.1} ms", elapsed.as_secs_f64() * 1e3);
    println!();
    println!("JSON: {}", report.to_json());
}
