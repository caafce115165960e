//! Criterion micro-bench of the R-tree on the candidate-link query the map
//! matcher issues once per second.

use criterion::{criterion_group, criterion_main, Criterion};
use mbdr_geo::{Aabb, Point};
use mbdr_roadnet::gen::city_grid;
use mbdr_spatial::{RTree, SpatialIndex};

fn link_boxes() -> Vec<(Aabb, u32)> {
    let net = city_grid::generate_default(7);
    net.links()
        .iter()
        .flat_map(|l| {
            l.geometry
                .segments()
                .map(move |s| (Aabb::from_points([s.a, s.b]).expect("two points"), l.id.0))
        })
        .collect()
}

fn bench_spatial(c: &mut Criterion) {
    let items = link_boxes();
    let rtree = RTree::bulk_load(items.clone());
    let queries: Vec<Point> =
        (0..256).map(|i| Point::new((i * 17 % 3000) as f64, (i * 31 % 3000) as f64)).collect();

    let mut group = c.benchmark_group("spatial_query_within_30m");
    group.bench_function("rtree", |b| {
        b.iter(|| queries.iter().map(|q| rtree.query_within(q, 30.0).len()).sum::<usize>())
    });
    group.finish();

    let mut build = c.benchmark_group("spatial_build");
    build.sample_size(20);
    build.bench_function("rtree_bulk_load", |b| b.iter(|| RTree::bulk_load(items.clone()).len()));
    build.finish();
}

criterion_group!(benches, bench_spatial);
criterion_main!(benches);
