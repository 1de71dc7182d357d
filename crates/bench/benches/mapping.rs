//! Ablation: the double-tree engine (§4.2) vs. the naive one-transition-per-
//! entry mapping engine (§4.1) on out-of-order chunks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ppt_automaton::Transducer;
use ppt_bench::workloads;
use ppt_core::chunk::{process_chunk, EngineKind};
use ppt_core::join::PrefixFolder;
use ppt_datasets::random_treebank_queries;

fn bench_mapping_engines(c: &mut Criterion) {
    let data = workloads::treebank(1 << 20);
    let queries = random_treebank_queries(5, 4, 7);
    let t = Transducer::from_queries(&queries).unwrap();
    // An out-of-order chunk from the middle of the document.
    let start = data.len() / 3;
    let chunk = &data[start..start + 256 * 1024];

    let mut group = c.benchmark_group("chunk_engine");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.throughput(Throughput::Bytes(chunk.len() as u64));
    for (name, kind) in [("tree", EngineKind::Tree), ("naive", EngineKind::Naive)] {
        group.bench_with_input(BenchmarkId::new(name, "treebank-256k"), &kind, |b, &kind| {
            b.iter(|| process_chunk(&t, chunk, start, 1, false, kind, false))
        });
    }
    group.finish();
}

fn bench_unification(c: &mut Criterion) {
    let data = workloads::treebank(512 * 1024);
    let queries = random_treebank_queries(5, 4, 7);
    let t = Transducer::from_queries(&queries).unwrap();
    let mid = data.len() / 2;
    let left = process_chunk(&t, &data[..mid], 0, 0, true, EngineKind::Tree, false);
    let right = process_chunk(&t, &data[mid..], mid, 1, false, EngineKind::Tree, false);

    // The specification (`unify_mappings` over materialised mappings) beside
    // the single-entry fold the pipelines run on the compact results.
    let (left_spec, right_spec) = (left.mapping.to_mapping(), right.mapping.to_mapping());
    let mut group = c.benchmark_group("unification");
    group.sample_size(30);
    group.bench_function("join_two_mappings", |b| {
        b.iter(|| ppt_core::join::unify_mappings(&left_spec, &right_spec))
    });
    group.bench_function("fold_two_chunks", |b| {
        b.iter(|| {
            let mut folder = PrefixFolder::new(&t);
            for out in [&left, &right] {
                folder.fold(out.mapping.clone(), out.depth_delta, out.ladder.clone());
            }
            folder.depth()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_mapping_engines, bench_unification);
criterion_main!(benches);
