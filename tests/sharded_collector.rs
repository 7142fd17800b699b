//! Concurrency integration: N VM threads recording through
//! [`ShardedCollector`] handles must merge to exactly the statistics a
//! sequential run produces, and parallel plan construction must yield a
//! plan canonically identical to the sequential reference.
//!
//! The thread counts exercised default to `2, 4, 8`; CI pins specific
//! counts through the `DELTAPATH_STRESS_THREADS` environment variable
//! (a comma-separated list).

use std::sync::Arc;
use std::thread;

use deltapath::workloads::synthetic::{generate, SyntheticConfig};
use deltapath::{
    CollectMode, ContextStats, DeltaEncoder, EncodingPlan, EncodingWidth, PlanConfig, Program,
    ShardedCollector, Vm, VmConfig,
};

fn closed_world(seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        name: format!("shard{seed}"),
        seed,
        lib_families: 0,
        lib_methods_per_layer: 0,
        cross_scope_prob: 0.0,
        dynamic_subclass_prob: 0.0,
        main_loop_iters: 3,
        observe_events: 3,
        ..SyntheticConfig::default()
    }
}

/// Thread counts to stress: `DELTAPATH_STRESS_THREADS=a,b,c` or the
/// default ladder.
fn stress_threads() -> Vec<usize> {
    match std::env::var("DELTAPATH_STRESS_THREADS") {
        Ok(list) => list
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .expect("DELTAPATH_STRESS_THREADS must be a comma-separated list of counts")
            })
            .collect(),
        Err(_) => vec![2, 4, 8],
    }
}

fn assert_stats_eq(merged: &ContextStats, sequential: &ContextStats, label: &str) {
    assert_eq!(
        merged.total_contexts, sequential.total_contexts,
        "{label}: total"
    );
    assert_eq!(
        merged.unique_contexts(),
        sequential.unique_contexts(),
        "{label}: unique"
    );
    assert_eq!(merged.max_depth, sequential.max_depth, "{label}: max depth");
    assert_eq!(
        merged.max_stack_depth, sequential.max_stack_depth,
        "{label}: max stack depth"
    );
    assert_eq!(merged.max_ucp, sequential.max_ucp, "{label}: max ucp");
    assert_eq!(merged.max_id, sequential.max_id, "{label}: max id");
    assert!(
        (merged.avg_depth() - sequential.avg_depth()).abs() < 1e-12,
        "{label}: avg depth"
    );
    assert!(
        (merged.avg_stack_depth() - sequential.avg_stack_depth()).abs() < 1e-12,
        "{label}: avg stack depth"
    );
    assert!(
        (merged.avg_ucp() - sequential.avg_ucp()).abs() < 1e-12,
        "{label}: avg ucp"
    );
}

/// `threads` VM threads (distinct entry parameters, like a server handling
/// distinct requests) record concurrently through handles of one
/// collector; the reference records the same runs one at a time into a
/// plain [`ContextStats`].
#[test]
fn concurrent_vm_threads_merge_to_the_sequential_stats() {
    let program = Arc::new(generate(&closed_world(7)));
    let plan = Arc::new(EncodingPlan::analyze(&program, &PlanConfig::default()).expect("plan"));

    for threads in stress_threads() {
        let mut sequential = ContextStats::new();
        for param in 0..threads as u32 {
            let mut vm = Vm::new(
                &program,
                VmConfig::default()
                    .with_collect(CollectMode::Entries)
                    .with_entry_param(param),
            );
            vm.run(&mut DeltaEncoder::new(&*plan), &mut sequential)
                .expect("sequential run");
        }

        let sharded = ShardedCollector::new();
        thread::scope(|scope| {
            for param in 0..threads as u32 {
                let program: Arc<Program> = Arc::clone(&program);
                let plan = Arc::clone(&plan);
                let mut handle = sharded.handle();
                scope.spawn(move || {
                    let mut vm = Vm::new(
                        &program,
                        VmConfig::default()
                            .with_collect(CollectMode::Entries)
                            .with_entry_param(param),
                    );
                    vm.run(&mut DeltaEncoder::new(&*plan), &mut handle)
                        .expect("threaded run");
                    // The handle flushes its tail on drop.
                });
            }
        });

        assert_stats_eq(&sharded.stats(), &sequential, &format!("{threads} threads"));
        // Entries plus observes were all delivered (handles flushed on
        // drop), so the event counter covers at least every entry.
        assert!(
            sharded.events() >= sequential.total_contexts,
            "{threads} threads: delivered events must cover all entries"
        );
    }
}

/// The same event-for-event equivalence holds in unbuffered single-shard
/// mode (the degenerate global-mutex configuration).
#[test]
fn unbuffered_single_shard_matches_sequential_stats() {
    let program = generate(&closed_world(19));
    let plan = EncodingPlan::analyze(&program, &PlanConfig::default()).expect("plan");

    let mut sequential = ContextStats::new();
    let mut vm = Vm::new(
        &program,
        VmConfig::default().with_collect(CollectMode::Entries),
    );
    vm.run(&mut DeltaEncoder::new(&plan), &mut sequential)
        .expect("sequential run");

    let sharded = ShardedCollector::single_shard();
    let mut vm = Vm::new(
        &program,
        VmConfig::default().with_collect(CollectMode::Entries),
    );
    let mut handle = sharded.handle();
    vm.run(&mut DeltaEncoder::new(&plan), &mut handle)
        .expect("unbuffered run");
    drop(handle);

    assert_stats_eq(&sharded.stats(), &sequential, "single shard");
    assert_eq!(sharded.memo_hits(), 0, "unbuffered mode never memoizes");
}

/// Parallel territory construction must produce a plan canonically
/// identical to the sequential reference — same nodes, edges, addition
/// values, anchors, SIDs, and instrumentation, byte for byte in the
/// canonical fingerprint.
#[test]
fn parallel_plan_construction_is_byte_identical() {
    for seed in [7u64, 19, 301] {
        let program = generate(&closed_world(seed));
        // A narrow width forces anchor placement, so the per-anchor
        // territory workers actually have work to divide.
        for width in [EncodingWidth::U64, EncodingWidth::new(12)] {
            let sequential =
                EncodingPlan::analyze(&program, &PlanConfig::default().with_width(width))
                    .expect("sequential plan");
            if width != EncodingWidth::U64 {
                assert!(
                    sequential.encoding().anchors.len() > 1,
                    "seed {seed}: the narrow width must force anchors, or the \
                     parallel path is never exercised"
                );
            }
            for workers in stress_threads() {
                let parallel = EncodingPlan::analyze(
                    &program,
                    &PlanConfig::default()
                        .with_width(width)
                        .with_territory_workers(workers),
                )
                .expect("parallel plan");
                assert_eq!(
                    parallel.fingerprint(),
                    sequential.fingerprint(),
                    "seed {seed}, workers {workers}: plans diverged"
                );
            }
        }
    }
}
