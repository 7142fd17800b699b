//! Real wall-clock cost of the per-call encoder state machines — the
//! numbers that calibrate the abstract
//! [`CostModel`](deltapath_runtime::CostModel) used by the `figure8`
//! harness.
//!
//! Benchmarked: DeltaPath call/return (the `ID += av` / `ID -= av` pair,
//! with and without call-path tracking), an anchor push/pop, the PCC hash
//! mix, a stack-walk snapshot, and whole-program interpreter runs under
//! each encoder.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use deltapath_baselines::{PccEncoder, PccWidth};
use deltapath_callgraph::ScopeFilter;
use deltapath_core::{DeltaState, EncodingPlan, PlanConfig};
use deltapath_ir::MethodId;
use deltapath_runtime::{
    ContextEncoder, DeltaEncoder, NullCollector, NullEncoder, StackWalkEncoder, Vm, VmConfig,
};
use deltapath_workloads::specjvm::program;
use deltapath_workloads::synthetic::{generate, SyntheticConfig};

fn call_return_pair(c: &mut Criterion) {
    let p = generate(&SyntheticConfig::default());
    let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).expect("plan");
    let plan_nocpt =
        EncodingPlan::analyze(&p, &PlanConfig::default().with_cpt(false)).expect("plan");
    let site = plan
        .graph()
        .instrumented_sites()
        .into_iter()
        .find(|&s| plan.site(s).map(|i| i.encoded).unwrap_or(false))
        .expect("an encoded site");

    let mut group = c.benchmark_group("per_call");
    group.bench_function("deltapath_add_sub_cpt", |b| {
        let mut state = DeltaState::start(plan.entry_method());
        b.iter(|| {
            let token = state.on_call(&plan, black_box(site));
            state.on_return(token);
        });
    });
    group.bench_function("deltapath_add_sub_nocpt", |b| {
        let mut state = DeltaState::start(plan_nocpt.entry_method());
        b.iter(|| {
            let token = state.on_call(&plan_nocpt, black_box(site));
            state.on_return(token);
        });
    });
    group.bench_function("pcc_hash", |b| {
        let mut pcc = PccEncoder::from_plan(&plan, PccWidth::Bits32);
        pcc.thread_start(plan.entry_method());
        b.iter(|| {
            let t = pcc.on_call(black_box(site));
            pcc.on_return(site, t);
        });
    });
    group.finish();
}

fn anchor_push_pop(c: &mut Criterion) {
    let p = generate(&SyntheticConfig::default());
    let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).expect("plan");
    // Find an anchor method with an incoming edge.
    let graph = plan.graph();
    let target = graph
        .nodes()
        .find(|&n| plan.encoding().is_anchor[n.index()] && !graph.in_edges(n).is_empty())
        .map(|n| {
            let e = graph.edge(graph.in_edges(n)[0]);
            (graph.method_of(n), e.site)
        });
    let Some((anchor_method, via)) = target else {
        return; // No anchors in this program shape; nothing to measure.
    };
    c.bench_function("per_entry/anchor_push_pop", |b| {
        let mut state = DeltaState::start(plan.entry_method());
        b.iter(|| {
            let token = state.on_call(&plan, via);
            let outcome = state.on_entry(&plan, black_box(anchor_method), Some(via));
            state.on_exit(outcome);
            state.on_return(token);
        });
    });
}

fn snapshot_vs_walk(c: &mut Criterion) {
    let p = generate(&SyntheticConfig::default());
    let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).expect("plan");
    let mut group = c.benchmark_group("capture");
    group.bench_function("deltapath_snapshot", |b| {
        let mut state = DeltaState::start(plan.entry_method());
        b.iter(|| black_box(state.snapshot(plan.entry_method())));
    });
    group.bench_function("stackwalk_20_frames", |b| {
        let mut walk = StackWalkEncoder::full();
        walk.thread_start(MethodId::from_index(0));
        let mut tokens = Vec::new();
        for i in 1..20 {
            tokens.push(walk.on_entry(MethodId::from_index(i), None));
        }
        b.iter(|| black_box(walk.observe(MethodId::from_index(19))));
    });
    group.finish();
}

fn whole_program(c: &mut Criterion) {
    let p = program("compress").expect("benchmark");
    let plan = EncodingPlan::analyze(
        &p,
        &PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly),
    )
    .expect("plan");
    let plan_nocpt = EncodingPlan::analyze(
        &p,
        &PlanConfig::default()
            .with_scope(ScopeFilter::ApplicationOnly)
            .with_cpt(false),
    )
    .expect("plan");
    let vm_config = VmConfig::default();

    let mut group = c.benchmark_group("whole_program_compress");
    group.sample_size(10);
    group.bench_function("native", |b| {
        b.iter(|| {
            let mut vm = Vm::new(&p, vm_config);
            vm.run(&mut NullEncoder, &mut NullCollector).expect("run")
        });
    });
    group.bench_function("pcc", |b| {
        b.iter(|| {
            let mut vm = Vm::new(&p, vm_config);
            let mut enc = PccEncoder::from_plan(&plan, PccWidth::Bits32);
            vm.run(&mut enc, &mut NullCollector).expect("run")
        });
    });
    group.bench_function("deltapath_nocpt", |b| {
        b.iter(|| {
            let mut vm = Vm::new(&p, vm_config);
            let mut enc = DeltaEncoder::new(&plan_nocpt);
            vm.run(&mut enc, &mut NullCollector).expect("run")
        });
    });
    group.bench_function("deltapath_cpt", |b| {
        b.iter(|| {
            let mut vm = Vm::new(&p, vm_config);
            let mut enc = DeltaEncoder::new(&plan);
            vm.run(&mut enc, &mut NullCollector).expect("run")
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    call_return_pair,
    anchor_push_pop,
    snapshot_vs_walk,
    whole_program
);
criterion_main!(benches);
