//! Interned captures: a DeltaPath capture's stack is a shared handle into
//! the encoder's intern table, yet equality and hashing stay structural.
//!
//! * Captures of the same run from the map-based, compiled and batched
//!   encoders are equal and hash equal under the keyless `FastHasher`,
//!   although each encoder interns its stacks in its own table; so are two
//!   runs of the hybrid encoder, whose regions each intern on their own.
//! * Within one encoder, equal stacks are one allocation: a push, pop and
//!   push of the same frame hands out the pointer-identical handle.
//! * `clone()` copies: a clone outlives its encoder, decodes to the same
//!   path and shares no storage with the original.
//! * A context built by hand from a `Vec<Frame>` equals, and hashes equal
//!   to, the encoder's capture of the same stack.

mod common;

use std::collections::HashSet;

use common::CaptureLog;
use deltapath::baselines::{HybridEncoder, HybridPlan};
use deltapath::core::ResolvedEntry;
use deltapath::workloads::specjvm::suite;
use deltapath::{
    fast_hash, BatchedDeltaEncoder, Capture, CollectMode, CompiledDeltaEncoder, ContextEncoder,
    DeltaEncoder, DeltaState, EncodedContext, EncodingPlan, FrameStack, MethodId, PlanConfig,
    Program, ScopeFilter, Sid, Vm, VmConfig,
};

/// Small suite workloads, shortened so the debug-build suite stays quick.
fn programs() -> Vec<Program> {
    suite()
        .into_iter()
        .filter(|b| ["xml.validation", "scimark.sparse.large", "compress"].contains(&b.name))
        .map(|mut b| {
            b.config.main_loop_iters = 1;
            b.program()
        })
        .collect()
}

fn plan_of(program: &Program) -> EncodingPlan {
    EncodingPlan::analyze(
        program,
        &PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly),
    )
    .expect("suite workloads plan")
}

/// Runs `program` once under `encoder`, collecting every entry and observe
/// capture in execution order.
fn run_log(program: &Program, encoder: &mut impl ContextEncoder) -> Vec<Capture> {
    let mut log = CaptureLog::default();
    let mut vm = Vm::new(
        program,
        VmConfig::default().with_collect(CollectMode::Entries),
    );
    vm.run(encoder, &mut log).expect("run");
    log.records.into_iter().map(|(_, c)| c).collect()
}

fn delta(capture: &Capture) -> &EncodedContext {
    match capture {
        Capture::Delta(ctx) => ctx,
        other => panic!("expected a DeltaPath capture, got {other:?}"),
    }
}

/// The context with its stack rebuilt by hand from a `Vec<Frame>`.
fn hand_built(ctx: &EncodedContext) -> EncodedContext {
    EncodedContext {
        frames: ctx.frames.to_vec().into(),
        id: ctx.id,
        at: ctx.at,
    }
}

#[test]
fn captures_agree_across_encoders_and_intern_tables() {
    for program in programs() {
        let plan = plan_of(&program);
        let compiled = plan.compile();
        let map = run_log(&program, &mut DeltaEncoder::new(&plan));
        let tab = run_log(&program, &mut CompiledDeltaEncoder::new(&compiled));
        let bat = run_log(
            &program,
            &mut BatchedDeltaEncoder::new(&compiled).with_capacity(7),
        );
        let name = program.name();
        assert!(!map.is_empty(), "{name}: workload must collect events");
        assert_eq!(map.len(), tab.len(), "{name}");
        assert_eq!(map.len(), bat.len(), "{name}");
        for (i, ((m, t), b)) in map.iter().zip(&tab).zip(&bat).enumerate() {
            assert_eq!(m, t, "{name}: capture {i}, map vs compiled");
            assert_eq!(m, b, "{name}: capture {i}, map vs batched");
            assert_eq!(fast_hash(m), fast_hash(t), "{name}: capture {i}");
            assert_eq!(fast_hash(m), fast_hash(b), "{name}: capture {i}");
            // Separate tables: equal, but never the same allocation.
            let (m, t, b) = (delta(m), delta(t), delta(b));
            assert!(!FrameStack::ptr_eq(&m.frames, &t.frames), "{name}: {i}");
            assert!(!FrameStack::ptr_eq(&m.frames, &b.frames), "{name}: {i}");
        }
    }
}

#[test]
fn hybrid_captures_agree_across_runs() {
    for program in programs() {
        let trunk: HashSet<MethodId> = [program.entry()].into();
        let plan = HybridPlan::analyze(&program, trunk, &PlanConfig::default())
            .expect("hybrid plan with the entry as trunk");
        let first = run_log(&program, &mut HybridEncoder::new(&plan));
        let second = run_log(&program, &mut HybridEncoder::new(&plan));
        let name = program.name();
        assert!(!first.is_empty(), "{name}");
        assert_eq!(first, second, "{name}");
        for (a, b) in first.iter().zip(&second) {
            assert_eq!(fast_hash(a), fast_hash(b), "{name}");
            let Capture::Hybrid { trunk_v, ctx } = a else {
                panic!("{name}: expected a hybrid capture, got {a:?}");
            };
            let rebuilt = Capture::Hybrid {
                trunk_v: *trunk_v,
                ctx: hand_built(ctx),
            };
            assert_eq!(*a, rebuilt, "{name}");
            assert_eq!(fast_hash(a), fast_hash(&rebuilt), "{name}");
        }
    }
}

#[test]
fn push_pop_push_of_one_frame_yields_the_identical_handle() {
    let entry = MethodId::from_index(0);
    let callee = MethodId::from_index(1);
    let anchor = ResolvedEntry {
        sid: Sid::from_raw(0),
        is_anchor: true,
        do_check: false,
        back_edge: false,
    };
    let mut state = DeltaState::start(entry);
    let bottom = state.snapshot(entry);

    let pushed = state.on_entry_resolved(callee, None, anchor);
    let first = state.snapshot(callee);
    state.on_exit(pushed);
    let popped = state.snapshot(entry);
    let pushed = state.on_entry_resolved(callee, None, anchor);
    let second = state.snapshot(callee);
    state.on_exit(pushed);

    assert_eq!(first.depth(), 2);
    assert!(FrameStack::ptr_eq(&first.frames, &second.frames));
    assert!(FrameStack::ptr_eq(&bottom.frames, &popped.frames));
    assert!(!FrameStack::ptr_eq(&first.frames, &bottom.frames));
}

#[test]
fn equal_stacks_of_one_encoder_share_one_allocation() {
    for program in programs() {
        let plan = plan_of(&program);
        let compiled = plan.compile();
        let log = run_log(&program, &mut CompiledDeltaEncoder::new(&compiled));
        let mut first_of: HashSet<&FrameStack> = HashSet::new();
        for capture in &log {
            let frames = &delta(capture).frames;
            match first_of.get(frames) {
                Some(seen) => assert!(FrameStack::ptr_eq(seen, frames), "{}", program.name()),
                None => {
                    first_of.insert(frames);
                }
            }
        }
        assert!(first_of.len() < log.len(), "{}", program.name());
    }
}

#[test]
fn clones_outlive_their_encoder_and_share_no_storage() {
    for program in programs() {
        let plan = plan_of(&program);
        let decoder = plan.decoder();
        let compiled = plan.compile();
        let (paths, clones) = {
            let mut encoder = CompiledDeltaEncoder::new(&compiled);
            let log = run_log(&program, &mut encoder);
            let contexts: Vec<&EncodedContext> = log.iter().map(delta).take(500).collect();
            let paths: Vec<_> = contexts.iter().map(|c| decoder.decode(c).ok()).collect();
            let clones: Vec<EncodedContext> = contexts.iter().map(|&c| c.clone()).collect();
            for (original, clone) in contexts.iter().zip(&clones) {
                assert_eq!(*original, clone);
                assert_eq!(fast_hash(*original), fast_hash(clone));
                assert!(!FrameStack::ptr_eq(&original.frames, &clone.frames));
                let span = |f: &FrameStack| f.as_ptr_range();
                let (a, b) = (span(&original.frames), span(&clone.frames));
                assert!(a.end <= b.start || b.end <= a.start, "overlapping storage");
            }
            (paths, clones)
        }; // the encoder, its intern table and every original drop here
        assert!(paths.iter().any(Option::is_some), "{}", program.name());
        for (path, clone) in paths.iter().zip(&clones) {
            assert_eq!(decoder.decode(clone).ok(), *path, "{}", program.name());
        }
    }
}

#[test]
fn hand_built_contexts_equal_encoder_captures() {
    for program in programs() {
        let plan = plan_of(&program);
        let compiled = plan.compile();
        let log = run_log(&program, &mut CompiledDeltaEncoder::new(&compiled));
        for capture in &log {
            let ctx = delta(capture);
            let built = hand_built(ctx);
            assert_eq!(*ctx, built);
            assert_eq!(fast_hash(ctx), fast_hash(&built));
            let built = Capture::Delta(built);
            assert_eq!(*capture, built);
            assert_eq!(fast_hash(capture), fast_hash(&built));
        }
    }
}
