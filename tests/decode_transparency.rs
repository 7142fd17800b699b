//! Decode transparency: the decoder's piece cache changes how fast a
//! context decodes, never the outcome. On seeded synthetic programs —
//! closed-world ones and open-world ones with libraries, callbacks and
//! dynamically loaded classes, whose unexpected call paths exercise the
//! search decoding of UCP pieces — these decoders must return identical
//! `Result`s, errors included, for every captured context and for
//! hand-corrupted copies of them:
//!
//! * a caching decoder, run over the captures twice so the second pass is
//!   served from its cache, and one whose cache fills after a few pieces,
//! * a decoder with the piece cache disabled, and
//! * a fresh decoder per context.

use deltapath::workloads::rng::SplitMix64;
use deltapath::workloads::synthetic::{generate, SyntheticConfig};
use deltapath::{
    Capture, CollectMode, Collector, DecodeError, DecodeOptions, Decoder, DeltaEncoder,
    EncodedContext, EncodingPlan, Frame, FrameTag, MethodId, PlanConfig, ScopeFilter, Vm, VmConfig,
};

/// Number of seeded program shapes.
const SHAPES: usize = 24;

/// Every DeltaPath capture of a run, entries and observations alike.
#[derive(Default)]
struct Contexts(Vec<EncodedContext>);

impl Collector for Contexts {
    fn record_entry(&mut self, method: MethodId, _true_depth: usize, capture: Capture) {
        self.record_observe(0, method, capture);
    }

    fn record_observe(&mut self, _event: u32, _method: MethodId, capture: Capture) {
        if let Capture::Delta(ctx) = capture {
            self.0.push(ctx);
        }
    }
}

/// Shape `i`: even shapes are closed-world and fully encoded, odd ones are
/// open-world under application-only scope with dynamic loading.
fn shape(rng: &mut SplitMix64, i: usize) -> (SyntheticConfig, ScopeFilter) {
    let seed = rng.next_u64();
    let base = SyntheticConfig {
        name: format!("transparency{i}"),
        seed,
        app_families: rng.gen_range(2usize..7),
        layers: rng.gen_range(2usize..7),
        methods_per_layer: rng.gen_range(2usize..9),
        calls_per_method: (1, rng.gen_range(1usize..4)),
        virtual_fraction: 0.4,
        recursion_prob: 0.1,
        call_guard_prob: 0.3,
        main_loop_iters: 2,
        ..SyntheticConfig::default()
    };
    if i.is_multiple_of(2) {
        let config = SyntheticConfig {
            lib_families: 0,
            lib_methods_per_layer: 0,
            cross_scope_prob: 0.0,
            dynamic_subclass_prob: 0.0,
            ..base
        };
        (config, ScopeFilter::All)
    } else {
        let config = SyntheticConfig {
            layers: 5,
            cross_scope_prob: 0.4,
            callback_prob: 0.25,
            dynamic_subclass_prob: 0.8,
            dynamic_receiver_prob: 0.5,
            override_prob: 0.8,
            ..base
        };
        (config, ScopeFilter::ApplicationOnly)
    }
}

/// A decoder over `plan` whose piece cache holds `capacity` pieces.
fn with_cache(plan: &EncodingPlan, capacity: usize) -> Decoder<'_> {
    Decoder::new(
        plan,
        DecodeOptions {
            piece_cache_capacity: capacity,
            ..DecodeOptions::default()
        },
    )
}

/// A method index past every method of every shape.
fn out_of_range() -> MethodId {
    MethodId::from_index(u32::MAX as usize - 1)
}

/// `ctx` with its frames replaced by `frames`.
fn with_frames(ctx: &EncodedContext, frames: Vec<Frame>) -> EncodedContext {
    EncodedContext {
        frames: frames.into(),
        ..ctx.clone()
    }
}

/// Hand-corrupted copies of `ctx`: each breaks one part of it.
fn corruptions(ctx: &EncodedContext, rng: &mut SplitMix64) -> Vec<EncodedContext> {
    let frames = ctx.frames.to_vec();
    let top = frames.len() - 1;
    let mut out = vec![
        EncodedContext {
            id: ctx.id ^ (1 << rng.gen_range(0u32..12)),
            ..ctx.clone()
        },
        EncodedContext {
            id: ctx.id.wrapping_add(1),
            ..ctx.clone()
        },
        EncodedContext {
            at: out_of_range(),
            ..ctx.clone()
        },
        with_frames(ctx, Vec::new()),
        with_frames(ctx, frames[1..].to_vec()),
    ];
    let mut edit = |f: &dyn Fn(&mut Frame)| {
        let mut frames = frames.clone();
        f(&mut frames[top]);
        out.push(with_frames(ctx, frames));
    };
    edit(&|f| f.node = out_of_range());
    edit(&|f| f.saved_id ^= 1);
    edit(&|f| f.site = None);
    edit(&|f| {
        f.tag = match f.tag {
            FrameTag::Anchor => FrameTag::Ucp,
            FrameTag::Recursion | FrameTag::Ucp => FrameTag::Anchor,
        }
    });
    out
}

#[test]
fn cached_uncached_and_fresh_decoders_agree() {
    let mut rng = SplitMix64::seed_from_u64(0x5eed_dec0);
    let (mut contexts, mut search_pieces) = (0usize, 0usize);
    for i in 0..SHAPES {
        let (config, scope) = shape(&mut rng, i);
        let program = generate(&config);
        let plan = EncodingPlan::analyze(&program, &PlanConfig::default().with_scope(scope))
            .unwrap_or_else(|e| panic!("shape {i}: plan analysis: {e}"));
        let mut vm = Vm::new(
            &program,
            VmConfig::default().with_collect(CollectMode::Entries),
        );
        let mut captured = Contexts::default();
        vm.run(&mut DeltaEncoder::new(&plan), &mut captured)
            .unwrap_or_else(|e| panic!("shape {i}: run: {e}"));

        let mut inputs = Vec::new();
        for (n, ctx) in captured.0.iter().enumerate() {
            // A piece rooted at a non-anchor UCP entry is search-decoded.
            let searched = ctx
                .frames
                .iter()
                .filter(|f| f.tag == FrameTag::Ucp)
                .filter(|f| plan.entry(f.node).is_some_and(|e| !e.is_anchor))
                .count();
            search_pieces += searched;
            inputs.push(ctx.clone());
            if searched > 0 || n.is_multiple_of(3) {
                inputs.extend(corruptions(ctx, &mut rng));
            }
        }
        contexts += captured.0.len();

        let cached = plan.decoder();
        let small = with_cache(&plan, 8);
        let uncached = with_cache(&plan, 0);
        let expected: Vec<_> = inputs.iter().map(|ctx| uncached.decode(ctx)).collect();
        for pass in 0..2 {
            for (ctx, want) in inputs.iter().zip(&expected) {
                assert_eq!(
                    &cached.decode(ctx),
                    want,
                    "shape {i} pass {pass}: cached decode of {ctx}"
                );
                assert_eq!(
                    &small.decode(ctx),
                    want,
                    "shape {i} pass {pass}: small-cache decode of {ctx}"
                );
            }
        }
        for (ctx, want) in inputs.iter().zip(&expected) {
            assert_eq!(
                &plan.decoder().decode(ctx),
                want,
                "shape {i}: fresh decode of {ctx}"
            );
        }
        assert!(
            expected.iter().any(Result::is_ok) && expected.iter().any(Result::is_err),
            "shape {i}: inputs must include decodable and corrupt contexts"
        );
        let (hits, misses) = cached.cache_stats();
        assert!(
            misses > 0 && hits >= misses,
            "shape {i}: {hits} hits, {misses} misses"
        );
        assert_eq!(
            uncached.cache_stats().0,
            0,
            "shape {i}: a disabled cache hit"
        );
    }
    assert!(contexts > 0, "no contexts captured");
    assert!(search_pieces > 0, "no shape search-decoded a UCP piece");
}

#[test]
fn out_of_range_methods_are_unknown_not_a_panic() {
    let program = generate(&SyntheticConfig {
        main_loop_iters: 1,
        ..SyntheticConfig::default()
    });
    let plan = EncodingPlan::analyze(&program, &PlanConfig::default()).expect("plan");
    let frame = Frame {
        tag: FrameTag::Anchor,
        node: program.entry(),
        site: None,
        saved_id: 0,
    };
    let at_out = EncodedContext {
        frames: vec![frame].into(),
        id: 0,
        at: out_of_range(),
    };
    let node_out = EncodedContext {
        frames: vec![Frame {
            node: out_of_range(),
            ..frame
        }]
        .into(),
        id: 0,
        at: program.entry(),
    };
    for decoder in [&plan.decoder(), &with_cache(&plan, 0)] {
        for ctx in [&at_out, &node_out] {
            assert_eq!(
                decoder.decode(ctx),
                Err(DecodeError::UnknownMethod(out_of_range()))
            );
        }
    }
}
