//! Precise decoding of encoded calling contexts.
//!
//! Decoding recovers the context bottom-up, piece by piece (paper Sections 2
//! and 3.2): the current ID decodes the piece since the top stack frame;
//! each frame then tells where the piece below ends and with which saved ID
//! to continue.
//!
//! * Pieces rooted at an **anchor** decode exactly: at every node, the
//!   unique incoming edge whose sub-range `[av, av + ICC[pred][anchor])`
//!   contains the remaining ID is taken (restricted to edges in the
//!   anchor's territory). The algorithm's invariant makes the choice
//!   unambiguous.
//! * Pieces rooted at a **hazardous-UCP entry** start at an arbitrary
//!   method, for which no per-anchor tables exist. These are decoded by a
//!   memoized backward path search for the unique path whose addition
//!   values sum to the ID; an ambiguous sum is reported as
//!   [`DecodeError::Ambiguous`] rather than guessed (UCP pieces are rare
//!   and short — Table 2 measures 0–1.8 per context — so the search is
//!   cheap in practice). When the UCP entry happens to be an anchor (e.g. a
//!   scope-filter root), the exact decoder is used instead.
//!
//! Both walks run from flat tables that [`Decoder::new`] builds once from
//! the plan: a dense method-to-node vector and CSR in-edge lists with the
//! excluded back edges already dropped and each edge's addition value
//! inlined (DESIGN.md, "Decoding").
//!
//! The decoder never fabricates a context: every structural inconsistency
//! in its input surfaces as a [`DecodeError`].

use std::cell::RefCell;
use std::collections::HashMap;
use std::ops::Range;

use deltapath_callgraph::{reachable_from_masked, EdgeIx, NodeIx};
use deltapath_ir::MethodId;
use deltapath_telemetry::{names, Telemetry};

use crate::context::{EncodedContext, FrameTag};
use crate::error::DecodeError;
use crate::fasthash::FastBuildHasher;
use crate::plan::EncodingPlan;

/// Options controlling the decoder.
#[derive(Clone, Copy, Debug)]
pub struct DecodeOptions {
    /// Maximum number of memo entries for search decoding of UCP pieces;
    /// exceeding it yields [`DecodeError::DepthExceeded`].
    pub search_state_limit: usize,
    /// Maximum number of decoded pieces memoized across calls, keyed by
    /// `(piece root, piece end, id)`. Repeated hot contexts — the common
    /// case when draining a sharded collector — then decode in O(frames)
    /// instead of re-running the per-piece walk. `0` disables the cache.
    /// Once full the cache stops admitting new pieces rather than
    /// evicting (piece popularity is heavily skewed, so the first
    /// `piece_cache_capacity` distinct pieces are the ones worth
    /// keeping).
    pub piece_cache_capacity: usize,
}

impl Default for DecodeOptions {
    /// A generous search budget (1 Mi states) and a 64 Ki-piece cache.
    fn default() -> Self {
        Self {
            search_state_limit: 1 << 20,
            piece_cache_capacity: 1 << 16,
        }
    }
}

/// One incoming edge as the decoder's walks read it: the edge, its caller
/// and the addition value of its call site.
#[derive(Clone, Copy, Debug)]
struct InEdge {
    av: u128,
    edge: EdgeIx,
    caller: NodeIx,
}

/// The decoder's mutable state: the piece cache, the reach cache, and the
/// scratch of the decode in progress.
#[derive(Debug, Default)]
struct DecodeState {
    /// Cached pieces keyed by `(piece root, piece end, piece id)` — the
    /// complete input of one piece decode — to their range in `arena`.
    pieces: HashMap<(NodeIx, NodeIx, u128), Range<usize>, FastBuildHasher>,
    /// Decoded pieces back to back, each outermost method first. The
    /// first `cached_len` entries hold the cached pieces; the rest are
    /// pieces of the decode in progress that the cache did not admit.
    arena: Vec<MethodId>,
    cached_len: usize,
    /// The arena range each frame contributes to the decode in progress,
    /// innermost first.
    spans: Vec<Range<usize>>,
    /// Per-root reachability sets for UCP-piece searches.
    reach: HashMap<NodeIx, Vec<bool>, FastBuildHasher>,
    hits: u64,
    misses: u64,
}

/// A decoder over one [`EncodingPlan`].
///
/// Obtain via [`EncodingPlan::decoder`]. Construction builds the decoder's
/// tables in O(nodes + edges); the decoder then caches decoded pieces and
/// per-root reachability sets, so reuse one decoder when decoding many
/// contexts.
#[derive(Debug)]
pub struct Decoder<'a> {
    plan: &'a EncodingPlan,
    options: DecodeOptions,
    /// Node of each method, indexed by [`MethodId::index`].
    node_of: Vec<Option<NodeIx>>,
    /// CSR in-edge lists without excluded edges: node `n`'s edges are
    /// `in_edges[in_offsets[n]..in_offsets[n + 1]]`, in edge order.
    in_offsets: Vec<u32>,
    in_edges: Vec<InEdge>,
    /// Excluded edges as a per-edge mask, for reachability searches.
    excluded: Vec<bool>,
    state: RefCell<DecodeState>,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder with the given options.
    pub fn new(plan: &'a EncodingPlan, options: DecodeOptions) -> Self {
        let graph = plan.graph();
        let enc = plan.encoding();
        let methods = graph.nodes().map(|n| graph.method_of(n).index() + 1);
        let mut node_of = vec![None; methods.max().unwrap_or(0)];
        for n in graph.nodes() {
            node_of[graph.method_of(n).index()] = Some(n);
        }
        // An excluded edge outside the graph (a corrupt imported plan)
        // excludes nothing.
        let mut excluded = vec![false; graph.edge_count()];
        for e in &enc.excluded {
            if let Some(x) = excluded.get_mut(e.index()) {
                *x = true;
            }
        }
        let mut in_offsets = Vec::with_capacity(graph.node_count() + 1);
        let mut in_edges = Vec::with_capacity(graph.edge_count());
        in_offsets.push(0);
        for n in graph.nodes() {
            for &e in graph.in_edges(n) {
                if excluded[e.index()] {
                    continue;
                }
                let edge = graph.edge(e);
                // A plan without an addition value for an edge's site has
                // nothing to match against it; the walks then report
                // `NoMatchingEdge` where the edge would have been taken.
                if let Some(&av) = enc.site_av.get(&edge.site) {
                    in_edges.push(InEdge {
                        av,
                        edge: e,
                        caller: edge.caller,
                    });
                }
            }
            in_offsets.push(in_edges.len() as u32);
        }
        Self {
            plan,
            options,
            node_of,
            in_offsets,
            in_edges,
            excluded,
            state: RefCell::default(),
        }
    }

    /// `(hits, misses)` of the piece cache since construction.
    pub fn cache_stats(&self) -> (u64, u64) {
        let state = self.state.borrow();
        (state.hits, state.misses)
    }

    /// Emits the piece-cache counters
    /// ([`names::DECODER_PIECE_CACHE_HITS`] /
    /// [`names::DECODER_PIECE_CACHE_MISSES`]) into `sink`.
    pub fn report_telemetry(&self, sink: &dyn Telemetry) {
        if !sink.enabled() {
            return;
        }
        let (hits, misses) = self.cache_stats();
        sink.counter_add(names::DECODER_PIECE_CACHE_HITS, hits);
        sink.counter_add(names::DECODER_PIECE_CACHE_MISSES, misses);
    }

    /// Decodes `ctx` into the full method sequence, outermost first.
    ///
    /// The result contains exactly the *encoded* methods: dynamically loaded
    /// or scope-excluded detours appear as adjacent methods with the detour
    /// elided, exactly as the paper's Figure 7 recovers `A B G` from the
    /// concrete path `A B D F G`.
    ///
    /// # Errors
    ///
    /// See [`DecodeError`]; corrupted or hand-built inconsistent contexts
    /// are rejected, never mis-decoded.
    pub fn decode(&self, ctx: &EncodedContext) -> Result<Vec<MethodId>, DecodeError> {
        if ctx.frames.is_empty() {
            return Err(DecodeError::EmptyStack);
        }
        let mut state = self.state.borrow_mut();
        let state = &mut *state;
        state.spans.clear();
        let result = self.gather(ctx, state).map(|()| {
            let len = state.spans.iter().map(ExactSizeIterator::len).sum();
            let mut out = Vec::with_capacity(len);
            for span in state.spans.iter().rev() {
                out.extend_from_slice(&state.arena[span.clone()]);
            }
            out
        });
        state.arena.truncate(state.cached_len);
        result
    }

    /// Decodes every piece of `ctx`, innermost first, and records in
    /// `state.spans` the part of each piece that belongs to the result.
    fn gather(&self, ctx: &EncodedContext, state: &mut DecodeState) -> Result<(), DecodeError> {
        let mut cur_end = self.node_of(ctx.at)?;
        let mut cur_id = u128::from(ctx.id);
        for (i, frame) in ctx.frames.iter().enumerate().rev() {
            let start = self.node_of(frame.node)?;
            let piece = self.decode_piece(state, start, cur_end, cur_id)?;
            let is_bottom = i == 0;
            match frame.tag {
                FrameTag::Anchor => {
                    if is_bottom {
                        state.spans.push(piece);
                    } else {
                        // The anchor node is also the end of the piece below.
                        state.spans.push(piece.start + 1..piece.end);
                        cur_end = start;
                        cur_id = u128::from(frame.saved_id);
                    }
                }
                FrameTag::Recursion | FrameTag::Ucp => {
                    if is_bottom {
                        return Err(DecodeError::BadBottomFrame);
                    }
                    let site = frame
                        .site
                        .ok_or(DecodeError::UnattributedUcp { node: frame.node })?;
                    let instr = self.plan.site(site).ok_or(DecodeError::UnknownSite(site))?;
                    state.spans.push(piece);
                    cur_end = self.node_of(instr.caller)?;
                    cur_id = u128::from(frame.saved_id)
                        .checked_sub(u128::from(instr.av))
                        .ok_or(DecodeError::CorruptFrame { site })?;
                }
            }
        }
        Ok(())
    }

    fn node_of(&self, method: MethodId) -> Result<NodeIx, DecodeError> {
        self.node_of
            .get(method.index())
            .copied()
            .flatten()
            .ok_or(DecodeError::UnknownMethod(method))
    }

    /// The non-excluded incoming edges of `node`, in edge order.
    fn in_edges(&self, node: NodeIx) -> &[InEdge] {
        let i = node.index();
        &self.in_edges[self.in_offsets[i] as usize..self.in_offsets[i + 1] as usize]
    }

    /// Decodes one piece — the path `start..=end` whose addition values
    /// sum to `id` — into `state.arena` and returns its range there.
    /// Successful decodes are memoized (a piece's path depends only on the
    /// immutable plan and the key) so hot contexts replay in O(frames)
    /// amortized.
    fn decode_piece(
        &self,
        state: &mut DecodeState,
        start: NodeIx,
        end: NodeIx,
        id: u128,
    ) -> Result<Range<usize>, DecodeError> {
        let key = (start, end, id);
        let caching = self.options.piece_cache_capacity > 0;
        if caching {
            if let Some(piece) = state.pieces.get(&key) {
                state.hits += 1;
                return Ok(piece.clone());
            }
        }
        state.misses += 1;
        let from = state.arena.len();
        if self.plan.encoding().is_anchor[start.index()] {
            self.decode_anchor_piece(&mut state.arena, start, end, id)?;
        } else {
            self.decode_search_piece(state, start, end, id)?;
        }
        let piece = from..state.arena.len();
        // Admission stops for good once the cache is full, so every
        // admitted piece lies below every piece that was not.
        if caching && state.pieces.len() < self.options.piece_cache_capacity {
            state.pieces.insert(key, piece.clone());
            state.cached_len = piece.end;
        }
        Ok(piece)
    }

    /// Exact greedy decoding within an anchor's territory; appends the
    /// piece to `out`.
    fn decode_anchor_piece(
        &self,
        out: &mut Vec<MethodId>,
        anchor: NodeIx,
        end: NodeIx,
        id: u128,
    ) -> Result<(), DecodeError> {
        let graph = self.plan.graph();
        let enc = self.plan.encoding();
        let from = out.len();
        out.push(graph.method_of(end));
        let mut cur = end;
        let mut v = id;
        while cur != anchor {
            let mut chosen: Option<&InEdge> = None;
            for e in self.in_edges(cur) {
                if e.av > v || !enc.eanchors[e.edge.index()].contains(&anchor) {
                    continue;
                }
                let Some(icc) = enc.icc_of(e.caller, anchor) else {
                    continue;
                };
                if v < e.av.saturating_add(icc) {
                    if chosen.is_some() {
                        // The sub-range invariant guarantees disjointness;
                        // two matches mean the plan is corrupt.
                        return Err(DecodeError::Ambiguous {
                            root: graph.method_of(anchor),
                            at: graph.method_of(end),
                        });
                    }
                    chosen = Some(e);
                }
            }
            let Some(e) = chosen else {
                return Err(DecodeError::NoMatchingEdge {
                    at: graph.method_of(cur),
                    id: v,
                });
            };
            v -= e.av;
            cur = e.caller;
            out.push(graph.method_of(cur));
        }
        if v != 0 {
            return Err(DecodeError::NonZeroAtRoot {
                root: graph.method_of(anchor),
                id: v,
            });
        }
        out[from..].reverse();
        Ok(())
    }

    /// Search decoding for pieces rooted at a non-anchor (hazardous-UCP
    /// entry): counts, with memoization, the paths from `start` to `end`
    /// whose addition values sum to `id`, and appends the unique one to
    /// `state.arena`.
    fn decode_search_piece(
        &self,
        state: &mut DecodeState,
        start: NodeIx,
        end: NodeIx,
        id: u128,
    ) -> Result<(), DecodeError> {
        let graph = self.plan.graph();
        let reach = state
            .reach
            .entry(start)
            .or_insert_with(|| reachable_from_masked(graph, &[start], &self.excluded));
        let mut search = PathSearch {
            decoder: self,
            reach,
            start,
            memo: HashMap::default(),
            limit: self.options.search_state_limit,
        };
        match search.count(end, id)? {
            0 => Err(DecodeError::NoMatchingEdge {
                at: graph.method_of(end),
                id,
            }),
            1 => {
                // Reconstruct by following the unique contributing edge.
                let out = &mut state.arena;
                let from = out.len();
                out.push(graph.method_of(end));
                let mut cur = end;
                let mut v = id;
                while cur != start {
                    let mut next = None;
                    for e in self.in_edges(cur) {
                        if e.av > v || !search.reach[e.caller.index()] {
                            continue;
                        }
                        if search.count(e.caller, v - e.av)? >= 1 {
                            next = Some(e);
                            break;
                        }
                    }
                    let e = next.expect("count==1 guarantees a contributing edge at every step");
                    v -= e.av;
                    cur = e.caller;
                    out.push(graph.method_of(cur));
                }
                out[from..].reverse();
                Ok(())
            }
            _ => Err(DecodeError::Ambiguous {
                root: graph.method_of(start),
                at: graph.method_of(end),
            }),
        }
    }
}

/// One memoized backward path search of a UCP piece.
struct PathSearch<'d, 'a> {
    decoder: &'d Decoder<'a>,
    /// Nodes reachable from `start` over non-excluded edges.
    reach: &'d [bool],
    start: NodeIx,
    /// `(node, v)` → number of `start`-to-`node` paths summing to `v`.
    memo: HashMap<(NodeIx, u128), u8, FastBuildHasher>,
    limit: usize,
}

impl PathSearch<'_, '_> {
    /// The number of `start`-to-`node` paths whose addition values sum to
    /// `v`, saturated at 2.
    fn count(&mut self, node: NodeIx, v: u128) -> Result<u8, DecodeError> {
        if node == self.start {
            return Ok(u8::from(v == 0));
        }
        if let Some(&c) = self.memo.get(&(node, v)) {
            return Ok(c);
        }
        if self.memo.len() >= self.limit {
            return Err(DecodeError::DepthExceeded { limit: self.limit });
        }
        let mut total: u8 = 0;
        for e in self.decoder.in_edges(node) {
            if !self.reach[e.caller.index()] || e.av > v {
                continue;
            }
            total = total.saturating_add(self.count(e.caller, v - e.av)?).min(2);
            if total >= 2 {
                break;
            }
        }
        self.memo.insert((node, v), total);
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Frame;
    use crate::plan::PlanConfig;
    use crate::state::DeltaState;
    use deltapath_ir::{MethodKind, Program, ProgramBuilder, SiteId};

    /// A three-level program: main -> {mid1, mid2} -> leaf (4 contexts at
    /// leaf).
    fn diamondish() -> (Program, Vec<SiteId>) {
        let mut b = ProgramBuilder::new("d");
        let c = b.add_class("C", None);
        b.method(c, "leaf", MethodKind::Static).finish();
        let mut sites = Vec::new();
        b.method(c, "mid1", MethodKind::Static)
            .body(|f| {
                sites.push(f.call(c, "leaf"));
                sites.push(f.call(c, "leaf"));
            })
            .finish();
        b.method(c, "mid2", MethodKind::Static)
            .body(|f| {
                sites.push(f.call(c, "leaf"));
            })
            .finish();
        let main = b
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                sites.push(f.call(c, "mid1"));
                sites.push(f.call(c, "mid2"));
            })
            .finish();
        b.entry(main);
        (b.finish().unwrap(), sites)
    }

    fn method(p: &Program, name: &str) -> MethodId {
        p.declared_method(
            p.class_by_name("C").unwrap(),
            p.symbols().lookup(name).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn decodes_every_leaf_context_distinctly() {
        let (p, sites) = diamondish();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let decoder = plan.decoder();
        let (leaf, mid1, mid2, main) = (
            method(&p, "leaf"),
            method(&p, "mid1"),
            method(&p, "mid2"),
            p.entry(),
        );
        // (outer site, inner site, expected context)
        let cases = vec![
            (sites[3], sites[0], vec![main, mid1, leaf]),
            (sites[3], sites[1], vec![main, mid1, leaf]),
            (sites[4], sites[2], vec![main, mid2, leaf]),
        ];
        let mut ids = Vec::new();
        for (outer, inner, expected) in cases {
            let mid = if outer == sites[3] { mid1 } else { mid2 };
            let mut st = DeltaState::start(main);
            let t1 = st.on_call(&plan, outer);
            let o1 = st.on_entry(&plan, mid, Some(outer));
            let t2 = st.on_call(&plan, inner);
            let o2 = st.on_entry(&plan, leaf, Some(inner));
            let ctx = st.snapshot(leaf);
            ids.push(ctx.id);
            assert_eq!(decoder.decode(&ctx).unwrap(), expected);
            st.on_exit(o2);
            st.on_return(t2);
            st.on_exit(o1);
            st.on_return(t1);
        }
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 3, "all three contexts must encode distinctly");
    }

    #[test]
    fn corrupt_id_is_rejected_not_misdecoded() {
        let (p, _) = diamondish();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let decoder = plan.decoder();
        let leaf = method(&p, "leaf");
        let ctx = EncodedContext {
            frames: vec![Frame {
                tag: FrameTag::Anchor,
                node: p.entry(),
                site: None,
                saved_id: 0,
            }]
            .into(),
            id: 10_000, // way outside every sub-range
            at: leaf,
        };
        assert!(matches!(
            decoder.decode(&ctx),
            Err(DecodeError::NoMatchingEdge { .. })
        ));
    }

    #[test]
    fn empty_stack_is_rejected() {
        let (p, _) = diamondish();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let ctx = EncodedContext {
            frames: vec![].into(),
            id: 0,
            at: p.entry(),
        };
        assert_eq!(
            plan.decoder().decode(&ctx).unwrap_err(),
            DecodeError::EmptyStack
        );
    }

    #[test]
    fn unknown_method_is_rejected() {
        let (p, _) = diamondish();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let ctx = EncodedContext {
            frames: vec![Frame {
                tag: FrameTag::Anchor,
                node: p.entry(),
                site: None,
                saved_id: 0,
            }]
            .into(),
            id: 0,
            at: MethodId::from_index(999),
        };
        assert!(matches!(
            plan.decoder().decode(&ctx),
            Err(DecodeError::UnknownMethod(_))
        ));
    }

    #[test]
    fn bottom_frame_must_be_anchor() {
        let (p, sites) = diamondish();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let ctx = EncodedContext {
            frames: vec![Frame {
                tag: FrameTag::Ucp,
                node: p.entry(),
                site: Some(sites[0]),
                saved_id: 0,
            }]
            .into(),
            id: 0,
            at: p.entry(),
        };
        assert_eq!(
            plan.decoder().decode(&ctx).unwrap_err(),
            DecodeError::BadBottomFrame
        );
    }
}

#[cfg(test)]
mod search_tests {
    use super::*;
    use crate::context::Frame;
    use crate::plan::{EncodingPlan, PlanConfig};
    use deltapath_ir::{MethodKind, Program, ProgramBuilder};

    /// A graph where a piece rooted at non-anchor `x` is genuinely
    /// ambiguous: `x` reaches `g` through two recursion-header anchors `a`
    /// and `b`, whose territories each assign addition value 0 to their
    /// edge into `g` — so two distinct paths sum to the same ID. (This is
    /// exactly why the plan anchors statically known UCP entry points; a
    /// hand-built frame at `x` exercises the honest-failure path.)
    fn ambiguous_program() -> Program {
        let mut bld = ProgramBuilder::new("amb");
        let c = bld.add_class("C", None);
        bld.method(c, "g", MethodKind::Static).finish();
        bld.method(c, "a", MethodKind::Static)
            .body(|f| {
                f.if_mod(
                    2,
                    1,
                    |f| {
                        f.call_arg(
                            deltapath_ir::ClassId::from_index(0),
                            "a",
                            deltapath_ir::ArgExpr::ParamPlus(1),
                        );
                    },
                    |_| {},
                );
                f.call(c, "g");
            })
            .finish();
        bld.method(c, "b", MethodKind::Static)
            .body(|f| {
                f.if_mod(
                    2,
                    1,
                    |f| {
                        f.call_arg(
                            deltapath_ir::ClassId::from_index(0),
                            "b",
                            deltapath_ir::ArgExpr::ParamPlus(1),
                        );
                    },
                    |_| {},
                );
                f.call(c, "g");
            })
            .finish();
        bld.method(c, "x", MethodKind::Static)
            .body(|f| {
                f.call(c, "a");
                f.call(c, "b");
            })
            .finish();
        let main = bld
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                f.call(c, "x");
            })
            .finish();
        bld.entry(main);
        bld.finish().unwrap()
    }

    fn method(p: &Program, name: &str) -> MethodId {
        p.declared_method(
            p.class_by_name("C").unwrap(),
            p.symbols().lookup(name).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn ambiguous_search_piece_is_reported_not_guessed() {
        let p = ambiguous_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        // a and b are recursion headers, hence anchors; x and g are not.
        assert!(plan.entry(method(&p, "a")).unwrap().is_anchor);
        assert!(plan.entry(method(&p, "b")).unwrap().is_anchor);
        assert!(!plan.entry(method(&p, "x")).unwrap().is_anchor);

        // Hand-built context: a UCP piece rooted at x, captured at g with
        // id 0 — reachable both via a and via b with identical sums.
        let main_x_site = p
            .sites()
            .iter()
            .find(|s| s.caller() == p.entry())
            .unwrap()
            .id();
        let ctx = EncodedContext {
            frames: vec![
                Frame {
                    tag: FrameTag::Anchor,
                    node: p.entry(),
                    site: None,
                    saved_id: 0,
                },
                Frame {
                    tag: FrameTag::Ucp,
                    node: method(&p, "x"),
                    site: Some(main_x_site),
                    saved_id: 0,
                },
            ]
            .into(),
            id: 0,
            at: method(&p, "g"),
        };
        let err = plan.decoder().decode(&ctx).unwrap_err();
        assert!(
            matches!(err, DecodeError::Ambiguous { .. }),
            "expected honest ambiguity report, got {err:?}"
        );
    }

    #[test]
    fn unambiguous_search_piece_decodes() {
        let p = ambiguous_program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        // A piece rooted at x captured at a (one path only: x -> a).
        let main_x_site = p
            .sites()
            .iter()
            .find(|s| s.caller() == p.entry())
            .unwrap()
            .id();
        let av_xa = plan
            .site(
                p.sites()
                    .iter()
                    .find(|s| {
                        s.caller() == method(&p, "x") && p.symbols().resolve(s.method()) == "a"
                    })
                    .unwrap()
                    .id(),
            )
            .unwrap()
            .av;
        let ctx = EncodedContext {
            frames: vec![
                Frame {
                    tag: FrameTag::Anchor,
                    node: p.entry(),
                    site: None,
                    saved_id: 0,
                },
                Frame {
                    tag: FrameTag::Ucp,
                    node: method(&p, "x"),
                    site: Some(main_x_site),
                    saved_id: 0,
                },
            ]
            .into(),
            id: av_xa,
            at: method(&p, "a"),
        };
        let decoded = plan.decoder().decode(&ctx).unwrap();
        assert_eq!(decoded, vec![p.entry(), method(&p, "x"), method(&p, "a")]);
    }
}
