//! Built-in encoders: native baseline, DeltaPath (over either plan form),
//! and stack walking.
//!
//! (PCC, Breadcrumbs-lite and the calling-context tree live in
//! `deltapath-baselines`.)

use std::sync::Arc;
use std::time::Instant;

use deltapath_core::{CallToken, CompiledPlan, DeltaState, EncodingPlan, EntryOutcome, HookTables};
use deltapath_ir::{MethodId, SiteId};
use deltapath_telemetry::{names, Counter, Log2Histogram, Recorder, Telemetry};

use crate::encoder::{report_op_counts, Capture, ContextEncoder, OpCounts};

/// The native baseline: no instrumentation at all.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullEncoder;

impl ContextEncoder for NullEncoder {
    type CallToken = ();
    type EntryToken = ();

    fn thread_start(&mut self, _entry: MethodId) {}
    fn on_call(&mut self, _site: SiteId) {}
    fn on_return(&mut self, _site: SiteId, _token: ()) {}
    fn on_entry(&mut self, _method: MethodId, _via_site: Option<SiteId>) {}
    fn on_exit(&mut self, _method: MethodId, _token: ()) {}

    fn observe(&mut self, _at: MethodId) -> Capture {
        Capture::None
    }

    fn counts(&self) -> OpCounts {
        OpCounts::default()
    }

    fn name(&self) -> &'static str {
        "native"
    }
}

/// 1-in-N latency sampling for a [`DeltaEncoder`]'s hooks.
///
/// The hot path must stay one array load per hook, so per-hook clock reads
/// are out of the question. The sampler keeps a countdown; only every
/// `period`-th hook reads the clock (twice) and records the elapsed time
/// into the pre-resolved `profile.hook_ns` histogram — pre-resolved,
/// because a name lookup or `dyn` dispatch per sample would dominate what
/// is being measured. All other hooks pay one decrement and one branch.
///
/// The measured budget lives in `results/BENCH_telemetry_overhead.json`:
/// sampled recording must stay within 5% of the `NullTelemetry` hook
/// throughput (enforced by `telemetry_overhead --smoke` in CI).
#[derive(Debug)]
pub struct HookSampler {
    period: u32,
    countdown: u32,
    pending: Option<Instant>,
    hist: Arc<Log2Histogram>,
    samples: Arc<Counter>,
}

impl HookSampler {
    /// A sampler recording every `period`-th hook (clamped to ≥ 1) into
    /// `recorder`'s `profile.hook_ns` histogram and `profile.hook_samples`
    /// counter; the configured period is stamped into the
    /// `profile.hook_period` gauge.
    pub fn new(recorder: &Recorder, period: u32) -> Self {
        let period = period.max(1);
        recorder
            .gauge(names::PROFILE_HOOK_PERIOD)
            .observe(u64::from(period));
        Self {
            period,
            countdown: period,
            pending: None,
            hist: recorder.histogram(names::PROFILE_HOOK_NS),
            samples: recorder.counter(names::PROFILE_HOOK_SAMPLES),
        }
    }

    /// The configured sampling period N.
    pub fn period(&self) -> u32 {
        self.period
    }

    /// Samples taken so far.
    pub fn samples(&self) -> u64 {
        self.samples.get()
    }

    /// Hook prologue: one decrement and one (almost always untaken) branch.
    #[inline(always)]
    fn begin(&mut self) {
        self.countdown -= 1;
        if self.countdown == 0 {
            self.arm();
        }
    }

    /// Hook epilogue: one load and one (almost always untaken) branch.
    #[inline(always)]
    fn end(&mut self) {
        if self.pending.is_some() {
            self.flush();
        }
    }

    #[cold]
    fn arm(&mut self) {
        self.countdown = self.period;
        self.pending = Some(Instant::now());
    }

    #[cold]
    fn flush(&mut self) {
        if let Some(started) = self.pending.take() {
            let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hist.record(ns);
            self.samples.add(1);
        }
    }
}

/// The DeltaPath encoder: drives a [`DeltaState`] through the
/// instructions of a [`HookTables`] form and meters every abstract
/// operation the injected code would execute.
///
/// Over an [`EncodingPlan`] (the default) every hook probes the plan's
/// hash maps: this is the reference oracle. Over a [`CompiledPlan`]
/// ([`CompiledDeltaEncoder`]) every hook is one bounds-checked array load
/// and no hashing: what a deployment would run. The two are the same code
/// and produce the same captures, op counts and UCP detections (pinned by
/// the `compiled_plan` differential suite). The return hook consults no
/// table at all: the [`CallToken`] produced at the call carries the
/// resolved instruction across.
#[derive(Debug)]
pub struct DeltaEncoder<'p, T: HookTables = EncodingPlan> {
    tables: &'p T,
    state: DeltaState,
    counts: OpCounts,
    stack_hwm: usize,
    ucp_detections: u64,
    sampler: Option<HookSampler>,
}

/// DeltaPath over a [`CompiledPlan`]'s dense dispatch tables.
pub type CompiledDeltaEncoder<'p> = DeltaEncoder<'p, CompiledPlan>;

impl<'p, T: HookTables> DeltaEncoder<'p, T> {
    /// Creates an encoder over `tables`. The state is initialized lazily by
    /// [`thread_start`](ContextEncoder::thread_start).
    pub fn new(tables: &'p T) -> Self {
        Self {
            tables,
            state: DeltaState::start(tables.entry_method()),
            counts: OpCounts::default(),
            stack_hwm: 0,
            ucp_detections: 0,
            sampler: None,
        }
    }

    /// Attaches a [`HookSampler`]: every `period`-th hook is timed into
    /// `profile.hook_ns`. Without one (the default) the hooks pay no
    /// sampling cost at all beyond one branch on a `None`.
    pub fn with_hook_sampler(mut self, sampler: HookSampler) -> Self {
        self.sampler = Some(sampler);
        self
    }

    /// The attached sampler, if any.
    pub fn hook_sampler(&self) -> Option<&HookSampler> {
        self.sampler.as_ref()
    }

    /// The current encoding state (e.g. to snapshot outside observation
    /// points).
    pub fn state(&self) -> &DeltaState {
        &self.state
    }

    /// The deepest the encoding stack has grown (a high-water mark over the
    /// encoder's whole lifetime — like the op counts, it is not reset by
    /// [`thread_start`](ContextEncoder::thread_start)).
    pub fn stack_high_water(&self) -> usize {
        self.stack_hwm
    }

    /// Number of hazardous unexpected call paths detected (failed SID
    /// checks at method entries, each of which pushed a UCP frame).
    pub fn ucp_detections(&self) -> u64 {
        self.ucp_detections
    }

    #[inline(always)]
    fn sample_start(&mut self) {
        if let Some(s) = &mut self.sampler {
            s.begin();
        }
    }

    #[inline(always)]
    fn sample_end(&mut self) {
        if let Some(s) = &mut self.sampler {
            s.end();
        }
    }

    #[inline]
    fn entry_hook(&mut self, method: MethodId, via_site: Option<SiteId>) -> EntryOutcome {
        let Some((via, r)) = self.tables.resolve_entry(method, via_site) else {
            return EntryOutcome::Plain;
        };
        let outcome = self.state.on_entry_resolved(method, via, r);
        self.counts.delta_entry(&r, outcome);
        if outcome.pushed() {
            self.stack_hwm = self.stack_hwm.max(self.state.depth());
            self.ucp_detections += u64::from(outcome == EntryOutcome::PushedUcp);
        }
        outcome
    }
}

impl<T: HookTables> ContextEncoder for DeltaEncoder<'_, T> {
    type CallToken = Option<CallToken>;
    type EntryToken = EntryOutcome;

    fn thread_start(&mut self, entry: MethodId) {
        self.state.restart(entry);
    }

    #[inline]
    fn on_call(&mut self, site: SiteId) -> Self::CallToken {
        self.sample_start();
        let token = self.tables.resolve_site(site).map(|r| {
            self.counts.delta_call(&r);
            self.state.on_call_resolved(site, r)
        });
        self.sample_end();
        token
    }

    #[inline]
    fn on_return(&mut self, _site: SiteId, token: Self::CallToken) {
        self.sample_start();
        if let Some(token) = token {
            self.counts.delta_return(&token);
            self.state.on_return(token);
        }
        self.sample_end();
    }

    #[inline]
    fn on_entry(&mut self, method: MethodId, via_site: Option<SiteId>) -> EntryOutcome {
        self.sample_start();
        let outcome = self.entry_hook(method, via_site);
        self.sample_end();
        outcome
    }

    #[inline]
    fn on_exit(&mut self, _method: MethodId, token: EntryOutcome) {
        self.sample_start();
        self.counts.delta_exit(token);
        self.state.on_exit(token);
        self.sample_end();
    }

    fn observe(&mut self, at: MethodId) -> Capture {
        Capture::Delta(self.state.snapshot(at))
    }

    fn counts(&self) -> OpCounts {
        self.counts
    }

    fn name(&self) -> &'static str {
        self.tables.encoder_name()
    }

    fn report_telemetry(&self, sink: &dyn Telemetry) {
        report_delta_telemetry(
            sink,
            self.name(),
            &self.counts,
            self.stack_hwm as u64,
            self.ucp_detections,
            self.tables.table_bytes(),
        );
    }
}

/// Reports a DeltaPath encoder's op counts and its gauge block under
/// `encoder.<name>.*`: the stack high-water mark, the UCP detections, the
/// push/pop imbalance and, for a dense form, the table footprint.
pub(crate) fn report_delta_telemetry(
    sink: &dyn Telemetry,
    name: &str,
    counts: &OpCounts,
    stack_hwm: u64,
    ucp_detections: u64,
    table_bytes: Option<usize>,
) {
    report_op_counts(sink, name, counts);
    sink.gauge_max(&format!("encoder.{name}.stack_hwm"), stack_hwm);
    sink.counter_add(&format!("encoder.{name}.ucp_detections"), ucp_detections);
    // A nonzero imbalance means the run ended mid-call-tree (error or
    // abort): pushes without their matching pops.
    sink.counter_add(
        &format!("encoder.{name}.push_pop_imbalance"),
        counts.pushes.saturating_sub(counts.pops),
    );
    if let Some(bytes) = table_bytes {
        sink.gauge_max(&format!("encoder.{name}.table_bytes"), bytes as u64);
    }
}

/// Stack walking: maintains a shadow stack of the methods in a chosen scope
/// and reproduces it on demand — the expensive, precise baseline and the
/// ground truth for precision experiments.
///
/// Captures share one allocation per stack shape: `observe` materializes
/// the shadow stack into an `Arc<[MethodId]>` only when a push or pop has
/// invalidated the previous capture, so repeated observations at the same
/// depth are allocation-free (Entries-mode collection used to clone the
/// whole stack per capture — quadratic in depth).
#[derive(Clone, Debug)]
pub struct StackWalkEncoder {
    /// Membership test: a method is kept on the shadow stack iff this
    /// returns true (e.g. application-scope methods only).
    keep: fn(MethodId) -> bool,
    stack: Vec<MethodId>,
    /// The last materialized capture; `None` while the stack is dirty.
    cached: Option<Arc<[MethodId]>>,
    /// How many times `observe` materialized a fresh allocation.
    rebuilds: u64,
    counts: OpCounts,
}

impl StackWalkEncoder {
    /// Walks every method.
    pub fn full() -> Self {
        Self::filtered(|_| true)
    }

    /// Walks only methods accepted by `keep`.
    pub fn filtered(keep: fn(MethodId) -> bool) -> Self {
        Self {
            keep,
            stack: Vec::new(),
            cached: None,
            rebuilds: 0,
            counts: OpCounts::default(),
        }
    }

    /// The current shadow stack (outermost first).
    pub fn stack(&self) -> &[MethodId] {
        &self.stack
    }

    /// Number of times `observe` had to allocate a fresh stack copy (at
    /// most one per push/pop between observations; pinned by tests).
    pub fn stack_rebuilds(&self) -> u64 {
        self.rebuilds
    }
}

impl ContextEncoder for StackWalkEncoder {
    type CallToken = ();
    type EntryToken = bool;

    fn thread_start(&mut self, entry: MethodId) {
        self.stack.clear();
        self.cached = None;
        if (self.keep)(entry) {
            self.stack.push(entry);
        }
    }

    fn on_call(&mut self, _site: SiteId) {}
    fn on_return(&mut self, _site: SiteId, _token: ()) {}

    fn on_entry(&mut self, method: MethodId, _via_site: Option<SiteId>) -> bool {
        if (self.keep)(method) {
            self.stack.push(method);
            self.cached = None;
            true
        } else {
            false
        }
    }

    fn on_exit(&mut self, _method: MethodId, pushed: bool) {
        if pushed {
            self.stack.pop();
            self.cached = None;
        }
    }

    fn observe(&mut self, _at: MethodId) -> Capture {
        // Walking visits every live frame.
        self.counts.walked_frames += self.stack.len() as u64;
        let shared = match &self.cached {
            Some(shared) => Arc::clone(shared),
            None => {
                self.rebuilds += 1;
                let shared: Arc<[MethodId]> = Arc::from(self.stack.as_slice());
                self.cached = Some(Arc::clone(&shared));
                shared
            }
        };
        Capture::Walk(shared)
    }

    fn counts(&self) -> OpCounts {
        self.counts
    }

    fn name(&self) -> &'static str {
        "stackwalk"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deltapath_core::PlanConfig;
    use deltapath_ir::{MethodKind, Program, ProgramBuilder};

    fn program() -> Program {
        let mut b = ProgramBuilder::new("compiled-enc");
        let c = b.add_class("C", None);
        b.method(c, "leaf", MethodKind::Static).finish();
        let main = b
            .method(c, "main", MethodKind::Static)
            .body(|f| {
                f.call(c, "leaf");
                f.call(c, "leaf");
            })
            .finish();
        b.entry(main);
        b.finish().unwrap()
    }

    #[test]
    fn mirrors_map_based_encoder_hook_for_hook() {
        let p = program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let compiled = plan.compile();
        let mut map = DeltaEncoder::new(&plan);
        let mut tab = CompiledDeltaEncoder::new(&compiled);
        let main = p.entry();
        let leaf = p
            .declared_method(
                p.class_by_name("C").unwrap(),
                p.symbols().lookup("leaf").unwrap(),
            )
            .unwrap();
        let site = p.sites().iter().find(|s| s.caller() == main).unwrap().id();
        map.thread_start(main);
        tab.thread_start(main);
        let tm = map.on_call(site);
        let tc = tab.on_call(site);
        let em = map.on_entry(leaf, Some(site));
        let ec = tab.on_entry(leaf, Some(site));
        assert_eq!(em, ec);
        assert_eq!(map.observe(leaf), tab.observe(leaf));
        map.on_exit(leaf, em);
        tab.on_exit(leaf, ec);
        map.on_return(site, tm);
        tab.on_return(site, tc);
        assert_eq!(map.counts(), tab.counts());
        assert_eq!(map.state().id(), tab.state().id());
    }

    #[test]
    fn names_reflect_cpt_mode() {
        let p = program();
        let on = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let off = EncodingPlan::analyze(&p, &PlanConfig::default().with_cpt(false)).unwrap();
        let (con, coff) = (on.compile(), off.compile());
        assert_eq!(DeltaEncoder::new(&on).name(), "deltapath");
        assert_eq!(DeltaEncoder::new(&off).name(), "deltapath-nocpt");
        assert_eq!(CompiledDeltaEncoder::new(&con).name(), "compiled");
        assert_eq!(CompiledDeltaEncoder::new(&coff).name(), "compiled-nocpt");
    }

    #[test]
    fn hook_sampler_records_one_in_n() {
        let p = program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let compiled = plan.compile();
        let recorder = Recorder::new();
        let mut e =
            CompiledDeltaEncoder::new(&compiled).with_hook_sampler(HookSampler::new(&recorder, 4));
        e.thread_start(p.entry());
        let main = p.entry();
        let site = p.sites().iter().find(|s| s.caller() == main).unwrap().id();
        let leaf = p
            .declared_method(
                p.class_by_name("C").unwrap(),
                p.symbols().lookup("leaf").unwrap(),
            )
            .unwrap();
        for _ in 0..10 {
            let t = e.on_call(site);
            let en = e.on_entry(leaf, Some(site));
            e.on_exit(leaf, en);
            e.on_return(site, t);
        }
        // 40 hooks at period 4 → exactly 10 samples.
        let sampler = e.hook_sampler().expect("sampler attached");
        assert_eq!(sampler.period(), 4);
        assert_eq!(sampler.samples(), 10);
        assert_eq!(recorder.histogram(names::PROFILE_HOOK_NS).count(), 10);
        assert_eq!(
            recorder.gauge(names::PROFILE_HOOK_PERIOD).get(),
            4,
            "period stamped as gauge"
        );
        // Sampling must not perturb the encoding.
        let plan2 = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let mut oracle = DeltaEncoder::new(&plan2);
        oracle.thread_start(p.entry());
        for _ in 0..10 {
            let t = oracle.on_call(site);
            let en = oracle.on_entry(leaf, Some(site));
            oracle.on_exit(leaf, en);
            oracle.on_return(site, t);
        }
        assert_eq!(oracle.counts(), e.counts());
        assert_eq!(oracle.state().id(), e.state().id());
    }

    #[test]
    fn uninstrumented_points_are_no_ops() {
        let p = program();
        let plan = EncodingPlan::analyze(&p, &PlanConfig::default()).unwrap();
        let compiled = plan.compile();
        let mut e = CompiledDeltaEncoder::new(&compiled);
        e.thread_start(p.entry());
        let bogus_site = SiteId::from_index(4_096);
        let bogus_method = MethodId::from_index(4_096);
        let t = e.on_call(bogus_site);
        assert!(t.is_none());
        assert_eq!(e.on_entry(bogus_method, None), EntryOutcome::Plain);
        e.on_return(bogus_site, t);
        assert_eq!(e.counts(), OpCounts::default());
        assert_eq!(e.state().id(), 0);
    }

    #[test]
    fn null_encoder_costs_nothing() {
        let mut e = NullEncoder;
        e.thread_start(MethodId::from_index(0));
        e.on_call(SiteId::from_index(0));
        assert_eq!(e.observe(MethodId::from_index(0)), Capture::None);
        assert_eq!(e.counts(), OpCounts::default());
        assert_eq!(e.name(), "native");
    }

    #[test]
    fn stack_walk_tracks_entries_and_exits() {
        let mut e = StackWalkEncoder::full();
        let (a, b) = (MethodId::from_index(0), MethodId::from_index(1));
        e.thread_start(a);
        let t = e.on_entry(b, None);
        assert_eq!(e.observe(b), Capture::Walk(vec![a, b].into()));
        e.on_exit(b, t);
        assert_eq!(e.observe(a), Capture::Walk(vec![a].into()));
        assert_eq!(e.counts().walked_frames, 3);
    }

    #[test]
    fn filtered_walk_skips_methods() {
        let mut e = StackWalkEncoder::filtered(|m| m.index() != 1);
        let (a, b, c) = (
            MethodId::from_index(0),
            MethodId::from_index(1),
            MethodId::from_index(2),
        );
        e.thread_start(a);
        let tb = e.on_entry(b, None);
        let tc = e.on_entry(c, None);
        assert_eq!(e.observe(c), Capture::Walk(vec![a, c].into()));
        e.on_exit(c, tc);
        e.on_exit(b, tb);
        assert_eq!(e.stack(), &[a]);
    }

    #[test]
    fn repeated_observations_share_one_allocation() {
        let mut e = StackWalkEncoder::full();
        let (a, b) = (MethodId::from_index(0), MethodId::from_index(1));
        e.thread_start(a);
        let t = e.on_entry(b, None);
        let Capture::Walk(first) = e.observe(b) else {
            panic!("walk capture expected");
        };
        // A quiet stack re-uses the materialized allocation verbatim.
        for _ in 0..10 {
            let Capture::Walk(again) = e.observe(b) else {
                panic!("walk capture expected");
            };
            assert!(Arc::ptr_eq(&first, &again));
        }
        assert_eq!(e.stack_rebuilds(), 1);
        // A pop invalidates it: exactly one new allocation, not one per
        // observation.
        e.on_exit(b, t);
        let Capture::Walk(shallow) = e.observe(a) else {
            panic!("walk capture expected");
        };
        assert!(!Arc::ptr_eq(&first, &shallow));
        e.observe(a);
        e.observe(a);
        assert_eq!(e.stack_rebuilds(), 2);
        // The earlier capture still holds the deep stack it saw.
        assert_eq!(&*first, &[a, b]);
    }
}
