//! The table-driven DeltaPath encoder.
//!
//! [`CompiledDeltaEncoder`] is operationally identical to
//! [`DeltaEncoder`](crate::DeltaEncoder) — same captures, same op counts,
//! same UCP detections, pinned by the differential suite — but resolves
//! every hook through a [`CompiledPlan`]'s dense tables instead of the
//! plan's hash maps: one bounds-checked array load per hook, zero hashing.
//! The return hook consults no table at all; the
//! [`CallToken`](deltapath_core::CallToken) produced at the call carries
//! the resolved instruction across.
//!
//! The map-based encoder stays as the reference oracle; this one is what a
//! deployment would run.

use std::sync::Arc;
use std::time::Instant;

use deltapath_core::{CompiledPlan, DeltaState, EntryOutcome};
use deltapath_ir::{MethodId, SiteId};
use deltapath_telemetry::{names, Counter, Log2Histogram, Recorder, Telemetry};

use crate::encoder::{report_op_counts, Capture, ContextEncoder, OpCounts};

/// 1-in-N latency sampling for the compiled encoder's hooks.
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

/// DeltaPath over compiled dispatch tables (see the module docs).
#[derive(Debug)]
pub struct CompiledDeltaEncoder<'p> {
    compiled: &'p CompiledPlan,
    state: DeltaState,
    counts: OpCounts,
    stack_hwm: usize,
    ucp_detections: u64,
    sampler: Option<HookSampler>,
}

impl<'p> CompiledDeltaEncoder<'p> {
    /// Creates an encoder over `compiled`. The state is initialized lazily
    /// by [`thread_start`](ContextEncoder::thread_start).
    pub fn new(compiled: &'p CompiledPlan) -> Self {
        Self {
            compiled,
            state: DeltaState::start(compiled.entry_method()),
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
        let e = self.compiled.entry(method);
        if !e.present() {
            return EntryOutcome::Plain;
        }
        self.counts.sid_checks += u64::from(e.do_check());
        // Only instrumented dispatching sites count as "via"; the back-edge
        // pair search runs only for the rare site that can take one.
        let (via, back_edge) = match via_site {
            Some(s) => {
                let w = self.compiled.site(s);
                if w.present() {
                    let back = w.may_take_back_edge() && self.compiled.is_back_edge_call(s, method);
                    (Some(s), back)
                } else {
                    (None, false)
                }
            }
            None => (None, false),
        };
        let outcome = self
            .state
            .on_entry_resolved(method, via, e.resolved(back_edge));
        if outcome.pushed() {
            self.counts.pushes += 1;
            self.stack_hwm = self.stack_hwm.max(self.state.depth());
            if outcome == EntryOutcome::PushedUcp {
                self.ucp_detections += 1;
            }
        }
        outcome
    }

    /// The underlying tables.
    pub fn compiled(&self) -> &'p CompiledPlan {
        self.compiled
    }

    /// The current encoding state.
    pub fn state(&self) -> &DeltaState {
        &self.state
    }

    /// The deepest the encoding stack has grown (lifetime high-water mark,
    /// not reset by [`thread_start`](ContextEncoder::thread_start)).
    pub fn stack_high_water(&self) -> usize {
        self.stack_hwm
    }

    /// Number of hazardous unexpected call paths detected.
    pub fn ucp_detections(&self) -> u64 {
        self.ucp_detections
    }
}

impl ContextEncoder for CompiledDeltaEncoder<'_> {
    type CallToken = Option<deltapath_core::CallToken>;
    type EntryToken = EntryOutcome;

    fn thread_start(&mut self, entry: MethodId) {
        self.state.restart(entry);
    }

    #[inline]
    fn on_call(&mut self, site: SiteId) -> Self::CallToken {
        self.sample_start();
        let w = self.compiled.site(site);
        let token = if w.present() {
            self.counts.adds += u64::from(w.encoded());
            self.counts.pending_saves += u64::from(w.save_pending());
            Some(self.state.on_call_resolved(site, w.resolved()))
        } else {
            None
        };
        self.sample_end();
        token
    }

    #[inline]
    fn on_return(&mut self, _site: SiteId, token: Self::CallToken) {
        self.sample_start();
        if let Some(token) = token {
            self.counts.subs += u64::from(token.encoded());
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
        if token.pushed() {
            self.counts.pops += 1;
        }
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
        if self.compiled.cpt() {
            "compiled"
        } else {
            "compiled-nocpt"
        }
    }

    fn report_telemetry(&self, sink: &dyn Telemetry) {
        let name = self.name();
        report_op_counts(sink, name, &self.counts);
        sink.gauge_max(&format!("encoder.{name}.stack_hwm"), self.stack_hwm as u64);
        sink.counter_add(
            &format!("encoder.{name}.ucp_detections"),
            self.ucp_detections,
        );
        sink.counter_add(
            &format!("encoder.{name}.push_pop_imbalance"),
            self.counts.pushes.saturating_sub(self.counts.pops),
        );
        sink.gauge_max(
            &format!("encoder.{name}.table_bytes"),
            self.compiled.table_bytes() as u64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoders::DeltaEncoder;
    use deltapath_core::{EncodingPlan, PlanConfig};
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
}
