//! Delegating encoders and collectors the benchmark wraps around the
//! program's own, so each layer can be isolated, counted and checked from
//! outside the program.

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

use deltapath::{
    Capture, Collector, ContextEncoder, Decoder, EncodedContext, MethodId, OpCounts, SiteId,
    StackWalkEncoder,
};

/// One in this many `observe`/`record_*` calls is timed by the counting
/// adaptors.
pub const SAMPLE_PERIOD: u32 = 64;

/// The ladder's hooks-only rung: every hook reaches the inner encoder, but
/// `observe` builds no capture. (`CollectMode::Nothing` cannot be used for
/// this: the interpreter still calls `observe` at every `Observe`
/// statement.)
pub struct NoCapture<E>(pub E);

impl<E: ContextEncoder> ContextEncoder for NoCapture<E> {
    type CallToken = E::CallToken;
    type EntryToken = E::EntryToken;

    fn thread_start(&mut self, entry: MethodId) {
        self.0.thread_start(entry);
    }
    #[inline]
    fn on_call(&mut self, site: SiteId) -> Self::CallToken {
        self.0.on_call(site)
    }
    #[inline]
    fn on_return(&mut self, site: SiteId, token: Self::CallToken) {
        self.0.on_return(site, token);
    }
    #[inline]
    fn on_entry(&mut self, method: MethodId, via: Option<SiteId>) -> Self::EntryToken {
        self.0.on_entry(method, via)
    }
    #[inline]
    fn on_exit(&mut self, method: MethodId, token: Self::EntryToken) {
        self.0.on_exit(method, token);
    }
    fn observe(&mut self, _at: MethodId) -> Capture {
        Capture::None
    }
    fn counts(&self) -> OpCounts {
        self.0.counts()
    }
    fn name(&self) -> &'static str {
        "no-capture"
    }
}

/// A 1-in-[`SAMPLE_PERIOD`] wall-clock sampler.
#[derive(Default)]
pub struct Sampler {
    countdown: u32,
    pub samples: u64,
    pub ns: u64,
}

impl Sampler {
    #[inline]
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if self.countdown > 0 {
            self.countdown -= 1;
            return f();
        }
        self.countdown = SAMPLE_PERIOD - 1;
        let started = Instant::now();
        let r = f();
        self.ns += started.elapsed().as_nanos() as u64;
        self.samples += 1;
        r
    }

    /// Mean nanoseconds of the timed calls, less the clock's own cost.
    pub fn mean_ns(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            (self.ns as f64 / self.samples as f64 - clock_ns()).max(0.0)
        }
    }
}

/// What a [`Sampler`] reads, on average, for a call that does nothing.
fn clock_ns() -> f64 {
    static NS: OnceLock<f64> = OnceLock::new();
    *NS.get_or_init(|| {
        let mut empty = Sampler::default();
        while empty.samples < 100_000 {
            empty.time(|| ());
        }
        empty.ns as f64 / empty.samples as f64
    })
}

/// The traced run's encoder wrapper: counts every hook and capture, sums
/// capture stack depths, and times a sample of `observe` calls.
pub struct Counted<E> {
    pub inner: E,
    pub calls: u64,
    pub entries: u64,
    pub captures: u64,
    pub frames: u64,
    pub observe: Sampler,
}

impl<E> Counted<E> {
    pub fn new(inner: E) -> Self {
        Self {
            inner,
            calls: 0,
            entries: 0,
            captures: 0,
            frames: 0,
            observe: Sampler::default(),
        }
    }
}

impl<E: ContextEncoder> ContextEncoder for Counted<E> {
    type CallToken = E::CallToken;
    type EntryToken = E::EntryToken;

    fn thread_start(&mut self, entry: MethodId) {
        self.inner.thread_start(entry);
    }
    #[inline]
    fn on_call(&mut self, site: SiteId) -> Self::CallToken {
        self.calls += 1;
        self.inner.on_call(site)
    }
    #[inline]
    fn on_return(&mut self, site: SiteId, token: Self::CallToken) {
        self.inner.on_return(site, token);
    }
    #[inline]
    fn on_entry(&mut self, method: MethodId, via: Option<SiteId>) -> Self::EntryToken {
        self.entries += 1;
        self.inner.on_entry(method, via)
    }
    #[inline]
    fn on_exit(&mut self, method: MethodId, token: Self::EntryToken) {
        self.inner.on_exit(method, token);
    }
    fn observe(&mut self, at: MethodId) -> Capture {
        let inner = &mut self.inner;
        let capture = self.observe.time(|| inner.observe(at));
        self.captures += 1;
        if let Capture::Delta(ctx) = &capture {
            self.frames += ctx.depth() as u64;
        }
        capture
    }
    fn counts(&self) -> OpCounts {
        self.inner.counts()
    }
    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// The traced run's collector wrapper: counts records and times a sample.
pub struct CountedCollector<C> {
    pub inner: C,
    pub records: u64,
    pub record: Sampler,
}

impl<C> CountedCollector<C> {
    pub fn new(inner: C) -> Self {
        Self {
            inner,
            records: 0,
            record: Sampler::default(),
        }
    }
}

impl<C: Collector> Collector for CountedCollector<C> {
    fn record_entry(&mut self, method: MethodId, true_depth: usize, capture: Capture) {
        self.records += 1;
        let inner = &mut self.inner;
        self.record
            .time(|| inner.record_entry(method, true_depth, capture));
    }
    fn record_observe(&mut self, event: u32, method: MethodId, capture: Capture) {
        self.records += 1;
        let inner = &mut self.inner;
        self.record
            .time(|| inner.record_observe(event, method, capture));
    }
}

/// The result of checking one run against the shadow-stack oracle.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    /// In-scope captures decoded and compared.
    pub checked: u64,
    /// Mismatches or decode errors with out-of-plan code on the stack: the
    /// paper's benign-UCP imprecision.
    pub tolerated: u64,
    /// Mismatches or decode errors with no out-of-plan frame: real bugs.
    pub hard: u64,
    /// The first few hard failures, described.
    pub examples: Vec<String>,
}

/// Runs the production encoder and `StackWalkEncoder::full()` in lockstep
/// over one execution, and at every in-scope capture compares the decoded
/// context with the walked stack filtered to plan methods — event by event,
/// as the integration tests' oracle does. Each distinct context is decoded
/// once; the comparison runs for every event.
pub struct Oracle<'a, E> {
    delta: E,
    walk: StackWalkEncoder,
    in_plan: &'a [bool],
    decoder: Decoder<'a>,
    memo: HashMap<EncodedContext, Option<Vec<MethodId>>>,
    /// The distinct contexts in the order first seen.
    seen: Vec<EncodedContext>,
    pub verdict: Verdict,
}

impl<'a, E> Oracle<'a, E> {
    pub fn new(delta: E, in_plan: &'a [bool], decoder: Decoder<'a>) -> Self {
        Self {
            delta,
            walk: StackWalkEncoder::full(),
            in_plan,
            decoder,
            memo: HashMap::new(),
            seen: Vec::new(),
            verdict: Verdict::default(),
        }
    }

    /// The verdict, and the distinct in-scope contexts in the order first
    /// seen: the same order in every process, unlike a hash map's.
    pub fn finish(self) -> (Verdict, Vec<EncodedContext>) {
        (self.verdict, self.seen)
    }

    fn check(&mut self, at: MethodId, capture: &Capture) {
        if !self.in_plan[at.index()] {
            return; // no probe would exist in uninstrumented code
        }
        self.verdict.checked += 1;
        let Capture::Delta(ctx) = capture else {
            self.fail(format!("non-DeltaPath capture {capture:?}"));
            return;
        };
        if !self.memo.contains_key(ctx) {
            let decoded = self.decoder.decode(ctx).ok();
            self.memo.insert(ctx.clone(), decoded);
            self.seen.push(ctx.clone());
        }
        let in_plan = self.in_plan;
        let stack = self.walk.stack();
        let truth = stack.iter().filter(|m| in_plan[m.index()]);
        let exact = match &self.memo[ctx] {
            Some(decoded) => decoded.iter().eq(truth),
            None => false,
        };
        if exact {
            return;
        }
        if stack.iter().any(|m| !in_plan[m.index()]) {
            self.verdict.tolerated += 1;
        } else {
            self.fail(format!("at {at:?}: ctx {ctx} does not decode to {stack:?}"));
        }
    }

    fn fail(&mut self, what: String) {
        self.verdict.hard += 1;
        if self.verdict.examples.len() < 5 {
            self.verdict.examples.push(what);
        }
    }
}

impl<E: ContextEncoder> ContextEncoder for Oracle<'_, E> {
    type CallToken = E::CallToken;
    type EntryToken = (E::EntryToken, bool);

    fn thread_start(&mut self, entry: MethodId) {
        self.delta.thread_start(entry);
        self.walk.thread_start(entry);
    }
    fn on_call(&mut self, site: SiteId) -> Self::CallToken {
        self.walk.on_call(site);
        self.delta.on_call(site)
    }
    fn on_return(&mut self, site: SiteId, token: Self::CallToken) {
        self.walk.on_return(site, ());
        self.delta.on_return(site, token);
    }
    fn on_entry(&mut self, method: MethodId, via: Option<SiteId>) -> Self::EntryToken {
        (
            self.delta.on_entry(method, via),
            self.walk.on_entry(method, via),
        )
    }
    fn on_exit(&mut self, method: MethodId, (delta, walk): Self::EntryToken) {
        self.walk.on_exit(method, walk);
        self.delta.on_exit(method, delta);
    }
    fn observe(&mut self, at: MethodId) -> Capture {
        let capture = self.delta.observe(at);
        self.check(at, &capture);
        capture
    }
    fn counts(&self) -> OpCounts {
        self.delta.counts()
    }
    fn name(&self) -> &'static str {
        "oracle"
    }
}
