//! The workloads and the passes run over them: set-up, warm-up, timed
//! rounds, the subtraction ladder with its traced run, and the oracle
//! check.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use deltapath::callgraph::{back_edges, skeleton_for_graph, StronglyConnectedComponents};
use deltapath::ir::parse_program;
use deltapath::{
    audit_plan_full, parse_graph, AuditOptions, BatchedDeltaEncoder, CallGraph, Capture,
    CollectMode, Collector, CompiledDeltaEncoder, CompiledPlan, ContextEncoder, ContextStats,
    EncodedContext, EncodingPlan, EventLog, GraphConfig, MethodId, NullCollector, NullEncoder,
    NullTelemetry, PlanConfig, Program, ScopeFilter, ScopedSpan, SiteId, SpanProfiler,
    StackWalkEncoder, Telemetry, Vm, VmConfig,
};

use crate::adaptors::{Counted, CountedCollector, NoCapture, Oracle, Sampler, Verdict};
use crate::inputs::{scale_input, suite_program, Replay, ScaleInput};
use crate::stats::median;
use crate::{heap, hostref};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    EntryProfile,
    HookOnly,
    EventLog,
    Import100k,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::EntryProfile,
        Workload::HookOnly,
        Workload::EventLog,
        Workload::Import100k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::EntryProfile => "entry_profile",
            Workload::HookOnly => "hook_only",
            Workload::EventLog => "event_log",
            Workload::Import100k => "import_100k",
        }
    }

    /// The suite programs of a VM workload, and whether they are
    /// regenerated with `observe_events = 0`.
    fn programs(self) -> (&'static [&'static str], bool) {
        match self {
            Workload::EntryProfile => {
                (&["compress", "scimark.monte_carlo", "xml.transform"], false)
            }
            Workload::HookOnly => (&["compress", "scimark.monte_carlo", "crypto.aes"], true),
            Workload::EventLog => (&["scimark.monte_carlo", "xml.transform"], false),
            Workload::Import100k => (&[], false),
        }
    }
}

/// The collector a workload runs with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sink {
    /// `ContextStats`: the paper's Table 2 statistics.
    Stats,
    /// `EventLog`: every observed capture kept for offline decoding.
    Log,
}

/// What a finished real-collector run holds.
pub enum Collected {
    Stats(ContextStats),
    Log(EventLog),
}

impl From<ContextStats> for Collected {
    fn from(c: ContextStats) -> Self {
        Collected::Stats(c)
    }
}

impl From<EventLog> for Collected {
    fn from(c: EventLog) -> Self {
        Collected::Log(c)
    }
}

impl Collected {
    /// Distinct captures (`ContextStats`) or stored captures (`EventLog`).
    fn size(&self) -> u64 {
        match self {
            Collected::Stats(s) => s.unique_contexts() as u64,
            Collected::Log(l) => l.events.len() as u64,
        }
    }
}

/// The work one program does, pinned so that a changed event stream fails
/// the run instead of being timed as a speed-up.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Pin {
    pub calls: u64,
    pub observes: u64,
    pub entries: u64,
    /// Distinct captures in `ContextStats`, or captures in `EventLog`.
    pub collected: u64,
    /// Distinct in-scope contexts: the decode set of the Stats workloads.
    pub contexts: u64,
    pub anchors: u64,
}

/// Counts of one execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub calls: u64,
    pub observes: u64,
    pub entries: u64,
}

/// One program (or the imported graph) of a workload, planned and
/// compiled.
pub struct Unit {
    pub name: String,
    program: Program,
    /// `Some` for the imported graph, which is replayed, not interpreted.
    replay: Option<&'static Replay>,
    run_mode: CollectMode,
    /// The mode of the decode-set collection and the oracle check.
    check_mode: CollectMode,
    sink: Sink,
    plan: EncodingPlan,
    compiled: CompiledPlan,
    in_plan: Vec<bool>,
    /// The distinct in-scope contexts a `ContextStats` run decodes. The
    /// benchmark's copy, kept outside the heap count until the process
    /// exits.
    decode_set: &'static [EncodedContext],
    pub pin: Pin,
}

fn app_config() -> PlanConfig {
    PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly)
}

/// The configuration `deltapath import --budget 32` plans with.
fn import_config() -> PlanConfig {
    PlanConfig::default()
        .with_scope(ScopeFilter::All)
        .with_batch_overflow()
        .with_territory_budget(32)
}

fn in_plan(program: &Program, plan: &EncodingPlan) -> Vec<bool> {
    (0..program.methods().len())
        .map(|i| plan.entry(MethodId::from_index(i)).is_some())
        .collect()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs `f` inside a span named `name`.
fn span<R>(sink: &dyn Telemetry, name: &'static str, f: impl FnOnce() -> R) -> R {
    let guard = ScopedSpan::enter(sink, name);
    let r = f();
    guard.finish(&[]);
    r
}

/// The workload's inputs, made from the seed.
pub enum Inputs {
    Vm(Vec<ProgramInput>),
    Scale(ScaleInput),
}

/// One suite program in the seed's numbering: its listing and the program
/// parsed from it.
pub struct ProgramInput {
    name: String,
    text: String,
    program: Program,
}

pub fn inputs(workload: Workload, seed: u64) -> Inputs {
    match workload {
        Workload::Import100k => Inputs::Scale(scale_input(seed)),
        _ => {
            let (names, no_observes) = workload.programs();
            Inputs::Vm(
                names
                    .iter()
                    .map(|name| {
                        let (program, text) = suite_program(name, no_observes, seed);
                        ProgramInput {
                            name: (*name).to_owned(),
                            text,
                            program,
                        }
                    })
                    .collect(),
            )
        }
    }
}

/// One set-up: its time, the planned units and, for the imported graph,
/// what the audit saw.
pub struct Setup {
    pub seconds: f64,
    pub units: Vec<Unit>,
    pub anchors_audited: u64,
    pub diagnostics: u64,
}

/// Set-up as a user pays it: plan analysis and `compile()` for every
/// program, plus — for the imported graph — the import itself and a serial
/// full audit.
pub fn setup(workload: Workload, inputs: &Inputs) -> Result<Setup, String> {
    match inputs {
        Inputs::Vm(programs) => {
            let (run_mode, check_mode, sink) = match workload {
                Workload::EntryProfile => (CollectMode::Entries, CollectMode::Entries, Sink::Stats),
                Workload::HookOnly => {
                    (CollectMode::ObservesOnly, CollectMode::Entries, Sink::Stats)
                }
                _ => (
                    CollectMode::ObservesOnly,
                    CollectMode::ObservesOnly,
                    Sink::Log,
                ),
            };
            let mut elapsed = Duration::ZERO;
            let mut units = Vec::new();
            for ProgramInput { name, program, .. } in programs {
                let started = Instant::now();
                let plan = EncodingPlan::analyze(program, &app_config()).map_err(err)?;
                let compiled = plan.compile();
                elapsed += started.elapsed();
                units.push(Unit {
                    name: name.clone(),
                    in_plan: in_plan(program, &plan),
                    program: program.clone(),
                    replay: None,
                    run_mode,
                    check_mode,
                    sink,
                    pin: Pin {
                        anchors: plan.encoding().anchors.len() as u64,
                        ..Pin::default()
                    },
                    plan,
                    compiled,
                    decode_set: &[],
                });
            }
            Ok(Setup {
                seconds: elapsed.as_secs_f64(),
                units,
                anchors_audited: 0,
                diagnostics: 0,
            })
        }
        Inputs::Scale(ScaleInput { text, replay }) => {
            let started = Instant::now();
            let imported = parse_graph(text.as_bytes()).map_err(err)?;
            let program = skeleton_for_graph(&imported.name, &imported.graph);
            let plan = EncodingPlan::from_graph(&program, imported.graph, &import_config())
                .map_err(err)?;
            let compiled = plan.compile();
            let audit = audit_plan_full(&program, &plan, &serial_audit(), &NullTelemetry);
            let elapsed = started.elapsed();
            let anchors = plan.encoding().anchors.len() as u64;
            let unit = Unit {
                name: "scale-100k".to_owned(),
                in_plan: in_plan(&program, &plan),
                program,
                replay: Some(*replay),
                run_mode: CollectMode::Entries,
                check_mode: CollectMode::Entries,
                sink: Sink::Stats,
                pin: Pin {
                    anchors,
                    ..Pin::default()
                },
                plan,
                compiled,
                decode_set: &[],
            };
            Ok(Setup {
                seconds: elapsed.as_secs_f64(),
                units: vec![unit],
                anchors_audited: anchors,
                diagnostics: audit.report.diagnostics.len() as u64,
            })
        }
    }
}

/// The samples of one timed round of one unit.
pub struct Round {
    pub run: f64,
    pub decode: [f64; DECODE_PASSES],
    /// The host reference kernel's time just before the run, between the
    /// run and the decodes, and just after the decodes.
    pub host: [f64; 3],
}

impl Round {
    /// The host reference time next to the run.
    pub fn host_run(&self) -> f64 {
        (self.host[0] + self.host[1]) / 2.0
    }

    /// The host reference time next to the decodes.
    pub fn host_decode(&self) -> f64 {
        (self.host[1] + self.host[2]) / 2.0
    }
}

/// Decode passes per timed round: decode is short next to the run, so it
/// is sampled more often.
pub const DECODE_PASSES: usize = 3;

fn serial_audit() -> AuditOptions {
    AuditOptions::default().with_workers(1).without_baseline()
}

/// Per-layer set-up times from one traced set-up of every unit, read back
/// from the span tree: `(name, seconds)` plus graph and plan counts.
pub struct SetupLayers {
    pub times: Vec<(&'static str, f64)>,
    pub nodes: u64,
    pub edges: u64,
    pub anchors: u64,
    pub restarts: u64,
    pub diagnostics: u64,
}

/// The traced set-up: the same public calls as [`setup`], split at the
/// layer boundaries and wrapped in spans, `reps` times over.
pub fn traced_setup(
    inputs: &Inputs,
    prof: &SpanProfiler,
    reps: u32,
) -> Result<SetupLayers, String> {
    let mut out = SetupLayers {
        times: Vec::new(),
        nodes: 0,
        edges: 0,
        anchors: 0,
        restarts: 0,
        diagnostics: 0,
    };
    // The text each input is imported from: IR listings, or graph.v1.
    let sources: Vec<(&str, bool)> = match inputs {
        Inputs::Vm(programs) => programs.iter().map(|p| (p.text.as_str(), false)).collect(),
        Inputs::Scale(s) => vec![(s.text.as_str(), true)],
    };
    for rep in 0..reps {
        for &(source, is_graph) in &sources {
            let _setup = ScopedSpan::enter(prof, "bench.setup");
            let (program, graph, config) = if is_graph {
                let imported = span(prof, "callgraph.import", || parse_graph(source.as_bytes()))
                    .map_err(err)?;
                let program = span(prof, "callgraph.build", || {
                    skeleton_for_graph(&imported.name, &imported.graph)
                });
                (program, imported.graph, import_config())
            } else {
                let program =
                    span(prof, "callgraph.import", || parse_program(source)).map_err(err)?;
                let config = app_config();
                let graph_config = GraphConfig::new(config.analysis).with_scope(config.scope);
                let graph = span(prof, "callgraph.build", || {
                    CallGraph::build(&program, &graph_config)
                });
                (program, graph, config)
            };
            span(prof, "callgraph.scc", || {
                black_box(back_edges(&graph));
                black_box(StronglyConnectedComponents::compute(&graph));
            });
            let (nodes, edges) = (graph.node_count() as u64, graph.edge_count() as u64);
            let plan = span(prof, "core.plan", || {
                EncodingPlan::from_graph_with(&program, graph, &config, prof)
            })
            .map_err(err)?;
            black_box(span(prof, "core.compile", || plan.compile()));
            let audit = span(prof, "analysis.audit", || {
                audit_plan_full(&program, &plan, &serial_audit(), prof)
            });
            if rep == 0 {
                out.nodes += nodes;
                out.edges += edges;
                out.anchors += plan.encoding().anchors.len() as u64;
                out.restarts += plan.encoding().restarts as u64;
                out.diagnostics += audit.report.diagnostics.len() as u64;
            }
        }
    }
    let tree = prof.snapshot().tree;
    for (layer, metric) in [
        ("callgraph.import", "callgraph.import_s"),
        ("callgraph.build", "callgraph.build_s"),
        ("callgraph.scc", "callgraph.scc_s"),
        ("core.plan", "core.plan_s"),
        ("core.compile", "core.compile_s"),
        ("analysis.audit", "analysis.audit_s"),
    ] {
        let (_, ns) = tree.total_at(&["bench.setup", layer]).unwrap_or((0, 0));
        out.times
            .push((metric, ns as f64 / 1e9 / f64::from(reps.max(1))));
    }
    Ok(out)
}

/// What a real-collector run produced.
pub struct RealRun {
    pub time: f64,
    pub counts: Counts,
    pub collected: Collected,
    /// `(records, sampler)` when the collector was wrapped for counting.
    pub records: Option<(u64, Sampler)>,
}

/// The ladder's samples of one round, summed over the units.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rungs {
    /// The end-to-end run, timed apart from the rungs.
    pub run: f64,
    pub native: f64,
    pub hooks: f64,
    pub captures: f64,
    pub real: f64,
    pub decode: f64,
    pub traced: f64,
    pub stackwalk: f64,
    pub batched: f64,
}

/// Counts gathered by the traced run (summed over units).
#[derive(Debug, Default)]
pub struct TraceCounts {
    pub calls: u64,
    pub captures: u64,
    pub frames: u64,
    pub observe_ns: f64,
    pub records: u64,
    pub record_ns: f64,
    pub decoded: u64,
    pub adds: u64,
    pub sid_checks: u64,
    pub pushes: u64,
}

impl Unit {
    /// Executes the unit once under `enc`, feeding `col`.
    fn exec<E: ContextEncoder, C: Collector>(
        &self,
        mode: CollectMode,
        enc: &mut E,
        col: &mut C,
        telemetry: Option<Arc<dyn Telemetry>>,
    ) -> Result<Counts, String> {
        if let Some(r) = &self.replay {
            return Ok(replay(r, enc, col));
        }
        let mut config = VmConfig::default().with_collect(mode);
        if let Some(t) = telemetry {
            config = config.with_telemetry(t);
        }
        let stats = Vm::new(&self.program, config)
            .run(enc, col)
            .map_err(|e| format!("{}: {e}", self.name))?;
        Ok(Counts {
            calls: stats.calls,
            observes: stats.observes,
            entries: stats.entries_collected,
        })
    }

    fn timed<E: ContextEncoder, C: Collector>(
        &self,
        enc: &mut E,
        col: &mut C,
    ) -> Result<(f64, Counts), String> {
        let started = Instant::now();
        let counts = self.exec(self.run_mode, enc, col, None)?;
        Ok((started.elapsed().as_secs_f64(), counts))
    }

    /// One run with the workload's real collector.
    pub fn run_real<E: ContextEncoder>(
        &self,
        enc: &mut E,
        counted: bool,
        telemetry: Option<Arc<dyn Telemetry>>,
    ) -> Result<RealRun, String> {
        match self.sink {
            Sink::Stats => self.run_real_as::<ContextStats, E>(enc, counted, telemetry),
            Sink::Log => self.run_real_as::<EventLog, E>(enc, counted, telemetry),
        }
    }

    fn run_real_as<C, E>(
        &self,
        enc: &mut E,
        counted: bool,
        telemetry: Option<Arc<dyn Telemetry>>,
    ) -> Result<RealRun, String>
    where
        C: Collector + Default + Into<Collected>,
        E: ContextEncoder,
    {
        let started = Instant::now();
        if counted {
            let mut col = CountedCollector::new(C::default());
            let counts = self.exec(self.run_mode, enc, &mut col, telemetry)?;
            Ok(RealRun {
                time: started.elapsed().as_secs_f64(),
                counts,
                collected: col.inner.into(),
                records: Some((col.records, col.record)),
            })
        } else {
            let mut col = C::default();
            let counts = self.exec(self.run_mode, enc, &mut col, telemetry)?;
            Ok(RealRun {
                time: started.elapsed().as_secs_f64(),
                counts,
                collected: col.into(),
                records: None,
            })
        }
    }

    /// Decodes the run's contexts offline: every logged in-scope capture
    /// of an `EventLog`, or each distinct in-scope context once for
    /// `ContextStats` runs. Returns the time and the number decoded.
    pub fn decode(&self, collected: &Collected) -> (f64, u64) {
        let decoder = self.plan.decoder();
        let mut n = 0u64;
        let started = Instant::now();
        match collected {
            Collected::Log(log) => {
                for (_, at, capture) in &log.events {
                    if let (true, Capture::Delta(ctx)) = (self.in_plan[at.index()], capture) {
                        black_box(decoder.decode(ctx).ok());
                        n += 1;
                    }
                }
            }
            Collected::Stats(_) => {
                for ctx in self.decode_set {
                    black_box(decoder.decode(ctx).ok());
                    n += 1;
                }
            }
        }
        (started.elapsed().as_secs_f64(), n)
    }

    /// Fails if a run's event stream differs from the pinned one.
    fn check_pin(&self, counts: Counts, collected: &Collected) -> Result<(), String> {
        let got = (
            counts.calls,
            counts.observes,
            counts.entries,
            collected.size(),
        );
        let want = (
            self.pin.calls,
            self.pin.observes,
            self.pin.entries,
            self.pin.collected,
        );
        if got == want {
            Ok(())
        } else {
            Err(format!(
                "{}: work drifted: (calls, observes, entries, collected) = {got:?}, pinned {want:?}",
                self.name
            ))
        }
    }

    /// The untimed warm-up, which is also the correctness check: one run
    /// under the shadow-stack [`Oracle`], with the workload's collector,
    /// checks every in-scope capture and records the pins and the decode
    /// set (the distinct in-scope contexts the oracle saw). Where the check
    /// mode differs from the run mode (`hook_only`, whose run captures
    /// nothing), a plain run in the run mode records the run's pins and the
    /// check runs with entry captures.
    pub fn warm_up(&mut self) -> Result<Verdict, String> {
        let mut oracle = Oracle::new(
            CompiledDeltaEncoder::new(&self.compiled),
            &self.in_plan,
            self.plan.decoder(),
        );
        let run = if self.check_mode != self.run_mode {
            let run = self.run_real(&mut CompiledDeltaEncoder::new(&self.compiled), false, None)?;
            let checked = self.exec(self.check_mode, &mut oracle, &mut NullCollector, None)?;
            if checked.calls != run.counts.calls {
                return Err(format!(
                    "{}: the check run made {} calls, the run {}",
                    self.name, checked.calls, run.counts.calls
                ));
            }
            run
        } else {
            self.run_real(&mut oracle, false, None)?
        };
        let (verdict, contexts) = oracle.finish();
        self.pin = Pin {
            calls: run.counts.calls,
            observes: run.counts.observes,
            entries: run.counts.entries,
            collected: run.collected.size(),
            contexts: contexts.len() as u64,
            anchors: self.pin.anchors,
        };
        if self.sink == Sink::Stats {
            self.decode_set = heap::untracked(|| &*contexts.clone().leak());
        }
        Ok(verdict)
    }

    /// One timed round: the instrumented run with the workload's collector,
    /// then [`DECODE_PASSES`] offline decodes of its contexts (each with a
    /// fresh decoder), with the host reference kernel timed before, between
    /// and after them.
    pub fn timed_round(&self) -> Result<Round, String> {
        let before = hostref::time();
        let run = self.run_real(&mut CompiledDeltaEncoder::new(&self.compiled), false, None)?;
        let between = hostref::time();
        self.check_pin(run.counts, &run.collected)?;
        let decode = std::array::from_fn(|_| self.decode(&run.collected).0);
        drop(run.collected);
        Ok(Round {
            run: run.time,
            decode,
            host: [before, between, hostref::time()],
        })
    }

    /// One round of the subtraction ladder and the traced run, and, with
    /// `references`, of the reference encoders. It starts with the
    /// untraced end-to-end run, as the timed rounds run it, timed apart
    /// from the rungs so that the rungs' layers can be checked against it.
    ///
    /// The host reference kernel is timed after each of these runs and
    /// before the first, and every run is scaled to the round's median
    /// kernel time by the kernel's time on either side of it. Otherwise the
    /// host's drift over the round, as large as a layer, would land in the
    /// layers.
    pub fn ladder_round(
        &self,
        prof: &Arc<SpanProfiler>,
        counts: &mut TraceCounts,
        references: bool,
    ) -> Result<Rungs, String> {
        let compiled = || CompiledDeltaEncoder::new(&self.compiled);
        let mut host = vec![hostref::time()];
        let mut times = Vec::new();
        let mut sample = |seconds: f64| {
            times.push(seconds);
            host.push(hostref::time());
        };

        let run = self.run_real(&mut compiled(), false, None)?;
        sample(run.time);
        self.check_pin(run.counts, &run.collected)?;
        let (decode, _) = self.decode(&run.collected);
        drop(run);
        sample(self.timed(&mut NullEncoder, &mut NullCollector)?.0);
        sample(
            self.timed(&mut NoCapture(compiled()), &mut NullCollector)?
                .0,
        );
        sample(self.timed(&mut compiled(), &mut NullCollector)?.0);
        let real = self.run_real(&mut compiled(), false, None)?;
        sample(real.time);
        self.check_pin(real.counts, &real.collected)?;
        drop(real);

        // The traced run: counting adaptors around the encoder and the
        // collector, the VM reporting into the span profiler.
        let sink: Arc<dyn Telemetry> = prof.clone();
        let mut enc = Counted::new(compiled());
        let traced = span(prof.as_ref(), "bench.run", || {
            self.run_real(&mut enc, true, Some(sink))
        })?;
        sample(traced.time);
        self.check_pin(traced.counts, &traced.collected)?;
        let (_, decoded) = span(prof.as_ref(), "bench.decode", || {
            self.decode(&traced.collected)
        });
        let ops = enc.inner.counts();
        let (records, record) = traced.records.as_ref().expect("the traced run counts");
        counts.calls += enc.calls;
        counts.captures += enc.captures;
        counts.frames += enc.frames;
        counts.observe_ns += enc.observe.mean_ns() * enc.captures as f64;
        counts.records += records;
        counts.record_ns += record.mean_ns() * *records as f64;
        counts.decoded += decoded;
        counts.adds += ops.adds;
        counts.sid_checks += ops.sid_checks;
        counts.pushes += ops.pushes;
        drop(traced);

        let host_speed = median(&host);
        let scaled: Vec<f64> = (0..times.len())
            .map(|i| times[i] * host_speed / ((host[i] + host[i + 1]) / 2.0))
            .collect();
        let mut r = Rungs {
            run: scaled[0],
            native: scaled[1],
            hooks: scaled[2],
            captures: scaled[3],
            real: scaled[4],
            traced: scaled[5],
            decode,
            ..Rungs::default()
        };
        if references {
            r.stackwalk = self
                .run_real(&mut StackWalkEncoder::full(), false, None)?
                .time;
            r.batched = self
                .run_real(&mut BatchedDeltaEncoder::new(&self.compiled), false, None)?
                .time;
        }
        Ok(r)
    }
}

/// Drives `enc` through a replay script as the interpreter would: entry
/// and call hooks on the way down, exit and return hooks on the way up, a
/// capture at every method entry.
fn replay<E: ContextEncoder, C: Collector>(r: &Replay, enc: &mut E, col: &mut C) -> Counts {
    enc.thread_start(r.entry);
    let capture = enc.observe(r.entry);
    col.record_entry(r.entry, 1, capture);
    let mut frames: Vec<(SiteId, MethodId, E::CallToken, E::EntryToken)> = Vec::with_capacity(64);
    let mut calls = 1u64;
    for &op in &r.ops {
        if op == Replay::RET {
            let (site, method, call, entry) = frames.pop().expect("replay returns match calls");
            enc.on_exit(method, entry);
            enc.on_return(site, call);
        } else {
            let (site, callee) = r.edges[op as usize];
            let call = enc.on_call(site);
            let entry = enc.on_entry(callee, Some(site));
            frames.push((site, callee, call, entry));
            let capture = enc.observe(callee);
            col.record_entry(callee, frames.len() + 1, capture);
            calls += 1;
        }
    }
    while let Some((site, method, call, entry)) = frames.pop() {
        enc.on_exit(method, entry);
        enc.on_return(site, call);
    }
    Counts {
        calls,
        observes: 0,
        entries: calls,
    }
}
