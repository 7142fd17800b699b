//! The `deltapath` command-line tool: explore the bundled workloads, their
//! call graphs and encoding plans, and run them under any of the encoders.
//!
//! ```text
//! deltapath list
//! deltapath inspect <benchmark> [--scope app|all] [--width BITS]
//! deltapath dot <benchmark> [--scope app|all]
//! deltapath run <benchmark> [--encoder native|pcc|deltapath|deltapath-nocpt|compiled|compiled-nocpt|batched|batched-nocpt|stackwalk|cct]
//! deltapath decode <benchmark>     # run, capture, decode a few contexts
//! deltapath report <benchmark> [--encoder NAME] [--json]   # run report (summary or JSON)
//! deltapath report --from FILE [--json]                    # re-read a saved report
//! deltapath trace <benchmark> [--encoder NAME] [--chrome FILE]  # JSON lines / Chrome trace
//! deltapath flamegraph <benchmark> [--contexts|--spans] [--out FILE]
//! deltapath flamegraph --all --check               # validate against the stack-walk oracle
//! deltapath lint <benchmark>|--all [--json] [--deny-warnings] [--scope app|all] [--width BITS]
//!     [--workers N] [--baseline FILE] [--plan-out FILE]
//! deltapath import <file> [--lint] [--dot] [--render] [--width BITS] [--budget N]
//!     [--workers N] [--baseline FILE] [--plan-out FILE]                # deltapath.graph.v1
//! deltapath diff <old.plan> <new.plan> [--json]    # semantic plan diff (deltapath.diff.v1)
//! deltapath generate [--methods N] [--seed S] [--out FILE]             # scale graph to file
//! ```

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;

use deltapath::baselines::{CctEncoder, PccEncoder, PccWidth};
use deltapath::callgraph::skeleton_for_graph;
use deltapath::telemetry::Json;
use deltapath::workloads::scale::ScaleConfig;
use deltapath::workloads::specjvm::{program, suite};
use deltapath::{
    audit_delta, audit_plan_full, audit_plan_with, diff_plans, parse_graph, parse_plan,
    render_graph, render_plan, Analysis, AuditBaseline, AuditOptions, AuditReport,
    BatchedDeltaEncoder, CallGraph, Capture, CollectMode, CompiledDeltaEncoder, ContextEncoder,
    ContextProfile, ContextStats, DeltaEncoder, EncodingPlan, EncodingWidth, EventLog,
    FoldedStacks, GraphConfig, GraphStats, ImportError, ImportedPlan, NullCollector, NullEncoder,
    NullTelemetry, PlanConfig, PlanParseError, Program, RunReport, ScopeFilter, SpanProfiler,
    StackWalkEncoder, Telemetry, Vm, VmConfig,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("inspect") => cmd_inspect(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("decode") => cmd_decode(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("flamegraph") => cmd_flamegraph(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("import") => cmd_import(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("generate") => cmd_generate(&args[1..]),
        _ => {
            eprintln!(
                "usage: deltapath <list|inspect|dot|run|decode|report|trace|flamegraph|lint> [benchmark] [options]\n\
                 \n\
                 list                      list the bundled SPECjvm2008-like benchmarks\n\
                 inspect <bench>           static characteristics and encoding plan summary\n\
                 \x20   --scope app|all    selective vs full encoding (default: app)\n\
                 \x20   --width BITS       encoding integer width (default: 64)\n\
                 dot <bench>               print the encoded call graph in Graphviz format\n\
                 run <bench>               execute under an encoder and report costs\n\
                 \x20   --encoder NAME     native|pcc|deltapath|deltapath-nocpt|\n\
                 \x20                      compiled|compiled-nocpt|batched|batched-nocpt|\n\
                 \x20                      stackwalk|cct\n\
                 decode <bench>            run, capture, and decode example contexts\n\
                 report <bench>            run with telemetry; print a human-readable summary\n\
                 \x20                      (histograms as p50/p90/p99 upper bounds)\n\
                 \x20   --json             the full machine-readable report instead\n\
                 \x20   --encoder NAME     as for `run` (default: deltapath)\n\
                 \x20   --from FILE        read a saved report (JSON or JSONL) instead of running\n\
                 trace <bench>             like `report --json`, but printed as JSON lines\n\
                 \x20   --chrome FILE      write a Chrome trace-event file (deltapath.trace.v2)\n\
                 \x20                      of the span tree instead of printing JSONL\n\
                 flamegraph <bench>        folded flamegraph stacks (inferno-compatible) on stdout\n\
                 \x20   --contexts         decoded calling contexts weighted by entries (default)\n\
                 \x20   --spans            self-time of the analysis/audit/run span tree\n\
                 \x20   --encoder NAME     deltapath|deltapath-nocpt|compiled|compiled-nocpt|\n\
                 \x20                      batched|batched-nocpt|stackwalk\n\
                 \x20   --scope app|all    selective vs full encoding (default: app)\n\
                 \x20   --out FILE         write to FILE instead of stdout\n\
                 \x20   --check [--all]    validate flamegraphs against the stack-walk oracle\n\
                 lint <bench>|--all        statically audit the encoding plan (DP0xx diagnostics)\n\
                 \x20   --json             machine-readable report (schema deltapath.lint.v1)\n\
                 \x20   --deny-warnings    exit with failure on warnings, not just errors\n\
                 \x20   --scope app|all    selective vs full encoding (default: app)\n\
                 \x20   --width BITS       encoding integer width (default: 64)\n\
                 \x20   --workers N        parallel per-anchor audit workers (default: 1)\n\
                 \x20   --baseline FILE    incremental re-audit against a previously linted\n\
                 \x20                      deltapath.plan.v1 file (identical diagnostics,\n\
                 \x20                      only the impacted region re-runs)\n\
                 \x20   --plan-out FILE    write the audited plan (deltapath.plan.v1)\n\
                 import <file>             plan an external deltapath.graph.v1 call graph\n\
                 \x20   --lint             audit the resulting plan (DP0xx diagnostics)\n\
                 \x20   --dot              print the imported graph in Graphviz format\n\
                 \x20   --render           re-render the canonical deltapath.graph.v1 form\n\
                 \x20   --width BITS       encoding integer width (default: 64)\n\
                 \x20   --budget N         territory budget: bound anchor-free path counts\n\
                 \x20                      (extra anchors, near-linear planning; try 16-64)\n\
                 \x20   --workers N        parallel per-anchor audit workers (with --lint)\n\
                 \x20   --baseline FILE    incremental --lint against a deltapath.plan.v1 file\n\
                 \x20   --plan-out FILE    write the resulting plan (deltapath.plan.v1)\n\
                 diff <old> <new>          semantically compare two deltapath.plan.v1 files\n\
                 \x20                      (DP05x diagnostics; anchors, tables, territories,\n\
                 \x20                      SIDs, instructions)\n\
                 \x20   --json             machine-readable report (schema deltapath.diff.v1)\n\
                 generate                  write a seeded scale graph (deltapath.graph.v1)\n\
                 \x20   --methods N        graph size (default: 10000)\n\
                 \x20   --seed S           generator seed (default: 42)\n\
                 \x20   --out FILE         write to FILE instead of stdout"
            );
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn load(args: &[String]) -> Result<Program, String> {
    let name = args.first().ok_or("missing benchmark name")?;
    program(name).ok_or_else(|| {
        format!("unknown benchmark {name:?}; run `deltapath list` to see the available ones")
    })
}

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn scope_of(args: &[String]) -> Result<ScopeFilter, String> {
    match flag(args, "--scope").as_deref() {
        None | Some("app") => Ok(ScopeFilter::ApplicationOnly),
        Some("all") => Ok(ScopeFilter::All),
        Some(other) => Err(format!("unknown scope {other:?} (use app|all)")),
    }
}

fn width_of(args: &[String]) -> Result<EncodingWidth, String> {
    match flag(args, "--width") {
        None => Ok(EncodingWidth::U64),
        Some(w) => match w.parse::<u8>() {
            Ok(bits @ 1..=127) => Ok(EncodingWidth::new(bits)),
            _ => Err(format!("bad --width value {w:?} (use 1..=127)")),
        },
    }
}

fn cmd_list() -> Result<(), String> {
    println!("bundled benchmarks (seeded synthetic stand-ins for SPECjvm2008):");
    for bench in suite() {
        let p = bench.program();
        println!(
            "  {:<22} {:>5} classes {:>6} methods {:>6} call sites",
            bench.name,
            p.classes().len(),
            p.methods().len(),
            p.sites().len()
        );
    }
    Ok(())
}

fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let p = load(args)?;
    let scope = scope_of(args)?;
    let config = PlanConfig::default()
        .with_scope(scope)
        .with_width(width_of(args)?);
    let graph = CallGraph::build(
        &p,
        &GraphConfig {
            analysis: Analysis::Cha,
            scope,
            include_dynamic: false,
        },
    );
    let stats = GraphStats::compute(&p, &graph);
    println!("{}:", p.name());
    println!(
        "  call graph: {} nodes, {} edges, {} call sites ({} virtual), {} roots",
        stats.nodes,
        stats.edges,
        stats.call_sites,
        stats.virtual_call_sites,
        graph.roots().len()
    );
    let plan = EncodingPlan::analyze(&p, &config).map_err(|e| e.to_string())?;
    let enc = plan.encoding();
    println!(
        "  plan ({} encoding): {} instrumented methods, {} sites with ID arithmetic",
        config.width,
        plan.instrumented_method_count(),
        plan.instrumented_site_count()
    );
    println!(
        "  anchors: {} total ({} from overflow, {} analysis restarts)",
        enc.anchors.len(),
        enc.overflow_anchor_count(),
        enc.restarts
    );
    println!(
        "  encoding space: max ICC {} (max ID {})",
        enc.max_icc,
        enc.required_max_id()
    );
    println!("  SID sets: {}", plan.sids().set_count());
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let p = load(args)?;
    let scope = scope_of(args)?;
    let graph = CallGraph::build(
        &p,
        &GraphConfig {
            analysis: Analysis::Cha,
            scope,
            include_dynamic: false,
        },
    );
    print!("{}", graph.to_dot(&p));
    Ok(())
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let p = load(args)?;
    let encoder_name = flag(args, "--encoder").unwrap_or_else(|| "deltapath".to_owned());
    let plan_config = PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly);
    let plan = EncodingPlan::analyze(&p, &plan_config).map_err(|e| e.to_string())?;
    // The no-CPT plan is a second full analysis: only the `-nocpt`
    // encoders pay for it.
    let nocpt = || {
        EncodingPlan::analyze(&p, &plan_config.clone().with_cpt(false)).map_err(|e| e.to_string())
    };
    let vm_config = VmConfig::default().with_collect(CollectMode::Entries);

    let started = std::time::Instant::now();
    let (run, counts, unique) = match encoder_name.as_str() {
        "native" => {
            let mut vm = Vm::new(&p, vm_config);
            let run = vm
                .run(&mut NullEncoder, &mut NullCollector)
                .map_err(|e| e.to_string())?;
            (run, Default::default(), 0)
        }
        "pcc" => run_one(
            &p,
            vm_config,
            PccEncoder::from_plan(&plan, PccWidth::Bits32),
        )?,
        "deltapath" => run_one(&p, vm_config, DeltaEncoder::new(&plan))?,
        "deltapath-nocpt" => run_one(&p, vm_config, DeltaEncoder::new(&nocpt()?))?,
        "compiled" => {
            let compiled = plan.compile();
            run_one(&p, vm_config, CompiledDeltaEncoder::new(&compiled))?
        }
        "compiled-nocpt" => {
            let compiled = nocpt()?.compile();
            run_one(&p, vm_config, CompiledDeltaEncoder::new(&compiled))?
        }
        "batched" => {
            let compiled = plan.compile();
            run_one(&p, vm_config, BatchedDeltaEncoder::new(&compiled))?
        }
        "batched-nocpt" => {
            let compiled = nocpt()?.compile();
            run_one(&p, vm_config, BatchedDeltaEncoder::new(&compiled))?
        }
        "stackwalk" => run_one(&p, vm_config, StackWalkEncoder::full())?,
        "cct" => run_one(&p, vm_config, CctEncoder::new())?,
        other => return Err(format!("unknown encoder {other:?}")),
    };
    let elapsed = started.elapsed();
    println!(
        "{} under {encoder_name}: {} calls, base cost {}, wall time {:.2?}",
        p.name(),
        run.calls,
        run.base_cost,
        elapsed
    );
    println!(
        "  encoder ops: adds {}, subs {}, hashes {}, sid checks {}, pushes {}, pops {}, walked {}",
        counts.adds,
        counts.subs,
        counts.hashes,
        counts.sid_checks,
        counts.pushes,
        counts.pops,
        counts.walked_frames
    );
    if unique > 0 {
        println!("  unique contexts captured: {unique}");
    }
    Ok(())
}

fn run_one<E: ContextEncoder>(
    p: &Program,
    vm_config: VmConfig,
    mut encoder: E,
) -> Result<(deltapath::RunStats, deltapath::OpCounts, usize), String> {
    let mut vm = Vm::new(p, vm_config);
    let mut stats = ContextStats::new();
    let run = vm
        .run(&mut encoder, &mut stats)
        .map_err(|e| e.to_string())?;
    Ok((run, encoder.counts(), stats.unique_contexts()))
}

fn cmd_decode(args: &[String]) -> Result<(), String> {
    let p = load(args)?;
    let plan = EncodingPlan::analyze(
        &p,
        &PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly),
    )
    .map_err(|e| e.to_string())?;
    let mut vm = Vm::new(
        &p,
        VmConfig::default().with_collect(CollectMode::ObservesOnly),
    );
    let mut encoder = DeltaEncoder::new(&plan);
    let mut log = EventLog::default();
    vm.run(&mut encoder, &mut log).map_err(|e| e.to_string())?;

    let decoder = plan.decoder();
    let mut by_context: HashMap<Vec<String>, usize> = HashMap::new();
    let mut outside = 0usize;
    let mut errors = 0usize;
    for (_, at, capture) in &log.events {
        if plan.entry(*at).is_none() {
            // The event fired inside unencoded (library) code: under
            // selective encoding there is no context to decode there.
            outside += 1;
            continue;
        }
        let Capture::Delta(ctx) = capture else {
            continue;
        };
        match decoder.decode(ctx) {
            Ok(context) => {
                let pretty: Vec<String> = context.iter().map(|&m| p.method_name(m)).collect();
                *by_context.entry(pretty).or_default() += 1;
            }
            Err(_) => errors += 1,
        }
    }
    println!(
        "{}: {} events ({} in unencoded library code, skipped), {} distinct contexts, {} decode failures",
        p.name(),
        log.events.len(),
        outside,
        by_context.len(),
        errors
    );
    let mut ranked: Vec<_> = by_context.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    for (context, count) in ranked.iter().take(10) {
        println!("{count:>8}x  {}", context.join(" -> "));
    }
    Ok(())
}

/// Runs `bench` under `--encoder` with a hierarchical [`SpanProfiler`]
/// attached end to end — plan analysis, the static plan audit, and the VM
/// run all record their nested spans (and every metric) into it.
fn profiled_run(args: &[String]) -> Result<(Program, String, Arc<SpanProfiler>), String> {
    let p = load(args)?;
    let encoder_name = flag(args, "--encoder").unwrap_or_else(|| "deltapath".to_owned());
    let profiler = Arc::new(SpanProfiler::new());
    let sink: &dyn Telemetry = profiler.as_ref();
    let plan_config = PlanConfig::default().with_scope(ScopeFilter::ApplicationOnly);
    let vm_config = VmConfig::default()
        .with_collect(CollectMode::Entries)
        .with_telemetry(profiler.clone());
    let analyzed = |config: &PlanConfig| -> Result<EncodingPlan, String> {
        let plan = EncodingPlan::analyze_with(&p, config, sink).map_err(|e| e.to_string())?;
        audit_plan_with(&p, &plan, sink);
        Ok(plan)
    };
    match encoder_name.as_str() {
        "native" => {
            run_one(&p, vm_config, NullEncoder)?;
        }
        "pcc" => {
            let plan = analyzed(&plan_config)?;
            run_one(
                &p,
                vm_config,
                PccEncoder::from_plan(&plan, PccWidth::Bits32),
            )?;
        }
        "deltapath" => {
            let plan = analyzed(&plan_config)?;
            run_one(&p, vm_config, DeltaEncoder::new(&plan))?;
        }
        "deltapath-nocpt" => {
            let plan = analyzed(&plan_config.with_cpt(false))?;
            run_one(&p, vm_config, DeltaEncoder::new(&plan))?;
        }
        "compiled" => {
            let plan = analyzed(&plan_config)?;
            let compiled = plan.compile();
            run_one(&p, vm_config, CompiledDeltaEncoder::new(&compiled))?;
        }
        "compiled-nocpt" => {
            let plan = analyzed(&plan_config.with_cpt(false))?;
            let compiled = plan.compile();
            run_one(&p, vm_config, CompiledDeltaEncoder::new(&compiled))?;
        }
        "batched" => {
            let plan = analyzed(&plan_config)?;
            let compiled = plan.compile();
            run_one(&p, vm_config, BatchedDeltaEncoder::new(&compiled))?;
        }
        "batched-nocpt" => {
            let plan = analyzed(&plan_config.with_cpt(false))?;
            let compiled = plan.compile();
            run_one(&p, vm_config, BatchedDeltaEncoder::new(&compiled))?;
        }
        "stackwalk" => {
            run_one(&p, vm_config, StackWalkEncoder::full())?;
        }
        "cct" => {
            run_one(&p, vm_config, CctEncoder::new())?;
        }
        other => return Err(format!("unknown encoder {other:?}")),
    }
    Ok((p, encoder_name, profiler))
}

/// Runs `bench` instrumented (see [`profiled_run`]) and freezes the result
/// into a [`RunReport`].
fn telemetry_report(args: &[String]) -> Result<RunReport, String> {
    let (p, encoder_name, profiler) = profiled_run(args)?;
    Ok(profiler
        .report(p.name())
        .with_meta("benchmark", p.name())
        .with_meta("encoder", &encoder_name)
        .with_meta("scope", "app"))
}

/// Parses a saved report in either serialization: a single JSON document
/// (`report` output) or JSON lines (`trace` output).
fn parse_report(text: &str) -> Result<RunReport, String> {
    RunReport::from_json(text)
        .or_else(|_| RunReport::from_jsonl(text))
        .map_err(|e| format!("not a run report in JSON or JSONL form: {e}"))
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let json = args.iter().any(|a| a == "--json");
    let report = if let Some(path) = flag(args, "--from") {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        parse_report(&text)?
    } else {
        telemetry_report(args)?
    };
    if json {
        println!("{}", report.to_json());
    } else {
        print_report_summary(&report);
    }
    Ok(())
}

/// The human-readable face of a [`RunReport`]: every counter and gauge,
/// histograms condensed to p50/p90/p99 upper bounds (the inclusive limit
/// of the log2 bucket holding the quantile) instead of raw bucket dumps.
/// `--json` keeps the full bucket data under the stable schema.
fn print_report_summary(r: &RunReport) {
    let meta: Vec<String> = r.meta.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("{} ({})", r.name, meta.join(", "));
    if !r.counters.is_empty() {
        println!("counters:");
        for (name, value) in &r.counters {
            println!("  {name:<44} {value}");
        }
    }
    if !r.gauges.is_empty() {
        println!("gauges:");
        for (name, value) in &r.gauges {
            println!("  {name:<44} {value}");
        }
    }
    if !r.histograms.is_empty() {
        println!("histograms:");
        for (name, h) in &r.histograms {
            println!(
                "  {name:<44} n={} p50<={} p90<={} p99<={} sum={}",
                h.count,
                h.quantile_limit(0.5),
                h.quantile_limit(0.9),
                h.quantile_limit(0.99),
                h.sum
            );
        }
    }
    println!(
        "events: {} buffered, {} dropped (see `deltapath trace` for the full stream)",
        r.events.len(),
        r.dropped_events
    );
}

fn cmd_trace(args: &[String]) -> Result<(), String> {
    let chrome = flag(args, "--chrome");
    let (p, encoder_name, profiler) = profiled_run(args)?;
    if let Some(path) = chrome {
        let snapshot = profiler.snapshot();
        let trace = snapshot.chrome_trace(p.name());
        std::fs::write(&path, &trace).map_err(|e| format!("cannot write {path:?}: {e}"))?;
        println!(
            "wrote Chrome trace for {} under {encoder_name} to {path} \
             ({} lanes, {} span nodes; load in chrome://tracing or Perfetto)",
            p.name(),
            snapshot.lanes.len(),
            snapshot.tree.len()
        );
        return Ok(());
    }
    let report = profiler
        .report(p.name())
        .with_meta("benchmark", p.name())
        .with_meta("encoder", &encoder_name)
        .with_meta("scope", "app");
    print!("{}", report.to_jsonl());
    Ok(())
}

/// Runs `p` under `encoder`, counting entries per distinct captured context
/// with a [`ContextProfile`].
fn profile_entries<E: ContextEncoder>(
    p: &Program,
    mut encoder: E,
) -> Result<ContextProfile, String> {
    let mut vm = Vm::new(p, VmConfig::default().with_collect(CollectMode::Entries));
    let mut profile = ContextProfile::new();
    vm.run(&mut encoder, &mut profile)
        .map_err(|e| e.to_string())?;
    Ok(profile)
}

/// The *context flamegraph*: folded call stacks weighted by entry counts,
/// decoded from the captures `encoder_name` produced under `scope`.
fn context_folded(
    p: &Program,
    encoder_name: &str,
    scope: ScopeFilter,
) -> Result<(FoldedStacks, u64), String> {
    let plan_config = PlanConfig::default().with_scope(scope);
    let cpt = !encoder_name.ends_with("-nocpt");
    let plan = EncodingPlan::analyze(p, &plan_config.with_cpt(cpt)).map_err(|e| e.to_string())?;
    let profile = match encoder_name {
        "deltapath" | "deltapath-nocpt" => profile_entries(p, DeltaEncoder::new(&plan))?,
        "compiled" | "compiled-nocpt" => {
            let compiled = plan.compile();
            profile_entries(p, CompiledDeltaEncoder::new(&compiled))?
        }
        "batched" | "batched-nocpt" => {
            let compiled = plan.compile();
            profile_entries(p, BatchedDeltaEncoder::new(&compiled))?
        }
        "stackwalk" => profile_entries(p, StackWalkEncoder::full())?,
        other => {
            return Err(format!(
                "encoder {other:?} does not produce decodable contexts \
                 (use deltapath|deltapath-nocpt|compiled|compiled-nocpt|\
                 batched|batched-nocpt|stackwalk)"
            ))
        }
    };
    Ok(profile.folded(p, &plan.decoder()))
}

/// Validates one benchmark's flamegraph pipeline end to end against the
/// [`StackWalkEncoder`] shadow-stack oracle, under full-scope encoding.
///
/// The oracle is the walk run's stacks *filtered to plan-encoded methods*
/// (the same ground truth the differential suite uses), keeping only
/// entries whose true stack never crosses unencoded code. For closed-world
/// benchmarks that is every entry, and the DeltaPath/compiled context
/// flamegraphs must match it *exactly* — same stacks, same entry counts,
/// nothing skipped. Benchmarks with dynamic class loading keep the exact
/// check on the fully-encoded subset (each oracle stack's count is a lower
/// bound on the decoded count, since a path through dynamic code may
/// legitimately decode to the same filtered stack), plus conservation:
/// both runs must account for every recorded entry. In all cases the
/// DeltaPath and compiled encoders must agree stack for stack, the folded
/// text must round-trip through [`FoldedStacks::parse`], and the span
/// flamegraph's Chrome trace must be well-formed `deltapath.trace.v2`
/// JSON.
fn check_flamegraph(p: &Program) -> Result<(), String> {
    use deltapath::ir::Origin;
    use deltapath::runtime::fold_path;

    let name = p.name().to_owned();
    let closed = p.classes().iter().all(|c| c.origin() != Origin::Dynamic);
    let plan = EncodingPlan::analyze(p, &PlanConfig::default().with_scope(ScopeFilter::All))
        .map_err(|e| e.to_string())?;

    // The oracle map: walked stacks filtered to planned methods.
    let walk_profile = profile_entries(p, StackWalkEncoder::full())?;
    let mut oracle = FoldedStacks::new();
    let mut outside = 0u64; // entries at methods the plan never encoded
    let mut through_dynamic = 0u64; // planned entries reached across unencoded frames
    for (capture, count) in walk_profile.counts() {
        let Capture::Walk(stack) = capture else {
            unreachable!("walk run captures Walk")
        };
        let at = *stack.last().expect("non-empty walked stack");
        if plan.entry(at).is_none() {
            outside += count;
        } else if stack.iter().any(|&m| plan.entry(m).is_none()) {
            through_dynamic += count;
        } else {
            oracle.add(&fold_path(p, stack), count);
        }
    }

    let (delta, delta_skipped) = context_folded(p, "deltapath", ScopeFilter::All)?;
    let (compiled, compiled_skipped) = context_folded(p, "compiled", ScopeFilter::All)?;
    if delta != compiled || delta_skipped != compiled_skipped {
        return Err(format!(
            "{name}: DeltaPath and compiled context flamegraphs diverge"
        ));
    }
    if delta.total() + delta_skipped != walk_profile.total() {
        return Err(format!(
            "{name}: entry conservation failed ({} folded + {} skipped != {} recorded)",
            delta.total(),
            delta_skipped,
            walk_profile.total()
        ));
    }
    if closed {
        if delta != oracle || delta_skipped > 0 || outside > 0 || through_dynamic > 0 {
            let diff = delta
                .iter()
                .find(|&(stack, w)| oracle.get(stack) != Some(w));
            return Err(format!(
                "{name}: context flamegraph diverges from the stack-walk oracle \
                 ({delta_skipped} skipped; first difference: {diff:?})"
            ));
        }
    } else {
        for (stack, truth_count) in oracle.iter() {
            let decoded = delta.get(stack);
            if decoded.is_none() || decoded < Some(truth_count) {
                return Err(format!(
                    "{name}: oracle stack {stack:?} has {truth_count} entries but \
                     the context flamegraph decoded {decoded:?}"
                ));
            }
        }
    }
    let rendered = delta.render();
    let parsed = FoldedStacks::parse(&rendered)
        .map_err(|e| format!("{name}: folded output does not re-parse: {e}"))?;
    if parsed != delta {
        return Err(format!("{name}: folded render/parse round-trip lost data"));
    }

    // Span side: an instrumented run must produce a non-empty span tree
    // whose Chrome trace export is well-formed.
    let run_args = vec![name.clone()];
    let (_, _, profiler) = profiled_run(&run_args)?;
    let snapshot = profiler.snapshot();
    if snapshot.tree.total_at(&["vm.run"]).is_none() {
        return Err(format!("{name}: span tree is missing the vm.run root span"));
    }
    if snapshot.folded().is_empty() {
        return Err(format!("{name}: span flamegraph is empty"));
    }
    let chrome = snapshot.chrome_trace(&name);
    let parsed =
        Json::parse(&chrome).map_err(|e| format!("{name}: Chrome trace is not valid JSON: {e}"))?;
    let schema = parsed
        .get("otherData")
        .and_then(|d| d.get("schema"))
        .and_then(Json::as_str);
    if schema != Some(deltapath::telemetry::TRACE_SCHEMA) {
        return Err(format!("{name}: Chrome trace schema tag missing or wrong"));
    }
    println!(
        "{name}: ok ({} context stacks vs {} oracle stacks{}, {} span nodes, {} lanes)",
        delta.len(),
        oracle.len(),
        if closed {
            String::new()
        } else {
            format!(", {through_dynamic}+{outside} entries touching dynamic code")
        },
        snapshot.tree.len(),
        snapshot.lanes.len()
    );
    Ok(())
}

/// `deltapath flamegraph`: folded-stack output (`--contexts` decodes
/// captured calling contexts, `--spans` reports span-tree self time), or
/// `--check` validation of the whole pipeline against the stack-walk
/// oracle (the CI gate, usually with `--all`).
fn cmd_flamegraph(args: &[String]) -> Result<(), String> {
    let spans_mode = args.iter().any(|a| a == "--spans");
    let contexts_mode = args.iter().any(|a| a == "--contexts");
    if spans_mode && contexts_mode {
        return Err("--contexts and --spans are mutually exclusive".to_owned());
    }
    if args.iter().any(|a| a == "--check") {
        let programs: Vec<Program> = if args.iter().any(|a| a == "--all") {
            suite().iter().map(|b| b.program()).collect()
        } else {
            vec![load(args)?]
        };
        for p in &programs {
            check_flamegraph(p)?;
        }
        return Ok(());
    }
    let text = if spans_mode {
        let (_, _, profiler) = profiled_run(args)?;
        profiler.snapshot().folded().render()
    } else {
        let p = load(args)?;
        let encoder_name = flag(args, "--encoder").unwrap_or_else(|| "deltapath".to_owned());
        let (stacks, skipped) = context_folded(&p, &encoder_name, scope_of(args)?)?;
        if skipped > 0 {
            eprintln!("note: {skipped} entries had undecodable captures and were skipped");
        }
        stacks.render()
    };
    match flag(args, "--out") {
        Some(path) => {
            std::fs::write(&path, &text).map_err(|e| format!("cannot write {path:?}: {e}"))?;
            println!(
                "wrote {} folded stack lines to {path} (render with inferno/flamegraph.pl)",
                text.lines().count()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}

/// Reads and parses a `deltapath.plan.v1` file.
fn load_plan(path: &str) -> Result<ImportedPlan, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
    match parse_plan(std::io::BufReader::new(file)) {
        Ok(p) => Ok(p),
        Err(PlanParseError::Io(e)) => Err(format!("cannot read {path:?}: {e}")),
        Err(PlanParseError::Invalid(diags)) => {
            for d in &diags {
                eprintln!("{path}: {d}");
            }
            Err(format!(
                "{path}: plan parse failed with {} diagnostic(s)",
                diags.len()
            ))
        }
    }
}

/// Writes a plan to `path` in canonical `deltapath.plan.v1` form.
fn write_plan(plan: &EncodingPlan, name: &str, path: &str) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
    let mut out = std::io::BufWriter::new(file);
    render_plan(plan, name, &mut out).map_err(|e| format!("cannot write {path:?}: {e}"))
}

/// Parses `--workers N` into [`AuditOptions`] (no baseline capture — the
/// CLI re-derives baselines from plan files instead of holding them).
fn audit_options_of(args: &[String]) -> Result<AuditOptions, String> {
    let workers = match flag(args, "--workers") {
        None => 1,
        Some(w) => w
            .parse::<usize>()
            .ok()
            .filter(|&w| w >= 1)
            .ok_or_else(|| format!("bad --workers value {w:?} (use an integer >= 1)"))?,
    };
    Ok(AuditOptions::default()
        .with_workers(workers)
        .without_baseline())
}

/// Audits `plan` fully, or incrementally against `--baseline FILE` (a
/// previously linted `deltapath.plan.v1` — the file's clean lint is the
/// certification the delta audit builds on). Prints the certified /
/// re-audited split in incremental mode.
fn audited_report(
    p: &Program,
    plan: &EncodingPlan,
    args: &[String],
    quiet: bool,
) -> Result<AuditReport, String> {
    let opts = audit_options_of(args)?;
    match flag(args, "--baseline") {
        Some(path) => {
            let old = load_plan(&path)?;
            let baseline = AuditBaseline::assume_clean(&old.plan);
            let outcome = audit_delta(p, plan, &old.plan, &baseline, &opts, &NullTelemetry);
            if !quiet {
                eprintln!(
                    "incremental audit vs {path}: {} anchors certified, {} re-audited",
                    outcome.certified, outcome.reaudited
                );
            }
            Ok(outcome.report)
        }
        None => Ok(audit_plan_full(p, plan, &opts, &NullTelemetry).report),
    }
}

/// Statically audits one benchmark's (or every benchmark's) encoding plan
/// with [`deltapath::audit_plan`] and reports the `DP0xx` diagnostics.
/// Exits with failure on any error-severity finding, or on any finding at
/// all under `--deny-warnings`.
fn cmd_lint(args: &[String]) -> Result<(), String> {
    let json = args.iter().any(|a| a == "--json");
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let scope = scope_of(args)?;
    let config = PlanConfig::default()
        .with_scope(scope)
        .with_width(width_of(args)?);

    let all = args.iter().any(|a| a == "--all");
    let programs: Vec<Program> = if all {
        suite().iter().map(|b| b.program()).collect()
    } else {
        vec![load(args)?]
    };
    let plan_out = flag(args, "--plan-out");
    if plan_out.is_some() && all {
        return Err("--plan-out needs a single benchmark, not --all".to_owned());
    }

    let mut errors = 0usize;
    let mut warnings = 0usize;
    for p in &programs {
        let plan = EncodingPlan::analyze(p, &config)
            .map_err(|e| format!("{}: plan analysis failed: {e}", p.name()))?;
        let report = audited_report(p, &plan, args, json)?;
        errors += report.errors();
        warnings += report.warnings();
        if json {
            println!("{}", report.to_json(p.name()));
        } else {
            for d in &report.diagnostics {
                println!("{}: {d}", p.name());
            }
            println!(
                "{}: {} nodes, {} edges, {} anchors — {} errors, {} warnings",
                p.name(),
                report.nodes,
                report.edges,
                report.anchors,
                report.errors(),
                report.warnings()
            );
        }
        if let Some(path) = &plan_out {
            write_plan(&plan, p.name(), path)?;
        }
    }
    if errors > 0 || (deny_warnings && warnings > 0) {
        Err(format!(
            "lint failed: {errors} errors, {warnings} warnings across {} plans",
            programs.len()
        ))
    } else {
        Ok(())
    }
}

/// `deltapath diff <old.plan> <new.plan>`: semantically compare two plan
/// files layer by layer and report classified `DP05x` differences.
/// Differences are informational — the exit status only reflects whether
/// the files could be read and compared.
fn cmd_diff(args: &[String]) -> Result<(), String> {
    let json = args.iter().any(|a| a == "--json");
    let files: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    let [old_path, new_path] = files[..] else {
        return Err("usage: deltapath diff <old.plan> <new.plan> [--json]".to_owned());
    };
    let old = load_plan(old_path)?;
    let new = load_plan(new_path)?;
    let diff = diff_plans(&old.plan, &new.plan);
    if json {
        println!("{}", diff.to_json(&old.name, &new.name));
        return Ok(());
    }
    for d in &diff.diagnostics {
        println!("{d}");
    }
    if diff.is_empty() {
        println!("{old_path} and {new_path} are semantically identical");
    } else {
        let counts: Vec<String> = diff
            .counts()
            .iter()
            .map(|(code, n)| format!("{} x{n}", code.code()))
            .collect();
        println!(
            "{old_path} ({} nodes) -> {new_path} ({} nodes): {} difference(s) [{}]",
            diff.old_nodes,
            diff.new_nodes,
            diff.counts().values().sum::<usize>(),
            counts.join(", ")
        );
    }
    Ok(())
}

/// `deltapath import <file>`: parse an external `deltapath.graph.v1` call
/// graph, plan it end to end against a skeleton program, and summarize (or
/// `--lint` / `--dot` / `--render` it).
fn cmd_import(args: &[String]) -> Result<(), String> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("missing graph file (deltapath.graph.v1 format)")?;
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
    let imported = match parse_graph(std::io::BufReader::new(file)) {
        Ok(g) => g,
        Err(ImportError::Io(e)) => return Err(format!("cannot read {path:?}: {e}")),
        Err(err) => {
            let diags = err.diagnostics();
            for d in diags {
                eprintln!("{path}: {d}");
            }
            return Err(format!(
                "{path}: import failed with {} diagnostic(s)",
                diags.len()
            ));
        }
    };
    for w in &imported.warnings {
        eprintln!("{path}: {w}");
    }
    let graph = imported.graph;
    let p = skeleton_for_graph(&imported.name, &graph);
    if args.iter().any(|a| a == "--render") {
        let mut out = std::io::stdout().lock();
        render_graph(&graph, &imported.name, &mut out)
            .map_err(|e| format!("cannot write to stdout: {e}"))?;
        return Ok(());
    }
    if args.iter().any(|a| a == "--dot") {
        let mut out = std::io::stdout().lock();
        graph
            .write_dot(&p, &mut out)
            .map_err(|e| format!("cannot write to stdout: {e}"))?;
        return Ok(());
    }
    let mut config = PlanConfig::default()
        .with_scope(ScopeFilter::All)
        .with_width(width_of(args)?)
        .with_batch_overflow();
    if let Some(b) = flag(args, "--budget") {
        let budget = b
            .parse::<u64>()
            .ok()
            .filter(|&b| b >= 1)
            .ok_or_else(|| format!("bad --budget value {b:?} (use an integer >= 1)"))?;
        config = config.with_territory_budget(budget);
    }
    let nodes = graph.node_count();
    let edges = graph.edge_count();
    let poly_sites = graph
        .instrumented_sites()
        .iter()
        .filter(|&&s| graph.site_edges(s).len() > 1)
        .count();
    let lint = args.iter().any(|a| a == "--lint");
    let plan = EncodingPlan::from_graph(&p, graph, &config).map_err(|e| e.to_string())?;
    println!(
        "{} ({path}): {nodes} nodes, {edges} edges, {poly_sites} polymorphic sites",
        imported.name
    );
    let enc = plan.encoding();
    println!(
        "  plan ({} encoding): {} instrumented methods, {} sites with ID arithmetic",
        config.width,
        plan.instrumented_method_count(),
        plan.instrumented_site_count()
    );
    println!(
        "  anchors: {} total ({} from overflow, {} analysis restarts)",
        enc.anchors.len(),
        enc.overflow_anchor_count(),
        enc.restarts
    );
    println!(
        "  encoding space: max ICC {} (max ID {})",
        enc.max_icc,
        enc.required_max_id()
    );
    if let Some(path) = flag(args, "--plan-out") {
        write_plan(&plan, &imported.name, &path)?;
        println!("  wrote plan ({}) to {path}", deltapath::PLAN_SCHEMA);
    }
    if lint {
        let report = audited_report(&p, &plan, args, false)?;
        for d in &report.diagnostics {
            println!("{}: {d}", imported.name);
        }
        println!(
            "  audit: {} errors, {} warnings",
            report.errors(),
            report.warnings()
        );
        if report.errors() > 0 {
            return Err(format!(
                "lint failed: {} errors in the imported plan",
                report.errors()
            ));
        }
    }
    Ok(())
}

/// `deltapath generate`: write a seeded scale call graph in
/// `deltapath.graph.v1` form, ready for `deltapath import`.
fn cmd_generate(args: &[String]) -> Result<(), String> {
    let methods = match flag(args, "--methods") {
        None => 10_000,
        Some(m) => m
            .parse::<usize>()
            .ok()
            .filter(|&m| m >= 2)
            .ok_or_else(|| format!("bad --methods value {m:?} (use an integer >= 2)"))?,
    };
    let seed = match flag(args, "--seed") {
        None => 42,
        Some(s) => s
            .parse::<u64>()
            .map_err(|_| format!("bad --seed value {s:?}"))?,
    };
    let cfg = ScaleConfig::default().with_methods(methods).with_seed(seed);
    let graph = cfg.build_graph();
    let name = format!("scale-{methods}-{seed}");
    match flag(args, "--out") {
        Some(path) => {
            let file =
                std::fs::File::create(&path).map_err(|e| format!("cannot create {path:?}: {e}"))?;
            let mut out = std::io::BufWriter::new(file);
            render_graph(&graph, &name, &mut out)
                .map_err(|e| format!("cannot write {path:?}: {e}"))?;
            println!(
                "wrote {} ({} nodes, {} edges) to {path}",
                name,
                graph.node_count(),
                graph.edge_count()
            );
        }
        None => {
            let mut out = std::io::stdout().lock();
            render_graph(&graph, &name, &mut out)
                .map_err(|e| format!("cannot write to stdout: {e}"))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_parsing() {
        let a = args(&["compress", "--scope", "all", "--width", "32"]);
        assert_eq!(flag(&a, "--scope").as_deref(), Some("all"));
        assert_eq!(flag(&a, "--width").as_deref(), Some("32"));
        assert_eq!(flag(&a, "--missing"), None);
        // Flag at the end without a value.
        let b = args(&["x", "--scope"]);
        assert_eq!(flag(&b, "--scope"), None);
    }

    #[test]
    fn scope_parsing() {
        assert_eq!(
            scope_of(&args(&["x"])).unwrap(),
            ScopeFilter::ApplicationOnly
        );
        assert_eq!(
            scope_of(&args(&["x", "--scope", "app"])).unwrap(),
            ScopeFilter::ApplicationOnly
        );
        assert_eq!(
            scope_of(&args(&["x", "--scope", "all"])).unwrap(),
            ScopeFilter::All
        );
        assert!(scope_of(&args(&["x", "--scope", "bogus"])).is_err());
    }

    #[test]
    fn width_parsing() {
        assert_eq!(width_of(&args(&["x"])).unwrap(), EncodingWidth::U64);
        assert_eq!(
            width_of(&args(&["x", "--width", "32"])).unwrap(),
            EncodingWidth::U32
        );
        // Out-of-range or garbage widths are errors, not panics.
        assert!(width_of(&args(&["x", "--width", "0"])).is_err());
        assert!(width_of(&args(&["x", "--width", "200"])).is_err());
        assert!(width_of(&args(&["x", "--width", "wide"])).is_err());
    }

    #[test]
    fn load_rejects_unknown_benchmarks() {
        assert!(load(&args(&["not-a-benchmark"])).is_err());
        assert!(load(&[]).is_err());
    }
}
