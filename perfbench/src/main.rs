//! End-to-end and per-layer benchmark of the DeltaPath pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload entry_profile --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Each workload goes through the public API as a user would: import,
//! plan and compile; run under `CompiledDeltaEncoder` (CPT on) with the
//! workload's collector; decode offline. With `--trace 0` the run reports
//! the end-to-end metrics (`setup_s`, `run_x_hostref`, `decode_x_hostref`,
//! `peak_heap_mib`), each the median of its samples; absolute run and
//! decode times go to the report. With `--trace 1` it reports per-layer
//! metrics instead, from a subtraction ladder (native → hooks → captures →
//! collector, each rung adding one layer) and a traced run with spans at
//! the layer boundaries. Every run also checks each in-scope capture
//! against the shadow-stack oracle, outside the timed region, and pins the
//! work. The last stdout line is the JSON result; a self-describing report
//! (and, traced, a Chrome trace) is written under `perfbench/out/`.

mod adaptors;
mod bench;
mod heap;
mod hostref;
mod inputs;
mod stats;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use deltapath::telemetry::Json;
use deltapath::SpanProfiler;

use bench::{inputs, setup, traced_setup, Pin, Rungs, Setup, TraceCounts, Unit, Workload};
use stats::{median, Metric};

/// Fewest timed rounds in a run, whatever `--seconds`.
const MIN_ROUNDS: usize = 2;
/// Ladder rounds in a traced run, whatever `--seconds`: three, so that
/// the medians of the layers are not means.
const LADDER_ROUNDS: usize = 3;
/// The ladder's layers must sum to the end-to-end run's median, timed
/// apart from the rungs, within this share of it.
const LADDER_TOLERANCE: f64 = 0.2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
    };
    let workload = value("--workload").ok_or("missing --workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let number = |flag: &str, default: &str| -> Result<u64, String> {
        let v = value(flag).unwrap_or(default);
        v.parse().map_err(|_| format!("bad {flag} value {v:?}"))
    };
    Ok(Args {
        workload,
        seed: number("--seed", "0")?,
        seconds: number("--seconds", "10")? as f64,
        trace: number("--trace", "0")? != 0,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload entry_profile|hook_only|event_log|import_100k \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(outcome) => {
            let report = outcome.report(&args);
            if let Err(e) = write_report(&args, &report, outcome.chrome.as_deref()) {
                eprintln!("warning: {e}");
            }
            println!("{}", outcome.result_line().to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything a run measured and checked.
struct Outcome {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    pins: Vec<(String, Pin)>,
    rounds: usize,
    tolerated: u64,
    chrome: Option<String>,
    /// Traced runs print every (per-layer) metric; untraced runs print
    /// the gated end-to-end metrics and keep the rest for the report.
    traced: bool,
}

impl Outcome {
    fn result_line(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.problems.is_empty())),
            ("attempted".into(), Json::from_u64(self.attempted.max(1))),
            ("failed".into(), Json::from_u64(self.failed)),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .filter(|m| m.gated || self.traced)
                        .map(|m| (m.name.clone(), m.result_json()))
                        .collect(),
                ),
            ),
        ])
    }

    fn report(&self, args: &Args) -> Json {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        let pins = self
            .pins
            .iter()
            .map(|(name, p)| {
                Json::Obj(vec![
                    ("program".into(), Json::Str(name.clone())),
                    ("calls".into(), Json::from_u64(p.calls)),
                    ("observes".into(), Json::from_u64(p.observes)),
                    ("entries".into(), Json::from_u64(p.entries)),
                    ("collected".into(), Json::from_u64(p.collected)),
                    ("contexts".into(), Json::from_u64(p.contexts)),
                    ("anchors".into(), Json::from_u64(p.anchors)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str("deltapath.perfbench.v1".into())),
            ("workload".into(), Json::Str(args.workload.name().into())),
            (
                "host".into(),
                Json::Obj(vec![
                    ("nproc".into(), Json::from_u64(nproc)),
                    ("profile".into(), Json::Str(profile.into())),
                    ("git_rev".into(), Json::Str(git_rev())),
                    ("seed".into(), Json::from_u64(args.seed)),
                    ("run_seconds".into(), Json::Float(args.seconds)),
                    ("traced".into(), Json::Bool(args.trace)),
                    ("threads".into(), Json::from_u64(1)),
                ]),
            ),
            ("rounds".into(), Json::from_u64(self.rounds as u64)),
            ("correct".into(), Json::Bool(self.problems.is_empty())),
            ("attempted".into(), Json::from_u64(self.attempted)),
            ("failed".into(), Json::from_u64(self.failed)),
            ("tolerated".into(), Json::from_u64(self.tolerated)),
            (
                "problems".into(),
                Json::Arr(self.problems.iter().map(|p| Json::Str(p.clone())).collect()),
            ),
            ("pins".into(), Json::Arr(pins)),
            (
                "metrics".into(),
                Json::Arr(self.metrics.iter().map(Metric::report_json).collect()),
            ),
        ])
    }
}

fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_report(args: &Args, report: &Json, chrome: Option<&str>) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, report.to_json()).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    if let Some(trace) = chrome {
        let path = dir.join(format!("{stem}.chrome.json"));
        std::fs::write(&path, trace).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    Ok(())
}

/// The checkout's commit, when it is a git work tree.
fn git_rev() -> String {
    if !std::path::Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into())
}

const MIB: f64 = 1024.0 * 1024.0;

/// Peak resident set size of this process so far, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

fn run(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let budget = Duration::from_secs_f64(args.seconds);
    eprintln!("{}: building inputs (seed {})", w.name(), args.seed);
    let inputs = inputs(w, args.seed);

    // Set-up, repeated; the median is reported. The imported graph's
    // set-up takes seconds, the suite programs' milliseconds.
    let (min_reps, max_reps, rep_budget) = match w {
        Workload::Import100k => (3, 3, Duration::ZERO),
        _ => (5, 51, Duration::from_secs(1)),
    };
    heap::reset_peak();
    let started = Instant::now();
    let mut setup_samples = Vec::new();
    let mut last = None;
    while setup_samples.len() < min_reps
        || (setup_samples.len() < max_reps && started.elapsed() < rep_budget)
    {
        drop(last.take()); // one set of plans alive at a time
        let s = setup(w, &inputs)?;
        setup_samples.push(s.seconds);
        last = Some(s);
        if args.trace {
            break;
        }
    }
    let setup_peak = heap::peak_bytes();
    let Setup {
        mut units,
        anchors_audited,
        diagnostics,
        ..
    } = last.expect("set-up ran at least once");
    // The units hold what the runs need; only the traced set-up reads the
    // inputs again. Dropped, they do not count in the peak heap below.
    let inputs = args.trace.then_some(inputs);

    // Untimed: the warm-up run checks correctness and records the pins and
    // the decode set.
    let (mut attempted, mut failed, mut tolerated) = (0, 0, 0);
    let mut problems = Vec::new();
    for u in &mut units {
        let v = u.warm_up()?;
        attempted += v.checked;
        failed += v.hard;
        tolerated += v.tolerated;
        problems.extend(v.examples.iter().map(|e| format!("{}: {e}", u.name)));
    }
    problems.extend(units.iter().filter_map(|u| pin_problem(w, args.seed, u)));
    heap::reset_peak();

    let mut metrics = Vec::new();
    let mut chrome = None;
    let rounds;
    if args.trace {
        let prof = Arc::new(SpanProfiler::new());
        let reps = if w == Workload::Import100k { 1 } else { 5 };
        let layers = traced_setup(inputs.as_ref().expect("kept when tracing"), &prof, reps)?;
        let (samples, counts) = ladder(&units, &prof)?;
        rounds = samples.len();
        metrics = per_layer(&units, &layers, &samples, &counts);
        let residual = metric(&metrics, "ladder.residual_s");
        let run_s = median(&samples.iter().map(|r| r.run).collect::<Vec<_>>());
        if residual.abs() > LADDER_TOLERANCE * run_s {
            problems.push(format!(
                "ladder layers miss run_s {run_s:.4}s by {residual:.4}s (tolerance {:.0}%)",
                LADDER_TOLERANCE * 100.0
            ));
        }
        chrome = Some(prof.snapshot().chrome_trace("perfbench"));
    } else {
        let started = Instant::now();
        // Times are sampled per round and summed over the units. The
        // gated run and decode metrics are multiples of the host reference
        // kernel timed next to them (see `hostref`): on a shared host the
        // absolute times drift with other tenants' load far more than the
        // ratios do. The absolute times go to the report.
        let mut samples: [Vec<f64>; 5] = Default::default();
        let [run_s, decode_s, host_s, run_x, decode_x] = &mut samples;
        while run_s.len() < MIN_ROUNDS || started.elapsed() < budget {
            let (mut run, mut decode, mut host_run, mut host_decode) = (0.0, 0.0, 0.0, 0.0);
            for u in &units {
                let r = u.timed_round()?;
                run += r.run;
                decode += median(&r.decode);
                host_run += r.host_run();
                host_decode += r.host_decode();
                host_s.extend(r.host);
            }
            run_s.push(run);
            decode_s.push(decode);
            run_x.push(run / host_run);
            decode_x.push(decode / host_decode);
        }
        rounds = run_s.len();
        let [run_s, decode_s, host_s, run_x, decode_x] = samples;
        metrics.push(Metric::sampled("setup_s", "s", setup_samples).gated());
        metrics.push(Metric::sampled("run_x_hostref", "x", run_x).gated());
        metrics.push(Metric::sampled("decode_x_hostref", "x", decode_x).gated());
        let peak = heap::peak_bytes().max(setup_peak) as f64;
        metrics.push(Metric::value("peak_heap_mib", "MiB", peak / MIB).gated());
        metrics.push(Metric::value("peak_rss_mib", "MiB", peak_rss_mib()));
        metrics.push(Metric::sampled("run_s", "s", run_s));
        metrics.push(Metric::sampled("decode_s", "s", decode_s));
        metrics.push(Metric::sampled("hostref_s", "s", host_s));
    }

    // On the imported graph every anchor audited is an operation too, and
    // a diagnostic fails one.
    attempted += anchors_audited;
    failed += diagnostics;
    if diagnostics > 0 {
        problems.push(format!("the audit reported {diagnostics} diagnostic(s)"));
    }
    if args.trace {
        metrics.push(Metric::value(
            "core.decode.tolerated",
            "count",
            tolerated as f64,
        ));
    }
    if failed > 0 && problems.is_empty() {
        problems.push(format!("{failed} failed operation(s)"));
    }
    for p in &problems {
        eprintln!("problem: {p}");
    }
    for m in &metrics {
        eprintln!(
            "{:<32} {:>14.6} {:<6} (median of {})",
            m.name,
            m.median(),
            m.unit,
            m.samples.len()
        );
    }
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        problems,
        pins: units.iter().map(|u| (u.name.clone(), u.pin)).collect(),
        rounds,
        tolerated,
        chrome,
        traced: args.trace,
    })
}

fn metric(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(f64::NAN, Metric::median)
}

/// [`LADDER_ROUNDS`] ladder rounds; the reference encoders run in the
/// first only, as they are not gated and a round of them is as long as the
/// rest of the round.
fn ladder(units: &[Unit], prof: &Arc<SpanProfiler>) -> Result<(Vec<Rungs>, TraceCounts), String> {
    let mut samples = Vec::new();
    let mut counts = TraceCounts::default();
    for i in 0..LADDER_ROUNDS {
        let mut sum = Rungs::default();
        let mut round = TraceCounts::default();
        for u in units {
            let r = u.ladder_round(prof, &mut round, i == 0)?;
            sum.run += r.run;
            sum.native += r.native;
            sum.hooks += r.hooks;
            sum.captures += r.captures;
            sum.real += r.real;
            sum.decode += r.decode;
            sum.traced += r.traced;
            sum.stackwalk += r.stackwalk;
            sum.batched += r.batched;
        }
        samples.push(sum);
        counts = round;
    }
    Ok((samples, counts))
}

/// The per-layer metrics of a traced run. Layer times are medians over
/// the ladder rounds of each rung's difference from the rung below it, all
/// runs scaled to their round's host speed (see [`Unit::ladder_round`]);
/// the residual compares the layers' sum with the end-to-end run's median.
fn per_layer(
    units: &[Unit],
    layers: &bench::SetupLayers,
    samples: &[Rungs],
    c: &TraceCounts,
) -> Vec<Metric> {
    let series = |f: fn(&Rungs) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let interp = series(|r| r.native);
    let hooks = series(|r| r.hooks - r.native);
    let capture = series(|r| r.captures - r.hooks);
    let collect = series(|r| r.real - r.captures);
    let decode = series(|r| r.decode);
    let real = median(&series(|r| r.real));
    let run = median(&series(|r| r.run));
    let layer_sum = median(&interp) + median(&hooks) + median(&capture) + median(&collect);
    let (hooks_s, decode_s) = (median(&hooks), median(&decode));

    let total = |f: fn(&Pin) -> u64| units.iter().map(|u| f(&u.pin)).sum::<u64>() as f64;
    let contexts = total(|p| p.contexts);
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };

    let mut m: Vec<Metric> = layers
        .times
        .iter()
        .map(|&(name, s)| Metric::value(name, "s", s))
        .collect();
    m.extend([
        Metric::sampled("runtime.vm.interp_s", "s", interp),
        Metric::sampled("runtime.hooks_s", "s", hooks),
        Metric::sampled("core.capture_s", "s", capture),
        Metric::sampled("runtime.collect_s", "s", collect),
        Metric::sampled("core.decode_s", "s", decode),
        Metric::value("reference.stackwalk.run_s", "s", samples[0].stackwalk),
        Metric::value("reference.batched.run_s", "s", samples[0].batched),
    ]);
    let values = [
        ("callgraph.nodes", "count", layers.nodes as f64),
        ("callgraph.edges", "count", layers.edges as f64),
        ("core.plan.anchors", "count", layers.anchors as f64),
        ("core.plan.restarts", "count", layers.restarts as f64),
        (
            "analysis.audit.diagnostics",
            "count",
            layers.diagnostics as f64,
        ),
        ("runtime.vm.calls", "count", total(|p| p.calls)),
        ("runtime.vm.observes", "count", total(|p| p.observes)),
        ("runtime.vm.entries", "count", total(|p| p.entries)),
        (
            "runtime.hooks.ns_per_call",
            "ns",
            per(hooks_s * 1e9, c.calls),
        ),
        ("runtime.hooks.adds", "count", c.adds as f64),
        ("runtime.hooks.sid_checks", "count", c.sid_checks as f64),
        ("runtime.hooks.pushes", "count", c.pushes as f64),
        ("core.capture.count", "count", c.captures as f64),
        ("core.capture.ns_each", "ns", per(c.observe_ns, c.captures)),
        (
            "core.capture.avg_frames",
            "frames",
            per(c.frames as f64, c.captures),
        ),
        ("runtime.collect.records", "count", c.records as f64),
        ("runtime.collect.unique", "count", contexts),
        (
            "runtime.collect.unique_ratio",
            "ratio",
            per(contexts, c.records),
        ),
        ("runtime.collect.ns_each", "ns", per(c.record_ns, c.records)),
        ("core.decode.contexts", "count", c.decoded as f64),
        ("core.decode.ns_each", "ns", per(decode_s * 1e9, c.decoded)),
        (
            "trace.overhead_s",
            "s",
            median(&series(|r| r.traced)) - real,
        ),
        ("ladder.residual_s", "s", run - layer_sum),
    ];
    m.extend(values.map(|(name, unit, v)| Metric::value(name, unit, v)));
    m
}

/// The event stream every seed must reproduce (seeds only renumber the
/// programs): `(workload, program, [calls, observes, entries, in-scope
/// contexts])`. Plan-dependent values — anchors, and the distinct captures
/// at uninstrumented methods — vary with the numbering and are pinned
/// within a run instead. The imported graph's walk is the seed's, so its
/// contexts are pinned here for seed 0 only.
const PINS: &[(&str, &str, [u64; 4])] = &[
    (
        "entry_profile",
        "compress",
        [6127724, 4077262, 441752, 8739],
    ),
    (
        "entry_profile",
        "scimark.monte_carlo",
        [4304701, 2554129, 1295538, 36991],
    ),
    (
        "entry_profile",
        "xml.transform",
        [2331667, 696173, 241407, 107843],
    ),
    ("hook_only", "compress", [6127724, 1, 0, 8979]),
    ("hook_only", "scimark.monte_carlo", [4304701, 1, 0, 36991]),
    ("hook_only", "crypto.aes", [6060644, 1, 0, 15807]),
    (
        "event_log",
        "scimark.monte_carlo",
        [4304701, 2554129, 0, 18962],
    ),
    ("event_log", "xml.transform", [2331667, 696173, 0, 24911]),
    ("import_100k", "scale-100k", [1000001, 0, 1000001, 47424]),
];

fn pin_problem(w: Workload, seed: u64, u: &Unit) -> Option<String> {
    let p = u.pin;
    let got = [p.calls, p.observes, p.entries, p.contexts];
    let seeded_contexts = w == Workload::Import100k && seed != 0;
    let want = PINS
        .iter()
        .find(|(wl, program, _)| *wl == w.name() && *program == u.name)
        .map(|(_, _, want)| *want);
    match want {
        Some(want) if want[..3] == got[..3] && (seeded_contexts || want[3] == got[3]) => None,
        Some(want) => Some(format!(
            "{}: work drifted from the pinned event stream: \
             [calls, observes, entries, contexts] = {got:?}, pinned {want:?}",
            u.name
        )),
        None => Some(format!("{}: no pinned event stream", u.name)),
    }
}
