//! Seeded workload inputs.
//!
//! For the VM workloads a seed picks a *numbering* of a fixed program,
//! never a different program: its classes, methods and call sites are
//! renumbered by a seeded permutation and the result is written out and
//! parsed back. Every seed therefore executes the same calling-context
//! workload (identical calls, captures and contexts) over differently
//! laid-out tables and hash keys. For the imported graph a seed picks the
//! walk that replays calls over the fixed `ScaleConfig::smoke_100k()`
//! graph. Seed 0 gives the bundled suite programs exactly.
//!
//! (Regenerating the programs from fresh generator seeds would change the
//! work itself by up to 10x between seeds, which no timing bound survives.
//! Renumbering the imported graph changed its plan, and with it the run's
//! and decode's work, by more than the bounds allow.)

use deltapath::callgraph::CallGraph;
use deltapath::ir::parse_program;
use deltapath::workloads::rng::SplitMix64;
use deltapath::workloads::scale::ScaleConfig;
use deltapath::workloads::specjvm::suite;
use deltapath::workloads::synthetic::generate;
use deltapath::{render_graph_string, MethodId, Program, SiteId};

use crate::heap;

/// A seeded permutation source (Fisher–Yates over SplitMix64).
pub struct Shuffler {
    rng: SplitMix64,
    identity: bool,
}

impl Shuffler {
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SplitMix64::seed_from_u64(seed ^ 0xde17_a9a7),
            identity: seed == 0,
        }
    }

    fn below(&mut self, n: usize) -> usize {
        (self.rng.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if self.identity {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// The bundled suite program `name`, optionally regenerated with
/// `observe_events = 0` (the Figure 8 hook-only shape), renumbered by
/// `seed`. Returns the program and the text it was parsed from.
pub fn suite_program(name: &str, no_observes: bool, seed: u64) -> (Program, String) {
    let bench = suite()
        .into_iter()
        .find(|b| b.name == name)
        .unwrap_or_else(|| panic!("{name} is not a suite benchmark"));
    let mut config = bench.config;
    if no_observes {
        config.observe_events = 0;
    }
    let text = relabel_program_text(&generate(&config).to_string(), seed);
    let program = parse_program(&text).expect("a relabeled listing parses");
    (program, text)
}

/// Reorders a program listing: classes in a seeded parents-first order and
/// methods in a seeded order within each class. Class, method and site ids
/// follow listing order, so this renumbers all three without changing what
/// the program does.
pub fn relabel_program_text(text: &str, seed: u64) -> String {
    let lines: Vec<&str> = text.lines().collect();
    let (header, body) = (lines[0], &lines[1..lines.len() - 1]);
    // Split into class blocks: each opens at two-space indent and closes
    // at the matching "  }".
    let mut classes: Vec<ClassBlock> = Vec::new();
    let mut i = 0;
    while i < body.len() {
        let head = body[i];
        let mut methods: Vec<Vec<&str>> = Vec::new();
        i += 1;
        while body[i] != "  }" {
            let start = i;
            while body[i] != "    }" {
                i += 1;
            }
            i += 1;
            methods.push(body[start..i].to_vec());
        }
        i += 1;
        classes.push(ClassBlock::new(head, methods));
    }

    let mut shuffler = Shuffler::new(seed);
    for c in &mut classes {
        shuffler.shuffle(&mut c.methods);
    }
    // A seeded topological order: repeatedly emit a random class whose
    // superclass has been emitted.
    let mut pending: Vec<usize> = (0..classes.len()).collect();
    let mut emitted: Vec<&str> = Vec::new();
    let mut out = vec![header.to_owned()];
    while !pending.is_empty() {
        let ready: Vec<usize> = (0..pending.len())
            .filter(|&k| {
                let sup = classes[pending[k]].superclass;
                sup.is_none_or(|s| emitted.contains(&s))
            })
            .collect();
        let pick = if shuffler.identity {
            ready[0]
        } else {
            ready[shuffler.below(ready.len())]
        };
        let c = &classes[pending.remove(pick)];
        emitted.push(c.name);
        out.push(c.head.to_owned());
        for m in &c.methods {
            out.extend(m.iter().map(|l| (*l).to_owned()));
        }
        out.push("  }".to_owned());
    }
    out.push("}".to_owned());
    out.join("\n")
}

struct ClassBlock<'t> {
    head: &'t str,
    name: &'t str,
    superclass: Option<&'t str>,
    methods: Vec<Vec<&'t str>>,
}

impl<'t> ClassBlock<'t> {
    fn new(head: &'t str, methods: Vec<Vec<&'t str>>) -> Self {
        // "  [dynamic ][library ]class NAME[ : SUPER] {"
        let decl = head
            .trim()
            .trim_end_matches('{')
            .trim()
            .rsplit("class ")
            .next()
            .expect("a class header");
        let (name, superclass) = match decl.split_once(" : ") {
            Some((n, s)) => (n.trim(), Some(s.trim())),
            None => (decl.trim(), None),
        };
        Self {
            head,
            name,
            superclass,
            methods,
        }
    }
}

/// The scale workload's input: `ScaleConfig::smoke_100k()` in
/// `deltapath.graph.v1` text, plus a seeded call-path replay script over
/// it. The script stands in for the program a VM workload runs; it is the
/// benchmark's, kept outside the heap count until the process exits.
pub struct ScaleInput {
    pub text: String,
    pub replay: &'static Replay,
}

/// A fixed sequence of calls and returns over a call graph, replayed
/// through an encoder's hooks the way the interpreter would drive them.
pub struct Replay {
    pub entry: MethodId,
    /// `(site, callee)` of every edge.
    pub edges: Vec<(SiteId, MethodId)>,
    /// Edge indices into `edges` for calls; [`Replay::RET`] for returns.
    pub ops: Vec<u32>,
}

impl Replay {
    pub const RET: u32 = u32::MAX;
}

/// Calls in one replay of the scale graph.
const REPLAY_CALLS: usize = 1_000_000;
/// Replay stack bound: deep enough for the graph's layered paths, shallow
/// enough that recursion through back edges stays bounded.
const REPLAY_MAX_DEPTH: usize = 48;

/// The graph is the same for every seed, so every seed plans and audits
/// the same graph; the seed picks the replay's walk.
pub fn scale_input(seed: u64) -> ScaleInput {
    let graph = ScaleConfig::smoke_100k().build_graph();
    let text = render_graph_string(&graph, "scale-100k");
    let replay = heap::untracked(|| {
        let edges = graph
            .edges()
            .iter()
            .map(|e| (e.site, graph.method_of(e.callee)))
            .collect();
        let entry = graph.entry().expect("the scale graph has an entry");
        &*Box::leak(Box::new(Replay {
            entry: graph.method_of(entry),
            edges,
            ops: replay_ops(&graph, seed),
        }))
    });
    ScaleInput { text, replay }
}

/// A seeded random walk over the call stack of `graph`: from the entry,
/// each step calls a random out-edge of the current method or returns,
/// with even odds, until [`REPLAY_CALLS`] calls. Leaves and the depth
/// bound force returns.
fn replay_ops(graph: &CallGraph, seed: u64) -> Vec<u32> {
    let mut rng = SplitMix64::seed_from_u64(0x7e91a7 ^ seed);
    let entry = graph.entry().expect("the scale graph has an entry");
    let mut stack = vec![entry];
    let mut ops = Vec::with_capacity(2 * REPLAY_CALLS);
    let mut calls = 0;
    while calls < REPLAY_CALLS {
        let top = *stack.last().expect("the entry frame is never popped");
        let outs = graph.out_edges(top);
        let must_return = outs.is_empty() || stack.len() >= REPLAY_MAX_DEPTH;
        if stack.len() > 1 && (must_return || rng.next_u64().is_multiple_of(2)) {
            stack.pop();
            ops.push(Replay::RET);
        } else if !outs.is_empty() {
            let e = outs[(rng.next_u64() % outs.len() as u64) as usize];
            ops.push(u32::try_from(e.index()).expect("edge index fits u32"));
            stack.push(graph.edge(e).callee);
            calls += 1;
        } else {
            break; // an entry with no callees: nothing to replay
        }
    }
    ops
}
