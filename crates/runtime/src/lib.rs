//! # deltapath-runtime
//!
//! The execution substrate for the DeltaPath reproduction: an interpreter
//! for [`deltapath_ir`] programs with instrumentation hooks at every call
//! site and method entry/exit — the places where the original system's Java
//! agent injects code at class-load time.
//!
//! The interpreter ([`Vm`]) is generic over a [`ContextEncoder`], so every
//! calling-context technique runs over identical executions:
//!
//! * [`NullEncoder`] — the native baseline;
//! * [`DeltaEncoder`] — DeltaPath, driving the state machine from
//!   `deltapath-core` through either plan form: an
//!   [`EncodingPlan`](deltapath_core::EncodingPlan)'s maps (the reference
//!   oracle) or, as [`CompiledDeltaEncoder`], a
//!   [`CompiledPlan`](deltapath_core::CompiledPlan)'s dense dispatch
//!   tables (one array load per hook, no hashing: the deployment-shaped
//!   hot path);
//! * [`BatchedDeltaEncoder`] — the same technique again, but buffering
//!   hooks as packed [`HookWord`](deltapath_core::HookWord)s and pushing
//!   slices through the branchless batch kernel
//!   ([`CompiledPlan::apply_batch`](deltapath_core::CompiledPlan::apply_batch));
//! * [`StackWalkEncoder`] — stack walking (precise but expensive; also the
//!   ground truth for precision experiments);
//! * PCC, Breadcrumbs-lite and the calling-context tree live in
//!   `deltapath-baselines`.
//!
//! Encoders meter their abstract operations ([`OpCounts`]) and a
//! [`CostModel`] turns the counts into overhead comparable across
//! techniques — this is how the paper's Figure 8 throughput comparison is
//! regenerated without a JVM.
//!
//! # Example
//!
//! ```
//! use deltapath_ir::{MethodKind, ProgramBuilder};
//! use deltapath_core::{EncodingPlan, PlanConfig};
//! use deltapath_runtime::{DeltaEncoder, EventLog, Vm, VmConfig};
//!
//! let mut b = ProgramBuilder::new("hello");
//! let c = b.add_class("Main", None);
//! b.method(c, "helper", MethodKind::Static)
//!     .body(|f| {
//!         f.observe(42);
//!     })
//!     .finish();
//! let main = b
//!     .method(c, "main", MethodKind::Static)
//!     .body(|f| {
//!         f.call(c, "helper");
//!     })
//!     .finish();
//! b.entry(main);
//! let program = b.finish()?;
//!
//! let plan = EncodingPlan::analyze(&program, &PlanConfig::default())?;
//! let mut vm = Vm::new(&program, VmConfig::default());
//! let mut encoder = DeltaEncoder::new(&plan);
//! let mut log = EventLog::default();
//! vm.run(&mut encoder, &mut log)?;
//!
//! // The logged encoding decodes to the exact calling context.
//! let deltapath_runtime::Capture::Delta(ctx) = &log.events[0].2 else {
//!     unreachable!()
//! };
//! let context = plan.decoder().decode(ctx)?;
//! assert_eq!(context.len(), 2); // main -> helper
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod collect;
mod encoder;
mod encoders;
mod profile;
mod shard;
mod vm;

pub use batch::{BatchedDeltaEncoder, DEFAULT_BATCH_CAPACITY};
pub use collect::{Collector, ContextStats, EventLog, NullCollector, RelativeCollector};
pub use encoder::{report_op_counts, Capture, ContextEncoder, CostModel, OpCounts};
pub use encoders::{
    CompiledDeltaEncoder, DeltaEncoder, HookSampler, NullEncoder, StackWalkEncoder,
};
pub use profile::{fold_path, ContextProfile};
pub use shard::{ShardHandle, ShardedCollector, DEFAULT_BATCH, DEFAULT_SHARDS};
pub use vm::{CollectMode, RunStats, Vm, VmConfig, VmError};
