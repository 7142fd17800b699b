//! Multi-threaded encoding: the paper's runtime keeps the encoding state in
//! thread-local storage — one `DeltaState` per thread over one shared,
//! immutable plan. Here several threads execute the same program with
//! different entry parameters; each decodes its own contexts independently.

use std::sync::Arc;
use std::thread;

use deltapath::workloads::synthetic::{generate, SyntheticConfig};
use deltapath::{
    Capture, CollectMode, DeltaEncoder, EncodingPlan, EventLog, PlanConfig, Program, Vm, VmConfig,
};

fn closed_world(seed: u64) -> SyntheticConfig {
    SyntheticConfig {
        name: format!("mt{seed}"),
        seed,
        lib_families: 0,
        lib_methods_per_layer: 0,
        cross_scope_prob: 0.0,
        dynamic_subclass_prob: 0.0,
        main_loop_iters: 4,
        observe_events: 3,
        ..SyntheticConfig::default()
    }
}

#[test]
fn threads_share_a_plan_and_decode_independently() {
    let program = Arc::new(generate(&closed_world(77)));
    let plan = Arc::new(EncodingPlan::analyze(&program, &PlanConfig::default()).unwrap());

    let handles: Vec<_> = (0u32..4)
        .map(|thread_param| {
            let program: Arc<Program> = Arc::clone(&program);
            let plan = Arc::clone(&plan);
            thread::spawn(move || {
                let mut vm = Vm::new(
                    &program,
                    VmConfig::default()
                        .with_collect(CollectMode::ObservesOnly)
                        .with_entry_param(thread_param),
                );
                let mut encoder = DeltaEncoder::new(&*plan);
                let mut log = EventLog::default();
                vm.run(&mut encoder, &mut log).expect("run");
                // Decode everything inside the thread.
                let decoder = plan.decoder();
                let mut decoded = 0usize;
                for (_, _, capture) in &log.events {
                    let Capture::Delta(ctx) = capture else {
                        unreachable!()
                    };
                    let context = decoder.decode(ctx).expect("thread-local decode");
                    assert!(!context.is_empty());
                    assert_eq!(*context.first().unwrap(), program.entry());
                    decoded += 1;
                }
                decoded
            })
        })
        .collect();

    let mut total = 0;
    for h in handles {
        total += h.join().expect("thread completed");
    }
    assert!(total > 0, "the threads observed and decoded events");
}

#[test]
fn plan_is_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EncodingPlan>();
    assert_send_sync::<deltapath::Program>();
    assert_send_sync::<deltapath::EncodedContext>();
}
