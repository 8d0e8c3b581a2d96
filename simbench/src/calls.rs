//! Traced wrappers for the calls the `figures` and `tune` workloads make
//! into the builder and engine layers. Each opens one span and bumps the
//! layer's exact counters.

use cusync_sim::{CompiledPipeline, RunReport, Session, SimError};

use crate::trace;

/// A `cusync-models` `compile_*` call (builder plus `Gpu::compile`).
pub fn compile<T>(f: impl FnOnce() -> T) -> T {
    trace::count("models.compile_calls", 1);
    trace::span("models.compile", f)
}

/// One `Session::run`, recorded as span `name`: `sim.run` for a
/// workload's own runs; for the runs `tune` explains, `sim.rerun` (first,
/// untraced), `sim.run_traced` (on a session recording its trace) and
/// `sim.rerun_warm` (untraced again).
pub fn sim_run(
    session: &mut Session,
    pipeline: &CompiledPipeline,
    name: &'static str,
) -> Result<RunReport, SimError> {
    let span = trace::enter(name);
    let result = session.run(pipeline);
    trace::count("sim.runs", 1);
    match &result {
        Ok(report) => {
            span.work(report.sim_events);
            trace::count("sim.events", report.sim_events);
            trace::count("sim.sem_posts", report.sem_posts);
        }
        Err(SimError::Deadlock(_)) => trace::count("sim.deadlocks", 1),
        Err(_) => {}
    }
    result
}
