//! The single-threaded closed-loop harness every workload runs under.
//!
//! A run sets the workload up [`Workload::SETUPS`] times afresh (each set-up
//! builds the inputs and runs one cold warm-up pass; the first is timed
//! from process start) and keeps the first set-up's outputs as the golden
//! answers. Checks that need a second engine run once, after the first
//! set-up, and are timed apart from `setup_s`. Timed ops then run in whole
//! passes over the op list, each pass in a seeded order, until the
//! phase's seconds are spent; the next op starts when the previous one
//! ends. An op that errors, panics or differs from its golden output is a
//! failed op.
//!
//! The untraced run reports the end-to-end metrics. Every pass runs the
//! same ops, so the host-time ones are taken where the host's other
//! tenants disturbed the run least: `ops_per_s` from the fastest pass, and
//! the latencies from each op's fastest repetitions, as many per op as
//! make [`MIN_TAIL_OPS`] samples, out of at least twice as many passes.
//! Slow stretches on a shared host last seconds to minutes and otherwise
//! dominate the run-to-run spread.
//! The traced run alternates untraced and traced passes, reports the
//! per-layer metrics from the traced ones, and compares the two kinds for
//! the tracing overhead.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use crate::host;
use crate::metrics::{Def, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{self, SpanRec};

/// Latency samples an untraced run reports on: with at least 1000 the p99
/// rung of the tail rule always has ten beyond it, and with a fixed count
/// the rung cannot change between runs.
pub const MIN_TAIL_OPS: usize = 1000;

/// One benchmark workload.
pub trait Workload: Sized {
    /// One op's output, compared bit for bit with the set-up pass's.
    type Out: PartialEq;

    /// Set-ups per run; `setup_s` is their median.
    const SETUPS: usize = 3;

    /// Builds the workload's inputs from `seed`.
    fn build(seed: u64) -> Self;

    /// Ops in one pass.
    fn len(&self) -> usize;

    /// Runs op `i` of the pass, returning its output or the check it failed.
    fn op(&mut self, i: usize) -> Result<Self::Out, String>;

    /// Checks made once after the first set-up, outside `setup_s`.
    fn verify(&mut self, _golden: &[Self::Out]) -> Result<(), String> {
        Ok(())
    }

    /// `sim_speedup_x` of the set-up pass.
    fn sim_speedup_x(&self, golden: &[Self::Out]) -> f64;

    /// Exact per-layer values derived from the set-up pass.
    fn exact_layer_metrics(&self, _golden: &[Self::Out]) -> Vec<(&'static str, f64)> {
        Vec::new()
    }
}

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Seconds of timed ops.
    pub seconds: f64,
    /// Traced (per-layer) run instead of untraced (end-to-end).
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub spans: Option<String>,
}

/// A finished run, ready to print.
#[derive(Debug)]
pub struct Outcome {
    /// Header lines (each starting with `#`).
    pub header: Vec<String>,
    /// Every check passed.
    pub correct: bool,
    /// Timed ops attempted.
    pub attempted: u64,
    /// Timed ops failed.
    pub failed: u64,
    /// The metrics, in catalogue order.
    pub metrics: Vec<(Def, f64)>,
}

/// One pass of a timed phase.
struct Pass {
    traced: bool,
    seconds: f64,
    /// Ops that passed their checks.
    ok_ops: u64,
    /// Latency of each op, indexed by op (untraced passes only).
    latencies_ms: Vec<f64>,
}

struct Phase {
    attempted: u64,
    failed: u64,
    passes: Vec<Pass>,
    /// Counters of each traced pass.
    counts: Vec<BTreeMap<&'static str, u64>>,
    probe: host::Probe,
}

/// Ops completed per wall second over `passes`.
fn ops_per_s<'a>(passes: impl Iterator<Item = &'a Pass>) -> f64 {
    let (ops, secs) = passes.fold((0, 0.0), |acc, p| (acc.0 + p.ok_ops, acc.1 + p.seconds));
    if secs == 0.0 {
        0.0
    } else {
        ops as f64 / secs
    }
}

impl Phase {
    fn of_kind(&self, traced: bool) -> impl Iterator<Item = &Pass> {
        self.passes.iter().filter(move |p| p.traced == traced)
    }

    /// The fastest untraced pass.
    fn fastest(&self) -> Option<&Pass> {
        self.of_kind(false)
            .min_by(|a, b| a.seconds.total_cmp(&b.seconds))
    }

    /// Each op's `reps` fastest untraced latencies, pooled and sorted.
    fn best_latencies(&self, ops: usize, reps: usize) -> Vec<f64> {
        let mut pooled = Vec::with_capacity(ops * reps);
        for op in 0..ops {
            let mut times: Vec<f64> = self.of_kind(false).map(|p| p.latencies_ms[op]).collect();
            times.sort_by(f64::total_cmp);
            pooled.extend(times.into_iter().take(reps));
        }
        pooled.sort_by(f64::total_cmp);
        pooled
    }

    /// The noise header lines of this phase.
    fn header(&self) -> Vec<String> {
        let mut lines = vec![self.probe.header()];
        for traced in [false, true] {
            let secs: Vec<f64> = self.of_kind(traced).map(|p| p.seconds).collect();
            if secs.is_empty() {
                continue;
            }
            let mut sorted = secs.clone();
            sorted.sort_by(f64::total_cmp);
            lines.push(format!(
                "# passes[{}]: {} in {:.3} s; pass seconds min {:.4} median {:.4} max {:.4}; in order: {}",
                if traced { "traced" } else { "untraced" },
                secs.len(),
                secs.iter().sum::<f64>(),
                sorted[0],
                stats::median(&sorted),
                sorted[sorted.len() - 1],
                secs.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>().join(" "),
            ));
        }
        lines
    }
}

/// Runs whole passes until `seconds` have passed and at least
/// `min_passes` passes ran. With `interleave`, every other pass (from the second) runs
/// traced, so traced and untraced passes see the same host conditions.
fn timed_phase<W: Workload>(
    w: &mut W,
    golden: &[W::Out],
    seed: u64,
    seconds: f64,
    min_passes: usize,
    interleave: bool,
    errors: &mut Vec<String>,
) -> Phase {
    let probe = host::Probe::start();
    let start = Instant::now();
    let mut phase = Phase {
        attempted: 0,
        failed: 0,
        passes: Vec::new(),
        counts: Vec::new(),
        probe,
    };
    loop {
        let pass = phase.passes.len() as u64;
        let traced = interleave && pass % 2 == 1;
        if traced {
            trace::start();
        }
        let pass_start = Instant::now();
        let mut ok_ops = 0;
        let mut latencies_ms = vec![0.0; if traced { 0 } else { w.len() }];
        for i in stats::pass_order(w.len(), seed, pass) {
            trace::set_op(phase.attempted);
            let t0 = Instant::now();
            let result = {
                let _op = trace::enter("harness.op");
                catch_unwind(AssertUnwindSafe(|| w.op(i)))
            };
            if !traced {
                latencies_ms[i] = t0.elapsed().as_secs_f64() * 1e3;
            }
            phase.attempted += 1;
            let problem = match result {
                Ok(Ok(out)) if out == golden[i] => None,
                Ok(Ok(_)) => Some(format!("op {i}: output differs from the set-up pass")),
                Ok(Err(e)) => Some(format!("op {i}: {e}")),
                Err(_) => Some(format!("op {i}: panicked")),
            };
            match problem {
                None => ok_ops += 1,
                Some(p) => {
                    phase.failed += 1;
                    if errors.len() < 10 {
                        errors.push(p);
                    }
                }
            }
        }
        phase.passes.push(Pass {
            traced,
            seconds: pass_start.elapsed().as_secs_f64(),
            ok_ops,
            latencies_ms,
        });
        if traced {
            trace::stop();
            phase.counts.push(trace::take_counts());
        }
        let enough = start.elapsed().as_secs_f64() >= seconds
            && phase.passes.len() >= min_passes
            && (!interleave || phase.passes.len() >= 2);
        if enough {
            break;
        }
    }
    phase
}

/// Runs workload `W` as `opts` asks. `process_start` is when `main`
/// began; the first set-up is timed from it.
///
/// # Errors
///
/// Returns a message when a set-up fails or two set-ups disagree: the
/// run then has no result to print.
pub fn run<W: Workload>(opts: &Options, process_start: Instant) -> Result<Outcome, String> {
    let mut header = vec![host::machine_header()];
    if opts.trace {
        trace::start();
    }
    let mut setup_s = Vec::with_capacity(W::SETUPS);
    let mut golden: Option<Vec<W::Out>> = None;
    let mut workload: Option<W> = None;
    for k in 0..W::SETUPS {
        // Free the previous set-up first, so at most one is alive.
        drop(workload.take());
        let t0 = if k == 0 {
            process_start
        } else {
            Instant::now()
        };
        let _span = trace::enter("harness.setup");
        let mut w = W::build(opts.seed);
        let outs = (0..w.len())
            .map(|i| w.op(i).map_err(|e| format!("set-up {k}, op {i}: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        drop(_span);
        setup_s.push(t0.elapsed().as_secs_f64());
        match &golden {
            None => {
                let t = Instant::now();
                trace::stop();
                w.verify(&outs)?;
                if opts.trace {
                    trace::start();
                }
                header.push(format!(
                    "# verify: {:.3} s of one-off checks, outside setup_s",
                    t.elapsed().as_secs_f64()
                ));
                golden = Some(outs);
            }
            Some(g) if *g != outs => {
                return Err(format!("set-up {k} disagrees with set-up 0"));
            }
            Some(_) => {}
        }
        workload = Some(w);
    }
    trace::stop();
    let setup_spans = trace::take_spans();
    trace::take_counts();
    let golden = golden.expect("at least one set-up");
    let mut w = workload.expect("at least one set-up");
    header.push(format!(
        "# setup_s: {} set-ups of {} ops: {}",
        W::SETUPS,
        w.len(),
        setup_s
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    let mut errors = Vec::new();
    // Each op's fastest `reps` latencies make MIN_TAIL_OPS samples, out of
    // at least twice as many passes.
    let reps = MIN_TAIL_OPS.div_ceil(w.len().max(1));
    let min_passes = if opts.trace { 0 } else { 2 * reps };
    let phase = timed_phase(
        &mut w,
        &golden,
        opts.seed,
        opts.seconds,
        min_passes,
        opts.trace,
        &mut errors,
    );
    header.extend(phase.header());
    let mut correct = true;
    let metrics = if opts.trace {
        let spans = trace::take_spans();
        if let Some(path) = &opts.spans {
            // One file: set-up spans, then the traced phase's, whose
            // parent indexes shift by the set-up spans before them.
            let offset = setup_spans.len() as u32;
            let mut all = setup_spans.clone();
            all.extend(spans.iter().cloned().map(|mut s| {
                if s.parent != trace::ROOT {
                    s.parent += offset;
                }
                s
            }));
            trace::write_spans(path, &all).map_err(|e| format!("writing {path}: {e}"))?;
            header.push(format!("# spans: {} written to {path}", all.len()));
        }
        if phase.counts.windows(2).any(|c| c[0] != c[1]) {
            errors.push("exact counters differ between traced passes".to_owned());
            correct = false;
        }
        let mut values = layer_metrics(&setup_spans, &spans, &phase);
        values.extend(w.exact_layer_metrics(&golden));
        PER_LAYER
            .iter()
            .map(|d| {
                let v = values
                    .iter()
                    .find(|(n, _)| *n == d.name)
                    .map_or(0.0, |v| v.1);
                (*d, v)
            })
            .collect()
    } else {
        let sorted = phase.best_latencies(w.len(), reps);
        header.push(format!(
            "# host metrics: ops_per_s from the fastest of {} passes, latencies from each op's {reps} fastest",
            phase.passes.len(),
        ));
        let tail = stats::tail(&sorted);
        header.push(format!(
            "# op_tail_ms: p{} of {} ops ({} beyond it)",
            tail.pct, tail.samples, tail.beyond
        ));
        let values = [
            stats::median(&setup_s),
            ops_per_s(phase.fastest().into_iter()),
            stats::percentile(&sorted, 50.0).0,
            tail.value,
            host::peak_rss_mib(),
            w.sim_speedup_x(&golden),
        ];
        END_TO_END.iter().copied().zip(values).collect()
    };
    for e in &errors {
        header.push(format!("# FAILED {e}"));
    }
    header.push(
        "# model unvalidated: the simulator is not checked cell by cell against hardware, \
         so sim_* and simulated figures carry no error estimate"
            .to_owned(),
    );
    let exact: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .filter(|d| d.exact)
        .map(|d| d.name)
        .collect();
    header.push(format!("# exact: {}", exact.join(" ")));
    Ok(Outcome {
        header,
        correct: correct && phase.failed == 0,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics,
    })
}

/// Spans named `name` among `spans`.
fn named<'a>(spans: &'a [SpanRec], name: &'a str) -> impl Iterator<Item = &'a SpanRec> + 'a {
    spans.iter().filter(move |s| s.name == name)
}

fn total_ns<'a>(spans: impl Iterator<Item = &'a SpanRec>) -> f64 {
    // `fold` from +0.0: an empty `f64` sum is -0.0.
    spans.fold(0.0, |acc, s| acc + s.dur_ns() as f64)
}

fn p50_us<'a>(spans: impl Iterator<Item = &'a SpanRec>) -> f64 {
    let durations: Vec<f64> = spans.map(|s| s.dur_ns() as f64 / 1e3).collect();
    stats::median(&durations)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics from the traced phase's spans and counters.
fn layer_metrics(
    setup_spans: &[SpanRec],
    spans: &[SpanRec],
    phase: &Phase,
) -> Vec<(&'static str, f64)> {
    let passes = phase.counts.len() as f64;
    let per_pass_ms = |ns: f64| ns / 1e6 / passes;
    let counts = phase.counts.first().cloned().unwrap_or_default();
    let c = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let self_costs = trace::self_costs(spans);
    let self_of = |layer: &str| -> (f64, f64) {
        spans
            .iter()
            .zip(&self_costs)
            .filter(|(s, _)| s.layer() == layer)
            .fold((0.0, 0.0), |acc, (_, &(ns, allocs))| {
                (acc.0 + ns as f64, acc.1 + allocs as f64)
            })
    };
    let work = |name: &str| named(spans, name).fold(0.0, |acc, s| acc + s.work as f64);
    let allocs = |name: &str| named(spans, name).fold(0.0, |acc, s| acc + s.allocs as f64);

    // Untraced engine runs: the workloads' own, and the untraced reruns
    // around each traced run of the `tune` explain step.
    let untraced: Vec<&SpanRec> = spans
        .iter()
        .filter(|s| matches!(s.name, "sim.run" | "sim.rerun" | "sim.rerun_warm"))
        .collect();
    let sim_ns = total_ns(untraced.iter().copied());
    let sim_events = untraced.iter().fold(0.0, |acc, s| acc + s.work as f64);
    let sim_allocs = untraced.iter().fold(0.0, |acc, s| acc + s.allocs as f64);
    let rerun_ns = total_ns(named(spans, "sim.rerun_warm"));
    let traced_sim_ns = total_ns(named(spans, "sim.run_traced"));
    let obs_ns = ["obs.spans", "obs.analyze", "obs.export", "obs.validate"]
        .iter()
        .fold(0.0, |acc, n| acc + total_ns(named(spans, n)));
    let serve_ns = total_ns(named(spans, "serve.run"));
    let requests = work("serve.run");
    // Median over set-ups of the pool-build time each set-up spent.
    let builds: Vec<f64> = setup_spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "harness.setup")
        .map(|(idx, _)| {
            setup_spans
                .iter()
                .filter(|s| s.parent as usize == idx && s.name == "serve.pool_build")
                .map(|s| s.dur_ns() as f64 / 1e6)
                .sum()
        })
        .collect();
    // Share of op time spent inside the layers' calls.
    let (op_ns, op_self_ns) = spans
        .iter()
        .zip(&self_costs)
        .filter(|(s, _)| s.name == "harness.op")
        .fold((0.0, 0.0), |acc, (s, &(ns, _))| {
            (acc.0 + s.dur_ns() as f64, acc.1 + ns as f64)
        });

    vec![
        ("models.compile_calls", c("models.compile_calls")),
        (
            "models.compile_us_p50",
            p50_us(named(spans, "models.compile")),
        ),
        (
            "models.compile_ms",
            per_pass_ms(total_ns(named(spans, "models.compile"))),
        ),
        ("sim.runs", c("sim.runs")),
        ("sim.events", c("sim.events")),
        ("sim.sem_posts", c("sim.sem_posts")),
        ("sim.deadlocks", c("sim.deadlocks")),
        ("sim.run_us_p50", p50_us(untraced.iter().copied())),
        ("sim.ns_per_event", ratio(sim_ns, sim_events)),
        (
            "sim.allocs_per_run",
            ratio(sim_allocs, untraced.len() as f64),
        ),
        ("gen.tune_calls", c("gen.tune_calls")),
        ("gen.evaluations", c("gen.evaluations")),
        ("gen.sim_evals", c("gen.sim_evals")),
        ("gen.invalid_assignments", c("gen.invalid_assignments")),
        (
            "gen.useful_ratio",
            ratio(
                c("gen.sim_evals") - c("gen.invalid_assignments"),
                c("gen.sim_evals"),
            ),
        ),
        ("gen.cache_hits", c("gen.cache_hits")),
        ("gen.cache_misses", c("gen.cache_misses")),
        ("gen.self_ms", per_pass_ms(self_of("gen").0)),
        ("obs.trace_events", c("obs.trace_events")),
        ("obs.spans", c("obs.spans")),
        ("obs.export_bytes", c("obs.export_bytes")),
        (
            "obs.spans_ms",
            per_pass_ms(total_ns(named(spans, "obs.spans"))),
        ),
        (
            "obs.analyze_ms",
            per_pass_ms(total_ns(named(spans, "obs.analyze"))),
        ),
        (
            "obs.export_ms",
            per_pass_ms(
                total_ns(named(spans, "obs.export")) + total_ns(named(spans, "obs.validate")),
            ),
        ),
        (
            "obs.ns_per_trace_event",
            ratio(obs_ns, c("obs.trace_events") * passes),
        ),
        (
            "obs.trace_overhead_pct",
            if rerun_ns == 0.0 {
                0.0
            } else {
                100.0 * (traced_sim_ns / rerun_ns - 1.0)
            },
        ),
        ("serve.pool_build_ms", stats::median(&builds)),
        ("serve.requests", c("serve.requests")),
        ("serve.rejected_shed", c("serve.rejected_shed")),
        ("serve.decode_preemptions", c("serve.decode_preemptions")),
        ("serve.run_ms", per_pass_ms(serve_ns)),
        ("serve.us_per_request", ratio(serve_ns / 1e3, requests)),
        (
            "serve.allocs_per_request",
            ratio(allocs("serve.run"), requests),
        ),
        (
            "trace.overhead_pct",
            100.0
                * (ratio(
                    ops_per_s(phase.of_kind(false)),
                    ops_per_s(phase.of_kind(true)),
                ) - 1.0),
        ),
        (
            "trace.layer_coverage_pct",
            100.0 * ratio(op_ns - op_self_ns, op_ns),
        ),
    ]
}
