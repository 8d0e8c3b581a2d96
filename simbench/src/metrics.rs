//! The metric catalogue and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same names, units
//! and directions; `selftest.py` checks the two agree.

use std::fmt::Write as _;

/// One reported metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Def {
    /// Unique name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// An exact count or simulated value: it repeats exactly for a seed.
    pub exact: bool,
}

const fn host(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        exact: true,
    }
}

/// Printed by every untraced run.
pub const END_TO_END: [Def; 6] = [
    host("setup_s", "s"),
    host("ops_per_s", "1/s"),
    host("op_p50_ms", "ms"),
    host("op_tail_ms", "ms"),
    host("peak_rss_mb", "MiB"),
    exact("sim_speedup_x", "x"),
];

/// Printed by every traced run. Counts are per pass of the workload's op
/// list; times in `ms` are per pass too.
pub const PER_LAYER: [Def; 42] = [
    exact("models.compile_calls", "count"),
    host("models.compile_us_p50", "us"),
    host("models.compile_ms", "ms"),
    exact("sim.runs", "count"),
    exact("sim.events", "count"),
    exact("sim.sem_posts", "count"),
    exact("sim.deadlocks", "count"),
    host("sim.run_us_p50", "us"),
    host("sim.ns_per_event", "ns"),
    host("sim.allocs_per_run", "count"),
    exact("gen.tune_calls", "count"),
    exact("gen.evaluations", "count"),
    exact("gen.sim_evals", "count"),
    exact("gen.invalid_assignments", "count"),
    exact("gen.useful_ratio", "ratio"),
    exact("gen.cache_hits", "count"),
    exact("gen.cache_misses", "count"),
    host("gen.self_ms", "ms"),
    exact("gen.gain_over_anchor_x", "x"),
    exact("obs.trace_events", "count"),
    exact("obs.spans", "count"),
    exact("obs.export_bytes", "bytes"),
    host("obs.spans_ms", "ms"),
    host("obs.analyze_ms", "ms"),
    host("obs.export_ms", "ms"),
    host("obs.ns_per_trace_event", "ns"),
    host("obs.trace_overhead_pct", "%"),
    exact("obs.path_coverage_min", "ratio"),
    exact("obs.sync_wait_share_tuned", "ratio"),
    exact("obs.sync_wait_share_serial", "ratio"),
    host("serve.pool_build_ms", "ms"),
    exact("serve.pipelines", "count"),
    exact("serve.requests", "count"),
    exact("serve.rejected_shed", "count"),
    exact("serve.decode_preemptions", "count"),
    host("serve.run_ms", "ms"),
    host("serve.us_per_request", "us"),
    host("serve.allocs_per_request", "count"),
    exact("serve.sim_goodput_rps", "1/s"),
    exact("serve.tokens_goodput_per_s", "1/s"),
    host("trace.overhead_pct", "%"),
    host("trace.layer_coverage_pct", "%"),
];

#[cfg(test)]
/// Whether `name` fits the metric-name grammar: a letter or digit, then
/// at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
/// Whether `unit` fits the unit grammar: 1 to 16 letters, digits, `_`,
/// `/`, `%`, `.` or `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The one-line JSON result. Every value is printed with all its digits
/// (Rust's shortest round-trip form); a non-finite value is printed as 0
/// and makes the run incorrect, since JSON cannot carry it.
pub fn result_line(correct: bool, attempted: u64, failed: u64, values: &[(Def, f64)]) -> String {
    let finite = values.iter().all(|(_, v)| v.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        correct && finite
    );
    for (i, (def, v)) in values.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        // `{:?}` keeps a decimal point on whole numbers (`3.0`, not `3`).
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            def.name,
            def.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_fits_the_grammar_once() {
        let all: Vec<Def> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        for d in &all {
            assert!(valid_name(d.name), "{}", d.name);
            assert!(valid_unit(d.unit), "{}: {}", d.name, d.unit);
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "a metric name is used twice");
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn grammar_rejects_what_it_should() {
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"a".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
        for good in ["a", "0x", "sim.ns_per_event", "a-b_c.d", &"a".repeat(64)] {
            assert!(valid_name(good), "{good:?}");
        }
        for bad in ["", "a b", "µs", &"a".repeat(17)] {
            assert!(!valid_unit(bad), "{bad:?}");
        }
        for good in ["ms", "1/s", "%", "count", "MiB"] {
            assert!(valid_unit(good), "{good:?}");
        }
    }

    #[test]
    fn result_line_shape() {
        let line = result_line(true, 3, 0, &[(END_TO_END[0], 1.5), (END_TO_END[1], 2.0)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \
             \"ops_per_s\": {\"value\": 2.0, \"unit\": \"1/s\"}}}"
        );
        let line = result_line(true, 1, 0, &[(END_TO_END[0], f64::NAN)]);
        assert!(line.starts_with("{\"correct\": false"), "{line}");
    }
}
