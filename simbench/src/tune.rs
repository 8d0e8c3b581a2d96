//! `tune`: tune-and-explain over the 60-cell Fig. 6/Fig. 7 mechanism grid.
//! One op tunes one cell's per-edge sync mechanisms from a cold
//! `TuneCache`, replays the tuning against the now-warm cache, then
//! re-runs the tuned and the all-StreamSerial plans with trace recording
//! on and explains both through `cusync-obs`.

use cusync::{OptFlags, SyncMechanism};
use cusync_models::{
    compile_attention_mechanisms, compile_conv_layer_mechanisms, compile_mlp_mechanisms,
    conv_chain_edges, pq_for_channels, AttentionConfig, MlpModel, ATTENTION_EDGES, MLP_EDGES,
};
use cusync_obs::{chrome_trace_json, collect_spans, validate_chrome_trace, Attribution};
use cusync_sim::{splitmix64, CompiledPipeline, EngineMode, GpuConfig, Session, SimTime};
use cusyncgen::{autotune_sync_mechanisms, MechanismPlan, TuneCache};

use crate::calls::{compile, sim_run};
use crate::figures::llm_grid;
use crate::harness::Workload;
use crate::stats;
use crate::trace;

#[derive(Debug, Clone, Copy)]
enum Shape {
    Mlp(MlpModel, u32),
    Attention(AttentionConfig),
    /// `(channels, batch, convs)`.
    Conv(u32, u32, u32),
}

#[derive(Debug, Clone, Copy)]
struct Cell {
    shape: Shape,
    edges: usize,
    /// The cell's `TuneCache` key: a hash of its shape class.
    fingerprint: u64,
}

fn fingerprint(parts: &[u64]) -> u64 {
    parts
        .iter()
        .fold(0xC60_2024, |fp, &p| splitmix64(fp ^ splitmix64(p)))
}

fn all_cells() -> Vec<Cell> {
    let mut cells = Vec::new();
    for model in [MlpModel::Gpt3, MlpModel::Llama] {
        for bs in [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048] {
            cells.push(Cell {
                shape: Shape::Mlp(model, bs),
                edges: MLP_EDGES,
                fingerprint: fingerprint(&[1, model as u64, u64::from(bs)]),
            });
        }
    }
    for (tokens, cached) in llm_grid() {
        cells.push(Cell {
            shape: Shape::Attention(AttentionConfig {
                hidden: 12288,
                tokens,
                cached,
            }),
            edges: ATTENTION_EDGES,
            fingerprint: fingerprint(&[2, 12288, u64::from(tokens), u64::from(cached)]),
        });
    }
    for c in [64, 128, 256, 512] {
        for b in [1, 12, 24] {
            for convs in [2, 4] {
                cells.push(Cell {
                    shape: Shape::Conv(c, b, convs),
                    edges: conv_chain_edges(convs),
                    fingerprint: fingerprint(&[3, c.into(), b.into(), convs.into()]),
                });
            }
        }
    }
    cells
}

impl Cell {
    fn compile(&self, gpu: &GpuConfig, ms: &[SyncMechanism]) -> Option<CompiledPipeline> {
        compile(|| match self.shape {
            Shape::Mlp(model, bs) => compile_mlp_mechanisms(gpu, model, bs, OptFlags::WRT, ms),
            Shape::Attention(cfg) => compile_attention_mechanisms(gpu, cfg, OptFlags::WRT, ms),
            Shape::Conv(c, b, convs) => compile_conv_layer_mechanisms(
                gpu,
                b,
                pq_for_channels(c),
                c,
                convs,
                OptFlags::WRT,
                ms,
            ),
        })
    }
}

/// What explaining one plan found.
#[derive(Debug, Clone, PartialEq)]
pub struct Explained {
    makespan: SimTime,
    sync_wait_share: f64,
    /// Critical-path length over makespan.
    path_coverage: f64,
    export_bytes: usize,
}

/// One tuned and explained cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuned {
    plan: MechanismPlan,
    tuned: Explained,
    serial: Explained,
}

/// The `tune` workload.
pub struct Tune {
    gpu: GpuConfig,
    /// Evaluates assignments, trace recording off.
    session: Session,
    /// Re-runs plans for explanation, trace recording on.
    traced: Session,
    cells: Vec<Cell>,
}

impl Tune {
    /// Runs `pipeline` untraced, traced, and untraced again, checks the
    /// three agree, and explains the traced run. The first run also pays
    /// the pipeline's one-off preparation, so trace overhead is measured
    /// against the second untraced run.
    fn explain(&mut self, pipeline: &CompiledPipeline) -> Result<Explained, String> {
        let cold = sim_run(&mut self.session, pipeline, "sim.rerun").map_err(|e| e.to_string())?;
        let report =
            sim_run(&mut self.traced, pipeline, "sim.run_traced").map_err(|e| e.to_string())?;
        let warm =
            sim_run(&mut self.session, pipeline, "sim.rerun_warm").map_err(|e| e.to_string())?;
        if report.total != cold.total || warm.total != cold.total {
            return Err(format!(
                "traced total {} != untraced {} / {}",
                report.total, cold.total, warm.total
            ));
        }
        let events = self.traced.trace();
        trace::count("obs.trace_events", events.len() as u64);
        let spans = trace::span("obs.spans", || {
            collect_spans(pipeline.cluster(), &report, events)
        });
        trace::count("obs.spans", spans.len() as u64);
        let attr = trace::span("obs.analyze", || {
            Attribution::analyze(pipeline.cluster(), &report, events)
        });
        if !attr.exact {
            return Err("attribution partition not exact".to_owned());
        }
        for dev in &attr.devices {
            if dev.busy_slot_ps() + dev.idle_slot_ps != dev.capacity_slot_ps {
                return Err(format!(
                    "device {}: buckets do not sum to capacity",
                    dev.device
                ));
            }
        }
        if attr.critical_path.length > report.total {
            return Err(format!(
                "critical path {} exceeds makespan {}",
                attr.critical_path.length, report.total
            ));
        }
        let json = trace::span("obs.export", || chrome_trace_json(&spans));
        trace::count("obs.export_bytes", json.len() as u64);
        trace::span("obs.validate", || validate_chrome_trace(&json))
            .map_err(|e| format!("chrome trace invalid: {e}"))?;
        Ok(Explained {
            makespan: report.total,
            sync_wait_share: attr.sync_wait_share(),
            path_coverage: attr.critical_path.length.as_picos() as f64
                / report.total.as_picos() as f64,
            export_bytes: json.len(),
        })
    }
}

impl Workload for Tune {
    type Out = Tuned;

    fn build(_seed: u64) -> Self {
        let mut traced = Session::with_mode(EngineMode::Optimized);
        traced.enable_trace();
        Tune {
            gpu: GpuConfig::tesla_v100(),
            session: Session::with_mode(EngineMode::Optimized),
            traced,
            cells: all_cells(),
        }
    }

    fn len(&self) -> usize {
        self.cells.len()
    }

    fn op(&mut self, i: usize) -> Result<Tuned, String> {
        let cell = self.cells[i];
        let gpu = self.gpu.clone();
        let mut cache = TuneCache::new();
        let (mut sim_evals, mut invalid) = (0u64, 0u64);
        let plan = {
            let _span = trace::enter("gen.tune");
            let session = &mut self.session;
            autotune_sync_mechanisms(cell.edges, cell.fingerprint, &mut cache, |ms| {
                sim_evals += 1;
                // An assignment that does not compile or deadlocks is
                // invalid, not fatal: the tuner never picks it.
                let time = cell
                    .compile(&gpu, ms)
                    .and_then(|p| sim_run(session, &p, "sim.run").ok().map(|r| r.total));
                invalid += u64::from(time.is_none());
                time
            })
        };
        let evaluated = plan.evaluated as u64;
        for anchor in [plan.all_fine, plan.all_pdl].into_iter().flatten() {
            if plan.time > anchor {
                return Err(format!("tuned {} slower than anchor {anchor}", plan.time));
            }
        }

        // Replay against the warm cache: every valid assignment must
        // answer from it; only the invalid ones (never cached) ask again,
        // and they are answered invalid without simulating.
        let mut misses = 0u64;
        let replay = trace::span("gen.replay", || {
            autotune_sync_mechanisms(cell.edges, cell.fingerprint, &mut cache, |_| {
                misses += 1;
                None
            })
        });
        if replay != plan || misses != invalid {
            return Err(format!(
                "warm replay diverged ({} vs {}, {misses} misses for {invalid} invalid)",
                replay.describe(),
                plan.describe()
            ));
        }
        trace::count("gen.tune_calls", 2);
        trace::count("gen.evaluations", 2 * evaluated);
        trace::count("gen.sim_evals", sim_evals);
        trace::count("gen.invalid_assignments", invalid);
        trace::count("gen.cache_misses", sim_evals + misses);
        trace::count(
            "gen.cache_hits",
            evaluated - (sim_evals - invalid) + evaluated,
        );

        let tuned = cell
            .compile(&gpu, &plan.assignment)
            .ok_or("the tuned assignment does not compile")?;
        let tuned = self.explain(&tuned)?;
        if tuned.makespan != plan.time {
            return Err(format!(
                "tuned plan re-ran in {} != {}",
                tuned.makespan, plan.time
            ));
        }
        let serial = cell
            .compile(&gpu, &vec![SyncMechanism::StreamSerial; cell.edges])
            .ok_or("all-StreamSerial does not compile")?;
        let serial = self.explain(&serial)?;
        Ok(Tuned {
            plan,
            tuned,
            serial,
        })
    }

    /// Geomean over cells of the all-StreamSerial makespan over the tuned one.
    fn sim_speedup_x(&self, golden: &[Tuned]) -> f64 {
        let ratios: Vec<f64> = golden
            .iter()
            .map(|t| t.serial.makespan.as_picos() as f64 / t.plan.time.as_picos() as f64)
            .collect();
        stats::geomean(&ratios)
    }

    fn exact_layer_metrics(&self, golden: &[Tuned]) -> Vec<(&'static str, f64)> {
        let gains: Vec<f64> = golden
            .iter()
            .filter_map(|t| {
                let anchor = [t.plan.all_fine, t.plan.all_pdl]
                    .into_iter()
                    .flatten()
                    .min()?;
                Some(anchor.as_picos() as f64 / t.plan.time.as_picos() as f64)
            })
            .collect();
        let coverage = golden
            .iter()
            .flat_map(|t| [t.tuned.path_coverage, t.serial.path_coverage])
            .fold(f64::INFINITY, f64::min);
        let share = |f: fn(&Tuned) -> f64| stats::mean(&golden.iter().map(f).collect::<Vec<_>>());
        vec![
            ("gen.gain_over_anchor_x", stats::geomean(&gains)),
            ("obs.path_coverage_min", coverage),
            (
                "obs.sync_wait_share_tuned",
                share(|t| t.tuned.sync_wait_share),
            ),
            (
                "obs.sync_wait_share_serial",
                share(|t| t.serial.sync_wait_share),
            ),
        ]
    }
}
