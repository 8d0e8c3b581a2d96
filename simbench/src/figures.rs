//! `figures`: one op is one row of the paper's Fig. 6 (MLP, attention),
//! Fig. 7 (conv) or Fig. 8 (end-to-end LLM and vision) sweep — the
//! StreamSync baseline plus every plotted mode, each compiled with a
//! `cusync-models` `compile_*` function and simulated on one warmed
//! `Session`.

use cusync::OptFlags;
use cusync_models::{
    compile_attention, compile_conv_layer, compile_mlp, launch_ring_allreduce, llm_step_report,
    pq_for_channels, resnet38, vgg19, vision_step_report, AttentionConfig, ConvStage, LlmModel,
    MlpModel, PolicyKind, SyncMode, GPT3, LLAMA, MP_DEGREE,
};
use cusync_sim::{
    ClusterConfig, CompiledPipeline, EngineMode, Gpu, GpuConfig, Session, SimTime, StreamId,
};

use crate::calls::{compile, sim_run};
use crate::harness::Workload;
use crate::stats;

/// Batch sizes of the Fig. 6 MLP panels.
const MLP_BATCHES: [u32; 12] = [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];
/// Batch sizes of the Fig. 7 panels and Fig. 8b.
const CONV_BATCHES: [u32; 9] = [1, 4, 8, 12, 16, 20, 24, 28, 32];
/// The Fig. 7 panels: channel sets and convolutions per layer.
const CONV_PANELS: [(&[u32], u32); 3] = [(&[64, 128], 2), (&[256, 512], 2), (&[256, 512], 4)];

/// The prompt/generation grid of the Fig. 6 attention panels and Fig. 8a:
/// `(tokens, cached)`.
pub fn llm_grid() -> Vec<(u32, u32)> {
    let mut grid: Vec<(u32, u32)> = [512, 1024, 2048].map(|t| (t, 0)).to_vec();
    for cached in [512, 1024, 2048] {
        for batch in [1, 2, 4] {
            grid.push((batch, cached));
        }
    }
    grid
}

/// One row of a figure.
#[derive(Debug, Clone)]
enum Row {
    /// Fig. 6a/c.
    Mlp(MlpModel, u32),
    /// Fig. 6b/d.
    Attention(AttentionConfig),
    /// Fig. 7: `(channels, batch, convs)`.
    Conv(u32, u32, u32),
    /// Fig. 8a: `(tokens, cached)`, one series per model.
    Llm(u32, u32),
    /// Fig. 8b: batch, one series per model.
    Vision(u32),
}

impl Row {
    /// The modes plotted on this row, StreamSync first.
    fn modes(&self) -> Vec<SyncMode> {
        let plotted = match self {
            Row::Mlp(..) => [SyncMode::llm_policies(), vec![SyncMode::StreamK]].concat(),
            Row::Attention(_) => [SyncMode::attention_policies(), vec![SyncMode::StreamK]].concat(),
            Row::Conv(..) => SyncMode::conv_policies(),
            Row::Llm(..) => SyncMode::attention_policies(),
            Row::Vision(_) => vec![
                SyncMode::CuSync(PolicyKind::Row, OptFlags::WRT),
                SyncMode::CuSync(PolicyKind::Conv2DTile, OptFlags::WRT),
            ],
        };
        [vec![SyncMode::StreamSync], plotted].concat()
    }

    fn series(&self) -> usize {
        match self {
            Row::Llm(..) | Row::Vision(_) => 2,
            _ => 1,
        }
    }
}

fn all_rows() -> Vec<Row> {
    let mut rows = Vec::new();
    for model in [MlpModel::Gpt3, MlpModel::Llama] {
        rows.extend(MLP_BATCHES.map(|bs| Row::Mlp(model, bs)));
    }
    for hidden in [12288, 8192] {
        for (tokens, cached) in llm_grid() {
            rows.push(Row::Attention(AttentionConfig {
                hidden,
                tokens,
                cached,
            }));
        }
    }
    for (channels, convs) in CONV_PANELS {
        for &c in channels {
            rows.extend(CONV_BATCHES.map(|b| Row::Conv(c, b, convs)));
        }
    }
    rows.extend(llm_grid().into_iter().map(|(t, c)| Row::Llm(t, c)));
    rows.extend(CONV_BATCHES.map(Row::Vision));
    rows
}

const LLMS: [LlmModel; 2] = [GPT3, LLAMA];

/// Simulated times of one row: per series, one time per mode of
/// [`Row::modes`] (StreamSync first).
pub type RowTimes = Vec<Vec<SimTime>>;

/// The `figures` workload.
pub struct Figures {
    gpu: GpuConfig,
    session: Session,
    rows: Vec<Row>,
    /// The conv stages of the Fig. 8b models, ResNet-38 and VGG-19.
    vision: [Vec<ConvStage>; 2],
}

/// A ring allreduce of `bytes` over the Fig. 8 model-parallel node.
fn compile_allreduce(gpu: &GpuConfig, bytes: u64) -> CompiledPipeline {
    let mut node = Gpu::new_cluster(ClusterConfig::nvlink_ring(MP_DEGREE, gpu.clone()));
    let streams: Vec<StreamId> = (0..MP_DEGREE)
        .map(|d| node.create_stream_on(d, 0))
        .collect();
    launch_ring_allreduce(&mut node, "ar", bytes, &streams);
    node.compile().expect("a ring allreduce compiles")
}

impl Figures {
    fn time(&mut self, pipeline: &CompiledPipeline) -> Result<SimTime, String> {
        sim_run(&mut self.session, pipeline, "sim.run")
            .map(|r| r.total)
            .map_err(|e| e.to_string())
    }

    fn row_times(&mut self, row: &Row) -> Result<RowTimes, String> {
        let gpu = self.gpu.clone();
        let modes = row.modes();
        let mut out = Vec::with_capacity(row.series());
        // `series` indexes the Fig. 8 models of whichever kind the row has.
        #[allow(clippy::needless_range_loop)]
        for series in 0..row.series() {
            // The allreduce of an LLM step does not depend on the mode.
            let allreduce = match row {
                Row::Llm(tokens, _) => {
                    let bytes = u64::from(*tokens) * u64::from(LLMS[series].hidden()) * 2;
                    let p = compile(|| compile_allreduce(&gpu, bytes));
                    let report =
                        sim_run(&mut self.session, &p, "sim.run").map_err(|e| e.to_string())?;
                    let start = report
                        .kernels
                        .iter()
                        .map(|k| k.start)
                        .min()
                        .unwrap_or(SimTime::ZERO);
                    report.total.saturating_sub(start)
                }
                _ => SimTime::ZERO,
            };
            let mut times = Vec::with_capacity(modes.len());
            for &mode in &modes {
                let t = match row {
                    Row::Mlp(model, bs) => {
                        let p = compile(|| compile_mlp(&gpu, *model, *bs, mode));
                        self.time(&p)?
                    }
                    Row::Attention(cfg) => {
                        let p = compile(|| compile_attention(&gpu, *cfg, mode));
                        self.time(&p)?
                    }
                    Row::Conv(c, batch, convs) => {
                        let p = compile(|| {
                            compile_conv_layer(&gpu, *batch, pq_for_channels(*c), *c, *convs, mode)
                        });
                        self.time(&p)?
                    }
                    Row::Llm(tokens, cached) => {
                        let model = LLMS[series];
                        let cfg = AttentionConfig {
                            hidden: model.hidden(),
                            tokens: *tokens,
                            cached: *cached,
                        };
                        let attn = compile(|| compile_attention(&gpu, cfg, mode));
                        let attn = self.time(&attn)?;
                        let mlp = compile(|| compile_mlp(&gpu, model.mlp, *tokens, mode));
                        let mlp = self.time(&mlp)?;
                        let layer = attn + mlp + allreduce + allreduce;
                        SimTime::from_picos(layer.as_picos() * u64::from(model.layers))
                    }
                    Row::Vision(batch) => {
                        let mut total = SimTime::ZERO;
                        for s in 0..self.vision[series].len() {
                            let stage = self.vision[series][s];
                            let p = compile(|| {
                                compile_conv_layer(
                                    &gpu,
                                    *batch,
                                    stage.pq,
                                    stage.channels,
                                    stage.convs_per_layer,
                                    mode,
                                )
                            });
                            let t = self.time(&p)?;
                            total += SimTime::from_picos(t.as_picos() * u64::from(stage.layers));
                        }
                        total
                    }
                };
                times.push(t);
            }
            out.push(times);
        }
        Ok(out)
    }
}

impl Workload for Figures {
    type Out = RowTimes;

    fn build(_seed: u64) -> Self {
        Figures {
            gpu: GpuConfig::tesla_v100(),
            session: Session::with_mode(EngineMode::Optimized),
            rows: all_rows(),
            vision: [resnet38(), vgg19()],
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn op(&mut self, i: usize) -> Result<RowTimes, String> {
        let row = self.rows[i].clone();
        self.row_times(&row)
    }

    /// Every row again on the Reference engine, and the Fig. 8 rows
    /// against the library's own end-to-end composition.
    fn verify(&mut self, golden: &[RowTimes]) -> Result<(), String> {
        let optimized =
            std::mem::replace(&mut self.session, Session::with_mode(EngineMode::Reference));
        let rows = self.rows.clone();
        let reference: Result<Vec<RowTimes>, String> =
            rows.iter().map(|r| self.row_times(r)).collect();
        self.session = optimized;
        for (i, (row, reference)) in rows.iter().zip(reference?).enumerate() {
            if reference != golden[i] {
                return Err(format!("{row:?}: Optimized and Reference engines disagree"));
            }
            for (series, times) in golden[i].iter().enumerate() {
                for (mode, &t) in row.modes().into_iter().zip(times) {
                    let library = match row {
                        Row::Llm(tokens, cached) => {
                            llm_step_report(&self.gpu, LLMS[series], *tokens, *cached, mode).0
                        }
                        Row::Vision(batch) => {
                            vision_step_report(&self.gpu, &self.vision[series], *batch, mode).0
                        }
                        _ => t,
                    };
                    if library != t {
                        return Err(format!(
                            "{row:?} {mode}: {t} here, {library} in cusync-models"
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Geomean over every plotted series of each row of StreamSync time
    /// over the best cuSync policy's time.
    fn sim_speedup_x(&self, golden: &[RowTimes]) -> f64 {
        let mut ratios = Vec::new();
        for (row, times) in self.rows.iter().zip(golden) {
            let modes = row.modes();
            for series in times {
                let best = modes
                    .iter()
                    .zip(series)
                    .filter(|(m, _)| matches!(m, SyncMode::CuSync(..)))
                    .map(|(_, t)| *t)
                    .min()
                    .expect("every row plots a cuSync policy");
                ratios.push(series[0].as_picos() as f64 / best.as_picos() as f64);
            }
        }
        stats::geomean(&ratios)
    }
}
