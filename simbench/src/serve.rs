//! `serve`: one op is one `Server::run` over a prebuilt `ServicePool`.
//!
//! Two tenant mixes, each at one sub-saturating and one saturating load:
//! the four-tenant mix of `serve_smoke` on a two-GPU node (scheduler ×
//! batching configs), and the `DecodeLlm` tenant of `decode_smoke` with
//! 1 MiB of KV per token (static, continuous, and continuous on a KV pool
//! squeezed to 0.2% of DRAM). Arrivals are seeded and simulated in virtual
//! time: open-loop Poisson tenants plus a closed-loop one.

use cusync_serve::{
    ArrivalModel, BatchPolicy, DecodePolicy, ModelKind, RequestSched, ServeConfig, ServeReport,
    Server, ServicePool, TenantClass, TenantSpec, WorkloadSpec,
};
use cusync_sim::{ClusterConfig, SimTime};

use crate::harness::Workload;
use crate::stats;
use crate::trace;

/// Widest batch the pools compile.
const MAX_BATCH: u32 = 8;
/// Mix loads: sub-saturating, saturating (1.0 offers the unbatched capacity).
const MIX_LOADS: [f64; 2] = [0.5, 3.0];
/// Decode loads, in units of one unbatched device's typical-request rate.
const DECODE_LOADS: [f64; 2] = [0.5, 10.0];
/// Decode tokens generated per request at most.
const MAX_NEW: u32 = 96;

#[derive(Clone, Copy, PartialEq)]
enum Arrival {
    Open,
    Closed,
}

/// `(model, arrival, weighted-fair-queueing weight)` of the mix.
const MIX: [(ModelKind, Arrival, u32); 4] = [
    (ModelKind::MlpGpt3, Arrival::Open, 3),
    (ModelKind::ConvStack, Arrival::Closed, 2),
    (ModelKind::Attention { hidden: 8192 }, Arrival::Open, 1),
    (ModelKind::StreamKGemm, Arrival::Open, 1),
];

fn decode_model() -> ModelKind {
    ModelKind::DecodeLlm {
        prompt: 16,
        max_new: MAX_NEW,
        step_cycles: 40_000,
        ctx_cycles: 400,
        kv_bytes_per_token: 1 << 20,
    }
}

fn tenant(model: ModelKind, arrival: ArrivalModel, slo: SimTime, weight: u32) -> TenantSpec {
    TenantSpec {
        name: format!("{model}"),
        model,
        arrival,
        slo,
        queue_cap: 32,
        weight,
        class: TenantClass::Throughput,
        retry: None,
    }
}

/// The mix at `load`, with each tenant's rate calibrated from its
/// width-1 service time `solo` so that load 1.0 offers exactly the
/// unbatched capacity of the node.
fn mix_spec(load: f64, solo: &[SimTime], devices: f64, seed: u64) -> WorkloadSpec {
    let n = MIX.len() as f64;
    let tenants = MIX
        .iter()
        .zip(solo)
        .map(|(&(model, kind, weight), &t1)| {
            let fair_rps = devices / (n * t1.as_secs_f64());
            let arrival = match kind {
                Arrival::Open => ArrivalModel::OpenPoisson {
                    rate_rps: load * fair_rps,
                },
                Arrival::Closed => {
                    // Little's law: each client offers ~1/(think + t1) rps.
                    let think = SimTime::from_picos(4 * t1.as_picos());
                    let per_client = 1.0 / (think.as_secs_f64() + t1.as_secs_f64());
                    ArrivalModel::ClosedLoop {
                        clients: ((load * fair_rps / per_client).round() as u32).max(1),
                        think,
                    }
                }
            };
            tenant(
                model,
                arrival,
                SimTime::from_picos(16 * t1.as_picos()),
                weight,
            )
        })
        .collect();
    WorkloadSpec {
        tenants,
        horizon: SimTime::from_millis(1200),
        seed,
    }
}

fn decode_spec(load: f64, t_typ: SimTime, devices: f64, seed: u64) -> WorkloadSpec {
    let arrival = ArrivalModel::OpenPoisson {
        rate_rps: load * devices / t_typ.as_secs_f64(),
    };
    let mut t = tenant(
        decode_model(),
        arrival,
        SimTime::from_picos(16 * t_typ.as_picos()),
        1,
    );
    t.queue_cap = 64;
    WorkloadSpec {
        tenants: vec![t],
        horizon: SimTime::from_millis(800),
        seed,
    }
}

fn pool_build(cluster: &ClusterConfig, spec: &WorkloadSpec) -> ServicePool {
    trace::span("serve.pool_build", || {
        ServicePool::build(cluster, &spec.tenants, MAX_BATCH)
    })
}

/// What one op runs.
#[derive(Debug, Clone, Copy)]
struct Op {
    server: usize,
    config: ServeConfig,
}

/// The `serve` workload.
pub struct Serve {
    /// Mix servers (one per load), then decode servers (one per load).
    servers: Vec<Server>,
    ops: Vec<Op>,
    /// `(unbatched op, batched op)` pairs on identical arrivals.
    mix_pairs: Vec<(usize, usize)>,
    /// `(static op, continuous op)` pairs on identical arrivals.
    decode_pairs: Vec<(usize, usize)>,
}

impl Workload for Serve {
    type Out = ServeReport;
    /// A set-up takes tens of milliseconds; more of them steady the median.
    const SETUPS: usize = 9;

    fn build(seed: u64) -> Self {
        let cluster = ClusterConfig::dgx_v100(2);
        let devices = f64::from(cluster.num_devices());
        let mut servers = Vec::new();
        let mut ops = Vec::new();
        let (mut mix_pairs, mut decode_pairs) = (Vec::new(), Vec::new());

        // The rates do not change what a pool compiles; a probe spec
        // builds the first pool, whose service times calibrate the rest.
        let probe = mix_spec(1.0, &[SimTime::from_micros(100.0); 4], devices, seed);
        let mut pool = Some(pool_build(&cluster, &probe));
        let solo: Vec<SimTime> = (0..MIX.len())
            .map(|t| pool.as_ref().expect("built").service_time(t, 1, 0))
            .collect();
        for load in MIX_LOADS {
            let spec = mix_spec(load, &solo, devices, seed);
            let pool = pool.take().unwrap_or_else(|| pool_build(&cluster, &spec));
            let window = SimTime::from_picos(2 * solo[0].as_picos());
            for sched in RequestSched::ALL {
                mix_pairs.push((ops.len(), ops.len() + 1));
                for batch in [BatchPolicy::off(), BatchPolicy::new(MAX_BATCH, window)] {
                    ops.push(Op {
                        server: servers.len(),
                        config: ServeConfig {
                            sched,
                            batch,
                            ..ServeConfig::baseline()
                        },
                    });
                }
            }
            servers.push(Server::with_pool(spec, pool));
        }

        let probe = decode_spec(1.0, SimTime::from_micros(100.0), devices, seed);
        let mut pool = Some(pool_build(&cluster, &probe));
        let t_typ = pool
            .as_ref()
            .expect("built")
            .static_decode_service(0, 1, MAX_NEW / 2, 0);
        for load in DECODE_LOADS {
            let spec = decode_spec(load, t_typ, devices, seed);
            let pool = pool.take().unwrap_or_else(|| pool_build(&cluster, &spec));
            let batch = BatchPolicy::new(MAX_BATCH, SimTime::from_picos(t_typ.as_picos() / 8));
            decode_pairs.push((ops.len(), ops.len() + 1));
            for decode in [
                DecodePolicy::static_width(),
                DecodePolicy::continuous_batching(),
                DecodePolicy::new(true, 16, 2),
            ] {
                ops.push(Op {
                    server: servers.len(),
                    config: ServeConfig {
                        batch,
                        decode,
                        ..ServeConfig::baseline()
                    },
                });
            }
            servers.push(Server::with_pool(spec, pool));
        }
        Serve {
            servers,
            ops,
            mix_pairs,
            decode_pairs,
        }
    }

    fn len(&self) -> usize {
        self.ops.len()
    }

    fn op(&mut self, i: usize) -> Result<ServeReport, String> {
        let op = self.ops[i];
        let span = trace::enter("serve.run");
        let report = self.servers[op.server].run(&op.config);
        let offered: u64 = report.tenants.iter().map(|t| t.offered).sum();
        span.work(offered);
        drop(span);
        trace::count("serve.requests", offered);
        trace::count(
            "serve.rejected_shed",
            report.tenants.iter().map(|t| t.rejected + t.shed).sum(),
        );
        trace::count(
            "serve.decode_preemptions",
            report.tenants.iter().map(|t| t.decode_preemptions).sum(),
        );
        report.check()?;
        Ok(report)
    }

    /// Geomean, over each load (and scheduler), of the SLO-met goodput of
    /// the batched config over the unbatched one on identical arrivals:
    /// requests for the mix, tokens (continuous over static) for decode.
    fn sim_speedup_x(&self, golden: &[ServeReport]) -> f64 {
        let requests = self
            .mix_pairs
            .iter()
            .map(|&(off, on)| golden[on].goodput_rps() / golden[off].goodput_rps());
        let tokens = self.decode_pairs.iter().map(|&(fixed, cont)| {
            golden[cont].tokens_goodput_per_sec() / golden[fixed].tokens_goodput_per_sec()
        });
        stats::geomean(&requests.chain(tokens).collect::<Vec<_>>())
    }

    fn exact_layer_metrics(&self, golden: &[ServeReport]) -> Vec<(&'static str, f64)> {
        let pipelines: usize = self.servers.iter().map(|s| s.pool().num_pipelines()).sum();
        let mean = |decode: bool, f: fn(&ServeReport) -> f64| {
            let values: Vec<f64> = self
                .ops
                .iter()
                .zip(golden)
                .filter(|(op, _)| self.is_decode(op.server) == decode)
                .map(|(_, r)| f(r))
                .collect();
            stats::mean(&values)
        };
        vec![
            ("serve.pipelines", pipelines as f64),
            (
                "serve.sim_goodput_rps",
                mean(false, ServeReport::goodput_rps),
            ),
            (
                "serve.tokens_goodput_per_s",
                mean(true, ServeReport::tokens_goodput_per_sec),
            ),
        ]
    }
}

impl Serve {
    fn is_decode(&self, server: usize) -> bool {
        server >= MIX_LOADS.len()
    }
}
