//! `BuildError` coverage for every kernel builder: missing operands and
//! zero-extent shapes must surface as *typed* errors — never panics —
//! from all four builders (Gemm, Conv2D, SoftmaxDropout, StreamK). Invalid
//! hardware models likewise surface as `SimError::InvalidConfig` from
//! `Gpu::run` and `Gpu::compile`, never as a timeline or a deadlock.

use std::sync::Arc;

use cusync_kernels::{
    Conv2DBuilder, Conv2DShape, GemmBuilder, GemmDims, SoftmaxDropoutBuilder, TileShape,
};
use cusync_sim::{
    BuildError, BuildErrorKind, ClusterConfig, ConfigError, Dim3, FixedKernel, Gpu, GpuConfig, Op,
    RunReport, SimError,
};
use cusync_streamk::StreamKBuilder;

fn v100() -> GpuConfig {
    GpuConfig::tesla_v100()
}

fn tile() -> TileShape {
    TileShape::new(128, 128, 32)
}

#[track_caller]
fn assert_missing(err: &BuildError, builder_frag: &str, input_frag: &str) {
    assert_eq!(err.kind, BuildErrorKind::MissingInput, "{err}");
    assert!(err.builder.contains(builder_frag), "{err}");
    assert!(err.missing.contains(input_frag), "{err}");
    let shown = err.to_string();
    assert!(
        shown.contains("required input not set") && shown.contains(builder_frag),
        "{shown}"
    );
}

#[track_caller]
fn assert_invalid(err: &BuildError, builder_frag: &str) {
    assert_eq!(err.kind, BuildErrorKind::InvalidShape, "{err}");
    assert!(err.builder.contains(builder_frag), "{err}");
    let shown = err.to_string();
    assert!(
        shown.contains("invalid shape") && shown.contains("zero"),
        "{shown}"
    );
}

#[test]
fn gemm_builder_reports_each_missing_operand() {
    // No operands at all: A is reported first.
    let err = GemmBuilder::new("g", GemmDims::new(64, 64, 64), tile())
        .build(&v100())
        .unwrap_err();
    assert_missing(&err, "GemmBuilder(g)", "A operand");

    // swiglu_a sets only A; B and C stay missing.
    let mut gpu = cusync_sim::Gpu::new(v100());
    let a = gpu.alloc("a", 64 * 64, cusync_sim::DType::F16);
    let err = GemmBuilder::new("g", GemmDims::new(64, 64, 64), tile())
        .swiglu_a(a)
        .build(&v100())
        .unwrap_err();
    assert_missing(&err, "GemmBuilder(g)", "B operand");
}

#[test]
fn gemm_builder_rejects_zero_extent_shapes() {
    let mut gpu = cusync_sim::Gpu::new(v100());
    let buf = gpu.alloc("buf", 64 * 64, cusync_sim::DType::F16);
    for dims in [
        GemmDims::new(0, 64, 64),
        GemmDims::new(64, 0, 64),
        GemmDims::new(64, 64, 0),
    ] {
        let err = GemmBuilder::new("g", dims, tile())
            .operands(buf, buf, buf)
            .build(&v100())
            .unwrap_err();
        assert_invalid(&err, "GemmBuilder(g)");
    }
    let err = GemmBuilder::new("g", GemmDims::new(64, 64, 64), TileShape::new(128, 0, 32))
        .operands(buf, buf, buf)
        .build(&v100())
        .unwrap_err();
    assert_invalid(&err, "GemmBuilder(g)");
}

#[test]
fn conv2d_builder_reports_missing_operands_and_zero_shapes() {
    let shape = Conv2DShape::square3x3(4, 28, 64, 64);
    let err = Conv2DBuilder::new("c", shape, tile())
        .build(&v100())
        .unwrap_err();
    assert_missing(&err, "Conv2DBuilder(c)", "input");

    let mut gpu = cusync_sim::Gpu::new(v100());
    let buf = gpu.alloc("buf", 1 << 20, cusync_sim::DType::F16);
    for degenerate in [
        Conv2DShape::square3x3(0, 28, 64, 64),
        Conv2DShape::square3x3(4, 0, 64, 64),
        Conv2DShape::square3x3(4, 28, 0, 64),
        Conv2DShape::square3x3(4, 28, 64, 0),
    ] {
        let err = Conv2DBuilder::new("c", degenerate, tile())
            .operands(buf, buf, buf)
            .build(&v100())
            .unwrap_err();
        assert_invalid(&err, "Conv2DBuilder(c)");
    }
    let err = Conv2DBuilder::new("c", shape, TileShape::new(0, 128, 32))
        .operands(buf, buf, buf)
        .build(&v100())
        .unwrap_err();
    assert_invalid(&err, "Conv2DBuilder(c)");
}

#[test]
fn softmax_dropout_builder_reports_missing_operands_and_zero_shapes() {
    let err = SoftmaxDropoutBuilder::new("s", 256, 256, tile())
        .build(&v100())
        .unwrap_err();
    assert_missing(&err, "SoftmaxDropoutBuilder(s)", "input");

    let mut gpu = cusync_sim::Gpu::new(v100());
    let buf = gpu.alloc("buf", 256 * 256, cusync_sim::DType::F16);
    for (rows, cols) in [(0u32, 256u32), (256, 0)] {
        let err = SoftmaxDropoutBuilder::new("s", rows, cols, tile())
            .operands(buf, buf)
            .build(&v100())
            .unwrap_err();
        assert_invalid(&err, "SoftmaxDropoutBuilder(s)");
    }
    let err = SoftmaxDropoutBuilder::new("s", 256, 256, TileShape::new(128, 0, 32))
        .operands(buf, buf)
        .build(&v100())
        .unwrap_err();
    assert_invalid(&err, "SoftmaxDropoutBuilder(s)");
}

#[test]
fn streamk_builder_reports_missing_operands_and_zero_shapes() {
    let err = StreamKBuilder::new("k", GemmDims::new(64, 64, 64), tile())
        .build()
        .unwrap_err();
    assert_missing(&err, "StreamKBuilder(k)", "A operand");

    let mut gpu = cusync_sim::Gpu::new(v100());
    let buf = gpu.alloc("buf", 64 * 64, cusync_sim::DType::F16);
    for dims in [
        GemmDims::new(0, 64, 64),
        GemmDims::new(64, 0, 64),
        GemmDims::new(64, 64, 0),
    ] {
        let err = StreamKBuilder::new("k", dims, tile())
            .operands(buf, buf, buf)
            .build()
            .unwrap_err();
        assert_invalid(&err, "StreamKBuilder(k)");
    }
    let err = StreamKBuilder::new("k", GemmDims::new(64, 64, 64), TileShape::new(0, 128, 32))
        .operands(buf, buf, buf)
        .build()
        .unwrap_err();
    assert_invalid(&err, "StreamKBuilder(k)");
}

#[test]
fn build_errors_convert_into_sim_errors_for_pipeline_assembly() {
    let err = GemmBuilder::new("g", GemmDims::new(0, 1, 1), tile())
        .build(&v100())
        .unwrap_err();
    let sim: SimError = err.clone().into();
    match sim {
        SimError::Build(inner) => assert_eq!(inner, err),
        other => panic!("expected SimError::Build, got {other}"),
    }
}

/// Every `SimError` variant — including the structured `DeadlockReport` —
/// must have complete `Display` + `std::error::Error` coverage: distinct,
/// actionable messages and a `source()` chain that round-trips to the
/// underlying typed error. Exploration failures print these, so an opaque
/// `Debug` dump here is a diagnostics regression.
#[test]
fn sim_error_display_and_source_cover_every_variant() {
    use cusync_sim::{Dim3, FixedKernel, Gpu, Op, SimTime};
    use std::error::Error as _;
    use std::sync::Arc;

    // Deadlock: produce a real one and check the rendered report.
    let mut gpu = Gpu::new(GpuConfig {
        host_launch_gap: SimTime::ZERO,
        kernel_dispatch_latency: SimTime::ZERO,
        block_jitter: 0.0,
        ..GpuConfig::toy(2)
    });
    let sem = gpu.alloc_sems("tile", 1, 0);
    let s1 = gpu.create_stream(0);
    let s2 = gpu.create_stream(1);
    gpu.launch(
        s1,
        Arc::new(FixedKernel::new(
            "producer",
            Dim3::linear(2),
            1,
            vec![Op::compute(100), Op::post(sem, 0)],
        )),
    );
    gpu.launch(
        s2,
        Arc::new(FixedKernel::new(
            "consumer",
            Dim3::linear(2),
            1,
            vec![Op::wait(sem, 0, 2), Op::compute(10)],
        )),
    );
    let deadlock = gpu.run().unwrap_err();
    let shown = deadlock.to_string();
    // The Display names the stall, each blocked wait, the starved
    // kernel's launch progress, per-SM occupancy and the cycle sentence.
    for fragment in [
        "deadlock at",
        "blocked: consumer",
        "tile[0] >= 2",
        "pending: producer",
        "unlaunched",
        "occupancy: sm",
        "spinning",
        "wait cycle:",
    ] {
        assert!(
            shown.contains(fragment),
            "missing {fragment:?} in:\n{shown}"
        );
    }
    // Error::source round-trips to the structured report.
    let source = deadlock.source().expect("deadlock has a source");
    let report = source
        .downcast_ref::<cusync_sim::DeadlockReport>()
        .expect("source is the DeadlockReport");
    assert_eq!(report.blocked.len(), 2);
    assert_eq!(report.to_string(), shown, "Display delegates to the report");

    // Build: source() chains to the typed BuildError.
    let build = GemmBuilder::new("g", GemmDims::new(0, 1, 1), tile())
        .build(&v100())
        .unwrap_err();
    let sim: SimError = build.clone().into();
    assert!(sim.to_string().contains("invalid shape"), "{sim}");
    let source = sim.source().expect("build error has a source");
    assert_eq!(
        source
            .downcast_ref::<BuildError>()
            .expect("BuildError source"),
        &build
    );

    // The leaf variants have no source but still render actionably.
    for (err, fragment) in [
        (SimError::AlreadyRan, "once per Gpu"),
        (SimError::RuntimeShutdown, "worker pool"),
        (
            SimError::WorkerPanic("kernel body exploded".into()),
            "kernel body exploded",
        ),
    ] {
        assert!(err.to_string().contains(fragment), "{err}");
        assert!(err.source().is_none());
    }
}

/// An 8-block `Op::compute(50_000)` kernel on `cluster`.
fn compute_probe(cluster: ClusterConfig) -> Gpu {
    let mut gpu = Gpu::new_cluster(cluster);
    let s = gpu.create_stream(0);
    gpu.launch(
        s,
        Arc::new(FixedKernel::new(
            "probe",
            Dim3::linear(8),
            1,
            vec![Op::compute(50_000)],
        )),
    );
    gpu
}

/// Runs the probe one-shot and compiles a second copy, returning both
/// outcomes.
fn probe_outcomes(cluster: ClusterConfig) -> (Result<RunReport, SimError>, Option<SimError>) {
    let run = compute_probe(cluster.clone()).run();
    let compiled = compute_probe(cluster).compile().err();
    (run, compiled)
}

/// A clock or bandwidth that is NaN, negative, zero or infinite, or a
/// device without SMs, used to price to a plausible-looking timeline (NaN
/// and negative clocks ran *faster* than the valid config, a zero clock
/// saturated, zero SMs reported a deadlock). Every such model is now a
/// typed `InvalidConfig` from both `Gpu::run` and `Gpu::compile`.
#[test]
fn invalid_configs_are_typed_errors_never_timelines_or_deadlocks() {
    let (valid, compiled) = probe_outcomes(ClusterConfig::single(v100()));
    assert!(valid.is_ok(), "{valid:?}");
    assert!(compiled.is_none(), "{compiled:?}");

    let gpu_probes = [
        (
            "clock_hz",
            GpuConfig {
                clock_hz: f64::NAN,
                ..v100()
            },
        ),
        (
            "clock_hz",
            GpuConfig {
                clock_hz: -1.0,
                ..v100()
            },
        ),
        (
            "clock_hz",
            GpuConfig {
                clock_hz: 0.0,
                ..v100()
            },
        ),
        (
            "clock_hz",
            GpuConfig {
                clock_hz: f64::INFINITY,
                ..v100()
            },
        ),
        (
            "num_sms",
            GpuConfig {
                num_sms: 0,
                ..v100()
            },
        ),
        (
            "dram_bytes_per_sec",
            GpuConfig {
                dram_bytes_per_sec: f64::NAN,
                ..v100()
            },
        ),
        (
            "dram_bytes_per_sec",
            GpuConfig {
                dram_bytes_per_sec: 0.0,
                ..v100()
            },
        ),
        (
            "dram_bytes_per_sec",
            GpuConfig {
                dram_bytes_per_sec: -9e11,
                ..v100()
            },
        ),
    ];
    let mut probes: Vec<(&str, ClusterConfig)> = gpu_probes
        .iter()
        .map(|(field, gpu)| {
            assert!(gpu.validate().is_err(), "{field}: {gpu:?}");
            (*field, ClusterConfig::single(gpu.clone()))
        })
        .collect();
    for link in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
        let mut node = ClusterConfig::dgx_v100(2);
        node.link_bytes_per_sec = link;
        probes.push(("link_bytes_per_sec", node));
    }
    let mut node = ClusterConfig::dgx_v100(2);
    node.devices[1].clock_hz = f64::NAN;
    probes.push(("device 1: clock_hz", node));

    for (what, cluster) in probes {
        let (run, compiled) = probe_outcomes(cluster);
        match run {
            Err(SimError::InvalidConfig(e)) => {
                assert!(e.to_string().contains(what), "{what}: {e}");
            }
            other => panic!("{what}: run must be InvalidConfig, got {other:?}"),
        }
        assert!(
            matches!(compiled, Some(SimError::InvalidConfig(_))),
            "{what}: compile must be InvalidConfig, got {compiled:?}"
        );
    }

    let empty = ClusterConfig {
        devices: Vec::new(),
        ..ClusterConfig::dgx_v100(1)
    };
    assert_eq!(empty.validate(), Err(ConfigError::NoDevices));

    // The error chains and renders like the other typed errors.
    use std::error::Error as _;
    let err: SimError = ConfigError::NoSms { device: Some(3) }.into();
    assert!(err.to_string().contains("device 3: num_sms"), "{err}");
    assert!(err.source().is_some());
}

/// Every shipped hardware preset passes validation.
#[test]
fn shipped_constructors_validate() {
    for gpu in [
        GpuConfig::tesla_v100(),
        GpuConfig::ampere_a100(),
        GpuConfig::toy(1),
        GpuConfig::toy(4),
        GpuConfig::default(),
    ] {
        assert_eq!(gpu.validate(), Ok(()), "{}", gpu.name);
        assert_eq!(ClusterConfig::single(gpu.clone()).validate(), Ok(()));
    }
    for n in [1, 2, 4, 8] {
        assert_eq!(
            ClusterConfig::dgx_v100(n).validate(),
            Ok(()),
            "dgx_v100({n})"
        );
        for gpu in [GpuConfig::tesla_v100(), GpuConfig::ampere_a100()] {
            assert_eq!(
                ClusterConfig::nvlink_ring(n, gpu.clone()).validate(),
                Ok(()),
                "nvlink_ring({n}, {})",
                gpu.name
            );
        }
    }
}
