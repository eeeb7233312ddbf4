//! The traced replay behind `--trace 1`.
//!
//! The workload's own frames are sent through the public calls of each
//! lower layer — `models` preprocess/postprocess, `nn` forward plans,
//! `tensor` convolutions on activations captured from those plans, `det3d`
//! decode and NMS, `runtime` cost predictions — timed from outside with
//! in-memory spans (name, start, end, parent, frame id). The `serve` and
//! engine numbers come from the workload's timed engine run. The spans and
//! their self times are written to `.bench_out/` when the replay ends; the
//! same replay with spans off gives the tracing overhead.

use crate::engine::{Ladder, Setup, RUNGS};
use crate::host::{median, Fingerprint};
use crate::{engine::EngineStats, Metric, Workload};
use std::collections::HashMap;
use std::time::Instant;
use upaq_det3d::{decode_candidates, nms_top_k};
use upaq_json::{json, Value};
use upaq_nn::exec::{forward_batch_into, forward_into, Workspace};
use upaq_nn::{LayerId, LayerKind};
use upaq_runtime::{DeadlineScheduler, SchedulerConfig};
use upaq_tensor::ops::{conv2d_packed_into, Conv2dParams, TensorParallel};
use upaq_tensor::packed::{PackedConv, Tap};
use upaq_tensor::{Shape, Tensor};

/// Frames per replay pass; a multiple of the batch size.
const REPLAY_FRAMES: usize = 48;
const BATCH: usize = 4;
const PASS_PAIRS: usize = 2;
const NO_PARENT: u32 = u32::MAX;

/// Run facts the trace file records next to the spans.
pub struct TraceEnv<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub fingerprint: &'a Fingerprint,
    pub probe_gbps: f64,
    pub warmup_s: f64,
}

struct Span {
    name: u32,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    frame: u64,
}

/// In-memory span recorder. Switched off, `begin`/`end` record nothing.
struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if on { 1 << 16 } else { 0 }),
        }
    }

    fn begin(&mut self, name: u32, parent: u32, frame: u64) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            frame,
        });
        (self.spans.len() - 1) as u32
    }

    fn end(&mut self, id: u32) {
        if self.on {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }
}

/// Interned span names.
#[derive(Default)]
struct Names {
    names: Vec<String>,
    ids: HashMap<String, u32>,
}

impl Names {
    fn id(&mut self, name: String) -> u32 {
        if let Some(&id) = self.ids.get(&name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.ids.insert(name.clone(), id);
        self.names.push(name);
        id
    }
}

/// One weighted convolution of a rung, ready to replay on the input
/// activation captured from that rung's forward plan.
struct Conv<'a> {
    layer: String,
    input: LayerId,
    packed: &'a PackedConv,
    bias: Option<&'a Tensor>,
    params: Conv2dParams,
    out_shape: Shape,
    in_elems: u64,
    span: u32,
    span_t2: u32,
}

struct Rung<'a> {
    convs: Vec<Conv<'a>>,
    forward: u32,
    forward_t2: u32,
    batch: u32,
    kernels: u32,
    kernels_t2: u32,
    postprocess: u32,
    decode: u32,
    nms: u32,
}

fn metric_safe(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn rungs<'a>(ladder: &'a Ladder, names: &mut Names) -> Vec<Rung<'a>> {
    ladder
        .levels()
        .iter()
        .zip(RUNGS)
        .map(|(spec, rung)| {
            let model = &spec.detector.model;
            let graph = model.compute_graph();
            let convs = model
                .weighted_layers()
                .into_iter()
                .filter_map(|id| {
                    let layer = model.layer(id).expect("weighted layer id is valid");
                    let LayerKind::Conv2d {
                        out_channels,
                        stride,
                        padding,
                        ..
                    } = *layer.kind()
                    else {
                        return None;
                    };
                    let packed = layer.packed()?;
                    let name = metric_safe(layer.name());
                    Some(Conv {
                        input: graph.inputs_of(id)[0],
                        packed,
                        bias: layer.bias(),
                        params: Conv2dParams { stride, padding },
                        // Filled in from the captured input on first use.
                        out_shape: Shape::nchw(1, out_channels, 0, 0),
                        in_elems: 0,
                        span: names.id(format!("tensor.conv2d_packed_into.{rung}.{name}")),
                        span_t2: names.id(format!("tensor.conv2d_packed_into_t2.{rung}.{name}")),
                        layer: name,
                    })
                })
                .collect();
            Rung {
                convs,
                forward: names.id(format!("nn.forward_into.{rung}")),
                forward_t2: names.id(format!("nn.forward_into_t2.{rung}")),
                batch: names.id(format!("nn.forward_batch_into.{rung}")),
                kernels: names.id(format!("tensor.kernels.{rung}")),
                kernels_t2: names.id(format!("tensor.kernels_t2.{rung}")),
                postprocess: names.id(format!("models.postprocess.{rung}")),
                decode: names.id(format!("det3d.decode_candidates.{rung}")),
                nms: names.id(format!("det3d.nms_top_k.{rung}")),
            }
        })
        .collect()
}

/// Counts the replay collects besides spans.
#[derive(Default)]
struct Counts {
    candidates: [u64; 3],
    kept: u64,
}

/// Replays `conv` on the activation it reads in `ws`, into `out`.
fn replay_conv(conv: &mut Conv<'_>, ws: &Workspace, out: &mut Option<Tensor>) {
    let x = &ws.activations()[&conv.input];
    let out = out.get_or_insert_with(|| {
        let (h, w) = (x.shape().dim(2), x.shape().dim(3));
        let (kh, kw) = (conv.packed.kh(), conv.packed.kw());
        let oh = conv.params.out_size(h, kh);
        let ow = conv.params.out_size(w, kw);
        conv.out_shape = Shape::nchw(1, conv.packed.out_c(), oh, ow);
        conv.in_elems = x.len() as u64;
        Tensor::zeros(conv.out_shape.clone())
    });
    conv2d_packed_into(x, conv.packed, conv.bias, conv.params, out).expect("conv replay");
}

/// One replay pass over the workload's frames, numbered from
/// `first_frame`. Returns its wall seconds.
fn pass(
    tr: &mut Tracer,
    setup: &Setup,
    rungs: &mut [Rung<'_>],
    (root, pre): (u32, u32),
    first_frame: u64,
    counts: &mut Counts,
) -> f64 {
    let ladder = &setup.ladder;
    let base = &ladder.level(0).detector;
    let clouds = &setup.inputs.clouds;
    let mut ws: Vec<Workspace> = rungs.iter().map(|_| Workspace::new()).collect();
    let mut ws_t2: Vec<Workspace> = rungs.iter().map(|_| Workspace::new()).collect();
    let mut wss: Vec<Vec<Workspace>> = rungs.iter().map(|_| Vec::new()).collect();
    let mut outs: Vec<Vec<Option<Tensor>>> = rungs
        .iter()
        .map(|r| r.convs.iter().map(|_| None).collect())
        .collect();
    let mut batch: Vec<HashMap<String, Tensor>> = Vec::with_capacity(BATCH);
    let t = Instant::now();
    for f in 0..REPLAY_FRAMES {
        let frame = first_frame + f as u64;
        let cloud = &clouds[f % clouds.len()];
        let top = tr.begin(root, NO_PARENT, frame);
        let s = tr.begin(pre, top, frame);
        let x = base.preprocess(cloud);
        tr.end(s);
        let mut feed = HashMap::with_capacity(1);
        feed.insert(base.input_name.clone(), x);
        for (level, rung) in rungs.iter_mut().enumerate() {
            let spec = ladder.level(level);
            let det = &spec.detector;
            let model = &det.model;

            TensorParallel::set_threads(1);
            let s = tr.begin(rung.forward, top, frame);
            forward_into(model, &feed, &mut ws[level]).expect("forward replay");
            tr.end(s);
            let k = tr.begin(rung.kernels, top, frame);
            for (conv, out) in rung.convs.iter_mut().zip(outs[level].iter_mut()) {
                let s = tr.begin(conv.span, k, frame);
                replay_conv(conv, &ws[level], out);
                tr.end(s);
            }
            tr.end(k);
            let head_out = &ws[level].activations()[&spec.head];
            let s = tr.begin(rung.postprocess, top, frame);
            std::hint::black_box(det.postprocess(head_out, cloud));
            tr.end(s);
            let s = tr.begin(rung.decode, top, frame);
            let candidates = decode_candidates(head_out, &det.head_spec);
            tr.end(s);
            counts.candidates[level] += candidates.len() as u64;
            let s = tr.begin(rung.nms, top, frame);
            let kept = nms_top_k(
                candidates,
                det.head_spec.nms_iou,
                det.head_spec.max_detections,
            );
            tr.end(s);
            counts.kept += kept.len() as u64;

            TensorParallel::set_threads(2);
            let s = tr.begin(rung.forward_t2, top, frame);
            forward_into(model, &feed, &mut ws_t2[level]).expect("forward replay");
            tr.end(s);
            if level == 0 {
                let k = tr.begin(rung.kernels_t2, top, frame);
                for (conv, out) in rung.convs.iter_mut().zip(outs[level].iter_mut()) {
                    let s = tr.begin(conv.span_t2, k, frame);
                    replay_conv(conv, &ws_t2[level], out);
                    tr.end(s);
                }
                tr.end(k);
            }
        }
        batch.push(feed);
        if batch.len() == BATCH {
            TensorParallel::set_threads(1);
            for (level, rung) in rungs.iter().enumerate() {
                let s = tr.begin(rung.batch, top, frame);
                forward_batch_into(&ladder.level(level).detector.model, &batch, &mut wss[level])
                    .expect("batched forward replay");
                tr.end(s);
            }
            batch.clear();
        }
        tr.end(top);
    }
    t.elapsed().as_secs_f64()
}

/// Span durations (ms) grouped by name id, and total self time (ms) per
/// name id: a span's duration minus the time its child spans cover.
fn durations(tr: &Tracer) -> (HashMap<u32, Vec<f64>>, HashMap<u32, f64>) {
    let dur = |s: &Span| (s.end_ns - s.start_ns) as f64 / 1e6;
    let mut child_ms = vec![0.0; tr.spans.len()];
    for s in &tr.spans {
        if s.parent != NO_PARENT {
            child_ms[s.parent as usize] += dur(s);
        }
    }
    let mut by_name: HashMap<u32, Vec<f64>> = HashMap::new();
    let mut self_ms: HashMap<u32, f64> = HashMap::new();
    for (s, child) in tr.spans.iter().zip(&child_ms) {
        by_name.entry(s.name).or_default().push(dur(s));
        *self_ms.entry(s.name).or_default() += dur(s) - child;
    }
    (by_name, self_ms)
}

/// Runs the replay with spans off and on, writes the trace, and returns
/// the per-layer metrics.
pub fn run(env: &TraceEnv<'_>, setup: &Setup, stats: &EngineStats) -> Result<Vec<Metric>, String> {
    let mut names = Names::default();
    let root = names.id("replay.frame".into());
    let pre = names.id("models.preprocess".into());
    let predict = names.id("runtime.DeadlineScheduler.predicted_s".into());
    let mut rungs = rungs(&setup.ladder, &mut names);
    let mut counts = Counts::default();

    // Passes run off, on, on, off, … so drift and warm-up land on both sides
    // of the overhead ratio alike. Counts come from the traced passes.
    let mut tr = Tracer::new(true);
    let (mut off_s, mut on_s) = (0.0, 0.0);
    for i in 0..PASS_PAIRS {
        let first = (i * REPLAY_FRAMES) as u64;
        for traced in [i % 2 == 1, i % 2 == 0] {
            if traced {
                on_s += pass(&mut tr, setup, &mut rungs, (root, pre), first, &mut counts);
            } else {
                let (mut off, mut untraced) = (Tracer::new(false), Counts::default());
                off_s += pass(
                    &mut off,
                    setup,
                    &mut rungs,
                    (root, pre),
                    first,
                    &mut untraced,
                );
            }
        }
    }
    let s = tr.begin(predict, NO_PARENT, 0);
    let scheduler = DeadlineScheduler::new(&setup.ladder, SchedulerConfig::default());
    let predicted_ms: Vec<f64> = (0..RUNGS.len())
        .map(|level| scheduler.predicted_s(level) * 1e3)
        .collect();
    tr.end(s);
    TensorParallel::set_threads(env.workload.tensor_threads());

    let (by_name, self_ms) = durations(&tr);
    let med = |id: u32| {
        let mut v = by_name.get(&id).cloned().unwrap_or_default();
        if v.is_empty() {
            f64::NAN
        } else {
            median(&mut v)
        }
    };
    let pooled = |ids: Vec<u32>| {
        let mut v: Vec<f64> = ids
            .iter()
            .flat_map(|id| by_name.get(id).cloned().unwrap_or_default())
            .collect();
        median(&mut v)
    };
    let mut m = Vec::new();
    let mut push =
        |name: String, value: f64, unit: &'static str| m.push(Metric { name, value, unit });

    // Forward minus its kernels, paired frame by frame: each frame's
    // kernel replay runs right after its forward, on the same activations.
    let self_ms_of = |rung: &Rung<'_>| {
        let frame_ms = |name: u32| -> HashMap<u64, f64> {
            tr.spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| (s.frame, (s.end_ns - s.start_ns) as f64 / 1e6))
                .collect()
        };
        let kernels = frame_ms(rung.kernels);
        let mut diffs: Vec<f64> = frame_ms(rung.forward)
            .iter()
            .map(|(frame, fwd)| fwd - kernels[frame])
            .collect();
        median(&mut diffs)
    };

    let mut forward_ms = [0.0; 3];
    let mut forward_ms_t2 = [0.0; 3];
    for (level, (rung, short)) in rungs.iter().zip(RUNGS).enumerate() {
        let (mut macs, mut bytes) = (0u64, 0u64);
        for conv in &rung.convs {
            push(
                format!("tensor.conv_ms.{short}.{}", conv.layer),
                med(conv.span),
                "ms",
            );
            if level == 0 {
                push(
                    format!("tensor.conv_ms_t2.{short}.{}", conv.layer),
                    med(conv.span_t2),
                    "ms",
                );
            }
            // Computed from shapes and packed weights, not measured.
            let out_elems = conv.out_shape.dims().iter().product::<usize>() as u64;
            let out_sites = out_elems / conv.packed.out_c() as u64;
            macs += conv.packed.nonzeros() as u64 * out_sites;
            bytes += 4 * (conv.in_elems + out_elems)
                + (conv.packed.nonzeros() * std::mem::size_of::<Tap<f32>>()) as u64
                + 4 * conv.bias.map_or(0, |b| b.len() as u64);
        }
        push(format!("tensor.nonzero_macs.{short}"), macs as f64, "MAC");
        push(format!("tensor.bytes.{short}"), bytes as f64, "B");
        forward_ms[level] = med(rung.forward);
        forward_ms_t2[level] = med(rung.forward_t2);
        push(format!("nn.forward_ms.{short}"), forward_ms[level], "ms");
        push(
            format!("nn.forward_ms_t2.{short}"),
            forward_ms_t2[level],
            "ms",
        );
        push(
            format!("nn.forward_batch4_ms_per_frame.{short}"),
            med(rung.batch) / BATCH as f64,
            "ms",
        );
        push(format!("nn.self_ms.{short}"), self_ms_of(rung), "ms");
        push(
            format!("models.postprocess_ms.{short}"),
            med(rung.postprocess),
            "ms",
        );
        push(
            format!("det3d.candidates.{short}"),
            counts.candidates[level] as f64 / (PASS_PAIRS * REPLAY_FRAMES) as f64,
            "count",
        );
    }
    push("models.preprocess_ms".into(), med(pre), "ms");
    push(
        "det3d.decode_ms".into(),
        pooled(rungs.iter().map(|r| r.decode).collect()),
        "ms",
    );
    push(
        "det3d.nms_ms".into(),
        pooled(rungs.iter().map(|r| r.nms).collect()),
        "ms",
    );
    let cands: u64 = counts.candidates.iter().sum();
    push(
        "det3d.kept_frac".into(),
        counts.kept as f64 / cands.max(1) as f64,
        "fraction",
    );

    // The engine's backbone runs at the workload's tensor threads.
    let engine_forward = if env.workload.tensor_threads() == 1 {
        forward_ms
    } else {
        forward_ms_t2
    };
    for (level, short) in RUNGS.iter().enumerate() {
        push(
            format!("runtime.predicted_ms.{short}"),
            predicted_ms[level],
            "ms",
        );
        push(
            format!("runtime.cost_ratio.{short}"),
            engine_forward[level] / predicted_ms[level],
            "ratio",
        );
    }

    push(
        "serve.mean_batch_size".into(),
        stats.mean_batch_size,
        "frames",
    );
    push(
        "serve.cross_stream_batch_frac".into(),
        stats.cross_stream_batch_frac,
        "fraction",
    );
    push(
        "serve.boosts_per_frame".into(),
        stats.boosts_per_frame,
        "count",
    );
    push(
        "serve.worker_busy_frac".into(),
        stats.worker_busy_frac,
        "fraction",
    );
    push("setup.ladder_s".into(), setup.ladder_s, "s");
    push("setup.frames_s".into(), setup.frames_s, "s");
    push("setup.warmup_s".into(), env.warmup_s, "s");
    push("host.stream_gbps".into(), env.probe_gbps, "GB/s");
    push("trace.overhead_frac".into(), on_s / off_s - 1.0, "fraction");

    write_trace(env, &names, &tr, &self_ms, &m)?;
    Ok(m)
}

fn write_trace(
    env: &TraceEnv<'_>,
    names: &Names,
    tr: &Tracer,
    self_ms: &HashMap<u32, f64>,
    metrics: &[Metric],
) -> Result<(), String> {
    let mut totals: HashMap<u32, (u64, f64)> = HashMap::new();
    for s in &tr.spans {
        let e = totals.entry(s.name).or_default();
        e.0 += 1;
        e.1 += (s.end_ns - s.start_ns) as f64 / 1e6;
    }
    let mut ids: Vec<u32> = totals.keys().copied().collect();
    ids.sort_unstable();
    let self_times: Vec<Value> = ids
        .iter()
        .map(|id| {
            let (count, total_ms) = totals[id];
            json!({
                "name": names.names[*id as usize],
                "count": count,
                "total_ms": total_ms,
                "self_ms": self_ms[id],
            })
        })
        .collect();
    let spans: Vec<Value> = tr
        .spans
        .iter()
        .map(|s| {
            let parent = if s.parent == NO_PARENT {
                -1.0
            } else {
                s.parent as f64
            };
            json!([
                names.names[s.name as usize],
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
                parent,
                s.frame
            ])
        })
        .collect();
    let doc = Value::Obj(vec![
        ("workload".into(), json!(env.workload.name())),
        ("seed".into(), json!(env.seed)),
        ("host".into(), env.fingerprint.to_json()),
        ("drift_probe_gbps".into(), json!(env.probe_gbps)),
        (
            "metrics".into(),
            Value::Obj(
                metrics
                    .iter()
                    .map(|m| (m.name.clone(), json!({"value": m.value, "unit": m.unit})))
                    .collect(),
            ),
        ),
        ("self_times".into(), Value::Arr(self_times)),
        (
            "span_fields".into(),
            json!(["name", "start_us", "end_us", "parent", "frame"]),
        ),
        ("spans".into(), Value::Arr(spans)),
    ]);
    let dir = std::path::Path::new(".bench_out");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "trace-{}-seed{}.json",
        env.workload.name(),
        env.seed
    ));
    std::fs::write(&path, doc.to_string()).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("trace written to {}", path.display());
    Ok(())
}
