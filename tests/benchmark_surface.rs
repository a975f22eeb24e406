//! The library surface `benchmark/` compiles against, pinned at
//! compile time. `benchmark/` is a package of its own that the workspace
//! never builds, and a PR that claims a gain may not edit it — so a
//! signature or field set it depends on must not change silently. Every
//! `pub fn` it imports is coerced to an explicit `fn(..) -> ..` pointer
//! and every struct it writes as a literal is built as that literal:
//! `cargo test` stops compiling the moment one of them moves, instead of
//! the next benchmark run failing.

use seaice::distrib::{
    train_distributed, DgxA100Model, DistTrainConfig, DistTrainReport, ProcessGroup, Rank,
};
use seaice::nn::dataloader::{Batch, DataLoader, Sample};
use seaice::nn::loss::{pixel_accuracy, softmax_cross_entropy, LossOutput};
use seaice::nn::ops::conv2d::Conv2dShape;
use seaice::nn::ops::quant::{
    gemm_i8_i32, im2col_i8, qconv2d, quantize_into, quantize_weights, QuantParams, QuantizedWeights,
};
use seaice::nn::ops::{
    col2im, concat_channels, conv2d, conv2d_backward, im2col, matmul, matmul_a_bt, matmul_at_b,
    maxpool2x2, relu, upsample2x,
};
use seaice::nn::optim::{Adam, Optimizer};
use seaice::nn::{Param, Tensor};
use seaice::unet::checkpoint::{self, Checkpoint};
use seaice::unet::train::train_with_optimizer;
use seaice::unet::{
    train, CalibrationSet, QuantizedUNet, TileClassifier, TrainConfig, TrainReport, UNet,
    UNetConfig,
};
use std::io;
use std::path::PathBuf;

#[test]
#[allow(clippy::type_complexity)] // the long pointer types *are* the pinned signatures
fn nn_ops_keep_the_signatures_the_benchmark_calls() {
    let _: fn(&Tensor, &Tensor, &Tensor, &Conv2dShape) -> Tensor = conv2d;
    let _: fn(&Tensor, &Tensor, &Tensor, &Conv2dShape) -> (Tensor, Tensor, Tensor) =
        conv2d_backward;
    let _: fn(&Tensor, usize, usize, usize, usize) -> Tensor = im2col;
    let _: fn(&Tensor, usize, usize, usize, usize, usize, usize, usize) -> Tensor = col2im;
    let _: [fn(&Tensor, &Tensor) -> Tensor; 4] =
        [matmul, matmul_at_b, matmul_a_bt, concat_channels];
    let _: [fn(&Tensor) -> Tensor; 2] = [relu, upsample2x];
    let _: fn(&Tensor) -> (Tensor, Vec<usize>) = maxpool2x2;

    let _: fn(&[f32], QuantParams, &mut Vec<i8>) = quantize_into;
    let _: fn(&Tensor) -> QuantizedWeights = quantize_weights;
    let _: fn(&[i8], usize, usize, usize, usize, usize, usize, usize, i8, &mut Vec<i8>) = im2col_i8;
    let _: fn(&[i8], &[i8], usize, usize, usize, &mut [i32]) = gemm_i8_i32;
    let _: fn(&Tensor, &QuantizedWeights, &Tensor, &Conv2dShape, QuantParams) -> Tensor = qconv2d;
    let _: fn(f32, f32) -> QuantParams = QuantParams::from_range;

    let _: fn(&[usize], Vec<f32>) -> Tensor = Tensor::from_vec;
    let _: fn(&[usize], f32) -> Tensor = Tensor::full;
    let _: fn(&Tensor) -> &[f32] = Tensor::as_slice;
    let _: fn(&Tensor) -> &[usize] = Tensor::shape;
    let _: fn(Tensor, &[usize]) -> Tensor = Tensor::reshape;
    let _: fn(Tensor) -> Vec<f32> = Tensor::into_vec;
}

#[test]
fn nn_training_pieces_keep_the_signatures_the_benchmark_calls() {
    let _: fn(Vec<Sample>, usize, Option<u64>) -> DataLoader = DataLoader::new;
    let _: [fn(&DataLoader) -> usize; 2] = [DataLoader::len, DataLoader::batches_per_epoch];
    let _: fn(&DataLoader, u64) -> Vec<Batch> = DataLoader::epoch;
    let _: fn(&Tensor, &[u8]) -> LossOutput = softmax_cross_entropy;
    let _: fn(&[u8], &[u8]) -> f64 = pixel_accuracy;
    let _: fn(f32) -> Adam = Adam::new;
    let _: fn(&mut Adam, &mut [&mut Param]) = <Adam as Optimizer>::step;
}

#[test]
fn unet_keeps_the_signatures_the_benchmark_calls() {
    let _: fn(UNetConfig) -> UNet = UNet::new;
    let _: fn(&mut UNet, &Tensor, bool) -> Tensor = UNet::forward;
    let _: fn(&mut UNet, &Tensor) -> Tensor = UNet::backward;
    let _: fn(&mut UNet) = UNet::zero_grads;
    let _: fn(&mut UNet) -> Vec<&mut Param> = UNet::params_mut;
    let _: fn(&mut UNet) -> usize = UNet::parameter_count;
    let _: fn(&mut UNet, &Tensor, &mut Vec<u8>) = UNet::predict_into;
    let _: fn(&mut UNet, &Tensor, &mut Vec<u8>) = <UNet as TileClassifier>::predict_into;
    let _: fn(&mut QuantizedUNet, &Tensor, &mut Vec<u8>) =
        <QuantizedUNet as TileClassifier>::predict_into;

    let _: fn(&mut UNet, &DataLoader, &TrainConfig) -> TrainReport = train;
    let _: fn(&mut UNet, &DataLoader, &TrainConfig, &mut dyn Optimizer) -> TrainReport =
        train_with_optimizer;

    let _: fn(&mut UNet) -> Checkpoint = checkpoint::snapshot;
    let _: fn(&Checkpoint) -> UNet = checkpoint::restore;
    let _: fn(&Checkpoint) -> Result<UNet, String> = checkpoint::try_restore;
    let _: fn(&Checkpoint, &CalibrationSet) -> Result<QuantizedUNet, String> =
        checkpoint::try_restore_quantized;
    let _: fn(&mut UNet, PathBuf) -> io::Result<()> = checkpoint::save;
    let _: fn(PathBuf) -> io::Result<UNet> = checkpoint::load;
}

#[test]
fn distrib_keeps_the_signatures_the_benchmark_calls() {
    let _: fn(UNetConfig, Vec<Sample>, DistTrainConfig, &DgxA100Model) -> (UNet, DistTrainReport) =
        train_distributed;
    let _: fn() -> DgxA100Model = DgxA100Model::dgx_a100;
    let _: fn(usize) -> Vec<Rank> = ProcessGroup::new;
    let _: fn(&Rank, &mut [f32]) = Rank::all_reduce_sum;
    // Read, not written: the report's per-rank sample count.
    let _: fn(DistTrainReport) -> usize = |report| report.samples_per_rank;
}

#[test]
fn struct_literals_the_benchmark_writes_still_name_every_field() {
    // No `..`: a new field must break this test, as it would the benchmark.
    let shape = Conv2dShape {
        in_channels: 3,
        out_channels: 8,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    assert_eq!(shape.output_hw(16, 16), (16, 16));
    let sample = Sample {
        image: vec![0.0; 3 * 4 * 4],
        mask: vec![0; 4 * 4],
        channels: 3,
        height: 4,
        width: 4,
    };
    assert!(sample.is_consistent());
    let cfg = TrainConfig {
        epochs: 1,
        learning_rate: 1e-3,
        log_every: 0,
    };
    assert_eq!(cfg.epochs, 1);
    let dist = DistTrainConfig {
        ranks: 2,
        epochs: 1,
        batch_size_per_rank: 4,
        learning_rate: 1e-3,
        shuffle_seed: None,
    };
    assert_eq!(dist.ranks * dist.batch_size_per_rank, 8);
    // Fields read, not written: the checkpoint's payload, the quantised
    // filter bank, the activation zero point.
    let mut model = UNet::new(UNetConfig::cpu_small());
    let ckpt = checkpoint::snapshot(&mut model);
    assert_eq!(ckpt.params.len(), 2 * ckpt.config.conv_layer_count());
    let _: Vec<i8> = quantize_weights(&ckpt.params[0]).data;
    let _: i8 = QuantParams::from_range(0.0, 1.0).zero_point;
}

#[test]
#[allow(clippy::type_complexity)] // the long pointer types *are* the pinned signatures
fn imgproc_label_s2_and_core_keep_the_signatures_the_benchmark_calls() {
    use seaice::core::adapters::{
        image_to_chw, image_to_chw_into, mask_to_image, tile_to_sample_scratch,
    };
    use seaice::core::workflow::ArmEvaluation;
    use seaice::core::{classify_scene_with, evaluate_arm};
    use seaice::core::{InputVariant, LabelSource, SceneClassification, WorkflowConfig};
    use seaice::imgproc::buffer::{Image, Scratch};
    use seaice::imgproc::color::{rgb_to_gray, rgb_to_hsv};
    use seaice::imgproc::filter::{box_blur_f32, median_filter};
    use seaice::imgproc::ops::min_max_normalize;
    use seaice::imgproc::threshold::otsu_binary;
    use seaice::label::autolabel::{
        auto_label_batch_pool, auto_label_class_mask, auto_label_scratch, AutoLabelConfig,
        LabelOutput,
    };
    use seaice::label::cloudshadow::{CloudShadowFilter, FilterConfig, FilterOutput};
    use seaice::label::fused::segment_classes_fused;
    use seaice::label::parallel::WorkerPool;
    use seaice::label::ranges::ClassRanges;
    use seaice::s2::clouds::{self, CloudConfig, CloudLayer};
    use seaice::s2::synth::{self, class_fractions, Scene, SceneConfig};
    use seaice::s2::tiler::{stitch_tiles, tile_anchors, Tile};

    type Img = Image<u8>;
    let _: [fn(&Img) -> Img; 3] = [rgb_to_gray, rgb_to_hsv, mask_to_image];
    let _: fn(&Img, usize) -> Img = median_filter;
    let _: fn(&Image<f32>, usize) -> Image<f32> = box_blur_f32;
    let _: fn(&Img, u8) -> (u8, Img) = otsu_binary;
    let _: fn(&Img, u8, u8) -> Img = min_max_normalize;

    let _: fn(&Img, &ClassRanges) -> Img = segment_classes_fused;
    let _: fn(usize) -> FilterConfig = FilterConfig::for_tile;
    let _: fn(FilterConfig) -> CloudShadowFilter = CloudShadowFilter::new;
    let _: fn(&CloudShadowFilter, &Img) -> FilterOutput = CloudShadowFilter::apply;
    let _: fn(FilterOutput) -> Img = |out| out.filtered;
    let _: fn(usize) -> AutoLabelConfig = AutoLabelConfig::filtered_for_tile;
    let _: fn(&Img, &AutoLabelConfig, &mut Scratch) -> LabelOutput = auto_label_scratch;
    let _: fn(&Img, &AutoLabelConfig, &mut Scratch) -> Img = auto_label_class_mask;
    let _: fn(&WorkerPool, Vec<Img>, AutoLabelConfig) -> Vec<LabelOutput> = auto_label_batch_pool;
    let _: fn(usize) -> WorkerPool = WorkerPool::new;

    let _: fn(&SceneConfig, u64) -> Scene = synth::generate;
    let _: fn(&Img) -> (f64, f64, f64) = class_fractions;
    let _: fn(&CloudConfig, u64, usize, usize) -> CloudLayer = clouds::generate;
    let _: fn(&CloudLayer, &Img) -> Img = CloudLayer::apply;
    let _: fn(usize, usize) -> Vec<usize> = tile_anchors;
    let _: fn(&[(usize, usize, Img)], usize, usize, usize) -> Img = stitch_tiles;

    let _: fn(&mut UNet, &Img, usize, bool) -> SceneClassification = classify_scene_with::<UNet>;
    let _: fn(&mut QuantizedUNet, &Img, usize, bool) -> SceneClassification =
        classify_scene_with::<QuantizedUNet>;
    let _: fn(&mut UNet, &[Tile], InputVariant, &WorkflowConfig) -> ArmEvaluation = evaluate_arm;
    let _: fn(&Tile, InputVariant, LabelSource, &AutoLabelConfig, &mut Scratch) -> Sample =
        tile_to_sample_scratch;
    let _: fn(&Img) -> Vec<f32> = image_to_chw;
    let _: fn(&Img, &mut [f32]) = image_to_chw_into;
}

#[test]
#[allow(clippy::type_complexity)] // the long pointer types *are* the pinned signatures
fn serve_keeps_the_signatures_the_benchmark_calls() {
    use seaice::core::SceneClassification;
    use seaice::imgproc::buffer::Image;
    use seaice::serve::{
        classify_scene_engine, tile_key, BoundedQueue, Engine, EngineConfig, HttpServer, LruCache,
        QueueError, ServeError, StatsSnapshot, Ticket,
    };
    use std::net::SocketAddr;
    use std::sync::Arc;
    use std::time::Duration;

    type Img = Image<u8>;
    let _: fn(&Checkpoint, EngineConfig) -> Result<Engine, ServeError> = Engine::new;
    let _: fn(&Engine, Img) -> Result<Ticket, ServeError> = Engine::try_submit;
    let _: fn(&Engine) -> StatsSnapshot = Engine::stats;
    let _: fn(&Engine) = Engine::shutdown;
    let _: fn(Ticket) -> Result<Arc<Vec<u8>>, ServeError> = Ticket::wait;
    let _: fn(&Engine, &Img) -> Result<SceneClassification, ServeError> = classify_scene_engine;
    let _: fn(&Img) -> u64 = tile_key;

    let _: fn(usize) -> BoundedQueue<usize> = BoundedQueue::new;
    let _: fn(&BoundedQueue<usize>, usize) -> Result<(), (usize, QueueError)> =
        BoundedQueue::try_push;
    let _: fn(&BoundedQueue<usize>, usize, Duration) -> Option<Vec<usize>> =
        BoundedQueue::pop_batch;
    type Cached = Arc<Vec<u8>>;
    let _: fn(usize) -> LruCache<Cached> = LruCache::new;
    let _: fn(&mut LruCache<Cached>, u64, Cached) = LruCache::insert;
    let _: fn(&mut LruCache<Cached>, u64) -> Option<Cached> = LruCache::get;

    let _: fn(Arc<Engine>, &str) -> io::Result<HttpServer> = HttpServer::start;
    let _: fn(&HttpServer) -> SocketAddr = HttpServer::addr;
    let _: fn(&mut HttpServer) = HttpServer::shutdown;

    // Read, not written: the counters the serve workloads report.
    let _: fn(StatsSnapshot) -> [u64; 6] = |s| {
        [
            s.shed,
            s.computed,
            s.batches,
            s.cache_hits,
            s.cache_misses,
            s.cache_evictions,
        ]
    };
    let _: fn(StatsSnapshot) -> f64 = |s| s.mean_batch_size;
}

#[test]
#[allow(clippy::type_complexity)] // the long pointer types *are* the pinned signatures
fn core_stream_and_cluster_pieces_keep_the_signatures_the_benchmark_calls() {
    use seaice::core::{
        default_calibration, restore_backend, run_stream, train_stream_model, ChangeDetector,
        DriftSeries, LoadedModel, StreamOutcome, StreamWorkflowConfig, TileObs,
    };
    use seaice::faults::FaultPlan;
    use seaice::imgproc::buffer::Image;
    use seaice::mapreduce::{
        ClusterSpec, CostModel, DataFrame, LazyFrame, Session, SpecError, StageReport,
    };
    use seaice::obs::trace::{self, Clock, TraceStats, Tracer, WallClock};
    use seaice::s2::catalog::{crop_revisit, Catalog, RevisitPlan, RevisitSceneMeta};
    use seaice::s2::dataset::{Dataset, DatasetConfig};
    use seaice::s2::{CloudLayer, Scene};
    use seaice::stream::channel::Recv;
    use seaice::stream::{StageQueue, StreamError, StreamPolicy};
    use seaice::unet::InferBackend;
    use std::sync::Arc;

    let _: fn(usize) -> Result<CalibrationSet, String> = default_calibration;
    let _: fn(&Checkpoint, InferBackend, usize) -> Result<LoadedModel, String> = restore_backend;
    let _: fn(&StreamWorkflowConfig) -> Checkpoint = train_stream_model;
    let _: fn(
        &StreamWorkflowConfig,
        &Checkpoint,
        StreamPolicy,
        Arc<FaultPlan>,
    ) -> Result<StreamOutcome, StreamError> = run_stream;
    let _: fn(&StreamWorkflowConfig) -> (Catalog, RevisitPlan) = StreamWorkflowConfig::plan;
    let _: fn(usize) -> ChangeDetector = ChangeDetector::new;
    let _: fn(&mut ChangeDetector, TileObs) = ChangeDetector::observe;
    let _: fn(ChangeDetector) -> DriftSeries = ChangeDetector::finalize;

    let _: fn() -> StreamPolicy = StreamPolicy::resilient;
    let _: fn() -> FaultPlan = FaultPlan::disabled;
    let _: fn(usize) -> StageQueue<u64> = StageQueue::new;
    let _: fn(&StageQueue<u64>, u64) = StageQueue::send;
    let _: fn(&StageQueue<u64>, usize) -> Recv<u64> = StageQueue::recv;
    let _: fn(&StageQueue<u64>) = StageQueue::complete;

    let _: fn(&Catalog, &RevisitPlan) -> Vec<RevisitSceneMeta> = Catalog::revisit_stream;
    let _: fn(&Catalog, &RevisitPlan, &str) -> Scene = Catalog::region_window;
    let _: fn(&Catalog, &RevisitSceneMeta) -> CloudLayer = Catalog::revisit_cloud_layer;
    let _: fn(&Scene, &RevisitSceneMeta) -> Scene = crop_revisit;
    let _: fn(DatasetConfig) -> Dataset = Dataset::build;
    let _: fn(usize, usize, usize) -> DatasetConfig = DatasetConfig::scaled;

    type Img = Image<u8>;
    type Udf = fn(Img) -> Vec<u8>;
    let _: fn(usize, usize) -> Result<ClusterSpec, SpecError> = ClusterSpec::new;
    let _: fn(ClusterSpec, CostModel) -> Session = Session::new;
    let _: fn() -> CostModel = CostModel::gcd_n2;
    let _: fn(&CostModel, &ClusterSpec, &[f64], f64) -> f64 = CostModel::reduce_time;
    let _: fn(&Session, Vec<Img>, f64) -> (DataFrame<Img>, StageReport) = Session::read;
    let _: fn(DataFrame<Img>, &Session, Udf) -> (LazyFrame<Img, Vec<u8>>, StageReport) =
        DataFrame::map;
    let _: fn(LazyFrame<Img, Vec<u8>>, &Session, f64) -> (Vec<Vec<u8>>, StageReport) =
        LazyFrame::collect;
    // Written with `..`: the paper's fixed per-tile cost.
    let paper = CostModel {
        fixed_task_cost_secs: Some(1.0),
        ..CostModel::gcd_n2()
    };
    assert_eq!(paper.fixed_task_cost_secs, Some(1.0));

    let _: fn() = trace::enable;
    let _: fn() -> Tracer = trace::tracer;
    let _: fn() -> String = trace::export_chrome_json;
    let _: fn(&str) -> Result<TraceStats, String> = trace::validate_chrome_trace;
    let _: fn(&Tracer, &str, &'static str, u64, u64, &[(&str, &str)]) = Tracer::complete_with_args;
    let _: fn(&WallClock) -> u64 = <WallClock as Clock>::now_us;
}

#[test]
fn serve_and_stream_literals_the_benchmark_writes_still_name_every_field() {
    use seaice::core::StreamWorkflowConfig;
    use seaice::serve::EngineConfig;
    use seaice::unet::InferBackend;
    use std::time::Duration;

    // No `..`: a new field must break this test, as it would the benchmark.
    let engine = EngineConfig {
        tile_size: 16,
        workers: 1,
        max_batch_size: 8,
        max_wait: Duration::from_millis(1),
        queue_capacity: 256,
        cache_capacity: 64,
        filter: false,
        deadline: None,
        backend: InferBackend::F32,
        degraded_restart_threshold: 0,
        degraded_deadline_threshold: 0,
    };
    assert_eq!(engine.workers, 1);
    let stream = StreamWorkflowConfig {
        regions: 3,
        revisits: 4,
        cadence_days: 2,
        scene_side: 128,
        tile: 32,
        drift_px: 4,
        seed: 7,
        workers: 1,
        channel_capacity: 8,
        epochs: 2,
    };
    assert_eq!(stream.regions * stream.revisits as usize, 12);
}
