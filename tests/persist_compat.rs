//! Tier-1 suite for the persisted formats: files written by an earlier
//! version of this code must keep loading, today's writers must keep
//! producing the same bytes, every value must survive a round trip, and
//! a malformed document must be refused with the field path in the error.
//!
//! The three fixtures under `tests/fixtures/persist_v1/` were written by
//! the commit *before* the codecs moved from a generic serializer to the
//! explicit ones next to each type (`checkpoint::save`, `Manifest::save`,
//! and a `run_stream_resumable` killed after its first checkpoint, with
//! exactly the arguments rebuilt below). Every expected value here is
//! built in code, never read from a second file.
//!
//! The round trips and malformed-document tables for checkpoints and
//! manifests are here because they need nothing but the public codec
//! API; the stream checkpoint's are in `seaice_core::change`, whose
//! snapshot fields are private.

use proptest::prelude::*;
use seaice::core::{
    run_stream, run_stream_resumable, train_stream_model, StreamResumeConfig, StreamWorkflowConfig,
};
use seaice::faults::FaultPlan;
use seaice::nn::Tensor;
use seaice::obs::durable::{self, DurableCtx};
use seaice::s2::catalog::{Catalog, CatalogQuery};
use seaice::s2::geo::{GeoExtent, SceneId, SceneMeta};
use seaice::s2::manifest::Manifest;
use seaice::s2::synth::SceneConfig;
use seaice::stream::StreamPolicy;
use seaice::unet::checkpoint::{self, Checkpoint};
use seaice::unet::{UNet, UNetConfig, UpMode};
use std::path::PathBuf;
use std::sync::Arc;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/persist_v1")
        .join(name)
}

/// The checksum-verified payload of a framed fixture.
fn payload(name: &str) -> String {
    let path = fixture(name);
    let bytes = durable::read_framed(&path, &DurableCtx::disabled(), durable::path_key(&path))
        .expect("fixture frame verifies");
    String::from_utf8(bytes).expect("payload is JSON text")
}

#[test]
fn parent_written_checkpoint_loads_and_is_rewritten_byte_for_byte() {
    // A seed above 2^53: an f64-backed reader would round it.
    let config = UNetConfig {
        depth: 1,
        base_filters: 2,
        dropout: 0.25,
        seed: 0xDEAD_BEEF_CAFE_F00D,
        ..UNetConfig::paper()
    };
    let mut want = UNet::new(config);
    let want = checkpoint::snapshot(&mut want);

    let mut loaded = checkpoint::load(fixture("checkpoint.json")).expect("old checkpoint loads");
    let got = checkpoint::snapshot(&mut loaded);
    assert_eq!(got.config, config);
    assert_eq!(got.params.len(), want.params.len());
    for (i, (a, b)) in got.params.iter().zip(&want.params).enumerate() {
        assert_eq!(a.shape(), b.shape(), "param {i}");
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(a.as_slice()), bits(b.as_slice()), "param {i}");
    }

    // Same keys, same nesting, same digits: the writer did not move.
    let old = payload("checkpoint.json");
    assert_eq!(want.to_json(), old);
    assert!(old.starts_with(r#"{"config":{"in_channels":3,"num_classes":3,"depth":1,"#));
    assert!(Checkpoint::from_json(&old).is_ok());
}

fn fixture_manifest() -> Manifest {
    let cat = Catalog::new(9).with_scene_config(SceneConfig::tiny(64));
    let scenes = cat.query(&CatalogQuery {
        limit: 2,
        ..CatalogQuery::paper()
    });
    assert_eq!(scenes.len(), 2);
    Manifest::new("Ross Sea \"persist_v1\" fixture\n(2 scenes)", scenes)
}

#[test]
fn parent_written_manifest_loads_and_is_rewritten_byte_for_byte() {
    let want = fixture_manifest();
    let path = fixture("manifest.json");
    assert_eq!(Manifest::load(&path).expect("old manifest loads"), want);
    assert_eq!(want.to_json(), std::fs::read_to_string(&path).unwrap());
}

#[test]
fn parent_written_stream_checkpoint_resumes_to_the_uninterrupted_series() {
    let cfg = StreamWorkflowConfig::tiny();
    let ckpt = train_stream_model(&cfg);
    let policy = StreamPolicy::default();
    let faults = Arc::new(FaultPlan::disabled());
    let dctx = DurableCtx::disabled();
    let want = run_stream(&cfg, &ckpt, policy, Arc::clone(&faults))
        .expect("reference run")
        .series
        .to_bytes();

    let dir = std::env::temp_dir().join(format!("seaice-persist-compat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Resume from the old file: it must be trusted (not discarded) and
    // finish on the uninterrupted series. It holds 18 pending masks.
    assert_eq!(
        payload("stream.ckpt").matches(r#""diffed_prev""#).count(),
        18
    );
    let old = dir.join("old.ckpt");
    std::fs::copy(fixture("stream.ckpt"), &old).unwrap();
    let resumed = run_stream_resumable(
        &cfg,
        &ckpt,
        policy,
        Arc::clone(&faults),
        &StreamResumeConfig::new(&old, 2),
        &dctx,
    )
    .expect("resume from the old checkpoint");
    assert!(!resumed.corrupt_checkpoint_discarded);
    assert_eq!(resumed.resumed_from, 2);
    assert_eq!(resumed.series.expect("finished").to_bytes(), want);

    // The same killed run today leaves the same file, frame and all.
    let new = dir.join("new.ckpt");
    let killed = run_stream_resumable(
        &cfg,
        &ckpt,
        policy,
        faults,
        &StreamResumeConfig::new(&new, 2).killed_after(3),
        &dctx,
    )
    .expect("killed run");
    assert_eq!(killed.scenes_done, 2);
    assert_eq!(
        std::fs::read(&new).unwrap(),
        std::fs::read(fixture("stream.ckpt")).unwrap()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Applies each `needle => replacement => expected error` row of `cases`
/// to `good` and checks that `decode` refuses the result with that error.
fn refuses_each(good: &str, cases: &str, decode: impl Fn(&str) -> Option<String>) {
    assert_eq!(decode(good), None, "the unedited document must decode");
    for case in cases.lines().filter(|l| !l.is_empty()) {
        let cols: Vec<&str> = case.split("=>").map(str::trim).collect();
        let (from, to, want) = (cols[0], cols[1], cols[2]);
        assert!(good.contains(from), "`{from}` matches nothing in {good}");
        let e = decode(&good.replacen(from, to, 1));
        let e = e.unwrap_or_else(|| panic!("`{from}` -> `{to}` must not decode"));
        assert!(e.contains(want), "`{from}` -> `{to}`: {e}");
    }
}

#[test]
fn malformed_checkpoints_name_the_offending_field() {
    let good = Checkpoint {
        config: UNetConfig {
            dropout: 0.0,
            seed: 5,
            ..UNetConfig::cpu_small()
        },
        params: vec![Tensor::from_vec(&[2], vec![0.5, -1.0])],
    }
    .to_json();
    let cases = r#"
"seed":5,      =>                                 => config.seed: missing field
"seed":5       => "seed":"5"                      => config.seed: expected an unsigned integer, got a string
"seed":5       => "seed":-5                       => config.seed: expected an unsigned integer, got -5
"seed":5       => "seed":18446744073709551616     => config.seed: expected an unsigned integer, got 18446744073709552000
"depth":2      => "depth":2.5                     => config.depth: expected an unsigned integer, got 2.5
"depth":2      => "depth":2.0                     => config.depth: expected an unsigned integer, got 2
"depth":2      => "depth":null                    => config.depth: expected an unsigned integer, got null
"dropout":0.0  => "dropout":null                  => config.dropout: expected a number, got null
"UpsampleConv" => "Bilinear"                      => config.up_mode: unknown variant `Bilinear`
"config":{     => "config":[],"was":{             => config: expected an object, got an array
"params":[     => "params":[7,                    => params[0]: expected an object, got 7
"shape":[2]    => "shape":[-2]                    => params[0].shape[0]: expected an unsigned integer, got -2
"shape":[2]    => "shape":[3]                     => params[0].data: 2 values do not fill shape [3]
"shape":[2]    => "shape":[4294967296,4294967296] => params[0].data: 2 values do not fill shape
[0.5,          => [true,                          => params[0].data[0]: expected a number, got a boolean
"#;
    refuses_each(&good, cases, |doc| Checkpoint::from_json(doc).err());
}

#[test]
fn malformed_manifests_name_the_offending_field() {
    let cases = r#"
"version": 1     => "version": 2               => version: manifest version 2 is newer than supported 1
"version": 1     => "version": 4294967296      => version: 4294967296 is out of range for u32
"version": 1     => "version": -1              => version: expected an unsigned integer, got -1
"version": 1,    =>                            => version: missing field
"description": " => "description": 3, "was": " => description: expected a string, got 3
"day": 0         => "day": 0.5                 => scenes[0].day: expected an unsigned integer, got 0.5
"day": 0         => "day": "0"                 => scenes[0].day: expected an unsigned integer, got a string
"width": 64      => "width": -64               => scenes[0].width: expected an unsigned integer, got -64
"extent": {      => "extent": null, "was": {   => scenes[0].extent: expected an object, got null
"lat_min":       => "lat_min": true, "was":    => scenes[0].extent.lat_min: expected a number, got a boolean
"scenes": [      => "scenes": [[],             => scenes[0]: expected an object, got an array
"#;
    refuses_each(&fixture_manifest().to_json(), cases, |doc| {
        let e = Manifest::from_json(doc).err()?;
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidData);
        Some(e.to_string())
    });
}

proptest! {
    #[test]
    fn checkpoint_round_trips_bit_exactly(
        seed in any::<u64>(),
        edge in 0u8..4,
        dims in proptest::collection::vec(0usize..5, 0..3),
        bits in proptest::collection::vec(any::<u32>(), 0..40),
        tensors in 0usize..3,
    ) {
        let config = UNetConfig {
            seed: [0, u64::MAX, seed, seed >> 11][edge as usize],
            dropout: f32::from_bits(seed as u32 >> 2),
            up_mode: if edge % 2 == 0 { UpMode::Transposed } else { UpMode::UpsampleConv },
            ..UNetConfig::paper()
        };
        // Raw bit patterns (the finite ones), plus the edges a uniform
        // draw rarely hits.
        let mut data: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        data.extend([-0.0, f32::MAX, f32::MIN_POSITIVE / 4.0, f32::from_bits(1)]);
        data.retain(|x| x.is_finite());
        let mut params = vec![Tensor::from_vec(&[data.len()], data); tensors];
        params.push(Tensor::zeros(&dims));
        let json = Checkpoint { config, params: params.clone() }.to_json();
        let back = Checkpoint::from_json(&json).map_err(|e| format!("{e}\n{json}"))?;
        prop_assert_eq!(back.config.dropout.to_bits(), config.dropout.to_bits());
        prop_assert_eq!(back.config, config);
        let bits = |ps: &[Tensor]| -> Vec<(Vec<usize>, Vec<u32>)> {
            let bits = |t: &Tensor| t.as_slice().iter().map(|x| x.to_bits()).collect();
            ps.iter().map(|t| (t.shape().to_vec(), bits(t))).collect()
        };
        prop_assert_eq!(bits(&back.params), bits(&params));
    }

    #[test]
    fn manifest_round_trips_over_the_whole_value_range(
        description in proptest::collection::vec(0u32..0x2800, 0..12),
        raw in proptest::collection::vec(any::<u64>(), 0..4),
        lat in -90.0f64..90.0,
    ) {
        // Control characters, quotes, backslashes and non-ASCII all
        // occur below 0x2800.
        let description: String = description.into_iter().filter_map(char::from_u32).collect();
        let scene = |(i, &r): (usize, &u64)| SceneMeta {
            id: SceneId([0, u64::MAX, r][i % 3]),
            extent: GeoExtent::new(lat, lat + 0.1, f64::from_bits(r >> 2), 1e-300),
            day: r as u32,
            width: r as usize,
            height: usize::MAX,
            seed: [u64::MAX, r, 0][i % 3],
            cloud_cover: (r % 1000) as f64 / 999.0,
        };
        let m = Manifest::new(description, raw.iter().enumerate().map(scene).collect());
        let back = Manifest::from_json(&m.to_json()).map_err(|e| e.to_string())?;
        prop_assert_eq!(back, m);
    }
}
