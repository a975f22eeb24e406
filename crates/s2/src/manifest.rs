//! Catalog manifest export/import: the JSON sidecar that records which
//! scenes an experiment used, so acquisitions are reproducible and
//! shareable without shipping pixels (scenes regenerate from their
//! seeds).
//!
//! The file is plain pretty-printed JSON (two-space indent, written
//! atomically but not framed, so it stays hand-editable; the template in
//! [`Manifest::to_json`] is its layout). This module owns the codec, over
//! `seaice_obs::json`: ids and seeds are exact over the whole `u64`
//! range, floats are written in their shortest round-trip form, and
//! [`Manifest::from_json`] names the path of the first field it cannot
//! accept (`scenes[1].extent.lat_min: …`).

use crate::geo::{GeoExtent, SceneId, SceneMeta};
use seaice_obs::json::{self, Exact, Obj};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A serialized acquisition: the query provenance plus every scene's
/// metadata (including the generative seed).
#[derive(Clone, Debug, PartialEq)]
pub struct Manifest {
    /// Free-form description of the acquisition (region, season, notes).
    pub description: String,
    /// Format version for forward compatibility.
    pub version: u32,
    /// The scenes.
    pub scenes: Vec<SceneMeta>,
}

impl Manifest {
    /// Current manifest format version.
    pub const VERSION: u32 = 1;

    /// Builds a manifest from scene metadata.
    pub fn new(description: impl Into<String>, scenes: Vec<SceneMeta>) -> Self {
        Self {
            description: description.into(),
            version: Self::VERSION,
            scenes,
        }
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"description\": \"{}\",\n  \"version\": {},\n  \"scenes\": [",
            json::escape(&self.description),
            self.version
        );
        for (i, s) in self.scenes.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                r#"    {{
      "id": {},
      "extent": {{
        "lat_min": {},
        "lat_max": {},
        "lon_min": {},
        "lon_max": {}
      }},
      "day": {},
      "width": {},
      "height": {},
      "seed": {},
      "cloud_cover": {}
    }}"#,
                s.id.0,
                Exact(s.extent.lat_min),
                Exact(s.extent.lat_max),
                Exact(s.extent.lon_min),
                Exact(s.extent.lon_max),
                s.day,
                s.width,
                s.height,
                s.seed,
                Exact(s.cloud_cover)
            );
        }
        if !self.scenes.is_empty() {
            out.push_str("\n  ");
        }
        out + "]\n}"
    }

    /// Parses from JSON, rejecting unknown future versions.
    ///
    /// # Errors
    /// `InvalidData` for malformed JSON, a missing / mistyped /
    /// out-of-range field (named by its path), or an unsupported version.
    pub fn from_json(src: &str) -> io::Result<Manifest> {
        Self::decode(src).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    fn decode(src: &str) -> Result<Manifest, String> {
        let doc = json::parse(src)?;
        let root = Obj::root(&doc)?;
        let version: u32 = root.uint("version")?;
        if version > Self::VERSION {
            return Err(format!(
                "version: manifest version {version} is newer than supported {}",
                Self::VERSION
            ));
        }
        let scene = |s: &Obj| -> Result<SceneMeta, String> {
            let e = s.obj("extent")?;
            Ok(SceneMeta {
                id: SceneId(s.uint("id")?),
                extent: GeoExtent::new(
                    e.f64("lat_min")?,
                    e.f64("lat_max")?,
                    e.f64("lon_min")?,
                    e.f64("lon_max")?,
                ),
                day: s.uint("day")?,
                width: s.uint("width")?,
                height: s.uint("height")?,
                seed: s.uint("seed")?,
                cloud_cover: s.f64("cloud_cover")?,
            })
        };
        let scenes = root.objs("scenes")?;
        Ok(Manifest {
            description: root.str("description")?.to_string(),
            version,
            scenes: scenes.iter().map(scene).collect::<Result<_, _>>()?,
        })
    }

    /// Writes the manifest to a file atomically (write-temp → fsync →
    /// rename, via the durable layer): a crash mid-save leaves either
    /// the old manifest or the new one, never a torn hybrid. The bytes
    /// stay plain pretty-printed JSON.
    ///
    /// # Errors
    /// I/O failures.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        let path = path.as_ref();
        let ctx = seaice_obs::durable::DurableCtx::disabled();
        seaice_obs::durable::write_atomic(
            path,
            self.to_json().as_bytes(),
            &ctx,
            seaice_obs::durable::path_key(path),
        )
        .map_err(|e| e.into_io())
    }

    /// Reads a manifest from a file.
    ///
    /// # Errors
    /// I/O or parse failures.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Manifest> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Catalog, CatalogQuery};
    use crate::synth::SceneConfig;

    fn sample_manifest() -> Manifest {
        let cat = Catalog::new(9).with_scene_config(SceneConfig::tiny(64));
        let scenes = cat.query(&CatalogQuery {
            limit: 5,
            ..CatalogQuery::paper()
        });
        Manifest::new("Ross Sea test acquisition", scenes)
    }

    #[test]
    fn json_roundtrip_preserves_everything() {
        let m = sample_manifest();
        let json = m.to_json();
        let back = Manifest::from_json(&json).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn file_roundtrip() {
        let m = sample_manifest();
        let path =
            std::env::temp_dir().join(format!("seaice-manifest-{}.json", std::process::id()));
        m.save(&path).unwrap();
        let back = Manifest::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back, m);
    }

    #[test]
    fn scenes_regenerate_identically_from_manifest_seeds() {
        let cat = Catalog::new(9).with_scene_config(SceneConfig::tiny(64));
        let m = sample_manifest();
        let (first, _) = cat.generate(&m.scenes[0]);
        let json = m.to_json();
        let back = Manifest::from_json(&json).unwrap();
        let (second, _) = cat.generate(&back.scenes[0]);
        assert_eq!(first.rgb, second.rgb);
        assert_eq!(first.truth, second.truth);
    }

    #[test]
    fn future_versions_are_rejected() {
        let mut m = sample_manifest();
        m.version = Manifest::VERSION + 1;
        let e = Manifest::from_json(&m.to_json()).expect_err("future version");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData);
        assert!(e.to_string().contains("newer than supported"), "{e}");
    }

    #[test]
    fn deeply_nested_file_is_an_error_not_a_stack_overflow() {
        let path =
            std::env::temp_dir().join(format!("seaice-manifest-deep-{}.json", std::process::id()));
        std::fs::write(&path, "[".repeat(200_000)).unwrap();
        let e = Manifest::load(&path).expect_err("deep nesting must fail");
        std::fs::remove_file(&path).ok();
        assert!(e.to_string().contains("nesting"), "{e}");
    }
}
