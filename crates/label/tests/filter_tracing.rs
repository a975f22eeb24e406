//! Tracing on and off give the same filter output. Tracing is process-wide
//! and one-way, so this lives in its own test binary: the first run is
//! provably untraced and enabling it here reaches no other test.

use seaice_label::cloudshadow::{CloudShadowFilter, FilterConfig};
use seaice_s2::clouds::{self, CloudConfig};
use seaice_s2::synth::{generate, SceneConfig};

#[test]
fn tracing_does_not_change_the_filtered_bytes() {
    let side = 64;
    let layer = clouds::generate(
        &CloudConfig {
            coverage: 0.3,
            ..CloudConfig::tiny(side)
        },
        9,
        side,
        side,
    );
    let cloudy = layer.apply(&generate(&SceneConfig::tiny(side), 9).rgb);
    let filter = CloudShadowFilter::new(FilterConfig::for_tile(side));

    assert!(!seaice_obs::trace::enabled(), "tracing must start off");
    let untraced = filter.apply(&cloudy);
    seaice_obs::trace::enable();
    let traced = filter.apply(&cloudy);
    assert_eq!(traced.filtered, untraced.filtered);
    assert_eq!(traced.residual, untraced.residual);
    let json = seaice_obs::trace::export_chrome_json();
    for stage in ["denoise", "haze", "shadow", "diagnostics"] {
        assert!(json.contains(&format!("label.filter.{stage}")), "{stage}");
    }
}
