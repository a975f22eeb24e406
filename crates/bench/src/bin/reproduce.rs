//! `reproduce` — regenerates every table and figure of the paper.
//!
//! ```text
//! reproduce <target> [--scale small|medium|large] [--out DIR] [--trace FILE]
//!
//! targets:
//!   table1      multiprocessing auto-label speedup      (Table I, Fig. 10)
//!   table2      map-reduce cluster scaling              (Table II)
//!   table3      distributed U-Net training              (Table III, Fig. 12)
//!   table4      U-Net-Man vs U-Net-Auto accuracy        (Table IV)
//!   table5      accuracy by cloud coverage              (Table V)
//!   fig11       auto-label SSIM + qualitative panels    (Fig. 11)
//!   fig13       confusion matrices                      (Fig. 13)
//!   fig14       prediction panels                       (Fig. 14)
//!   scenes      66-scene labeling time                  (§IV-B)
//!   ablation    cloud/shadow-filter design ablations    (DESIGN.md §6)
//!   sweep       batch-size / dropout exploration        (§IV-A)
//!   night       season-transfer + threshold calibration (§IV-B-2)
//!   all         everything above
//!   sarif-check validate a seaice-lint SARIF 2.1.0 file   (positional: the file)
//! ```
//!
//! PPM/PGM images for the figure targets land in `--out` (default
//! `reproduce-out/`); wall-clock numbers come only from the `benchmark/`
//! package. `--trace FILE` records structured spans for the run and
//! exports them as Chrome `trace_event` JSON (`chrome://tracing` /
//! Perfetto loadable); a failed write flips the exit code to 1.

use seaice_bench::scale::Scale;
use seaice_bench::{table1, table2, table3, table45};
use seaice_core::adapters::{
    mask_to_image, predictions_to_mask, tile_to_sample, InputVariant, LabelSource,
};
use seaice_imgproc::io::write_ppm;
use seaice_label::autolabel::{auto_label, AutoLabelConfig};
use seaice_nn::Tensor;
use std::path::{Path, PathBuf};

struct Args {
    target: String,
    /// Second positional argument (the file for `sarif-check`).
    operand: Option<String>,
    scale: Scale,
    out: PathBuf,
    trace: Option<PathBuf>,
}

fn parse_args() -> Args {
    let mut args = std::env::args().skip(1);
    let mut target = None;
    let mut operand = None;
    let mut scale = Scale::Medium;
    let mut out = PathBuf::from("reproduce-out");
    let mut trace = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().unwrap_or_default();
                scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale '{v}' (use small|medium|large)");
                    std::process::exit(2);
                });
            }
            "--out" => out = PathBuf::from(args.next().unwrap_or_default()),
            "--trace" => trace = Some(PathBuf::from(args.next().unwrap_or_default())),
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            t if target.is_none() => target = Some(t.to_string()),
            t if operand.is_none() => operand = Some(t.to_string()),
            t => {
                eprintln!("unexpected argument '{t}'");
                std::process::exit(2);
            }
        }
    }
    Args {
        target: target.unwrap_or_else(|| {
            print_usage();
            std::process::exit(2);
        }),
        operand,
        scale,
        out,
        trace,
    }
}

fn print_usage() {
    eprintln!(
        "usage: reproduce <table1|table2|table3|table4|table5|fig11|fig13|fig14|scenes|ablation|sweep|night|all> [--scale small|medium|large] [--out DIR] [--trace FILE]\n\
         \x20      reproduce sarif-check <lint.sarif>"
    );
}

/// Validates a SARIF 2.1.0 file produced by `seaice-lint --format sarif`;
/// exits nonzero when it is malformed or not a seaice-lint run.
fn run_sarif_check(file: Option<&str>) -> ! {
    let Some(file) = file else {
        eprintln!("sarif-check: missing SARIF file argument");
        std::process::exit(2);
    };
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sarif-check: cannot read {file}: {e}");
            std::process::exit(2);
        }
    };
    let doc = match seaice_obs::json::parse(&src) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("sarif-check: {file}: {e}");
            std::process::exit(1);
        }
    };
    match validate_sarif(&doc) {
        Ok((rules, results)) => {
            println!("sarif-check: OK — {rules} rules declared, {results} result(s)");
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("sarif-check: {file}: {e}");
            std::process::exit(1);
        }
    }
}

/// Checks the SARIF shape `seaice-lint` emits: version 2.1.0, one run with
/// the `seaice-lint` driver, every result's ruleId declared by the driver.
fn validate_sarif(doc: &seaice_obs::json::Value) -> Result<(usize, usize), String> {
    let root = seaice_obs::json::Obj::root(doc)?;
    let version = root.str("version")?;
    if version != "2.1.0" {
        return Err(format!("unexpected SARIF version `{version}`"));
    }
    let runs = root.objs("runs")?;
    let run = runs.first().ok_or("empty `runs` array")?;
    let driver = run.obj("tool")?.obj("driver")?;
    let name = driver.str("name")?;
    if name != "seaice-lint" {
        return Err(format!("unexpected driver `{name}`"));
    }
    let rules = driver.objs("rules")?;
    let ids = rules.iter().map(|r| r.str("id"));
    let ids = ids.collect::<Result<Vec<_>, _>>()?;
    let results = run.objs("results")?;
    for (i, res) in results.iter().enumerate() {
        let rule = res.str("ruleId")?;
        if !ids.contains(&rule) {
            return Err(format!("result {i} cites undeclared rule `{rule}`"));
        }
    }
    Ok((ids.len(), results.len()))
}

fn main() {
    let args = parse_args();
    if args.target == "sarif-check" {
        run_sarif_check(args.operand.as_deref());
    }
    if args.trace.is_some() {
        seaice_obs::trace::enable();
    }
    let t0 = std::time::Instant::now();
    let mut ok = true;
    match args.target.as_str() {
        "table1" | "fig10" => run_table1(args.scale),
        "table2" => run_table2(args.scale),
        "table3" | "fig12" => run_table3(args.scale),
        "table4" => {
            let mut exp = table45::prepare(args.scale);
            println!("(training both models took {:.1}s)\n", exp.train_secs);
            println!("{}", table45::render_table4(&exp.table4()));
        }
        "table5" => {
            let mut exp = table45::prepare(args.scale);
            println!("(training both models took {:.1}s)\n", exp.train_secs);
            println!("{}", table45::render_table5(&exp.table5()));
        }
        "fig11" => run_fig11(args.scale, &args.out),
        "fig13" => run_fig13(args.scale),
        "fig14" => run_fig14(args.scale, &args.out),
        "scenes" => println!("{}", table45::scenes_timing(args.scale).render()),
        "ablation" => {
            println!("{}", seaice_bench::ablation::run(args.scale).render());
            println!("{}", seaice_bench::ablation::up_mode(args.scale).render());
        }
        "sweep" => println!("{}", seaice_bench::sweep::run(args.scale).render()),
        "night" => println!("{}", seaice_bench::night::run(args.scale).render()),
        "all" => {
            run_table1(args.scale);
            run_table2(args.scale);
            run_table3(args.scale);
            // Train once, reuse for tables 4/5 and fig 13/14.
            let mut exp = table45::prepare(args.scale);
            println!("(training both models took {:.1}s)\n", exp.train_secs);
            println!("{}", table45::render_table4(&exp.table4()));
            println!("{}", table45::render_table5(&exp.table5()));
            print_fig13(&mut exp);
            write_fig14(&mut exp, &args.out);
            run_fig11(args.scale, &args.out);
            println!("{}", table45::scenes_timing(args.scale).render());
            println!("{}", seaice_bench::ablation::run(args.scale).render());
            println!("{}", seaice_bench::night::run(args.scale).render());
        }
        t => {
            eprintln!("unknown target '{t}'");
            print_usage();
            std::process::exit(2);
        }
    }
    if let Some(path) = &args.trace {
        match std::fs::write(path, seaice_obs::trace::export_chrome_json()) {
            Ok(()) => println!("wrote trace {}", path.display()),
            Err(e) => {
                eprintln!("error: cannot write trace {}: {e}", path.display());
                ok = false;
            }
        }
    }
    println!(
        "[reproduce {} done in {:.1}s]",
        args.target,
        t0.elapsed().as_secs_f64()
    );
    if !ok {
        std::process::exit(1);
    }
}

fn run_table1(scale: Scale) {
    let t = table1::run(scale);
    println!("{}", t.render());
    println!(
        "FIG 10 series (procs, speedup): {:?}\n",
        t.rows
            .iter()
            .map(|r| (r.processes, (r.speedup * 100.0).round() / 100.0))
            .collect::<Vec<_>>()
    );
}

fn run_table2(scale: Scale) {
    let t = table2::run(scale);
    println!("{}", t.render());
}

fn run_table3(scale: Scale) {
    let t = table3::run(scale);
    println!("{}", t.render());
    println!("FIG 12 series (gpus, speedup, imgs/s, total s, s/epoch):");
    for (g, s, d, tt, e) in t.fig12_series() {
        println!("  {g} GPUs: speedup {s:.2}, {d:.0} imgs/s, {tt:.1}s total, {e:.3}s/epoch");
    }
    println!();
}

fn run_fig11(scale: Scale, out: &Path) {
    let f = table45::fig11(scale);
    println!("{}", f.render());
    // Qualitative panels: one cloudy tile, its unfiltered and filtered
    // auto-labels (the Fig. 11 strip).
    let (scenes, scene, tile, _) = scale.accuracy_dataset();
    let cfg = seaice_core::WorkflowConfig::scaled(scenes, scene, tile, 1);
    let ds = seaice_s2::dataset::Dataset::build(cfg.dataset.clone());
    if let Some(t) = ds.validation.iter().find(|t| t.cloud_fraction > 0.2) {
        std::fs::create_dir_all(out).expect("create output dir");
        let filt = seaice_label::cloudshadow::CloudShadowFilter::new(
            seaice_label::cloudshadow::FilterConfig::for_tile(tile),
        )
        .apply(&t.rgb);
        let save = |name: &str, img: &seaice_imgproc::buffer::Image<u8>| {
            let p = out.join(name);
            write_ppm(&p, img).expect("write ppm");
            println!("  wrote {}", p.display());
        };
        save("fig11_a_original.ppm", &t.rgb);
        save(
            "fig11_b_label_unfiltered.ppm",
            &auto_label(&t.rgb, &AutoLabelConfig::unfiltered()).color_label,
        );
        save("fig11_c_filtered.ppm", &filt.filtered);
        save(
            "fig11_d_label_filtered.ppm",
            &auto_label(&t.rgb, &AutoLabelConfig::filtered_for_tile(tile)).color_label,
        );
    }
    println!();
}

fn print_fig13(exp: &mut table45::AccuracyExperiments) {
    println!("FIG 13: column-normalized confusion matrices (rows = predicted, columns = true)");
    for (labels, condition, eval) in exp.fig13() {
        let name = match labels {
            LabelSource::Manual => "U-Net-Man",
            LabelSource::Auto => "U-Net-Auto",
        };
        println!(
            "--- {name} / {condition} (accuracy {:.2}%)",
            eval.report.accuracy * 100.0
        );
        println!(
            "{}",
            eval.confusion
                .to_table(&["thick ice", "thin ice", "open water"])
        );
    }
}

fn run_fig13(scale: Scale) {
    let mut exp = table45::prepare(scale);
    println!("(training both models took {:.1}s)\n", exp.train_secs);
    print_fig13(&mut exp);
}

fn write_fig14(exp: &mut table45::AccuracyExperiments, out: &Path) {
    std::fs::create_dir_all(out).expect("create output dir");
    let tile_size = exp.cfg.dataset.tile_size;
    let label_cfg = exp.cfg.label;
    // One cloudy and one clear validation tile.
    let picks: Vec<_> = {
        let cloudy = exp
            .dataset
            .validation
            .iter()
            .find(|t| t.is_cloudy())
            .cloned();
        let clear = exp
            .dataset
            .validation
            .iter()
            .find(|t| !t.is_cloudy())
            .cloned();
        [cloudy, clear].into_iter().flatten().collect()
    };
    println!("FIG 14: qualitative panels");
    for (i, t) in picks.iter().enumerate() {
        let sample = tile_to_sample(t, InputVariant::Original, LabelSource::Manual, &label_cfg);
        let x = Tensor::from_vec(&[1, 3, tile_size, tile_size], sample.image.clone());
        let man = exp.models.unet_man.predict(&x);
        let auto = exp.models.unet_auto.predict(&x);
        let save = |name: String, img: &seaice_imgproc::buffer::Image<u8>| {
            let p = out.join(name);
            write_ppm(&p, img).expect("write ppm");
            println!("  wrote {}", p.display());
        };
        save(format!("fig14_{i}_a_s2.ppm"), &t.rgb);
        save(format!("fig14_{i}_b_truth.ppm"), &mask_to_image(&t.truth));
        save(
            format!("fig14_{i}_c_unet_man.ppm"),
            &mask_to_image(&predictions_to_mask(&man, tile_size)),
        );
        save(
            format!("fig14_{i}_d_unet_auto.ppm"),
            &mask_to_image(&predictions_to_mask(&auto, tile_size)),
        );
    }
    println!();
}

fn run_fig14(scale: Scale, out: &Path) {
    let mut exp = table45::prepare(scale);
    println!("(training both models took {:.1}s)\n", exp.train_secs);
    write_fig14(&mut exp, out);
}
