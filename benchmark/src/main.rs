//! End-to-end benchmark of sper.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload movies-budget --seed 1 --seconds 35 --trace 0
//! ```
//!
//! Generates the workload's twins from `--seed`, writes them to CSV under
//! `.bench_work/` in the working directory, and repeats the workload's
//! closed loop (see [`workload`]) in whole rounds, one repetition on every
//! twin each, while the next round still fits in `--seconds` (an untraced
//! run measures at least two rounds). With `--trace 0` it reports the
//! end-to-end metrics, each a median over the repetitions; with
//! `--trace 1` every repetition also runs the traced pass and it reports
//! the per-layer metrics instead. The last line of standard output is the
//! result object; the line before it stamps the host, the revision, the
//! sample counts and, for a traced run, the mean time per repetition of
//! every span.

mod batch;
mod calib;
mod checks;
mod metrics;
mod spans;
mod stats;
mod stream;
mod workload;

use calib::{factor, Calibration};
use checks::{check_digest, Checks, Digest};
use spans::{mean_self_ms, unattributed_share, Spans};
use sper_obs::SpanProfile;
use stats::{median, mib, ms, quantile};
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use workload::{read_profiles, read_truth, set_up_twins, Twin, Workload};

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPEATS: usize = 5;

/// Whole rounds an untraced run measures at least, so that every twin
/// runs twice and its emissions are checked to repeat.
const MIN_ROUNDS: usize = 2;

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: sper-e2e-bench --workload <movies-budget|cora-exhaustive|dbpedia-stream> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::named(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|_| "--seed must be a whole number".to_string())?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds must be a number".to_string())?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(".bench_work");
    let dir = work.join(format!("{}-{}", args.workload.name, std::process::id()));
    let report = measure(&args.workload, args.seed, args.seconds, args.trace, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    // Fails, as it should, while another run still works in there.
    let _ = std::fs::remove_dir(&work);
    match report {
        Ok(report) => {
            println!("{}", report.stamp(&args));
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Named samples; each metric is a statistic over its samples.
#[derive(Debug, Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: impl Into<String>, value: f64) {
        self.0.entry(name.into()).or_default().push(value);
    }

    fn extend(&mut self, name: &str, values: impl IntoIterator<Item = f64>) {
        self.0.entry(name.to_string()).or_default().extend(values);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }
}

/// The outcome of one run.
#[derive(Debug)]
pub struct Report {
    checks: Checks,
    /// `(name, value, unit)` in catalogue order.
    metrics: Vec<(String, f64, &'static str)>,
    /// Unscaled wall-clock medians of the end-to-end times.
    wall_clock: BTreeMap<String, f64>,
    /// Mean total time per traced repetition of every span name.
    span_ms: BTreeMap<String, f64>,
    /// Median calibration-kernel time.
    kernel_ms: f64,
    rounds: usize,
    reps: usize,
    epochs: usize,
}

impl Report {
    /// The result object: the run's last line of output.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checks.failed == 0,
            self.checks.attempted,
            self.checks.failed,
            metrics.join(", ")
        )
    }

    /// Host, revision, sample counts and unscaled times of the run.
    fn stamp(&self, args: &Args) -> String {
        let object = |map: &BTreeMap<String, f64>| -> String {
            let fields: Vec<String> = map
                .iter()
                .map(|(name, value)| format!("\"{name}\": {value}"))
                .collect();
            format!("{{{}}}", fields.join(", "))
        };
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"rounds\": {}, \
             \"repetitions\": {}, \"epochs\": {}, \"setup_repetitions\": {SETUP_REPEATS}, \
             \"kernel_ms\": {}, \"reference_kernel_ms\": {}, \"wall_clock\": {}, \
             \"span_ms\": {}, \"host\": {}, \"run\": {}}}",
            args.workload.name,
            args.seed,
            u8::from(args.trace),
            self.rounds,
            self.reps,
            self.epochs,
            self.kernel_ms,
            calib::REFERENCE_MS,
            object(&self.wall_clock),
            object(&self.span_ms),
            serde::json::to_string(&sper_bench::host_info()),
            serde::json::to_string(&sper_bench::run_stamp()),
        )
    }
}

/// Sets the workload up and measures it for `seconds`, working in `dir`.
pub fn measure(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    dir: &Path,
) -> io::Result<Report> {
    let mut calibration = Calibration::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut raw_setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut twins = Vec::new();
    let mut kernel_before = calibration.sample();
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        twins = set_up_twins(workload, seed, dir)?;
        let took = t0.elapsed().as_secs_f64();
        let kernel_after = calibration.sample();
        setup_s.push(took * factor(kernel_before, kernel_after));
        raw_setup_s.push(took);
        kernel_before = kernel_after;
    }
    // The traced pass's recall check needs each twin's match set; the
    // untraced pass leaves it empty so it does not count towards `peak_mib`.
    let mut truth_pairs: Vec<HashSet<sper_model::Pair>> = vec![HashSet::new(); twins.len()];
    if trace {
        for (twin, pairs) in twins.iter().zip(&mut truth_pairs) {
            let profiles = read_profiles(&twin.inputs.profiles_csv)?;
            let truth = read_truth(&twin.inputs.truth_csv, profiles.len())?;
            pairs.extend(truth.pairs().copied());
        }
    }

    let mut checks = Checks::default();
    // Per twin: scaled and unscaled run times. Epochs pool across twins.
    let mut runs: Vec<Samples> = twins.iter().map(|_| Samples::default()).collect();
    let mut raw_runs: Vec<Samples> = twins.iter().map(|_| Samples::default()).collect();
    let mut epochs = Samples::default();
    let mut traced = Traced::default();
    let mut digests = vec![vec![None::<Digest>; metrics::METHODS.len()]; twins.len()];
    let min_rounds = if trace { 1 } else { MIN_ROUNDS };
    let mut rounds = 0usize;
    let mut last_round = 0.0f64;
    sper_bench::ALLOC.reset_peak();
    let start = Instant::now();
    while rounds < min_rounds || start.elapsed().as_secs_f64() + last_round <= seconds {
        let round_start = Instant::now();
        for (t, twin) in twins.iter().enumerate() {
            // The kernel runs between the repetition's operations (each
            // method's run from the CSV, then the whole stream phase) and
            // never inside one.
            let mut kernel_before = calibration.sample();
            for (slot, &method) in digests[t].iter_mut().zip(&metrics::METHODS) {
                let m = batch::slug(method);
                let run = batch::run_untraced(method, workload, &twin.inputs, &mut checks)?;
                let kernel_after = calibration.sample();
                let factor = factor(kernel_before, kernel_after);
                kernel_before = kernel_after;
                for (name, took) in [
                    (format!("ttfe_ms.{m}"), ms(run.ttfe)),
                    (format!("run_ms.{m}"), ms(run.run)),
                ] {
                    runs[t].push(name.clone(), took * factor);
                    raw_runs[t].push(name, took);
                }
                match slot {
                    None => *slot = Some(run.digest),
                    Some(first) => checks.record(
                        &format!("{} {} repeatable", workload.name, method.name()),
                        check_digest(*first, run.digest),
                    ),
                }
            }
            let run = stream::run_stream(
                workload,
                &twin.inputs,
                twin.seed,
                dir,
                &mut Spans::new(false),
                &mut checks,
            )?;
            let factor = factor(kernel_before, calibration.sample());
            epochs.extend("epoch_ms", run.epoch_ms.iter().map(|v| v * factor));
            epochs.extend("raw_epoch_ms", run.epoch_ms);

            if trace {
                traced.repetition(
                    workload,
                    twin,
                    &truth_pairs[t],
                    &digests[t],
                    dir,
                    &mut checks,
                )?;
            }
        }
        rounds += 1;
        last_round = round_start.elapsed().as_secs_f64();
    }
    let peak = sper_bench::ALLOC.peak_bytes();

    let mut values = mean_over_twins(&runs);
    let mut wall_clock = mean_over_twins(&raw_runs);
    for (into, name, setup) in [
        (&mut values, "epoch_ms", &setup_s),
        (&mut wall_clock, "raw_epoch_ms", &raw_setup_s),
    ] {
        let pooled = epochs.get(name);
        into.insert("epoch_ms.p50".into(), median(pooled));
        into.insert("epoch_ms.p90".into(), quantile(pooled, 0.9));
        into.insert("setup_s".into(), median(setup));
    }
    values.insert("peak_mib".into(), mib(peak as u64));
    if trace {
        for (name, samples) in &traced.layers.0 {
            values.insert(name.clone(), layer_statistic(name, samples));
        }
    }

    let catalogue = if trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    let mut reported = Vec::with_capacity(catalogue.len());
    for metric in catalogue {
        let value = values.get(&metric.name).copied().unwrap_or(f64::NAN);
        checks.record(
            &format!("{} metric {}", workload.name, metric.name),
            if value.is_finite() {
                Ok(())
            } else {
                Err("not measured".into())
            },
        );
        let value = if value.is_finite() { value } else { 0.0 };
        reported.push((metric.name, value, metric.unit));
    }
    Ok(Report {
        checks,
        metrics: reported,
        wall_clock,
        span_ms: traced.span_ms_per_repetition(),
        kernel_ms: median(calibration.samples()),
        rounds,
        reps: rounds * twins.len(),
        epochs: epochs.get("epoch_ms").len(),
    })
}

/// What the traced repetitions gathered.
#[derive(Debug, Default)]
struct Traced {
    /// Per-layer samples, by metric name.
    layers: Samples,
    /// Summed total time of every span name, in milliseconds.
    span_ms: BTreeMap<String, f64>,
    repetitions: usize,
}

impl Traced {
    /// One traced repetition on `twin`: the composed pipeline of every
    /// method and the stream phase run twice, once recording spans and
    /// once with a disabled recorder, in alternating order; the ratio of
    /// the two walls is the tracing overhead.
    fn repetition(
        &mut self,
        workload: &Workload,
        twin: &Twin,
        truth_pairs: &HashSet<sper_model::Pair>,
        digests: &[Option<Digest>],
        dir: &Path,
        checks: &mut Checks,
    ) -> io::Result<()> {
        let mut wall = [0.0f64; 2];
        let order = if self.repetitions.is_multiple_of(2) {
            [false, true]
        } else {
            [true, false]
        };
        for enabled in order {
            let mut spans = Spans::new(enabled);
            let t0 = Instant::now();
            let mut values = Vec::new();
            for (digest, &method) in digests.iter().zip(&metrics::METHODS) {
                let expected = digest.expect("the untraced run went first");
                values.extend(batch::run_traced(
                    method,
                    workload,
                    &twin.inputs,
                    truth_pairs,
                    expected,
                    &mut spans,
                    checks,
                )?);
            }
            let run =
                stream::run_stream(workload, &twin.inputs, twin.seed, dir, &mut spans, checks)?;
            wall[usize::from(enabled)] = t0.elapsed().as_secs_f64();
            if enabled {
                for (name, value) in values {
                    self.layers.push(name, value);
                }
                let profile = spans.profile();
                record_layers(&mut self.layers, &profile, &spans, &run);
                for (name, stats) in profile.names() {
                    *self.span_ms.entry(name.clone()).or_default() += stats.total_ns as f64 / 1e6;
                }
            }
        }
        self.layers
            .push("obs.trace_overhead", wall[1] / wall[0] - 1.0);
        self.repetitions += 1;
        Ok(())
    }

    /// Mean total time per repetition of every span name.
    fn span_ms_per_repetition(&self) -> BTreeMap<String, f64> {
        self.span_ms
            .iter()
            .map(|(name, total)| (name.clone(), total / self.repetitions as f64))
            .collect()
    }
}

/// The mean over twins of each twin's median, per metric.
fn mean_over_twins(per_twin: &[Samples]) -> BTreeMap<String, f64> {
    let mut sums: BTreeMap<String, (f64, f64)> = BTreeMap::new();
    for twin in per_twin {
        for (name, samples) in &twin.0 {
            let sum = sums.entry(name.clone()).or_default();
            sum.0 += median(samples);
            sum.1 += 1.0;
        }
    }
    sums.into_iter()
        .map(|(name, (total, twins))| (name, total / twins))
        .collect()
}

/// Pooled per-call samples report percentiles (`….p50`, `….p90`,
/// `….max`); every other layer metric is the median over repetitions.
fn layer_statistic(name: &str, samples: &[f64]) -> f64 {
    if name.ends_with(".p90") {
        quantile(samples, 0.9)
    } else if name.ends_with(".max") {
        samples.iter().copied().fold(f64::NAN, f64::max)
    } else {
        median(samples)
    }
}

/// Adds one traced repetition's layer numbers: self times from the span
/// tree, per-call percentiles pooled across repetitions, and the stream
/// phase's counts.
fn record_layers(
    layers: &mut Samples,
    profile: &SpanProfile,
    traced: &Spans,
    run: &stream::StreamRun,
) {
    for (metric, span) in [
        ("model.read_csv_ms", "model.read_csv"),
        ("model.read_matches_ms", "model.read_matches"),
        ("blocking.token_ms", "blocking.token"),
        ("blocking.purge_ms", "blocking.purge"),
        ("blocking.filter_ms", "blocking.filter"),
        ("blocking.neighbor_list_ms", "blocking.neighbor_list"),
    ] {
        if let Some(v) = mean_self_ms(profile, span) {
            layers.push(metric, v);
        }
    }
    for method in metrics::METHODS {
        let m = batch::slug(method);
        for (metric, span) in [
            ("core.init_ms", "core.init"),
            ("core.first_next_ms", "core.first_next"),
            ("core.emit_ms", "core.emit"),
            ("eval.ms", "eval"),
        ] {
            if let Some(stats) = profile.stacks().get(&format!("run.{m};{span}")) {
                layers.push(format!("{metric}.{m}"), stats.self_ns as f64 / 1e6);
            }
        }
    }
    for (metric, span) in [
        ("stream.ingest_ms", "stream.ingest"),
        ("stream.mutate_ms", "stream.mutate"),
        ("stream.emit_epoch_ms", "stream.emit_epoch"),
        ("store.checkpoint_ms", "store.checkpoint"),
    ] {
        let durations = traced.durations_ms(span);
        let pooled = if metric == "store.checkpoint_ms" {
            [".p50", ".max"]
        } else {
            [".p50", ".p90"]
        };
        for suffix in pooled {
            layers.extend(&format!("{metric}{suffix}"), durations.iter().copied());
        }
    }
    for suffix in [".p50", ".p90"] {
        layers.extend(
            &format!("stream.reprioritize_ms{suffix}"),
            run.reprioritize_ms.iter().copied(),
        );
    }
    if let Some(&resume) = traced.durations_ms("store.resume").first() {
        layers.push("store.resume_ms", resume);
    }
    if run.raw_emissions > 0 {
        layers.push(
            "stream.suppressed_ratio",
            run.suppressed as f64 / run.raw_emissions as f64,
        );
    }
    layers.push("stream.tombstones_max", run.tombstones_max as f64);
    layers.push("store.checkpoint_mib", mib(run.checkpoint_bytes));
    layers.push("store.checkpoint_failures", run.checkpoint_failures as f64);
    layers.push("obs.unattributed_share", unattributed_share(profile));
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::json::{parse, Value};

    fn names(value: &Value) -> Vec<(String, String, String)> {
        let Some(Value::Array(items)) = Some(value) else {
            panic!("expected an array");
        };
        items
            .iter()
            .map(|item| {
                let field = |key: &str| match item.get(key) {
                    Some(Value::String(s)) => s.clone(),
                    _ => String::new(),
                };
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    #[test]
    fn every_metric_is_present_and_finite_for_every_workload() {
        for workload in workload::WORKLOADS {
            let tiny = workload.tiny();
            for trace in [false, true] {
                let dir = PathBuf::from(".bench_work").join(format!(
                    "test-{}-{}-{}",
                    tiny.name,
                    u8::from(trace),
                    std::process::id()
                ));
                let report = measure(&tiny, 5, 0.01, trace, &dir).expect("tiny run");
                std::fs::remove_dir_all(&dir).expect("test directory removed");
                assert!(report.checks.attempted >= 1);
                assert_eq!(report.checks.failed, 0, "{} trace {trace}", tiny.name);
                let catalogue = if trace {
                    metrics::per_layer()
                } else {
                    metrics::end_to_end()
                };
                assert_eq!(report.metrics.len(), catalogue.len());
                for ((name, value, unit), metric) in report.metrics.iter().zip(&catalogue) {
                    assert_eq!((name, *unit), (&metric.name, metric.unit));
                    assert!(value.is_finite(), "{name} = {value}");
                    if !trace {
                        assert!(*value > 0.0, "{} {name} = {value}", tiny.name);
                    }
                }
                let line = parse(&report.to_json()).expect("result line is JSON");
                assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
                let Some(Value::Object(metrics)) = line.get("metrics") else {
                    panic!("metrics object");
                };
                assert_eq!(metrics.len(), catalogue.len());
            }
        }
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let spec = parse(&text).expect("BENCHMARK.json is JSON");
        let expect = |metrics: Vec<metrics::Metric>| -> Vec<(String, String, String)> {
            metrics
                .into_iter()
                .map(|m| (m.name, m.unit.to_string(), m.better.to_string()))
                .collect()
        };
        assert_eq!(
            names(spec.get("end_to_end").expect("end_to_end")),
            expect(metrics::end_to_end())
        );
        assert_eq!(
            names(spec.get("per_layer").expect("per_layer")),
            expect(metrics::per_layer())
        );
        let workloads: Vec<String> = names(spec.get("workloads").expect("workloads"))
            .into_iter()
            .map(|(name, _, _)| name)
            .collect();
        let defined: Vec<String> = workload::WORKLOADS
            .iter()
            .map(|w| w.name.to_string())
            .collect();
        assert_eq!(workloads, defined);
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| -> Vec<String> { s.split(' ').map(String::from).collect() };
        let ok = parse_args(&args(
            "--workload cora-exhaustive --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!(
            (ok.workload.name, ok.seed, ok.trace),
            ("cora-exhaustive", 3, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 1",
            "--workload cora-exhaustive --seed x --seconds 10 --trace 1",
            "--workload cora-exhaustive --seed 3 --seconds 0 --trace 1",
            "--workload cora-exhaustive --seed 3 --seconds 10 --trace 2",
            "--workload cora-exhaustive --seed 3 --seconds 10",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
