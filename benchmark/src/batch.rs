//! The batch phase: one method resolves the CSV to its emission budget.
//!
//! [`run_untraced`] is what `sper evaluate` runs (`build_method` driven by
//! `run_progressive`), observed only from outside the method's iterator.
//! [`run_traced`] composes the same pipeline from each layer's public
//! calls, with a span around every call, and must emit the same sequence.

use crate::checks::{check_digest, check_pairs, valid_pair, Checks, Digest};
use crate::spans::Spans;
use crate::stats::mib;
use crate::workload::{read_profiles, read_truth, Inputs, Workload};
use sper_blocking::{BlockFilter, BlockPurger, NeighborList, TokenBlocking};
use sper_core::gs_psn::GsPsn;
use sper_core::ls_psn::LsPsn;
use sper_core::pbs::Pbs;
use sper_core::pps::Pps;
use sper_core::sa_psab::SaPsab;
use sper_core::sa_psn::SaPsn;
use sper_core::{build_method, Comparison, MethodConfig, ProgressiveEr, ProgressiveMethod};
use sper_eval::runner::{run_prepared, run_progressive, RunOptions, RunResult};
use sper_model::{GroundTruth, Pair};
use std::cell::RefCell;
use std::collections::HashSet;
use std::io;
use std::time::{Duration, Instant};

/// The metric-name slug of a method (`"ls-psn"`).
pub fn slug(method: ProgressiveMethod) -> String {
    method.name().to_lowercase()
}

/// Runs go to the budget or until the method runs out, so every seed
/// does the same amount of emission work.
fn options(workload: &Workload) -> RunOptions {
    RunOptions {
        max_ec_star: workload.ec_star,
        stop_at_full_recall: false,
    }
}

/// What the untraced run observed.
#[derive(Debug, Clone)]
pub struct UntracedRun {
    /// From opening the CSV to the first returned comparison.
    pub ttfe: Duration,
    /// From opening the CSV to the end of the run, recall computed.
    pub run: Duration,
    /// Digest of the emitted sequence.
    pub digest: Digest,
}

/// What the probe saw pass through the method's iterator.
#[derive(Default)]
struct ProbeLog {
    first: Option<Instant>,
    digest: Digest,
    emissions: u64,
    invalid: Option<Pair>,
}

/// Wraps a method's iterator from outside: stamps the first emission,
/// digests the sequence, and ends the stream at the first invalid pair
/// (which the evaluator could not look up). It does a few nanoseconds of
/// work per emission, so it barely adds to the run it times.
struct Probe<'a> {
    inner: Box<dyn ProgressiveEr + 'a>,
    n_profiles: usize,
    log: &'a RefCell<ProbeLog>,
}

impl Iterator for Probe<'_> {
    type Item = Comparison;

    fn next(&mut self) -> Option<Comparison> {
        let c = self.inner.next()?;
        let mut log = self.log.borrow_mut();
        if log.first.is_none() {
            log.first = Some(Instant::now());
        }
        if !valid_pair(c.pair, self.n_profiles) {
            log.invalid = Some(c.pair);
            return None;
        }
        log.digest.push(&c);
        log.emissions += 1;
        Some(c)
    }
}

impl ProgressiveEr for Probe<'_> {
    fn method_name(&self) -> &'static str {
        self.inner.method_name()
    }
}

/// Replays drained emissions into the evaluator.
struct Replay<'a> {
    name: &'static str,
    rest: std::slice::Iter<'a, Comparison>,
}

impl Iterator for Replay<'_> {
    type Item = Comparison;

    fn next(&mut self) -> Option<Comparison> {
        self.rest.next().copied()
    }
}

impl ProgressiveEr for Replay<'_> {
    fn method_name(&self) -> &'static str {
        self.name
    }
}

/// `Err` unless the recall recomputed from `emitted` — the distinct pairs
/// among them that the ground truth's pair set holds — equals the curve's.
fn check_recall(
    emitted: &[Comparison],
    truth_pairs: &HashSet<Pair>,
    result: &RunResult,
) -> Result<(), String> {
    let found: HashSet<Pair> = emitted
        .iter()
        .map(|c| c.pair)
        .filter(|p| truth_pairs.contains(p))
        .collect();
    let recall = if truth_pairs.is_empty() {
        1.0
    } else {
        found.len() as f64 / truth_pairs.len() as f64
    };
    let curve = result.curve.final_recall();
    if recall == curve {
        Ok(())
    } else {
        Err(format!("recall {recall} recomputed, curve says {curve}"))
    }
}

/// Runs `method` as `sper evaluate` does, timing from outside.
pub fn run_untraced(
    method: ProgressiveMethod,
    workload: &Workload,
    inputs: &Inputs,
    checks: &mut Checks,
) -> io::Result<UntracedRun> {
    let config = MethodConfig::default();
    let t0 = Instant::now();
    let profiles = read_profiles(&inputs.profiles_csv)?;
    let truth = read_truth(&inputs.truth_csv, profiles.len())?;
    Ok(observe(
        t0,
        || build_method(method, &profiles, &config, None),
        profiles.len(),
        &truth,
        options(workload),
        &format!("{} {}", workload.name, method.name()),
        checks,
    ))
}

/// Drives the method `build` returns through the evaluator behind a
/// probe, and checks what passed through it. `t0` is when the run began.
fn observe<'a>(
    t0: Instant,
    build: impl FnOnce() -> Box<dyn ProgressiveEr + 'a>,
    n_profiles: usize,
    truth: &GroundTruth,
    opts: RunOptions,
    what: &str,
    checks: &mut Checks,
) -> UntracedRun {
    let log = RefCell::new(ProbeLog::default());
    let result = run_progressive(
        || {
            Box::new(Probe {
                inner: build(),
                n_profiles,
                log: &log,
            })
        },
        truth,
        opts,
    );
    let run = t0.elapsed();
    let log = log.into_inner();
    let outcome = match (log.invalid, log.first) {
        (Some(p), _) => Err(format!(
            "pair ({}, {}) is not ordered or out of range for {n_profiles} profiles",
            p.first.0, p.second.0
        )),
        (None, None) => Err("no comparison emitted".to_string()),
        (None, Some(_)) if log.emissions != result.curve.emissions() => Err(format!(
            "{} emissions passed the probe, the curve counts {}",
            log.emissions,
            result.curve.emissions()
        )),
        (None, Some(_)) => Ok(()),
    };
    checks.record(what, outcome);
    UntracedRun {
        ttfe: log.first.map_or(run, |t| t - t0),
        run,
        digest: log.digest,
    }
}

/// Runs a method constructor inside the `core.init` span, measuring the
/// heap it adds at its peak.
fn init<'a, M: ProgressiveEr + 'a>(
    spans: &mut Spans,
    build: impl FnOnce() -> M,
) -> (Box<dyn ProgressiveEr + 'a>, usize) {
    let (method, peak) = spans.time("core.init", || sper_bench::peak_bytes(build));
    (Box::new(method), peak)
}

/// The per-layer numbers of one traced run, by metric name.
pub type LayerValues = Vec<(String, f64)>;

/// Composes the pipeline of `method` from each layer's public calls, with
/// a span around every call, and checks its emissions against the
/// untraced run's digest.
pub fn run_traced(
    method: ProgressiveMethod,
    workload: &Workload,
    inputs: &Inputs,
    truth_pairs: &HashSet<Pair>,
    expected: Digest,
    spans: &mut Spans,
    checks: &mut Checks,
) -> io::Result<LayerValues> {
    let m = slug(method);
    let config = MethodConfig::default();
    let par = config.threads;
    let mut values: LayerValues = Vec::new();
    let root = spans.enter();
    let profiles = spans.time("model.read_csv", || read_profiles(&inputs.profiles_csv))?;
    let truth = spans.time("model.read_matches", || {
        read_truth(&inputs.truth_csv, profiles.len())
    })?;
    let neighbor_list = |spans: &mut Spans, values: &mut LayerValues| {
        let nl = spans.time("blocking.neighbor_list", || {
            NeighborList::par_build(&profiles, config.seed, par.get())
                .expect("one thread is a valid thread count")
        });
        values.push(("blocking.neighbor_list_len".into(), nl.len() as f64));
        nl
    };
    let token_blocks = |spans: &mut Spans, values: &mut LayerValues| {
        let workflow = &config.workflow;
        let blocks = spans.time("blocking.token", || {
            TokenBlocking::default().build(&profiles)
        });
        let blocks = spans.time("blocking.purge", || {
            BlockPurger::new(workflow.purge_ratio).purge(blocks)
        });
        let blocks = spans.time("blocking.filter", || {
            BlockFilter::new(workflow.filter_ratio).filter(blocks)
        });
        values.push(("blocking.blocks_kept".into(), blocks.len() as f64));
        values.push((
            "blocking.comparisons_kept".into(),
            blocks.total_comparisons() as f64,
        ));
        blocks
    };
    let (mut emitter, init_peak) = match method {
        ProgressiveMethod::SaPsn => {
            let nl = neighbor_list(spans, &mut values);
            init(spans, || SaPsn::from_neighbor_list(&profiles, nl))
        }
        ProgressiveMethod::SaPsab => init(spans, || SaPsab::new(&profiles, config.lmin)),
        ProgressiveMethod::LsPsn => {
            let nl = neighbor_list(spans, &mut values);
            init(spans, || {
                LsPsn::from_neighbor_list_par(&profiles, nl, config.neighbor_weighting, par)
            })
        }
        ProgressiveMethod::GsPsn => {
            let nl = neighbor_list(spans, &mut values);
            init(spans, || {
                GsPsn::from_neighbor_list_par(
                    &profiles,
                    nl,
                    config.wmax,
                    config.neighbor_weighting,
                    par,
                )
            })
        }
        ProgressiveMethod::Pbs => {
            let blocks = token_blocks(spans, &mut values);
            init(spans, || Pbs::from_blocks_par(blocks, config.scheme, par))
        }
        ProgressiveMethod::Pps => {
            let blocks = token_blocks(spans, &mut values);
            init(spans, || {
                Pps::from_blocks_par(blocks, config.scheme, config.kmax, par)
            })
        }
        ProgressiveMethod::Psn => unreachable!("the benchmark runs schema-agnostic methods only"),
    };
    let opts = options(workload);
    let budget = opts.max_emissions(truth.num_matches());
    let first = spans.time("core.first_next", || emitter.next());
    let drained: Vec<Comparison> = spans.time("core.emit", || {
        let mut drained = Vec::with_capacity(usize::try_from(budget).unwrap_or(0).min(1 << 26));
        drained.extend(first);
        if first.is_some() {
            drained.extend(
                emitter
                    .by_ref()
                    .take(usize::try_from(budget - 1).unwrap_or(0)),
            );
        }
        drained
    });
    drop(emitter);
    // The evaluator sees only the valid prefix: an invalid pair would
    // index past the ground truth.
    let valid = drained
        .iter()
        .position(|c| !valid_pair(c.pair, profiles.len()))
        .unwrap_or(drained.len());
    let result = spans.time("eval", || {
        run_prepared(
            Box::new(Replay {
                name: method.name(),
                rest: drained[..valid].iter(),
            }),
            &truth,
            opts,
            Duration::ZERO,
        )
    });
    spans.exit(&format!("run.{m}"), root);

    let emitted = usize::try_from(result.curve.emissions()).unwrap_or(usize::MAX);
    let outcome = check_pairs(&drained, profiles.len())
        .and_then(|()| check_digest(expected, Digest::of(&drained[..emitted])))
        .and_then(|()| check_recall(&drained[..emitted], truth_pairs, &result));
    checks.record(
        &format!("{} {} composed pipeline", workload.name, method.name()),
        outcome,
    );
    let emissions = result.curve.emissions() as f64;
    let distinct = emissions - result.repeated_emissions as f64;
    values.extend([
        (format!("core.init_peak_mib.{m}"), mib(init_peak as u64)),
        (format!("core.emissions.{m}"), emissions),
        (
            format!("core.distinct_ratio.{m}"),
            if emissions > 0.0 {
                distinct / emissions
            } else {
                0.0
            },
        ),
        (format!("eval.auc_star.{m}"), result.auc(workload.ec_star)),
        (format!("eval.recall.{m}"), result.curve.final_recall()),
    ]);
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{set_up, WORKLOADS};
    use sper_model::ProfileId;

    /// A method that emits a fixed sequence.
    struct Scripted(std::vec::IntoIter<Comparison>);

    impl Iterator for Scripted {
        type Item = Comparison;

        fn next(&mut self) -> Option<Comparison> {
            self.0.next()
        }
    }

    impl ProgressiveEr for Scripted {
        fn method_name(&self) -> &'static str {
            "SCRIPTED"
        }
    }

    fn cmp(a: u32, b: u32) -> Comparison {
        Comparison::new(Pair::new(ProfileId(a), ProfileId(b)), 1.0)
    }

    fn observe_script(script: Vec<Comparison>, checks: &mut Checks) -> UntracedRun {
        let truth = GroundTruth::from_pairs(3, [Pair::new(ProfileId(0), ProfileId(1))]);
        observe(
            Instant::now(),
            || Box::new(Scripted(script.into_iter())),
            3,
            &truth,
            RunOptions {
                max_ec_star: 10.0,
                stop_at_full_recall: false,
            },
            "scripted",
            checks,
        )
    }

    #[test]
    fn a_valid_script_passes() {
        let mut checks = Checks::default();
        let run = observe_script(vec![cmp(1, 2), cmp(0, 1)], &mut checks);
        assert_eq!((checks.attempted, checks.failed), (1, 0));
        assert_eq!(run.digest, Digest::of(&[cmp(1, 2), cmp(0, 1)]));
    }

    #[test]
    fn a_pair_out_of_range_is_a_failed_operation_not_a_crash() {
        let mut checks = Checks::default();
        observe_script(vec![cmp(1, 2), cmp(0, 7), cmp(0, 1)], &mut checks);
        assert_eq!((checks.attempted, checks.failed), (1, 1));
    }

    #[test]
    fn the_composed_pipeline_matches_build_method_and_a_corrupted_digest_fails() {
        let workload = WORKLOADS[0].tiny();
        let dir = std::path::PathBuf::from(".bench_work")
            .join(format!("test-composed-{}", std::process::id()));
        let inputs = set_up(&workload, 3, &dir).expect("inputs written");
        let profiles = read_profiles(&inputs.profiles_csv).expect("profiles read");
        let truth_pairs: HashSet<Pair> = read_truth(&inputs.truth_csv, profiles.len())
            .expect("truth read")
            .pairs()
            .copied()
            .collect();
        for method in ProgressiveMethod::SCHEMA_AGNOSTIC {
            let mut checks = Checks::default();
            let untraced =
                run_untraced(method, &workload, &inputs, &mut checks).expect("untraced run");
            let mut spans = Spans::new(true);
            run_traced(
                method,
                &workload,
                &inputs,
                &truth_pairs,
                untraced.digest,
                &mut spans,
                &mut checks,
            )
            .expect("traced run");
            assert_eq!((checks.attempted, checks.failed), (2, 0), "{method}");
            run_traced(
                method,
                &workload,
                &inputs,
                &truth_pairs,
                Digest(untraced.digest.0 ^ 1),
                &mut spans,
                &mut checks,
            )
            .expect("traced run");
            assert_eq!((checks.attempted, checks.failed), (3, 1), "{method}");
        }
        std::fs::remove_dir_all(&dir).expect("test directory removed");
    }
}
