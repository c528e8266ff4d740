//! The stream phase: the CSV's rows are fed to a PPS session in batches by
//! one caller that waits for each epoch before sending the next batch, as
//! `sper stream` does. After each batch, seeded retracts and amends hit
//! live profiles; every `checkpoint_every`-th epoch is checkpointed, and
//! the last checkpoint is finally read back and resumed.

use crate::checks::{check_digest, check_pairs, Checks, Digest};
use crate::spans::Spans;
use crate::stats::ms;
use crate::workload::{read_profiles, Inputs, Workload};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sper_core::{Comparison, ProgressiveMethod};
use sper_model::{Attribute, ProfileCollectionBuilder, ProfileId};
use sper_store::{CheckpointOutcome, CheckpointWriter, OnCheckpointFailure};
use sper_stream::{ProgressiveSession, SessionConfig};
use std::io;
use std::path::Path;
use std::time::Instant;

/// Salt separating the mutation stream from the dataset generator's.
const MUTATION_SALT: u64 = 0x6d75_7461_7465_2121;

/// Share of the live profiles retracted, and separately amended, after
/// each batch.
const MUTATION_RATE: f64 = 0.01;

/// New emissions per epoch.
const EPOCH_BUDGET: u64 = 500;

/// What one stream phase observed.
#[derive(Debug, Default, Clone)]
pub struct StreamRun {
    /// The caller's blocking time per batch: ingest, mutations, epoch and
    /// the checkpoint when one is due.
    pub epoch_ms: Vec<f64>,
    /// Each epoch's re-prioritization time, as the session reports it.
    pub reprioritize_ms: Vec<f64>,
    /// Comparisons the method produced, repeats included.
    pub raw_emissions: u64,
    /// Comparisons suppressed as cross-epoch repeats.
    pub suppressed: u64,
    /// Most tombstones pending at the start of an epoch.
    pub tombstones_max: usize,
    /// Size of the last checkpoint file.
    pub checkpoint_bytes: u64,
    /// Checkpoints abandoned after retries.
    pub checkpoint_failures: u64,
}

/// Retracts and amends [`MUTATION_RATE`] of the live profiles each, drawn
/// from `rng` among live ids only (retracting a dead id panics). An amend
/// drops the last word of the profile's first multi-word value.
fn mutate(session: &mut ProgressiveSession, live: &mut Vec<u32>, rng: &mut StdRng) {
    let n = (MUTATION_RATE * live.len() as f64).round() as usize;
    for _ in 0..n.min(live.len()) {
        let id = live.swap_remove(rng.gen_range(0..live.len()));
        session.retract(ProfileId(id));
    }
    for _ in 0..n.min(live.len()) {
        let id = ProfileId(live.swap_remove(rng.gen_range(0..live.len())));
        let mut attributes: Vec<Attribute> = session.profiles().get(id).attributes.clone();
        if let Some(a) = attributes.iter_mut().find(|a| a.value.contains(' ')) {
            let cut = a.value.rfind(' ').expect("value holds a space");
            a.value.truncate(cut);
        }
        live.push(session.amend(id, attributes).0);
    }
}

/// `Err` naming an emitted pair that is invalid or touches a retracted
/// profile.
fn check_epoch(session: &ProgressiveSession, comparisons: &[Comparison]) -> Result<(), String> {
    check_pairs(comparisons, session.profiles().len())?;
    match comparisons
        .iter()
        .find(|c| session.is_retracted(c.pair.first) || session.is_retracted(c.pair.second))
    {
        Some(c) => Err(format!(
            "pair ({}, {}) touches a retracted profile",
            c.pair.first.0, c.pair.second.0
        )),
        None => Ok(()),
    }
}

/// Runs the stream phase, checkpointing into `dir`.
pub fn run_stream(
    workload: &Workload,
    inputs: &Inputs,
    seed: u64,
    dir: &Path,
    spans: &mut Spans,
    checks: &mut Checks,
) -> io::Result<StreamRun> {
    let mut run = StreamRun::default();
    let path = dir.join(format!("{}.sper", workload.name));
    let mut writer = CheckpointWriter::new(&path).with_on_failure(OnCheckpointFailure::Continue);
    let mut rng = StdRng::seed_from_u64(seed ^ MUTATION_SALT);
    let root = spans.enter();
    let profiles = spans.time("model.read_csv", || read_profiles(&inputs.profiles_csv))?;
    let chunk = profiles.len().div_ceil(workload.batches).max(1);
    let mut batches: Vec<Vec<Vec<Attribute>>> = profiles
        .profiles()
        .chunks(chunk)
        .map(|c| c.iter().map(|p| p.attributes.clone()).collect())
        .collect();
    drop(profiles);
    batches.reverse();
    let mut session = ProgressiveSession::new(
        ProfileCollectionBuilder::dirty().build(),
        SessionConfig::new(ProgressiveMethod::Pps),
    );
    let mut live: Vec<u32> = Vec::new();
    let mut saved_epoch = 0;
    while let Some(batch) = batches.pop() {
        let t0 = Instant::now();
        let ids = spans.time("stream.ingest", || session.ingest_batch(batch));
        live.extend(ids);
        spans.time("stream.mutate", || {
            mutate(&mut session, &mut live, &mut rng)
        });
        run.tombstones_max = run.tombstones_max.max(session.pending_tombstones());
        let outcome = spans.time("stream.emit_epoch", || {
            session.emit_epoch(Some(EPOCH_BUDGET))
        });
        let epoch = outcome.report.epoch;
        if epoch.is_multiple_of(workload.checkpoint_every) || batches.is_empty() {
            let saved = spans.time("store.checkpoint", || writer.save(&session));
            checks.record(
                &format!("{} checkpoint {epoch}", workload.name),
                match saved {
                    Ok(CheckpointOutcome::Saved) => {
                        saved_epoch = epoch;
                        Ok(())
                    }
                    Ok(CheckpointOutcome::FailedContinuing) => Err("not saved".into()),
                    Err(e) => Err(e.to_string()),
                },
            );
        }
        run.epoch_ms.push(ms(t0.elapsed()));
        run.reprioritize_ms.push(ms(outcome.report.init_time));
        run.raw_emissions += outcome.report.raw_emissions;
        run.suppressed += outcome.report.suppressed;
        checks.record(
            &format!("{} epoch {epoch}", workload.name),
            check_epoch(&session, &outcome.comparisons),
        );
    }
    let resumed = spans.time("store.resume", || {
        CheckpointWriter::resume(&path)
            .map(|(checkpoint, fell_back)| (checkpoint.resume(), fell_back))
    });
    spans.exit("run.stream", root);
    run.checkpoint_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    run.checkpoint_failures = writer.failures();

    // The resumed session must continue exactly as the live one does.
    let outcome = match resumed {
        Err(e) => Err(e.to_string()),
        Ok((_, true)) => Err("the last checkpoint was unreadable".into()),
        Ok(_) if saved_epoch != session.reports().len() => {
            Err(format!("the last checkpoint holds epoch {saved_epoch}"))
        }
        Ok((mut resumed, false)) => {
            let live_next = session.emit_epoch(Some(EPOCH_BUDGET)).comparisons;
            let resumed_next = resumed.emit_epoch(Some(EPOCH_BUDGET)).comparisons;
            check_digest(Digest::of(&live_next), Digest::of(&resumed_next)).and_then(|()| {
                if live_next.len() == resumed_next.len() {
                    Ok(())
                } else {
                    Err("the resumed epoch has another length".into())
                }
            })
        }
    };
    checks.record(&format!("{} resume", workload.name), outcome);
    Ok(run)
}
