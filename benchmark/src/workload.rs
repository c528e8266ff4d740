//! The benchmark's workloads and their seeded inputs.
//!
//! Every workload is the same closed loop with one caller, over one
//! generated twin written to CSV (which `read_csv` always loads as Dirty
//! ER, exactly what `sper evaluate` and `sper stream` see):
//!
//! 1. the batch phase resolves the CSV once with each of the six
//!    schema-agnostic methods, from opening the file to the emission
//!    budget `ec* · |DP|`, with recall computed;
//! 2. the stream phase feeds the same rows to a PPS session in batches,
//!    retracting and amending seeded live profiles after each batch,
//!    emitting one budgeted epoch per batch, checkpointing at a fixed
//!    cadence, and finally resuming the last checkpoint.
//!
//! The workloads weight the two phases differently; see [`WORKLOADS`]
//! and the measured balance in `METRICS.md`.

use sper_datagen::{DatasetKind, DatasetSpec};
use sper_model::io as model_io;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// One workload: a twin and how hard each phase is driven.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name passed as `--workload`.
    pub name: &'static str,
    /// The generated twin.
    pub kind: DatasetKind,
    /// Generation scale of the twin.
    pub scale: f64,
    /// Twins a run generates. A run measures whole rounds, each one
    /// repetition on every twin, and every end-to-end time is the mean
    /// over twins of the twin's median, so one unusual draw of the
    /// generator moves a run's figures less and every figure covers the
    /// same inputs. As many as let two rounds fit in a run.
    pub twins: u64,
    /// Batch-phase budget in `ec*` (emissions per true match).
    pub ec_star: f64,
    /// Stream-phase ingest batches (one epoch each).
    pub batches: usize,
    /// Epochs between checkpoints (the last epoch always checkpoints).
    pub checkpoint_every: usize,
}

/// The benchmark's workloads.
pub const WORKLOADS: [Workload; 3] = [
    // The paper's setting: a small budget on a heterogeneous
    // collection. Bound by the work before the first emission (83-99 % of
    // each method's run, measured); emission and eval take 1-16 %.
    Workload {
        name: "movies-budget",
        kind: DatasetKind::Movies,
        scale: 0.25,
        twins: 8,
        ec_star: 10.0,
        batches: 20,
        checkpoint_every: 2,
    },
    // The opposite balance: dense clusters run to ec* = 30, so emission
    // refills and evaluation take 68 % of the six runs and init 18 %
    // (measured; GS-PSN alone is init-heavy).
    Workload {
        name: "cora-exhaustive",
        kind: DatasetKind::Cora,
        scale: 3.0,
        twins: 8,
        ec_star: 30.0,
        batches: 20,
        checkpoint_every: 2,
    },
    // Ingest-while-resolving under writes: 100 epochs of re-prioritization,
    // tombstones, compaction and checkpoints (57 % of a repetition,
    // measured) beside a cold-start batch phase with a one-|DP| budget.
    Workload {
        name: "dbpedia-stream",
        kind: DatasetKind::Dbpedia,
        scale: 0.3,
        twins: 4,
        ec_star: 1.0,
        batches: 100,
        checkpoint_every: 10,
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn named(name: &str) -> Option<Workload> {
        WORKLOADS.iter().find(|w| w.name == name).cloned()
    }

    /// The same workload shrunk for self-tests.
    #[cfg(test)]
    pub fn tiny(&self) -> Workload {
        Workload {
            scale: self.scale * 0.02,
            batches: self.batches.min(10),
            checkpoint_every: 2,
            ..self.clone()
        }
    }
}

/// One generated twin of a run and the seed it was generated from.
#[derive(Debug, Clone)]
pub struct Twin {
    /// Seed of the generator (and of the stream phase's mutations).
    pub seed: u64,
    /// Its CSV files.
    pub inputs: Inputs,
}

/// Generates the workload's twins from the run seed, each into its own
/// directory under `dir`.
pub fn set_up_twins(workload: &Workload, seed: u64, dir: &Path) -> std::io::Result<Vec<Twin>> {
    (0..workload.twins)
        .map(|i| {
            let twin_seed = seed.wrapping_mul(workload.twins).wrapping_add(i);
            Ok(Twin {
                seed: twin_seed,
                inputs: set_up(workload, twin_seed, &dir.join(format!("twin-{i}")))?,
            })
        })
        .collect()
}

/// The generated inputs: the only thing the timed code receives.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Profiles, one row per profile.
    pub profiles_csv: PathBuf,
    /// Ground truth, one `id,id` match per line.
    pub truth_csv: PathBuf,
}

/// Generates the workload's twin from `seed` and writes it to CSV in `dir`.
pub fn set_up(workload: &Workload, seed: u64, dir: &Path) -> std::io::Result<Inputs> {
    std::fs::create_dir_all(dir)?;
    let data = DatasetSpec::paper(workload.kind)
        .with_scale(workload.scale)
        .with_seed(seed)
        .generate();
    let inputs = Inputs {
        profiles_csv: dir.join(format!("{}.csv", workload.name)),
        truth_csv: dir.join(format!("{}.matches.csv", workload.name)),
    };
    let mut out = BufWriter::new(File::create(&inputs.profiles_csv)?);
    model_io::write_csv(&data.profiles, &mut out)?;
    out.flush()?;
    let mut out = BufWriter::new(File::create(&inputs.truth_csv)?);
    model_io::write_matches(&data.truth, &mut out)?;
    out.flush()?;
    Ok(inputs)
}

/// Reads the profiles CSV, as `sper evaluate` does.
pub fn read_profiles(path: &Path) -> std::io::Result<sper_model::ProfileCollection> {
    model_io::read_csv(&std::fs::read_to_string(path)?)
}

/// Reads the ground truth for `n_profiles` profiles, as `sper evaluate` does.
pub fn read_truth(path: &Path, n_profiles: usize) -> std::io::Result<sper_model::GroundTruth> {
    model_io::read_matches(&std::fs::read(path)?[..], n_profiles)
}
