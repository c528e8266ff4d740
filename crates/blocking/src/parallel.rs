//! Shared-memory parallelization of the blocking substrates — the paper's
//! future-work direction (§8: "massive parallelization of our approach
//! based on existing methods for parallelizing Sorted Neighborhood \[31,32\]
//! and Meta-blocking \[33\]"), realized as deterministic work-stealing
//! fan-outs on crossbeam scoped threads.
//!
//! [`Parallelism::steal_chunks`] is the one fan-out of the workspace: every
//! parallel path in `sper-blocking` and `sper-core` (edge weighting, node
//! pruning, the Neighbor List build, the LS-PSN/GS-PSN/PBS/PPS weighting
//! passes) splits a range into chunks, runs a pure per-chunk function, and
//! gets the results back in chunk order. Every entry point is therefore
//! **bit-identical** to its one-worker run (property-tested here and in
//! `tests/parallel_equivalence.rs`): parallelism changes wall-clock time,
//! never results. Two ingredients make that possible:
//!
//! 1. **Deterministic chunk layout.** Chunk boundaries are a pure function
//!    of `(len, workers, min_chunk)`, and outputs are concatenated in chunk
//!    order, whichever worker ran which chunk.
//! 2. **Independent per-chunk dedup.** Edge weighting discovers each edge
//!    exactly once, from its smaller endpoint, inside that endpoint's
//!    chunk (the sparse-accumulator sweep of [`crate::spacc`]), and a
//!    counting scatter by the recorded least-common-block tag restores the
//!    sequential edge order — no cross-chunk `seen` set, no merge-order
//!    sensitivity.
//!
//! Thread counts are validated at the API boundary: every parallel entry
//! point takes a raw `usize` and returns [`ZeroThreads`] instead of
//! panicking when it is zero. Use [`Parallelism`] to carry a validated
//! count through configuration layers.

use crate::block::BlockCollection;
use crate::graph::BlockingGraph;
use crate::profile_index::ProfileIndex;
use crate::weights::WeightingScheme;
use std::num::NonZeroUsize;

/// Below this work-item count the parallel engines run inline on the
/// calling thread: an OS-thread spawn/join costs tens of microseconds,
/// which dwarfs the sort/sweep/weighting of a small batch. Correctness is
/// unaffected either way (the parallel paths are bit-identical); this is
/// purely the spawn-overhead break-even guard, shared by every layer of
/// the engine (blocking substrates and the `sper-core` emission lists).
pub const MIN_PARALLEL_BATCH: usize = 2048;

/// The typed error of the parallel entry points: zero worker threads were
/// requested. (Seed versions of this API `assert!`ed instead; a zero
/// thread count is a configuration mistake, not a programming bug, so it
/// is reported as a value.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ZeroThreads;

impl std::fmt::Display for ZeroThreads {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("parallel execution needs at least one worker thread")
    }
}

impl std::error::Error for ZeroThreads {}

/// A validated worker-thread count for the parallel engine.
///
/// Construction is the only place a thread count can be zero, so every
/// consumer past [`Parallelism::new`] works with a guaranteed-positive
/// count — the engine never has to re-check.
///
/// ```
/// use sper_blocking::Parallelism;
///
/// assert_eq!(Parallelism::new(4).unwrap().get(), 4);
/// assert!(Parallelism::new(0).is_err());
/// assert!(Parallelism::SEQUENTIAL.is_sequential());
/// assert!(Parallelism::available().get() >= 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Parallelism(NonZeroUsize);

impl Parallelism {
    /// One worker: the sequential engine.
    pub const SEQUENTIAL: Parallelism = Parallelism(NonZeroUsize::MIN);

    /// Validates a worker-thread count.
    pub fn new(threads: usize) -> Result<Self, ZeroThreads> {
        NonZeroUsize::new(threads).map(Self).ok_or(ZeroThreads)
    }

    /// The machine's available parallelism (≥ 1; falls back to 1 when the
    /// runtime cannot report it). The CLI default for `--threads`.
    pub fn available() -> Self {
        Self(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// The validated thread count.
    #[inline]
    pub fn get(self) -> usize {
        self.0.get()
    }

    /// True for a single worker (the engine takes the sequential paths).
    #[inline]
    pub fn is_sequential(self) -> bool {
        self.get() == 1
    }

    /// Caps the worker count at `items` (spawning more workers than work
    /// items only adds join overhead) while staying ≥ 1.
    #[inline]
    pub fn capped(self, items: usize) -> Parallelism {
        Parallelism(NonZeroUsize::new(self.get().min(items)).unwrap_or(NonZeroUsize::MIN))
    }

    /// The spawn break-even guard: collapses to [`Self::SEQUENTIAL`] when
    /// `items` is below [`MIN_PARALLEL_BATCH`] (the fan-out would cost more
    /// than the work it distributes), and otherwise caps the requested
    /// count at the machine's [available parallelism](Self::available) —
    /// on an oversubscribed host, extra workers only add contention and
    /// join overhead without any speedup (results are bit-identical at
    /// every count, so this is purely a wall-clock guard).
    pub fn break_even(self, items: usize) -> Parallelism {
        if items < MIN_PARALLEL_BATCH {
            Self::SEQUENTIAL
        } else {
            self.capped(Self::available().get())
        }
    }

    /// Splits `0..len` into fine-grained chunks (about
    /// [`STEAL_OVERSUBSCRIPTION`] per worker, never smaller than
    /// `min_chunk` items) and lets the workers **steal** them from a
    /// shared lock-free queue: each worker claims the next unclaimed chunk
    /// with one atomic `fetch_add`, runs `f(&mut scratch, range, chunk)`,
    /// and moves on — a straggler chunk delays only its own worker while
    /// the rest drain the queue, unlike fixed per-worker ranges, where the
    /// slowest range sets the join time.
    ///
    /// Determinism: stealing reorders *execution*, never *output*. Chunk
    /// boundaries are a pure function of `(len, workers, min_chunk)`, each
    /// chunk's result is written into its own slot, and the returned `Vec`
    /// is in chunk order — so as long as `f` is a pure function of its
    /// range (the contract of every call site, property-tested by the
    /// emission-equivalence suites), the concatenated output is identical
    /// at every worker count and under every steal interleaving.
    ///
    /// `init` builds one per-worker scratch, reused across all chunks the
    /// worker claims (the spacc sweeps reuse one `O(|P|)` accumulator per
    /// worker instead of one per range). With one effective worker,
    /// everything runs inline on the calling thread — no spawn, one
    /// chunk.
    ///
    /// Every fan-out records per-worker busy time: into the global
    /// metrics registry (`parallel.worker_busy_us` histogram,
    /// `parallel.fanout_workers` gauge) when metrics are enabled, and
    /// always into the slot [`take_last_fanout_stats`] reads. With
    /// `Debug`-level tracing on, each worker additionally closes one
    /// `parallel.worker` span (worker index, chunks claimed, busy µs) —
    /// the per-worker utilization lanes of the Chrome-trace export.
    pub fn steal_chunks<S, T, FI, F>(self, len: usize, min_chunk: usize, init: FI, f: F) -> Vec<T>
    where
        T: Send,
        FI: Fn() -> S + Sync,
        F: Fn(&mut S, std::ops::Range<usize>, usize) -> T + Sync,
    {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::Instant;

        let workers = self.capped(len.max(1)).get();
        let chunk = len
            .div_ceil(workers * STEAL_OVERSUBSCRIPTION)
            .max(min_chunk.max(1));
        let n_chunks = len.div_ceil(chunk).max(1);
        let workers = workers.min(n_chunks);
        let wall_start = Instant::now();

        if workers == 1 {
            let mut scratch = init();
            let mut results = Vec::with_capacity(n_chunks);
            let mut span = sper_obs::trace::SpanGuard::enter(
                sper_obs::trace::Level::Debug,
                "parallel.worker",
                || vec![("worker", sper_obs::FieldValue::from(0u64))],
            );
            let busy_start = Instant::now();
            for c in 0..n_chunks {
                let range = (c * chunk).min(len)..((c + 1) * chunk).min(len);
                results.push(f(&mut scratch, range, c));
            }
            let busy = busy_start.elapsed();
            span.record("chunks", n_chunks);
            span.record("busy_us", busy.as_micros() as u64);
            drop(span);
            record_fanout(
                wall_start.elapsed(),
                vec![WorkerStats {
                    worker: 0,
                    busy,
                    chunks: n_chunks,
                }],
            );
            return results;
        }

        let next = AtomicUsize::new(0);
        let mut per_worker: Vec<(Vec<(usize, T)>, WorkerStats)> = Vec::with_capacity(workers);
        crossbeam::thread::scope(|scope| {
            let (next, f, init) = (&next, &f, &init);
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    scope.spawn(move |_| {
                        let mut scratch = init();
                        let mut out: Vec<(usize, T)> = Vec::new();
                        let mut claimed = 0usize;
                        // A per-worker timeline span: closed right after
                        // the steal loop, it puts each worker's busy
                        // window on its own lane in a Chrome-trace view.
                        let mut span = sper_obs::trace::SpanGuard::enter(
                            sper_obs::trace::Level::Debug,
                            "parallel.worker",
                            || vec![("worker", sper_obs::FieldValue::from(w as u64))],
                        );
                        let busy_start = Instant::now();
                        loop {
                            let c = next.fetch_add(1, Ordering::Relaxed);
                            if c >= n_chunks {
                                break;
                            }
                            let range = (c * chunk).min(len)..((c + 1) * chunk).min(len);
                            out.push((c, f(&mut scratch, range, c)));
                            claimed += 1;
                        }
                        let busy = busy_start.elapsed();
                        span.record("chunks", claimed);
                        span.record("busy_us", busy.as_micros() as u64);
                        drop(span);
                        let stats = WorkerStats {
                            worker: w,
                            busy,
                            chunks: claimed,
                        };
                        (out, stats)
                    })
                })
                .collect();
            per_worker.extend(handles.into_iter().map(|h| h.join().unwrap()));
        })
        .expect("work-stealing fan-out panicked");

        // Per-chunk output slots restore chunk order regardless of which
        // worker executed which chunk.
        let mut slots: Vec<Option<T>> = (0..n_chunks).map(|_| None).collect();
        let mut stats = Vec::with_capacity(workers);
        for (results, worker_stats) in per_worker {
            for (c, result) in results {
                debug_assert!(slots[c].is_none(), "chunk {c} claimed twice");
                slots[c] = Some(result);
            }
            stats.push(worker_stats);
        }
        record_fanout(wall_start.elapsed(), stats);
        slots
            .into_iter()
            .map(|s| s.expect("every chunk claimed exactly once"))
            .collect()
    }
}

/// Publishes one fan-out's execution profile to the metrics registry and
/// the [`take_last_fanout_stats`] slot.
fn record_fanout(wall: std::time::Duration, workers: Vec<WorkerStats>) {
    if sper_obs::metrics::enabled() {
        let registry = sper_obs::metrics::global();
        registry
            .gauge("parallel.fanout_workers")
            .set(workers.len() as i64);
        for w in &workers {
            sper_obs::observe!("parallel.worker_busy_us", w.busy.as_micros() as f64);
        }
        let _ = registry;
    }
    *LAST_FANOUT.lock().expect("fan-out stats poisoned") = Some(FanoutStats { wall, workers });
}

/// Chunks per worker the work-stealing plan aims for: enough slack for
/// stealing to even out skewed ranges (one giant block landing in one
/// shard), few enough that per-chunk bookkeeping stays negligible.
pub const STEAL_OVERSUBSCRIPTION: usize = 8;

/// Default minimum items per work-stealing chunk for per-profile sweeps —
/// small enough that a handful of heavy neighborhoods cannot serialize a
/// whole fixed range, large enough that claim overhead stays invisible.
pub const STEAL_MIN_CHUNK: usize = 256;

/// Per-worker execution record of one work-stealing fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index within the fan-out (`0..workers`).
    pub worker: usize,
    /// Time the worker spent inside chunk bodies.
    pub busy: std::time::Duration,
    /// Chunks the worker claimed.
    pub chunks: usize,
}

/// One work-stealing fan-out's execution profile: wall-clock of the whole
/// fan-out plus every worker's busy time — what the bench harnesses turn
/// into per-thread utilization curves.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FanoutStats {
    /// Wall-clock of the fan-out (spawn to last join).
    pub wall: std::time::Duration,
    /// Per-worker busy time and chunk counts, by worker index.
    pub workers: Vec<WorkerStats>,
}

impl FanoutStats {
    /// Per-worker utilization (`busy / wall`), by worker index — 1.0 is a
    /// fully busy worker, values near 0 are join/imbalance overhead.
    pub fn utilization(&self) -> Vec<f64> {
        let wall = self.wall.as_secs_f64();
        self.workers
            .iter()
            .map(|w| {
                if wall > 0.0 {
                    (w.busy.as_secs_f64() / wall).min(1.0)
                } else {
                    0.0
                }
            })
            .collect()
    }
}

/// The most recent [`Parallelism::steal_chunks`] fan-out profile, for
/// bench introspection (last-writer-wins across concurrent fan-outs).
static LAST_FANOUT: std::sync::Mutex<Option<FanoutStats>> = std::sync::Mutex::new(None);

/// Takes the execution profile of the most recent work-stealing fan-out,
/// if any fan-out ran since the last take. The bench harnesses call this
/// right after a timed build to record per-thread utilization; it is
/// diagnostic state only — results never depend on it.
pub fn take_last_fanout_stats() -> Option<FanoutStats> {
    LAST_FANOUT.lock().expect("fan-out stats poisoned").take()
}

impl Default for Parallelism {
    /// Defaults to [`Parallelism::SEQUENTIAL`] — opting *in* to threads is
    /// explicit, so libraries embedding the engine never surprise their
    /// host with a thread pool.
    fn default() -> Self {
        Self::SEQUENTIAL
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.get())
    }
}

impl TryFrom<usize> for Parallelism {
    type Error = ZeroThreads;

    fn try_from(threads: usize) -> Result<Self, ZeroThreads> {
        Self::new(threads)
    }
}

/// Parallel Meta-blocking edge weighting: the sparse-accumulator kernel
/// ([`crate::spacc`]) sharded over contiguous **profile** ranges.
///
/// Each worker runs forward neighborhood sweeps over its range with its
/// own reusable scratch — no cross-shard `seen` set, no per-pair merge
/// intersections — and tags every discovered edge with its least common
/// block (the LeCoBI witness, §5.2.1). A stable counting sort by that tag
/// then restores the block-major first-occurrence order, so the resulting
/// graph is **bit-identical** to [`BlockingGraph::build`], including the
/// internal edge order (not merely set-equal), at every worker count.
///
/// This is the engine behind the progressive methods' parallel weighting:
/// the dominant cost of meta-blocking fans out `threads`-wide while the
/// emission order stays pinned.
///
/// # Errors
///
/// Returns [`ZeroThreads`] when `threads == 0`.
pub fn parallel_blocking_graph(
    blocks: &BlockCollection,
    scheme: WeightingScheme,
    threads: usize,
) -> Result<BlockingGraph, ZeroThreads> {
    // The break-even guard routes small workloads and oversubscribed
    // hosts to the sequential sweep — results are bit-identical either
    // way, so only wall clock is at stake. The gate unit is the
    // comparison volume ‖B‖ (what the sweeps actually distribute), not
    // the profile count: a small dense collection can still carry
    // millions of co-occurrences.
    let par = Parallelism::new(threads)?
        .break_even(blocks.total_comparisons().min(usize::MAX as u64) as usize);
    if blocks.is_empty() {
        return Ok(BlockingGraph::from_edges(blocks.n_profiles(), Vec::new()));
    }
    let index = ProfileIndex::build(blocks);
    let edges = crate::spacc::weighted_edge_list(blocks, &index, scheme, par);
    Ok(BlockingGraph::from_edges(blocks.n_profiles(), edges))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::fig3_profiles;
    use crate::token_blocking::TokenBlocking;
    use sper_model::{Pair, ProfileCollection, ProfileCollectionBuilder};

    fn medium_collection() -> ProfileCollection {
        // Deterministic mid-sized dirty collection with duplicates.
        let mut b = ProfileCollectionBuilder::dirty();
        for i in 0..300u32 {
            let base = i % 120; // thirds are duplicates
            b.add_profile([
                ("name", format!("alpha{} beta{}", base, base % 17)),
                ("city", format!("city{}", base % 9)),
            ]);
        }
        b.build()
    }

    #[test]
    fn parallelism_boundary() {
        assert!(Parallelism::new(0).is_err());
        assert_eq!(Parallelism::new(3).unwrap().get(), 3);
        assert_eq!(Parallelism::default(), Parallelism::SEQUENTIAL);
        assert_eq!(Parallelism::new(8).unwrap().capped(2).get(), 2);
        assert_eq!(Parallelism::new(2).unwrap().capped(0).get(), 1);
        assert_eq!(Parallelism::try_from(5).unwrap().to_string(), "5");
        assert_eq!(
            ZeroThreads.to_string(),
            "parallel execution needs at least one worker thread"
        );
    }

    #[test]
    fn parallel_graph_is_bit_identical_to_sequential() {
        let coll = medium_collection();
        let mut blocks = TokenBlocking::default().build(&coll);
        blocks.sort_by_cardinality();
        let sequential = BlockingGraph::build(&blocks, WeightingScheme::Arcs);
        for threads in [1, 2, 4, 7] {
            let parallel = parallel_blocking_graph(&blocks, WeightingScheme::Arcs, threads)
                .expect("threads > 0");
            // Not merely the same edge *set*: the same edge *sequence* —
            // the internal order every downstream consumer observes.
            let seq_edges: Vec<(Pair, f64)> = sequential.edges().collect();
            let par_edges: Vec<(Pair, f64)> = parallel.edges().collect();
            assert_eq!(par_edges.len(), seq_edges.len(), "threads = {threads}");
            for (a, b) in par_edges.iter().zip(&seq_edges) {
                assert_eq!(a.0, b.0, "edge order diverged at threads = {threads}");
                assert!((a.1 - b.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn parallel_graph_without_cardinality_sort() {
        // LeCoBI sharding must agree with the seen-set dedup in *any*
        // block order, not just the scheduled one.
        let coll = medium_collection();
        let blocks = TokenBlocking::default().build(&coll); // key order
        let sequential = BlockingGraph::build(&blocks, WeightingScheme::Cbs);
        let parallel = parallel_blocking_graph(&blocks, WeightingScheme::Cbs, 4).unwrap();
        let seq_edges: Vec<(Pair, f64)> = sequential.edges().collect();
        let par_edges: Vec<(Pair, f64)> = parallel.edges().collect();
        assert_eq!(seq_edges, par_edges);
    }

    #[test]
    fn empty_collection() {
        let coll = ProfileCollectionBuilder::dirty().build();
        let blocks = TokenBlocking::default().build(&coll);
        assert!(blocks.is_empty());
        let graph = parallel_blocking_graph(&blocks, WeightingScheme::Arcs, 4).unwrap();
        assert_eq!(graph.num_edges(), 0);
    }

    #[test]
    fn zero_threads_is_a_typed_error() {
        let blocks = TokenBlocking::default().build(&fig3_profiles());
        assert_eq!(
            parallel_blocking_graph(&blocks, WeightingScheme::Arcs, 0).unwrap_err(),
            ZeroThreads
        );
    }
}
