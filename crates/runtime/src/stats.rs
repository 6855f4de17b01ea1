//! Execution statistics.
//!
//! The observable counters behind the paper's performance claims: PP-k
//! block counts (roundtrips, §4.2), grouping memory behavior (§4.2/§5.2
//! — streaming vs sort), async offloads (§5.4), cache effectiveness
//! (§5.5) and failovers taken (§5.6). All counters are atomic; snapshot
//! with [`ExecStats::snapshot`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic execution counters (lives inside the runtime).
#[derive(Debug, Default)]
pub struct ExecStats {
    /// Physical source invocations (table scans, nav calls, services…).
    pub source_calls: AtomicU64,
    /// SQL statements executed (includes PP-k block fetches).
    pub sql_statements: AtomicU64,
    /// PP-k blocks fetched.
    pub ppk_blocks: AtomicU64,
    /// Tuples that flowed through PP-k operators.
    pub ppk_outer_tuples: AtomicU64,
    /// PP-k blocks whose fetch was issued by a prefetch thread (i.e.
    /// overlapped with local-join work rather than fetched on demand).
    pub ppk_prefetched_blocks: AtomicU64,
    /// Nanoseconds the PP-k consumer spent blocked waiting for an
    /// in-flight prefetched block to arrive.
    pub ppk_prefetch_wait_ns: AtomicU64,
    /// FLWOR pipelines whose independent source scans were kicked off
    /// in parallel rather than strictly left-to-right.
    pub parallel_scans: AtomicU64,
    /// Group operator invocations that ran in streaming (pre-clustered)
    /// mode.
    pub streaming_groups: AtomicU64,
    /// Group operator invocations that had to sort first (§4.2's
    /// "worst case").
    pub sorted_groups: AtomicU64,
    /// Peak number of tuples held by any single group/sort operator.
    pub peak_grouped_tuples: AtomicU64,
    /// Expressions evaluated on async threads (§5.4).
    pub async_spawns: AtomicU64,
    /// Timeouts that fired (§5.6).
    pub timeouts_fired: AtomicU64,
    /// Failovers taken (§5.6).
    pub failovers_taken: AtomicU64,
    /// Function-cache hits (§5.5).
    pub cache_hits: AtomicU64,
    /// Function-cache misses.
    pub cache_misses: AtomicU64,
    /// Nanoseconds queries spent waiting for an admission slot.
    pub admission_wait_ns: AtomicU64,
    /// Queries shed by the admission controller (queue full).
    pub queries_shed: AtomicU64,
    /// Deepest the admission wait queue has been.
    pub admission_queue_peak: AtomicU64,
    /// Nanoseconds spent waiting on per-source concurrency gates
    /// (foreground roundtrips and PP-k prefetch threads alike).
    pub permit_wait_ns: AtomicU64,
    /// Peak bytes of budgeted operator memory held by any single query.
    pub peak_memory_bytes: AtomicU64,
    /// Morsels claimed and evaluated by the parallel worker pool
    /// (single-threaded execution leaves this at zero).
    pub morsels_executed: AtomicU64,
    /// Nanoseconds workers spent evaluating morsels, summed across
    /// workers (so it can exceed wall-clock time — that excess *is* the
    /// parallelism).
    pub worker_busy_ns: AtomicU64,
    /// Reads served from a materialized data service's live cache.
    pub matview_hits: AtomicU64,
    /// Materialized entries surgically invalidated by the write path
    /// (they recompute on next read — never on TTL expiry).
    pub matview_invalidations: AtomicU64,
    /// Cached result instances patched in place by the write path.
    pub matview_patches: AtomicU64,
    /// Materialized reads that recomputed (cold or post-invalidation).
    pub matview_recomputes: AtomicU64,
    /// Middleware symmetric hash joins executed (one per hash-join
    /// operator run, not per probe).
    pub hash_joins: AtomicU64,
    /// Rows buffered on the build side of middleware hash/merge joins.
    pub join_build_rows: AtomicU64,
    /// Hash joins the planner ran build-side-swapped (the estimated
    /// smaller input buffered instead of the inner).
    pub join_reorders: AtomicU64,
}

impl ExecStats {
    /// Bump a counter.
    pub fn inc(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Raise a high-water mark.
    pub fn peak(&self, c: &AtomicU64, value: u64) {
        c.fetch_max(value, Ordering::Relaxed);
    }

    /// A plain-value copy of the counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            source_calls: self.source_calls.load(Ordering::Relaxed),
            sql_statements: self.sql_statements.load(Ordering::Relaxed),
            ppk_blocks: self.ppk_blocks.load(Ordering::Relaxed),
            ppk_outer_tuples: self.ppk_outer_tuples.load(Ordering::Relaxed),
            ppk_prefetched_blocks: self.ppk_prefetched_blocks.load(Ordering::Relaxed),
            ppk_prefetch_wait_ns: self.ppk_prefetch_wait_ns.load(Ordering::Relaxed),
            parallel_scans: self.parallel_scans.load(Ordering::Relaxed),
            streaming_groups: self.streaming_groups.load(Ordering::Relaxed),
            sorted_groups: self.sorted_groups.load(Ordering::Relaxed),
            peak_grouped_tuples: self.peak_grouped_tuples.load(Ordering::Relaxed),
            async_spawns: self.async_spawns.load(Ordering::Relaxed),
            timeouts_fired: self.timeouts_fired.load(Ordering::Relaxed),
            failovers_taken: self.failovers_taken.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            admission_wait_ns: self.admission_wait_ns.load(Ordering::Relaxed),
            queries_shed: self.queries_shed.load(Ordering::Relaxed),
            admission_queue_peak: self.admission_queue_peak.load(Ordering::Relaxed),
            permit_wait_ns: self.permit_wait_ns.load(Ordering::Relaxed),
            peak_memory_bytes: self.peak_memory_bytes.load(Ordering::Relaxed),
            vm_ops_executed: 0,
            vm_fallback_subtrees: 0,
            morsels_executed: self.morsels_executed.load(Ordering::Relaxed),
            worker_busy_ns: self.worker_busy_ns.load(Ordering::Relaxed),
            matview_hits: self.matview_hits.load(Ordering::Relaxed),
            matview_invalidations: self.matview_invalidations.load(Ordering::Relaxed),
            matview_patches: self.matview_patches.load(Ordering::Relaxed),
            matview_recomputes: self.matview_recomputes.load(Ordering::Relaxed),
            hash_joins: self.hash_joins.load(Ordering::Relaxed),
            join_build_rows: self.join_build_rows.load(Ordering::Relaxed),
            join_reorders: self.join_reorders.load(Ordering::Relaxed),
        }
    }
}

/// Plain-value statistics snapshot.
///
/// `#[non_exhaustive]`: counters are added in most PRs, and each
/// addition must not be a breaking change for code that constructs or
/// exhaustively matches snapshots. Read fields directly; construct only
/// via [`ExecStats::snapshot`] or [`Default`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)]
#[non_exhaustive]
pub struct StatsSnapshot {
    pub source_calls: u64,
    pub sql_statements: u64,
    pub ppk_blocks: u64,
    pub ppk_outer_tuples: u64,
    pub ppk_prefetched_blocks: u64,
    pub ppk_prefetch_wait_ns: u64,
    pub parallel_scans: u64,
    pub streaming_groups: u64,
    pub sorted_groups: u64,
    pub peak_grouped_tuples: u64,
    pub async_spawns: u64,
    pub timeouts_fired: u64,
    pub failovers_taken: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub admission_wait_ns: u64,
    pub queries_shed: u64,
    pub admission_queue_peak: u64,
    pub permit_wait_ns: u64,
    pub peak_memory_bytes: u64,
    /// Always 0. Counted bytecode ops of an expression VM that the
    /// runtime no longer has (the plan interpreter is the only scalar
    /// evaluator); kept so readers of the field still compile.
    pub vm_ops_executed: u64,
    /// Always 0. Counted subtrees that VM's lowering declined; kept so
    /// readers of the field still compile.
    pub vm_fallback_subtrees: u64,
    pub morsels_executed: u64,
    pub worker_busy_ns: u64,
    pub matview_hits: u64,
    pub matview_invalidations: u64,
    pub matview_patches: u64,
    pub matview_recomputes: u64,
    pub hash_joins: u64,
    pub join_build_rows: u64,
    pub join_reorders: u64,
}
