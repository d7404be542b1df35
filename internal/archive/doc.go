// Package archive implements the Pattern Archiver and Pattern Base of the
// framework (§3.3, §6, §7.1).
//
// The archiver decides which extracted clusters enter the pattern base
// (selective archiving: sampling and feature predicates, §6.2) and at
// which resolution they are stored (budget- and accuracy-aware resolution
// selection over the multi-resolution SGS hierarchy, §6.1). The pattern
// base organizes the archived summaries under two indices: an R-tree over
// cluster MBRs (locational feature index) and a 4-D grid over the
// non-locational features (volume, status count, average density, average
// connectivity), so matching queries can locate candidates without
// scanning the archive (§7.1).
//
// # Concurrency: snapshot isolation
//
// The base separates the archiver's append path from the analyzer's query
// path. Writers (Put, PutBatch, Remove) mutate only generational
// bookkeeping under a single mutex: appends go to a small unindexed
// delta, removals to a tombstone set, and both fold into a fresh
// immutable generation — entries, FIFO order, R-tree, feature grid —
// once they outgrow an amortized threshold. Readers call Snapshot, which
// pins the current generation plus a private copy of the delta and
// tombstones, and then search entirely without locks: a matching query
// in the refine phase never blocks a shard's Put, and a Put never
// invalidates an iteration in progress.
//
// Consequences callers rely on:
//
//   - Entry values are immutable after Put returns; they are shared by
//     reference across the base and all snapshots.
//   - Shard.Probe and All run their callbacks against a snapshot, never
//     under the base lock, so a callback may call Put or Remove (the
//     running iteration does not see the mutation).
//   - PutBatch archives one window's clusters under one lock
//     acquisition; it is byte-for-byte equivalent to a sequential Put
//     loop (same policy decisions, ids and evictions).
//   - A Snapshot taken once observes a single archive state across any
//     number of searches — the property the matcher's filter-and-refine
//     pipeline needs to stay deterministic.
//
// # The disk tier
//
// With Config.StorePath set, the base becomes two-tiered: beneath the
// in-memory generation sits an internal/segstore directory of immutable
// on-disk segments. Memory pressure (MaxMemBytes) and capacity pressure
// (Capacity) demote the oldest entries — always the oldest, so every
// disk entry predates every memory entry and FIFO order spans the tiers
// — as one segment per demotion batch. Snapshots pin the segment set
// along with the generation, and Snapshot.Shards exposes the tiers as
// disjoint Shards (the memory tier plus one per segment) so the
// matcher's filter phase can probe them in parallel. Shard.Probe is the
// one filter-phase entry point: it applies the range test (MBR overlap
// or the feature box), the tombstone mask, a segment's zone test and the
// caller's exact feature gate in one pass, materializes an Entry only
// for gate survivors, and reports candidates, kept and zone-skipped
// counts from that same pass. Disk-resident
// entries surface with their footer-indexed features only (nil Summary);
// the refine phase loads their cells lazily via Entry.LoadSummary, so a
// query's resident cost is its candidates, not the history.
//
// # The residency contract
//
// With Config.SummaryCacheBytes set, every Entry.LoadSummary of a
// disk-resident entry consults a shared decoded-summary cache
// (internal/sumcache), so a summary decodes once per residency rather
// than once per query. The rules every caller relies on:
//
//   - A *sgs.Summary returned by LoadSummary (or materialized on an
//     Entry by Snapshot.Get) may be retained for any length of time by
//     any caller, cached or not — summaries are immutable after decode
//     and shared by reference, the same contract memory-tier entries
//     have. Nobody may mutate one.
//   - The cache's byte budget is carved out of MaxMemBytes: the memory
//     tier is bounded by MaxMemBytes minus the cache budget, so tier
//     plus cache never exceed the configured bound. The budget is
//     denominated in encoded summary bytes, the same unit the tier
//     accounts in.
//   - Cached decodes are keyed by segment and pin it: a segment (and
//     its mmap mapping) retired by compaction stays open until its last
//     cached decode is invalidated, which happens synchronously at
//     retirement (segstore.Options.OnRetire) — so the pin's lifetime in
//     practice is the residency, not the cache's. Remove invalidates
//     the removed id's decode the same way.
//   - The cache changes when decodes happen, never what they yield:
//     match and subscription results are byte-identical with the cache
//     on, off (SGS_SUMCACHE=off or a zero budget), or pathologically
//     small. Disabling it only changes repeated-query latency.
//
// Demotion batches flush on a background demoter goroutine: the segment
// payload write and fsync (segstore.PrepareFlush) run entirely outside
// the base mutex, so Put/PutBatch and snapshot creation never stall
// behind demotion I/O. A batch's entries leave the memory-tier
// accounting at collection but remain snapshot-visible — via the pending
// queue until the segment commits, via the pinned store view after — so
// every entry is readable in exactly one place at all times. If a flush
// fails, the batch's entries are restored where they came from and the
// error latches (Put fail-stops rather than silently growing past the
// bound). Blocking callers exist only at the edges: DrainDemotions and
// FlushMem wait for the queue; Remove of an id mid-demotion waits for
// its batch; a writer outrunning the disk blocks once the queue hits its
// small bound (backpressure — and note the yielded lock means a
// concurrent writer's PutBatch may interleave at that boundary).
//
// # Persistence
//
// Save/Load write and rebuild the whole base (indices are derived data);
// Appender/LoadAppended stream per-window records to a crash-safe log
// whose damaged tail is detected and discarded on replay. The Appender
// is fail-stop: after any write error it latches the error and refuses
// further appends, so a torn record can never be followed by a
// "successful" one that mis-frames the log. The disk tier persists
// itself: segments and the manifest commit atomically (see
// internal/segstore), FlushMem demotes the memory tier as one final
// segment at shutdown, and reopening a base over the same StorePath
// resumes with the history visible and id assignment continuing past
// everything ever committed to the store.
package archive
