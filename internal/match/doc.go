// Package match implements the Pattern Analyzer (§7.2): execution of
// cluster matching queries (Figure 3) against the pattern base.
//
// The distance metric is the paper's customizable form
//
//	Dist(Ca, Cb) = ps·Dist_location + Σ wi·Dist_nlf_i(Ca, Cb)
//
// with ps ∈ {0,1} selecting position-sensitive matching, Dist_location ∈
// {0,1} indicating MBR overlap, and four weighted non-locational feature
// distances (volume, status count, average density, average connectivity),
// each |x−f| / min(x,f) clamped to [0,1] as in the paper's candidate-search
// example.
//
// # Phased execution
//
// Query execution is filter-and-refine, organized as a three-phase
// pipeline mirroring the extractor's output stage:
//
//  1. Filter — probe every shard of the snapshot (the memory tier and
//     each disk segment) in parallel across Query.Workers goroutines,
//     one archive.Shard.Probe each: MBR overlap under a
//     position-sensitive metric, otherwise the feature box derived from
//     the distance threshold, gated by the exact cluster-level feature
//     distance. Only gate survivors materialize an entry; they merge in
//     id order, so the candidate set is independent of shard layout and
//     scheduling.
//  2. Refine — evaluate the expensive grid-cell-level match for every
//     filter survivor: the best alignment found by an A*-style anytime
//     search
//     (position-insensitive case) or the identity alignment
//     (position-sensitive case). This phase fans out across
//     Query.Workers goroutines; candidates are independent, so each
//     worker writes only its own result slot.
//  3. Order — keep survivors within the threshold, sort by (distance,
//     id), apply the top-k limit (sequential).
//
// Results are byte-identical at every worker count: the parallel phases
// compute the same candidates and the same float per candidate
// regardless of scheduling, and the final total order normalizes
// collection order.
//
// # Concurrency against the base
//
// Run and Any execute against one pinned *archive.Snapshot, so every
// shard probe of a query sees the same point-in-time archive state;
// callers holding a *archive.Base pass b.Snapshot(). The query never
// holds the base's lock, so analysts can hammer the base while shards
// append; see the internal/archive package comment for the isolation
// contract.
package match
