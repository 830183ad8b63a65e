// Package c2knn is a Go implementation of Cluster-and-Conquer (C²), the
// KNN-graph construction algorithm of Giakkoupis, Kermarrec, Ruas and
// Taïani ("Cluster-and-Conquer: When Randomness Meets Graph Locality",
// ICDE 2021), together with everything its evaluation depends on: the
// Hyrec, NNDescent and LSH baselines, GoldFinger profile fingerprints,
// the FastRandomHash clustering scheme, calibrated synthetic dataset
// generators, a collaborative-filtering recommender, and a benchmark
// harness that regenerates every table and figure of the paper.
//
// # Quick start
//
//	d, _ := c2knn.Generate("ml1M", 0.1) // 10%-scale MovieLens1M lookalike
//	sim, _ := c2knn.NewGoldFinger(d, 1024)
//	g, stats := c2knn.BuildC2(d, sim, c2knn.BuildOptions{})
//	fmt.Println(stats.Clusters, "clusters,", g.Neighbors(0))
//
// # Cluster-local similarity kernels
//
// The hot path of every local solver runs on gathered, zero-dispatch
// similarity kernels rather than the Similarity interface. A provider
// that implements Localizer (GoldFinger, exact Jaccard, Cosine all do)
// copies a cluster's data once into a worker's reusable LocalSim
// scratch — for GoldFinger, a contiguous signature block plus
// per-member popcounts so each Jaccard estimate is a single
// AND-popcount — after which every pair evaluation is a direct call on
// local indices. Providers without a Localizer transparently fall back
// to per-pair dispatch; both paths produce bit-identical graphs. See
// EXPERIMENTS.md for measured speedups.
//
// # Blocked row kernels and threshold-gated solvers
//
// On top of the gathered kernels, the solvers score row-batched: a
// member's similarities against a whole block of candidates are
// computed in one kernel call (SimRow for contiguous blocks, SimBatch
// for candidate lists; GoldFinger also serves global-id rows straight
// from its signature slab through the RowProvider fast path, which the
// exact brute-force baseline uses). Batching amortizes dispatch,
// keeps the inner AND-popcount loop marching through contiguous
// memory, and lets per-pair float divides pipeline instead of
// serializing against consumption.
//
// Scored rows enter the bounded neighbor lists through a threshold
// gate: a candidate that cannot beat the destination list's current
// minimum (Min/WouldAccept, mirrored into dense per-worker scratch
// inside the sweeps) is dismissed with one comparison of two
// cache-resident scratch reads — no heap access at all — which is the
// fate of the vast majority of candidates once lists warm up. The
// brute-force sweep additionally walks vertical panels so the largest
// clusters' gathered slabs stay cache-resident, offers each candidate
// id to a list exactly once (skipping the duplicate scan entirely),
// and batches the exact baseline's forward edges under a single
// stripe-lock acquisition per row. The blocked paths are bit-for-bit
// graph-identical to their pair-at-a-time references, which are kept
// (LocalIntoScalar) as frozen baselines for the equivalence tests and
// the BenchmarkLocalSolve regression family; EXPERIMENTS.md records
// the measured wins and an honest account of where the remaining time
// goes.
//
// Inside BuildC2 the brute-force sweep's gates do not start empty: each
// member's gate starts at the member's current global k-th similarity,
// which step 3's merge would reject anyway. Every user's final
// similarities are unchanged by this; only ids among equal
// similarities may differ.
//
// # Vectorized count kernels
//
// The AND-popcount at the bottom of every bit-signature row is served
// by a per-architecture count-kernel layer (internal/similarity
// kernel*.go/.s): hand-written assembly on amd64 in two arms — avx2
// (VPAND plus the VPSHUFB nibble-popcount, with the paper-default
// 1024-bit width specialized and rows processed two at a time) and
// avx512 (VPOPCNTQ on 512-bit vectors, eight 1024-bit rows reduced
// together, with the Jaccard divide done in-register) — and NEON on
// arm64 (VCNT byte counts with an in-register add tree), with pure-Go
// specializations everywhere else. Every arm computes exact integer
// intersection counts and divides exact integers in IEEE-754 float64
// (in Go, or with VDIVPD under avx512: both correctly rounded, so the
// bits agree), so every kernel produces byte-identical similarities —
// equivalence and fuzz tests compare raw float bits across kernels.
//
// Selection is automatic at startup (a dependency-free CPUID/XGETBV
// probe on amd64 picks avx512 when the CPU has AVX512F, AVX512VL and
// AVX512_VPOPCNTDQ, avx2 otherwise; AdvSIMD is baseline on arm64) and
// overridable with C2_KERNEL: "scalar" forces the pure-Go path on any
// machine — useful for bisecting, benchmarking the scalar floor, or
// sidestepping a suspect microarchitecture — and "avx2", "avx512" or
// "neon" selects that arm when the CPU supports it, so an AVX-512 host
// can still test the avx2 arm. The active kernel's name is reported by
// similarity.KernelName, surfaced in the daemon's /statsz (sim_kernel)
// and printed by `c2bench -exp solve`. New assembly widths
// follow the same pattern: exact integer counts, one contiguous run per
// call, the remainder in Go, and a byte-identity test of every arm
// against the scalar reference before dispatch is wired up.
//
// # Pipelined clustering
//
// BuildC2 streams clusters into the solver pool as the t clustering
// configurations discover them, instead of materializing all t×b
// clusters before the first worker starts: each configuration hashes
// independently and pushes finalized clusters into a concurrent
// size-prioritized queue drained by the workers, so clustering and
// solving overlap (the assumption of the paper's §II-F cost model).
// C2Stats reports the per-phase wall-clock times and the recovered
// overlap; BuildOptions.DisablePipeline restores the serial barrier.
//
// # Frozen graphs and the serving layer
//
// Building and serving use different representations. The mutable
// Graph — bounded per-user min-heaps — is what the solvers insert
// into; Freeze flattens it into a FrozenGraph, a CSR triple (flat
// neighbor ids, flat float32 similarities, per-user offsets) with each
// adjacency pre-sorted by decreasing similarity. FrozenGraph.Neighbors
// returns slice views with zero allocations, is immutable and
// therefore lock-free under any number of concurrent readers, and is
// orders of magnitude faster than Graph.Neighbors (which allocates and
// sorts per call).
//
// Index bundles a frozen graph with its training dataset (and
// optionally the GoldFinger fingerprints) into a concurrency-safe
// serving object: Neighbors, TopK and Recommend may be called from any
// number of goroutines, with recommendation scratch pooled per caller
// so steady-state queries touch no maps and allocate only the result.
//
//	g, _ := c2knn.BuildC2(d, sim, c2knn.BuildOptions{})
//	ix, _ := c2knn.NewIndex(g, d, sim)
//	ix.Save("index.c2")              // build once ...
//	ix, _ = c2knn.LoadIndex("index.c2") // ... load in milliseconds, many times
//	items := ix.Recommend(42, 30)
//
// # Snapshot format
//
// Save/LoadIndex (and c2build -snap / c2recommend -graph) use a
// versioned, checksummed binary container. Layout, all little-endian:
// an 8-byte magic "C2SNAP\r\n", a uint32 format version (currently 2),
// and a uint32 section count, followed by sections of {uint32 type,
// uint64 payload length, zero padding to the next 64-byte file offset,
// payload, uint32 CRC-32C of the payload}. Section types: 1 = frozen
// graph (k, user count, edge count, CSR offsets, flat neighbor ids,
// flat float32 similarity bits), 2 = dataset (name, item universe,
// per-user profile lengths, flat item ids), 3 = GoldFinger signatures
// (width in bits, user count, per-user popcounts, flat uint64 words).
// Every array slab inside a payload sits at a 64-byte-aligned file
// offset. Decoding validates framing, checksums, structural invariants
// and cross-section user counts, and on any failure returns an error
// and no snapshot — truncated files, flipped bytes, and version skew
// never panic and never yield a partially populated index. Version 2 is
// the only format read: any other version, the retired packed version 1
// included, fails with ErrSnapshotVersion on every load path, and the
// remedy is a rebuild with c2build -snap. See internal/persist for the
// full specification.
//
// Because version-2 slabs are 64-byte-aligned, LoadIndex can serve an
// index directly from a read-only memory mapping of the file: no
// decode copy, and every replica on a host sharing one physical copy
// of the data through the page cache. What a mapped load still pays
// for is verification — a CRC-32C over every payload byte and a bounds
// check of every neighbor id and item — and it does that in one pass
// on all cores: each worker checksums a 256 KiB chunk (with a
// VPCLMULQDQ fold kernel under the avx512 arm on CPUs that have it,
// hash/crc32 otherwise) and, where the chunk holds ids or items, takes
// their maximum while the chunk is still in cache; the chunk checksums
// combine into each section's CRC, and nothing is decoded until every
// CRC matches. The mode is selected
// by the C2_LOAD environment variable or LoadIndexMode ("auto" maps
// when the file and platform allow and copy-decodes otherwise; "copy"
// and "mmap" force a path). Mapped indexes report Mapped() and follow the
// Retain/Release/Close lifetime protocol during hot swaps; built or
// copy-loaded indexes are exempt (Retain always succeeds, Close is a
// no-op). One operational rule follows: never modify a snapshot file
// in place while any process may be serving it — replace it atomically
// (write to a temp file, then rename, exactly what Index.Save does),
// which leaves live mappings on the old inode intact.
//
// # Serving over HTTP
//
// cmd/c2serve (built on internal/server) turns a snapshot into a
// long-running query daemon:
//
//	c2build -in data.txt -snap index.c2
//	c2serve -snap index.c2 -addr :8080
//
// Query endpoints come in two forms each: a single-user GET —
// /v1/neighbors?user=U&k=K, /v1/topk?user=U&k=K and
// /v1/recommend?user=U&n=N — and a batched POST taking
// {"users":[...],"k":K} (or "n" for recommend) and returning
// {"results":[...]} in request order. k and n are capped at 1000; a
// larger count answers 400. Batches are served by
// Index.TopKBatch/Index.RecommendBatch, which reuse one pooled scoring
// scratch across the whole batch. Out-of-range user ids yield empty
// results, never errors: a stale client must not be able to 500 a
// serving process.
//
// Inside the daemon, a bounded worker pool caps concurrent index work,
// and a 16-shard LRU, capped at 64 MiB of payload, caches marshaled
// response bodies keyed on (endpoint, snapshot epoch, params, users) —
// a cache hit writes bytes straight to the wire and allocates nothing.
// /healthz reports liveness plus the current snapshot epoch; /statsz
// reports qps (sliding-window and lifetime), p50/p99 latency,
// per-endpoint counts and the cache hit rate.
//
// Snapshots hot-swap with zero downtime: SIGHUP or POST /admin/reload
// re-reads the snapshot file and atomically replaces the served index.
// In-flight requests finish on the index they started with, later
// requests see the new one, and the epoch in every cache key retires
// stale cached results wholesale. A failed reload (missing, corrupt,
// or version-skewed file) leaves the old index serving; LoadIndex
// failures are classified by the exported sentinels — errors.Is with
// ErrSnapshotVersion means "rebuild with this binary's c2build", with
// ErrSnapshotCorrupt "restore the file" — so the daemon logs the right
// remedy, and /statsz carries the kind and message of the last failed
// reload. SIGINT/SIGTERM drain in-flight requests before exit.
//
// # Operational hardening
//
// Every request into the daemon passes through a composable middleware
// stack (internal/server/middleware): request-ID tagging
// (X-Request-ID, generated or propagated), optional access logging,
// and panic recovery globally; then, on the query endpoints only,
// status accounting, admission control, a body-size cap, and a
// per-request deadline. A handler panic becomes a logged 500 — request
// ID and stack included — and the process keeps serving. Admission
// control sheds load past -inflight concurrent requests with 429 and
// Retry-After: 1 instead of queueing without bound; bodies past
// -max-body answer 413; batches past -batch answer 400; work that
// outlives -timeout answers 503. Health, stats and metrics probes bypass
// shedding and deadlines so observability survives overload.
//
// Metrics are exposed in Prometheus text format on /metrics (and on
// the opt-in -pprof admin listener, alongside /debug/pprof) with no
// dependency beyond the standard library: c2_responses_total{code},
// c2_panics_total, c2_shed_total, c2_deadline_expired_total,
// c2_body_too_large_total, c2_inflight_requests, cache and snapshot
// counters, and a c2_request_duration_seconds histogram. cmd/soak is
// the fault-injection soak harness that drives all of this — injected
// panics, oversized bodies, stampedes, slow-loris connections, corrupt
// snapshot reloads — under well-formed load and reconciles /metrics
// against its own accounting; see EXPERIMENTS.md ("Operational
// hardening") for the invariants CI gates.
//
// # Sharded serving
//
// One build can be served by many processes. c2build -shards N
// additionally partitions the snapshot into N per-shard snapshots
// (<snap>.shard0 … <snap>.shardN-1) plus a manifest (<snap>.manifest),
// and c2serve runs in one of two roles: -role shard serves one
// per-shard snapshot exactly like an unsharded daemon, and -role
// router is a stateless scatter-gather tier that fans the same /v1
// wire protocol out over the shard daemons.
//
// Users map to shards through a stable hash: ShardKey(u, buckets)
// places user u in one of buckets (default DefaultShardBuckets = 4096)
// contiguously tiled by per-shard bucket ranges. A shard's snapshot
// keeps the full dataset and fingerprints (scoring a user's neighbors
// needs their profiles) but masks the graph — the artifact that grows
// with the corpus — down to its owned users' rows, preserving the
// global user-id space so any shard can decode any request.
//
// # Shard manifest format
//
// The manifest is a versioned, checksummed binary container, little-
// endian throughout: an 8-byte magic "C2MANI\r\n", a uint32 format
// version, a uint64 payload length, the payload, and a uint32 CRC-32C
// of the payload. The payload holds the bucket count, a common build
// epoch, and one entry per shard: {shard id, bucket range lo..hi
// (inclusive), snapshot path (relative to the manifest), whole-file
// CRC-32C of that snapshot, epoch, owned-user count}. Decoding
// validates framing and checksum; Manifest.Validate additionally
// enforces dense shard ids, a disjoint full cover of [1, buckets], and
// a uniform epoch — a router refuses a table that routes any bucket
// nowhere, twice, or across builds. See internal/persist.
//
// # Scatter-gather routing
//
// The router (internal/router) shares the shard daemon's HTTP front:
// its limits and defaults, hardening chain, request validation, error
// bodies, wire types and shared /metrics series all come from
// internal/server, so a request the router refuses itself gets the
// same status and bytes a shard would answer. It proxies single-user
// GETs verbatim from the owning shard — status and body bytes
// untouched — and splits batched POSTs into per-shard sub-batches,
// reassembling the responses in request order from the shards' own
// marshaled bytes, so a routed response is byte-identical to what one
// unsharded daemon would have produced. Per-try upstream deadlines,
// failover to sibling replicas, and hedged retries (a second replica
// is tried after -hedge) keep tail latency bounded; when a shard is
// entirely unreachable the router degrades instead of failing —
// affected users get empty results and the response carries an
// X-C2-Partial header counting them. A health loop polls replica
// /healthz endpoints, prefers healthy replicas in rotation, and
// surfaces a replica stuck on an old snapshot epoch after a hot swap
// ("epoch skew") through the same /statsz reload-failure plumbing the
// shard tier uses. Its /metrics carries the shard tier's request,
// hardening and latency series plus router-specific ones (c2_router_*).
// See EXPERIMENTS.md ("Sharded serving") for the measured scaling and
// the CI gates.
//
// # Incremental maintenance
//
// A frozen index can absorb new users and profile updates without a
// rebuild. Index.EnableUpserts attaches a delta overlay
// (internal/delta) on top of the frozen base: Index.Upsert
// fingerprints the incoming profile with the seed of the base
// fingerprints, places it with the builder's own FastRandomHash split
// step into the very clusters a rebuild would put it in, and re-solves
// only the touched clusters with the blocked similarity kernels,
// patching reverse edges under strict improvement. Placement reads how
// the snapshot was built: BuildC2 records its B, T, N and seed on the
// graph, and a C² snapshot stores them with the fingerprint seed in a
// clustering section (internal/persist), which Save, c2build -snap,
// every c2build -shards shard and every compaction write. Nothing is
// restated at serving time, so placement cannot drift from the build.
// The same writes store the family's coarse bucket table (which users
// each configuration's buckets hold) in a section after the record, so
// attaching the overlay copies and checks that table instead of
// hashing every profile: 0.3 ms instead of 0.8 ms on an ml1M lookalike
// (delta.Attach). A snapshot from before the table attaches by
// computing it; /statsz's delta block says which ("buckets") and how
// long attaching took ("attach_ms").
// A snapshot without the record — from a baseline (-algo hyrec,
// nndescent, lsh, bruteforce) or written before the record existed —
// serves reads but refuses upserts: rebuild it with c2build -algo c2
// to accept them. Reads merge base + delta
// through an immutable copy-on-write view swapped by atomic pointer —
// lock-free, allocation-free, and epoch-consistent with concurrent
// writers; a read-only index answers through the same view type with
// no patches. Delta user ids extend the base contiguously and stay
// stable across compactions.
//
// The daemon exposes the write path as POST /v1/upsert (single or
// batch) behind the -upserts flag; read replicas and routers run
// -read-only and refuse writes with 403 {"kind":"read-only"} — the
// intended topology is exactly one writable daemon per snapshot.
// A background compactor (-compact-every, plus depth/age triggers and
// POST /admin/compact) folds delta + base into a fresh v2 snapshot
// via internal/persist and hot-swaps it through the usual epoch
// machinery; upserts racing the fold survive, with the absorbed
// prefix dropped by sequence marker. Delta depth, age and compaction
// counts surface in /statsz and /metrics, /statsz's delta block names
// the placement family (b, t, n, seed), and the router flags
// same-epoch replicas whose delta cursors disagree ("delta skew").
// See EXPERIMENTS.md ("Incremental maintenance") for measured
// latencies and the recall-parity gate.
//
// Durability: an acknowledged upsert lives only in the overlay's
// memory until a compaction folds it into a snapshot on disk. There is
// no write-ahead log, so a SIGKILL, an OOM kill or a power loss drops
// every upsert acknowledged since the last compaction. A graceful
// SIGTERM does not compact either; POST /admin/compact before a planned
// stop keeps the acknowledged writes.
//
// The package root re-exports the stable surface of the internal
// packages; see the examples directory for complete programs and
// cmd/c2bench for the experiment harness.
package c2knn
