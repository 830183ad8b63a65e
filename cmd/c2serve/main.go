// Command c2serve is the long-running HTTP serving daemon. It runs in
// one of two roles behind the same binary and wire protocol:
//
//   - -role shard (the default): load a snapshot written by c2build
//     -snap into a c2knn.Index and answer queries from it — the query
//     side of the build-once/serve-many split. With a per-shard
//     snapshot (c2build -shards) the process serves one shard of a
//     partitioned corpus. -load picks the snapshot materialization:
//     auto (the default) memory-maps the snapshot so cold start is a
//     page-cache hit and co-hosted replicas share one physical copy,
//     mmap requires that path, copy forces the portable decode-to-heap.
//   - -role router: stateless scatter-gather tier. Loads a shard
//     manifest (c2build -shards writes it next to the snapshot), wires
//     the bucket-range table to replica addresses from -shard-addrs,
//     and fans queries out to the shard daemons: single requests are
//     proxied from the owning shard, batches are split and re-stitched
//     byte-identically, failures fail over between replicas (hedged
//     after -hedge), and a fully unreachable shard degrades to empty
//     results with an X-C2-Partial header instead of failing requests.
//
// Usage:
//
//	c2build -in data.txt -snap index.c2
//	c2serve -snap index.c2 -addr :8080
//
//	c2build -in data.txt -snap index.c2 -shards 2
//	c2serve -role shard -snap index.c2.shard0 -addr :8081
//	c2serve -role shard -snap index.c2.shard1 -addr :8082
//	c2serve -role router -manifest index.c2.manifest \
//	        -shard-addrs '0=http://localhost:8081,1=http://localhost:8082' -addr :8080
//
// Endpoints:
//
//	GET  /v1/neighbors?user=U[&k=K]     one user's neighbor ids + sims
//	GET  /v1/topk?user=U[&k=K]          one user's top-k as (id, sim) pairs
//	GET  /v1/recommend?user=U[&n=N]     one user's top-n recommended items
//	POST /v1/{neighbors,topk,recommend} batched: {"users":[...],"k":K|"n":N}
//	GET  /healthz                       liveness + current snapshot epoch
//	GET  /statsz                        qps, p50/p99, cache hit rate, counters
//	GET  /metrics                       Prometheus text exposition
//	POST /admin/reload                  hot-swap to the snapshot on disk
//	POST /v1/upsert                     absorb profiles without a rebuild (-upserts)
//	POST /admin/compact                 fold the delta into -snap and hot-swap
//
// Freshness (-upserts): the daemon attaches a delta overlay to the
// loaded index and absorbs profile writes in sub-second time —
// {"user":-1,"items":[...]} inserts a new user, an existing id merges
// items, {"upserts":[...]} batches. Queries serve base + delta merged
// views immediately. The background compactor (-compact-every,
// -compact-depth, -compact-age) folds the delta back into -snap and
// hot-swaps the result without dropping writes that race in. Upserts
// are placed with the FastRandomHash family the snapshot records, so
// -upserts needs a snapshot from c2build -algo c2. Exactly
// one daemon per snapshot may be writable; read replicas run
// -read-only and answer writes with 403 and a typed body, as does the
// router role (a router that proxied writes would split the write
// stream across replicas — the delta-skew probe below catches exactly
// that operator error). -snap and -upserts belong to the shard role;
// the router role refuses them with exit status 2.
//
// Hardening, the same in both roles (one server.Front built from the
// flags; see internal/server/middleware): every request gets an
// X-Request-ID; handler panics become logged 500s instead of dropped
// connections; -timeout bounds each query (503 beyond); -max-body caps
// request bodies (413 beyond); -inflight sheds stampedes with 429 +
// Retry-After instead of queueing unboundedly; -access-log writes one
// line per request. -pprof starts a separate admin listener with
// /debug/pprof and /metrics — bind it to localhost, it is
// authentication-free.
//
// Lifecycle: SIGHUP re-reads -snap and atomically swaps the new index
// in with zero downtime (equivalent to POST /admin/reload; the router
// role is stateless and ignores it); SIGINT and SIGTERM stop accepting
// connections and drain in-flight requests before exiting. A
// version-skewed snapshot is reported as "rebuild needed" and a damaged
// one as "corrupt" — the daemon keeps serving the old index in both
// cases, and /statsz carries the failure kind. A router surfaces a
// shard replica stuck on an old epoch after a hot swap through the same
// /statsz plumbing (kind "epoch-skew"), and same-epoch replicas whose
// upsert cursors diverge — writes landing on more than one replica —
// as kind "delta-skew".
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"c2knn"
	"c2knn/internal/persist"
	"c2knn/internal/router"
	"c2knn/internal/server"
)

func main() {
	var (
		snap    = flag.String("snap", "", "snapshot file written by c2build -snap (required)")
		load    = flag.String("load", "auto", "snapshot load mode: auto (mmap when possible), mmap (require zero-copy), copy (decode to heap)")
		addr    = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		pool    = flag.Int("pool", 0, "max concurrent queries (0 = 4x GOMAXPROCS)")
		cache   = flag.Int("cache", 4096, "result cache entries, held in 16 shards under a 64 MiB payload cap (negative disables caching)")
		batch   = flag.Int("batch", 1024, "max users per batched request (400 beyond)")
		drainTO = flag.Duration("drain", 10*time.Second, "shutdown drain timeout")

		timeout   = flag.Duration("timeout", 10*time.Second, "per-request deadline on query endpoints, 503 beyond (0 disables)")
		maxBody   = flag.Int64("max-body", 1<<20, "request body cap in bytes, 413 beyond")
		inflight  = flag.Int("inflight", 0, "max in-flight requests before shedding with 429 (0 = 64x -pool on a shard, 256x GOMAXPROCS on a router; negative disables)")
		accessLog = flag.Bool("access-log", false, "log one line per completed request")
		pprofAddr = flag.String("pprof", "", "serve /debug/pprof and /metrics on this extra admin address (empty disables; keep it on localhost)")
		faults    = flag.Bool("fault-injection", false, "mount /admin/panic and /admin/delay (soak testing only; never in production)")
		readTO    = flag.Duration("read-timeout", 30*time.Second, "socket read timeout — bounds slow-loris request bodies")

		upserts      = flag.Bool("upserts", false, "enable the write path: POST /v1/upsert absorbs profiles into a delta overlay, /admin/compact folds it back into -snap")
		readOnly     = flag.Bool("read-only", false, "refuse /v1/upsert and /admin/compact with 403 (read replicas; routers always refuse)")
		compactEvery = flag.Duration("compact-every", 5*time.Second, "background compactor check period (0 disables the background loop)")
		compactDepth = flag.Int("compact-depth", 1024, "compact once this many upserts are pending (0 disables the depth trigger)")
		compactAge   = flag.Duration("compact-age", 30*time.Second, "compact once the oldest pending upsert is this old (0 disables the age trigger)")

		role       = flag.String("role", "shard", "serving role: shard (one snapshot) or router (scatter-gather over shard daemons)")
		manifest   = flag.String("manifest", "", "router: shard manifest written by c2build -shards (required)")
		shardAddrs = flag.String("shard-addrs", "", "router: replica table 'id=url|url,id=url' mapping manifest shard ids to base URLs (required)")
		hedge      = flag.Duration("hedge", 500*time.Millisecond, "router: hedge a slow upstream try to another replica after this long (negative disables)")
		upstreamTO = flag.Duration("upstream-timeout", 2*time.Second, "router: per-upstream-try deadline")
		healthTick = flag.Duration("health-every", 2*time.Second, "router: replica health poll period")
	)
	flag.Parse()
	log.SetFlags(log.LstdFlags | log.Lmicroseconds)
	log.SetPrefix("c2serve: ")

	if err := checkFlags(*role, *snap, *manifest, *shardAddrs, *upserts); err != nil {
		fmt.Fprintln(os.Stderr, "c2serve:", err)
		os.Exit(2)
	}

	// One front for both roles. Flag semantics: a 0 timeout means "off"
	// for the user, but Front treats 0 as "use the default" — translate.
	front := server.Front{
		MaxBatch:       *batch,
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *timeout,
		MaxInFlight:    *inflight,
		Logf:           log.Printf,
	}
	if *timeout == 0 {
		front.RequestTimeout = -1
	}
	if *accessLog {
		front.AccessLogf = log.Printf
	}
	serve := func(handler, metrics http.Handler) {
		if *pprofAddr != "" {
			serveAdmin(*pprofAddr, metrics)
		}
		listenAndServe(handler, *addr, *drainTO, *readTO)
	}

	if *role == "router" {
		rt := newRouter(router.Config{
			Front: front, UpstreamTimeout: *upstreamTO, HedgeAfter: *hedge, HealthEvery: *healthTick,
		}, *manifest, *shardAddrs)
		defer rt.Close()
		serve(rt.Handler(), rt.MetricsHandler())
		return
	}

	loadMode, err := c2knn.ParseLoadMode(*load)
	if err != nil {
		fmt.Fprintf(os.Stderr, "c2serve: %v\n", err)
		os.Exit(2)
	}

	start := time.Now()
	ix, err := c2knn.LoadIndexMode(*snap, loadMode)
	if err != nil {
		switch {
		case errors.Is(err, c2knn.ErrSnapshotVersion):
			log.Printf("snapshot %s was written by an incompatible format version; rebuild it with this binary's c2build -snap", *snap)
		case errors.Is(err, c2knn.ErrSnapshotCorrupt):
			log.Printf("snapshot %s is corrupt; restore it from a good copy or rebuild", *snap)
		}
		log.Fatalf("load: %v", err)
	}
	via := "copy decode"
	if ix.Mapped() {
		via = "mmap (zero-copy)"
	}
	log.Printf("loaded %s in %v via %s: %d users, k=%d", *snap, time.Since(start).Round(time.Millisecond), via, ix.NumUsers(), ix.K())

	cfg := server.Config{
		Front:          front,
		SnapshotPath:   *snap,
		LoadMode:       loadMode,
		MaxConcurrent:  *pool,
		CacheEntries:   *cache,
		FaultInjection: *faults,
		Upserts:        *upserts,
		ReadOnly:       *readOnly,
	}
	if *faults {
		log.Printf("fault injection ENABLED: /admin/panic and /admin/delay are live")
	}
	srv, err := server.New(ix, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if *upserts {
		log.Printf("upserts enabled: /v1/upsert and /admin/compact are live")
		if *compactEvery > 0 && (*compactDepth > 0 || *compactAge > 0) {
			stop := srv.StartCompactor(*compactEvery, *compactDepth, *compactAge)
			defer stop()
			log.Printf("background compactor: every %v, depth ≥ %d or age ≥ %v", *compactEvery, *compactDepth, *compactAge)
		}
	}

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if err := srv.Reload(); err != nil {
				log.Printf("SIGHUP reload failed (%s): %v", server.ReloadErrorKind(err), err)
				continue
			}
			cur := srv.Index()
			log.Printf("SIGHUP reload ok: epoch %d, %d users, k=%d", srv.Epoch(), cur.NumUsers(), cur.K())
		}
	}()

	serve(srv.Handler(), srv.MetricsHandler())
}

// checkFlags rejects flag combinations c2serve cannot honour, before
// any work starts.
func checkFlags(role, snap, manifest, shardAddrs string, upserts bool) error {
	switch role {
	case "shard":
		if snap == "" {
			return errors.New("-snap is required")
		}
	case "router":
		switch {
		case manifest == "" || shardAddrs == "":
			return errors.New("-role router requires -manifest and -shard-addrs")
		case snap != "":
			return errors.New("-snap does not apply to -role router: shard daemons load the snapshots, the router reads -manifest")
		case upserts:
			return errors.New("-upserts does not apply to -role router: the router refuses writes; enable them on the shard's writable daemon")
		}
	default:
		return fmt.Errorf("unknown -role %q (want shard or router)", role)
	}
	return nil
}

// adminMux routes the admin listener: pprof plus the role's /metrics.
func adminMux(metrics http.Handler) *http.ServeMux {
	admin := http.NewServeMux()
	admin.HandleFunc("/debug/pprof/", pprof.Index)
	admin.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	admin.HandleFunc("/debug/pprof/profile", pprof.Profile)
	admin.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	admin.HandleFunc("/debug/pprof/trace", pprof.Trace)
	admin.Handle("/metrics", metrics)
	return admin
}

// serveAdmin starts the admin listener on addr in the background. It is
// authentication-free: bind it to localhost.
func serveAdmin(addr string, metrics http.Handler) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("admin listen: %v", err)
	}
	log.Printf("admin (pprof + metrics) on %s", ln.Addr())
	go func() {
		adminSrv := &http.Server{Handler: adminMux(metrics), ReadHeaderTimeout: 10 * time.Second}
		if err := adminSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("admin serve: %v", err)
		}
	}()
}

// listenAndServe runs handler on addr with the daemon's socket
// discipline until SIGINT/SIGTERM drains it. Both roles share it, so
// operational behavior — including the parseable "listening on" line
// the e2e harness waits for — is identical across the tier.
func listenAndServe(handler http.Handler, addr string, drainTO, readTO time.Duration) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	// The actual address (resolves port 0); the e2e harness parses this
	// line, so keep its shape stable.
	fmt.Printf("c2serve: listening on %s\n", ln.Addr())
	os.Stdout.Sync()

	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
		// ReadTimeout also covers the body, so a slow-loris client that
		// sends headers promptly but trickles its POST body is cut off
		// here rather than holding a connection open indefinitely.
		ReadTimeout: readTO,
		// Bound the whole response write: the worker pool releases its
		// slot before the body is written, but a slow-reading client must
		// still not be able to hold a connection (and its goroutine) open
		// forever.
		WriteTimeout: 2 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- httpSrv.Serve(ln) }()

	select {
	case sig := <-stop:
		log.Printf("%v: draining (timeout %v)", sig, drainTO)
		ctx, cancel := context.WithTimeout(context.Background(), drainTO)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("drain incomplete: %v", err)
			os.Exit(1)
		}
		log.Printf("drained cleanly")
	case err := <-done:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("serve: %v", err)
		}
	}
}

// newRouter completes cfg with the bucket-range table of the manifest
// at manifestPath and the replica addresses of shardAddrs, and starts
// the router.
func newRouter(cfg router.Config, manifestPath, shardAddrs string) *router.Router {
	m, err := persist.ReadManifestFile(manifestPath)
	if err != nil {
		log.Fatalf("manifest: %v", err)
	}
	table, err := parseShardAddrs(shardAddrs)
	if err != nil {
		log.Fatalf("shard-addrs: %v", err)
	}
	cfg.Buckets = m.Buckets
	for _, sh := range m.Shards {
		replicas, ok := table[sh.ID]
		if !ok {
			log.Fatalf("shard-addrs: manifest shard %d has no replica addresses", sh.ID)
		}
		delete(table, sh.ID)
		cfg.Shards = append(cfg.Shards, router.ShardSpec{ID: sh.ID, Range: sh.Range, Replicas: replicas})
	}
	for id := range table {
		log.Fatalf("shard-addrs: shard %d is not in the manifest", id)
	}
	rt, err := router.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("router over %d shards (%d buckets, manifest epoch %d)", len(cfg.Shards), m.Buckets, m.Epoch)
	return rt
}

// parseShardAddrs parses 'id=url|url,id=url' into a replica table.
func parseShardAddrs(s string) (map[int][]string, error) {
	table := make(map[int][]string)
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, urls, ok := strings.Cut(entry, "=")
		if !ok {
			return nil, fmt.Errorf("entry %q is not id=url|url", entry)
		}
		n, err := strconv.Atoi(strings.TrimSpace(id))
		if err != nil {
			return nil, fmt.Errorf("entry %q: shard id %q is not an integer", entry, id)
		}
		if _, dup := table[n]; dup {
			return nil, fmt.Errorf("shard %d appears twice", n)
		}
		for _, u := range strings.Split(urls, "|") {
			u = strings.TrimSpace(strings.TrimSuffix(u, "/"))
			if u == "" {
				continue
			}
			if !strings.Contains(u, "://") {
				u = "http://" + u
			}
			table[n] = append(table[n], u)
		}
		if len(table[n]) == 0 {
			return nil, fmt.Errorf("shard %d has no replica URLs", n)
		}
	}
	if len(table) == 0 {
		return nil, errors.New("empty replica table")
	}
	return table, nil
}
