package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"c2knn"
	"c2knn/internal/server"
)

// daemon is one serving process's worth of state, run in-process on a
// loopback listener: the index, the server over it, and the HTTP server
// carrying its handler.
type daemon struct {
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan error
	// slots, when non-nil, receives the handler's start and end (span
	// time) for every request carrying an X-Bench-Req header: the live
	// server.handler spans of the traced run.
	slots atomic.Pointer[[]handlerSlot]
}

type handlerSlot struct{ start, end atomic.Int64 }

// setupTimes is one measured daemon set-up.
type setupTimes struct {
	total, load time.Duration
}

// startDaemon loads the snapshot and serves it, timing the program's
// set-up from LoadIndex through server.New (which attaches the delta
// overlay when writable) to the first 200 answer.
func startDaemon(path string, writable bool, tr *tracer, root string, req int64) (*daemon, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	ix, err := c2knn.LoadIndex(path)
	if err != nil {
		return nil, st, fmt.Errorf("load %s: %w", path, err)
	}
	t1 := time.Now()
	cfg := server.Config{}
	if writable {
		cfg.Upserts = true
		cfg.SnapshotPath = path
	} else {
		cfg.ReadOnly = true
	}
	srv, err := server.New(ix, cfg)
	if err != nil {
		ix.Close()
		return nil, st, fmt.Errorf("server.New: %w", err)
	}
	t2 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		ix.Close()
		return nil, st, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{srv: srv, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	var h http.Handler = srv.Handler()
	if tr != nil {
		h = d.timed(h, tr)
	}
	d.hs = &http.Server{Handler: h}
	go func() { d.done <- d.hs.Serve(ln) }()
	if err := firstAnswer(d.url); err != nil {
		d.stop()
		return nil, st, err
	}
	t3 := time.Now()
	st = setupTimes{total: t3.Sub(t0), load: t1.Sub(t0)}
	r := tr.add(root, -1, req, t0, t3)
	tr.add("persist.LoadIndex", r, req, t0, t1)
	tr.add("server.New", r, req, t1, t2)
	tr.add("http.first200", r, req, t2, t3)
	return d, st, nil
}

// firstAnswer issues one query on a throwaway connection and returns
// once the daemon answers it with 200.
func firstAnswer(base string) error {
	tp := &http.Transport{}
	defer tp.CloseIdleConnections()
	c := &http.Client{Transport: tp, Timeout: 10 * time.Second}
	resp, err := c.Get(base + "/v1/topk?user=0&k=10")
	if err != nil {
		return fmt.Errorf("first query: %w", err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return fmt.Errorf("first query: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("first query: status %d", resp.StatusCode)
	}
	return nil
}

// timed wraps the daemon's handler to record when it starts and ends
// each benchmark request (the wrapper is the benchmark's, not the
// program's: the program is not instrumented).
func (d *daemon) timed(next http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		slots := d.slots.Load()
		id, err := strconv.Atoi(r.Header.Get("X-Bench-Req"))
		if slots == nil || err != nil || id < 0 || id >= len(*slots) {
			next.ServeHTTP(w, r)
			return
		}
		s := &(*slots)[id]
		s.start.Store(tr.at(time.Now()))
		next.ServeHTTP(w, r)
		s.end.Store(tr.at(time.Now()))
	})
}

// stop closes the listener and every connection, waits for Serve to
// return, and releases the served index.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		d.hs.Close()
	}
	if err := <-d.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "perfbench: serve loop ended: %v\n", err)
	}
	d.srv.Index().Close()
}

// statsz reads the daemon's own counters.
func (d *daemon) statsz() server.Snapshot { return d.srv.Stats().Snapshot() }

// client is one generator connection: its own transport, capped at one
// connection, so the generator opens no more connections than workers.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

func closeClient(c *http.Client) { c.Transport.(*http.Transport).CloseIdleConnections() }
