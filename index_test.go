package c2knn_test

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"c2knn"
	"c2knn/internal/persist"
)

// buildTestIndex constructs a small C²-built index over the ml1M preset.
func buildTestIndex(tb testing.TB) *c2knn.Index {
	tb.Helper()
	d, err := c2knn.Generate("ml1M", 0.05)
	if err != nil {
		tb.Fatal(err)
	}
	sim, err := c2knn.NewGoldFinger(d, 256)
	if err != nil {
		tb.Fatal(err)
	}
	g, _ := c2knn.BuildC2(d, sim, c2knn.BuildOptions{K: 10, Workers: 2, Seed: 42})
	ix, err := c2knn.NewIndex(g, d, sim)
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

func TestIndexSaveLoadRoundTrip(t *testing.T) {
	ix := buildTestIndex(t)
	path := filepath.Join(t.TempDir(), "index.c2")
	if err := ix.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := c2knn.LoadIndex(path)
	if err != nil {
		t.Fatalf("LoadIndex: %v", err)
	}
	if loaded.NumUsers() != ix.NumUsers() || loaded.K() != ix.K() {
		t.Fatalf("loaded index shape (%d users, k=%d), want (%d, %d)",
			loaded.NumUsers(), loaded.K(), ix.NumUsers(), ix.K())
	}
	if loaded.Similarity() == nil {
		t.Fatal("loaded index dropped the GoldFinger provider")
	}
	for u := 0; u < ix.NumUsers(); u++ {
		ids, sims := ix.Neighbors(int32(u))
		lids, lsims := loaded.Neighbors(int32(u))
		if len(ids) != len(lids) {
			t.Fatalf("user %d: loaded degree %d, built %d", u, len(lids), len(ids))
		}
		for i := range ids {
			if ids[i] != lids[i] || sims[i] != lsims[i] {
				t.Fatalf("user %d edge %d differs after round trip", u, i)
			}
		}
	}
	for u := int32(0); u < int32(ix.NumUsers()); u += 17 {
		want := ix.Recommend(u, 10)
		got := loaded.Recommend(u, 10)
		if len(got) != len(want) {
			t.Fatalf("user %d: loaded recommends %d items, built %d", u, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("user %d: recommendations differ after round trip", u)
			}
		}
	}
}

// TestIndexRecommendConcurrentMatchesSerial serves recommendations from
// 8 goroutines at once (run under -race in CI) and checks every result
// against the serial path: the pooled-scratch serving layer must be
// both data-race-free and deterministic.
func TestIndexRecommendConcurrentMatchesSerial(t *testing.T) {
	ix := buildTestIndex(t)
	n := ix.NumUsers()
	serial := make([][]int32, n)
	for u := 0; u < n; u++ {
		serial[u] = ix.Recommend(int32(u), 20)
	}
	const workers = 8
	concurrent := make([][]int32, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for u := w; u < n; u += workers {
				concurrent[u] = ix.Recommend(int32(u), 20)
			}
		}(w)
	}
	wg.Wait()
	for u := 0; u < n; u++ {
		if len(serial[u]) != len(concurrent[u]) {
			t.Fatalf("user %d: concurrent returned %d items, serial %d", u, len(concurrent[u]), len(serial[u]))
		}
		for i := range serial[u] {
			if serial[u][i] != concurrent[u][i] {
				t.Fatalf("user %d item %d: concurrent %d, serial %d",
					u, i, concurrent[u][i], serial[u][i])
			}
		}
	}
}

func TestIndexNeighborsZeroAlloc(t *testing.T) {
	ix := buildTestIndex(t)
	var sink float32
	allocs := testing.AllocsPerRun(1000, func() {
		ids, sims := ix.Neighbors(3)
		if len(ids) > 0 {
			sink += sims[0]
		}
	})
	if allocs != 0 {
		t.Errorf("Index.Neighbors allocates %.1f per call, want 0", allocs)
	}
	_ = sink
}

func TestIndexTopK(t *testing.T) {
	ix := buildTestIndex(t)
	for u := int32(0); u < 20; u++ {
		top := ix.TopK(u, 3)
		ids, sims := ix.Neighbors(u)
		want := 3
		if len(ids) < want {
			want = len(ids)
		}
		if len(top) != want {
			t.Fatalf("user %d: TopK(3) returned %d, want %d", u, len(top), want)
		}
		for i, nb := range top {
			if nb.ID != ids[i] || nb.Sim != float64(sims[i]) {
				t.Fatalf("user %d: TopK[%d] = %+v, want (%d, %v)", u, i, nb, ids[i], sims[i])
			}
		}
	}
}

// TestIndexBatchMatchesSerial: the batch serving methods must return
// exactly what the single-query methods return, user for user, with
// out-of-range ids mapped to nil entries rather than panics.
func TestIndexBatchMatchesSerial(t *testing.T) {
	ix := buildTestIndex(t)
	users := []int32{0, 7, 3, 3, -1, int32(ix.NumUsers()), 11, 1}
	recs := ix.RecommendBatch(users, 15)
	tops := ix.TopKBatch(users, 4)
	if len(recs) != len(users) || len(tops) != len(users) {
		t.Fatalf("batch lengths %d/%d for %d users", len(recs), len(tops), len(users))
	}
	for i, u := range users {
		wantRec := ix.Recommend(u, 15)
		if len(recs[i]) != len(wantRec) {
			t.Fatalf("user %d: batch recommends %d items, serial %d", u, len(recs[i]), len(wantRec))
		}
		for j := range wantRec {
			if recs[i][j] != wantRec[j] {
				t.Fatalf("user %d: batch item %d = %d, serial %d", u, j, recs[i][j], wantRec[j])
			}
		}
		wantTop := ix.TopK(u, 4)
		if len(tops[i]) != len(wantTop) {
			t.Fatalf("user %d: batch topk %d neighbors, serial %d", u, len(tops[i]), len(wantTop))
		}
		for j := range wantTop {
			if tops[i][j] != wantTop[j] {
				t.Fatalf("user %d: batch topk[%d] = %+v, serial %+v", u, j, tops[i][j], wantTop[j])
			}
		}
	}
	// Degenerate shapes.
	if got := ix.RecommendBatch(nil, 5); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
	if got := ix.TopKBatch([]int32{1, 2}, 0); len(got) != 2 || got[0] != nil || got[1] != nil {
		t.Fatalf("TopKBatch with k=0 = %v, want nil entries", got)
	}
}

// TestIndexOutOfRangeUsers: the request-facing methods must return
// empty results for malformed user ids, not panic.
func TestIndexOutOfRangeUsers(t *testing.T) {
	ix := buildTestIndex(t)
	for _, u := range []int32{-1, int32(ix.NumUsers()), int32(ix.NumUsers()) + 100} {
		if ids, sims := ix.Neighbors(u); ids != nil || sims != nil {
			t.Errorf("Neighbors(%d) = (%v, %v), want empty", u, ids, sims)
		}
		if top := ix.TopK(u, 5); top != nil {
			t.Errorf("TopK(%d) = %v, want nil", u, top)
		}
		if rec := ix.Recommend(u, 5); rec != nil {
			t.Errorf("Recommend(%d) = %v, want nil", u, rec)
		}
	}
}

// TestIndexNonPositiveN: Recommend and RecommendBatch with n ≤ 0 return
// empty results, as TopK does for k ≤ 0, on a frozen index and on an
// upsert-enabled one (the merged-view path).
func TestIndexNonPositiveN(t *testing.T) {
	frozen := buildTestIndex(t)
	writable := buildTestIndex(t)
	if err := writable.EnableUpserts(c2knn.UpsertConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := writable.Upsert(-1, []int32{1, 2, 3, 5, 8}); err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*c2knn.Index{"frozen": frozen, "upserts": writable} {
		users := []int32{0, 3, int32(ix.NumUsers()) - 1}
		for _, n := range []int{0, -1, -100} {
			for _, u := range users {
				if rec := ix.Recommend(u, n); len(rec) != 0 {
					t.Errorf("%s: Recommend(%d, %d) = %v, want empty", name, u, n, rec)
				}
				if top := ix.TopK(u, n); len(top) != 0 {
					t.Errorf("%s: TopK(%d, %d) = %v, want empty", name, u, n, top)
				}
			}
			recs := ix.RecommendBatch(users, n)
			if len(recs) != len(users) {
				t.Fatalf("%s: RecommendBatch(n=%d) returned %d results for %d users", name, n, len(recs), len(users))
			}
			for i, rec := range recs {
				if len(rec) != 0 {
					t.Errorf("%s: RecommendBatch(n=%d)[%d] = %v, want empty", name, n, i, rec)
				}
			}
		}
	}
}

// TestIndexReadOnlyMatchesOverlay: enabling upserts changes no answer
// until an upsert lands. The read-only index and the same index with an
// empty overlay answer all six query methods identically on
// out-of-range ids, duplicates, non-positive n and k, and k beyond the
// graph's K. reflect.DeepEqual tells a nil entry from an empty one, so
// the two must agree on those too.
func TestIndexReadOnlyMatchesOverlay(t *testing.T) {
	ix := buildTestIndex(t)
	n := int32(ix.NumUsers())
	users := []int32{-1, 0, 3, 3, 7, n - 1, n, n + 5, -1}
	counts := []int{-3, 0, 1, 5, ix.K(), ix.K() + 7}
	type answers struct {
		NumUsers  int
		IDs       [][]int32
		Sims      [][]float32
		TopK      [][]c2knn.Neighbor
		Recommend [][]int32
		TopKBatch [][][]c2knn.Neighbor
		RecBatch  [][][]int32
	}
	collect := func() answers {
		var a answers
		a.NumUsers = ix.NumUsers()
		for _, u := range users {
			ids, sims := ix.Neighbors(u)
			a.IDs = append(a.IDs, ids)
			a.Sims = append(a.Sims, sims)
			for _, c := range counts {
				a.TopK = append(a.TopK, ix.TopK(u, c))
				a.Recommend = append(a.Recommend, ix.Recommend(u, c))
			}
		}
		for _, c := range counts {
			a.TopKBatch = append(a.TopKBatch, ix.TopKBatch(users, c))
			a.RecBatch = append(a.RecBatch, ix.RecommendBatch(users, c))
		}
		return a
	}
	before := collect()
	if before.IDs[0] != nil || before.TopKBatch[3][0] != nil || before.TopKBatch[3][1] == nil {
		t.Fatal("read-only answers lack the nil entries (out of range) and non-nil ones (valid users) this test compares")
	}
	if err := ix.EnableUpserts(c2knn.UpsertConfig{}); err != nil {
		t.Fatal(err)
	}
	after := collect()
	for _, f := range []struct {
		name          string
		before, after any
	}{
		{"NumUsers", before.NumUsers, after.NumUsers},
		{"Neighbors ids", before.IDs, after.IDs},
		{"Neighbors sims", before.Sims, after.Sims},
		{"TopK", before.TopK, after.TopK},
		{"Recommend", before.Recommend, after.Recommend},
		{"TopKBatch", before.TopKBatch, after.TopKBatch},
		{"RecommendBatch", before.RecBatch, after.RecBatch},
	} {
		if !reflect.DeepEqual(f.before, f.after) {
			t.Errorf("%s differs once upserts are enabled:\nread-only %v\noverlay   %v", f.name, f.before, f.after)
		}
	}
}

// TestEnableUpsertsRejectsBadFRH: a graph recording an out-of-range
// hash parameter is an error naming the field, and the index stays
// read-only.
func TestEnableUpsertsRejectsBadFRH(t *testing.T) {
	d, err := c2knn.Generate("ml1M", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := c2knn.NewGoldFinger(d, 256)
	if err != nil {
		t.Fatal(err)
	}
	g, _ := c2knn.BuildC2(d, sim, c2knn.BuildOptions{K: 10, Workers: 2, Seed: 42})
	g.Clustering.B = 1 << 16
	ix, err := c2knn.NewIndex(g, d, sim)
	if err != nil {
		t.Fatal(err)
	}
	err = ix.EnableUpserts(c2knn.UpsertConfig{})
	if err == nil || !strings.Contains(err.Error(), "B=65536") {
		t.Fatalf("EnableUpserts(B=65536) = %v, want an error naming B", err)
	}
	if ix.Upserts() {
		t.Error("a refused EnableUpserts left an overlay attached")
	}
}

// TestEnableUpsertsNeedsClustering: a graph that records no C²
// clustering — a baseline's, or one from a snapshot written before the
// record existed, such as the pinned v2-tiny fixture — cannot place
// upserts as its build did. EnableUpserts names the rebuild and leaves
// the index read-only.
func TestEnableUpsertsNeedsClustering(t *testing.T) {
	d, err := c2knn.Generate("ml1M", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := c2knn.NewGoldFinger(d, 256)
	if err != nil {
		t.Fatal(err)
	}
	hy, err := c2knn.NewIndex(c2knn.BuildHyrec(d, sim, c2knn.BuildOptions{K: 10}), d, sim)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := c2knn.LoadIndexMode(filepath.Join("internal", "persist", "testdata", "v2-tiny.c2"), c2knn.LoadCopy)
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]*c2knn.Index{"hyrec": hy, "v2-tiny": pinned} {
		if err := ix.EnableUpserts(c2knn.UpsertConfig{}); err == nil || !strings.Contains(err.Error(), "c2build -algo c2") {
			t.Errorf("%s: EnableUpserts = %v, want an error naming the rebuild", name, err)
		}
		if ix.Upserts() {
			t.Errorf("%s: a refused EnableUpserts left an overlay attached", name)
		}
	}
}

func TestNewIndexValidates(t *testing.T) {
	d, err := c2knn.Generate("ml1M", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2knn.NewIndex(nil, d, nil); err == nil {
		t.Error("NewIndex accepted a nil graph")
	}
	g := c2knn.BuildBruteForce(d, c2knn.ExactJaccard(d), c2knn.BuildOptions{K: 5})
	small, err := c2knn.Generate("ml1M", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if small.NumUsers() != d.NumUsers() {
		if _, err := c2knn.NewIndex(g, small, nil); err == nil {
			t.Error("NewIndex accepted mismatched user counts")
		}
	}
}

// TestLoadIndexTypedErrors: LoadIndex failures must be classifiable
// with errors.Is, not string matching — a daemon logs "rebuild needed"
// for version skew and "restore the file" for corruption, and batch
// tests assert each class lands on its own sentinel only.
func TestLoadIndexTypedErrors(t *testing.T) {
	ix := buildTestIndex(t)
	path := filepath.Join(t.TempDir(), "index.c2")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Version skew: the uint32 at offset 8 is the format version (the
	// header is unchecksummed framing, so only the version check sees it).
	skewed := append([]byte(nil), raw...)
	skewed[8] = 0x7f
	if err := os.WriteFile(path, skewed, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = c2knn.LoadIndex(path)
	if !errors.Is(err, c2knn.ErrSnapshotVersion) {
		t.Fatalf("version-skewed snapshot: err = %v, want errors.Is ErrSnapshotVersion", err)
	}
	if errors.Is(err, c2knn.ErrSnapshotCorrupt) {
		t.Fatalf("version skew must not also read as corruption: %v", err)
	}

	// Corruption: flip one payload byte; the section checksum catches it.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)/2] ^= 0xff
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = c2knn.LoadIndex(path)
	if !errors.Is(err, c2knn.ErrSnapshotCorrupt) {
		t.Fatalf("corrupt snapshot: err = %v, want errors.Is ErrSnapshotCorrupt", err)
	}
	if errors.Is(err, c2knn.ErrSnapshotVersion) {
		t.Fatalf("corruption must not also read as version skew: %v", err)
	}
}

// TestLoadIndexRejectsV1Snapshot: version-1 snapshots are retired, so
// one fails with ErrSnapshotVersion under every load mode — auto does
// not fall back to copy for it — and the message names c2build. The
// fixture is the persist package's v1TinyFile output.
func TestLoadIndexRejectsV1Snapshot(t *testing.T) {
	path := filepath.Join("internal", "persist", "testdata", "v1-tiny.c2")
	for _, mode := range []c2knn.LoadMode{c2knn.LoadAuto, c2knn.LoadCopy, c2knn.LoadMMap} {
		ix, err := c2knn.LoadIndexMode(path, mode)
		if mode == c2knn.LoadMMap && errors.Is(err, persist.ErrMapUnavailable) {
			t.Logf("mmap unavailable on this platform: %v", err)
			continue
		}
		if ix != nil || !errors.Is(err, c2knn.ErrSnapshotVersion) || errors.Is(err, c2knn.ErrSnapshotCorrupt) {
			t.Fatalf("LoadIndexMode(v1, %v): err = %v, want ErrSnapshotVersion only", mode, err)
		}
		if !strings.Contains(err.Error(), "c2build") {
			t.Fatalf("LoadIndexMode(v1, %v): error %q does not name c2build", mode, err)
		}
	}
}

func TestLoadIndexRejectsGraphlessSnapshot(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.c2")
	if _, err := c2knn.LoadIndex(path); err == nil {
		t.Error("LoadIndex of a missing file succeeded")
	}
}

// TestLoadIndexModeEquivalence: a zero-copy mapped index and a
// copy-decoded index of the same snapshot must be observationally
// identical — same neighbor lists, same similarity values, same
// recommendations — since the serving layer picks between them purely
// on platform capability.
func TestLoadIndexModeEquivalence(t *testing.T) {
	ix := buildTestIndex(t)
	path := filepath.Join(t.TempDir(), "index.c2")
	if err := ix.Save(path); err != nil {
		t.Fatal(err)
	}
	cp, err := c2knn.LoadIndexMode(path, c2knn.LoadCopy)
	if err != nil {
		t.Fatalf("LoadIndexMode(copy): %v", err)
	}
	defer cp.Close()
	if cp.Mapped() {
		t.Fatal("copy-loaded index reports Mapped")
	}
	mm, err := c2knn.LoadIndexMode(path, c2knn.LoadMMap)
	if err != nil {
		t.Skipf("mmap unavailable on this platform: %v", err)
	}
	defer mm.Close()
	if !mm.Mapped() {
		t.Fatal("mmap-loaded index does not report Mapped")
	}
	if mm.NumUsers() != cp.NumUsers() || mm.K() != cp.K() {
		t.Fatalf("index shapes differ: mapped (%d users, k=%d), copy (%d, %d)",
			mm.NumUsers(), mm.K(), cp.NumUsers(), cp.K())
	}
	for u := int32(0); u < int32(cp.NumUsers()); u++ {
		mids, msims := mm.Neighbors(u)
		cids, csims := cp.Neighbors(u)
		if len(mids) != len(cids) {
			t.Fatalf("user %d: mapped degree %d, copy %d", u, len(mids), len(cids))
		}
		for i := range cids {
			if mids[i] != cids[i] || msims[i] != csims[i] {
				t.Fatalf("user %d edge %d differs between load modes", u, i)
			}
		}
	}
	for u := int32(0); u < int32(cp.NumUsers()); u += 13 {
		mrec, crec := mm.Recommend(u, 10), cp.Recommend(u, 10)
		if len(mrec) != len(crec) {
			t.Fatalf("user %d: mapped recommends %d items, copy %d", u, len(mrec), len(crec))
		}
		for i := range crec {
			if mrec[i] != crec[i] {
				t.Fatalf("user %d: recommendations differ between load modes", u)
			}
		}
	}
}

// TestIndexMappedLifecycle drives the Retain/Release/Close discipline a
// hot-swapping server depends on: queries retain around access, Close
// refuses new retains while letting retained queries drain, and a
// built/copy-loaded index is exempt from all of it.
func TestIndexMappedLifecycle(t *testing.T) {
	built := buildTestIndex(t)
	if built.Mapped() {
		t.Fatal("in-process index reports Mapped")
	}
	if !built.Retain() {
		t.Fatal("Retain on an unmapped index must always succeed")
	}
	built.Release()
	if err := built.Close(); err != nil {
		t.Fatalf("Close of an unmapped index: %v", err)
	}
	if !built.Retain() {
		t.Fatal("unmapped index refused Retain after no-op Close")
	}
	built.Release()

	path := filepath.Join(t.TempDir(), "index.c2")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	mm, err := c2knn.LoadIndexMode(path, c2knn.LoadMMap)
	if err != nil {
		t.Skipf("mmap unavailable on this platform: %v", err)
	}
	if !mm.Retain() {
		t.Fatal("Retain on a live mapped index failed")
	}
	// A retained in-flight query survives Close: the mapping drains
	// instead of unmapping under the query's feet.
	if err := mm.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if mm.Retain() {
		t.Fatal("Retain succeeded after Close — new queries must be refused")
	}
	ids, _ := mm.Neighbors(0) // still retained: views remain valid
	_ = ids
	mm.Release()
	if mm.Retain() {
		t.Fatal("mapping resurrected after the last reference drained")
	}
	if err := mm.Close(); err != nil {
		t.Fatalf("second Close must stay a no-op: %v", err)
	}
}
