package delta

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"c2knn/internal/core"
	"c2knn/internal/dataset"
	"c2knn/internal/frh"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
	"c2knn/internal/sets"
	"c2knn/internal/similarity"
	"c2knn/internal/synth"
)

const testGFSeed uint32 = 0x60fd

// testBase builds a small but realistic base: a scaled synthetic ML1M
// dataset, its fingerprints, and the frozen C² graph.
func testBase(t *testing.T, scale float64) (*knng.Frozen, *dataset.Dataset, *goldfinger.Set) {
	t.Helper()
	d := synth.Generate(synth.ML1M().Scale(scale))
	gf := goldfinger.MustNew(d, goldfinger.DefaultBits, testGFSeed)
	g, _ := core.Build(d, similarity.NewCounting(gf), core.Options{
		K: 10, Workers: 2, Seed: 42,
	})
	return g.Freeze(), d, gf
}

func testOverlay(t *testing.T, scale float64) (*Overlay, *dataset.Dataset) {
	t.Helper()
	frozen, d, gf := testBase(t, scale)
	ov, err := Attach(frozen, d, gf, nil)
	if err != nil {
		t.Fatalf("Attach: %v", err)
	}
	return ov, d
}

// withFRH returns a copy of f recording the FastRandomHash family o, its
// zero fields taking the paper's defaults as core.Build fills them.
func withFRH(f *knng.Frozen, o frh.Options) *knng.Frozen {
	g := *f
	g.Clustering = knng.Clustering{
		B:    cmp.Or(o.B, frh.DefaultB),
		T:    cmp.Or(o.T, frh.DefaultT),
		N:    cmp.Or(o.MaxSize, frh.DefaultMaxSize),
		Seed: o.Seed,
	}
	return &g
}

// checkRow asserts a merged row is canonical: sorted by sim desc then id
// asc, no duplicates, no self-edge, all ids valid, sims in [0, 1].
func checkRow(t *testing.T, v *View, u int32) {
	t.Helper()
	ids, sims := v.Neighbors(u)
	if len(ids) != len(sims) {
		t.Fatalf("user %d: %d ids vs %d sims", u, len(ids), len(sims))
	}
	seen := make(map[int32]bool)
	for i, id := range ids {
		if id == u {
			t.Fatalf("user %d: self edge at %d", u, i)
		}
		if !v.Valid(id) {
			t.Fatalf("user %d: neighbor %d out of range", u, id)
		}
		if seen[id] {
			t.Fatalf("user %d: duplicate neighbor %d", u, id)
		}
		seen[id] = true
		if sims[i] < 0 || sims[i] > 1 || math.IsNaN(float64(sims[i])) {
			t.Fatalf("user %d: sim[%d] = %v out of range", u, i, sims[i])
		}
		if i > 0 {
			if sims[i] > sims[i-1] || (sims[i] == sims[i-1] && ids[i] <= ids[i-1]) {
				t.Fatalf("user %d: row not canonical at %d: (%d,%v) after (%d,%v)",
					u, i, ids[i], sims[i], ids[i-1], sims[i-1])
			}
		}
	}
}

func TestAttachValidation(t *testing.T) {
	frozen, d, gf := testBase(t, 0.01)
	if _, err := Attach(nil, d, gf, nil); err == nil {
		t.Error("Attach accepted a nil graph")
	}
	if _, err := Attach(frozen, d, nil, nil); err == nil {
		t.Error("Attach accepted nil fingerprints")
	}
	short := &dataset.Dataset{Name: "short", NumItems: d.NumItems, Profiles: d.Profiles[:len(d.Profiles)-1]}
	if _, err := Attach(frozen, short, gf, nil); err == nil {
		t.Error("Attach accepted inconsistent user counts")
	}
	for _, tc := range []struct {
		frh   frh.Options
		field string
	}{
		{frh.Options{B: 1 << 16}, "B=65536"},
		{frh.Options{B: -1}, "B=-1"},
		{frh.Options{T: -1}, "T=-1"},
	} {
		if _, err := Attach(withFRH(frozen, tc.frh), d, gf, nil); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("Attach with %+v: error %v, want one naming %s", tc.frh, err, tc.field)
		}
	}
}

// TestUpsertsLeaveBaseTable: upserts re-file users through per-bucket
// copies, so the base table an overlay attached from stays the table of
// the base profiles however many users move.
func TestUpsertsLeaveBaseTable(t *testing.T) {
	frozen, d, gf := testBase(t, 0.01)
	c := frozen.Clustering
	h := frh.NewHasher(d.NumItems, frh.Options{B: c.B, T: c.T, Seed: c.Seed})
	ov, err := Attach(frozen, d, gf, h.Table(d.Profiles))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	for i := range 64 {
		items := []int32{int32(rng.Intn(int(d.NumItems))), int32(rng.Intn(int(d.NumItems)))}
		if _, err := ov.Upsert(int32(i%d.NumUsers()), items); err != nil {
			t.Fatal(err)
		}
	}
	if len(ov.moved) == 0 {
		t.Fatal("no upsert re-filed a user")
	}
	want := h.Table(d.Profiles)
	for fn := range want.T {
		if !slices.Equal(ov.buckets.Offsets[fn], want.Offsets[fn]) || !slices.Equal(ov.buckets.IDs[fn], want.IDs[fn]) {
			t.Fatalf("configuration %d of the base table changed under upserts", fn)
		}
	}
}

// TestAttachNeedsClustering: a graph that records no FastRandomHash
// family cannot place upserts as its build did, so Attach refuses it
// and names the rebuild; Rebase refuses a base built with another family
// or fingerprint seed than the one the overlay places with.
func TestAttachNeedsClustering(t *testing.T) {
	frozen, d, gf := testBase(t, 0.01)
	bare := *frozen
	bare.Clustering = knng.Clustering{}
	if _, err := Attach(&bare, d, gf, nil); err == nil || !strings.Contains(err.Error(), "c2build -algo c2") {
		t.Fatalf("Attach of an unrecorded graph = %v, want an error naming the rebuild", err)
	}
	ov, err := Attach(frozen, d, gf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := ov.Stats().Placement; got != frozen.Clustering || got.Seed != 42 {
		t.Fatalf("Stats().Placement = %+v, want the graph's %+v", got, frozen.Clustering)
	}
	c, err := ov.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if c.Graph.Clustering != frozen.Clustering || c.GoldFinger.Seed() != testGFSeed {
		t.Fatalf("compacted base records %+v and seed %#x, want %+v and %#x",
			c.Graph.Clustering, c.GoldFinger.Seed(), frozen.Clustering, testGFSeed)
	}
	other := *c.Graph
	other.Clustering.Seed++
	if err := ov.Rebase(&other, c.Train, c.GoldFinger, c.Marker); err == nil {
		t.Error("Rebase accepted a base built with another seed")
	}
	otherGF := goldfinger.MustNew(c.Train, goldfinger.DefaultBits, testGFSeed+1)
	if err := ov.Rebase(c.Graph, c.Train, otherGF, c.Marker); err == nil {
		t.Error("Rebase accepted fingerprints made with another seed")
	}
	if err := ov.Rebase(c.Graph, c.Train, c.GoldFinger, c.Marker); err != nil {
		t.Fatal(err)
	}
}

// TestUpsertFingerprintSeed: an upserted profile is fingerprinted with
// the item-hash seed of the base fingerprints, whatever it is, so a copy
// of a base user's profile scores exactly as that user does.
func TestUpsertFingerprintSeed(t *testing.T) {
	frozen, d, _ := testBase(t, 0.01)
	gf := goldfinger.MustNew(d, goldfinger.DefaultBits, 0x1234)
	ov, err := Attach(frozen, d, gf, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ov.Upsert(-1, d.Profiles[0])
	if err != nil {
		t.Fatal(err)
	}
	sig, ones := ov.View().signature(res.User)
	if !slices.Equal(sig, gf.Signature(0)) || int(ones) != gf.Ones(0) {
		t.Fatal("the upsert was fingerprinted with another seed than the base's")
	}
}

// BenchmarkAttach times attaching an overlay to an ml1M-sized base at
// the paper's B and T: "computed" hashes every profile, "snapshot"
// copies and checks the bucket table a C² snapshot carries. Besides the
// mean it reports the median attach (p50-ms): the mean carries the
// garbage collections that earlier attaches' tables cause. The graph
// has empty rows: Attach only checks its shape, so building a real one
// would only slow the set-up.
func BenchmarkAttach(b *testing.B) {
	d := synth.Generate(synth.ML1M())
	gf := goldfinger.MustNew(d, goldfinger.DefaultBits, testGFSeed)
	frozen := withFRH(knng.New(d.NumUsers(), 10).Freeze(), frh.Options{})
	c := frozen.Clustering
	tab := frh.NewHasher(d.NumItems, frh.Options{B: c.B, T: c.T, Seed: c.Seed}).Table(d.Profiles)
	for _, bc := range []struct {
		name    string
		buckets *frh.Table
	}{{"computed", nil}, {"snapshot", tab}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportMetric(float64(d.NumRatings()), "ratings")
			var times []time.Duration
			for b.Loop() {
				start := time.Now()
				if _, err := Attach(frozen, d, gf, bc.buckets); err != nil {
					b.Fatal(err)
				}
				times = append(times, time.Since(start))
			}
			slices.Sort(times)
			b.ReportMetric(float64(times[len(times)/2].Microseconds())/1e3, "p50-ms")
		})
	}
}

// BenchmarkUpsert times inserting the last 1,024 users of an ml10M
// lookalike into an overlay over the rest, at the paper's B, T and N
// with seed 42: placement plus the localized re-solve. The graph has
// empty rows, as in BenchmarkAttach. Each op adds one to the overlay's
// depth and the ops cycle through the tail, so -benchtime=1024x streams
// it exactly once.
func BenchmarkUpsert(b *testing.B) {
	const tail = 1024
	d := synth.Generate(synth.ML10M())
	base := &dataset.Dataset{Name: d.Name, NumItems: d.NumItems, Profiles: d.Profiles[:d.NumUsers()-tail]}
	gf := goldfinger.MustNew(base, goldfinger.DefaultBits, testGFSeed)
	ov, err := Attach(withFRH(knng.New(base.NumUsers(), 30).Freeze(), frh.Options{Seed: 42}), base, gf, nil)
	if err != nil {
		b.Fatal(err)
	}
	ops, candidates := 0, 0
	for b.Loop() {
		r, err := ov.Upsert(-1, d.Profiles[base.NumUsers()+ops%tail])
		if err != nil {
			b.Fatal(err)
		}
		ops++
		candidates += r.Candidates
	}
	b.ReportMetric(float64(candidates)/float64(ops), "candidates/op")
}

func TestUpsertErrors(t *testing.T) {
	ov, d := testOverlay(t, 0.01)
	if _, err := ov.Upsert(-1, nil); err == nil {
		t.Error("accepted an empty item set")
	}
	if _, err := ov.Upsert(-1, []int32{-3}); err == nil {
		t.Error("accepted a negative item id")
	}
	if _, err := ov.Upsert(-1, []int32{ov.cfg.MaxItems}); err == nil {
		t.Error("accepted an item id at MaxItems")
	}
	if _, err := ov.Upsert(int32(d.NumUsers()), []int32{1}); err == nil {
		t.Error("accepted an out-of-range existing user id")
	}
}

func TestInsertNewUser(t *testing.T) {
	ov, d := testOverlay(t, 0.02)
	baseN := int32(d.NumUsers())

	// Clone an existing profile: the new user must find near-identical
	// neighbors to the clone source's.
	src := int32(7)
	profile := slices.Clone(d.Profiles[src])
	before := ov.View()

	res, err := ov.Upsert(-1, profile)
	if err != nil {
		t.Fatalf("Upsert: %v", err)
	}
	if !res.Created || res.User != baseN {
		t.Fatalf("want created id %d, got %+v", baseN, res)
	}
	if res.Candidates == 0 {
		t.Fatal("upsert scored no candidates — placement found nothing")
	}

	after := ov.View()
	if after.NumUsers() != int(baseN)+1 || before.NumUsers() != int(baseN) {
		t.Fatalf("user counts: before %d after %d", before.NumUsers(), after.NumUsers())
	}
	// The old view must not see the write (epoch consistency).
	if ids, _ := before.Neighbors(baseN); ids != nil {
		t.Fatal("pre-upsert view exposes the new user")
	}
	if got := after.Profile(baseN); !slices.Equal(got, sets.Normalize(slices.Clone(profile))) {
		t.Fatalf("profile mismatch: %v", got)
	}
	checkRow(t, after, baseN)

	// An identical profile shares every item, so the clone source must
	// appear in the row with similarity 1 (fingerprints are equal).
	ids, sims := after.Neighbors(baseN)
	if len(ids) == 0 {
		t.Fatal("new user has an empty row")
	}
	at := slices.Index(ids, src)
	if at < 0 {
		t.Fatalf("clone source %d missing from row %v", src, ids)
	}
	if sims[at] != 1 {
		t.Fatalf("clone similarity = %v, want 1", sims[at])
	}

	// Symmetry: the patched neighbors now hold the new user.
	reverse := 0
	for _, v := range ids {
		nIDs, _ := after.Neighbors(v)
		if slices.Contains(nIDs, baseN) {
			reverse++
		}
	}
	if res.Patched != reverse {
		t.Fatalf("Patched = %d but %d reverse edges found", res.Patched, reverse)
	}
	if reverse == 0 {
		t.Fatal("no reverse edge was patched for an identical profile")
	}
	// Every patched row must still be canonical and within K.
	for _, v := range ids {
		checkRow(t, after, v)
		nIDs, _ := after.Neighbors(v)
		if len(nIDs) > ov.cfg.K {
			t.Fatalf("patched row of %d exceeds K: %d", v, len(nIDs))
		}
	}
}

func TestUpdateExistingUser(t *testing.T) {
	ov, d := testOverlay(t, 0.02)
	u := int32(3)
	old := slices.Clone(d.Profiles[u])

	// No-op: re-upserting a subset of the existing profile must not burn
	// a sequence number.
	seq0 := ov.View().Seq()
	res, err := ov.Upsert(u, old[:1])
	if err != nil {
		t.Fatalf("no-op upsert: %v", err)
	}
	if res.Seq != seq0 || res.Created {
		t.Fatalf("no-op upsert advanced state: %+v", res)
	}

	// Merge in another user's items: the profile must become the union
	// and the row must be re-solved.
	donor := d.Profiles[11]
	res, err = ov.Upsert(u, donor)
	if err != nil {
		t.Fatalf("update upsert: %v", err)
	}
	if res.Created || res.User != u {
		t.Fatalf("update reported %+v", res)
	}
	v := ov.View()
	want := sets.Union(old, sets.Normalize(slices.Clone(donor)))
	if got := v.Profile(u); !slices.Equal(got, want) {
		t.Fatalf("merged profile mismatch:\n got %v\nwant %v", got, want)
	}
	checkRow(t, v, u)
	if v.Seq() != seq0+1 {
		t.Fatalf("seq = %d, want %d", v.Seq(), seq0+1)
	}
}

func TestNewItemsBeyondBaseUniverse(t *testing.T) {
	ov, d := testOverlay(t, 0.01)
	base := int32(d.NumItems)
	items := []int32{base, base + 1, base + 2, base + 100}
	res, err := ov.Upsert(-1, items)
	if err != nil {
		t.Fatalf("Upsert with unseen items: %v", err)
	}
	v := ov.View()
	if v.NumItems() < base+101 {
		t.Fatalf("NumItems = %d, want ≥ %d", v.NumItems(), base+101)
	}
	if got := v.Profile(res.User); !slices.Equal(got, items) {
		t.Fatalf("profile = %v, want %v", got, items)
	}
	checkRow(t, v, res.User)

	// A second user with the same unseen items must find the first at
	// similarity 1: new-item hashing is deterministic.
	res2, err := ov.Upsert(-1, items)
	if err != nil {
		t.Fatalf("second unseen-item upsert: %v", err)
	}
	ids, sims := ov.View().Neighbors(res2.User)
	at := slices.Index(ids, res.User)
	if at < 0 || sims[at] != 1 {
		t.Fatalf("twin not found at sim 1: ids=%v sims=%v", ids, sims)
	}
}

func TestStats(t *testing.T) {
	ov, d := testOverlay(t, 0.01)
	now := time.Unix(1000, 0)
	ov.cfg.now = func() time.Time { return now }

	s := ov.Stats()
	if s.Depth != 0 || s.Users != 0 || s.AgeSec != 0 {
		t.Fatalf("fresh overlay stats: %+v", s)
	}
	if _, err := ov.Upsert(-1, d.Profiles[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := ov.Upsert(2, d.Profiles[9]); err != nil {
		t.Fatal(err)
	}
	now = now.Add(3 * time.Second)
	s = ov.Stats()
	if s.Depth != 2 || s.Users != 1 || s.Upserts != 2 || s.Seq != 2 {
		t.Fatalf("stats after 2 upserts: %+v", s)
	}
	if s.AgeSec != 3 {
		t.Fatalf("AgeSec = %v, want 3", s.AgeSec)
	}
}

func TestCompactRoundTrip(t *testing.T) {
	ov, d := testOverlay(t, 0.02)
	baseN := int32(d.NumUsers())

	// Mix of inserts and updates.
	for i := 0; i < 8; i++ {
		if _, err := ov.Upsert(-1, d.Profiles[i*3]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ov.Upsert(5, d.Profiles[20]); err != nil {
		t.Fatal(err)
	}

	cmp, err := ov.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if cmp.Absorbed != 9 {
		t.Fatalf("Absorbed = %d, want 9", cmp.Absorbed)
	}
	if n := cmp.Train.NumUsers(); n != int(baseN)+8 {
		t.Fatalf("compacted users = %d, want %d", n, baseN+8)
	}

	// The compacted artifacts must reproduce the view's merged state
	// exactly.
	v := ov.View()
	for u := int32(0); u < int32(cmp.Train.NumUsers()); u++ {
		if !slices.Equal(cmp.Train.Profiles[u], v.Profile(u)) {
			t.Fatalf("user %d: compacted profile diverges", u)
		}
		wantIDs, wantSims := v.Neighbors(u)
		gotIDs, gotSims := cmp.Graph.Neighbors(u)
		if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotSims, wantSims) {
			t.Fatalf("user %d: compacted row diverges", u)
		}
		wantSig, _ := v.signature(u)
		if !slices.Equal(cmp.GoldFinger.Signature(u), wantSig) {
			t.Fatalf("user %d: compacted signature diverges", u)
		}
	}

	// Upserts racing in after the capture must survive the rebase...
	late, err := ov.Upsert(-1, d.Profiles[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := ov.Rebase(cmp.Graph, cmp.Train, cmp.GoldFinger, cmp.Marker); err != nil {
		t.Fatalf("Rebase: %v", err)
	}
	v = ov.View()
	if v.BaseUsers() != cmp.Train.NumUsers() {
		t.Fatalf("BaseUsers = %d, want %d", v.BaseUsers(), cmp.Train.NumUsers())
	}
	if v.NumUsers() != cmp.Train.NumUsers()+1 {
		t.Fatalf("NumUsers = %d, want %d", v.NumUsers(), cmp.Train.NumUsers()+1)
	}
	if got := v.Profile(late.User); !slices.Equal(got, sets.Normalize(slices.Clone(d.Profiles[1]))) {
		t.Fatal("late upsert lost its profile across the rebase")
	}
	checkRow(t, v, late.User)

	// ...while absorbed patches are pruned (entries at or below the
	// marker are gone; base reads serve them now).
	s := ov.Stats()
	if s.Depth != 1 || s.Users != 1 || s.Compactions != 1 {
		t.Fatalf("post-rebase stats: %+v", s)
	}
	for k, e := range v.patches {
		if e.seq <= cmp.Marker {
			t.Fatalf("row patch for %d at seq %d survived marker %d", k, e.seq, cmp.Marker)
		}
	}

	// A second compaction folds the straggler too.
	cmp2, err := ov.Compact()
	if err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	if cmp2.Absorbed != 1 {
		t.Fatalf("second Absorbed = %d, want 1", cmp2.Absorbed)
	}
	if err := ov.Rebase(cmp2.Graph, cmp2.Train, cmp2.GoldFinger, cmp2.Marker); err != nil {
		t.Fatalf("second Rebase: %v", err)
	}
	s = ov.Stats()
	if s.Depth != 0 || s.Users != 0 || s.AgeSec != 0 {
		t.Fatalf("drained overlay stats: %+v", s)
	}

	// Ids stayed stable: upserting onto a previously-delta id works.
	if _, err := ov.Upsert(late.User, d.Profiles[2]); err != nil {
		t.Fatalf("upsert onto absorbed delta id: %v", err)
	}
	checkRow(t, ov.View(), late.User)
}

// TestRebaseKeepsRecordProfile: a record written after a compaction's
// capture survives the Rebase whole, also when its user is one the
// snapshot absorbed. Its row stays the patched one, while the profile
// and fingerprint it carries are the snapshot's own; Stats counts it,
// and the next compaction drops it.
func TestRebaseKeepsRecordProfile(t *testing.T) {
	ov, d := testOverlay(t, 0.02)
	a, err := ov.Upsert(-1, d.Profiles[7])
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := ov.Compact()
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// b shares a's profile, so it enters a's row at similarity 1.
	b, err := ov.Upsert(-1, d.Profiles[7])
	if err != nil {
		t.Fatal(err)
	}
	ids, sims := ov.View().Neighbors(a.User)
	if !slices.Contains(ids, b.User) {
		t.Fatalf("upsert %d did not patch the row of %d: %v", b.User, a.User, ids)
	}
	wantIDs, wantSims := slices.Clone(ids), slices.Clone(sims)

	if err := ov.Rebase(cmp.Graph, cmp.Train, cmp.GoldFinger, cmp.Marker); err != nil {
		t.Fatalf("Rebase: %v", err)
	}
	v := ov.View()
	if a.User >= int32(v.BaseUsers()) {
		t.Fatalf("user %d not absorbed: base covers %d users", a.User, v.BaseUsers())
	}
	if p := v.patches[a.User]; p == nil || p.seq != b.Seq {
		t.Fatalf("record of %d = %+v, want one at seq %d", a.User, p, b.Seq)
	}
	if got := v.Profile(a.User); !slices.Equal(got, cmp.Train.Profiles[a.User]) {
		t.Fatalf("profile of %d = %v, compacted base holds %v", a.User, got, cmp.Train.Profiles[a.User])
	}
	words, ones := v.signature(a.User)
	if !slices.Equal(words, cmp.GoldFinger.Signature(a.User)) || int(ones) != cmp.GoldFinger.Ones(a.User) {
		t.Fatalf("signature of %d diverges from the compacted base", a.User)
	}
	gotIDs, gotSims := v.Neighbors(a.User)
	if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotSims, wantSims) {
		t.Fatalf("row of %d = %v, want the patched %v", a.User, gotIDs, wantIDs)
	}
	// Every kept record is b's: its own and the rows it patched.
	if s := ov.Stats(); s.PatchedRows != len(v.patches) || s.PatchedRows != 1+b.Patched {
		t.Fatalf("PatchedRows = %d, want %d records (b and the %d rows it patched)", s.PatchedRows, 1+b.Patched, b.Patched)
	}

	cmp2, err := ov.Compact()
	if err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	if err := ov.Rebase(cmp2.Graph, cmp2.Train, cmp2.GoldFinger, cmp2.Marker); err != nil {
		t.Fatalf("second Rebase: %v", err)
	}
	v = ov.View()
	if p := v.patches[a.User]; p != nil {
		t.Fatalf("record of %d survived the second compaction: %+v", a.User, p)
	}
	if s := ov.Stats(); s.PatchedRows != 0 {
		t.Fatalf("PatchedRows = %d after draining the overlay, want 0", s.PatchedRows)
	}
	gotIDs, gotSims = v.Neighbors(a.User)
	if !slices.Equal(gotIDs, wantIDs) || !slices.Equal(gotSims, wantSims) {
		t.Fatalf("row of %d = %v after the second compaction, want %v", a.User, gotIDs, wantIDs)
	}
}

func TestRebaseValidation(t *testing.T) {
	ov, d := testOverlay(t, 0.01)
	if _, err := ov.Upsert(-1, d.Profiles[0]); err != nil {
		t.Fatal(err)
	}
	cmp, err := ov.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if err := ov.Rebase(nil, cmp.Train, cmp.GoldFinger, cmp.Marker); err == nil {
		t.Error("Rebase accepted a nil graph")
	}
	// Artifacts that lost the delta user: rebase must refuse, since the
	// marker claims the upsert was absorbed but the base doesn't hold it.
	oldView := ov.View()
	if err := ov.Rebase(oldView.graph, oldView.train, oldView.gf, cmp.Marker); err == nil {
		t.Error("Rebase accepted artifacts missing an absorbed user")
	}
}

// TestConcurrentUpsertsAndReads hammers the overlay with concurrent
// writers and readers; run under -race this is the memory-safety proof
// of the COW view protocol. Readers additionally assert monotone
// sequence numbers and per-view invariants.
func TestConcurrentUpsertsAndReads(t *testing.T) {
	ov, d := testOverlay(t, 0.02)
	const writers, readers, upserts = 4, 4, 40

	var wg sync.WaitGroup
	errc := make(chan error, writers+readers)
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < upserts; i++ {
				p := d.Profiles[(w*upserts+i*7)%d.NumUsers()]
				if _, err := ov.Upsert(-1, p); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastSeq uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := ov.View()
				if s := v.Seq(); s < lastSeq {
					errc <- fmt.Errorf("reader %d: seq went backwards %d → %d", r, lastSeq, s)
					return
				} else {
					lastSeq = s
				}
				for u := int32(0); u < int32(v.NumUsers()); u += 17 {
					ids, sims := v.Neighbors(u)
					if len(ids) != len(sims) {
						errc <- fmt.Errorf("reader %d: ragged row for %d", r, u)
						return
					}
					for i := 1; i < len(sims); i++ {
						if sims[i] > sims[i-1] {
							errc <- fmt.Errorf("reader %d: unsorted row for %d", r, u)
							return
						}
					}
					if v.Profile(u) == nil {
						errc <- fmt.Errorf("reader %d: user %d has no profile", r, u)
						return
					}
				}
			}
		}(r)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Writers finish first; then release the readers.
	for {
		s := ov.Stats()
		if s.Users == writers*upserts {
			break
		}
		select {
		case err := <-errc:
			t.Fatal(err)
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
	<-done
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	v := ov.View()
	if v.NumUsers() != d.NumUsers()+writers*upserts {
		t.Fatalf("NumUsers = %d, want %d", v.NumUsers(), d.NumUsers()+writers*upserts)
	}
	for u := int32(0); u < int32(v.NumUsers()); u++ {
		checkRow(t, v, u)
	}
}

// TestCompactionUnderLoad folds repeatedly while writers keep landing
// upserts; no write may be lost and every intermediate state must
// validate.
func TestCompactionUnderLoad(t *testing.T) {
	ov, d := testOverlay(t, 0.02)
	const writers, upserts = 3, 30

	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < upserts; i++ {
				p := d.Profiles[(w*upserts+i*5)%d.NumUsers()]
				if _, err := ov.Upsert(-1, p); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	compactions := 0
	for {
		cmp, err := ov.Compact()
		if err != nil {
			t.Fatalf("Compact under load: %v", err)
		}
		if err := ov.Rebase(cmp.Graph, cmp.Train, cmp.GoldFinger, cmp.Marker); err != nil {
			t.Fatalf("Rebase under load: %v", err)
		}
		compactions++
		select {
		case err := <-errc:
			t.Fatal(err)
		case <-done:
			// One final fold for the stragglers.
			cmp, err := ov.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if err := ov.Rebase(cmp.Graph, cmp.Train, cmp.GoldFinger, cmp.Marker); err != nil {
				t.Fatal(err)
			}
			v := ov.View()
			if v.NumUsers() != d.NumUsers()+writers*upserts {
				t.Fatalf("lost upserts: %d users, want %d", v.NumUsers(), d.NumUsers()+writers*upserts)
			}
			if v.BaseUsers() != v.NumUsers() {
				t.Fatalf("final fold left %d delta users", v.NumUsers()-v.BaseUsers())
			}
			s := ov.Stats()
			if s.Depth != 0 {
				t.Fatalf("final depth = %d", s.Depth)
			}
			if s.Compactions != uint64(compactions)+1 {
				t.Fatalf("compactions = %d, want %d", s.Compactions, compactions+1)
			}
			for u := int32(0); u < int32(v.NumUsers()); u++ {
				checkRow(t, v, u)
			}
			return
		default:
		}
	}
}

// TestMergedReadAllocs proves the read hot path of a patched view stays
// allocation-free.
func TestMergedReadAllocs(t *testing.T) {
	ov, d := testOverlay(t, 0.01)
	for i := 0; i < 5; i++ {
		if _, err := ov.Upsert(-1, d.Profiles[i]); err != nil {
			t.Fatal(err)
		}
	}
	v := ov.View()
	users := []int32{0, 1, int32(d.NumUsers()), int32(d.NumUsers()) + 2}
	allocs := testing.AllocsPerRun(100, func() {
		for _, u := range users {
			v.Neighbors(u)
			v.Profile(u)
			v.signature(u)
		}
	})
	if allocs != 0 {
		t.Fatalf("merged reads allocate %v per run, want 0", allocs)
	}
}

// TestDescendMatchesBuilder: for every user and every configuration,
// the overlay places the user in exactly the cluster frh.BuildWithHasher
// puts it in over the same users and profiles. It checks a base whose
// buckets split, the same base after a seeded stream of inserts and
// updates (some carrying items beyond the base universe), and the
// result of Compact + Rebase. The builder's hasher spans the merged item
// universe; it hashes every item as the overlay's does.
func TestDescendMatchesBuilder(t *testing.T) {
	frozen, d, gf := testBase(t, 0.05)
	opts := frh.Options{B: frh.DefaultB, T: frh.DefaultT, MaxSize: 40, Seed: 42}
	ov, err := Attach(withFRH(frozen, opts), d, gf, nil)
	if err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		v := ov.View()
		merged := &dataset.Dataset{NumItems: v.NumItems(), Profiles: make([][]int32, v.NumUsers())}
		for u := range merged.Profiles {
			merged.Profiles[u] = v.Profile(int32(u))
		}
		clusters, stats := frh.BuildWithHasher(merged, frh.NewHasher(merged.NumItems, opts), opts)
		if stats.Splits == 0 {
			t.Fatalf("%s: no bucket was split, so the check exercises no splitting", stage)
		}
		want := make([][]int32, opts.T*v.NumUsers())
		for _, c := range clusters {
			for _, u := range c.Users {
				want[c.Fn*v.NumUsers()+int(u)] = c.Users
			}
		}
		for fn := 0; fn < opts.T; fn++ {
			for u := range merged.Profiles {
				got := slices.Sorted(slices.Values(ov.place(fn, int32(u), v.Profile)))
				if w := slices.Sorted(slices.Values(want[fn*v.NumUsers()+u])); !slices.Equal(got, w) {
					t.Fatalf("%s: fn %d user %d placed in a %d-user cluster, builder's has %d users",
						stage, fn, u, len(got), len(w))
				}
			}
		}
	}
	check("base")

	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 96; i++ {
		p := slices.Clone(d.Profiles[rng.Intn(d.NumUsers())])
		if i%3 == 0 {
			p = append(p, d.NumItems+int32(rng.Intn(64)))
		}
		user := int32(-1)
		if i%2 == 1 {
			user = int32(rng.Intn(ov.View().NumUsers()))
			p = p[:1+rng.Intn(len(p))]
		}
		if _, err := ov.Upsert(user, p); err != nil {
			t.Fatal(err)
		}
	}
	check("stream")

	c, err := ov.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if err := ov.Rebase(c.Graph, c.Train, c.GoldFinger, c.Marker); err != nil {
		t.Fatal(err)
	}
	check("rebase")
}
