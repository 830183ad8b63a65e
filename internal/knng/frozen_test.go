package knng

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// randomGraph builds a graph over n users with up to k random neighbors
// each, using a deterministic pseudo-similarity so tests are repeatable
// without pulling in a similarity provider.
func randomGraph(n, k int, seed int64) *Graph {
	g := New(n, k)
	rng := rand.New(rand.NewSource(seed))
	FillRandom(g.Lists, rng, func(u, v int) float64 {
		// Quantized sims force plenty of ties to exercise deterministic
		// tie-breaking.
		return math.Round(rng.Float64()*16) / 16
	})
	return g
}

func TestFreezeMatchesGraphNeighbors(t *testing.T) {
	g := randomGraph(500, 10, 1)
	f := g.Freeze()
	if f.NumUsers() != g.NumUsers() {
		t.Fatalf("NumUsers = %d, want %d", f.NumUsers(), g.NumUsers())
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Freeze produced an invalid Frozen: %v", err)
	}
	edges := 0
	for u := 0; u < g.NumUsers(); u++ {
		want := g.Neighbors(int32(u))
		ids, sims := f.Neighbors(int32(u))
		if len(ids) != len(want) || len(sims) != len(want) {
			t.Fatalf("user %d: frozen degree %d, graph degree %d", u, len(ids), len(want))
		}
		for i, nb := range want {
			if ids[i] != nb.ID {
				t.Fatalf("user %d edge %d: frozen id %d, graph id %d", u, i, ids[i], nb.ID)
			}
			if sims[i] != float32(nb.Sim) {
				t.Fatalf("user %d edge %d: frozen sim %v, graph sim %v", u, i, sims[i], nb.Sim)
			}
		}
		edges += len(ids)
	}
	if f.NumEdges() != edges {
		t.Fatalf("NumEdges = %d, want %d", f.NumEdges(), edges)
	}
}

func TestFreezeSharesNoStorage(t *testing.T) {
	g := randomGraph(50, 5, 2)
	f := g.Freeze()
	before, _ := f.Neighbors(0)
	wantLen := len(before)
	// Mutating the graph afterwards must not affect the frozen view.
	for i := 0; i < 100; i++ {
		g.Insert(0, int32(1+i%49), 0.999)
	}
	after, _ := f.Neighbors(0)
	if len(after) != wantLen {
		t.Fatal("frozen graph changed after source mutation")
	}
}

func TestFrozenNeighborsZeroAlloc(t *testing.T) {
	g := randomGraph(200, 10, 3)
	f := g.Freeze()
	var sink float32
	allocs := testing.AllocsPerRun(1000, func() {
		ids, sims := f.Neighbors(17)
		if len(ids) > 0 {
			sink += sims[0]
		}
	})
	if allocs != 0 {
		t.Errorf("Frozen.Neighbors allocates %.1f per call, want 0", allocs)
	}
	_ = sink
}

func TestFrozenTopK(t *testing.T) {
	g := New(3, 3)
	g.Insert(0, 1, 0.5)
	g.Insert(0, 2, 0.9)
	f := g.Freeze()
	top := f.TopK(0, 1, nil)
	if len(top) != 1 || top[0].ID != 2 || top[0].Sim != float64(float32(0.9)) {
		t.Errorf("TopK(0,1) = %+v, want neighbor 2 at 0.9", top)
	}
	if got := f.TopK(0, 10, nil); len(got) != 2 {
		t.Errorf("TopK beyond degree returned %d neighbors, want 2", len(got))
	}
}

func TestFrozenAvgStoredSimMatchesGraph(t *testing.T) {
	g := randomGraph(300, 8, 4)
	f := g.Freeze()
	got, want := f.AvgStoredSim(), g.AvgStoredSim()
	if diff := got - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("AvgStoredSim: frozen %v, graph %v", got, want)
	}
}

func TestNewFrozenValidates(t *testing.T) {
	cases := []struct {
		name    string
		k       int
		offsets []int64
		ids     []int32
		sims    []float32
	}{
		{"empty offsets", 2, nil, nil, nil},
		{"nonzero first offset", 2, []int64{1, 2}, []int32{1, 0}, []float32{1, 1}},
		{"offsets decrease", 2, []int64{0, 2, 1}, []int32{1, 2}, []float32{1, 1}},
		{"length mismatch", 2, []int64{0, 2}, []int32{1, 0}, []float32{1}},
		{"degree exceeds k", 1, []int64{0, 2}, []int32{1, 1}, []float32{1, 1}},
		{"id out of range", 2, []int64{0, 1}, []int32{7}, []float32{1}},
		{"negative id", 2, []int64{0, 1, 1}, []int32{-1}, []float32{1}},
		{"self edge", 2, []int64{0, 1, 1}, []int32{0}, []float32{1}},
		{"nan sim", 2, []int64{0, 1, 1}, []int32{1}, []float32{float32(math.NaN())}},
		{"negative sim", 2, []int64{0, 1, 1}, []int32{1}, []float32{-0.5}},
		{"unsorted sims", 2, []int64{0, 2, 2, 2}, []int32{1, 2}, []float32{0.1, 0.9}},
		{"tied sims unsorted ids", 2, []int64{0, 2, 2, 2}, []int32{2, 1}, []float32{0.5, 0.5}},
		{"duplicate neighbor", 2, []int64{0, 2, 2, 2}, []int32{1, 1}, []float32{0.5, 0.5}},
	}
	for _, tc := range cases {
		if _, err := NewFrozen(tc.k, tc.offsets, tc.ids, tc.sims); err == nil {
			t.Errorf("%s: NewFrozen accepted invalid input", tc.name)
		}
	}
	// And a well-formed graph passes.
	if _, err := NewFrozen(2, []int64{0, 2, 2, 3}, []int32{1, 2, 0}, []float32{0.9, 0.1, 0.4}); err != nil {
		t.Errorf("valid input rejected: %v", err)
	}
}

// TestFreezeFloat32CollapsedTies: float64 sims that are distinct but
// collapse to the same float32 are ties in the CSR; Freeze must order
// them by id so the result passes Validate (regression: sorting on the
// pre-narrowing values put the higher-float64 neighbor first even with
// a larger id, and Encode/Save then rejected a legitimately built
// graph).
func TestFreezeFloat32CollapsedTies(t *testing.T) {
	g := New(3, 2)
	exact := 0.3333333333333333
	g.Insert(0, 2, exact)
	g.Insert(0, 1, float64(float32(exact)))
	f := g.Freeze()
	if err := f.Validate(); err != nil {
		t.Fatalf("Freeze output fails Validate on collapsed-tie sims: %v", err)
	}
	ids, sims := f.Neighbors(0)
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("collapsed ties ordered %v, want id-ascending [1 2]", ids)
	}
	if sims[0] != sims[1] {
		t.Fatalf("sims %v should have collapsed to the same float32", sims)
	}
}

func TestGraphNeighborsDeterministicTies(t *testing.T) {
	g := New(4, 3)
	g.Insert(0, 3, 0.5)
	g.Insert(0, 1, 0.5)
	g.Insert(0, 2, 0.5)
	want := []int32{1, 2, 3}
	for trial := 0; trial < 5; trial++ {
		nbs := g.Neighbors(0)
		for i, nb := range nbs {
			if nb.ID != want[i] {
				t.Fatalf("trial %d: tied neighbors ordered %v, want ids ascending %v", trial, nbs, want)
			}
		}
	}
}

// freezeSerial is the single-pass Freeze the parallel one must match
// byte for byte: append every user's canonically sorted row in order.
func freezeSerial(g *Graph) *Frozen {
	f := &Frozen{K: g.K, Offsets: make([]int64, g.NumUsers()+1)}
	var scratch []Neighbor
	for u := range g.Lists {
		scratch = append(scratch[:0], g.Lists[u].H...)
		sortNeighborsNarrowed(scratch)
		for _, nb := range scratch {
			f.IDs = append(f.IDs, nb.ID)
			f.Sims = append(f.Sims, float32(nb.Sim))
		}
		f.Offsets[u+1] = int64(len(f.IDs))
	}
	return f
}

// TestFreezeParallelMatchesSerial: splitting Freeze across goroutines
// must not change a byte of the CSR, including rows of every degree
// from empty to full and ties at float32 precision.
func TestFreezeParallelMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := randomGraph(2000, 30, 5)
	rng := rand.New(rand.NewSource(6))
	for u := range g.Lists {
		l := &g.Lists[u]
		switch u % 5 {
		case 0:
			l.H = l.H[:rng.Intn(len(l.H)+1)] // any degree, empty included
		case 1:
			// Distinct float64 sims that narrow to one float32.
			for i := range l.H {
				l.H[i].Sim = 0.5 + float64(rng.Intn(3))*1e-12
			}
		}
	}
	want, got := freezeSerial(g), g.Freeze()
	if got.K != want.K || !slices.Equal(got.Offsets, want.Offsets) || !slices.Equal(got.IDs, want.IDs) {
		t.Fatal("parallel Freeze layout differs from the serial reference")
	}
	if len(got.Sims) != len(want.Sims) {
		t.Fatalf("%d sims, serial reference %d", len(got.Sims), len(want.Sims))
	}
	for i := range want.Sims {
		if math.Float32bits(got.Sims[i]) != math.Float32bits(want.Sims[i]) {
			t.Fatalf("sim %d: %v, serial reference %v", i, got.Sims[i], want.Sims[i])
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}
