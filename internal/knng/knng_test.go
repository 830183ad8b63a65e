package knng

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"

	"c2knn/internal/similarity"
)

func TestListInsertBasics(t *testing.T) {
	l := List{K: 3}
	if l.Worst() != -1 {
		t.Errorf("Worst of empty list = %v, want -1", l.Worst())
	}
	if !l.Insert(1, 0.5) || !l.Insert(2, 0.3) || !l.Insert(3, 0.8) {
		t.Fatal("inserts into non-full list must succeed")
	}
	if l.Insert(1, 0.5) {
		t.Error("duplicate insert must fail")
	}
	if l.Worst() != 0.3 {
		t.Errorf("Worst = %v, want 0.3", l.Worst())
	}
	if l.Insert(4, 0.3) {
		t.Error("insert equal to worst on a full list must fail (strictness)")
	}
	if !l.Insert(4, 0.4) {
		t.Error("insert better than worst must succeed")
	}
	if l.Contains(2) {
		t.Error("evicted neighbor still present")
	}
	if l.Worst() != 0.4 {
		t.Errorf("Worst after eviction = %v, want 0.4", l.Worst())
	}
}

func TestListHeapInvariantUnderRandomOps(t *testing.T) {
	f := func(sims []float64) bool {
		l := List{K: 8}
		for i, s := range sims {
			// Map into [0,1] deterministically.
			if s < 0 {
				s = -s
			}
			s = s - float64(int(s))
			l.Insert(int32(i), s)
			if !l.checkHeap() {
				return false
			}
			if l.Len() > 8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestListRejectsDegenerateSims is the regression test for the NaN
// insertion bug: on a full list, a NaN candidate failed the
// `sim <= worst` rejection (every comparison with NaN is false), was
// accepted, and silently broke the min-heap invariant that the C² merge
// and the greedy refinement loops rely on.
func TestListRejectsDegenerateSims(t *testing.T) {
	l := List{K: 3}
	// NaN and negative sims must be rejected on a non-full list too.
	if l.Insert(1, math.NaN()) {
		t.Error("NaN insert into non-full list succeeded")
	}
	if l.Insert(2, -0.5) {
		t.Error("negative insert into non-full list succeeded")
	}
	if l.Len() != 0 {
		t.Fatalf("degenerate inserts left %d entries", l.Len())
	}
	for i, s := range []float64{0.5, 0.2, 0.8} {
		if !l.Insert(int32(10+i), s) {
			t.Fatalf("valid insert %d rejected", i)
		}
	}
	// The historical failure mode: full list, NaN candidate.
	if l.Insert(99, math.NaN()) {
		t.Error("NaN insert into full list succeeded")
	}
	if !l.checkHeap() {
		t.Error("heap invariant broken after NaN insert")
	}
	if l.Contains(99) {
		t.Error("NaN candidate retained")
	}
	if l.Insert(98, math.Inf(-1)) {
		t.Error("-Inf insert succeeded")
	}
	if !l.Insert(97, 0.9) || !l.checkHeap() {
		t.Error("list no longer usable after degenerate candidates")
	}
	if l.Worst() != 0.5 {
		t.Errorf("Worst = %v, want 0.5", l.Worst())
	}
}

// TestListKeepsTopK: after many inserts, the list holds exactly the k
// best similarities.
func TestListKeepsTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		const k = 10
		l := List{K: k}
		n := 40 + rng.Intn(100)
		sims := make([]float64, n)
		for i := range sims {
			sims[i] = rng.Float64()
			l.Insert(int32(i), sims[i])
		}
		sort.Float64s(sims)
		want := sims[n-k:]
		var got []float64
		for _, nb := range l.H {
			got = append(got, nb.Sim)
		}
		sort.Float64s(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: kept %v, want top-k %v", trial, got, want)
			}
		}
	}
}

func TestResetNewAndIDs(t *testing.T) {
	l := List{K: 4}
	l.Insert(1, 0.1)
	l.Insert(2, 0.2)
	fresh := l.ResetNew(nil)
	if len(fresh) != 2 {
		t.Fatalf("ResetNew returned %v, want two ids", fresh)
	}
	if again := l.ResetNew(nil); len(again) != 0 {
		t.Errorf("second ResetNew returned %v, want none", again)
	}
	l.Insert(3, 0.3)
	if third := l.ResetNew(nil); len(third) != 1 || third[0] != 3 {
		t.Errorf("ResetNew after new insert = %v, want [3]", third)
	}
	ids := l.IDs(nil)
	if len(ids) != 3 {
		t.Errorf("IDs = %v, want 3 ids", ids)
	}
}

func TestGraphInsertRejectsSelf(t *testing.T) {
	g := New(3, 2)
	if g.Insert(1, 1, 0.9) {
		t.Error("self edge accepted")
	}
	if !g.Insert(1, 2, 0.9) {
		t.Error("valid edge rejected")
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(2, 3)
	g.Insert(0, 1, 0.2)
	g.Insert(0, 1, 0.2) // duplicate ignored
	ns := g.Neighbors(0)
	if len(ns) != 1 || ns[0].ID != 1 {
		t.Fatalf("Neighbors = %v", ns)
	}
	g2 := New(5, 4)
	g2.Insert(0, 1, 0.1)
	g2.Insert(0, 2, 0.9)
	g2.Insert(0, 3, 0.5)
	ns = g2.Neighbors(0)
	for i := 1; i < len(ns); i++ {
		if ns[i].Sim > ns[i-1].Sim {
			t.Errorf("Neighbors not sorted: %v", ns)
		}
	}
}

func TestRandomInitDegreeAndSims(t *testing.T) {
	const n, k = 50, 5
	p := similarity.Func(func(u, v int32) float64 { return 0.5 })
	g := New(n, k)
	RandomInit(g, p, 1)
	for u := 0; u < n; u++ {
		if g.Lists[u].Len() != k {
			t.Fatalf("user %d degree = %d, want %d", u, g.Lists[u].Len(), k)
		}
		for _, nb := range g.Lists[u].H {
			if nb.ID == int32(u) {
				t.Fatalf("user %d has self edge", u)
			}
			if nb.Sim != 0.5 {
				t.Fatalf("edge sim not computed through provider")
			}
		}
	}
}

func TestRandomInitTinyPopulation(t *testing.T) {
	p := similarity.Func(func(u, v int32) float64 { return 1 })
	g := New(3, 10) // k exceeds population
	RandomInit(g, p, 1)
	for u := 0; u < 3; u++ {
		if g.Lists[u].Len() != 2 {
			t.Errorf("user %d degree = %d, want 2 (everyone else)", u, g.Lists[u].Len())
		}
	}
}

func TestAvgSimAndQuality(t *testing.T) {
	p := similarity.Func(func(u, v int32) float64 {
		if (u == 0 && v == 1) || (u == 1 && v == 0) {
			return 1.0
		}
		return 0.2
	})
	exact := New(2, 1)
	exact.Insert(0, 1, 1)
	exact.Insert(1, 0, 1)
	approx := New(2, 1)
	approx.Insert(0, 1, 1) // right edge
	// user 1 has no edge: counts as zero in Eq. (1)
	if got := exact.AvgSim(p); got != 1.0 {
		t.Errorf("exact AvgSim = %v, want 1", got)
	}
	if got := approx.AvgSim(p); got != 0.5 {
		t.Errorf("approx AvgSim = %v, want 0.5 (missing slots count 0)", got)
	}
	if got := Quality(approx, exact, p); got != 0.5 {
		t.Errorf("Quality = %v, want 0.5", got)
	}
}

func TestQualityZeroDenominator(t *testing.T) {
	p := similarity.Func(func(u, v int32) float64 { return 0 })
	if got := Quality(New(2, 1), New(2, 1), p); got != 0 {
		t.Errorf("Quality with empty exact graph = %v, want 0", got)
	}
}

func TestAvgStoredSim(t *testing.T) {
	g := New(2, 2)
	g.Insert(0, 1, 0.4)
	g.Insert(1, 0, 0.4)
	want := (0.4 + 0.4) / 4 // 2 edges over k×n = 4 slots
	if got := g.AvgStoredSim(); got != want {
		t.Errorf("AvgStoredSim = %v, want %v", got, want)
	}
}

// TestSharedConcurrentMerge: hammer one shared graph from many goroutines
// and verify the result equals a sequential merge. Similarities are a
// deterministic function of the pair (as in real use), which makes the
// bounded top-k heap order independent up to ties.
func TestSharedConcurrentMerge(t *testing.T) {
	const n, k, edges = 40, 6, 4000
	rng := rand.New(rand.NewSource(31))
	pairSim := func(u, v int32) float64 {
		return float64((int64(u)*48271+int64(v)*40503)%10007) / 10007
	}
	type edge struct {
		u, v int32
		s    float64
	}
	all := make([]edge, edges)
	for i := range all {
		u, v := int32(rng.Intn(n)), int32(rng.Intn(n))
		all[i] = edge{u, v, pairSim(u, v)}
	}
	seq := New(n, k)
	for _, e := range all {
		seq.Insert(e.u, e.v, e.s)
	}
	par := New(n, k)
	shared := NewShared(par)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < edges; i += 8 {
				shared.Insert(all[i].u, all[i].v, all[i].s)
			}
		}(w)
	}
	wg.Wait()
	for u := 0; u < n; u++ {
		a := seq.Neighbors(int32(u))
		b := shared.Graph().Neighbors(int32(u))
		if len(a) != len(b) {
			t.Fatalf("user %d: %d vs %d neighbors", u, len(a), len(b))
		}
		for i := range a {
			if a[i].Sim != b[i].Sim {
				t.Fatalf("user %d: neighbor sims diverge (%v vs %v)", u, a, b)
			}
		}
	}
}

func TestSharedMergeUser(t *testing.T) {
	g := New(2, 2)
	s := NewShared(g)
	s.MergeUser(0, []Neighbor{{ID: 1, Sim: 0.9}, {ID: 0, Sim: 0.5}})
	if !g.Lists[0].Contains(1) {
		t.Error("MergeUser dropped a valid neighbor")
	}
	if g.Lists[0].Contains(0) {
		t.Error("MergeUser accepted a self edge")
	}
}

// nanProvider returns NaN for every pair — the misbehaving-provider
// regression case: RandomInit must terminate with empty lists rather
// than spin now that Insert rejects degenerate similarities.
type nanProvider struct{}

func (nanProvider) Sim(u, v int32) float64 { return math.NaN() }

func TestRandomInitDegenerateProviderTerminates(t *testing.T) {
	g := New(20, 5)
	RandomInit(g, nanProvider{}, 1)
	for u := range g.Lists {
		if g.Lists[u].Len() != 0 {
			t.Fatalf("user %d retained %d NaN edges", u, g.Lists[u].Len())
		}
	}
}

// TestNewListsStayInTheirStripe: New carves every list from one slab;
// filling one list to k, and offering it more than k, never writes into
// its neighbours' stripes, and a list offered more than its stripe (k
// above n) grows elsewhere.
func TestNewListsStayInTheirStripe(t *testing.T) {
	g := New(5, 3)
	g.Insert(0, 4, 0.9)
	g.Insert(2, 4, 0.8)
	for v, sim := range []float64{0.1, 0.5, 0.3, 0.7, 0.6} {
		g.Insert(1, int32(v), sim)
	}
	if got := g.Lists[1].Len(); got != 3 {
		t.Fatalf("list 1 holds %d neighbors, want 3", got)
	}
	for _, u := range []int{0, 2} {
		if l := g.Lists[u]; l.Len() != 1 || l.H[0].ID != 4 {
			t.Fatalf("list %d is %+v after list 1 filled, want only neighbor 4", u, l.H)
		}
	}
	if c := cap(g.Lists[1].H); c != 3 {
		t.Fatalf("list 1 has capacity %d, want its stripe of 3", c)
	}

	wide := New(3, 8)
	for v := range int32(6) {
		wide.Lists[0].Insert(v+10, float64(v))
	}
	if wide.Lists[0].Len() != 6 || wide.Lists[1].Len() != 0 || len(wide.Lists[1].H[:cap(wide.Lists[1].H)]) != 3 {
		t.Fatalf("k above n: list 0 holds %d, list 1 %d", wide.Lists[0].Len(), wide.Lists[1].Len())
	}
	for _, nb := range wide.Lists[1].H[:cap(wide.Lists[1].H)] {
		if nb != (Neighbor{}) {
			t.Fatalf("growing list 0 wrote %+v into list 1's stripe", nb)
		}
	}
}
