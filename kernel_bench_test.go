// Microbenchmarks for the cluster-local similarity kernel layer: the
// gathered zero-dispatch hot path versus the Provider-dispatch path the
// seed shipped with, on the three hot loops C² actually runs (pairwise
// GoldFinger, cluster-local brute force, cluster-local Hyrec).
//
// The *Dispatch baselines are frozen, faithful ports of the seed's
// local solvers — dynamic Provider.Sim per pair, global-id re-slicing,
// duplicate-scan-first list inserts, per-cluster allocations — so the
// Gathered/Dispatch ratio measures exactly what this layer buys. The
// Gathered variants report 0 allocs/op thanks to per-worker scratch
// reuse. See EXPERIMENTS.md for measured numbers and the regression
// workflow these feed.
package c2knn_test

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"c2knn/internal/bruteforce"
	"c2knn/internal/core"
	"c2knn/internal/dataset"
	"c2knn/internal/goldfinger"
	"c2knn/internal/hyrec"
	"c2knn/internal/knng"
	"c2knn/internal/similarity"
	"c2knn/internal/synth"
)

var kernelBench struct {
	once    sync.Once
	data    *dataset.Dataset
	gf      *goldfinger.Set
	cluster []int32 // one 400-user pseudo-cluster
}

func kernelBenchSetup(b *testing.B) (*goldfinger.Set, []int32) {
	b.Helper()
	kernelBench.once.Do(func() {
		d := synth.Generate(synth.ML1M().Scale(0.5))
		kernelBench.data = d
		kernelBench.gf = goldfinger.MustNew(d, goldfinger.DefaultBits, 3)
		rng := rand.New(rand.NewSource(17))
		perm := rng.Perm(d.NumUsers())
		kernelBench.cluster = make([]int32, 400)
		for i := range kernelBench.cluster {
			kernelBench.cluster[i] = int32(perm[i])
		}
	})
	return kernelBench.gf, kernelBench.cluster
}

// --- seed-faithful baseline scaffolding ------------------------------

// seedList replicates the seed's knng.List: the duplicate scan ran
// before the O(1) threshold rejection on every insert.
type seedList struct {
	K int
	H []knng.Neighbor
}

func (l *seedList) contains(v int32) bool {
	for i := range l.H {
		if l.H[i].ID == v {
			return true
		}
	}
	return false
}

func (l *seedList) insert(v int32, sim float64) bool {
	if l.contains(v) {
		return false
	}
	if len(l.H) < l.K {
		l.H = append(l.H, knng.Neighbor{Sim: sim, ID: v, New: true})
		i := len(l.H) - 1
		for i > 0 {
			p := (i - 1) / 2
			if l.H[p].Sim <= l.H[i].Sim {
				break
			}
			l.H[p], l.H[i] = l.H[i], l.H[p]
			i = p
		}
		return true
	}
	if sim <= l.H[0].Sim {
		return false
	}
	l.H[0] = knng.Neighbor{Sim: sim, ID: v, New: true}
	i, n := 0, len(l.H)
	for {
		least := i
		if c := 2*i + 1; c < n && l.H[c].Sim < l.H[least].Sim {
			least = c
		}
		if c := 2*i + 2; c < n && l.H[c].Sim < l.H[least].Sim {
			least = c
		}
		if least == i {
			return true
		}
		l.H[i], l.H[least] = l.H[least], l.H[i]
		i = least
	}
}

func (l *seedList) ids(dst []int32) []int32 {
	for i := range l.H {
		dst = append(dst, l.H[i].ID)
	}
	return dst
}

func (l *seedList) resetNew(dst []int32) []int32 {
	for i := range l.H {
		if l.H[i].New {
			l.H[i].New = false
			dst = append(dst, l.H[i].ID)
		}
	}
	return dst
}

// seedSubset replicates the seed's hyrec.subsetProvider: one extra
// dynamic dispatch plus a global-id translation per pair.
type seedSubset struct {
	ids []int32
	p   similarity.Provider
}

func (s *seedSubset) Sim(u, v int32) float64 { return s.p.Sim(s.ids[u], s.ids[v]) }

// seedBruteForceLocal is the seed's bruteforce.Local: fresh lists per
// cluster, Provider dispatch and global ids on every pair.
func seedBruteForceLocal(ids []int32, k int, p similarity.Provider) []seedList {
	lists := make([]seedList, len(ids))
	for i := range lists {
		lists[i].K = k
	}
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			s := p.Sim(ids[i], ids[j])
			lists[i].insert(ids[j], s)
			lists[j].insert(ids[i], s)
		}
	}
	return lists
}

// seedHyrecLocal is the seed's hyrec.Local (Workers=1): random init and
// map-based candidate refinement through a subsetProvider.
func seedHyrecLocal(ids []int32, k int, p similarity.Provider, o hyrec.Options) []seedList {
	n := len(ids)
	sub := &seedSubset{ids: ids, p: p}
	lists := make([]seedList, n)
	for i := range lists {
		lists[i].K = k
	}
	rng := rand.New(rand.NewSource(o.Seed))
	for u := 0; u < n; u++ {
		for len(lists[u].H) < k && len(lists[u].H) < n-1 {
			v := int32(rng.Intn(n))
			if v == int32(u) || lists[u].contains(v) {
				continue
			}
			lists[u].insert(v, sub.Sim(int32(u), v))
		}
	}
	threshold := int64(o.Delta * float64(k) * float64(n))
	allSnap := make([][]int32, n)
	newSnap := make([][]int32, n)
	for iter := 0; iter < o.MaxIter; iter++ {
		for u := 0; u < n; u++ {
			allSnap[u] = lists[u].ids(allSnap[u][:0])
			newSnap[u] = lists[u].resetNew(newSnap[u][:0])
		}
		updates := int64(0)
		seen := make(map[int32]struct{}, k*k)
		for u := 0; u < n; u++ {
			clear(seen)
			uid := int32(u)
			for _, v := range newSnap[u] {
				for _, w2 := range allSnap[v] {
					seen[w2] = struct{}{}
				}
			}
			for _, v := range allSnap[u] {
				for _, w2 := range newSnap[v] {
					seen[w2] = struct{}{}
				}
			}
		candidates:
			for w2 := range seen {
				if w2 == uid {
					continue
				}
				for _, x := range allSnap[u] {
					if x == w2 {
						continue candidates
					}
				}
				s := sub.Sim(uid, w2)
				if lists[u].insert(w2, s) {
					updates++
				}
				if lists[w2].insert(uid, s) {
					updates++
				}
			}
		}
		if updates < threshold {
			break
		}
	}
	return lists
}

// --- pairwise GoldFinger ---------------------------------------------

func BenchmarkKernelPairsGoldFingerDispatch(b *testing.B) {
	gf, ids := kernelBenchSetup(b)
	var p similarity.Provider = gf // seed hot path: dynamic dispatch per pair
	var acc float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for x := range ids {
			for y := x + 1; y < len(ids); y++ {
				acc += p.Sim(ids[x], ids[y])
			}
		}
	}
	_ = acc
}

func BenchmarkKernelPairsGoldFingerGathered(b *testing.B) {
	gf, ids := kernelBenchSetup(b)
	var loc similarity.Local
	var acc float64
	similarity.GatherInto(gf, ids, &loc) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-gather each round, like a C² worker does per cluster.
		similarity.GatherInto(gf, ids, &loc)
		m := loc.Len()
		for x := 0; x < m; x++ {
			for y := x + 1; y < m; y++ {
				acc += loc.Sim(x, y)
			}
		}
	}
	_ = acc
}

// --- cluster-local brute force ---------------------------------------

func BenchmarkKernelLocalBruteForceDispatch(b *testing.B) {
	gf, ids := kernelBenchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seedBruteForceLocal(ids, 30, gf)
	}
}

func BenchmarkKernelLocalBruteForceGathered(b *testing.B) {
	gf, ids := kernelBenchSetup(b)
	var loc similarity.Local
	var s bruteforce.Scratch
	similarity.GatherInto(gf, ids, &loc)
	bruteforce.LocalInto(&loc, 30, &s, nil) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		similarity.GatherInto(gf, ids, &loc)
		bruteforce.LocalInto(&loc, 30, &s, nil)
	}
}

// --- full build: pipelined vs barrier --------------------------------

// The pipelined/barrier pair measures what streaming clusters into the
// solver pool buys end to end: the barrier variant materializes every
// cluster serially before the first worker starts (the pre-pipeline
// behaviour), the pipelined variant overlaps hashing with solving. The
// gap tracks ClusterTime — on multicore hardware the pipelined build
// hides it entirely.

func benchBuildOptions() core.Options {
	return core.Options{
		K: 30, B: 256, T: 8, MaxClusterSize: 200,
		Workers: runtime.GOMAXPROCS(0), Seed: 3,
	}
}

func BenchmarkKernelBuildBarrier(b *testing.B) {
	gf, _ := kernelBenchSetup(b)
	opts := benchBuildOptions()
	opts.DisablePipeline = true
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Build(kernelBench.data, gf, opts)
	}
}

func BenchmarkKernelBuildPipelined(b *testing.B) {
	gf, _ := kernelBenchSetup(b)
	opts := benchBuildOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Build(kernelBench.data, gf, opts)
	}
}

// --- cluster-local Hyrec ---------------------------------------------

func BenchmarkKernelLocalHyrecDispatch(b *testing.B) {
	gf, ids := kernelBenchSetup(b)
	o := hyrec.Options{Delta: 0.001, MaxIter: 5, Seed: 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seedHyrecLocal(ids, 30, gf, o)
	}
}

func BenchmarkKernelLocalHyrecGathered(b *testing.B) {
	gf, ids := kernelBenchSetup(b)
	o := hyrec.Options{MaxIter: 5, Seed: 7}
	var loc similarity.Local
	var s hyrec.Scratch
	similarity.GatherInto(gf, ids, &loc)
	hyrec.LocalInto(&loc, 30, o, &s) // warm the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		similarity.GatherInto(gf, ids, &loc)
		hyrec.LocalInto(&loc, 30, o, &s)
	}
}
