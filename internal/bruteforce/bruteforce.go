// Package bruteforce computes exact KNN graphs by exhaustive pairwise
// comparison — the paper's reference baseline (§IV-B1, n(n−1)/2 similarity
// computations) and also the local solver Cluster-and-Conquer applies to
// small clusters (§II-F).
//
// Both the global baseline and the cluster-local solver run row-batched:
// a user's similarities against a whole block of candidates are scored
// in one kernel call (similarity.Local.SimRow locally,
// similarity.RowProvider globally when available) into a scratch row,
// and results enter the bounded neighbor lists through a threshold gate
// (knng.List's Min/WouldAccept fast path, mirrored into dense scratch
// inside the local sweep) that dismisses the vast majority of
// candidates with one comparison once lists warm up. The blocked path
// is bit-for-bit graph-identical to the pair-at-a-time formulation —
// LocalIntoScalar keeps that formulation as the frozen reference the
// equivalence tests and regression benchmarks compare against.
package bruteforce

import (
	"math/bits"

	"c2knn/internal/knng"
	"c2knn/internal/schedule"
	"c2knn/internal/similarity"
)

// Build computes the exact KNN graph over users 0..n-1 with neighborhoods
// of size k, parallelized over `workers` goroutines. Each unordered pair
// is evaluated exactly once and the result feeds both endpoints' lists.
// Rows are scored in one batch — through p's RowProvider fast path when
// it has one — and each row's forward edges enter the graph under a
// single stripe-lock acquisition (knng.Shared.InsertRun), halving the
// baseline's lock traffic versus the historical two locks per pair.
// k ≤ 0 means the default 30, as in the other builders.
func Build(n, k int, p similarity.Provider, workers int) *knng.Graph {
	if k <= 0 {
		k = 30
	}
	g := knng.New(n, k)
	if n < 2 {
		return g
	}
	if workers < 1 {
		workers = 1
	}
	shared := knng.NewShared(g)
	rp, _ := p.(similarity.RowProvider)
	rows := make([][]float64, workers) // per-worker scored row
	schedule.Run(workers, n-1, func(w, u int) {
		row := similarity.GrowRow(rows[w], n-u-1)
		rows[w] = row
		if rp != nil {
			rp.SimRow(int32(u), int32(u+1), int32(n), row)
		} else {
			for v := u + 1; v < n; v++ {
				row[v-u-1] = p.Sim(int32(u), int32(v))
			}
		}
		// Forward edges batched under one lock; reverse edges fan out
		// to n-u-1 distinct users and keep per-pair locking. Per list,
		// the insert sequence is the same as the historical interleaved
		// loop, so single-worker results are identical.
		shared.InsertRun(int32(u), int32(u+1), row)
		for v := u + 1; v < n; v++ {
			shared.Insert(int32(v), int32(u), row[v-u-1])
		}
	})
	return g
}

// Scratch holds the reusable per-worker state of LocalInto: the neighbor
// lists under construction, the scored similarity row of the blocked
// sweep, and the dense per-list gate thresholds. The zero value is
// ready to use; reusing one Scratch across clusters makes steady-state
// solving allocation-free.
type Scratch struct {
	lists []knng.List
	slab  []knng.Neighbor
	row   []float64
	mins  []float64
	// hsims/hids/lens are the sweep's parallel-array heaps: list v's
	// heap lives in hsims[v·k:(v+1)·k] / hids[v·k:(v+1)·k] with lens[v]
	// entries, and is materialized into slab's knng.Neighbor form only
	// once the sweep finishes. Splitting Sim and ID halves the bytes a
	// sift level touches (8-byte keys instead of 16-byte structs), which
	// matters once the scoring kernel is vectorized and the sift loops
	// become the solve's largest term.
	hsims []float64
	hids  []int32
	lens  []int32
}

// growInt32 is similarity.GrowRow for int32 scratch.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// LocalInto computes the exact KNN lists of the gathered cluster loc,
// evaluating every unordered member pair once through loc's zero-
// dispatch kernel. The returned lists are parallel to loc.IDs(), hold
// global user ids, and alias s's scratch: they are valid only until the
// next LocalInto call on s. This is the per-cluster solver used by C²
// and LSH; it is sequential — parallelism comes from processing many
// clusters at once.
//
// The sweep is triangular and blocked: member i's similarities against
// members i+1..m-1 are scored in one SimRow call into the scratch row,
// then offered to both endpoints' lists behind a threshold gate. The
// gate thresholds live in a dense scratch array (mins[v] mirrors
// lists[v].Min(), with the row-owner's threshold held in a local), so a
// rejected candidate — the overwhelming majority once lists warm up —
// costs one compare of two contiguous scratch reads instead of an
// Insert call chasing into the target list's heap storage. The gate is
// conservative-exact: sim > mins[v] admits every candidate Insert could
// accept (mins is -1 while a list has room; heapOffer still rejects
// degenerate sims).
//
// Bit-for-bit equivalence with the pair-at-a-time loop
// (LocalIntoScalar) holds because each list's state evolves
// independently and its candidate arrival order is unchanged — list v
// still sees (i, v) for i < v in ascending i, then (v, j) for j > v in
// ascending j — and a gated-out candidate is precisely one Insert would
// reject without changing the list, so tie-breaking is identical and
// both paths produce bit-identical lists.
//
// floors, when non-nil, is parallel to loc.IDs() and seeds each list's
// gate: floors[v] replaces the -1 of an empty list, so member v's list
// only ever admits candidates with sim > floors[v]. C² passes each
// member's current global k-th similarity (-1 while its global list
// has room): the merge rejects anything at or below it, so those
// candidates are dead weight in the local heap. A nil floors keeps
// every list open from -1.
func LocalInto(loc *similarity.Local, k int, s *Scratch, floors []float64) []knng.List {
	m := loc.Len()
	// One contiguous slab backs every list's heap; for the large
	// clusters of the brute-force regime this also spares thousands of
	// first-use heap allocations per fresh Scratch.
	s.lists, s.slab = knng.ReuseListsIn(s.lists, s.slab, m, k)
	lists := s.lists
	if m < 2 {
		return lists
	}
	s.row = similarity.GrowRow(s.row, min(m-1, colBlock))
	s.mins = similarity.GrowRow(s.mins, m)
	mins := s.mins
	if floors != nil {
		copy(mins, floors[:m])
	} else {
		for v := range mins {
			mins[v] = -1 // empty lists accept anything well-formed
		}
	}
	// The sweep walks vertical panels of colBlock columns, row-major
	// inside each panel: for clusters whose gathered kernel outgrows the
	// cache, a row pass then touches only the panel's slice of the
	// signature slab (and of the list slab), instead of streaming the
	// whole cluster's signatures through the cache once per row.
	//
	// Lists run on local indices; ids are remapped once at the end
	// (k entries per member) instead of once per pair.
	// The sweep runs on parallel-array heaps (hsims/hids, one k-slot
	// stripe per list) rather than on knng.List directly: the sift
	// decisions and moves below are exactly List's, so the array state
	// matches the Neighbor heap List would hold index for index, but a
	// sift level touches half the bytes. Lists are materialized — and
	// ids remapped to global — in one pass after the sweep.
	s.hsims = similarity.GrowRow(s.hsims, m*k)
	s.hids = growInt32(s.hids, m*k)
	s.lens = growInt32(s.lens, m)
	hsims, hids, lens := s.hsims, s.hids, s.lens
	for v := range lens {
		lens[v] = 0
	}
	for c0 := 1; c0 < m; c0 += colBlock {
		c1 := min(c0+colBlock, m)
		for i := 0; i < c1-1; i++ {
			lo := max(i+1, c0)
			row := s.row[:c1-lo]
			loc.SimRow(i, lo, c1, row)
			iBase := i * k
			simsI, idsI := hsims[iBase:iBase+k], hids[iBase:iBase+k]
			nI := int(lens[i])
			minI := mins[i] // reverse inserts into list i precede row i
			// minsPane realigns the gate thresholds to the row so the
			// per-pair reads are provably in bounds.
			minsPane := mins[lo:c1]
			minsPane = minsPane[:len(row)]
			// Gate scan: one branchless compare kernel builds per-row
			// accept bitmasks (gateMasks — AVX under the vector
			// kernel), and the offer loops below touch only set bits.
			// Once lists warm up ~90% of pairs fail both gates; the
			// masks turn those from two mispredictable branches per
			// pair into a TrailingZeros walk over sparse words. The
			// scan is exact, not heuristic: the rev mask equals the
			// per-column gate (minsPane[x] is updated only by column
			// x's own insert, and each column appears once per row),
			// the fwd mask is a superset frozen at row start (minI
			// only rises) and each forward offer rechecks the live
			// minI. Each list's own candidate arrival order is
			// untouched, so the result stays bit-identical.
			var fwdM, revM [maskWords]uint64
			gateMasks(row, minsPane, minI, &fwdM, &revM)
			nw := (len(row) + 63) / 64
			for w := 0; w < nw; w++ {
				// heapOffer, not Insert-with-duplicate-scan: the
				// triangular sweep offers (j to list i, i to list j)
				// exactly once each, so the scan is provably dead.
				for b := fwdM[w]; b != 0; b &= b - 1 {
					x := w<<6 + bits.TrailingZeros64(b)
					if sim := row[x]; sim > minI {
						nI = heapOffer(simsI, idsI, nI, k, int32(lo+x), sim)
						if nI == k {
							minI = simsI[0]
						}
					}
				}
				// Prefetch the reverse targets' heap stripes now: the
				// sift loop's loads are a dependent chain into a
				// stripe that is cold by the time its list is hit
				// again, and the hint streams those lines in while
				// the remaining words are scanned.
				for b := revM[w]; b != 0; b &= b - 1 {
					jBase := (lo + w<<6 + bits.TrailingZeros64(b)) * k
					prefetchStripe(&hsims[jBase], &hids[jBase], k)
				}
			}
			lens[i] = int32(nI)
			mins[i] = minI
			// Insert phase: drain the accepted reverse offers.
			for w := 0; w < nw; w++ {
				for b := revM[w]; b != 0; b &= b - 1 {
					x := w<<6 + bits.TrailingZeros64(b)
					j := lo + x
					jBase := j * k
					simsJ, idsJ := hsims[jBase:jBase+k], hids[jBase:jBase+k]
					nJ := heapOffer(simsJ, idsJ, int(lens[j]), k, int32(i), row[x])
					lens[j] = int32(nJ)
					if nJ == k {
						minsPane[x] = simsJ[0]
					}
				}
			}
		}
	}
	// Materialize: copy each heap stripe into the list's Neighbor slab
	// (every entry was inserted this solve, hence New) and remap local
	// member indices to global user ids in the same pass.
	for v := range lists {
		n := int(lens[v])
		h := s.slab[v*k : v*k+n]
		base := v * k
		for x := range h {
			h[x] = knng.Neighbor{
				Sim: hsims[base+x],
				ID:  loc.ID(int(hids[base+x])),
				New: true,
			}
		}
		lists[v].H = h
	}
	return lists
}

// heapOffer offers (id, sim) to the k-bounded parallel-array min-heap
// holding n entries in sims/ids and returns the new entry count. Its
// decisions — degenerate-sim rejection, strict threshold on a full
// heap, hole-push sifts with List's child-selection and tie rules —
// are knng.List.Insert's without its duplicate scan (the sweep offers
// each id to a list once), so the array heap evolves into exactly the
// layout the List heap would have.
func heapOffer(sims []float64, ids []int32, n, k int, id int32, sim float64) int {
	if sim != sim || sim < 0 {
		return n
	}
	if n >= k {
		if sim <= sims[0] {
			return n
		}
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			// Conditional-move child pick, as in List.siftDown.
			if c2 := c + 1; c2 < n {
				if sims[c2] < sims[c] {
					c = c2
				}
			}
			if sims[c] >= sim {
				break
			}
			sims[i], ids[i] = sims[c], ids[c]
			i = c
		}
		sims[i], ids[i] = sim, id
		return n
	}
	i := n
	for i > 0 {
		p := (i - 1) / 2
		if sims[p] <= sim {
			break
		}
		sims[i], ids[i] = sims[p], ids[p]
		i = p
	}
	sims[i], ids[i] = sim, id
	return n + 1
}

// colBlock is the panel width of LocalInto's blocked sweep. 512
// columns keep a panel's signature slice (64 KB at the paper's
// 1024-bit fingerprints) and its slice of the list slab (≈240 KB at
// k=30) L2-resident across the whole sweep — without panels a cluster
// near the splitting threshold streams its entire gathered slab
// through the cache once per row, and the solve turns bandwidth-bound
// (measured ≈25% slower at 1600 members). 128 through 512 measure
// within noise of each other; what matters is staying well under the
// cache while keeping SimRow calls long.
const colBlock = 512

// LocalIntoScalar is the frozen pair-at-a-time formulation of LocalInto:
// one Sim call and two ungated heap-insert calls per unordered pair,
// running the insert path exactly as it stood before the blocked sweep
// landed (scalarInsert below — threshold check, duplicate scan on
// acceptance, swap-based sifts). It is kept as the reference
// implementation the blocked sweep is proven bit-identical to
// (TestLocalIntoBlockedMatchesScalar) and as the baseline of the
// BenchmarkLocalSolve* regression family, so later knng.List
// improvements do not silently inflate the baseline; production callers
// use LocalInto.
//
// floors gates exactly as in LocalInto: with floors non-nil, a pair
// reaches list v's insert only when sim > floors[v].
func LocalIntoScalar(loc *similarity.Local, k int, s *Scratch, floors []float64) []knng.List {
	m := loc.Len()
	s.lists = knng.ReuseLists(s.lists, m, k)
	lists := s.lists
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			sim := loc.Sim(i, j)
			// The nil case stays ungated so the reference keeps its
			// frozen cost profile.
			if floors == nil || sim > floors[i] {
				scalarInsert(&lists[i], int32(j), sim)
			}
			if floors == nil || sim > floors[j] {
				scalarInsert(&lists[j], int32(i), sim)
			}
		}
	}
	remapIDs(loc, lists)
	return lists
}

// scalarInsert is a verbatim port of knng.List.Insert (and its
// swap-based sifts) as of the pair-at-a-time solver, operating on the
// exported List fields. Decisions and resulting heap layout are
// identical to the live Insert, so LocalIntoScalar's output stays a
// valid equivalence reference; only its cost profile is frozen.
func scalarInsert(l *knng.List, v int32, sim float64) bool {
	if sim != sim || sim < 0 {
		return false
	}
	if len(l.H) >= l.K {
		if sim <= l.H[0].Sim || l.Contains(v) {
			return false
		}
		l.H[0] = knng.Neighbor{ID: v, Sim: sim, New: true}
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
	if l.Contains(v) {
		return false
	}
	l.H = append(l.H, knng.Neighbor{ID: v, Sim: sim, New: true})
	for i := len(l.H) - 1; i > 0; {
		p := (i - 1) / 2
		if l.H[p].Sim <= l.H[i].Sim {
			break
		}
		l.H[p], l.H[i] = l.H[i], l.H[p]
		i = p
	}
	return true
}

// remapIDs rewrites the lists' local member indices to global user ids.
func remapIDs(loc *similarity.Local, lists []knng.List) {
	for i := range lists {
		h := lists[i].H
		for x := range h {
			h[x].ID = loc.ID(int(h[x].ID))
		}
	}
}

// Local computes the exact KNN lists of the users in ids, restricted to
// candidates within ids, gathering p into a fresh cluster-local kernel
// first. The returned lists are parallel to ids and hold global user
// ids. Hot callers (core, lsh) use LocalInto with per-worker scratch
// instead.
func Local(ids []int32, k int, p similarity.Provider) []knng.List {
	var loc similarity.Local
	similarity.GatherInto(p, ids, &loc)
	var s Scratch
	return LocalInto(&loc, k, &s, nil)
}

// PairCount returns the number of similarity computations Build/Local
// perform for a population of size n: n(n−1)/2. It is the cost model C²
// uses when choosing between brute force and Hyrec for a cluster.
func PairCount(n int) int64 {
	return int64(n) * int64(n-1) / 2
}
