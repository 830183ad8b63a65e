package similarity

import (
	"math"
	"sync/atomic"

	"c2knn/internal/sets"
)

// Localizer is the optional fast path a Provider may implement for
// cluster-local solvers. Gather copies everything needed to compare the
// users in ids into dst's reusable scratch buffers, after which
// dst.Sim(i, j) serves pair similarities by local index with no
// interface dispatch and no global-id re-slicing — the tight kernel the
// paper's "number of similarity computations" cost model assumes.
//
// Implementations must leave dst fully initialized for ids; dst may
// have been used for a different (differently sized) cluster before.
// Custom providers initialize dst through one of the exported hooks:
// InitBits for dense bit-signature kernels, or InitProvider to serve
// pairs through their own Sim (still skipping the per-pair Localizer
// type assertion and gaining the gathered id table).
type Localizer interface {
	Gather(ids []int32, dst *Local)
}

// localKind selects Local's similarity kernel. Local is deliberately a
// concrete struct dispatching on this enum rather than an interface:
// the per-pair call in the local solvers' hot loops compiles to a
// direct call plus one predictable branch instead of an itab lookup.
type localKind uint8

const (
	// kindProvider falls back to Provider dispatch on global ids.
	kindProvider localKind = iota
	// kindBits is the dense bit-signature kernel (GoldFinger): Jaccard
	// from AND-popcounts over a gathered contiguous block, with the
	// union derived from precomputed per-member popcounts.
	kindBits
	// kindJaccard and kindCosine compare gathered raw-profile slices.
	kindJaccard
	kindCosine
)

// Local is a gathered cluster-local similarity kernel. It answers
// Sim(i, j) for local member indices 0..Len()-1 and maps them back to
// global user ids with ID. The zero value is ready for GatherInto;
// reusing one Local across many clusters reuses its scratch buffers, so
// steady-state gathering allocates nothing.
//
// A Local is confined to the worker that gathered it; it must not be
// shared across goroutines.
type Local struct {
	kind localKind
	ids  []int32

	// Bit-signature kernel: a len(ids)×words contiguous block plus
	// per-member popcounts, so Jaccard needs only the AND popcount per
	// pair (union = ones[i] + ones[j] − inter).
	words int
	sigs  []uint64
	ones  []int32

	// Raw-profile kernels: gathered profile slice headers, indexed by
	// local id (one indirection instead of the global profiles table).
	profs [][]int32

	// Provider fallback.
	p Provider

	// counter, when set, is bumped once per Sim call; Counting providers
	// install it so gathered kernels stay instrumented.
	counter *atomic.Int64
}

// Len returns the number of members gathered.
func (l *Local) Len() int { return len(l.ids) }

// ID returns the global user id of local member i.
func (l *Local) ID(i int) int32 { return l.ids[i] }

// IDs returns the gathered members' global ids. The slice aliases the
// one passed to Gather and must not be mutated.
func (l *Local) IDs() []int32 { return l.ids }

func (l *Local) reset(kind localKind, ids []int32) {
	l.kind = kind
	l.ids = ids
	l.p = nil
	l.counter = nil
}

// InitBits configures l as a dense bit-signature kernel over ids and
// returns the signature block (len(ids)×words uint64s, member i at
// words i·words..(i+1)·words) and the per-member popcount buffer, both
// reused from l's scratch, for the Localizer to fill.
func (l *Local) InitBits(ids []int32, words int) (sigs []uint64, ones []int32) {
	l.reset(kindBits, ids)
	l.words = words
	if need := len(ids) * words; cap(l.sigs) < need {
		l.sigs = make([]uint64, need)
	} else {
		l.sigs = l.sigs[:need]
	}
	if cap(l.ones) < len(ids) {
		l.ones = make([]int32, len(ids))
	} else {
		l.ones = l.ones[:len(ids)]
	}
	return l.sigs, l.ones
}

// InitProvider configures l to serve pairs by dispatching to p on
// global ids — the safe initializer for external Localizer
// implementations that have no dense representation to gather.
func (l *Local) InitProvider(ids []int32, p Provider) {
	l.reset(kindProvider, ids)
	l.p = p
}

// initProfiles configures l as a raw-profile kernel, gathering the
// members' profile slice headers into contiguous scratch.
func (l *Local) initProfiles(kind localKind, ids []int32, profiles [][]int32) {
	l.reset(kind, ids)
	l.profs = l.profs[:0]
	for _, id := range ids {
		l.profs = append(l.profs, profiles[id])
	}
}

// GatherInto prepares dst to serve pair similarities within ids: via
// p's own Localizer implementation when it has one, through a generic
// Provider-dispatch kernel otherwise. dst is reusable across calls of
// any cluster size.
func GatherInto(p Provider, ids []int32, dst *Local) {
	if loc, ok := p.(Localizer); ok {
		loc.Gather(ids, dst)
		return
	}
	dst.InitProvider(ids, p)
}

// Sim returns the similarity of local members i and j. All kernels
// produce bit-identical float64s to the corresponding global
// Provider.Sim — local solvers built on either path yield the same
// graphs.
func (l *Local) Sim(i, j int) float64 {
	if l.counter != nil {
		l.counter.Add(1)
	}
	switch l.kind {
	case kindBits:
		w := l.words
		// Per-pair form of the count kernel: the scalar specializations
		// (andCount16 and friends) — the run-shaped SimRow/SimBatch
		// paths are where the vector kernels engage.
		inter := AndCount(l.sigs[i*w:(i+1)*w], l.sigs[j*w:(j+1)*w])
		union := int(l.ones[i]) + int(l.ones[j]) - inter
		if union == 0 {
			return 0
		}
		return float64(inter) / float64(union)
	case kindJaccard:
		a, b := l.profs[i], l.profs[j]
		inter := sets.IntersectCount(a, b)
		union := len(a) + len(b) - inter
		if union == 0 {
			return 0
		}
		return float64(inter) / float64(union)
	case kindCosine:
		a, b := l.profs[i], l.profs[j]
		if len(a) == 0 || len(b) == 0 {
			return 0
		}
		inter := sets.IntersectCount(a, b)
		return float64(inter) / math.Sqrt(float64(len(a))*float64(len(b)))
	default:
		return l.p.Sim(l.ids[i], l.ids[j])
	}
}

// SimRow scores local member i against the contiguous block of local
// members [j0, j1), writing Sim(i, j0+x) into dst[x]. dst must hold at
// least j1-j0 elements. Each dst entry is bit-identical to the
// corresponding Sim call; what SimRow buys is the batch shape: the
// kernel switch, the counter bump, and member i's data are amortized
// over the whole block, the inner loop walks the gathered slab
// contiguously, and — because consecutive pairs are independent — the
// per-pair float divides pipeline instead of serializing against the
// caller's consumption of each result. This is the hot loop of the
// blocked cluster solvers (bruteforce.LocalInto's triangular sweep,
// hyrec's candidate batches).
func (l *Local) SimRow(i, j0, j1 int, dst []float64) {
	dst = dst[:j1-j0]
	if len(dst) == 0 {
		return
	}
	if l.counter != nil {
		l.counter.Add(int64(len(dst)))
	}
	switch l.kind {
	case kindBits:
		w := l.words
		BitSimRow(dst, l.sigs[i*w:(i+1)*w], int(l.ones[i]), l.sigs, l.ones, j0, w)
	case kindJaccard:
		a := l.profs[i]
		for x := range dst {
			b := l.profs[j0+x]
			inter := sets.IntersectCount(a, b)
			union := len(a) + len(b) - inter
			if union == 0 {
				dst[x] = 0
			} else {
				dst[x] = float64(inter) / float64(union)
			}
		}
	case kindCosine:
		a := l.profs[i]
		for x := range dst {
			b := l.profs[j0+x]
			if len(a) == 0 || len(b) == 0 {
				dst[x] = 0
				continue
			}
			inter := sets.IntersectCount(a, b)
			dst[x] = float64(inter) / math.Sqrt(float64(len(a))*float64(len(b)))
		}
	default:
		gi := l.ids[i]
		for x := range dst {
			dst[x] = l.p.Sim(gi, l.ids[j0+x])
		}
	}
}

// GrowRow returns a float64 slice of length n, reusing buf's storage
// when it is large enough — the scratch-row helper for SimRow/SimBatch
// callers (the solvers keep one row per worker Scratch, so steady-state
// scoring allocates nothing). The returned slice's contents are
// unspecified; kernels overwrite every element they are asked for.
func GrowRow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// SimBatch scores local member i against an arbitrary list of local
// member indices, writing Sim(i, int(js[x])) into dst[x]. dst must hold
// at least len(js) elements. It is SimRow for non-contiguous blocks —
// the shape of Hyrec's candidate sets — trading the contiguous slab
// walk for a gather but keeping the amortized dispatch and pipelined
// divides. Results are bit-identical to per-pair Sim calls.
func (l *Local) SimBatch(i int, js []int32, dst []float64) {
	dst = dst[:len(js)]
	if len(dst) == 0 {
		return
	}
	if l.counter != nil {
		l.counter.Add(int64(len(dst)))
	}
	switch l.kind {
	case kindBits:
		w := l.words
		bitSimBatch(dst, l.sigs[i*w:(i+1)*w], int(l.ones[i]), l.sigs, l.ones, js, w)
	case kindJaccard:
		a := l.profs[i]
		for x, j := range js {
			b := l.profs[j]
			inter := sets.IntersectCount(a, b)
			union := len(a) + len(b) - inter
			if union == 0 {
				dst[x] = 0
			} else {
				dst[x] = float64(inter) / float64(union)
			}
		}
	case kindCosine:
		a := l.profs[i]
		for x, j := range js {
			b := l.profs[j]
			if len(a) == 0 || len(b) == 0 {
				dst[x] = 0
				continue
			}
			inter := sets.IntersectCount(a, b)
			dst[x] = float64(inter) / math.Sqrt(float64(len(a))*float64(len(b)))
		}
	default:
		gi := l.ids[i]
		for x, j := range js {
			dst[x] = l.p.Sim(gi, l.ids[j])
		}
	}
}

// BitSimRow writes into dst the Jaccard estimates of one signature
// against the contiguous run of slab members j0, j0+1, … (one per dst
// element): dst[x] = inter/(aOnes + ones[j0+x] − inter), 0 when the
// union is empty. a must hold exactly `words` words, slab is the packed
// member-major signature block, ones the per-member popcounts. Both the
// gathered Local bits kernel and goldfinger.Set's global RowProvider
// path run on this loop; estimates are bit-identical to the per-pair
// OR-popcount formulation because |A|+|B|−|A∩B| = |A∪B| exactly.
func BitSimRow(dst []float64, a []uint64, aOnes int, slab []uint64, ones []int32, j0, words int) {
	po := ones[j0 : j0+len(dst)]
	// Rows are scored in chunks through the count-kernel dispatch
	// (countRun: AVX2/NEON when available, the scalar specializations
	// otherwise), with the Jaccard division kept here in Go — exact
	// integer counts in, one float64 divide out. Under the avx512 arm a
	// 16-word run's 8-row blocks first go through simRun16, which
	// divides in-register; kernel.go argues why both divides give the
	// same bits. The counts scratch lives on this frame (the kernel
	// declarations are //go:noescape), keeping the solvers'
	// zero-allocation contract intact.
	if aOnes == 0 {
		// Empty query signature: every intersection is 0, so every
		// Jaccard is exactly the 0 the scalar reference produces
		// (0/union, or the defined 0 for an empty union).
		for x := range dst {
			dst[x] = 0
		}
		return
	}
	base := j0 * words
	x0 := 0
	if useFused && words == 16 {
		if x0 = len(dst) &^ 7; x0 > 0 {
			simRun16(dst[:x0], a, aOnes, slab[base:base+x0*16], po[:x0])
			base += x0 * 16
		}
	}
	var cbuf [kernelChunk]int32
	for x0 < len(dst) {
		n := len(dst) - x0
		if n > kernelChunk {
			n = kernelChunk
		}
		countRun(cbuf[:n], a, slab[base:base+n*words], words)
		drow := dst[x0 : x0+n]
		prow := po[x0 : x0+n]
		for x, c := range cbuf[:n] {
			// aOnes > 0 bounds the union away from 0: inter ≤
			// min(aOnes, prow[x]), so union ≥ aOnes. No zero-divide
			// branch in the hot loop.
			inter := int(c)
			drow[x] = float64(inter) / float64(aOnes+int(prow[x])-inter)
		}
		base += n * words
		x0 += n
	}
}

// bitSimBatch is BitSimRow over an arbitrary member index list: the
// rows are scattered, so each is counted through the single-row form of
// the kernel dispatch (countOne) instead of a contiguous run call.
func bitSimBatch(dst []float64, a []uint64, aOnes int, slab []uint64, ones []int32, js []int32, words int) {
	for x, j := range js {
		inter := countOne(a, slab[int(j)*words:(int(j)+1)*words], words)
		union := aOnes + int(ones[j]) - inter
		if union == 0 {
			dst[x] = 0
		} else {
			dst[x] = float64(inter) / float64(union)
		}
	}
}

// Gather implements Localizer.
func (j *Jaccard) Gather(ids []int32, dst *Local) {
	dst.initProfiles(kindJaccard, ids, j.profiles)
}

// Gather implements Localizer.
func (c *Cosine) Gather(ids []int32, dst *Local) {
	dst.initProfiles(kindCosine, ids, c.profiles)
}

// Gather implements Localizer: when the wrapped provider has a fast
// gather path it is used and the resulting kernel keeps counting;
// otherwise the generic kernel dispatches through c and counts that
// way.
func (c *Counting) Gather(ids []int32, dst *Local) {
	if loc, ok := c.P.(Localizer); ok {
		loc.Gather(ids, dst)
		dst.counter = &c.n
		return
	}
	dst.InitProvider(ids, c)
}

var (
	_ Localizer = (*Jaccard)(nil)
	_ Localizer = (*Cosine)(nil)
	_ Localizer = (*Counting)(nil)
)
