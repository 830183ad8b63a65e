// Package goldfinger implements the GoldFinger compact profile summaries
// of Guerraoui, Kermarrec, Ruas and Taïani ("Fingerprinting big data: the
// case of KNN graph construction", ICDE 2019), which the paper uses to
// accelerate Jaccard computations in every algorithm it evaluates (§II-F,
// §IV-C). A profile P_u is summarized into a B-bit vector whose bit
// h(i) mod B is set for every item i ∈ P_u; the Jaccard similarity of two
// users is then estimated as popcount(S_u AND S_v) / popcount(S_u OR S_v).
package goldfinger

import (
	"fmt"
	"math/bits"

	"c2knn/internal/dataset"
	"c2knn/internal/jenkins"
	"c2knn/internal/similarity"
)

// Set holds the fingerprints of every user of a dataset, flattened into a
// single []uint64 for cache friendliness. It implements
// similarity.Provider.
type Set struct {
	bits  int
	words int
	sigs  []uint64 // len = numUsers × words
	ones  []int32  // per-user fingerprint popcounts, fixed at build time
	n     int
	seed  uint32 // item-hash seed the fingerprints were made with
}

// DefaultBits is the fingerprint width used throughout the paper's
// evaluation (1024-bit vectors, §IV-C).
const DefaultBits = 1024

// New builds B-bit fingerprints for every profile of d. bits must be a
// positive multiple of 64 (the paper sweeps 64 to 8096; we accept any
// multiple of 64). seed selects the item-hash function.
func New(d *dataset.Dataset, bitsN int, seed uint32) (*Set, error) {
	if bitsN <= 0 || bitsN%64 != 0 {
		return nil, fmt.Errorf("goldfinger: bits must be a positive multiple of 64, got %d", bitsN)
	}
	words := bitsN / 64
	s := &Set{bits: bitsN, words: words, n: d.NumUsers(), sigs: make([]uint64, d.NumUsers()*words), seed: seed}
	// Precompute the bit position of every item once; profiles reference
	// items many times across users.
	pos := make([]uint32, d.NumItems)
	for i := range pos {
		pos[i] = jenkins.Hash32(uint32(i), seed) % uint32(bitsN)
	}
	s.ones = make([]int32, d.NumUsers())
	for u, p := range d.Profiles {
		sig := s.sigs[u*words : (u+1)*words]
		for _, it := range p {
			b := pos[it]
			sig[b>>6] |= 1 << (b & 63)
		}
		n := 0
		for _, w := range sig {
			n += bits.OnesCount64(w)
		}
		s.ones[u] = int32(n)
	}
	return s, nil
}

// Summarize fingerprints a single profile with the same item-hash family
// New uses: bit Hash32(item, seed) mod bits is set for every item of the
// profile. dst must hold exactly bitsN/64 words; it is zeroed first. The
// fingerprint popcount is returned. Summarizing a profile of a dataset
// with New's bits and seed reproduces that user's Set row bit for bit —
// the delta-overlay path relies on this to score freshly upserted
// profiles against a snapshot's signature slab.
func Summarize(profile []int32, bitsN int, seed uint32, dst []uint64) int32 {
	if bitsN <= 0 || bitsN%64 != 0 || len(dst) != bitsN/64 {
		panic(fmt.Sprintf("goldfinger: summarize needs bits%%64==0 and a %d-word dst, got bits=%d len=%d",
			bitsN/64, bitsN, len(dst)))
	}
	clear(dst)
	for _, it := range profile {
		b := jenkins.Hash32(uint32(it), seed) % uint32(bitsN)
		dst[b>>6] |= 1 << (b & 63)
	}
	n := 0
	for _, w := range dst {
		n += bits.OnesCount64(w)
	}
	return int32(n)
}

// MustNew is New, panicking on invalid width; for tests and examples.
func MustNew(d *dataset.Dataset, bitsN int, seed uint32) *Set {
	s, err := New(d, bitsN, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// Bits returns the fingerprint width in bits.
func (s *Set) Bits() int { return s.bits }

// Seed returns the item-hash seed the fingerprints were made with;
// Summarize needs it to fingerprint a new profile like the rest.
func (s *Set) Seed() uint32 { return s.seed }

// NumUsers returns the number of fingerprints held.
func (s *Set) NumUsers() int { return s.n }

// Signature returns user u's fingerprint words. The returned slice aliases
// internal storage and must not be mutated.
func (s *Set) Signature(u int32) []uint64 {
	return s.sigs[int(u)*s.words : (int(u)+1)*s.words]
}

// Sim estimates the Jaccard similarity of users u and v from their
// fingerprints. It implements similarity.Provider.
func (s *Set) Sim(u, v int32) float64 {
	a := s.sigs[int(u)*s.words : (int(u)+1)*s.words]
	b := s.sigs[int(v)*s.words : (int(v)+1)*s.words]
	// One AND-popcount through the shared count kernel; the union comes
	// from the build-time popcounts (|a∪b| = |a| + |b| − |a∩b|), which
	// matches the historical OR-popcount loop exactly and halves its
	// work.
	inter := similarity.AndCount(a, b)
	union := int(s.ones[u]) + int(s.ones[v]) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Gather implements similarity.Localizer: it copies the cluster
// members' fingerprints into dst's contiguous scratch block along with
// their build-time popcounts. The resulting kernel serves Jaccard
// estimates from a single AND-popcount per pair
// (union = ones[i] + ones[j] − inter), halving the popcount work of Sim
// on top of removing the interface dispatch and global-id indexing.
func (s *Set) Gather(ids []int32, dst *similarity.Local) {
	sigs, ones := dst.InitBits(ids, s.words)
	for i, id := range ids {
		copy(sigs[i*s.words:(i+1)*s.words], s.sigs[int(id)*s.words:(int(id)+1)*s.words])
		ones[i] = s.ones[id]
	}
}

// SimRow implements similarity.RowProvider: it scores user u against
// the contiguous user-id run [v0, v1) in one call, writing Sim(u, v0+x)
// into dst[x]. The flattened signature slab is already member-major, so
// rows are served with no gather at all — this is the fast path of the
// exact brute-force baseline, whose triangular sweep scores whole rows
// of the population. Estimates are bit-identical to Sim: the per-pair
// OR-popcount union equals ones[u] + ones[v] − inter exactly.
func (s *Set) SimRow(u, v0, v1 int32, dst []float64) {
	similarity.BitSimRow(dst[:v1-v0], s.Signature(u), int(s.ones[u]), s.sigs, s.ones, int(v0), s.words)
}

var (
	_ similarity.Localizer   = (*Set)(nil)
	_ similarity.RowProvider = (*Set)(nil)
)

// Ones returns the popcount of user u's fingerprint; useful to gauge
// saturation (estimates degrade as fingerprints fill up).
func (s *Set) Ones(u int32) int { return int(s.ones[u]) }

// Signatures returns the flattened fingerprint block: NumUsers × Bits/64
// words, user-major. The slice aliases internal storage and must not be
// mutated; the persistence layer serializes it verbatim.
func (s *Set) Signatures() []uint64 { return s.sigs }

// Popcounts returns the per-user fingerprint popcounts, Ones(u) at index
// u. Like Signatures it aliases internal storage and must not be
// mutated; the persistence layer serializes it verbatim.
func (s *Set) Popcounts() []int32 { return s.ones }

// FromParts reconstructs a Set from a signature block and its matching
// per-user popcounts, aliasing both slices (both may view read-only
// mapped memory) — the snapshot loader's constructor, since the format
// persists the popcounts alongside the signatures. seed is the item-hash
// seed the signatures were made with (see Seed). Lengths are
// validated and each popcount range-checked against the fingerprint
// width; popcounts are not recomputed, so the caller must have
// integrity evidence for the bytes (the snapshot loader checksums
// them). A wrong-but-in-range popcount skews the
// similarity estimate; it cannot cause out-of-range indexing.
func FromParts(bitsN, n int, sigs []uint64, ones []int32, seed uint32) (*Set, error) {
	if bitsN <= 0 || bitsN%64 != 0 {
		return nil, fmt.Errorf("goldfinger: bits must be a positive multiple of 64, got %d", bitsN)
	}
	if n < 0 {
		return nil, fmt.Errorf("goldfinger: negative user count %d", n)
	}
	words := bitsN / 64
	if len(sigs) != n*words {
		return nil, fmt.Errorf("goldfinger: signature block has %d words, want %d users × %d words",
			len(sigs), n, words)
	}
	if len(ones) != n {
		return nil, fmt.Errorf("goldfinger: popcount block has %d entries, want %d", len(ones), n)
	}
	for u, c := range ones {
		if c < 0 || int(c) > bitsN {
			return nil, fmt.Errorf("goldfinger: user %d popcount %d outside [0,%d]", u, c, bitsN)
		}
	}
	return &Set{bits: bitsN, words: words, n: n, sigs: sigs, ones: ones, seed: seed}, nil
}
