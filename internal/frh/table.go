package frh

import (
	"fmt"
	"runtime"
	"slices"
	"sort"

	"c2knn/internal/schedule"
)

// Table is the coarse bucket membership of every user under every
// configuration of one family: per configuration, a CSR over the B
// buckets. Bucket idx ∈ [1, B] of configuration fn lists, in increasing
// id order, the users whose H_fn is idx. Users with an empty profile
// are in no bucket, so every configuration lists the same M users,
// each exactly once.
//
// The builder buckets through a Table, a C² snapshot persists one, and
// the delta overlay attaches from it. The exported fields are for the
// persistence codec and tests: a decoded Table may view a read-only
// mapping, so treat them as read-only.
type Table struct {
	// B and T are the family's cluster count and configuration count.
	B, T int
	// N is the number of users the table covers, empty profiles
	// included.
	N int
	// Offsets[fn] has B+1 entries: bucket idx of configuration fn is
	// IDs[fn][Offsets[fn][idx-1]:Offsets[fn][idx]].
	Offsets [][]uint32
	// IDs[fn] lists configuration fn's users bucket by bucket.
	IDs [][]int32
}

// Bucket returns the users of bucket idx ∈ [1, B] in configuration fn.
// The slice is capped at its length, so an append never writes into the
// next bucket.
func (tab *Table) Bucket(fn int, idx uint32) []int32 {
	offs := tab.Offsets[fn]
	lo, hi := offs[idx-1], offs[idx]
	return tab.IDs[fn][lo:hi:hi]
}

// newTable allocates a zeroed table for n users of which m have a
// non-empty profile, every configuration carved from one offset slab
// and one id slab.
func newTable(b, t, n, m int) *Table {
	tab := &Table{B: b, T: t, N: n, Offsets: make([][]uint32, t), IDs: make([][]int32, t)}
	offs := make([]uint32, t*(b+1))
	ids := make([]int32, t*m)
	for fn := range t {
		tab.Offsets[fn] = offs[fn*(b+1) : (fn+1)*(b+1) : (fn+1)*(b+1)]
		tab.IDs[fn] = ids[fn*m : (fn+1)*m : (fn+1)*m]
	}
	return tab
}

// fill counting-sorts configuration fn's column of hashAll's output
// into tab's buckets. The users ascend, so each bucket lists its users
// in increasing id order.
func (tab *Table) fill(all [][lanes]uint16, fn int) {
	n, b := tab.N, tab.B
	col, lane := all[fn/lanes*n:(fn/lanes+1)*n], fn%lanes
	offs, ids := tab.Offsets[fn], tab.IDs[fn]
	for u := range col {
		if idx := col[u][lane]; idx != 0 {
			offs[idx]++
		}
	}
	for idx := 2; idx <= b; idx++ {
		offs[idx] += offs[idx-1]
	}
	// offs[idx-1] now holds the start of bucket idx: advance it as the
	// bucket's fill cursor, which leaves it at the bucket's end, then
	// shift every end up one slot to where Bucket reads it.
	for u := range col {
		if idx := col[u][lane]; idx != 0 {
			ids[offs[idx-1]] = int32(u)
			offs[idx-1]++
		}
	}
	copy(offs[1:], offs[:b])
	offs[0] = 0
}

// Table hashes every profile under all t configurations in one pass and
// returns the coarse bucket table.
func (h *Hasher) Table(profiles [][]int32) *Table {
	all := h.hashAll(profiles, 0)
	tab := newTable(h.b, h.t, len(profiles), nonEmpty(profiles))
	ForEachFn(h.t, func(fn int) Stats {
		tab.fill(all, fn)
		return Stats{}
	})
	return tab
}

func nonEmpty(profiles [][]int32) int {
	m := 0
	for _, p := range profiles {
		if len(p) > 0 {
			m++
		}
	}
	return m
}

// checkSample is the number of users CopyTable re-hashes.
const checkSample = 64

// never marks, in checkFn's listed, a user no configuration may list:
// no configuration stamp (fn+1 ≤ 64) equals it.
const never = 0xff

// CopyTable returns a copy of src in memory of its own, once the copy
// is shown to be h's bucket table of profiles. The structure is checked
// in full, in O(n·T): src has h's B and T and covers len(profiles)
// users; in every configuration the offsets rise from 0 to the number
// of users with a non-empty profile, ids lie in [0, n) and rise
// strictly within a bucket, and every user with a non-empty profile is
// listed once and no other user is. The bucket values are checked on a
// fixed sample: checkSample users with a non-empty profile (all of them
// when there are fewer), evenly spaced by rank, are re-hashed, and each
// must be in the bucket of its hash in every configuration. The
// configurations are copied and checked, and the sample hashed,
// concurrently on up to GOMAXPROCS goroutines.
func (h *Hasher) CopyTable(src *Table, profiles [][]int32) (*Table, error) {
	n := len(profiles)
	if src.B != h.b || src.T != h.t || src.N != n || len(src.Offsets) != h.t || len(src.IDs) != h.t {
		return nil, fmt.Errorf("bucket table is B=%d T=%d over %d users, want B=%d T=%d over %d",
			src.B, src.T, src.N, h.b, h.t, n)
	}
	// One pass marks the users no configuration may list and picks the
	// sample by rank, spacing it by the listing's length: when that is
	// not the number of users with a profile, every configuration's
	// length check below fails anyway.
	listed := make([]uint8, n)
	s := min(checkSample, len(src.IDs[0]))
	sample, sampled := make([]int32, 0, s), make([][]int32, 0, s)
	m := 0
	for u, p := range profiles {
		if len(p) == 0 {
			listed[u] = never
			continue
		}
		if len(sample) < s && m == len(sample)*len(src.IDs[0])/s {
			sample, sampled = append(sample, int32(u)), append(sampled, p)
		}
		m++
	}

	dst := &Table{B: h.b, T: h.t, N: n, Offsets: make([][]uint32, h.t), IDs: make([][]int32, h.t)}
	errs := make([]error, h.t)
	var hashes [][lanes]uint16
	workers := min(runtime.GOMAXPROCS(0), h.t+1)
	scratch := make([][]uint8, workers) // per worker: listed, then m+1 bucket-start marks
	// Job 0 hashes the sample; job fn+1 copies and checks configuration fn.
	schedule.Run(workers, h.t+1, func(w, job int) {
		if job == 0 {
			hashes = h.hashAll(sampled, 1)
			return
		}
		fn := job - 1
		if len(src.Offsets[fn]) != h.b+1 || len(src.IDs[fn]) != m {
			errs[fn] = fmt.Errorf("configuration %d lists %d users in %d offsets, want %d in %d",
				fn, len(src.IDs[fn]), len(src.Offsets[fn]), m, h.b+1)
			return
		}
		// Clone, unlike make and copy, does not zero what it copies over.
		dst.Offsets[fn], dst.IDs[fn] = slices.Clone(src.Offsets[fn]), slices.Clone(src.IDs[fn])
		if scratch[w] == nil {
			scratch[w] = make([]uint8, n+m+1)
			copy(scratch[w], listed)
		}
		errs[fn] = checkFn(dst, fn, scratch[w][:n], scratch[w][n:])
	})
	for fn, err := range errs {
		if err == nil {
			err = checkHashes(dst, fn, sample, hashes)
		}
		if err != nil {
			return nil, fmt.Errorf("bucket table: %w", err)
		}
	}
	return dst, nil
}

// checkFn checks the structure of configuration fn of tab as CopyTable
// describes. listed[u] is never for a user no configuration may list
// and otherwise the stamp fn+1 of the last configuration that listed u;
// starts[p] is the stamp of the last configuration where a bucket
// starts at position p. Both may hold stamps of earlier configurations:
// a worker takes its configurations in increasing order, so those are
// below fn+1, and listed[u] ≥ fn+1 means listed here already or never.
//
// There is no branch per bucket: a bucket's length is close to random,
// so a loop over buckets would mispredict at nearly every one of the B.
// checkFn marks where buckets start instead, then walks the ids once,
// forgetting the previous id at each marked position.
func checkFn(tab *Table, fn int, listed, starts []uint8) error {
	offs, ids := tab.Offsets[fn], tab.IDs[fn]
	m := uint32(len(ids))
	stamp := uint8(fn + 1)
	if offs[0] != 0 || offs[tab.B] != m {
		return fmt.Errorf("configuration %d: offsets run from %d to %d, want 0 to %d", fn, offs[0], offs[tab.B], m)
	}
	for idx := 1; idx < len(offs); idx++ {
		if offs[idx] < offs[idx-1] || offs[idx] > m {
			return fmt.Errorf("configuration %d: bucket %d spans [%d, %d)", fn, idx, offs[idx-1], offs[idx])
		}
		starts[offs[idx-1]] = stamp
	}
	starts = starts[:len(ids)] // lets the compiler drop the bounds checks below
	prev := int32(-1)
	for p, u := range ids {
		if starts[p] == stamp {
			prev = -1
		}
		i := uint(uint32(u)) // a negative id becomes ≥ n
		if u <= prev || i >= uint(len(listed)) || listed[i] >= stamp {
			return badListing(tab, fn, p, listed)
		}
		listed[i] = stamp
		prev = u
	}
	return nil
}

// badListing names what checkFn found wrong with the user at position
// p of configuration fn's listing.
func badListing(tab *Table, fn, p int, listed []uint8) error {
	offs, u := tab.Offsets[fn], tab.IDs[fn][p]
	idx := sort.Search(tab.B, func(j int) bool { return offs[j+1] > uint32(p) }) + 1
	switch {
	case uint32(p) > offs[idx-1] && u <= tab.IDs[fn][p-1]:
		return fmt.Errorf("configuration %d: bucket %d lists user %d after %d", fn, idx, u, tab.IDs[fn][p-1])
	case u < 0 || int(u) >= len(listed):
		return fmt.Errorf("configuration %d: bucket %d lists user %d of %d", fn, idx, u, len(listed))
	case listed[u] == never:
		return fmt.Errorf("configuration %d: bucket %d lists user %d, whose profile is empty", fn, idx, u)
	}
	return fmt.Errorf("configuration %d: user %d is listed twice", fn, u)
}

// checkHashes checks that each sampled user is in configuration fn's
// bucket of its hash; hashes is hashAll's output for the sample.
func checkHashes(tab *Table, fn int, sample []int32, hashes [][lanes]uint16) error {
	col := hashes[fn/lanes*len(sample):]
	for i, u := range sample {
		idx := uint32(col[i][fn%lanes])
		if !contains(tab.Bucket(fn, idx), u) {
			return fmt.Errorf("configuration %d: user %d is not in bucket %d, its hash", fn, u, idx)
		}
	}
	return nil
}

// contains reports whether the increasing s holds u: a binary search
// without a data-dependent branch, since that branch of
// slices.BinarySearch mispredicts at every step of a search over the
// large low-index buckets.
func contains(s []int32, u int32) bool {
	lo, n := 0, len(s)
	for n > 1 {
		half := n >> 1
		// d < 0 exactly when s[lo+half-1] < u; its sign selects the step.
		d := int(s[lo+half-1]) - int(u)
		lo += half & (d >> 63)
		n -= half
	}
	return n == 1 && s[lo] == u
}
