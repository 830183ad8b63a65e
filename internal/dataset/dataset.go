// Package dataset models the item-based datasets the paper computes KNN
// graphs over: a set of users U, a set of items I, and one profile
// P_u ⊆ I per user. It covers the paper's preprocessing pipeline
// (binarization keeping ratings > 3, dropping users with fewer than 20
// ratings, §IV-A), a plain-text on-disk format, and the Table I statistics.
package dataset

import (
	"errors"
	"fmt"

	"c2knn/internal/sets"
)

// Rating is one (user, item, value) triple of a raw dataset before
// binarization.
type Rating struct {
	User  int32
	Item  int32
	Value float64
}

// Dataset is a binarized item-based dataset: Profiles[u] is the sorted,
// duplicate-free slice of item ids associated with user u. User ids are
// dense in [0, NumUsers); item ids live in [0, NumItems).
type Dataset struct {
	// Name identifies the dataset in reports (e.g. "ml10M").
	Name string
	// NumItems is the size of the item universe |I|. Item ids in
	// profiles are < NumItems.
	NumItems int32
	// Profiles holds one sorted item-id slice per user.
	Profiles [][]int32
}

// Options controls the conversion of raw ratings into a Dataset.
type Options struct {
	// PositiveThreshold keeps only ratings with Value > PositiveThreshold
	// (the paper keeps ratings strictly above 3 on MovieLens). A negative
	// threshold keeps everything.
	PositiveThreshold float64
	// MinProfile drops users whose binarized profile has fewer items
	// (the paper uses 20). Zero keeps every user with at least one
	// positive rating; users whose profile is empty after binarization
	// are always dropped, whatever MinProfile says — they carry no
	// signal for clustering or similarity.
	MinProfile int
	// KeepItemUniverse preserves the original item-universe size even if
	// filtering removed all occurrences of some items (the paper removes
	// cold users "from the user set but not from the item set").
	KeepItemUniverse bool
}

// FromRatings builds a Dataset from raw ratings according to opts.
// User ids are re-densified: users surviving the MinProfile filter are
// renumbered 0..n-1 in order of their original id. Item ids are preserved.
func FromRatings(name string, ratings []Rating, opts Options) *Dataset {
	var maxUser, maxItem int32 = -1, -1
	for _, r := range ratings {
		if r.User > maxUser {
			maxUser = r.User
		}
		if r.Item > maxItem {
			maxItem = r.Item
		}
	}
	profiles := make([][]int32, maxUser+1)
	for _, r := range ratings {
		if r.Value > opts.PositiveThreshold {
			profiles[r.User] = append(profiles[r.User], r.Item)
		}
	}
	kept := make([][]int32, 0, len(profiles))
	for _, p := range profiles {
		p = sets.Normalize(p)
		if len(p) >= opts.MinProfile && len(p) > 0 {
			kept = append(kept, p)
		}
	}
	d := &Dataset{Name: name, NumItems: maxItem + 1, Profiles: kept}
	if !opts.KeepItemUniverse {
		d.CompactItems()
	}
	return d
}

// New builds a Dataset directly from profiles; each profile is normalized
// in place. numItems may be zero, in which case it is inferred as
// max(item)+1.
func New(name string, profiles [][]int32, numItems int32) *Dataset {
	var maxItem int32 = -1
	for i, p := range profiles {
		profiles[i] = sets.Normalize(p)
		for _, it := range profiles[i] {
			if it > maxItem {
				maxItem = it
			}
		}
	}
	if numItems <= maxItem {
		numItems = maxItem + 1
	}
	return &Dataset{Name: name, NumItems: numItems, Profiles: profiles}
}

// NumUsers returns |U|.
func (d *Dataset) NumUsers() int { return len(d.Profiles) }

// NumRatings returns the total number of (user, item) associations.
func (d *Dataset) NumRatings() int {
	n := 0
	for _, p := range d.Profiles {
		n += len(p)
	}
	return n
}

// Profile returns user u's profile. The returned slice must not be
// mutated.
func (d *Dataset) Profile(u int32) []int32 { return d.Profiles[u] }

// Validate checks the structural invariants: profiles sorted and
// duplicate-free, item ids within [0, NumItems).
func (d *Dataset) Validate() error {
	for u, p := range d.Profiles {
		if !sets.IsNormalized(p) {
			return fmt.Errorf("dataset %s: profile of user %d is not sorted/deduped", d.Name, u)
		}
		if len(p) > 0 && (p[0] < 0 || p[len(p)-1] >= d.NumItems) {
			return fmt.Errorf("dataset %s: profile of user %d has item ids outside [0,%d)", d.Name, u, d.NumItems)
		}
	}
	return nil
}

// ValidateBounds checks only that every item id lies in [0, NumItems) —
// the invariant that makes indexing per-item arrays (scorers, popularity
// counts) memory-safe. Unlike Validate it does not require profiles to
// be sorted and duplicate-free: those are value-level properties whose
// violation skews scores but cannot read out of bounds. Both snapshot
// load paths use this after checksumming the section bytes.
func (d *Dataset) ValidateBounds() error {
	// Unsigned compare folds the it < 0 and it >= NumItems checks into
	// one test (negative ids map high); the per-profile max-reduce runs
	// branch-free.
	limit := uint32(d.NumItems)
	for u, p := range d.Profiles {
		if len(p) > 0 && sets.MaxU32(p) >= limit {
			return fmt.Errorf("dataset %s: profile of user %d has item ids outside [0,%d)", d.Name, u, d.NumItems)
		}
	}
	return nil
}

// CompactItems renumbers item ids densely (dropping unused ids) and
// updates NumItems. Profiles stay sorted because the renumbering is
// monotone.
func (d *Dataset) CompactItems() {
	seen := make([]bool, d.NumItems)
	for _, p := range d.Profiles {
		for _, it := range p {
			seen[it] = true
		}
	}
	remap := make([]int32, d.NumItems)
	var next int32
	for i, s := range seen {
		if s {
			remap[i] = next
			next++
		}
	}
	for _, p := range d.Profiles {
		for i := range p {
			p[i] = remap[p[i]]
		}
	}
	d.NumItems = next
}

// Clone returns a deep copy of d.
func (d *Dataset) Clone() *Dataset {
	profiles := make([][]int32, len(d.Profiles))
	for i, p := range d.Profiles {
		cp := make([]int32, len(p))
		copy(cp, p)
		profiles[i] = cp
	}
	return &Dataset{Name: d.Name, NumItems: d.NumItems, Profiles: profiles}
}

// ItemPopularity returns, for each item id, the number of profiles that
// contain it.
func (d *Dataset) ItemPopularity() []int {
	pop := make([]int, d.NumItems)
	for _, p := range d.Profiles {
		for _, it := range p {
			pop[it]++
		}
	}
	return pop
}

// ErrEmpty is returned by operations that need a non-empty dataset.
var ErrEmpty = errors.New("dataset: empty")
