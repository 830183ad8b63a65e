// Package minhash implements min-wise hashing over user profiles
// (Broder 1997): function i maps a profile to the minimum of a seeded hash
// over its items, approximating a random permutation of the item universe.
// MinHash underpins the LSH baseline (§IV-B3) and the C²/MinHash ablation
// of Table IV. Unlike FastRandomHash, the hash values range over the full
// 32-bit space, so the induced buckets are "one per item" — the dispersion
// the paper contrasts FRH against (§II-E).
package minhash

import (
	"sort"

	"c2knn/internal/jenkins"
)

// Family is a set of t independent min-wise hash functions.
type Family struct {
	f *jenkins.Family
}

// New returns a family of t functions derived from seed.
func New(t int, seed int64) *Family {
	return &Family{f: jenkins.NewFamily(t, seed)}
}

// Size returns the number of functions.
func (m *Family) Size() int { return m.f.Size() }

// Value returns the min-hash of profile under function fn:
// min_{i∈profile} h_fn(i). The second return value is false when the
// profile is empty (the min-hash is undefined).
func (m *Family) Value(fn int, profile []int32) (uint32, bool) {
	if len(profile) == 0 {
		return 0, false
	}
	best := m.f.Hash(fn, uint32(profile[0]))
	for _, it := range profile[1:] {
		if h := m.f.Hash(fn, uint32(it)); h < best {
			best = h
		}
	}
	return best, true
}

// Signature returns the t-dimensional min-hash signature of profile.
// Empty profiles yield a zero signature.
func (m *Family) Signature(profile []int32) []uint32 {
	sig := make([]uint32, m.Size())
	for fn := range sig {
		sig[fn], _ = m.Value(fn, profile)
	}
	return sig
}

// Bucket groups the users whose min-hash under one function equals
// Value — one cluster of the C²/MinHash ablation.
type Bucket struct {
	Value uint32
	Users []int32
}

// Buckets returns function fn's non-singleton buckets over profiles in
// increasing Value order — the cluster emission consumed by the
// C²/MinHash variant's producer. The deterministic order makes the
// emitted cluster sequence reproducible per configuration, which the
// pipelined build's seeding relies on. Singleton buckets contribute no
// candidate pairs and are skipped, as are empty profiles (their
// min-hash is undefined).
func (m *Family) Buckets(fn int, profiles [][]int32) []Bucket {
	byHash := make(map[uint32][]int32)
	for u, p := range profiles {
		v, ok := m.Value(fn, p)
		if !ok {
			continue
		}
		byHash[v] = append(byHash[v], int32(u))
	}
	values := make([]uint32, 0, len(byHash))
	for v, users := range byHash {
		if len(users) < 2 {
			continue
		}
		values = append(values, v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	out := make([]Bucket, len(values))
	for i, v := range values {
		out[i] = Bucket{Value: v, Users: byHash[v]}
	}
	return out
}
