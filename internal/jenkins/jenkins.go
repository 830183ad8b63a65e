// Package jenkins implements Bob Jenkins' hash functions over 32-bit keys
// (Dr. Dobb's Journal, 1997), which the paper uses as the generative hash
// functions behind FastRandomHash (§IV-E). Two primitives are provided:
// a seeded single-word mix derived from lookup3's final mixing step, and a
// Family of t independent functions obtained by drawing t seeds from a
// deterministic stream.
package jenkins

// Hash32 hashes a 32-bit key with a 32-bit seed using Jenkins' lookup3
// final() avalanche on the triple (key, seed, golden ratio). It is cheap
// (a handful of arithmetic ops) and passes simple avalanche checks, which
// is all FastRandomHash needs.
func Hash32(key, seed uint32) uint32 {
	a := key + 0x9e3779b9
	b := seed + 0x9e3779b9
	c := uint32(0xdeadbeef)
	// lookup3 final(a,b,c)
	c ^= b
	c -= rot(b, 14)
	a ^= c
	a -= rot(c, 11)
	b ^= a
	b -= rot(a, 25)
	c ^= b
	c -= rot(b, 16)
	a ^= c
	a -= rot(c, 4)
	b ^= a
	b -= rot(a, 14)
	c ^= b
	c -= rot(b, 24)
	return c
}

func rot(x uint32, k uint) uint32 { return x<<k | x>>(32-k) }

// Family is a set of t independent seeded hash functions sharing the
// Hash32 kernel. Function i maps a key to Hash32(key, seeds[i]).
type Family struct {
	seeds []uint32
}

// NewFamily derives t seeds from masterSeed with a splitmix-style stream
// and returns the resulting family. Families built from the same
// (t, masterSeed) pair are identical.
func NewFamily(t int, masterSeed int64) *Family {
	if t <= 0 {
		panic("jenkins: family size must be positive")
	}
	seeds := make([]uint32, t)
	s := uint64(masterSeed)
	for i := range seeds {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		seeds[i] = uint32(z)
	}
	return &Family{seeds: seeds}
}

// Size returns the number of functions in the family.
func (f *Family) Size() int { return len(f.seeds) }

// Hash applies function fn of the family to key.
func (f *Family) Hash(fn int, key uint32) uint32 {
	return Hash32(key, f.seeds[fn])
}

// Seed exposes the raw seed of function fn; useful for building derived
// per-function tables.
func (f *Family) Seed(fn int) uint32 { return f.seeds[fn] }
