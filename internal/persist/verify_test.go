package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"c2knn/internal/dataset"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
	"c2knn/internal/sets"
	"c2knn/internal/similarity"
)

// chunkedSnapshot builds a snapshot whose graph neighbor-id slab and
// dataset item slab each span several verifier chunks, so the bounds
// scan's per-chunk overlaps and their reduction are exercised.
func chunkedSnapshot(tb testing.TB) *Snapshot {
	tb.Helper()
	const n, k, perUser, items = 8000, 10, 12, 1000
	offsets := make([]int64, n+1)
	ids := make([]int32, 0, n*k)
	sims := make([]float32, 0, n*k)
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			ids = append(ids, int32((u+j)%n))
			sims = append(sims, 1-float32(j)/16)
		}
		offsets[u+1] = int64(len(ids))
	}
	g, err := knng.NewFrozen(k, offsets, ids, sims)
	if err != nil {
		tb.Fatal(err)
	}
	profiles := make([][]int32, n)
	for u := range profiles {
		for j := 0; j < perUser; j++ {
			profiles[u] = append(profiles[u], int32((u*7+j*83)%items))
		}
		profiles[u] = sets.Normalize(profiles[u])
	}
	d := dataset.New("chunked", profiles, items)
	return &Snapshot{Graph: g, Train: d, GoldFinger: goldfinger.MustNew(d, 64, 0x60fd)}
}

// TestCRC32CCombine: stitching chunk CRCs with crc32Combine must equal
// one crc32.Checksum over the whole buffer, at any split — empty and
// 1-byte parts, and the verifier's chunk size ±1 — and so must scan's
// chunked pass at any core count.
func TestCRC32CCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	buf := make([]byte, 3*chunkSize+100)
	rng.Read(buf)
	crc := func(b []byte) uint32 { return crc32.Checksum(b, crcTable) }
	lengths := []int{0, 1, 2, 63, 64, 1000, chunkSize - 1, chunkSize, chunkSize + 1, 2*chunkSize + 3, len(buf)}
	for _, n := range lengths {
		b := buf[:n]
		splits := []int{0, 1, n / 2, chunkSize - 1, chunkSize, chunkSize + 1, n - 1, n}
		for i := 0; i < 5; i++ {
			splits = append(splits, rng.Intn(n+1))
		}
		for _, s := range splits {
			if s < 0 || s > n {
				continue
			}
			if got, want := crc32Combine(crc(b[:s]), crc(b[s:]), uint64(n-s)), crc(b); got != want {
				t.Fatalf("len %d split %d: combine %#08x, want %#08x", n, s, got, want)
			}
		}
		// Three parts, the middle one 1 byte or empty.
		for _, mid := range []int{0, 1} {
			s := n / 3
			if s+mid > n {
				continue
			}
			ab := crc32Combine(crc(b[:s]), crc(b[s:s+mid]), uint64(mid))
			if got, want := crc32Combine(ab, crc(b[s+mid:]), uint64(n-s-mid)), crc(b); got != want {
				t.Fatalf("len %d three-way split at %d+%d: %#08x, want %#08x", n, s, mid, got, want)
			}
		}
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			got := checksum(b)
			runtime.GOMAXPROCS(prev)
			if want := crc(b); got != want {
				t.Fatalf("len %d, GOMAXPROCS=%d: checksum %#08x, want %#08x", n, procs, got, want)
			}
		}
	}

	// A combine of combines must equal the combine over the summed
	// length, also where the lengths and their sum pass 2^32 and the
	// shift uses the table's high entries.
	big := []uint64{0, 1, chunkSize, 1 << 32, 1<<32 + 7, 3<<33 + 12345, 1 << 40, 1<<62 + 1} // sums stay below 2^64
	for _, l2 := range big {
		for _, l3 := range big {
			c1, c2, c3 := rng.Uint32(), rng.Uint32(), rng.Uint32()
			left := crc32Combine(crc32Combine(c1, c2, l2), c3, l3)
			right := crc32Combine(c1, crc32Combine(c2, c3, l3), l2+l3)
			if left != right {
				t.Fatalf("lengths %d+%d: combine of combines %#08x, combine over the sum %#08x", l2, l3, left, right)
			}
		}
	}
}

// TestCRCUpdateMatchesStdlib: crcUpdate must equal crc32.Update under
// every kernel arm (the fold kernel runs under avx512 on a CPU with
// VPCLMULQDQ) for every length 0–2,048, the verifier's chunk size ±1 and
// a few MiB, at every start offset 0–63 and for several initial values.
func TestCRCUpdateMatchesStdlib(t *testing.T) {
	orig := similarity.KernelName()
	defer similarity.SelectKernel(orig)
	rng := rand.New(rand.NewSource(29))
	buf := make([]byte, 3<<20+777+63)
	rng.Read(buf)
	lengths := []int{chunkSize - 1, chunkSize, chunkSize + 1, 1 << 20, 3<<20 + 777}
	for n := 0; n <= 2048; n++ {
		lengths = append(lengths, n)
	}
	inits := []uint32{0, 1, math.MaxUint32, rng.Uint32()}
	for _, arm := range similarity.Kernels() {
		if _, err := similarity.SelectKernel(arm); err != nil {
			t.Fatal(err)
		}
		t.Run(arm, func(t *testing.T) {
			t.Logf("fold kernel active: %v", similarity.VectorCLMUL())
			for off := 0; off < 64; off++ {
				for _, n := range lengths {
					b := buf[off : off+n]
					for _, init := range inits {
						if got, want := crcUpdate(init, b), crc32.Update(init, crcTable, b); got != want {
							t.Fatalf("off %d len %d init %#08x: crcUpdate %#08x, want %#08x", off, n, init, got, want)
						}
					}
				}
			}
		})
	}
}

// BenchmarkChecksum reports the one-core CRC-32C throughput (MB/s) of
// hash/crc32 and of the fold kernel on a cache-resident 256 KiB buffer,
// the verifier's chunk, and on a 48 MiB one, the size of an ml10M
// snapshot, streamed from memory. The fold runs only where
// similarity.VectorCLMUL reports it; elsewhere its cases skip.
func BenchmarkChecksum(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"256KiB", 256 << 10}, {"48MiB", 48 << 20}} {
		buf := make([]byte, size.n)
		rand.New(rand.NewSource(1)).Read(buf)
		b.Run("stdlib/"+size.name, func(b *testing.B) {
			b.SetBytes(int64(size.n))
			for b.Loop() {
				crc32.Checksum(buf, crcTable)
			}
		})
		b.Run("fold/"+size.name, func(b *testing.B) {
			if !similarity.VectorCLMUL() {
				b.Skipf("fold kernel inactive under the %s arm on this CPU", similarity.KernelName())
			}
			b.SetBytes(int64(size.n))
			for b.Loop() {
				crcUpdate(0, buf)
			}
		})
	}
}

// TestMaxU32KernelParity: the verifier's max-reduce must equal the Go
// loop under every kernel arm, across lengths around the kernel's
// 32-element block, misaligned starts, values with the sign bit set,
// and the maximum in every lane of every accumulator.
func TestMaxU32KernelParity(t *testing.T) {
	orig := similarity.KernelName()
	defer similarity.SelectKernel(orig)
	rng := rand.New(rand.NewSource(23))
	buf := make([]int32, 1<<16+300)
	for _, arm := range similarity.Kernels() {
		if _, err := similarity.SelectKernel(arm); err != nil {
			t.Fatal(err)
		}
		t.Run(arm, func(t *testing.T) {
			check := func(xs []int32, what string) {
				t.Helper()
				if got, want := maxU32(xs), sets.MaxU32(xs); got != want {
					t.Fatalf("%s: maxU32 = %#x, want %#x", what, got, want)
				}
			}
			for i := range buf {
				buf[i] = int32(rng.Uint32()) // half the values have the sign bit set
			}
			lengths := []int{1 << 16, 1<<16 + 1, 1<<16 + 31, 1<<16 + 33}
			for n := 0; n <= 300; n++ {
				lengths = append(lengths, n)
			}
			for off := 0; off < 8; off++ {
				for _, n := range lengths {
					check(buf[off:off+n], fmt.Sprintf("off %d len %d", off, n))
				}
			}
			// Small values with one large one at every position: the
			// maximum lands in each lane of each accumulator and in the
			// Go tail.
			for _, top := range []uint32{1 << 31, math.MaxUint32, 1<<31 - 1} {
				for off := 0; off < 8; off++ {
					xs := buf[off : off+130]
					for p := range xs {
						for i := range xs {
							xs[i] = int32(i & 7)
						}
						xs[p] = int32(top)
						check(xs, fmt.Sprintf("max %#x at %d of %d, off %d", top, p, len(xs), off))
					}
				}
			}
		})
	}
}

// rejectEverywhere decodes data on the copy path, the view path and
// MapFile, and requires all three to fail with ErrCorrupt and an error
// naming want.
func rejectEverywhere(t *testing.T, data []byte, want string) {
	t.Helper()
	errs := map[string]error{}
	_, errs["copy"] = Decode(bytes.NewReader(data))
	if snap, err := decodeAll(alignedCopy(data), true); snap != nil {
		t.Fatal("view decode returned a snapshot")
	} else {
		errs["view"] = err
	}
	path := filepath.Join(t.TempDir(), "bad.c2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, err := MapFile(path); snap != nil {
		snap.Close()
		t.Fatal("MapFile returned a snapshot")
	} else if !errors.Is(err, ErrMapUnavailable) {
		errs["MapFile"] = err
	}
	for name, err := range errs {
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s: error %v, want ErrCorrupt naming %q", name, err, want)
		}
	}
}

// TestDecodeAllRejectsOutOfRangeIDs: an out-of-range neighbor id or
// item — negative ones included — at the first, the last and a chunk-
// boundary position, behind a recomputed CRC, must be rejected by the
// copy and the view decoder alike, naming the edge or the user.
func TestDecodeAllRejectsOutOfRangeIDs(t *testing.T) {
	snap := chunkedSnapshot(t)
	base := encodeBytes(t, snap)
	n, m, ratings := snap.Graph.NumUsers(), snap.Graph.NumEdges(), snap.Train.NumRatings()
	glay := graphLayoutOf(n, m)
	dlay := dsLayoutOf(len(snap.Train.Name), n, ratings)
	if glay.ids >= chunkSize || glay.ids+4*m <= chunkSize+4 || dlay.items >= chunkSize || dlay.items+4*ratings <= chunkSize+4 {
		t.Fatalf("slabs do not straddle the first chunk boundary: ids [%d,%d), items [%d,%d)",
			glay.ids, glay.ids+4*m, dlay.items, dlay.items+4*ratings)
	}
	// The elements on either side of the boundary between chunks 0 and 1.
	gb, db := (chunkSize-glay.ids)/4, (chunkSize-dlay.items)/4
	userOf := func(at int) int {
		u := 0
		for total := 0; total+len(snap.Train.Profiles[u]) <= at; u++ {
			total += len(snap.Train.Profiles[u])
		}
		return u
	}
	for _, at := range []int{0, gb - 1, gb, m - 1} {
		for _, v := range []int32{int32(n), -1, math.MinInt32} {
			data := patchSection(t, base, secGraph, func(p []byte) {
				binary.LittleEndian.PutUint32(p[glay.ids+4*at:], uint32(v))
			})
			rejectEverywhere(t, data, fmt.Sprintf("edge %d has neighbor id %d", at, v))
		}
	}
	for _, at := range []int{0, db - 1, db, ratings - 1} {
		for _, v := range []int32{int32(snap.Train.NumItems), -1, math.MinInt32} {
			data := patchSection(t, base, secDataset, func(p []byte) {
				binary.LittleEndian.PutUint32(p[dlay.items+4*at:], uint32(v))
			})
			rejectEverywhere(t, data, fmt.Sprintf("profile of user %d has item ids outside", userOf(at)))
		}
	}
	// The unpatched image decodes, on both paths, to the same snapshot.
	cs, err := decodeBothPaths(t, base)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := decodeAll(alignedCopy(base), true)
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshotBits(t, vs, cs)
	sameSnapshotBits(t, vs, snap)
}

// TestDecodeAllHeaderChecksMatchCopy: implausible section headers and
// size mismatches — which the verifier reads before the CRC to locate
// the slabs — must be rejected with the copy path's own error, whether
// or not the CRC was recomputed to cover the damage.
func TestDecodeAllHeaderChecksMatchCopy(t *testing.T) {
	base := encodeBytes(t, chunkedSnapshot(t))
	put32 := func(at int, v uint32) func([]byte) {
		return func(p []byte) { binary.LittleEndian.PutUint32(p[at:], v) }
	}
	put64 := func(at int, v uint64) func([]byte) {
		return func(p []byte) { binary.LittleEndian.PutUint64(p[at:], v) }
	}
	cases := []struct {
		name   string
		typ    uint32
		mutate func([]byte)
	}{
		{"graph k", secGraph, put32(0, maxK+1)},
		{"graph users", secGraph, put64(8, maxUsers+1)},
		{"graph users size", secGraph, put64(8, 7999)},
		{"graph edges", secGraph, put64(16, maxEdges+1)},
		{"graph edges size", secGraph, put64(16, 80001)},
		{"graph edges huge", secGraph, put64(16, 1<<37)},
		{"dataset users", secDataset, put64(8, maxUsers+1)},
		{"dataset users size", secDataset, put64(8, 8001)},
		{"dataset ratings", secDataset, put64(16, maxEdges+1)},
		{"dataset ratings size", secDataset, put64(16, 1)},
		{"dataset items", secDataset, put32(4, maxItems+1)},
		{"dataset name", secDataset, put32(0, math.MaxUint16+1)},
		{"dataset name size", secDataset, put32(0, 200)},
	}
	for _, c := range cases {
		for _, recrc := range []bool{true, false} {
			var data []byte
			if recrc {
				data = patchSection(t, base, c.typ, c.mutate)
			} else {
				data = append([]byte(nil), base...)
				s, e := findSection(t, data, c.typ)
				c.mutate(data[s:e])
			}
			_, cerr := Decode(bytes.NewReader(data))
			_, verr := decodeAll(alignedCopy(data), true)
			if cerr == nil || verr == nil {
				t.Fatalf("%s (CRC recomputed %v): copy err=%v, view err=%v", c.name, recrc, cerr, verr)
			}
			if !errors.Is(verr, ErrCorrupt) || cerr.Error() != verr.Error() {
				t.Fatalf("%s (CRC recomputed %v): view error %q, copy error %q", c.name, recrc, verr, cerr)
			}
		}
	}
}

// TestConcurrentLoadFile: eight concurrent loads of one file — the
// verifier's workers of every load running at once — must each return
// the snapshot the copy decoder reads. Run under -race in CI.
func TestConcurrentLoadFile(t *testing.T) {
	want := chunkedSnapshot(t)
	path := writeSnap(t, want)
	snaps := make([]*Snapshot, 8)
	errs := make([]error, len(snaps))
	var wg sync.WaitGroup
	for i := range snaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			snaps[i], errs[i] = LoadFileMode(path, LoadAuto)
		}()
	}
	wg.Wait()
	cp, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range snaps {
		if errs[i] != nil {
			t.Fatalf("load %d: %v", i, errs[i])
		}
		sameSnapshotBits(t, s, cp)
		s.Close()
	}
}
