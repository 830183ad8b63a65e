package persist

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"c2knn/internal/dataset"
	"c2knn/internal/frh"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
	"c2knn/internal/sets"
)

// The reference encoder: every section converted element by element into
// a payload of its own, checksummed with hash/crc32 and written behind
// its framing. Encode must write exactly its bytes.

// referenceEncode writes s as Encode does, without Encode's checks.
func referenceEncode(w io.Writer, s *Snapshot) error {
	recorded := s.Graph != nil && s.Graph.Clustering != (knng.Clustering{})
	buckets := recorded && s.Train != nil
	var count uint32
	for _, present := range []bool{s.Graph != nil, s.Train != nil, s.GoldFinger != nil, recorded, buckets} {
		if present {
			count++
		}
	}
	cw := &countingWriter{w: w}
	hdr := append(append([]byte(nil), magic[:]...), make([]byte, 8)...)
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	binary.LittleEndian.PutUint32(hdr[12:], count)
	if _, err := cw.Write(hdr); err != nil {
		return err
	}
	if s.Graph != nil {
		if err := writeSection(cw, secGraph, encodeGraph(s.Graph)); err != nil {
			return err
		}
	}
	if s.Train != nil {
		if err := writeSection(cw, secDataset, encodeDataset(s.Train)); err != nil {
			return err
		}
	}
	if s.GoldFinger != nil {
		if err := writeSection(cw, secGoldFinger, encodeGoldFinger(s.GoldFinger)); err != nil {
			return err
		}
	}
	if recorded {
		var gfSeed uint32
		if s.GoldFinger != nil {
			gfSeed = s.GoldFinger.Seed()
		}
		if err := writeSection(cw, secClustering, encodeClustering(s.Graph.Clustering, gfSeed)); err != nil {
			return err
		}
	}
	if buckets {
		c := s.Graph.Clustering
		tab := frh.NewHasher(s.Train.NumItems, frh.Options{B: c.B, T: c.T, Seed: c.Seed}).Table(s.Train.Profiles)
		if err := writeSection(cw, secBuckets, encodeBuckets(tab)); err != nil {
			return err
		}
	}
	return nil
}

// countingWriter tracks the absolute file offset so writeSection can
// emit the padding that 64-aligns each payload.
type countingWriter struct {
	w io.Writer
	n uint64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += uint64(n)
	return n, err
}

func writeSection(w *countingWriter, typ uint32, payload []byte) error {
	hdr := make([]byte, 0, 12)
	hdr = binary.LittleEndian.AppendUint32(hdr, typ)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if pad := pad64(w.n); pad > 0 {
		if _, err := w.Write(zeros[:pad]); err != nil {
			return err
		}
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, crcTable))
	_, err := w.Write(crc[:])
	return err
}

func encodeGraph(f *knng.Frozen) []byte {
	n, m := f.NumUsers(), f.NumEdges()
	lay := graphLayoutOf(n, m)
	b := make([]byte, lay.size)
	binary.LittleEndian.PutUint32(b[0:], uint32(f.K))
	binary.LittleEndian.PutUint64(b[8:], uint64(n))
	binary.LittleEndian.PutUint64(b[16:], uint64(m))
	for i, o := range f.Offsets {
		binary.LittleEndian.PutUint64(b[lay.offs+8*i:], uint64(o))
	}
	for i, id := range f.IDs {
		binary.LittleEndian.PutUint32(b[lay.ids+4*i:], uint32(id))
	}
	for i, s := range f.Sims {
		binary.LittleEndian.PutUint32(b[lay.sims+4*i:], math.Float32bits(s))
	}
	return b
}

func encodeDataset(d *dataset.Dataset) []byte {
	n, ratings := d.NumUsers(), d.NumRatings()
	lay := dsLayoutOf(len(d.Name), n, ratings)
	b := make([]byte, lay.size)
	binary.LittleEndian.PutUint32(b[0:], uint32(len(d.Name)))
	binary.LittleEndian.PutUint32(b[4:], uint32(d.NumItems))
	binary.LittleEndian.PutUint64(b[8:], uint64(n))
	binary.LittleEndian.PutUint64(b[16:], uint64(ratings))
	copy(b[lay.name:], d.Name)
	at := 0
	for u, p := range d.Profiles {
		binary.LittleEndian.PutUint32(b[lay.lens+4*u:], uint32(len(p)))
		for _, it := range p {
			binary.LittleEndian.PutUint32(b[lay.items+4*at:], uint32(it))
			at++
		}
	}
	return b
}

func encodeGoldFinger(s *goldfinger.Set) []byte {
	sigs := s.Signatures()
	n := s.NumUsers()
	words := 0
	if n > 0 {
		words = len(sigs) / n
	}
	lay := gfLayoutOf(n, words)
	b := make([]byte, lay.size)
	binary.LittleEndian.PutUint32(b[0:], uint32(s.Bits()))
	binary.LittleEndian.PutUint64(b[8:], uint64(n))
	for u := 0; u < n; u++ {
		binary.LittleEndian.PutUint32(b[lay.ones+4*u:], uint32(s.Ones(int32(u))))
	}
	for i, w := range sigs {
		binary.LittleEndian.PutUint64(b[lay.sigs+8*i:], w)
	}
	return b
}

func encodeBuckets(tab *frh.Table) []byte {
	m := len(tab.IDs[0])
	lay := bucketLayoutOf(tab.B, tab.T, m)
	b := make([]byte, lay.size)
	binary.LittleEndian.PutUint32(b[0:], uint32(tab.B))
	binary.LittleEndian.PutUint32(b[4:], uint32(tab.T))
	binary.LittleEndian.PutUint64(b[8:], uint64(tab.N))
	binary.LittleEndian.PutUint64(b[16:], uint64(m))
	for fn := range tab.T {
		at := 64 + fn*lay.stride
		for i, o := range tab.Offsets[fn] {
			binary.LittleEndian.PutUint32(b[at+4*i:], o)
		}
		for i, u := range tab.IDs[fn] {
			binary.LittleEndian.PutUint32(b[at+lay.ids+4*i:], uint32(u))
		}
	}
	return b
}

func referenceBytes(tb testing.TB, s *Snapshot) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := referenceEncode(&buf, s); err != nil {
		tb.Fatalf("referenceEncode: %v", err)
	}
	return buf.Bytes()
}

// forceBigEndianPath runs the rest of the test with leBytes converting
// every slab, as it does on a big-endian host.
func forceBigEndianPath(tb testing.TB) {
	prev := hostLittleEndian
	hostLittleEndian = false
	tb.Cleanup(func() { hostLittleEndian = prev })
}

// randomSnapshot builds a small valid snapshot from rng: users up to
// maxUsers, some with empty profiles, random graph rows (zero-degree
// ones and tied sims included) and K possibly 0, sections chosen by
// parts' low three bits (graph, dataset, fingerprints; none means the
// graph), and a clustering record when parts' fourth bit is set.
func randomSnapshot(rng *rand.Rand, maxUsers int, parts uint8) *Snapshot {
	n := rng.Intn(maxUsers + 1)
	items := 1 + rng.Intn(40)
	profiles := make([][]int32, n)
	for u := range profiles {
		p := make([]int32, rng.Intn(8))
		for i := range p {
			p[i] = int32(rng.Intn(items))
		}
		profiles[u] = sets.Normalize(p)
	}
	d := dataset.New("random", profiles, int32(items))
	k := rng.Intn(6)
	g := knng.New(n, k)
	for u := range g.Lists {
		if k == 0 {
			break // a K = 0 list takes no insert
		}
		for range rng.Intn(k + 3) {
			if v := rng.Intn(n); v != u {
				g.Insert(int32(u), int32(v), float64(rng.Intn(5))/4)
			}
		}
	}
	s := &Snapshot{}
	if parts&7 == 0 || parts&1 != 0 {
		s.Graph = g.Freeze()
		if parts&8 != 0 {
			s.Graph.Clustering = knng.Clustering{B: 1 + rng.Intn(64), T: 1 + rng.Intn(9), N: -1 + 2*rng.Intn(2)*(1+rng.Intn(5)), Seed: rng.Int63()}
		}
	}
	if parts&2 != 0 {
		s.Train = d
	}
	if parts&4 != 0 {
		s.GoldFinger = goldfinger.MustNew(d, 64*(1+rng.Intn(3)), rng.Uint32())
	}
	return s
}

// TestEncodeMatchesReference: Encode writes the reference encoder's
// bytes for nil sections, graphs with and without a clustering record,
// K = 0, zero-degree rows, empty profiles, profiles that do not sit end
// to end in memory, and an item slab whose profiles straddle checksum
// chunks —
// through the view branch of leBytes and through its converting branch.
func TestEncodeMatchesReference(t *testing.T) {
	tiny, rec, bkt := tinySnapshot(t), recordedSnapshot(t), bucketSnapshot(t)
	big := chunkedSnapshot(t)
	if size := big.Train.NumRatings() * 4; size <= chunkSize {
		t.Fatalf("the item slab is %d bytes, want more than one %d-byte chunk", size, chunkSize)
	}

	kZero := &Snapshot{Graph: knng.New(5, 0).Freeze()}
	sparse := knng.New(6, 3)
	sparse.Insert(0, 4, 0.5)
	sparse.Insert(0, 5, 0.5)
	sparse.Insert(3, 1, 0.25)
	empty := dataset.New("", make([][]int32, 6), 3)
	// One slab, carved out of order and with gaps, so no profile ends
	// where the next one starts.
	slab := []int32{9, 1, 4, 7, 0, 2, 3, 8, 5, 6}
	scattered := &dataset.Dataset{Name: "scattered", NumItems: 10, Profiles: [][]int32{
		sets.Normalize(slab[7:10]), {}, sets.Normalize(slab[0:2]), sets.Normalize(slab[3:5]), nil, {5},
	}}
	recSparse := sparse.Freeze()
	recSparse.Clustering = knng.Clustering{B: 4, T: 2, N: -1, Seed: 11}

	cases := []struct {
		name string
		s    *Snapshot
	}{
		{"full, no record", tiny},
		{"graph only", &Snapshot{Graph: tiny.Graph}},
		{"dataset only", &Snapshot{Train: tiny.Train}},
		{"fingerprints only", &Snapshot{GoldFinger: tiny.GoldFinger}},
		{"graph and dataset", &Snapshot{Graph: tiny.Graph, Train: tiny.Train}},
		{"dataset and fingerprints", &Snapshot{Train: tiny.Train, GoldFinger: tiny.GoldFinger}},
		{"record", rec},
		{"record, no dataset", &Snapshot{Graph: rec.Graph, GoldFinger: rec.GoldFinger}},
		{"buckets, empty profiles", bkt},
		{"K=0", kZero},
		{"zero-degree rows, all profiles empty", &Snapshot{Graph: recSparse, Train: empty}},
		{"non-contiguous profiles", &Snapshot{Graph: sparse.Freeze(), Train: scattered, GoldFinger: goldfinger.MustNew(scattered, 128, 3)}},
		{"profile segments across chunks", big},
		{"ml1M", ml1MSnapshot(t)},
	}
	run := func(t *testing.T) {
		for _, tc := range cases {
			if got, want := encodeBytes(t, tc.s), referenceBytes(t, tc.s); !bytes.Equal(got, want) {
				t.Errorf("%s: Encode wrote %d bytes differing from the reference's %d", tc.name, len(got), len(want))
			}
		}
	}
	t.Run("view", run)
	t.Run("converting", func(t *testing.T) {
		forceBigEndianPath(t)
		run(t)
	})
}

// FuzzEncode: random small snapshots encode to the reference encoder's
// bytes, through either branch of leBytes, and both decoders read them
// back to a snapshot that re-encodes to the same bytes.
func FuzzEncode(f *testing.F) {
	for seed := range int64(16) {
		f.Add(seed, uint8(seed), false)
	}
	f.Add(int64(99), uint8(15), true)
	f.Fuzz(func(t *testing.T, seed int64, parts uint8, convert bool) {
		s := randomSnapshot(rand.New(rand.NewSource(seed)), 24, parts)
		if convert {
			forceBigEndianPath(t)
		}
		want := referenceBytes(t, s)
		if got := encodeBytes(t, s); !bytes.Equal(got, want) {
			t.Fatalf("Encode wrote %d bytes differing from the reference's %d", len(got), len(want))
		}
		cp, err := Decode(bytes.NewReader(want))
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		mm, err := decodeAll(alignedCopy(want), true)
		if err != nil {
			t.Fatalf("decodeAll: %v", err)
		}
		for name, back := range map[string]*Snapshot{"Decode": cp, "decodeAll": mm} {
			if again := encodeBytes(t, back); !bytes.Equal(again, want) {
				t.Fatalf("%s: the decoded snapshot re-encodes to different bytes", name)
			}
		}
	})
}

// TestEncodeAllocatesNoEdgeCopy: Encode of a graph-heavy snapshot (K =
// 400, two-item profiles) allocates O(users + ratings) bytes — segment
// lists, the profile lengths, headers — and no copy of the edge slabs,
// whose 6.4 MB are over 14 times the budget.
func TestEncodeAllocatesNoEdgeCopy(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("slabs are converted on a big-endian host")
	}
	const n, k = 2000, 400
	profiles := make([][]int32, n)
	for u := range profiles {
		profiles[u] = []int32{int32(u % 50), int32(50 + u%7)}
	}
	d := dataset.New("heavy", profiles, 57)
	g := knng.New(n, k)
	rng := rand.New(rand.NewSource(4))
	knng.FillRandom(g.Lists, rng, func(u, v int) float64 { return rng.Float64() })
	s := &Snapshot{Graph: g.Freeze(), Train: d, GoldFinger: goldfinger.MustNew(d, 64, 1)}
	edgeBytes := uint64(s.Graph.NumEdges()) * 8
	budget := uint64(64*(n+d.NumRatings())) + 64<<10
	if budget*8 > edgeBytes {
		t.Fatalf("budget %d bytes does not separate O(users + ratings) from the %d edge bytes", budget, edgeBytes)
	}
	if err := Encode(io.Discard, s); err != nil { // warm up lazily built tables
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := Encode(io.Discard, s)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("Encode allocated %d bytes; budget %d, edge slabs %d bytes", got, budget, edgeBytes)
	if got > budget {
		t.Fatalf("Encode allocated %d bytes for %d users, %d ratings and %d edge bytes; budget %d",
			got, n, d.NumRatings(), edgeBytes, budget)
	}
}
