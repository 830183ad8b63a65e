package persist

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"c2knn/internal/dataset"
	"c2knn/internal/delta"
	"c2knn/internal/frh"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
	"c2knn/internal/sets"
)

// bucketSnapshot is a small C² snapshot for the bucket table tests: 48
// users, every fifth with an empty profile, so the table lists 38 of
// them — few enough that the attach-time sample re-hashes every listed
// user — over B = 32, T = 3. The graph has empty rows: only its shape
// and record matter here.
func bucketSnapshot(tb testing.TB) *Snapshot {
	tb.Helper()
	profiles := make([][]int32, 48)
	for u := range profiles {
		if u%5 == 4 {
			continue
		}
		p := []int32{int32(u % 7), int32(3 + u%11), int32(20 + u%13)}
		profiles[u] = sets.Normalize(p)
	}
	d := dataset.New("buckets", profiles, 40)
	g := knng.New(d.NumUsers(), 4).Freeze()
	g.Clustering = knng.Clustering{B: 32, T: 3, N: 6, Seed: 5}
	return &Snapshot{Graph: g, Train: d, GoldFinger: goldfinger.MustNew(d, 64, 0x60fd)}
}

// computedTable is the bucket table of s's dataset under s's record.
func computedTable(s *Snapshot) *frh.Table {
	c := s.Graph.Clustering
	return frh.NewHasher(s.Train.NumItems, frh.Options{B: c.B, T: c.T, Seed: c.Seed}).Table(s.Train.Profiles)
}

func sameTable(tb testing.TB, got, want *frh.Table) {
	tb.Helper()
	if got.B != want.B || got.T != want.T || got.N != want.N {
		tb.Fatalf("table B=%d T=%d N=%d, want B=%d T=%d N=%d", got.B, got.T, got.N, want.B, want.T, want.N)
	}
	for fn := range want.T {
		if !slices.Equal(got.Offsets[fn], want.Offsets[fn]) || !slices.Equal(got.IDs[fn], want.IDs[fn]) {
			tb.Fatalf("configuration %d differs from the computed table", fn)
		}
	}
}

// stripBuckets returns data without its trailing bucket table section
// and with the section count lowered to match.
func stripBuckets(tb testing.TB, data []byte) []byte {
	tb.Helper()
	_, end := findSection(tb, data, secClustering)
	out := append([]byte(nil), data[:end+4]...)
	binary.LittleEndian.PutUint32(out[12:], binary.LittleEndian.Uint32(out[12:])-1)
	return out
}

// loadBothFiles writes data to a file and loads it through the copy
// decoder and MapFile; the mapped snapshot is closed when the test ends.
func loadBothFiles(tb testing.TB, data []byte) (cp, mm *Snapshot) {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "snap.c2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		tb.Fatal(err)
	}
	cp, err := ReadFile(path)
	if err != nil {
		tb.Fatalf("ReadFile: %v", err)
	}
	mm = mapOrSkip(tb, path)
	tb.Cleanup(mm.Close)
	return cp, mm
}

// TestBucketsRoundTrip: a C² snapshot carries its bucket table as the
// last section; both load paths return exactly the table the builder
// computes, the mmap path as a view over the mapping; a snapshot
// without a record has none.
func TestBucketsRoundTrip(t *testing.T) {
	s := bucketSnapshot(t)
	data := encodeBytes(t, s)
	if c := binary.LittleEndian.Uint32(data[12:]); c != 5 {
		t.Fatalf("section count %d, want 5", c)
	}
	if _, end := findSection(t, data, secBuckets); end+4 != len(data) {
		t.Fatal("the bucket table is not the last section")
	}
	want := computedTable(s)
	cp, mm := loadBothFiles(t, data)
	sameTable(t, cp.Buckets, want)
	sameTable(t, mm.Buckets, want)
	m := mm.Mapping.data
	lo, hi := uintptr(unsafe.Pointer(&m[0])), uintptr(unsafe.Pointer(&m[len(m)-1]))
	for fn := range want.T {
		if p := uintptr(unsafe.Pointer(&mm.Buckets.IDs[fn][0])); p < lo || p > hi {
			t.Fatalf("mmap path: configuration %d is not a view over the mapping", fn)
		}
	}

	plain := &Snapshot{Graph: knng.New(s.Train.NumUsers(), 4).Freeze(), Train: s.Train, GoldFinger: s.GoldFinger}
	if got, err := Decode(bytes.NewReader(encodeBytes(t, plain))); err != nil || got.Buckets != nil {
		t.Fatalf("record-less snapshot: buckets %v, err %v; want none", got.Buckets, err)
	}
}

// TestBucketsFramingRejected: both decoders refuse a bucket table whose
// framing disagrees with the record or the dataset — with the CRC fixed
// up, so only the check under test can catch it — and one in a file
// without a record.
func TestBucketsFramingRejected(t *testing.T) {
	data := encodeBytes(t, bucketSnapshot(t))
	for _, tc := range []struct {
		name   string
		off    int
		delta  uint64
		wantIn string
	}{
		{"B", 0, 1, "B=33 T=3"},
		{"T", 4, 1, "B=32 T=4"},
		{"users", 8, 1, "the dataset has 48"},
		{"M", 16, 1, "dimensions require"},
		{"M above users", 16, 100, "the dataset has 48"},
	} {
		bad := patchSection(t, data, secBuckets, func(p []byte) {
			if tc.off < 8 {
				binary.LittleEndian.PutUint32(p[tc.off:], binary.LittleEndian.Uint32(p[tc.off:])+uint32(tc.delta))
			} else {
				binary.LittleEndian.PutUint64(p[tc.off:], binary.LittleEndian.Uint64(p[tc.off:])+tc.delta)
			}
		})
		if snap, err := decodeBothPaths(t, bad); err == nil || snap != nil || !strings.Contains(err.Error(), tc.wantIn) {
			t.Errorf("%s: decode = %v, want an error naming %q", tc.name, err, tc.wantIn)
		}
	}

	// A bucket table next to a graph and a dataset but no record.
	s := bucketSnapshot(t)
	var buf bytes.Buffer
	cw := &countingWriter{w: &buf}
	hdr := append(append([]byte(nil), magic[:]...), make([]byte, 8)...)
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	binary.LittleEndian.PutUint32(hdr[12:], 3)
	cw.Write(hdr)
	for _, sec := range []struct {
		typ     uint32
		payload []byte
	}{{secGraph, encodeGraph(s.Graph)}, {secDataset, encodeDataset(s.Train)}, {secBuckets, encodeBuckets(computedTable(s))}} {
		if err := writeSection(cw, sec.typ, sec.payload); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := decodeBothPaths(t, buf.Bytes()); err == nil || !strings.Contains(err.Error(), "without a clustering record") {
		t.Errorf("bucket table without a record: decode = %v, want a refusal", err)
	}
}

// TestAttachRefusesBadBuckets: a bucket table whose framing passes but
// whose contents are wrong — with the CRC fixed up, so decode accepts
// it — loads on both paths, and delta.Attach refuses it, naming the
// fault.
func TestAttachRefusesBadBuckets(t *testing.T) {
	s := bucketSnapshot(t)
	data := encodeBytes(t, s)
	tab := computedTable(s)
	n := int32(s.Train.NumUsers())
	lay := bucketLayoutOf(tab.B, tab.T, len(tab.IDs[0]))
	// Configuration 1's singleton buckets: moving their users keeps
	// every bucket sorted.
	const fn = 1
	var singles []int
	for idx := 1; idx <= tab.B; idx++ {
		if tab.Offsets[fn][idx]-tab.Offsets[fn][idx-1] == 1 {
			singles = append(singles, idx)
		}
	}
	if len(singles) < 2 {
		t.Fatalf("configuration %d has %d singleton buckets, the test needs 2", fn, len(singles))
	}
	// And the start of the first bucket holding two users or more.
	var first uint32
	for idx := 1; idx <= tab.B; idx++ {
		if tab.Offsets[fn][idx]-tab.Offsets[fn][idx-1] >= 2 {
			first = tab.Offsets[fn][idx-1]
			break
		}
	}
	// Payload offsets of configuration fn's offsets[idx] and ids[p].
	offAt := func(idx int) int { return 64 + fn*lay.stride + 4*idx }
	idAt := func(p uint32) int { return 64 + fn*lay.stride + lay.ids + 4*int(p) }
	single := func(i int) uint32 { return tab.Offsets[fn][singles[i]-1] }
	setID := func(p uint32, u int32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[idAt(p):], uint32(u)) }
	}
	for _, tc := range []struct {
		name   string
		mutate func(payload []byte)
		wantIn string
	}{
		{"id at n", setID(single(0), n), "lists user 48 of 48"},
		{"negative id", setID(single(0), -1), "lists user -1"},
		{"offsets fall", func(b []byte) {
			binary.LittleEndian.PutUint32(b[offAt(singles[0]):], single(0)-1)
		}, "spans"},
		{"offset past M", func(b []byte) {
			binary.LittleEndian.PutUint32(b[offAt(singles[0]):], uint32(len(tab.IDs[fn])+9))
		}, "spans"},
		{"duplicate", setID(single(0), tab.IDs[fn][single(1)]), "listed twice"},
		{"unsorted bucket", func(b []byte) {
			setID(first, tab.IDs[fn][first+1])(b)
			setID(first+1, tab.IDs[fn][first])(b)
		}, fmt.Sprintf("lists user %d after %d", tab.IDs[fn][first], tab.IDs[fn][first+1])},
		{"empty profile", setID(single(0), 4), "user 4, whose profile is empty"},
		{"wrong bucket", func(b []byte) {
			setID(single(0), tab.IDs[fn][single(1)])(b)
			setID(single(1), tab.IDs[fn][single(0)])(b)
		}, "its hash"},
	} {
		bad := patchSection(t, data, secBuckets, tc.mutate)
		cp, mm := loadBothFiles(t, bad)
		for path, snap := range map[string]*Snapshot{"copy": cp, "mmap": mm} {
			_, err := delta.Attach(snap.Graph, snap.Train, snap.GoldFinger, snap.Buckets)
			if err == nil || !strings.Contains(err.Error(), tc.wantIn) {
				t.Errorf("%s, %s path: Attach = %v, want an error naming %q", tc.name, path, err, tc.wantIn)
			}
		}
	}
}

// TestAttachWithoutBucketsSection: a snapshot stripped of its bucket
// table (section count lowered to match) still loads and attaches, by
// computing the table, and places every user and a stream of upserts in
// the same clusters as the snapshot with the section. The overlay
// attached from the table owns its copy: scribbling over the decoded
// table afterwards changes no placement.
func TestAttachWithoutBucketsSection(t *testing.T) {
	s := bucketSnapshot(t)
	data := encodeBytes(t, s)
	stripped := stripBuckets(t, data)
	if !bytes.Equal(stripped[16:], data[16:len(stripped)]) {
		t.Fatal("stripping changed the other sections")
	}
	with, _ := loadBothFiles(t, data)
	without, mm := loadBothFiles(t, stripped)
	if without.Buckets != nil || mm.Buckets != nil {
		t.Fatal("a snapshot without the section decoded with a bucket table")
	}
	var ovs []*delta.Overlay
	for _, snap := range []*Snapshot{with, without} {
		ov, err := delta.Attach(snap.Graph, snap.Train, snap.GoldFinger, snap.Buckets)
		if err != nil {
			t.Fatal(err)
		}
		ovs = append(ovs, ov)
	}
	if a, b := ovs[0].Stats().Buckets, ovs[1].Stats().Buckets; a != "snapshot" || b != "computed" {
		t.Fatalf("Stats().Buckets = %q and %q, want snapshot and computed", a, b)
	}
	for fn := range with.Buckets.T {
		clear(with.Buckets.Offsets[fn])
		clear(with.Buckets.IDs[fn])
	}
	same := func(when string) {
		t.Helper()
		users := ovs[0].View().NumUsers()
		for fn := range s.Graph.Clustering.T {
			for u := range int32(users) {
				if a, b := ovs[0].Cluster(fn, u), ovs[1].Cluster(fn, u); !slices.Equal(a, b) {
					t.Fatalf("%s: configuration %d, user %d: cluster %v with the section, %v without", when, fn, u, a, b)
				}
			}
		}
	}
	same("base")
	for i := range 24 {
		user, items := int32(-1), []int32{int32(i % 9), int32(10 + i%17), int32(30 + i%5)}
		if i%3 == 2 {
			user = int32(i)
		}
		for _, ov := range ovs {
			if _, err := ov.Upsert(user, items); err != nil {
				t.Fatal(err)
			}
		}
	}
	same("after 24 upserts")
}
