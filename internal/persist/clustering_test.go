package persist

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"c2knn/internal/frh"
	"c2knn/internal/knng"
)

// recordedSnapshot is tinySnapshot with a clustering record on its graph.
func recordedSnapshot(tb testing.TB) *Snapshot {
	tb.Helper()
	s := tinySnapshot(tb)
	s.Graph.Clustering = knng.Clustering{B: 512, T: 5, N: 40, Seed: -7}
	return s
}

// TestClusteringRoundTrip: the clustering record and the fingerprint
// seed survive Encode on every load path, and the section is only
// appended, with the bucket table after it — the graph, dataset and
// fingerprint sections keep the bytes a record-less snapshot has, and
// only the section count differs.
func TestClusteringRoundTrip(t *testing.T) {
	s := recordedSnapshot(t)
	data := encodeBytes(t, s)
	plain := encodeBytes(t, tinySnapshot(t))
	if binary.LittleEndian.Uint32(data[12:]) != 5 || binary.LittleEndian.Uint32(plain[12:]) != 3 {
		t.Fatalf("section counts %d and %d, want 5 with the record and its bucket table and 3 without",
			binary.LittleEndian.Uint32(data[12:]), binary.LittleEndian.Uint32(plain[12:]))
	}
	if !bytes.Equal(data[:12], plain[:12]) || !bytes.HasPrefix(data[16:], plain[16:]) {
		t.Fatal("the record changed bytes of the other sections")
	}
	check := func(path string, got *Snapshot) {
		t.Helper()
		if got.Graph.Clustering != s.Graph.Clustering {
			t.Errorf("%s: clustering %+v, want %+v", path, got.Graph.Clustering, s.Graph.Clustering)
		}
		if got.GoldFinger.Seed() != 0x60fd {
			t.Errorf("%s: fingerprint seed %#x, want 0x60fd", path, got.GoldFinger.Seed())
		}
		sameSnapshotBits(t, got, s)
	}
	path := writeSnap(t, s)
	cp, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check("copy", cp)
	m := mapOrSkip(t, path)
	defer m.Close()
	check("mmap", m)

	// A record-less snapshot decodes with a zero record.
	none, err := Decode(bytes.NewReader(plain))
	if err != nil {
		t.Fatal(err)
	}
	if none.Graph.Clustering != (knng.Clustering{}) {
		t.Errorf("record-less snapshot decoded with clustering %+v", none.Graph.Clustering)
	}

	// Every shard of a partition keeps the record.
	shards, _, err := PartitionSnapshot(s, 64, frh.PartitionBuckets(64, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shards {
		if sh.Graph.Clustering != s.Graph.Clustering {
			t.Errorf("shard %d: clustering %+v, want %+v", i, sh.Graph.Clustering, s.Graph.Clustering)
		}
	}
}

// TestClusteringRejectsImplausible: both decoders refuse a record no
// build can make, before anything is sized from it, and one without a
// graph; Encode refuses to write an implausible record.
func TestClusteringRejectsImplausible(t *testing.T) {
	base := encodeBytes(t, recordedSnapshot(t))
	for _, tc := range []struct {
		name    string
		b, t    uint32
		n       int64
		wantErr string
	}{
		{"B=0", 0, 5, 40, "B=0"},
		{"B=65536", 1 << 16, 5, 40, "B=65536"},
		{"B=2^32-1", 1<<32 - 1, 5, 40, "B=4294967295"},
		{"T=0", 512, 0, 40, "T=0"},
		{"T=65", 512, 65, 40, "T=65"},
		{"T=2^32-1", 512, 1<<32 - 1, 40, "T=4294967295"},
		{"N=0", 512, 5, 0, "N=0"},
		{"N=-2", 512, 5, -2, "N=-2"},
	} {
		data := patchSection(t, base, secClustering, func(p []byte) {
			binary.LittleEndian.PutUint32(p[0:], tc.b)
			binary.LittleEndian.PutUint32(p[4:], tc.t)
			binary.LittleEndian.PutUint64(p[8:], uint64(tc.n))
		})
		snap, err := decodeBothPaths(t, data)
		if err == nil || snap != nil || !strings.Contains(err.Error(), "implausible clustering record") || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: decode = %v, want an implausible-record error naming %s", tc.name, err, tc.wantErr)
		}
	}
	// N = −1 (splitting disabled) is a record a build makes.
	data := patchSection(t, base, secClustering, func(p []byte) {
		binary.LittleEndian.PutUint64(p[8:], uint64(1<<64-1))
	})
	if snap, err := decodeBothPaths(t, data); err != nil || snap.Graph.Clustering.N != -1 {
		t.Errorf("N=-1: decode = %v", err)
	}

	var buf bytes.Buffer
	cw := &countingWriter{w: &buf}
	hdr := append(append([]byte(nil), magic[:]...), make([]byte, 8)...)
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	binary.LittleEndian.PutUint32(hdr[12:], 1)
	cw.Write(hdr)
	if err := writeSection(cw, secClustering, encodeClustering(knng.Clustering{B: 512, T: 5, N: 40}, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeBothPaths(t, buf.Bytes()); err == nil || !strings.Contains(err.Error(), "without a graph") {
		t.Errorf("record without a graph: decode = %v, want a refusal", err)
	}

	bad := recordedSnapshot(t)
	bad.Graph.Clustering.T = 65
	if err := Encode(&bytes.Buffer{}, bad); err == nil || !strings.Contains(err.Error(), "T=65") {
		t.Errorf("Encode of T=65 = %v, want a refusal naming T", err)
	}
}
