package persist

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"c2knn/internal/dataset"
	"c2knn/internal/frh"
	"c2knn/internal/knng"
)

func testManifest() *Manifest {
	ranges := frh.PartitionBuckets(frh.DefaultShardBuckets, 3)
	m := &Manifest{Buckets: frh.DefaultShardBuckets, Epoch: 1723100000}
	for i, r := range ranges {
		m.Shards = append(m.Shards, ShardEntry{
			ID: i, Range: r, Path: "index.c2.shard" + string(rune('0'+i)),
			CRC: uint32(0xdead0000 + i), Epoch: m.Epoch, Users: 100 * (i + 1),
		})
	}
	return m
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManifest()
	var buf bytes.Buffer
	if err := EncodeManifest(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Buckets != m.Buckets || got.Epoch != m.Epoch || len(got.Shards) != len(m.Shards) {
		t.Fatalf("round trip mangled the header: %+v vs %+v", got, m)
	}
	for i := range m.Shards {
		if got.Shards[i] != m.Shards[i] {
			t.Fatalf("shard %d round-tripped as %+v, want %+v", i, got.Shards[i], m.Shards[i])
		}
	}
}

func TestManifestFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "index.c2.manifest")
	m := testManifest()
	if err := WriteManifestFile(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Shards) != 3 || got.Shards[2].CRC != m.Shards[2].CRC {
		t.Fatalf("file round trip mangled shards: %+v", got.Shards)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind after atomic write")
	}
}

// Every flipped byte must be detected: the payload is checksummed and
// the header fields are plausibility-bounded.
func TestManifestCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeManifest(&buf, testManifest()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for off := 0; off < len(raw); off++ {
		mut := slices.Clone(raw)
		mut[off] ^= 0x40
		if _, err := DecodeManifest(bytes.NewReader(mut)); err == nil {
			t.Fatalf("byte flip at offset %d went undetected", off)
		}
	}
	// Truncations at every length.
	for cut := 0; cut < len(raw); cut++ {
		if _, err := DecodeManifest(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes went undetected", cut)
		}
	}
	// Trailing junk.
	if _, err := DecodeManifest(bytes.NewReader(append(slices.Clone(raw), 0))); err == nil {
		t.Fatal("trailing byte went undetected")
	}
}

func TestManifestVersionSkew(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeManifest(&buf, testManifest()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[8] = 99 // version field
	_, err := DecodeManifest(bytes.NewReader(raw))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("version skew classified as %v, want ErrVersion", err)
	}
}

func TestManifestValidateRejectsBadLayouts(t *testing.T) {
	base := testManifest()
	mutate := func(f func(*Manifest)) *Manifest {
		m := &Manifest{Buckets: base.Buckets, Epoch: base.Epoch, Shards: slices.Clone(base.Shards)}
		f(m)
		return m
	}
	cases := map[string]*Manifest{
		"gap":            mutate(func(m *Manifest) { m.Shards[1].Range.Lo++ }),
		"overlap":        mutate(func(m *Manifest) { m.Shards[1].Range.Lo-- }),
		"short cover":    mutate(func(m *Manifest) { m.Shards[2].Range.Hi-- }),
		"id out of seq":  mutate(func(m *Manifest) { m.Shards[1].ID = 5 }),
		"epoch mismatch": mutate(func(m *Manifest) { m.Shards[0].Epoch++ }),
		"empty path":     mutate(func(m *Manifest) { m.Shards[0].Path = "" }),
		"no shards":      {Buckets: 16, Epoch: 1},
	}
	for name, m := range cases {
		if err := m.Validate(); err == nil {
			t.Fatalf("%s: Validate accepted a broken layout", name)
		}
		var buf bytes.Buffer
		if err := EncodeManifest(&buf, m); err == nil {
			t.Fatalf("%s: EncodeManifest accepted a broken layout", name)
		}
	}
}

// MaskFrozen must keep owned rows bit-identical and empty the rest,
// and the masked graph must still validate (ids are global).
func TestMaskFrozenAndPartition(t *testing.T) {
	// A small synthetic frozen graph: 40 users, ring-ish edges.
	g := knng.New(40, 4)
	for u := int32(0); u < 40; u++ {
		for d := int32(1); d <= 3; d++ {
			g.Insert(u, (u+d)%40, 1.0/float64(d))
		}
	}
	f := g.Freeze()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	owns := func(u int32) bool { return u%3 == 0 }
	masked := MaskFrozen(f, owns)
	if err := masked.Validate(); err != nil {
		t.Fatalf("masked graph does not validate: %v", err)
	}
	if masked.NumUsers() != f.NumUsers() {
		t.Fatalf("masking changed the user space: %d vs %d", masked.NumUsers(), f.NumUsers())
	}
	for u := int32(0); u < 40; u++ {
		ids, sims := masked.Neighbors(u)
		if owns(u) {
			wantIDs, wantSims := f.Neighbors(u)
			if !slices.Equal(ids, wantIDs) || !slices.Equal(sims, wantSims) {
				t.Fatalf("owned user %d row changed under masking", u)
			}
		} else if len(ids) != 0 {
			t.Fatalf("non-owned user %d kept %d edges", u, len(ids))
		}
	}

	// PartitionSnapshot: every user owned exactly once across shards,
	// per-shard counts consistent, dataset shared.
	profiles := make([][]int32, 40)
	for u := range profiles {
		profiles[u] = []int32{int32(u % 7), int32(7 + u%5)}
	}
	ds := &dataset.Dataset{Name: "t", NumItems: 16, Profiles: profiles}
	if err := ds.Validate(); err != nil {
		t.Fatal(err)
	}
	snap := &Snapshot{Graph: f, Train: ds}
	ranges := frh.PartitionBuckets(frh.DefaultShardBuckets, 2)
	shards, users, err := PartitionSnapshot(snap, frh.DefaultShardBuckets, ranges)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 2 || users[0]+users[1] != 40 {
		t.Fatalf("partition lost users: counts %v", users)
	}
	totalEdges := 0
	for i, sh := range shards {
		if sh.Train != ds {
			t.Fatalf("shard %d does not share the dataset", i)
		}
		if err := sh.Graph.Validate(); err != nil {
			t.Fatalf("shard %d graph invalid: %v", i, err)
		}
		totalEdges += sh.Graph.NumEdges()
		owned := 0
		for u := int32(0); u < 40; u++ {
			mine := frh.ShardOf(u, frh.DefaultShardBuckets, ranges) == i
			ids, _ := sh.Graph.Neighbors(u)
			if mine {
				owned++
				wantIDs, _ := f.Neighbors(u)
				if !slices.Equal(ids, wantIDs) {
					t.Fatalf("shard %d user %d row diverged", i, u)
				}
			} else if len(ids) != 0 {
				t.Fatalf("shard %d serves foreign user %d", i, u)
			}
		}
		if owned != users[i] {
			t.Fatalf("shard %d reports %d users, counted %d", i, users[i], owned)
		}
	}
	if totalEdges != f.NumEdges() {
		t.Fatalf("shards hold %d edges, original %d — partition must conserve edges", totalEdges, f.NumEdges())
	}

	// Each shard snapshot must round-trip through the codec (the real
	// artifact path c2build writes and c2serve loads).
	var buf bytes.Buffer
	if err := Encode(&buf, shards[0]); err != nil {
		t.Fatal(err)
	}
	back, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if back.Graph.NumEdges() != shards[0].Graph.NumEdges() {
		t.Fatalf("shard snapshot round trip changed edges: %d vs %d",
			back.Graph.NumEdges(), shards[0].Graph.NumEdges())
	}
}

func TestFileCRC32C(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "f")
	if err := os.WriteFile(p, []byte("hello crc"), 0o644); err != nil {
		t.Fatal(err)
	}
	c1, err := FileCRC32C(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, []byte("hello crd"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := FileCRC32C(p)
	if err != nil {
		t.Fatal(err)
	}
	if c1 == c2 {
		t.Fatal("CRC did not change with content")
	}

	// Empty, exactly one read block, and several blocks with a short
	// last one: the streamed CRC must equal one crc32.Checksum over the
	// file's bytes.
	data := make([]byte, 3<<20+12345)
	rand.New(rand.NewSource(41)).Read(data)
	for _, n := range []int{0, 1 << 20, len(data)} {
		if err := os.WriteFile(p, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := FileCRC32C(p)
		if err != nil {
			t.Fatal(err)
		}
		if want := crc32.Checksum(data[:n], crcTable); got != want {
			t.Fatalf("%d-byte file: FileCRC32C %#08x, want %#08x", n, got, want)
		}
	}
}
