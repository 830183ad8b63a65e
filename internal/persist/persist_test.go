package persist

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"c2knn/internal/bruteforce"
	"c2knn/internal/dataset"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
	"c2knn/internal/synth"
)

// ml1MSnapshot builds a full snapshot — graph, dataset, fingerprints —
// over the ml1M synthetic preset: the losslessness acceptance check of
// the serving layer.
func ml1MSnapshot(tb testing.TB) *Snapshot {
	tb.Helper()
	d := synth.Generate(synth.ML1M().Scale(0.1))
	gf := goldfinger.MustNew(d, 256, 0x60fd)
	g := bruteforce.Build(d.NumUsers(), 10, gf, 4)
	return &Snapshot{Graph: g.Freeze(), Train: d, GoldFinger: gf}
}

// tinySnapshot is a hand-built snapshot small enough that exhaustive
// corruption sweeps (every truncation length, every byte flipped) stay
// cheap.
func tinySnapshot(tb testing.TB) *Snapshot {
	tb.Helper()
	d := dataset.New("tiny", [][]int32{
		{0, 2, 4},
		{1, 2, 3},
		{0, 1, 4},
		{3},
	}, 5)
	gf := goldfinger.MustNew(d, 64, 0x60fd)
	g := knng.New(d.NumUsers(), 2)
	rng := rand.New(rand.NewSource(9))
	knng.FillRandom(g.Lists, rng, func(u, v int) float64 { return rng.Float64() })
	return &Snapshot{Graph: g.Freeze(), Train: d, GoldFinger: gf}
}

func encodeBytes(tb testing.TB, s *Snapshot) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := Encode(&buf, s); err != nil {
		tb.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

func sameFrozen(tb testing.TB, got, want *knng.Frozen) {
	tb.Helper()
	if got.K != want.K || got.NumUsers() != want.NumUsers() || got.NumEdges() != want.NumEdges() {
		tb.Fatalf("frozen shape mismatch: got k=%d n=%d m=%d, want k=%d n=%d m=%d",
			got.K, got.NumUsers(), got.NumEdges(), want.K, want.NumUsers(), want.NumEdges())
	}
	for u := 0; u < want.NumUsers(); u++ {
		gids, gsims := got.Neighbors(int32(u))
		wids, wsims := want.Neighbors(int32(u))
		if len(gids) != len(wids) {
			tb.Fatalf("user %d: degree %d, want %d", u, len(gids), len(wids))
		}
		for i := range wids {
			if gids[i] != wids[i] || gsims[i] != wsims[i] {
				tb.Fatalf("user %d edge %d: (%d, %v), want (%d, %v)",
					u, i, gids[i], gsims[i], wids[i], wsims[i])
			}
		}
	}
}

func TestRoundTripLosslessML1M(t *testing.T) {
	want := ml1MSnapshot(t)
	got, err := Decode(bytes.NewReader(encodeBytes(t, want)))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	sameFrozen(t, got.Graph, want.Graph)
	if got.Train.Name != want.Train.Name || got.Train.NumItems != want.Train.NumItems {
		t.Fatalf("dataset header mismatch: %q/%d vs %q/%d",
			got.Train.Name, got.Train.NumItems, want.Train.Name, want.Train.NumItems)
	}
	if got.Train.NumUsers() != want.Train.NumUsers() {
		t.Fatalf("dataset users: %d, want %d", got.Train.NumUsers(), want.Train.NumUsers())
	}
	for u, p := range want.Train.Profiles {
		gp := got.Train.Profiles[u]
		if len(gp) != len(p) {
			t.Fatalf("user %d profile length %d, want %d", u, len(gp), len(p))
		}
		for i := range p {
			if gp[i] != p[i] {
				t.Fatalf("user %d item %d: %d, want %d", u, i, gp[i], p[i])
			}
		}
	}
	if got.GoldFinger.Bits() != want.GoldFinger.Bits() {
		t.Fatalf("fingerprint width %d, want %d", got.GoldFinger.Bits(), want.GoldFinger.Bits())
	}
	gs, ws := got.GoldFinger.Signatures(), want.GoldFinger.Signatures()
	if len(gs) != len(ws) {
		t.Fatalf("signature block %d words, want %d", len(gs), len(ws))
	}
	for i := range ws {
		if gs[i] != ws[i] {
			t.Fatalf("signature word %d: %#x, want %#x", i, gs[i], ws[i])
		}
	}
	// The reconstructed provider serves identical similarity estimates.
	n := int32(want.Train.NumUsers())
	for u := int32(0); u < n; u += 7 {
		v := (u + 13) % n
		if got.GoldFinger.Sim(u, v) != want.GoldFinger.Sim(u, v) {
			t.Fatalf("Sim(%d,%d) differs after round trip", u, v)
		}
	}
}

func TestRoundTripFile(t *testing.T) {
	want := tinySnapshot(t)
	path := filepath.Join(t.TempDir(), "snap.c2")
	if err := WriteFile(path, want); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	sameFrozen(t, got.Graph, want.Graph)
}

func TestRoundTripPartialSnapshots(t *testing.T) {
	full := tinySnapshot(t)
	cases := []*Snapshot{
		{Graph: full.Graph},
		{Train: full.Train},
		{Graph: full.Graph, Train: full.Train},
		{GoldFinger: full.GoldFinger},
	}
	for i, s := range cases {
		got, err := Decode(bytes.NewReader(encodeBytes(t, s)))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if (got.Graph != nil) != (s.Graph != nil) ||
			(got.Train != nil) != (s.Train != nil) ||
			(got.GoldFinger != nil) != (s.GoldFinger != nil) {
			t.Fatalf("case %d: presence changed across round trip", i)
		}
	}
}

func TestEncodeRejectsEmptyAndInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, nil); err == nil {
		t.Error("Encode(nil) succeeded")
	}
	if err := Encode(&buf, &Snapshot{}); err == nil {
		t.Error("Encode(empty) succeeded")
	}
	bad := &knng.Frozen{K: 1, Offsets: []int64{0, 5}, IDs: []int32{9}, Sims: []float32{1}}
	if err := Encode(&buf, &Snapshot{Graph: bad}); err == nil {
		t.Error("Encode accepted a structurally invalid graph")
	}
}

// TestDecodeTruncated: every strict prefix of a valid snapshot must fail
// with an error, never panic, never return a snapshot.
func TestDecodeTruncated(t *testing.T) {
	data := encodeBytes(t, tinySnapshot(t))
	for cut := 0; cut < len(data); cut++ {
		snap, err := Decode(bytes.NewReader(data[:cut]))
		if err == nil || snap != nil {
			t.Fatalf("truncation at %d/%d bytes: snap=%v err=%v", cut, len(data), snap, err)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v not tagged ErrCorrupt", cut, err)
		}
	}
}

// TestDecodeBitFlips: flipping any single byte anywhere in the snapshot
// must be detected (magic, version, counts, lengths by framing checks;
// payload bytes by CRC-32C, which catches all single-byte errors).
func TestDecodeBitFlips(t *testing.T) {
	data := encodeBytes(t, tinySnapshot(t))
	mut := make([]byte, len(data))
	for i := range data {
		copy(mut, data)
		mut[i] ^= 0xA5
		snap, err := Decode(bytes.NewReader(mut))
		if err == nil || snap != nil {
			t.Fatalf("flip at byte %d/%d undetected: snap=%v err=%v", i, len(data), snap, err)
		}
	}
}

func TestDecodeVersionSkew(t *testing.T) {
	data := encodeBytes(t, tinySnapshot(t))
	data[8] = Version + 1 // version field, little-endian
	_, err := Decode(bytes.NewReader(data))
	if !errors.Is(err, ErrVersion) {
		t.Fatalf("version-skew error = %v, want ErrVersion", err)
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	data := append(encodeBytes(t, tinySnapshot(t)), 0xFF)
	if snap, err := Decode(bytes.NewReader(data)); err == nil || snap != nil {
		t.Fatalf("trailing garbage undetected: snap=%v err=%v", snap, err)
	}
}

func TestDecodeEmptyAndGarbageInputs(t *testing.T) {
	inputs := [][]byte{
		nil,
		{},
		[]byte("C2SNAP"),
		[]byte("definitely not a snapshot file, just some text"),
		bytes.Repeat([]byte{0}, 64),
	}
	for i, in := range inputs {
		if snap, err := Decode(bytes.NewReader(in)); err == nil || snap != nil {
			t.Fatalf("input %d accepted: snap=%v err=%v", i, snap, err)
		}
	}
}

// TestDecodeLyingLength: a section header claiming a huge payload over a
// truncated stream must fail without attempting a giant allocation.
func TestDecodeLyingLength(t *testing.T) {
	data := encodeBytes(t, tinySnapshot(t))
	// Section 1 header starts at offset 16; its length field at 16+4.
	// Claim ~1 GiB.
	data[20], data[21], data[22], data[23] = 0, 0, 0, 0x40
	if snap, err := Decode(bytes.NewReader(data[:64])); err == nil || snap != nil {
		t.Fatalf("lying length undetected: snap=%v err=%v", snap, err)
	}
}

func TestDecodeMismatchedUserCounts(t *testing.T) {
	full := tinySnapshot(t)
	other := dataset.New("other", [][]int32{{0}, {1}}, 2)
	// Encode refuses to write mismatched sections, so splice two
	// single-section snapshots together by hand: shared header with
	// count=2, then each snapshot's section bytes.
	if err := Encode(bytes.NewBuffer(nil), &Snapshot{Graph: full.Graph, Train: other}); err == nil {
		t.Fatal("Encode accepted mismatched graph/dataset user counts")
	}
	a := encodeBytes(t, &Snapshot{Graph: full.Graph})
	b := encodeBytes(t, &Snapshot{Train: other})
	data := append([]byte{}, a[:12]...) // magic + version
	data = append(data, 2, 0, 0, 0)     // section count 2
	data = append(data, a[16:]...)      // graph section
	data = append(data, b[16:]...)      // dataset section
	if snap, err := Decode(bytes.NewReader(data)); err == nil || snap != nil {
		t.Fatalf("mismatched user counts undetected: snap=%v err=%v", snap, err)
	}
}

// TestSectionUserCountsAgree: a dataset and fingerprints over different
// user counts are refused without a graph as well as with one — Encode
// will not write them, and both load paths reject a file that has them.
func TestSectionUserCountsAgree(t *testing.T) {
	ten := dataset.New("ten", make([][]int32, 10), 4)
	five := goldfinger.MustNew(dataset.New("five", make([][]int32, 5), 4), 64, 1)
	s := &Snapshot{Train: ten, GoldFinger: five}
	if err := Encode(io.Discard, s); err == nil || !strings.Contains(err.Error(), "dataset has 10 users, fingerprints 5") {
		t.Fatalf("Encode = %v, want a refusal naming both user counts", err)
	}
	data := referenceBytes(t, s)
	if snap, err := decodeBothPaths(t, data); err == nil || snap != nil || !strings.Contains(err.Error(), "dataset has 10 users, fingerprints 5") {
		t.Fatalf("decode = %v, want a refusal naming both user counts", err)
	}
	path := filepath.Join(t.TempDir(), "mismatch.c2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, err := MapFile(path)
	if errors.Is(err, ErrMapUnavailable) {
		t.Skipf("mmap unavailable on this platform: %v", err)
	}
	if err == nil || snap != nil || !strings.Contains(err.Error(), "dataset has 10 users, fingerprints 5") {
		t.Fatalf("MapFile = %v, want a refusal naming both user counts", err)
	}
}

// BenchmarkEncodeML1M encodes the ml1M snapshot to io.Discard: the
// validation, checksum and write cost of WriteFile without the file.
func BenchmarkEncodeML1M(b *testing.B) {
	s := ml1MSnapshot(b)
	b.SetBytes(int64(len(encodeBytes(b, s))))
	b.ReportAllocs()
	for b.Loop() {
		if err := Encode(io.Discard, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeML1M(b *testing.B) {
	data := encodeBytes(b, ml1MSnapshot(b))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
