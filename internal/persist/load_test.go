package persist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"c2knn/internal/dataset"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
)

// alignedCopy copies b into a buffer whose base address is 64-byte
// aligned — the alignment a page-aligned mmap gives the real view path,
// and the precondition decodeAll's view mode asserts before casting
// slabs with unsafe.Slice. Tests that drive the view decoder over
// arbitrary byte images must route them through this.
func alignedCopy(b []byte) []byte {
	buf := make([]byte, len(b)+63)
	off := 0
	if r := uintptr(unsafe.Pointer(&buf[0])) % 64; r != 0 {
		off = int(64 - r)
	}
	out := buf[off : off+len(b) : off+len(b)]
	copy(out, b)
	return out
}

// findSection walks the version-2 framing and returns the payload range
// of the first section with the given type. The trailing CRC-32C sits
// at payEnd.
func findSection(tb testing.TB, data []byte, typ uint32) (payStart, payEnd int) {
	tb.Helper()
	count := binary.LittleEndian.Uint32(data[12:16])
	off := 16
	for i := uint32(0); i < count; i++ {
		st := binary.LittleEndian.Uint32(data[off:])
		length := int(binary.LittleEndian.Uint64(data[off+4:]))
		off += 12
		off += pad64(uint64(off))
		if st == typ {
			return off, off + length
		}
		off += length + 4
	}
	tb.Fatalf("no section of type %d in %d-byte image", typ, len(data))
	return 0, 0
}

// patchSection returns a copy of data with the given section's payload
// mutated and its CRC-32C recomputed to match, so the corruption under
// test reaches the payload decoder instead of being caught by the
// checksum.
func patchSection(tb testing.TB, data []byte, typ uint32, mutate func(payload []byte)) []byte {
	tb.Helper()
	out := append([]byte(nil), data...)
	s, e := findSection(tb, out, typ)
	mutate(out[s:e])
	binary.LittleEndian.PutUint32(out[e:], crc32.Checksum(out[s:e], crcTable))
	return out
}

// decodeBothPaths runs the same image through the streaming copy
// decoder and the whole-image view decoder (over an aligned copy) and
// checks they agree on accept vs reject; it returns the copy path's
// result.
func decodeBothPaths(tb testing.TB, data []byte) (*Snapshot, error) {
	tb.Helper()
	cs, cerr := Decode(bytes.NewReader(data))
	vs, verr := decodeAll(alignedCopy(data), true)
	if (cerr == nil) != (verr == nil) {
		tb.Fatalf("copy/view decoders disagree: copy err=%v, view err=%v", cerr, verr)
	}
	if verr == nil && vs == nil {
		tb.Fatal("view decode returned nil snapshot without error")
	}
	return cs, cerr
}

// writeSnap writes s to a fresh temp file and returns its path.
func writeSnap(tb testing.TB, s *Snapshot) string {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "snap.c2")
	if err := WriteFile(path, s); err != nil {
		tb.Fatalf("WriteFile: %v", err)
	}
	return path
}

// mapOrSkip maps path, skipping the test on platforms where the mmap
// path is unavailable (the copy decoder is then the only path and is
// covered elsewhere).
func mapOrSkip(tb testing.TB, path string) *Snapshot {
	tb.Helper()
	s, err := MapFile(path)
	if errors.Is(err, ErrMapUnavailable) {
		tb.Skipf("mmap unavailable on this platform: %v", err)
	}
	if err != nil {
		tb.Fatalf("MapFile: %v", err)
	}
	return s
}

// sameSnapshotBits asserts got and want carry bit-identical artifacts:
// raw CSR arrays (similarities compared as float bits, so a decoder
// that altered a NaN payload or flipped -0/+0 would fail), dataset
// profiles, and fingerprint slabs.
func sameSnapshotBits(tb testing.TB, got, want *Snapshot) {
	tb.Helper()
	g, w := got.Graph, want.Graph
	if g.K != w.K || g.NumUsers() != w.NumUsers() || g.NumEdges() != w.NumEdges() {
		tb.Fatalf("graph shape: k=%d n=%d m=%d, want k=%d n=%d m=%d",
			g.K, g.NumUsers(), g.NumEdges(), w.K, w.NumUsers(), w.NumEdges())
	}
	for i := range w.Offsets {
		if g.Offsets[i] != w.Offsets[i] {
			tb.Fatalf("offset %d: %d, want %d", i, g.Offsets[i], w.Offsets[i])
		}
	}
	for i := range w.IDs {
		if g.IDs[i] != w.IDs[i] {
			tb.Fatalf("id %d: %d, want %d", i, g.IDs[i], w.IDs[i])
		}
	}
	for i := range w.Sims {
		if math.Float32bits(g.Sims[i]) != math.Float32bits(w.Sims[i]) {
			tb.Fatalf("sim %d: %x, want %x", i, math.Float32bits(g.Sims[i]), math.Float32bits(w.Sims[i]))
		}
	}
	gt, wt := got.Train, want.Train
	if gt.Name != wt.Name || gt.NumItems != wt.NumItems || gt.NumUsers() != wt.NumUsers() {
		tb.Fatalf("dataset header: %q/%d/%d, want %q/%d/%d",
			gt.Name, gt.NumItems, gt.NumUsers(), wt.Name, wt.NumItems, wt.NumUsers())
	}
	for u, p := range wt.Profiles {
		gp := gt.Profiles[u]
		if len(gp) != len(p) {
			tb.Fatalf("user %d profile length %d, want %d", u, len(gp), len(p))
		}
		for i := range p {
			if gp[i] != p[i] {
				tb.Fatalf("user %d item %d: %d, want %d", u, i, gp[i], p[i])
			}
		}
	}
	gf, wf := got.GoldFinger, want.GoldFinger
	if gf.Bits() != wf.Bits() || gf.NumUsers() != wf.NumUsers() {
		tb.Fatalf("fingerprints: bits=%d n=%d, want bits=%d n=%d",
			gf.Bits(), gf.NumUsers(), wf.Bits(), wf.NumUsers())
	}
	gs, ws := gf.Signatures(), wf.Signatures()
	for i := range ws {
		if gs[i] != ws[i] {
			tb.Fatalf("signature word %d: %#x, want %#x", i, gs[i], ws[i])
		}
	}
	for u := 0; u < wf.NumUsers(); u++ {
		if gf.Ones(int32(u)) != wf.Ones(int32(u)) {
			tb.Fatalf("ones[%d]: %d, want %d", u, gf.Ones(int32(u)), wf.Ones(int32(u)))
		}
	}
}

// TestMapFileMatchesReadFile: the zero-copy view and the portable copy
// decode of the same file must produce bit-identical artifacts — the
// equivalence the serving layer's load-mode fallback relies on.
func TestMapFileMatchesReadFile(t *testing.T) {
	want := ml1MSnapshot(t)
	path := writeSnap(t, want)
	mm := mapOrSkip(t, path)
	defer mm.Close()
	if mm.Mapping == nil {
		t.Fatal("MapFile returned a snapshot without a Mapping")
	}
	if refs := mm.Mapping.Refs(); refs != 1 {
		t.Fatalf("fresh mapping holds %d refs, want 1", refs)
	}
	cp, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if cp.Mapping != nil {
		t.Fatal("copy decode produced a Mapping")
	}
	sameSnapshotBits(t, mm, cp)
	sameSnapshotBits(t, mm, want)
}

// TestDecodeAllViewTruncated mirrors TestDecodeTruncated on the mmap
// view path: every prefix of a valid image must be rejected.
func TestDecodeAllViewTruncated(t *testing.T) {
	data := encodeBytes(t, tinySnapshot(t))
	for cut := 0; cut < len(data); cut++ {
		snap, err := decodeAll(alignedCopy(data[:cut]), true)
		if err == nil || snap != nil {
			t.Fatalf("view decode of %d/%d-byte truncation: snap=%v err=%v", cut, len(data), snap, err)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d: error %v not tagged ErrCorrupt", cut, err)
		}
	}
}

// TestDecodeAllViewBitFlips mirrors TestDecodeBitFlips on the view
// path: a flipped byte anywhere in the image must be detected before a
// snapshot built on poisoned views escapes.
func TestDecodeAllViewBitFlips(t *testing.T) {
	data := encodeBytes(t, tinySnapshot(t))
	mut := make([]byte, len(data))
	for i := range data {
		copy(mut, data)
		mut[i] ^= 0xA5
		snap, err := decodeAll(alignedCopy(mut), true)
		if err == nil || snap != nil {
			t.Fatalf("view decode missed flip at byte %d/%d: snap=%v err=%v", i, len(data), snap, err)
		}
	}
}

// TestMapFileRejectsCorruptFile: damage must fail loudly on the mmap
// path with ErrCorrupt — not ErrMapUnavailable — so auto mode never
// papers over a bad file by silently copy-decoding it.
func TestMapFileRejectsCorruptFile(t *testing.T) {
	good := encodeBytes(t, tinySnapshot(t))
	dir := t.TempDir()
	cases := map[string][]byte{
		"truncated.c2": good[:len(good)/2],
		"flipped.c2":   patchRaw(good, len(good)/2),
	}
	for name, data := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := MapFile(path)
		if errors.Is(err, ErrMapUnavailable) {
			t.Skipf("mmap unavailable on this platform: %v", err)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: MapFile error = %v, want ErrCorrupt", name, err)
		}
		if snap, err := LoadFileMode(path, LoadAuto); err == nil {
			snap.Close()
			t.Fatalf("%s: auto mode fell back to copy-decoding a corrupt file", name)
		}
	}
}

func patchRaw(data []byte, at int) []byte {
	out := append([]byte(nil), data...)
	out[at] ^= 0xA5
	return out
}

// --- retired version 1 ---

func le32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func le64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

// v1TinyFile hand-builds a version-1 snapshot file (the retired packed
// layout: no alignment padding, degrees instead of offsets) carrying
// tinySnapshot's graph and dataset. This build rejects it.
func v1TinyFile(tb testing.TB) []byte {
	tb.Helper()
	want := tinySnapshot(tb)
	f, d := want.Graph, want.Train

	var gp []byte
	gp = le32(gp, uint32(f.K))
	gp = le64(gp, uint64(f.NumUsers()))
	gp = le64(gp, uint64(f.NumEdges()))
	for u := 0; u < f.NumUsers(); u++ {
		gp = le32(gp, uint32(f.Offsets[u+1]-f.Offsets[u]))
	}
	for _, id := range f.IDs {
		gp = le32(gp, uint32(id))
	}
	for _, s := range f.Sims {
		gp = le32(gp, math.Float32bits(s))
	}

	var dp []byte
	dp = binary.LittleEndian.AppendUint16(dp, uint16(len(d.Name)))
	dp = append(dp, d.Name...)
	dp = le32(dp, uint32(d.NumItems))
	dp = le64(dp, uint64(d.NumUsers()))
	dp = le64(dp, uint64(d.NumRatings()))
	for _, p := range d.Profiles {
		dp = le32(dp, uint32(len(p)))
	}
	for _, p := range d.Profiles {
		for _, it := range p {
			dp = le32(dp, uint32(it))
		}
	}

	data := append([]byte{}, magic[:]...)
	data = le32(data, 1)
	data = le32(data, 2)
	for i, payload := range [][]byte{gp, dp} {
		data = le32(data, uint32(secGraph+i))
		data = le64(data, uint64(len(payload)))
		data = append(data, payload...)
		data = le32(data, crc32.Checksum(payload, crcTable))
	}
	return data
}

// TestV1Rejected: version 1 is retired. A v1 file fails with ErrVersion
// on both decoders and under every load mode — auto included, because
// ErrVersion is not ErrMapUnavailable, so nothing falls back to copy —
// and the message names the remedy. testdata/v1-tiny.c2 holds the same
// bytes for tests outside this package.
func TestV1Rejected(t *testing.T) {
	data := v1TinyFile(t)
	fixture, err := os.ReadFile(filepath.Join("testdata", "v1-tiny.c2"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fixture, data) {
		t.Fatal("testdata/v1-tiny.c2 differs from v1TinyFile's output")
	}
	check := func(what string, snap *Snapshot, err error) {
		t.Helper()
		if snap != nil {
			t.Fatalf("%s: returned a snapshot for a v1 file", what)
		}
		if !errors.Is(err, ErrVersion) || errors.Is(err, ErrCorrupt) || errors.Is(err, ErrMapUnavailable) {
			t.Fatalf("%s: err = %v, want ErrVersion only", what, err)
		}
		if !strings.Contains(err.Error(), "c2build -snap") {
			t.Fatalf("%s: error %q does not name the c2build -snap remedy", what, err)
		}
	}
	snap, err := Decode(bytes.NewReader(data))
	check("Decode", snap, err)
	snap, err = decodeAll(alignedCopy(data), true)
	check("decodeAll(view)", snap, err)

	path := filepath.Join(t.TempDir(), "v1.c2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	modes := []LoadMode{LoadAuto, LoadCopy}
	if mmapSupported && hostLittleEndian {
		modes = append(modes, LoadMMap)
	}
	for _, mode := range modes {
		snap, err := LoadFileMode(path, mode)
		check("LoadFileMode("+mode.String()+")", snap, err)
	}
}

// pinnedSnapshot is the fixed snapshot behind testdata/v2-tiny.c2: a
// graph, a dataset and fingerprints, each payload over 512 bytes so the
// checksum's fold kernel runs on every section where it is active.
func pinnedSnapshot(tb testing.TB) *Snapshot {
	tb.Helper()
	const n, k, perUser, items = 48, 6, 9, 200
	offsets := make([]int64, n+1)
	var ids []int32
	var sims []float32
	for u := 0; u < n; u++ {
		for j := 1; j <= k; j++ {
			ids = append(ids, int32((u+j*5)%n))
			sims = append(sims, 1-float32(j)/8)
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
			profiles[u] = append(profiles[u], int32((u*13+j*29)%items))
		}
	}
	d := dataset.New("v2-tiny", profiles, items)
	return &Snapshot{Graph: g, Train: d, GoldFinger: goldfinger.MustNew(d, 128, 0x60fd)}
}

// TestV2Pinned pins the version-2 format bytes: Encode of
// pinnedSnapshot must equal testdata/v2-tiny.c2 byte for byte, and both
// load paths must accept the file and return that snapshot. The file
// was written before the CRC fold kernel existed, so it also pins the
// kernel's checksums to hash/crc32's.
func TestV2Pinned(t *testing.T) {
	want := pinnedSnapshot(t)
	path := filepath.Join("testdata", "v2-tiny.c2")
	fixture, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := encodeBytes(t, want); !bytes.Equal(got, fixture) {
		t.Fatalf("Encode of pinnedSnapshot (%d bytes) differs from %s (%d bytes)", len(got), path, len(fixture))
	}
	cp, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	sameSnapshotBits(t, cp, want)
	m := mapOrSkip(t, path)
	defer m.Close()
	sameSnapshotBits(t, m, want)
}

// --- satellite regressions ---

// TestDecodeUserCountBoundary pins the plausibility guard at exactly
// math.MaxInt32: user ids are int32 throughout the stack, so the first
// rejected count is MaxInt32+1. The pre-fix guard (n > 1<<32) let
// counts in (MaxInt32, 2^32] through to downstream int casts.
func TestDecodeUserCountBoundary(t *testing.T) {
	base := encodeBytes(t, tinySnapshot(t))
	for _, typ := range []uint32{secGraph, secDataset, secGoldFinger} {
		for _, n := range []uint64{1 << 31, 1 << 32} {
			data := patchSection(t, base, typ, func(p []byte) {
				binary.LittleEndian.PutUint64(p[8:], n)
			})
			_, err := decodeBothPaths(t, data)
			if err == nil {
				t.Fatalf("section %d with n=%d accepted", typ, n)
			}
			if !strings.Contains(err.Error(), "implausible") {
				t.Fatalf("section %d with n=%d: error %v, want the implausible-dimensions rejection", typ, n, err)
			}
		}
		// MaxInt32 itself passes plausibility and must instead be caught
		// by the payload-size cross-check — proving the boundary sits
		// between MaxInt32 and MaxInt32+1.
		data := patchSection(t, base, typ, func(p []byte) {
			binary.LittleEndian.PutUint64(p[8:], math.MaxInt32)
		})
		_, err := decodeBothPaths(t, data)
		if err == nil {
			t.Fatalf("section %d with n=MaxInt32 and a tiny payload accepted", typ)
		}
		if strings.Contains(err.Error(), "implausible") {
			t.Fatalf("section %d: n=MaxInt32 rejected as implausible — guard boundary is off by one: %v", typ, err)
		}
	}
}

// TestDecodeDatasetLengthOverflow: a hostile profile length must be
// rejected by the checked add, on both decode paths. Pre-fix, the
// decoder sliced the item slab with the raw sum — a length like 0xFFFFFFFF panicked on slice bounds instead of
// returning an error, and lengths crafted to wrap the uint64 total
// could equal the declared ratings count while pointing profiles past
// the slab.
func TestDecodeDatasetLengthOverflow(t *testing.T) {
	base := encodeBytes(t, tinySnapshot(t))
	lay := func(p []byte) dsLayout {
		nameLen := binary.LittleEndian.Uint32(p[0:])
		n := binary.LittleEndian.Uint64(p[8:])
		ratings := binary.LittleEndian.Uint64(p[16:])
		return dsLayoutOf(int(nameLen), int(n), int(ratings))
	}
	data := patchSection(t, base, secDataset, func(p []byte) {
		binary.LittleEndian.PutUint32(p[lay(p).lens:], 0xFFFFFFFF)
	})
	_, err := decodeBothPaths(t, data)
	if err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("hostile profile length: err=%v, want the lengths-exceed-ratings rejection", err)
	}
}

// TestWriteFileConcurrentWriters: unique temp names mean concurrent
// writers to one path cannot interleave bytes — the file decodes after
// every racing rename, and no temp litter survives. The pre-fix fixed
// ".tmp" name let two writers open the same temp file and corrupt each
// other's output.
func TestWriteFileConcurrentWriters(t *testing.T) {
	snap := tinySnapshot(t)
	path := filepath.Join(t.TempDir(), "race.c2")
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if err := WriteFile(path, snap); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("file corrupt after concurrent writers: %v", err)
	}
	sameFrozen(t, got.Graph, snap.Graph)
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %q left behind", e.Name())
		}
	}
}

// TestWriteFileSweepsStaleTemps: temps abandoned by crashed writers —
// including the legacy fixed ".tmp" name — are reclaimed once old
// enough, while a young temp (possibly a live writer's) survives.
func TestWriteFileSweepsStaleTemps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.c2")
	old := time.Now().Add(-2 * staleTempAge)
	stale := []string{"snap.c2.tmp", "snap.c2.tmp-dead123"}
	for _, name := range stale {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte("abandoned"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}
	young := filepath.Join(dir, "snap.c2.tmp-live456")
	if err := os.WriteFile(young, []byte("in flight"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, tinySnapshot(t)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("stale temp %q survived the sweep (err=%v)", name, err)
		}
	}
	if _, err := os.Stat(young); err != nil {
		t.Fatalf("young temp was swept: %v", err)
	}
}

// --- mapping lifetime ---

// TestMappingLifecycle drives the refcount state machine end to end:
// retain/release bracketing, close-to-zero unmapping, and the
// no-resurrection rule that protects hot swaps.
func TestMappingLifecycle(t *testing.T) {
	path := writeSnap(t, tinySnapshot(t))
	snap, err := LoadFileMode(path, LoadMMap)
	if errors.Is(err, ErrMapUnavailable) {
		t.Skipf("mmap unavailable on this platform: %v", err)
	}
	if err != nil {
		t.Fatalf("LoadFileMode(mmap): %v", err)
	}
	m := snap.Mapping
	if m == nil {
		t.Fatal("mmap load returned nil Mapping")
	}
	if m.Refs() != 1 || m.Size() == 0 {
		t.Fatalf("fresh mapping: refs=%d size=%d, want refs=1 and nonzero size", m.Refs(), m.Size())
	}
	if !m.Retain() {
		t.Fatal("Retain on a live mapping failed")
	}
	if m.Refs() != 2 {
		t.Fatalf("refs after Retain = %d, want 2", m.Refs())
	}
	m.Release()
	if m.Refs() != 1 {
		t.Fatalf("refs after Release = %d, want 1", m.Refs())
	}
	snap.Close()
	if m.Refs() != 0 || m.Size() != 0 {
		t.Fatalf("after final Close: refs=%d size=%d, want both 0 (unmapped)", m.Refs(), m.Size())
	}
	if m.Retain() {
		t.Fatal("Retain resurrected an unmapped mapping")
	}
	snap.Close() // idempotent: the snapshot dropped its reference already

	var nilMap *Mapping
	if nilMap.Refs() != 0 || nilMap.Size() != 0 {
		t.Fatal("nil mapping reports live state")
	}
	nilMap.Release() // no-op, must not panic
}

// TestLoadModes covers the mode plumbing: forced copy never maps,
// C2_LOAD selects the mode for LoadFile, and unknown names fail fast.
func TestLoadModes(t *testing.T) {
	path := writeSnap(t, tinySnapshot(t))
	cp, err := LoadFileMode(path, LoadCopy)
	if err != nil {
		t.Fatalf("LoadFileMode(copy): %v", err)
	}
	if cp.Mapping != nil {
		t.Fatal("forced copy load produced a Mapping")
	}

	t.Setenv("C2_LOAD", "copy")
	envCp, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile with C2_LOAD=copy: %v", err)
	}
	if envCp.Mapping != nil {
		t.Fatal("C2_LOAD=copy still mapped the file")
	}

	t.Setenv("C2_LOAD", "sideways")
	if _, err := LoadFile(path); err == nil {
		t.Fatal("unknown C2_LOAD value accepted")
	}

	for _, tc := range []struct {
		in   string
		mode LoadMode
	}{{"", LoadAuto}, {"auto", LoadAuto}, {"copy", LoadCopy}, {"mmap", LoadMMap}} {
		got, err := ParseLoadMode(tc.in)
		if err != nil || got != tc.mode {
			t.Fatalf("ParseLoadMode(%q) = %v, %v; want %v", tc.in, got, err, tc.mode)
		}
	}
	for _, m := range []LoadMode{LoadAuto, LoadCopy, LoadMMap} {
		if rt, err := ParseLoadMode(m.String()); err != nil || rt != m {
			t.Fatalf("mode %v does not round-trip through its name %q", m, m.String())
		}
	}
	if s := LoadMode(42).String(); !strings.Contains(s, "42") {
		t.Fatalf("unknown mode stringer = %q", s)
	}
}

// TestLoadFileModeAutoMapsV2 documents the default: on a platform with
// mmap, auto mode serves a v2 file as views.
func TestLoadFileModeAutoMapsV2(t *testing.T) {
	path := writeSnap(t, tinySnapshot(t))
	if !mmapSupported || !hostLittleEndian {
		t.Skip("no mmap on this platform")
	}
	snap, err := LoadFileMode(path, LoadAuto)
	if err != nil {
		t.Fatalf("LoadFileMode(auto): %v", err)
	}
	defer snap.Close()
	if snap.Mapping == nil {
		t.Fatal("auto mode copy-decoded a mappable v2 file")
	}
}
