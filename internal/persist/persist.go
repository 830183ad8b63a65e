// Package persist implements the c2knn snapshot format: a versioned,
// checksummed binary container that round-trips the immutable serving
// artifacts — a frozen KNN graph, its training dataset, and optional
// GoldFinger fingerprints — so an index built once (minutes of
// similarity computations) can be loaded by any number of serving
// processes in milliseconds.
//
// # Format (version 2)
//
// All integers are little-endian. A snapshot is a fixed header followed
// by a sequence of self-checksummed sections:
//
//	offset  size  field
//	0       8     magic "C2SNAP\r\n" (the CRLF catches text-mode mangling)
//	8       4     format version (uint32, currently 2)
//	12      4     section count (uint32)
//
// then, for each section:
//
//	4     section type (uint32)
//	8     payload length in bytes (uint64)
//	0–63  zero padding to the next 64-byte file offset (verified zero)
//	...   payload (its first byte sits at a 64-byte-aligned file offset)
//	4     CRC-32C (Castagnoli) of the payload
//
// Section types: 1 = frozen graph, 2 = dataset, 3 = GoldFinger
// signatures, 4 = clustering record, 5 = bucket table. Each type appears
// at most once; unknown types are an error. The stream must end exactly
// after the last section.
//
// Every payload opens with a 64-byte header block (unused tail bytes
// zero) and lays its arrays out at 64-byte-aligned payload offsets —
// alignUp(x) below rounds x up to the next multiple of 64:
//
//	graph:      {0: u32 k · 4: u32 reserved(0) · 8: u64 numUsers ·
//	            16: u64 numEdges} · 64: (numUsers+1)×i64 CSR offsets ·
//	            alignUp: numEdges×i32 neighbor ids ·
//	            alignUp: numEdges×f32 similarities (IEEE-754 bits)
//	dataset:    {0: u32 nameLen · 4: u32 numItems · 8: u64 numUsers ·
//	            16: u64 numRatings} · 64: name bytes ·
//	            alignUp: numUsers×u32 profile lengths ·
//	            alignUp: numRatings×i32 item ids
//	goldfinger: {0: u32 bits · 4: u32 reserved(0) · 8: u64 numUsers} ·
//	            64: numUsers×i32 fingerprint popcounts ·
//	            alignUp: numUsers×(bits/64)×u64 signature words
//	clustering: {0: u32 B · 4: u32 T · 8: i64 N · 16: i64 seed ·
//	            24: u32 GoldFinger item-hash seed}, the whole payload
//	buckets:    {0: u32 B · 4: u32 T · 8: u64 numUsers · 16: u64 M} ·
//	            then for each of the T configurations, from payload
//	            offset 64 + fn·alignUp(4(B+1)) + fn·alignUp(4M):
//	            (B+1)×u32 offsets · alignUp: M×i32 user ids
//
// The clustering section records how a C² graph was built: the
// FastRandomHash family (knng.Clustering: B, T, the splitting threshold
// N with −1 for none, and the seed) and the seed the fingerprints were
// made with. Upsert placement reads both from it. Encode writes it
// after the other three, only when the graph carries a record, so a
// snapshot without one (a baseline's graph, testdata/v2-tiny.c2) has
// the bytes it had before the section existed. Binaries from before the
// section reject a file that has it, as they reject any unknown type.
// Both load paths reject a record no build can make — B outside
// [1, 65535], T outside [1, 64], N of 0 or below −1 — and one without a
// graph.
//
// The bucket table section is the recorded family's coarse FastRandomHash
// buckets over the dataset's users (frh.Table), so a delta overlay
// attaches without re-hashing every profile. Configuration fn's bucket
// idx ∈ [1, B] lists its users, in increasing id order, at
// ids[offsets[idx−1]:offsets[idx]]; M is the number of users with a
// non-empty profile, whom every configuration lists once each. Encode
// computes the table from the dataset and the record — builds,
// compactions and shards alike, whatever Snapshot.Buckets holds — and
// writes it right after the record whenever it writes the record and a
// dataset, so a C² snapshot is a record-less file plus two sections
// (and a section count two higher). It adds 1–2 ms to an ml1M write
// and 11–19 ms to an ml10M one. Decode checks only its framing: the payload
// length, B and T against the record, numUsers against the dataset and
// M ≤ numUsers; it refuses the section without a record or a dataset.
// On the mmap path the table stays a view over the mapping, so a
// read-only daemon pays only the CRC over its bytes. Its contents are
// checked by whoever uses them: delta.Attach copies the table and
// checks the copy before placing anything with it. Binaries from before
// the section reject a file that has it as an unknown type.
//
// Because payloads start 64-byte-aligned in the file and an mmap base
// is page-aligned, every array slab is 64-byte-aligned in memory too:
// MapFile serves knng.Frozen / dataset.Dataset / goldfinger.Set
// directly as unsafe.Slice views over the mapping, with no decode copy
// and cache-line/vector-friendly slab bases. The format stores what the
// runtime structures hold (CSR offsets rather than degrees, build-time
// popcounts alongside signatures) precisely so views need no
// recomputation.
//
// # Versions
//
// Version 2 is the only format read or written. Any other version, the
// retired unaligned version 1 included, fails on every load path with
// ErrVersion — not ErrMapUnavailable, so auto mode does not fall back
// to copy. Snapshots are machine-local build caches: rebuild with
// c2build -snap.
//
// # Robustness
//
// Decode never panics on hostile input and never returns a partially
// populated snapshot: every length is validated against the payload
// size before allocation, every payload is checksummed, framing pads
// must be zero, cross-section user counts must agree, and any failure
// returns (nil, error). Truncated files, flipped bytes, and version
// skew are all detected, on the copy path and the mmap path alike.
//
// Payloads pass the bounds-level validators on both load paths, so the
// two stay accept/reject-identical (knng.NewFrozenView,
// dataset.ValidateBounds, goldfinger.FromParts): everything needed for
// memory-safe serving is checked, while value-level invariants
// (adjacency sort order, profile dedup, popcount accuracy) are vouched
// for by the CRC over the encoder's output, which ran the full
// validators. Forging bytes past a CRC can skew answers; it cannot move
// an access out of bounds.
//
// The two paths order the same checks differently. Decode, the copy
// path and the oracle, runs serially and section by section: read the
// payload, check its CRC with hash/crc32, decode it, bounds-check its
// ids and items with the plain Go loop. decodeAll, behind MapFile,
// verifies the whole image in one pass on GOMAXPROCS workers before
// decoding anything:
//
//  1. Walk the framing: header, section headers, zero padding, lengths
//     against the file size, no trailing bytes. For the graph and
//     dataset sections it also reads the payload header, through the
//     decoders' own plausibility and exact-size checks, only to locate
//     the neighbor-id and item slabs.
//  2. Cut every payload into 256 KiB chunks. A worker CRC-32Cs its
//     chunk (see "Checksum kernel" below) and, where the chunk
//     overlaps one of those slabs, max-reduces the overlap (compared
//     unsigned, so negative ids count as huge) while it is still in
//     cache — with an AVX2 kernel when a vector similarity kernel is
//     active, the Go loop otherwise.
//     Chunk CRCs combine into each section's CRC (zlib's
//     crc32_combine), chunk maxima into each slab's maximum.
//  3. Once every section's CRC matches, decode the sections
//     concurrently. The graph and dataset decoders compare the slab
//     maximum against their limit in place of their own scan, and only
//     when its byte range is exactly the slab they view.
//
// A file with faults in several sections may therefore report a
// different first error on each path; the two paths accept exactly the
// same files. Encode checksums through the same chunked pass, so writes
// use every core and the checksum kernel too, and the bytes written do
// not change.
//
// # Checksum kernel
//
// The chunked pass, and with it MapFile, LoadIndex, Server.Reload, the
// compaction swap and Encode, CRC-32Cs through crcUpdate, as does
// FileCRC32C. On amd64, when the avx512 similarity kernel is active on
// a CPU with VPCLMULQDQ and SSE4.2 (similarity.VectorCLMUL), crcUpdate
// hands every whole 256-byte block of an input of at least 512 bytes to
// a fold kernel: four zmm registers fold 256 bytes per step with
// carry-less multiplies, and two CRC32 instructions finish the last 128
// bits. Its multipliers come from the CRC-combine code's multmodp and
// x8nmodp. The tail, short inputs, C2_KERNEL=scalar or avx2, CPUs
// without the feature and other architectures use hash/crc32. Decode
// deliberately keeps calling hash/crc32 directly, so every test that
// compares the copy path with the mapped path
// (TestMapFileMatchesReadFile, the bit-flip and corrupt-file tests,
// FuzzDecode) also checks the kernel against the standard library;
// testdata/v2-tiny.c2, written before the kernel existed, pins the
// bytes.
//
// # Snapshot files must be replaced, never edited in place
//
// A snapshot that any process may have memory-mapped must only ever be
// updated by atomic replacement: write the new content to a temp file
// in the same directory and rename it over the path — exactly what
// WriteFile does. The rename leaves a live mapping pointing at the old
// inode, untouched, until its last reference drains. Editing the file
// in place instead would corrupt every mapped epoch silently (MAP_SHARED
// views are coherent with the page cache), and truncating it would turn
// the next page access past the new EOF into a SIGBUS — a crash, not an
// error return. The CRC pass at load time cannot help: it ran before
// the bytes changed.
package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
	"unsafe"

	"c2knn/internal/dataset"
	"c2knn/internal/frh"
	"c2knn/internal/goldfinger"
	"c2knn/internal/knng"
)

// Version is the snapshot format version this build writes and the
// only one it reads; any other version fails with ErrVersion.
const Version = 2

var magic = [8]byte{'C', '2', 'S', 'N', 'A', 'P', '\r', '\n'}

const (
	secGraph      = 1
	secDataset    = 2
	secGoldFinger = 3
	secClustering = 4
	secBuckets    = 5

	// maxSections bounds the header's section count; the format defines
	// five section types and each may appear once.
	maxSections = 16
	// maxSectionBytes is a sanity bound on a single section (1 TiB); a
	// corrupted length field beyond it fails fast. Lengths below it that
	// exceed the actual stream still fail cheaply: payloads are read in
	// chunks, so memory grows only with bytes actually present.
	maxSectionBytes = 1 << 40

	// Plausibility bounds on decoded dimensions. User and item counts
	// must fit int32 — ids are int32 throughout the stack, so a count of
	// 1<<31 would already overflow the last id — and edge/rating counts
	// get a generous 2^38 ceiling that still rejects garbage lengths.
	maxUsers = math.MaxInt32
	maxItems = math.MaxInt32
	maxEdges = 1 << 38
	maxK     = 1 << 20
	maxBits  = 1 << 24
)

// ErrCorrupt tags decoding failures caused by malformed or damaged
// snapshot bytes (bad magic, checksum mismatch, truncation, invalid
// structure). Test with errors.Is.
var ErrCorrupt = errors.New("persist: corrupt snapshot")

// ErrVersion tags snapshots written by an incompatible format version.
var ErrVersion = errors.New("persist: unsupported snapshot version")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// alignUp rounds x up to the next multiple of 64 — the in-file (and
// therefore, under a page-aligned mapping, in-memory) alignment of
// every array slab.
func alignUp(x int) int { return (x + 63) &^ 63 }

// pad64 returns how many zero bytes follow a position at absolute
// offset off before the next 64-byte boundary.
func pad64(off uint64) int { return int(-off & 63) }

// Snapshot is the set of artifacts a snapshot file carries. Any subset
// of fields may be populated; serving (c2knn.LoadIndex) requires Graph
// and Train.
type Snapshot struct {
	// Graph is the frozen CSR serving graph.
	Graph *knng.Frozen
	// Train is the dataset the graph was built over; recommendation
	// scores against its profiles.
	Train *dataset.Dataset
	// GoldFinger optionally carries the fingerprints the graph was
	// built with, so a loaded index can keep estimating similarities.
	GoldFinger *goldfinger.Set
	// Buckets is the graph's coarse FastRandomHash bucket table, decoded
	// from a C² snapshot and nil for any other; a delta overlay attaches
	// from it. Encode ignores it: it writes the table of Train under the
	// graph's clustering record.
	Buckets *frh.Table
	// Mapping is non-nil when the artifacts above are views over a
	// memory-mapped file (MapFile); it owns the mapping's lifetime. A
	// copy-decoded snapshot has a nil Mapping.
	Mapping *Mapping
}

// Close releases the snapshot's mapping reference, if any. After Close
// the artifact views must not be touched. Copy-decoded snapshots need
// no Close; calling it is a harmless no-op.
func (s *Snapshot) Close() {
	if s != nil && s.Mapping != nil {
		m := s.Mapping
		s.Mapping = nil
		m.Release()
	}
}

// Encode writes s to w in the snapshot format (version 2).
func Encode(w io.Writer, s *Snapshot) error {
	if s == nil || (s.Graph == nil && s.Train == nil && s.GoldFinger == nil) {
		return errors.New("persist: refusing to encode an empty snapshot")
	}
	if s.Graph != nil {
		if err := s.Graph.Validate(); err != nil {
			return fmt.Errorf("persist: refusing to encode invalid graph: %w", err)
		}
	}
	if s.Train != nil {
		if err := s.Train.Validate(); err != nil {
			return fmt.Errorf("persist: refusing to encode invalid dataset: %w", err)
		}
		if len(s.Train.Name) > math.MaxUint16 {
			return fmt.Errorf("persist: dataset name longer than %d bytes", math.MaxUint16)
		}
	}
	if s.Graph != nil && s.Train != nil && s.Graph.NumUsers() != s.Train.NumUsers() {
		return fmt.Errorf("persist: graph has %d users, dataset %d", s.Graph.NumUsers(), s.Train.NumUsers())
	}
	if s.Graph != nil && s.GoldFinger != nil && s.Graph.NumUsers() != s.GoldFinger.NumUsers() {
		return fmt.Errorf("persist: graph has %d users, fingerprints %d", s.Graph.NumUsers(), s.GoldFinger.NumUsers())
	}
	recorded := s.Graph != nil && s.Graph.Clustering != (knng.Clustering{})
	if recorded {
		if err := s.Graph.Clustering.Check(); err != nil {
			return fmt.Errorf("persist: refusing to encode %w", err)
		}
	}
	buckets := recorded && s.Train != nil
	var count uint32
	for _, present := range []bool{s.Graph != nil, s.Train != nil, s.GoldFinger != nil, recorded, buckets} {
		if present {
			count++
		}
	}
	cw := &countingWriter{w: w}
	hdr := make([]byte, 0, 16)
	hdr = append(hdr, magic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, Version)
	hdr = binary.LittleEndian.AppendUint32(hdr, count)
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

var zeros [64]byte

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
	binary.LittleEndian.PutUint32(crc[:], checksum(payload))
	_, err := w.Write(crc[:])
	return err
}

// graphLayout locates the graph payload's slabs relative to the payload
// start. Offsets are payload-relative; the payload itself starts at a
// 64-byte-aligned file offset, so these are absolute alignments too.
type graphLayout struct{ offs, ids, sims, size int }

func graphLayoutOf(n, m int) graphLayout {
	offs := 64
	ids := alignUp(offs + 8*(n+1))
	sims := alignUp(ids + 4*m)
	return graphLayout{offs: offs, ids: ids, sims: sims, size: sims + 4*m}
}

type dsLayout struct{ name, lens, items, size int }

func dsLayoutOf(nameLen, n, ratings int) dsLayout {
	name := 64
	lens := alignUp(name + nameLen)
	items := alignUp(lens + 4*n)
	return dsLayout{name: name, lens: lens, items: items, size: items + 4*ratings}
}

type gfLayout struct{ ones, sigs, size int }

func gfLayoutOf(n, words int) gfLayout {
	ones := 64
	sigs := alignUp(ones + 4*n)
	return gfLayout{ones: ones, sigs: sigs, size: sigs + 8*n*words}
}

// bucketLayout locates a bucket table payload's arrays: configuration
// fn's offsets start at 64 + fn·stride and its user ids ids bytes later.
type bucketLayout struct{ stride, ids, size int }

func bucketLayoutOf(b, t, m int) bucketLayout {
	ids := alignUp(4 * (b + 1))
	stride := ids + alignUp(4*m)
	return bucketLayout{stride: stride, ids: ids, size: 64 + (t-1)*stride + ids + 4*m}
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

func encodeClustering(c knng.Clustering, gfSeed uint32) []byte {
	b := make([]byte, 64)
	binary.LittleEndian.PutUint32(b[0:], uint32(c.B))
	binary.LittleEndian.PutUint32(b[4:], uint32(c.T))
	binary.LittleEndian.PutUint64(b[8:], uint64(int64(c.N)))
	binary.LittleEndian.PutUint64(b[16:], uint64(c.Seed))
	binary.LittleEndian.PutUint32(b[24:], gfSeed)
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

// decodeBuckets decodes a bucket table payload of the family c over n
// users, checking only its framing (see the package comment).
func decodeBuckets(payload []byte, view bool, c knng.Clustering, n int) (*frh.Table, error) {
	if len(payload) < 64 {
		return nil, fmt.Errorf("bucket table payload too short (%d bytes)", len(payload))
	}
	b := binary.LittleEndian.Uint32(payload[0:])
	t := binary.LittleEndian.Uint32(payload[4:])
	users := binary.LittleEndian.Uint64(payload[8:])
	m := binary.LittleEndian.Uint64(payload[16:])
	if int(b) != c.B || int(t) != c.T {
		return nil, fmt.Errorf("bucket table is B=%d T=%d, the clustering record B=%d T=%d", b, t, c.B, c.T)
	}
	if users != uint64(n) || m > users {
		return nil, fmt.Errorf("bucket table lists %d of %d users, the dataset has %d", m, users, n)
	}
	lay := bucketLayoutOf(c.B, c.T, int(m))
	if len(payload) != lay.size {
		return nil, fmt.Errorf("bucket table payload is %d bytes, dimensions require %d", len(payload), lay.size)
	}
	tab := &frh.Table{B: c.B, T: c.T, N: n, Offsets: make([][]uint32, c.T), IDs: make([][]int32, c.T)}
	for fn := range c.T {
		at := 64 + fn*lay.stride
		offs, err := sliceU32(payload[at:at+4*(c.B+1)], view)
		if err != nil {
			return nil, err
		}
		ids, err := sliceI32(payload[at+lay.ids:at+lay.ids+4*int(m)], view)
		if err != nil {
			return nil, err
		}
		tab.Offsets[fn], tab.IDs[fn] = offs, ids
	}
	return tab, nil
}

// decodeClustering decodes a clustering payload into the record and the
// fingerprint item-hash seed.
func decodeClustering(payload []byte) (knng.Clustering, uint32, error) {
	if len(payload) != 64 {
		return knng.Clustering{}, 0, fmt.Errorf("clustering payload is %d bytes, want 64", len(payload))
	}
	c := knng.Clustering{
		B:    int(binary.LittleEndian.Uint32(payload[0:])),
		T:    int(binary.LittleEndian.Uint32(payload[4:])),
		N:    int(int64(binary.LittleEndian.Uint64(payload[8:]))),
		Seed: int64(binary.LittleEndian.Uint64(payload[16:])),
	}
	return c, binary.LittleEndian.Uint32(payload[24:]), c.Check()
}

// assembler accumulates decoded sections and runs the cross-section
// checks; Decode (streaming) and decodeAll (whole-image, mmap) share it
// so both load paths accept and reject identically.
type assembler struct {
	view bool
	snap Snapshot
	seen map[uint32]bool
	// The fingerprint payload is decoded in finish: its item-hash seed
	// is in the clustering section, which follows it in the file.
	gfAt       uint32
	gf         []byte
	clustering knng.Clustering
	gfSeed     uint32
	// The bucket table is decoded in finish too: its framing is checked
	// against the clustering record and the dataset.
	bucketsAt uint32
	buckets   []byte
}

func newAssembler(view bool) *assembler {
	return &assembler{view: view, seen: make(map[uint32]bool, 4)}
}

func (a *assembler) section(i uint32, typ uint32, payload []byte) error {
	if err := a.claim(i, typ); err != nil {
		return err
	}
	return a.decode(i, typ, payload, nil)
}

// claim records section i's type, rejecting duplicates and unknown
// types.
func (a *assembler) claim(i uint32, typ uint32) error {
	if a.seen[typ] {
		return fmt.Errorf("%w: duplicate section type %d", ErrCorrupt, typ)
	}
	a.seen[typ] = true
	if typ < secGraph || typ > secBuckets {
		return fmt.Errorf("%w: section %d: unknown section type %d", ErrCorrupt, i, typ)
	}
	return nil
}

// decode decodes claimed section i into the snapshot; pre, when it
// covers the section's bounds-checked slab, spares the decoder its
// scan. Sections of distinct types write distinct fields, so decodeAll
// runs them concurrently.
func (a *assembler) decode(i uint32, typ uint32, payload []byte, pre *slabMax) error {
	var err error
	switch typ {
	case secGraph:
		a.snap.Graph, err = decodeGraph(payload, a.view, pre)
	case secDataset:
		a.snap.Train, err = decodeDataset(payload, a.view, pre)
	case secGoldFinger:
		a.gfAt, a.gf = i, payload
	case secClustering:
		a.clustering, a.gfSeed, err = decodeClustering(payload)
	case secBuckets:
		a.bucketsAt, a.buckets = i, payload
	}
	if err != nil {
		return fmt.Errorf("%w: section %d: %v", ErrCorrupt, i, err)
	}
	return nil
}

func (a *assembler) finish() (*Snapshot, error) {
	s := &a.snap
	if a.seen[secGoldFinger] {
		gf, err := decodeGoldFinger(a.gf, a.view, a.gfSeed)
		if err != nil {
			return nil, fmt.Errorf("%w: section %d: %v", ErrCorrupt, a.gfAt, err)
		}
		s.GoldFinger = gf
	}
	if a.seen[secClustering] {
		if s.Graph == nil {
			return nil, fmt.Errorf("%w: clustering record without a graph", ErrCorrupt)
		}
		s.Graph.Clustering = a.clustering
	}
	// Cross-section consistency: every artifact describes the same users.
	if s.Graph != nil && s.Train != nil && s.Graph.NumUsers() != s.Train.NumUsers() {
		return nil, fmt.Errorf("%w: graph has %d users, dataset %d",
			ErrCorrupt, s.Graph.NumUsers(), s.Train.NumUsers())
	}
	if s.Graph != nil && s.GoldFinger != nil && s.Graph.NumUsers() != s.GoldFinger.NumUsers() {
		return nil, fmt.Errorf("%w: graph has %d users, fingerprints %d",
			ErrCorrupt, s.Graph.NumUsers(), s.GoldFinger.NumUsers())
	}
	if a.seen[secBuckets] {
		if !a.seen[secClustering] || s.Train == nil {
			return nil, fmt.Errorf("%w: bucket table without a clustering record and a dataset", ErrCorrupt)
		}
		tab, err := decodeBuckets(a.buckets, a.view, a.clustering, s.Train.NumUsers())
		if err != nil {
			return nil, fmt.Errorf("%w: section %d: %v", ErrCorrupt, a.bucketsAt, err)
		}
		s.Buckets = tab
	}
	return s, nil
}

// checkHeader validates the 16-byte file header and returns the section
// count.
func checkHeader(hdr []byte) (count uint32, err error) {
	if !bytes.Equal(hdr[:8], magic[:]) {
		return 0, fmt.Errorf("%w: bad magic %q", ErrCorrupt, hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != Version {
		return 0, fmt.Errorf("%w: file has version %d, this build reads only %d; rebuild the snapshot with c2build -snap",
			ErrVersion, v, Version)
	}
	count = binary.LittleEndian.Uint32(hdr[12:16])
	if count == 0 || count > maxSections {
		return 0, fmt.Errorf("%w: implausible section count %d", ErrCorrupt, count)
	}
	return count, nil
}

// Decode reads a snapshot from r.
// This is the copy path: decoded structures own their memory and r is
// read strictly forward in bounded chunks. On any error the returned
// snapshot is nil — a decoded Snapshot is always complete and
// validated.
func Decode(r io.Reader) (*Snapshot, error) {
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCorrupt, err)
	}
	count, err := checkHeader(hdr[:])
	if err != nil {
		return nil, err
	}
	asm := newAssembler(false)
	off := uint64(16)
	for i := uint32(0); i < count; i++ {
		var sh [12]byte
		if _, err := io.ReadFull(r, sh[:]); err != nil {
			return nil, fmt.Errorf("%w: section %d header: %v", ErrCorrupt, i, err)
		}
		off += 12
		typ := binary.LittleEndian.Uint32(sh[0:4])
		length := binary.LittleEndian.Uint64(sh[4:12])
		var padBuf [64]byte
		pad := pad64(off)
		if _, err := io.ReadFull(r, padBuf[:pad]); err != nil {
			return nil, fmt.Errorf("%w: section %d padding: %v", ErrCorrupt, i, err)
		}
		if !bytes.Equal(padBuf[:pad], zeros[:pad]) {
			return nil, fmt.Errorf("%w: section %d has non-zero padding", ErrCorrupt, i)
		}
		off += uint64(pad)
		payload, err := readPayload(r, length)
		if err != nil {
			return nil, fmt.Errorf("%w: section %d (type %d): %v", ErrCorrupt, i, typ, err)
		}
		off += length
		var crc [4]byte
		if _, err := io.ReadFull(r, crc[:]); err != nil {
			return nil, fmt.Errorf("%w: section %d checksum: %v", ErrCorrupt, i, err)
		}
		off += 4
		if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(crc[:]); got != want {
			return nil, fmt.Errorf("%w: section %d (type %d) checksum mismatch", ErrCorrupt, i, typ)
		}
		if err := asm.section(i, typ, payload); err != nil {
			return nil, err
		}
	}
	// The stream must end exactly here; trailing bytes mean the header's
	// section count was damaged (or the file was concatenated with junk).
	var probe [1]byte
	if _, err := io.ReadFull(r, probe[:]); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after final section", ErrCorrupt)
	}
	return asm.finish()
}

// decodeAll decodes a complete in-memory snapshot image. With view set,
// array slabs become unsafe.Slice views aliasing data (which
// must then outlive the snapshot and have 64-byte-aligned backing — an
// mmap, or a test buffer via alignedCopy); otherwise all structures own
// their memory. Both modes run the same validation.
//
// It verifies in three steps. First it walks the framing, and locates
// the bounds-checked slabs from the section headers under the decoders'
// own plausibility checks. Then scan checksums every payload byte, and
// max-reduces those slabs, in one chunked pass on all cores. Only once
// every section's CRC matches does it decode the sections, concurrently,
// each decoder taking the slab maximum in place of its own scan.
func decodeAll(data []byte, view bool) (*Snapshot, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("%w: header: file is %d bytes", ErrCorrupt, len(data))
	}
	count, err := checkHeader(data[:16])
	if err != nil {
		return nil, err
	}
	types := make([]uint32, 0, count)
	wants := make([]uint32, 0, count)
	spans := make([]span, 0, count)
	off := uint64(16)
	size := uint64(len(data))
	for i := uint32(0); i < count; i++ {
		if size-off < 12 {
			return nil, fmt.Errorf("%w: section %d header: truncated", ErrCorrupt, i)
		}
		typ := binary.LittleEndian.Uint32(data[off:])
		length := binary.LittleEndian.Uint64(data[off+4:])
		off += 12
		pad := uint64(pad64(off))
		if size-off < pad {
			return nil, fmt.Errorf("%w: section %d padding: truncated", ErrCorrupt, i)
		}
		if !bytes.Equal(data[off:off+pad], zeros[:pad]) {
			return nil, fmt.Errorf("%w: section %d has non-zero padding", ErrCorrupt, i)
		}
		off += pad
		if length > maxSectionBytes {
			return nil, fmt.Errorf("%w: section %d (type %d): section length %d exceeds the %d-byte bound",
				ErrCorrupt, i, typ, length, int64(maxSectionBytes))
		}
		if size-off < length+4 {
			return nil, fmt.Errorf("%w: section %d (type %d): truncated payload", ErrCorrupt, i, typ)
		}
		payload := data[off : off+length : off+length]
		off += length
		types = append(types, typ)
		wants = append(wants, binary.LittleEndian.Uint32(data[off:]))
		spans = append(spans, span{b: payload, slab: boundsSlab(typ, payload)})
		off += 4
	}
	if off != size {
		return nil, fmt.Errorf("%w: trailing data after final section", ErrCorrupt)
	}
	scan(spans)
	for i, sp := range spans {
		if sp.crc != wants[i] {
			return nil, fmt.Errorf("%w: section %d (type %d) checksum mismatch", ErrCorrupt, i, types[i])
		}
	}
	asm := newAssembler(view)
	for i, typ := range types {
		if err := asm.claim(uint32(i), typ); err != nil {
			return nil, err
		}
	}
	errs := make([]error, len(spans))
	parallel(len(spans), func(i int) {
		errs[i] = asm.decode(uint32(i), types[i], spans[i].b, spans[i].slab)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return asm.finish()
}

// boundsSlab locates the int32 slab of a section payload whose every
// value its decoder bounds-checks — the graph's neighbor ids or the
// dataset's items — for scan to max-reduce. It reads the section header
// before the CRC has vouched for it, so it goes through the decoder's
// own header checks (plausible dimensions, exact payload size) and
// returns nil wherever the decoder will reject the header anyway, for
// other section types, and for a slab that does not start 4-byte
// aligned in memory (one the view decoder refuses).
func boundsSlab(typ uint32, payload []byte) *slabMax {
	var lo, n int
	switch typ {
	case secGraph:
		h, err := readGraphHeader(payload)
		if err != nil {
			return nil
		}
		lo, n = h.lay.ids, h.m
	case secDataset:
		h, err := readDatasetHeader(payload)
		if err != nil {
			return nil
		}
		lo, n = h.lay.items, h.ratings
	default:
		return nil
	}
	if n > 0 && uintptr(unsafe.Pointer(&payload[lo]))%4 != 0 {
		return nil
	}
	return &slabMax{lo: lo, hi: lo + 4*n}
}

// readPayload reads exactly length bytes in bounded chunks, so a
// corrupted length field against a truncated stream fails after
// allocating at most ~2× the bytes actually present.
func readPayload(r io.Reader, length uint64) ([]byte, error) {
	if length > maxSectionBytes {
		return nil, fmt.Errorf("section length %d exceeds the %d-byte bound", length, int64(maxSectionBytes))
	}
	const chunk = 1 << 20
	capHint := length
	if capHint > chunk {
		capHint = chunk
	}
	buf := make([]byte, 0, capHint)
	for uint64(len(buf)) < length {
		n := length - uint64(len(buf))
		if n > chunk {
			n = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, n)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, fmt.Errorf("truncated payload: %v", err)
		}
	}
	return buf, nil
}

// dec is a cursor over a fully checksummed payload; after the upfront
// exact-size check the fixed-width reads cannot fail.
type dec struct {
	b   []byte
	off int
}

func (d *dec) u16() uint16 {
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *dec) u32() uint32 {
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *dec) u64() uint64 {
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// graphHeader is a graph payload's checked header.
type graphHeader struct {
	k, n, m int
	lay     graphLayout
}

// readGraphHeader reads a graph payload's header and checks its
// dimensions for plausibility and against the payload size.
func readGraphHeader(payload []byte) (graphHeader, error) {
	if len(payload) < 64 {
		return graphHeader{}, fmt.Errorf("graph payload too short (%d bytes)", len(payload))
	}
	k := binary.LittleEndian.Uint32(payload[0:])
	n := binary.LittleEndian.Uint64(payload[8:])
	m := binary.LittleEndian.Uint64(payload[16:])
	if n > maxUsers || m > maxEdges || k > maxK {
		return graphHeader{}, fmt.Errorf("implausible graph dimensions: k=%d users=%d edges=%d", k, n, m)
	}
	lay := graphLayoutOf(int(n), int(m))
	if len(payload) != lay.size {
		return graphHeader{}, fmt.Errorf("graph payload is %d bytes, dimensions require %d", len(payload), lay.size)
	}
	return graphHeader{k: int(k), n: int(n), m: int(m), lay: lay}, nil
}

// decodeGraph decodes a graph payload, as aliasing views when
// view is set (payload must be 64-byte-aligned) or as owned copies.
// pre may carry the neighbor-id slab's maximum (see slabMax.of).
func decodeGraph(payload []byte, view bool, pre *slabMax) (*knng.Frozen, error) {
	h, err := readGraphHeader(payload)
	if err != nil {
		return nil, err
	}
	lay := h.lay
	offsets, err := sliceI64(payload[lay.offs:lay.offs+8*(h.n+1)], view)
	if err != nil {
		return nil, err
	}
	ids, err := sliceI32(payload[lay.ids:lay.ids+4*h.m], view)
	if err != nil {
		return nil, err
	}
	sims, err := sliceF32(payload[lay.sims:lay.sims+4*h.m], view)
	if err != nil {
		return nil, err
	}
	return knng.NewFrozenView(h.k, offsets, ids, sims, pre.of(lay.ids, lay.ids+4*h.m, ids))
}

// datasetHeader is a dataset payload's checked header.
type datasetHeader struct {
	nameLen, n, ratings int
	numItems            uint32
	lay                 dsLayout
}

// readDatasetHeader reads a dataset payload's header and checks its
// dimensions for plausibility and against the payload size.
func readDatasetHeader(payload []byte) (datasetHeader, error) {
	if len(payload) < 64 {
		return datasetHeader{}, fmt.Errorf("dataset payload too short (%d bytes)", len(payload))
	}
	nameLen := binary.LittleEndian.Uint32(payload[0:])
	numItems := binary.LittleEndian.Uint32(payload[4:])
	n := binary.LittleEndian.Uint64(payload[8:])
	ratings := binary.LittleEndian.Uint64(payload[16:])
	if n > maxUsers || ratings > maxEdges || numItems > maxItems || nameLen > math.MaxUint16 {
		return datasetHeader{}, fmt.Errorf("implausible dataset dimensions: users=%d ratings=%d items=%d nameLen=%d",
			n, ratings, numItems, nameLen)
	}
	lay := dsLayoutOf(int(nameLen), int(n), int(ratings))
	if len(payload) != lay.size {
		return datasetHeader{}, fmt.Errorf("dataset payload is %d bytes, dimensions require %d", len(payload), lay.size)
	}
	return datasetHeader{nameLen: int(nameLen), n: int(n), ratings: int(ratings), numItems: numItems, lay: lay}, nil
}

// decodeDataset decodes a dataset payload. pre may carry the item
// slab's maximum (see slabMax.of).
func decodeDataset(payload []byte, view bool, pre *slabMax) (*dataset.Dataset, error) {
	h, err := readDatasetHeader(payload)
	if err != nil {
		return nil, err
	}
	lay := h.lay
	name := string(payload[lay.name : lay.name+h.nameLen])
	items, err := sliceI32(payload[lay.items:lay.items+4*h.ratings], view)
	if err != nil {
		return nil, err
	}
	ratings := uint64(h.ratings)
	profiles := make([][]int32, h.n)
	var total uint64
	for u := range profiles {
		l := uint64(binary.LittleEndian.Uint32(payload[lay.lens+4*u:]))
		// Checked add: each length is bounded by the ratings budget still
		// unclaimed, so hostile lengths can neither wrap the sum nor push
		// a profile past the item slab.
		if l > ratings-total {
			return nil, fmt.Errorf("profile lengths exceed the %d ratings the header declares", ratings)
		}
		profiles[u] = items[total : total+l : total+l]
		total += l
	}
	if total != ratings {
		return nil, fmt.Errorf("profile lengths sum to %d, header says %d ratings", total, ratings)
	}
	ds := &dataset.Dataset{Name: name, NumItems: int32(h.numItems), Profiles: profiles}
	// Bounds-check the flat slab rather than profile by profile: the
	// checked adds above prove every profile is a sub-slice of items, so
	// its maximum covers them all. ValidateBounds reruns the per-profile
	// walk only to name the offending user in the error.
	if len(items) > 0 && pre.of(lay.items, lay.items+4*h.ratings, items) >= h.numItems {
		if err := ds.ValidateBounds(); err != nil {
			return nil, err
		}
	}
	return ds, nil
}

// decodeGoldFinger decodes a fingerprint payload made with item-hash
// seed seed.
func decodeGoldFinger(payload []byte, view bool, seed uint32) (*goldfinger.Set, error) {
	if len(payload) < 64 {
		return nil, fmt.Errorf("goldfinger payload too short (%d bytes)", len(payload))
	}
	bitsN := binary.LittleEndian.Uint32(payload[0:])
	n := binary.LittleEndian.Uint64(payload[8:])
	if bitsN == 0 || bitsN%64 != 0 || bitsN > maxBits || n > maxUsers {
		return nil, fmt.Errorf("implausible fingerprint dimensions: bits=%d users=%d", bitsN, n)
	}
	words := int(bitsN / 64)
	lay := gfLayoutOf(int(n), words)
	if len(payload) != lay.size {
		return nil, fmt.Errorf("goldfinger payload is %d bytes, dimensions require %d", len(payload), lay.size)
	}
	ones, err := sliceI32(payload[lay.ones:lay.ones+4*int(n)], view)
	if err != nil {
		return nil, err
	}
	sigs, err := sliceU64(payload[lay.sigs:lay.sigs+8*int(n)*words], view)
	if err != nil {
		return nil, err
	}
	return goldfinger.FromParts(int(bitsN), int(n), sigs, ones, seed)
}

// WriteFile atomically writes s to path: the snapshot is encoded to a
// unique temp file in path's directory, fsynced, and renamed into
// place, with the containing directory fsynced after the rename — so a
// crash at any point leaves either the old snapshot or the complete new
// one where a serving process expects a valid file, never a torn or
// empty rename victim, and concurrent writers to the same path cannot
// interleave (last rename wins whole).
func WriteFile(path string, s *Snapshot) error {
	return writeFileAtomic(path, func(w io.Writer) error { return Encode(w, s) })
}

// writeFileAtomic runs write against a buffered unique temp file in
// path's directory and publishes it with the fsync-rename-fsync
// discipline WriteFile documents. Temp files abandoned by crashed
// writers are swept opportunistically.
func writeFileAtomic(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	base := filepath.Base(path)
	removeStaleTemps(dir, base)
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := write(w); err != nil {
		return fail(err)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	// Data must be durable before the rename becomes visible, or a power
	// loss can persist the rename ahead of the blocks and leave an
	// empty/partial file at path.
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Make the rename itself durable. Some platforms/filesystems reject
	// directory fsync; the rename has already succeeded, so that is not
	// worth failing the write over.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// staleTempAge is how old an abandoned temp file must be before
// removeStaleTemps reclaims it; young temps may belong to a live writer.
const staleTempAge = 10 * time.Minute

// removeStaleTemps deletes temp files for base left behind by crashed
// writers (both the CreateTemp pattern and the legacy fixed ".tmp"
// name). Best-effort: sweep failures never fail the write that
// triggered them.
func removeStaleTemps(dir, base string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-staleTempAge)
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), base+".tmp") {
			continue
		}
		if info, err := e.Info(); err == nil && info.ModTime().Before(cutoff) {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// ReadFile loads a snapshot from path by copy-decode. LoadFile/
// LoadFileMode select between this and the mmap path.
func ReadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(bufio.NewReaderSize(f, 1<<20))
}
