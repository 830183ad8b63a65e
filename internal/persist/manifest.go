package persist

// The shard manifest: the versioned artifact that describes one build
// partitioned across N snapshot shards. c2build -shards writes it next
// to the shard snapshots; c2serve -role router reads it to construct
// its immutable-after-start shard table. See doc.go ("Shard manifest
// format") for the byte-level spec.
//
// A manifest answers three questions the router and operators need:
// which bucket range each shard owns (frh.ShardKey space), which
// snapshot file serves it (path + whole-file CRC-32C, so a copied or
// regenerated file can be verified against the layout it claims to
// implement), and which build generation the shards came from (Epoch —
// shards from different builds must never serve behind one router, or
// cross-shard answers would mix graphs).

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"c2knn/internal/frh"
	"c2knn/internal/knng"
)

// ManifestVersion is the shard-manifest format version this build reads
// and writes.
const ManifestVersion = 1

var manifestMagic = [8]byte{'C', '2', 'M', 'A', 'N', 'I', '\r', '\n'}

// maxManifestShards bounds the shard count a decoder will accept; a
// corrupted count field beyond it fails fast. 4096 shards is the whole
// default key space at one bucket per shard.
const maxManifestShards = 4096

// ShardEntry describes one shard of a partitioned build.
type ShardEntry struct {
	// ID is the shard's index in [0, len(Shards)); routers key replica
	// address lists by it.
	ID int
	// Range is the inclusive shard-key bucket range the shard owns.
	Range frh.BucketRange
	// Path is the shard's snapshot file, relative to the manifest's own
	// directory (so the build tree can be moved or copied wholesale).
	Path string
	// CRC is the CRC-32C of the snapshot file's full contents.
	CRC uint32
	// Epoch is the build generation the shard was partitioned from; all
	// entries of one manifest share it (duplicated per entry so a lone
	// entry pasted into another manifest is detectable).
	Epoch uint64
	// Users is the number of users the shard owns (its graph rows are
	// non-empty only for those).
	Users int
}

// Manifest is the shard layout of one partitioned build.
type Manifest struct {
	// Buckets is the shard-key space size the ranges partition
	// (frh.ShardKey's second argument). Routers must hash with exactly
	// this value.
	Buckets int
	// Epoch is the build generation stamp (c2build uses the build's
	// unix time).
	Epoch uint64
	// Shards lists the shards in id order; their ranges must be
	// disjoint and cover [1, Buckets] completely.
	Shards []ShardEntry
}

// Validate checks the layout invariants a router relies on: ids dense
// in order, ranges valid, sorted, disjoint, covering the whole key
// space (no user may be unroutable), and epochs consistent.
func (m *Manifest) Validate() error {
	if m.Buckets < 1 {
		return fmt.Errorf("persist: manifest has %d buckets", m.Buckets)
	}
	if len(m.Shards) == 0 {
		return fmt.Errorf("persist: manifest lists no shards")
	}
	next := uint32(1)
	for i, sh := range m.Shards {
		if sh.ID != i {
			return fmt.Errorf("persist: shard %d carries id %d; ids must be dense and ordered", i, sh.ID)
		}
		if err := sh.Range.Validate(m.Buckets); err != nil {
			return err
		}
		if sh.Range.Lo != next {
			return fmt.Errorf("persist: shard %d range starts at bucket %d, want %d (ranges must tile [1, %d])",
				i, sh.Range.Lo, next, m.Buckets)
		}
		next = sh.Range.Hi + 1
		if sh.Epoch != m.Epoch {
			return fmt.Errorf("persist: shard %d epoch %d differs from manifest epoch %d", i, sh.Epoch, m.Epoch)
		}
		if sh.Path == "" {
			return fmt.Errorf("persist: shard %d has no snapshot path", i)
		}
		if sh.Users < 0 {
			return fmt.Errorf("persist: shard %d has negative user count", i)
		}
	}
	if next != uint32(m.Buckets)+1 {
		return fmt.Errorf("persist: shard ranges end at bucket %d, want %d", next-1, m.Buckets)
	}
	return nil
}

// EncodeManifest writes m to w in the manifest format.
func EncodeManifest(w io.Writer, m *Manifest) error {
	if err := m.Validate(); err != nil {
		return err
	}
	var payload []byte
	payload = binary.LittleEndian.AppendUint64(payload, m.Epoch)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(m.Buckets))
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(m.Shards)))
	for _, sh := range m.Shards {
		if len(sh.Path) > math.MaxUint16 {
			return fmt.Errorf("persist: shard %d path longer than %d bytes", sh.ID, math.MaxUint16)
		}
		payload = binary.LittleEndian.AppendUint32(payload, uint32(sh.ID))
		payload = binary.LittleEndian.AppendUint32(payload, sh.Range.Lo)
		payload = binary.LittleEndian.AppendUint32(payload, sh.Range.Hi)
		payload = binary.LittleEndian.AppendUint64(payload, sh.Epoch)
		payload = binary.LittleEndian.AppendUint32(payload, sh.CRC)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(sh.Users))
		payload = binary.LittleEndian.AppendUint16(payload, uint16(len(sh.Path)))
		payload = append(payload, sh.Path...)
	}
	hdr := make([]byte, 0, 20)
	hdr = append(hdr, manifestMagic[:]...)
	hdr = binary.LittleEndian.AppendUint32(hdr, ManifestVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, crcTable))
	_, err := w.Write(crc[:])
	return err
}

// DecodeManifest reads a manifest from r. Like Decode it never panics
// on hostile input and never returns a partially populated manifest:
// the payload is checksummed, every length validated, and the decoded
// layout must pass Validate.
func DecodeManifest(r io.Reader) (*Manifest, error) {
	var hdr [20]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: manifest header: %v", ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:8], manifestMagic[:]) {
		return nil, fmt.Errorf("%w: bad manifest magic %q", ErrCorrupt, hdr[:8])
	}
	if v := binary.LittleEndian.Uint32(hdr[8:12]); v != ManifestVersion {
		return nil, fmt.Errorf("%w: manifest has version %d, this build reads %d", ErrVersion, v, ManifestVersion)
	}
	length := binary.LittleEndian.Uint64(hdr[12:20])
	// 16 bytes of fixed payload plus 34 per shard is the minimum; the
	// section-style chunked read bounds memory against a lying length.
	payload, err := readPayload(r, length)
	if err != nil {
		return nil, fmt.Errorf("%w: manifest payload: %v", ErrCorrupt, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(r, crc[:]); err != nil {
		return nil, fmt.Errorf("%w: manifest checksum: %v", ErrCorrupt, err)
	}
	if got, want := crc32.Checksum(payload, crcTable), binary.LittleEndian.Uint32(crc[:]); got != want {
		return nil, fmt.Errorf("%w: manifest checksum mismatch", ErrCorrupt)
	}
	var probe [1]byte
	if _, err := io.ReadFull(r, probe[:]); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after manifest", ErrCorrupt)
	}
	if len(payload) < 16 {
		return nil, fmt.Errorf("%w: manifest payload too short (%d bytes)", ErrCorrupt, len(payload))
	}
	d := &dec{b: payload}
	m := &Manifest{}
	m.Epoch = d.u64()
	m.Buckets = int(d.u32())
	count := d.u32()
	if count == 0 || count > maxManifestShards {
		return nil, fmt.Errorf("%w: implausible shard count %d", ErrCorrupt, count)
	}
	for i := uint32(0); i < count; i++ {
		if len(payload)-d.off < 34 {
			return nil, fmt.Errorf("%w: manifest truncated inside shard %d", ErrCorrupt, i)
		}
		var sh ShardEntry
		sh.ID = int(d.u32())
		sh.Range.Lo = d.u32()
		sh.Range.Hi = d.u32()
		sh.Epoch = d.u64()
		sh.CRC = d.u32()
		sh.Users = int(d.u64())
		pathLen := int(d.u16())
		if len(payload)-d.off < pathLen {
			return nil, fmt.Errorf("%w: manifest truncated inside shard %d path", ErrCorrupt, i)
		}
		sh.Path = string(payload[d.off : d.off+pathLen])
		d.off += pathLen
		m.Shards = append(m.Shards, sh)
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("%w: %d stray bytes after the last shard entry", ErrCorrupt, len(payload)-d.off)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return m, nil
}

// WriteManifestFile atomically writes m to path (same unique-temp,
// fsync-rename discipline as WriteFile).
func WriteManifestFile(path string, m *Manifest) error {
	return writeFileAtomic(path, func(w io.Writer) error { return EncodeManifest(w, m) })
}

// ReadManifestFile loads a manifest from path.
func ReadManifestFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeManifest(bufio.NewReader(f))
}

// FileCRC32C returns the CRC-32C of a file's full contents — the value
// recorded per shard in a manifest. It reads 1 MiB blocks and streams
// them through crcUpdate, the snapshot checksum's kernel.
func FileCRC32C(path string) (uint32, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	buf := make([]byte, 1<<20)
	var crc uint32
	for {
		n, err := io.ReadFull(f, buf)
		crc = crcUpdate(crc, buf[:n])
		switch err {
		case nil:
		case io.EOF, io.ErrUnexpectedEOF:
			return crc, nil
		default:
			return 0, err
		}
	}
}

// MaskFrozen returns a copy of f keeping only the adjacency rows of
// users owns reports true for; every other user's row is empty. The
// user-id space is unchanged — neighbor ids still reference global ids —
// so a masked graph validates and serves exactly like the original for
// owned users, while its edge storage shrinks to the owned share. This
// is the per-shard serving artifact: the shard answers its own users
// bit-for-bit identically to the unpartitioned snapshot and answers
// empty for everyone else (whom the router never sends it). The mask
// keeps f's clustering record, so a shard places upserts with the
// build's family.
func MaskFrozen(f *knng.Frozen, owns func(u int32) bool) *knng.Frozen {
	n := f.NumUsers()
	kept := 0
	for u := 0; u < n; u++ {
		if owns(int32(u)) {
			kept += f.Degree(int32(u))
		}
	}
	out := &knng.Frozen{
		K:          f.K,
		Offsets:    make([]int64, n+1),
		IDs:        make([]int32, 0, kept),
		Sims:       make([]float32, 0, kept),
		Clustering: f.Clustering,
	}
	for u := 0; u < n; u++ {
		if owns(int32(u)) {
			lo, hi := f.Offsets[u], f.Offsets[u+1]
			out.IDs = append(out.IDs, f.IDs[lo:hi]...)
			out.Sims = append(out.Sims, f.Sims[lo:hi]...)
		}
		out.Offsets[u+1] = int64(len(out.IDs))
	}
	return out
}

// PartitionSnapshot splits s into one snapshot per bucket range: shard
// i's graph keeps exactly the rows of users whose frh.ShardKey (over
// buckets) falls in ranges[i]. The training dataset and fingerprints
// are shared by reference — recommendation scores against neighbors'
// profiles, and a user's neighbors may live anywhere in the id space,
// so every shard carries the full profile set (the graph, which
// dominates a serving snapshot, is what partitions). The returned
// per-shard user counts align with the snapshots.
func PartitionSnapshot(s *Snapshot, buckets int, ranges []frh.BucketRange) ([]*Snapshot, []int, error) {
	if s == nil || s.Graph == nil {
		return nil, nil, fmt.Errorf("persist: partitioning needs a snapshot with a graph")
	}
	shards := make([]*Snapshot, len(ranges))
	users := make([]int, len(ranges))
	n := s.Graph.NumUsers()
	// One pass over the id space computes every user's owner; the mask
	// closures then test precomputed ownership instead of re-hashing.
	owner := make([]int16, n)
	for u := 0; u < n; u++ {
		owner[u] = int16(frh.ShardOf(int32(u), buckets, ranges))
		if owner[u] >= 0 {
			users[owner[u]]++
		}
	}
	for i := range ranges {
		i := i
		shards[i] = &Snapshot{
			Graph:      MaskFrozen(s.Graph, func(u int32) bool { return int(owner[u]) == i }),
			Train:      s.Train,
			GoldFinger: s.GoldFinger,
		}
	}
	return shards, users, nil
}
