package persist

// The mmap load path. MapFile maps a snapshot file read-only
// and serves the artifact structures as unsafe.Slice views over the
// mapping: no decode copy, no per-element work beyond the one-pass
// verifier's CRC and bounds scan (see the package comment's
// Robustness section), and N replicas of one host share one physical copy
// of the slabs through the page cache. Lifetime is explicit — the
// returned Snapshot carries a refcounted Mapping, and callers (the
// serving Index) must hold a reference across every access, because
// after the last Release the pages are gone and a stale view is a
// segfault, not a recoverable error.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"unsafe"
)

// ErrMapUnavailable tags MapFile failures that mean "this file or
// platform cannot be memory-mapped" rather than "this file is bad":
// non-mmap platforms, big-endian hosts, or an mmap syscall the
// filesystem refuses. LoadFileMode's auto mode falls back to
// copy-decode exactly when errors.Is(err, ErrMapUnavailable);
// corruption and version skew never trigger fallback, so a damaged or
// foreign-version file fails loudly on every path.
var ErrMapUnavailable = errors.New("persist: snapshot cannot be memory-mapped")

// hostLittleEndian reports whether the host stores integers
// little-endian — the byte order the format fixes. On a big-endian host
// views would transpose every integer, so the mmap path declines and
// the portable copy decoder runs instead, and Encode converts every slab
// (leBytes) instead of writing it from memory as it lies.
var hostLittleEndian = func() bool {
	var buf [2]byte
	binary.NativeEndian.PutUint16(buf[:], 0x0102)
	return buf[0] == 0x02
}()

// Mapping is a refcounted read-only memory mapping backing a Snapshot's
// views. It starts with one reference (the creating caller's); Retain
// adds one for each additional holder and Release drops one, unmapping
// when the count reaches zero. After unmap every view into the mapping
// is poison — the refcount is the only thing standing between a hot
// swap and a segfault in a still-draining request.
type Mapping struct {
	data []byte
	refs atomic.Int64
}

// Retain adds a reference and reports success. It fails — leaving the
// count untouched — once the count has reached zero: a mapping that has
// started unmapping can never be resurrected, so a loser of a
// swap/retain race simply observes false and retries against the new
// epoch's mapping.
func (m *Mapping) Retain() bool {
	for {
		r := m.refs.Load()
		if r <= 0 {
			return false
		}
		if m.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// Release drops one reference, unmapping when the last one goes.
// Releasing more times than retained is a lifetime bug; it panics
// rather than corrupt the count.
func (m *Mapping) Release() {
	if m == nil {
		return
	}
	switch r := m.refs.Add(-1); {
	case r == 0:
		data := m.data
		m.data = nil
		munmap(data)
	case r < 0:
		panic("persist: Mapping released more times than retained")
	}
}

// Refs returns the current reference count (for tests and stats).
func (m *Mapping) Refs() int64 {
	if m == nil {
		return 0
	}
	return m.refs.Load()
}

// Size returns the mapped file size in bytes, 0 after unmap.
func (m *Mapping) Size() int {
	if m == nil {
		return 0
	}
	return len(m.data)
}

// MapFile maps the snapshot at path read-only and returns a Snapshot
// whose artifacts view the mapping directly. Before any section is
// decoded, one pass on GOMAXPROCS workers checksums every payload byte
// and takes the maximum of every neighbor id and item; the snapshot is
// returned only once every CRC matches and every id and item is in
// bounds (see the package comment's Robustness section), so integrity
// cover equals the copy path's. The returned snapshot's Mapping holds
// one reference; the caller owns it and must Release (via
// Snapshot.Close or a take-over by c2knn.Index) when the views are no
// longer reachable.
//
// Where the file cannot be mapped — non-mmap platform, big-endian host
// — MapFile fails with ErrMapUnavailable; corrupt files fail with
// ErrCorrupt and other format versions with ErrVersion. Use
// LoadFileMode for automatic fallback.
func MapFile(path string) (*Snapshot, error) {
	if !mmapSupported {
		return nil, fmt.Errorf("%w: no mmap on this platform", ErrMapUnavailable)
	}
	if !hostLittleEndian {
		return nil, fmt.Errorf("%w: big-endian host", ErrMapUnavailable)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < 16 {
		return nil, fmt.Errorf("%w: header: file is %d bytes", ErrCorrupt, st.Size())
	}
	if st.Size() > math.MaxInt {
		return nil, fmt.Errorf("%w: file is %d bytes", ErrMapUnavailable, st.Size())
	}
	data, err := mmapFile(f, int(st.Size()))
	if err != nil {
		// An mmap refusal on an exotic filesystem is an availability
		// problem, not a corruption one; let auto mode fall back.
		return nil, fmt.Errorf("%w: mmap: %v", ErrMapUnavailable, err)
	}
	snap, err := decodeAll(data, true)
	if err != nil {
		munmap(data)
		return nil, err
	}
	m := &Mapping{data: data}
	m.refs.Store(1)
	snap.Mapping = m
	return snap, nil
}

// LoadMode selects how a snapshot file is materialized.
type LoadMode int

const (
	// LoadAuto memory-maps when the file and platform allow it and
	// copy-decodes otherwise — the default everywhere.
	LoadAuto LoadMode = iota
	// LoadCopy always copy-decodes (heap-owned structures, no mapping).
	LoadCopy
	// LoadMMap requires the mmap path and fails if it is unavailable.
	LoadMMap
)

func (m LoadMode) String() string {
	switch m {
	case LoadAuto:
		return "auto"
	case LoadCopy:
		return "copy"
	case LoadMMap:
		return "mmap"
	}
	return fmt.Sprintf("LoadMode(%d)", int(m))
}

// ParseLoadMode parses a load-mode name as accepted by the C2_LOAD
// environment variable and the c2serve -load flag; the empty string
// means auto.
func ParseLoadMode(s string) (LoadMode, error) {
	switch s {
	case "", "auto":
		return LoadAuto, nil
	case "copy":
		return LoadCopy, nil
	case "mmap":
		return LoadMMap, nil
	}
	return 0, fmt.Errorf("persist: unknown load mode %q (want auto, copy, or mmap)", s)
}

// LoadFileMode loads the snapshot at path under the given mode.
func LoadFileMode(path string, mode LoadMode) (*Snapshot, error) {
	switch mode {
	case LoadCopy:
		return ReadFile(path)
	case LoadMMap:
		return MapFile(path)
	default:
		s, err := MapFile(path)
		if errors.Is(err, ErrMapUnavailable) {
			return ReadFile(path)
		}
		return s, err
	}
}

// LoadFile loads the snapshot at path under the mode named by the
// C2_LOAD environment variable ("auto" when unset).
func LoadFile(path string) (*Snapshot, error) {
	mode, err := ParseLoadMode(os.Getenv("C2_LOAD"))
	if err != nil {
		return nil, err
	}
	return LoadFileMode(path, mode)
}

// sliceI64 returns b reinterpreted as little-endian int64s: an aliasing
// view when view is set (b must be 8-byte-aligned — the format's
// 64-byte slab alignment over a page-aligned mapping guarantees it), an
// owned decoded copy otherwise.
func sliceI64(b []byte, view bool) ([]int64, error) {
	n := len(b) / 8
	if n == 0 {
		return []int64{}, nil
	}
	if view {
		if err := checkAligned(b, 8); err != nil {
			return nil, err
		}
		return unsafe.Slice((*int64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out, nil
}

func sliceI32(b []byte, view bool) ([]int32, error) {
	n := len(b) / 4
	if n == 0 {
		return []int32{}, nil
	}
	if view {
		if err := checkAligned(b, 4); err != nil {
			return nil, err
		}
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

func sliceU32(b []byte, view bool) ([]uint32, error) {
	n := len(b) / 4
	if n == 0 {
		return []uint32{}, nil
	}
	if view {
		if err := checkAligned(b, 4); err != nil {
			return nil, err
		}
		return unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out, nil
}

func sliceF32(b []byte, view bool) ([]float32, error) {
	n := len(b) / 4
	if n == 0 {
		return []float32{}, nil
	}
	if view {
		if err := checkAligned(b, 4); err != nil {
			return nil, err
		}
		return unsafe.Slice((*float32)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]float32, n)
	for i := range out {
		out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out, nil
}

func sliceU64(b []byte, view bool) ([]uint64, error) {
	n := len(b) / 8
	if n == 0 {
		return []uint64{}, nil
	}
	if view {
		if err := checkAligned(b, 8); err != nil {
			return nil, err
		}
		return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), nil
	}
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out, nil
}

// checkAligned guards the unsafe.Slice casts: the format guarantees
// slab alignment, so a misaligned base means the caller handed
// decodeAll a buffer that is not mapping-grade (e.g. an arbitrary
// []byte in a test). Failing beats a silent unaligned view.
func checkAligned(b []byte, align uintptr) error {
	if uintptr(unsafe.Pointer(&b[0]))%align != 0 {
		return fmt.Errorf("view base %p not %d-byte aligned (buffer is not mapping-grade)", &b[0], align)
	}
	return nil
}
