package persist

// The one-pass verifier. decodeAll cuts every section payload into
// chunkSize pieces and hands them to GOMAXPROCS workers. A worker
// CRC-32Cs its chunk (crcUpdate: the VPCLMULQDQ fold kernel where
// similarity.VectorCLMUL allows it, hash/crc32 otherwise) and, where
// the chunk overlaps a slab whose values the decoder bounds-checks (the
// graph's neighbor ids, the dataset's items), max-reduces that overlap
// while the CRC has just pulled it into cache. Each section's chunk
// CRCs are then stitched together with crc32Combine, and each slab's
// chunk maxima reduced to one value the decoder compares against its
// limit. Encode runs the same pass, without slabs, over each section's
// segments, to checksum on all cores.

import (
	"hash/crc32"
	"runtime"
	"unsafe"

	"c2knn/internal/schedule"
	"c2knn/internal/sets"
)

// chunkSize is the verifier's unit of work: big enough that a chunk's
// dispatch and CRC combine cost nothing next to its checksum, small
// enough that the chunk is still in the core's L2 when the bounds scan
// rereads it, and that a 50 MB snapshot splits into ~200 pieces that
// balance across cores.
const chunkSize = 256 << 10

// slabMax is the unsigned maximum (sets.MaxU32) of the int32 slab at
// payload bytes [lo, hi).
type slabMax struct {
	lo, hi int
	max    uint32
}

// of returns the unsigned maximum of xs, the int32 slab at payload bytes
// [lo, hi): the precomputed value when pre covers exactly that range,
// otherwise a scan with the plain Go loop. A nil pre always scans.
func (pre *slabMax) of(lo, hi int, xs []int32) uint32 {
	if pre != nil && pre.lo == lo && pre.hi == hi {
		return pre.max
	}
	return sets.MaxU32(xs)
}

// span is one payload for scan, as segments whose concatenation is the
// payload. scan sets crc to the payload's CRC-32C and, when slab is
// non-nil, slab.max to its slab's unsigned maximum.
type span struct {
	segs [][]byte
	slab *slabMax
	crc  uint32
}

// scan fills in every span's CRC-32C and slab maximum in one chunked
// pass on up to GOMAXPROCS goroutines. Chunks cut the payload, not the
// segments: a chunk may cover pieces of many short segments, which its
// worker checksums in turn. A slab's byte range must lie in its payload,
// and each segment's overlap with it start 4-byte aligned in memory and
// span a multiple of 4 bytes; chunk boundaries are multiples of 4 from
// the payload start, so every piece's overlap with the slab is whole
// int32s.
func scan(spans []span) {
	type chunk struct {
		span, seg, off int // the chunk's first byte is spans[span].segs[seg][off]
		lo, n          int // its payload offset and length
		crc, max       uint32
	}
	var chunks []chunk
	for i := range spans {
		at := 0
		for j, seg := range spans[i].segs {
			for lo := (at + chunkSize - 1) / chunkSize * chunkSize; lo < at+len(seg); lo += chunkSize {
				chunks = append(chunks, chunk{span: i, seg: j, off: lo - at, lo: lo, n: chunkSize})
			}
			at += len(seg)
		}
		if k := len(chunks) - 1; k >= 0 && chunks[k].span == i {
			chunks[k].n = at - chunks[k].lo
		}
	}
	schedule.Run(runtime.GOMAXPROCS(0), len(chunks), func(_, k int) {
		c := &chunks[k]
		sp := &spans[c.span]
		lo, end := c.lo, c.lo+c.n
		for seg, off := c.seg, c.off; lo < end; seg, off = seg+1, 0 {
			b := sp.segs[seg][off:]
			b = b[:min(len(b), end-lo)]
			c.crc = crcUpdate(c.crc, b)
			if sl := sp.slab; sl != nil {
				if l, h := max(lo, sl.lo), min(lo+len(b), sl.hi); l < h {
					c.max = max(c.max, maxU32(unsafe.Slice((*int32)(unsafe.Pointer(&b[l-lo])), (h-l)/4)))
				}
			}
			lo += len(b)
		}
	})
	for _, c := range chunks {
		sp := &spans[c.span]
		sp.crc = crc32Combine(sp.crc, c.crc, uint64(c.n))
		if sp.slab != nil {
			sp.slab.max = max(sp.slab.max, c.max)
		}
	}
}

// CRC-32C combine, after zlib's crc32_combine: the CRC of A‖B is the
// CRC of A shifted past len(B) zero bytes, XOR the CRC of B. The shift
// is a multiplication by x^(8·len(B)) modulo the CRC polynomial, built
// by square-and-multiply from the table of x^(8·2^k). The pre- and
// post-inversion of the standard CRC cancel in the XOR, so the combine
// works on finished checksums.

// multmodp returns a(x)·b(x) modulo the Castagnoli polynomial. Operands
// and result are in the reflected bit order hash/crc32 uses: the x^0
// coefficient is the top bit.
func multmodp(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.Castagnoli
		} else {
			b >>= 1
		}
	}
	return p
}

// x8nTable[k] is x^(8·2^k) modulo the polynomial: the shift past 2^k
// zero bytes. 64 entries cover every uint64 length.
var x8nTable = func() (t [64]uint32) {
	p := uint32(1) << 30 // x^1
	for range 3 {
		p = multmodp(p, p) // x^2, x^4, x^8
	}
	for k := range t {
		t[k] = p
		p = multmodp(p, p)
	}
	return t
}()

// x8nmodp returns x^(8n) modulo the polynomial.
func x8nmodp(n uint64) uint32 {
	p := uint32(1) << 31 // x^0
	for k := 0; n != 0; n, k = n>>1, k+1 {
		if n&1 != 0 {
			p = multmodp(x8nTable[k], p)
		}
	}
	return p
}

// crc32Combine returns the CRC-32C of A‖B from crcA, the CRC-32C of A,
// crcB, that of B, and lenB, the length of B in bytes.
func crc32Combine(crcA, crcB uint32, lenB uint64) uint32 {
	return multmodp(x8nmodp(lenB), crcA) ^ crcB
}
