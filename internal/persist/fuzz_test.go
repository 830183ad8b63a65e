package persist

import (
	"bytes"
	"hash/crc32"
	"math/rand"
	"testing"
)

// FuzzDecode drives arbitrary bytes through both snapshot decoders.
// The invariants: never panic, never return a snapshot alongside an
// error, anything that decodes successfully must survive a re-encode /
// re-decode cycle (i.e. only self-consistent snapshots are accepted),
// and the streaming copy decoder and the whole-image view decoder (the
// mmap path, run over a 64-byte-aligned copy) must agree on accept vs
// reject for every input — the property that makes load-mode fallback
// safe.
func FuzzDecode(f *testing.F) {
	f.Add(encodeBytes(f, tinySnapshot(f)))
	f.Add(v1TinyFile(f)) // retired format: must be rejected by both decoders
	full := tinySnapshot(f)
	f.Add(encodeBytes(f, &Snapshot{Graph: full.Graph}))
	f.Add(encodeBytes(f, &Snapshot{Train: full.Train}))
	f.Add(encodeBytes(f, &Snapshot{GoldFinger: full.GoldFinger}))
	f.Add([]byte("C2SNAP\r\n"))
	f.Add([]byte{})
	corrupt := encodeBytes(f, full)
	corrupt[len(corrupt)/2] ^= 0x10
	f.Add(corrupt)
	f.Add(encodeBytes(f, recordedSnapshot(f))) // with the clustering section
	f.Add(encodeBytes(f, bucketSnapshot(f)))   // with a bucket table over users with empty profiles

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := Decode(bytes.NewReader(data))
		vsnap, verr := decodeAll(alignedCopy(data), true)
		if (err == nil) != (verr == nil) {
			t.Fatalf("copy/view decoders disagree: copy err=%v, view err=%v", err, verr)
		}
		if verr != nil && vsnap != nil {
			t.Fatal("view decode returned a snapshot together with an error")
		}
		if err != nil {
			if snap != nil {
				t.Fatal("Decode returned a snapshot together with an error")
			}
			return
		}
		if snap == nil || (snap.Graph == nil && snap.Train == nil && snap.GoldFinger == nil) {
			t.Fatal("Decode succeeded with an empty snapshot")
		}
		var buf bytes.Buffer
		if err := Encode(&buf, snap); err != nil {
			t.Fatalf("re-encode of an accepted snapshot failed: %v", err)
		}
		again, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil || again == nil {
			t.Fatalf("re-decode of a re-encoded snapshot failed: %v", err)
		}
	})
}

// FuzzCRC32C drives arbitrary bytes, start offsets and initial values
// through crcUpdate, which must equal crc32.Update under the active
// kernel arm. The seeds straddle the fold kernel's 512-byte entry and
// 256-byte step.
func FuzzCRC32C(f *testing.F) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{0, 1, 255, 511, 512, 513, 767, 768, 1024, 4099} {
		b := make([]byte, n)
		rng.Read(b)
		f.Add(b, uint8(n), rng.Uint32())
	}
	f.Fuzz(func(t *testing.T, data []byte, off uint8, init uint32) {
		b := make([]byte, len(data)+63)[off%64:][:len(data)]
		copy(b, data)
		if got, want := crcUpdate(init, b), crc32.Update(init, crcTable, b); got != want {
			t.Fatalf("len %d off %d init %#08x: crcUpdate %#08x, want %#08x", len(b), off%64, init, got, want)
		}
	})
}
