package runstate

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
)

// restamped returns a copy of data whose CRC trailer matches its body, so
// damage reaches the payload decoder instead of stopping at the checksum.
func restamped(data []byte) []byte {
	out := append([]byte(nil), data...)
	if n := len(out) - 4; n >= 0 {
		binary.LittleEndian.PutUint32(out[n:], crc32.ChecksumIEEE(out[:n]))
	}
	return out
}

// checkTyped fails t unless decodeFile returned a typed rejection or a
// snapshot.
func checkTyped(t *testing.T, s *Snapshot, err error) {
	t.Helper()
	switch {
	case err == nil && s == nil:
		t.Fatal("nil snapshot without error")
	case err != nil && !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion):
		t.Fatalf("untyped error %v", err)
	}
}

// TestDecodeBoundsAllocation writes a large element count over every
// payload offset, re-stamps the CRC, and requires each decode to end in
// a typed error or a snapshot without allocating more than the limit: a
// damaged length must not turn into an allocation the file's bytes do
// not back. The count is 1<<24, written as a uvarint and as a gob
// unsigned integer.
func TestDecodeBoundsAllocation(t *testing.T) {
	const limit = 64 << 20
	counts := [][]byte{
		{0x80, 0x80, 0x80, 0x08},
		{0xfc, 0x01, 0x00, 0x00, 0x00},
	}
	data := encodeFile(nil, fullSnapshot())
	start, end := len(magic)+2, len(data)-4
	var worst uint64
	var before, after runtime.MemStats
	for _, count := range counts {
		for off := start; off < end; off++ {
			bad := append([]byte(nil), data...)
			copy(bad[off:end], count)
			bad = restamped(bad)
			runtime.ReadMemStats(&before)
			s, err := decodeFile(bad)
			runtime.ReadMemStats(&after)
			checkTyped(t, s, err)
			alloc := after.TotalAlloc - before.TotalAlloc
			worst = max(worst, alloc)
			if alloc > limit {
				t.Errorf("count % x at offset %d: decode allocated %.1f MiB, limit %d MiB",
					count, off, float64(alloc)/(1<<20), limit>>20)
			}
		}
	}
	t.Logf("worst decode of %d payload offsets allocated %.1f MiB", end-start, float64(worst)/(1<<20))
}

// FuzzDecodeSnapshot: any payload under a valid frame decodes to a
// snapshot or a typed rejection, never a panic.
func FuzzDecodeSnapshot(f *testing.F) {
	f.Add(encodeFile(nil, fullSnapshot()))
	f.Add(encodeFile(nil, &Snapshot{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decodeFile(restamped(data))
		checkTyped(t, s, err)
	})
}
