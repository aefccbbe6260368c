//go:build !linux

package relation

import "os"

// mapFile reads a page file into the heap on platforms without the mmap
// fast path. The returned buffer is 8-aligned (allocator guarantee for
// byte slices of this size class), so the int32 view over it is valid.
// There is no mapping to release.
func mapFile(path string) (data, mapping []byte, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return buf, nil, nil
}

// unmap is a no-op without mmap. Safe on nil.
func unmap(m []byte) {}

// pageOut is a no-op without mmap: heap-backed reads are GC-managed.
func pageOut(m []byte) {}
