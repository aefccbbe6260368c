//go:build linux

package relation

import (
	"os"
	"syscall"
)

// mapFile memory-maps a page file read-only, so a paged column is backed
// by clean file pages the OS can reclaim under pressure. Returns the data
// view and the mapping to hand to unmap. Empty files map to a nil
// mapping.
func mapFile(path string) (data, mapping []byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	size := int(st.Size())
	if size == 0 {
		return nil, nil, nil
	}
	m, err := syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, err
	}
	return m, m, nil
}

// unmap releases a mapping returned by mapFile. Safe on nil.
func unmap(m []byte) {
	if m != nil {
		_ = syscall.Munmap(m)
	}
}

// pageOut tells the kernel the mapping's resident pages will not be
// needed soon: MADV_DONTNEED on a file-backed read-only mapping drops
// the page tables and uncharges the pages from the process's RSS while
// the page cache (and the file) keep the data, so the next touch is a
// minor fault, not data loss. Safe on nil; errors are ignored — paging
// out is advisory.
func pageOut(m []byte) {
	if len(m) == 0 {
		return
	}
	_ = syscall.Madvise(m, syscall.MADV_DONTNEED)
}
