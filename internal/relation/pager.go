package relation

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"unsafe"
)

// The column pager moves a relation's encoded codes off-heap: with
// Options.PageColumns each column's sealed ingest blocks stream to a
// per-column temp file as they fill, and finish binds Cols[c] to a
// read-only memory mapping of that file instead of assembling a heap
// copy. Peak ingest memory drops from the whole encoded relation to the
// dictionaries plus one partial block per column, and the OS can
// reclaim clean column pages under pressure — the discovery kernels
// keep indexing Cols[c][row] unchanged.
//
// A page file is an 8-byte magic, the row count as a little-endian
// uint64, then the codes. Files are private to one process, written in
// native byte order and removed by Close; seal reopens each by name to
// map it, so the magic and the length check guard against a file that is
// not the one the pager wrote. Past maxMappings live mappings (or on
// platforms without mmap) a column loads on the heap instead; those
// fallbacks count as page faults in the pager stats.

// pageMagic identifies a page file; the version byte guards the decode
// against a file of another layout.
var pageMagic = [8]byte{'C', 'O', 'L', 'P', 'A', 'G', 'E', '1'}

// pageHeaderBytes is the header size: the magic and the row count. It is
// a multiple of 4, so the codes after it are 4-aligned in a mapping.
const pageHeaderBytes = 8 + 8

// maxMappings bounds the live mappings one pager holds. Cols alias the
// mappings until Close, so a wide relation would otherwise hold one VMA
// per column against the kernel's per-process map limit
// (vm.max_map_count, ~65k by default) and starve the runtime's own
// allocator. Past the cap a column loads on the heap: same bytes,
// GC-managed lifetime, no new mapping.
const maxMappings = 1024

// pagerState is a paged relation's handle on its mappings and files.
type pagerState struct {
	dir    string   // private temp dir, removed by Close
	maps   [][]byte // live mappings, released by Close
	paged  int64    // columns whose codes went through the pager
	faults int64    // columns loaded on the heap instead of mapped
}

// colPage streams one column's sealed blocks to its page file.
type colPage struct {
	f    *os.File
	path string
	rows int
	err  error
}

// newPager creates the private page directory under dir ("" selects the
// system temp directory).
func newPager(dir string) (*pagerState, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("relation: page dir: %w", err)
		}
	}
	private, err := os.MkdirTemp(dir, "colpage-")
	if err != nil {
		return nil, fmt.Errorf("relation: page dir: %w", err)
	}
	return &pagerState{dir: private}, nil
}

// newColPage prepares column c's page under the pager's directory; the
// file opens lazily on the first sealed block.
func newColPage(pg *pagerState, c int) *colPage {
	return &colPage{path: filepath.Join(pg.dir, fmt.Sprintf("c%04d.pli", c))}
}

// write appends one block of codes to the column's page file, opening
// it on first use with a zeroed header placeholder that seal patches.
// Errors stick: the first failure wins and every later call is a no-op
// returning it.
func (cp *colPage) write(codes []int32) error {
	if cp.err != nil {
		return cp.err
	}
	if cp.f == nil {
		cp.f, cp.err = os.OpenFile(cp.path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if cp.err == nil {
			var zero [pageHeaderBytes]byte
			_, cp.err = cp.f.Write(zero[:])
		}
		if cp.err != nil {
			return cp.err
		}
	}
	if _, err := cp.f.Write(int32Bytes(codes)); err != nil {
		cp.err = err
		return err
	}
	cp.rows += len(codes)
	return nil
}

// seal flushes the column's tail block, patches the header in place and
// binds the codes: a read-only mapping while the process-wide mapping
// cap holds, a heap load past it. Zero-row columns never opened a file
// and bind an empty slice.
func (cp *colPage) seal(pg *pagerState, c int, tail []int32) ([]int32, error) {
	if len(tail) > 0 {
		cp.write(tail)
	}
	if cp.err != nil {
		return nil, fmt.Errorf("relation: paging column %d: %w", c, cp.err)
	}
	if cp.f == nil {
		return []int32{}, nil
	}
	var hdr [pageHeaderBytes]byte
	copy(hdr[:], pageMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], uint64(cp.rows))
	_, err := cp.f.WriteAt(hdr[:], 0)
	if cerr := cp.f.Close(); err == nil {
		err = cerr
	}
	cp.f = nil
	if err != nil {
		return nil, fmt.Errorf("relation: paging column %d: %w", c, err)
	}

	var buf, m []byte
	if len(pg.maps) < maxMappings {
		buf, m, err = mapFile(cp.path)
	} else {
		buf, err = os.ReadFile(cp.path)
	}
	if err != nil {
		return nil, fmt.Errorf("relation: paging column %d: %w", c, err)
	}
	if len(buf) != pageHeaderBytes+4*cp.rows || [8]byte(buf[:8]) != pageMagic {
		unmap(m)
		return nil, fmt.Errorf("relation: page file %s: truncated", cp.path)
	}
	pg.paged++
	if m != nil {
		pg.maps = append(pg.maps, m)
	} else {
		pg.faults++
	}
	return bytesInt32(buf[pageHeaderBytes:]), nil
}

// close releases every mapping and removes the page directory.
func (pg *pagerState) close() error {
	for _, m := range pg.maps {
		unmap(m)
	}
	pg.maps = nil
	return os.RemoveAll(pg.dir)
}

// Paged reports whether the relation's columns are disk-backed through
// the column pager.
func (r *Relation) Paged() bool { return r.pager != nil }

// PagerStats returns how many columns went through the pager and how
// many of those loaded on the heap (mapping cap reached, or a platform
// without mmap) instead of staying disk-backed. Zeros when the relation
// is not paged.
func (r *Relation) PagerStats() (paged, faults int64) {
	if r.pager == nil {
		return 0, 0
	}
	return r.pager.paged, r.pager.faults
}

// PageOut advises the OS to drop the resident pages of every mapped
// column — the data stays readable (faulted back from the page cache or
// file on next touch) but leaves the process RSS now. A no-op on
// non-paged relations and platforms without the advice.
func (r *Relation) PageOut() {
	if r.pager == nil {
		return
	}
	for _, m := range r.pager.maps {
		pageOut(m)
	}
}

// Close releases a paged relation's mappings and page files. Cols views
// into the mappings — including those shared by Project and Head — are
// invalid afterwards. Safe on nil and on non-paged relations;
// idempotent.
func (r *Relation) Close() error {
	if r == nil || r.pager == nil {
		return nil
	}
	err := r.pager.close()
	r.pager = nil
	r.Cols = nil
	return err
}

// int32Bytes views an int32 slice as raw native-order bytes, so page
// writes stream the codes without a copy.
func int32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

// bytesInt32 is the inverse view. b must be 4-aligned: mappings are
// page-aligned, heap reads are allocated aligned, and the header is a
// multiple of 4 bytes.
func bytesInt32(b []byte) []int32 {
	if len(b) == 0 {
		return []int32{}
	}
	return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
}
