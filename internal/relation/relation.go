// Package relation represents relational data with the domain-independent
// indexing scheme (DIIS) the paper uses for FD discovery.
//
// A Relation stores each column as a slice of int32 dictionary codes: the
// active domain of a column with k distinct values maps bijectively to
// {0, …, k-1}. All discovery algorithms operate on codes only — stripped
// partitions, agree sets and validation never touch the original values.
//
// Missing values support the two interpretations from the paper:
//
//   - NullEqNull (null = null): every null in a column carries the same
//     code, so two nulls agree like any repeated value.
//   - NullNeqNull (null ≠ null): every null occurrence receives a fresh
//     unique code, so nulls never agree with anything.
//
// Either way a per-column null mask records which occurrences were missing,
// which the ranking of FDs needs to exclude null-caused redundancy.
//
// Ingest streams. ReadCSV's scanner (scan.go) reads the dialect of
// encoding/csv's Reader with its defaults, byte for byte and error for
// error, and hands each record's fields to the encoder as byte slices,
// most of them cut straight from the read buffer. The encoder files each
// cell in its column's open-addressing dictionary (dict.go), which keeps
// the distinct values back to back in one byte arena. Codes follow first
// occurrence, nulls included, so a relation depends only on its input:
// never on the hash seed or the table's slot order. FromRows feeds the
// same encoder.
package relation

import (
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"strings"

	"repro/internal/bitset"
)

// NullSemantics selects how missing values compare.
type NullSemantics int

const (
	// NullEqNull treats every missing value as the same value (null = null).
	NullEqNull NullSemantics = iota
	// NullNeqNull treats every missing value as a unique value (null ≠ null).
	NullNeqNull
)

func (s NullSemantics) String() string {
	if s == NullNeqNull {
		return "null≠null"
	}
	return "null=null"
}

// Relation is a dictionary-encoded table. Built with
// Options.PageColumns its Cols are read-only views into memory-mapped
// page files (see pager.go) and the caller owns Close; otherwise Close
// is a no-op.
type Relation struct {
	// Names holds the column names, len(Names) == NumCols().
	Names []string
	// Cols holds the dictionary codes column-major: Cols[c][r] is the code
	// of row r in column c, in the range [0, Cards[c]).
	Cols [][]int32
	// Cards holds the active-domain size of each column.
	Cards []int
	// Nulls marks missing occurrences: Nulls[c] is nil when column c is
	// complete, otherwise Nulls[c][r] reports whether row r is missing.
	Nulls [][]bool
	// NullBits carries the same masks word-packed: NullBits[c] is nil when
	// column c is complete, otherwise a bitmap of the missing rows. Every
	// constructor keeps it in sync with Nulls; the ranking kernels count
	// null occurrences with word-And/popcount over it instead of per-row
	// branches.
	NullBits []bitset.Bitmap
	// Semantics records the null interpretation used during encoding.
	Semantics NullSemantics
	// Dicts optionally retains the decoded values: Dicts[c][code] is the
	// original string. Nil when the relation was generated directly in
	// code form. Under NullNeqNull the per-occurrence null codes all decode
	// to the null token.
	Dicts [][]string

	rows  int
	pager *pagerState // non-nil when Cols are disk-backed; see pager.go
}

// NumRows returns the number of tuples.
func (r *Relation) NumRows() int { return r.rows }

// NumCols returns the number of attributes.
func (r *Relation) NumCols() int { return len(r.Cols) }

// IsNull reports whether row row of column col is a missing value.
func (r *Relation) IsNull(col, row int) bool {
	m := r.Nulls[col]
	return m != nil && m[row]
}

// NullBitmap returns the packed null mask of column c, nil when the
// column is complete. Relations built through the package constructors
// carry the packed form in NullBits; a hand-assembled Relation without it
// gets the mask packed on the fly.
func (r *Relation) NullBitmap(c int) bitset.Bitmap {
	if r.NullBits != nil {
		return r.NullBits[c]
	}
	return bitset.BitmapFromBools(r.Nulls[c])
}

// packNulls derives NullBits from Nulls, one bitmap per incomplete column.
func (r *Relation) packNulls() {
	r.NullBits = make([]bitset.Bitmap, len(r.Nulls))
	for c, mask := range r.Nulls {
		r.NullBits[c] = bitset.BitmapFromBools(mask)
	}
}

// HasNulls reports whether any column contains a missing value.
func (r *Relation) HasNulls() bool {
	for c := range r.Nulls {
		if r.Nulls[c] != nil {
			return true
		}
	}
	return false
}

// NullCount returns the total number of missing occurrences.
func (r *Relation) NullCount() int {
	n := 0
	for c := range r.Nulls {
		for _, isNull := range r.Nulls[c] {
			if isNull {
				n++
			}
		}
	}
	return n
}

// Value returns the decoded value at (col, row) if the relation retains
// dictionaries, else the code rendered as a number.
func (r *Relation) Value(col, row int) string {
	code := r.Cols[col][row]
	if r.Dicts != nil && r.Dicts[col] != nil && int(code) < len(r.Dicts[col]) {
		return r.Dicts[col][code]
	}
	return fmt.Sprintf("%d", code)
}

// Options configure encoding of raw string data.
type Options struct {
	// Semantics selects the null interpretation. Default NullEqNull.
	Semantics NullSemantics
	// NullTokens lists the strings treated as missing values. Default
	// {"", "?"}. Matching is exact after no trimming.
	NullTokens []string
	// KeepDicts retains the value dictionaries for decoding.
	KeepDicts bool
	// PadRagged pads rows shorter than the header with missing values
	// instead of rejecting them. Rows wider than the header are always an
	// error: there is no column to put the extra fields in. Default false:
	// any ragged row is an error.
	PadRagged bool
	// MaxRows caps the number of data rows ReadCSV accepts; more is an
	// error rather than a silent truncation. 0 means unlimited.
	MaxRows int
	// MaxCols caps the number of columns ReadCSV accepts. 0 means
	// unlimited.
	MaxCols int
	// PageColumns seals the encoded columns through the column pager:
	// ingest blocks stream to per-column temp files as they fill and the
	// finished Cols[c] are read-only memory mappings of those files
	// (heap loads past the mapping cap). The caller owns the returned
	// relation's Close. Default false: columns live on the heap.
	PageColumns bool
	// PageDir is the directory the column pager puts its private page
	// directory under. "" selects the system temp directory. Ignored
	// without PageColumns.
	PageDir string
}

// nullTokens returns the null tokens as a set, and a mask with bit
// min(len(t), 63) set for every token t: a cell whose length has no bit
// is not a token, so most cells skip the set probe.
func (o *Options) nullTokens() (map[string]bool, uint64) {
	tokens := o.NullTokens
	if tokens == nil {
		tokens = []string{"", "?"}
	}
	set := make(map[string]bool, len(tokens))
	var lens uint64
	for _, t := range tokens {
		set[t] = true
		lens |= 1 << min(len(t), 63)
	}
	return set, lens
}

// FromRows dictionary-encodes raw string rows. names may be nil, in which
// case columns are named col0, col1, …. Rows narrower than the column
// count are an error unless Options.PadRagged pads them with missing
// values; wider rows are always an error.
func FromRows(names []string, rows [][]string, opts Options) (*Relation, error) {
	ncols := 0
	if len(rows) > 0 {
		ncols = len(rows[0])
	} else if names != nil {
		ncols = len(names)
	}
	if names != nil && len(names) != ncols && len(rows) > 0 {
		return nil, fmt.Errorf("relation: %d column names for %d columns", len(names), ncols)
	}
	e, err := newEncoder(ncols, opts)
	if err != nil {
		return nil, err
	}
	// Each row's strings are copied into one reused buffer and handed to
	// the encoder as the byte fields ReadCSV's scanner hands it.
	var buf []byte
	var fields [][]byte
	for _, row := range rows {
		buf, fields = buf[:0], fields[:0]
		for _, v := range row {
			buf = append(buf, v...)
		}
		start := 0
		for _, v := range row {
			fields = append(fields, buf[start:start+len(v)])
			start += len(v)
		}
		if err := e.addRow(fields); err != nil {
			e.abort()
			return nil, err
		}
	}
	return e.finish(names)
}

// encoder dictionary-encodes rows one at a time, so large inputs stream
// through without a second in-memory copy of the raw values. FromRows
// and ReadCSV share it.
type encoder struct {
	opts     Options
	nulls    map[string]bool // the null tokens
	nullLens uint64          // bit min(len(t), 63) of every null token t
	ncols    int
	rows     int
	cols     []colEncoder
	pager    *pagerState // non-nil under Options.PageColumns
}

// ingestBlockRows is the row capacity of one ingest block. Columns
// accumulate codes in fixed-size blocks rather than one append-grown
// array, so ingest never holds a doubling-sized copy of a whole column:
// the transient over-allocation is bounded by one block per column
// regardless of relation size. A var so tests can shrink it to cover
// block boundaries cheaply.
var ingestBlockRows = 1 << 16

// colEncoder holds the per-column dictionary state.
type colEncoder struct {
	full     [][]int32 // sealed ingest blocks, ingestBlockRows codes each
	cur      []int32   // currently filling block
	page     *colPage  // non-nil when sealed blocks stream to a page file
	dict     dict
	mask     []bool // nil until the first null
	nullCode int32  // shared null code under NullEqNull, -1 until used
}

// pushCode appends one row's code. The first block append-grows so tiny
// relations stay tiny; once a block seals, successors are allocated at
// exact block capacity — or, when the column pages, the sealed block
// streams to the page file and the buffer is reused in place.
func (ce *colEncoder) pushCode(code int32) {
	if ce.cur == nil && len(ce.full) > 0 {
		ce.cur = make([]int32, 0, ingestBlockRows)
	}
	ce.cur = append(ce.cur, code)
	if len(ce.cur) >= ingestBlockRows {
		if ce.page != nil {
			ce.page.write(ce.cur)
			ce.cur = ce.cur[:0]
		} else {
			ce.full = append(ce.full, ce.cur)
			ce.cur = nil
		}
	}
}

// rowsIn returns the number of codes pushed so far.
func (ce *colEncoder) rowsIn() int {
	n := ingestBlockRows*len(ce.full) + len(ce.cur)
	if ce.page != nil {
		n += ce.page.rows
	}
	return n
}

func newEncoder(ncols int, opts Options) (*encoder, error) {
	e := &encoder{opts: opts, ncols: ncols, cols: make([]colEncoder, ncols)}
	e.nulls, e.nullLens = opts.nullTokens()
	seed := maphash.MakeSeed()
	if opts.PageColumns {
		pg, err := newPager(opts.PageDir)
		if err != nil {
			return nil, err
		}
		e.pager = pg
	}
	for c := range e.cols {
		e.cols[c].dict.seed = seed
		e.cols[c].nullCode = -1
		if e.pager != nil {
			e.cols[c].page = newColPage(e.pager, c)
		}
	}
	return e, nil
}

// abort releases the pager's files after a failed ingest. A no-op
// without paging (and after a page error already released them).
func (e *encoder) abort() {
	if e.pager != nil {
		e.pager.close()
		e.pager = nil
	}
}

// isNull reports whether v is a null token.
func (e *encoder) isNull(v []byte) bool {
	return e.nullLens&(1<<min(len(v), 63)) != 0 && e.nulls[string(v)]
}

// addRow encodes one row. Rows wider than the relation are rejected; rows
// narrower are rejected too unless PadRagged fills the missing tail with
// nulls. The encoder copies what it keeps of row.
func (e *encoder) addRow(row [][]byte) error {
	if len(row) != e.ncols && (len(row) > e.ncols || !e.opts.PadRagged) {
		return fmt.Errorf("relation: row %d has %d fields, want %d", e.rows, len(row), e.ncols)
	}
	for c := 0; c < e.ncols; c++ {
		ce := &e.cols[c]
		if c >= len(row) {
			ce.addNull(nil, e.opts.Semantics) // padded cell
			continue
		}
		v := row[c]
		if e.isNull(v) {
			ce.addNull(v, e.opts.Semantics)
			continue
		}
		ce.pushCode(ce.dict.code(v))
		if ce.mask != nil {
			ce.mask = append(ce.mask, false)
		}
	}
	e.rows++
	if e.pager != nil {
		// Page-file writes happen inside pushCode, which has no error
		// path; their sticky errors surface here, before more rows pile
		// onto a failed file.
		for c := range e.cols {
			if cp := e.cols[c].page; cp.err != nil {
				e.pager.close()
				return fmt.Errorf("relation: paging column %d: %w", c, cp.err)
			}
		}
	}
	return nil
}

// addNull encodes a missing value; v is its token, the value Dicts
// decodes its code to.
func (ce *colEncoder) addNull(v []byte, sem NullSemantics) {
	if ce.mask == nil {
		ce.mask = make([]bool, ce.rowsIn())
	}
	ce.mask = append(ce.mask, true)
	if sem == NullNeqNull {
		ce.pushCode(ce.dict.add(v)) // fresh code per occurrence
		return
	}
	if ce.nullCode < 0 {
		ce.nullCode = ce.dict.add(v)
	}
	ce.pushCode(ce.nullCode)
}

// finish assembles the relation. names may be nil (columns are named
// col0, col1, …).
func (e *encoder) finish(names []string) (*Relation, error) {
	if names == nil {
		names = make([]string, e.ncols)
		for c := range names {
			names[c] = fmt.Sprintf("col%d", c)
		}
	}
	rel := &Relation{
		Names:     append([]string(nil), names...),
		Cols:      make([][]int32, e.ncols),
		Cards:     make([]int, e.ncols),
		Nulls:     make([][]bool, e.ncols),
		Semantics: e.opts.Semantics,
		rows:      e.rows,
	}
	if e.opts.KeepDicts {
		rel.Dicts = make([][]string, e.ncols)
	}
	for c := range e.cols {
		ce := &e.cols[c]
		var col []int32
		if ce.page != nil {
			// Seal the page: flush the tail block, patch the header and
			// bind the column to its mapping (or heap load past the cap).
			var err error
			if col, err = ce.page.seal(e.pager, c, ce.cur); err != nil {
				e.pager.close()
				return nil, err
			}
			ce.cur = nil
		} else {
			// Assemble the exact-size contiguous column from the ingest
			// blocks, releasing each column's blocks as it completes so the
			// transient footprint is one column, not the whole relation twice.
			col = make([]int32, e.rows)
			off := 0
			for _, b := range ce.full {
				off += copy(col[off:], b)
			}
			copy(col[off:], ce.cur)
			ce.full, ce.cur = nil, nil
		}
		rel.Cols[c] = col
		rel.Cards[c] = ce.dict.card()
		rel.Nulls[c] = ce.mask
		if e.opts.KeepDicts {
			rel.Dicts[c] = ce.dict.strings()
		}
		ce.dict = dict{} // a collection during the next columns can take it
	}
	rel.pager = e.pager
	rel.packNulls()
	return rel, nil
}

// FromCodes builds a relation directly from dictionary codes. The caller
// supplies column-major codes; cards are computed as 1 + max code. nulls may
// be nil (complete relation) or per-column masks (nil entries allowed).
func FromCodes(names []string, cols [][]int32, nulls [][]bool, sem NullSemantics) *Relation {
	ncols := len(cols)
	rows := 0
	if ncols > 0 {
		rows = len(cols[0])
	}
	if names == nil {
		names = make([]string, ncols)
		for c := range names {
			names[c] = fmt.Sprintf("col%d", c)
		}
	}
	if nulls == nil {
		nulls = make([][]bool, ncols)
	}
	rel := &Relation{
		Names:     names,
		Cols:      cols,
		Cards:     make([]int, ncols),
		Nulls:     nulls,
		Semantics: sem,
		rows:      rows,
	}
	for c := 0; c < ncols; c++ {
		if len(cols[c]) != rows {
			panic(fmt.Sprintf("relation: column %d has %d rows, want %d", c, len(cols[c]), rows))
		}
		maxCode := int32(-1)
		for _, code := range cols[c] {
			if code > maxCode {
				maxCode = code
			}
		}
		rel.Cards[c] = int(maxCode) + 1
	}
	rel.packNulls()
	return rel
}

// ReadCSV parses CSV data with a header row and encodes it. It reads
// the dialect of encoding/csv's Reader with its defaults (see scanner)
// and fails with the same *csv.ParseError. Records stream through the
// encoder one at a time, so the raw file is never materialized in memory
// alongside the relation. Header names must be non-empty and unique;
// Options.MaxRows/MaxCols bound the accepted input and Options.PadRagged
// selects the ragged-row policy.
func ReadCSV(r io.Reader, opts Options) (*Relation, error) {
	sc := newScanner(r, scanBufSize)
	header, err := sc.next()
	if errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("relation: empty csv")
	}
	if err != nil {
		return nil, fmt.Errorf("relation: reading csv: %w", err)
	}
	if opts.MaxCols > 0 && len(header) > opts.MaxCols {
		return nil, fmt.Errorf("relation: %d columns exceeds the MaxCols cap of %d", len(header), opts.MaxCols)
	}
	names := make([]string, len(header))
	seen := make(map[string]int, len(header))
	for i, field := range header {
		name := string(field)
		if name == "" {
			return nil, fmt.Errorf("relation: column %d has an empty name", i)
		}
		if j, dup := seen[name]; dup {
			return nil, fmt.Errorf("relation: duplicate column name %q (columns %d and %d)", name, j, i)
		}
		seen[name] = i
		names[i] = name
	}
	e, err := newEncoder(len(names), opts)
	if err != nil {
		return nil, err
	}
	for {
		rec, err := sc.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			e.abort()
			return nil, fmt.Errorf("relation: reading csv: %w", err)
		}
		if opts.MaxRows > 0 && e.rows >= opts.MaxRows {
			e.abort()
			return nil, fmt.Errorf("relation: input exceeds the MaxRows cap of %d data rows", opts.MaxRows)
		}
		if err := e.addRow(rec); err != nil {
			e.abort()
			return nil, err
		}
	}
	return e.finish(names)
}

// ReadCSVString is ReadCSV over a string, convenient for fixtures.
func ReadCSVString(data string, opts Options) (*Relation, error) {
	return ReadCSV(strings.NewReader(data), opts)
}

// Project returns a new relation restricted to the given columns (by index,
// in the given order). Codes are shared with the original, not copied.
func (r *Relation) Project(cols []int) *Relation {
	p := &Relation{
		Names:     make([]string, len(cols)),
		Cols:      make([][]int32, len(cols)),
		Cards:     make([]int, len(cols)),
		Nulls:     make([][]bool, len(cols)),
		Semantics: r.Semantics,
		rows:      r.rows,
	}
	if r.Dicts != nil {
		p.Dicts = make([][]string, len(cols))
	}
	p.NullBits = make([]bitset.Bitmap, len(cols))
	for i, c := range cols {
		p.Names[i] = r.Names[c]
		p.Cols[i] = r.Cols[c]
		p.Cards[i] = r.Cards[c]
		p.Nulls[i] = r.Nulls[c]
		p.NullBits[i] = r.NullBitmap(c)
		if r.Dicts != nil {
			p.Dicts[i] = r.Dicts[c]
		}
	}
	return p
}

// Head returns a new relation containing the first n rows (or all rows if
// n exceeds the size). Codes are re-sliced, cards recomputed.
func (r *Relation) Head(n int) *Relation {
	if n > r.rows {
		n = r.rows
	}
	h := &Relation{
		Names:     r.Names,
		Cols:      make([][]int32, len(r.Cols)),
		Cards:     make([]int, len(r.Cols)),
		Nulls:     make([][]bool, len(r.Cols)),
		Semantics: r.Semantics,
		Dicts:     r.Dicts,
		rows:      n,
	}
	for c := range r.Cols {
		h.Cols[c] = r.Cols[c][:n]
		if r.Nulls[c] != nil {
			h.Nulls[c] = r.Nulls[c][:n]
		}
		maxCode := int32(-1)
		for _, code := range h.Cols[c] {
			if code > maxCode {
				maxCode = code
			}
		}
		h.Cards[c] = int(maxCode) + 1
	}
	// Word-packed masks cannot share storage across a row cut (the tail of
	// the last word would leak marks past row n), so repack.
	h.packNulls()
	return h
}

// IncompleteStats returns the number of incomplete rows, incomplete columns,
// and missing values (the #IR, #IC, #⊥ statistics from the paper).
func (r *Relation) IncompleteStats() (incompleteRows, incompleteCols, missing int) {
	rowHit := make([]bool, r.rows)
	for c := range r.Nulls {
		mask := r.Nulls[c]
		if mask == nil {
			continue
		}
		colHit := false
		for row, isNull := range mask {
			if isNull {
				missing++
				colHit = true
				rowHit[row] = true
			}
		}
		if colHit {
			incompleteCols++
		}
	}
	for _, hit := range rowHit {
		if hit {
			incompleteRows++
		}
	}
	return incompleteRows, incompleteCols, missing
}
