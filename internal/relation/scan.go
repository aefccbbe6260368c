package relation

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"io"
)

// scanBufSize is the scanner's read buffer, encoding/csv's own size: a
// line longer than it is gathered in the scanner's spill buffer.
const scanBufSize = 4096

// scanner splits CSV input into records of byte fields. It accepts
// exactly the input encoding/csv.Reader accepts with its defaults and
// FieldsPerRecord = -1, returns the same fields, and fails with the same
// *csv.ParseError (StartLine, Line, Column and Err alike):
//
//   - blank lines are skipped;
//   - \r\n reads as \n, inside quoted fields too, and a \r right before
//     EOF is dropped;
//   - "" inside quotes is one quote, and quoted fields may span lines;
//   - a bare " in an unquoted field is csv.ErrBareQuote, and a stray
//     byte after a closing quote or EOF inside quotes is csv.ErrQuote.
//
// A line without a quote splits in place: its fields are slices of the
// read buffer. Only records with quotes are copied, into a reused record
// buffer. The fields stay valid until the next call to next.
type scanner struct {
	r      *bufio.Reader
	line   int      // lines read so far, encoding/csv's numLine
	spill  []byte   // a line longer than r's buffer, gathered
	rec    []byte   // the unquoted bytes of a record with quotes
	ends   []int    // the end of each field of rec
	fields [][]byte // the record handed out
}

func newScanner(r io.Reader, bufSize int) *scanner {
	return &scanner{r: bufio.NewReaderSize(r, bufSize)}
}

// readLine returns the next line with its \r\n folded to \n, as
// encoding/csv's readLine does. A last line without a newline comes back
// with a nil error; io.EOF comes only once nothing is left.
func (s *scanner) readLine() ([]byte, error) {
	line, err := s.r.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		s.spill = append(s.spill[:0], line...)
		for errors.Is(err, bufio.ErrBufferFull) {
			line, err = s.r.ReadSlice('\n')
			s.spill = append(s.spill, line...)
		}
		line = s.spill
	}
	if n := len(line); n > 0 && errors.Is(err, io.EOF) {
		err = nil
		if line[n-1] == '\r' {
			line = line[:n-1]
		}
	}
	s.line++
	if n := len(line); n >= 2 && line[n-2] == '\r' && line[n-1] == '\n' {
		line[n-2] = '\n'
		line = line[:n-1]
	}
	return line, err
}

// lengthNL is 1 when b ends in a newline, else 0.
func lengthNL(b []byte) int {
	if len(b) > 0 && b[len(b)-1] == '\n' {
		return 1
	}
	return 0
}

// next returns the next record's fields, or io.EOF after the last one.
// A read error other than io.EOF comes back with the fields read before
// it, as encoding/csv returns it.
func (s *scanner) next() ([][]byte, error) {
	var line []byte
	var errRead error
	for errRead == nil {
		line, errRead = s.readLine()
		if errRead == nil && len(line) == lengthNL(line) {
			continue // blank line
		}
		break
	}
	if errors.Is(errRead, io.EOF) {
		return nil, io.EOF
	}
	if bytes.IndexByte(line, '"') >= 0 {
		return s.quoted(line, errRead)
	}
	body := line[:len(line)-lengthNL(line)]
	s.fields = s.fields[:0]
	for {
		i := bytes.IndexByte(body, ',')
		if i < 0 {
			break
		}
		s.fields = append(s.fields, body[:i])
		body = body[i+1:]
	}
	s.fields = append(s.fields, body)
	return s.fields, errRead
}

// quoted parses a record whose first line holds a quote. It is
// encoding/csv's readRecord under the default dialect, step for step, so
// the errors carry the same positions; the fields are copied into rec.
func (s *scanner) quoted(line []byte, errRead error) ([][]byte, error) {
	recLine := s.line
	posLine, col := s.line, 1
	s.rec = s.rec[:0]
	s.ends = s.ends[:0]
	var err error
parseField:
	for {
		if len(line) == 0 || line[0] != '"' {
			i := bytes.IndexByte(line, ',')
			field := line
			if i >= 0 {
				field = field[:i]
			} else {
				field = field[:len(field)-lengthNL(field)]
			}
			if j := bytes.IndexByte(field, '"'); j >= 0 {
				err = &csv.ParseError{StartLine: recLine, Line: s.line, Column: col + j, Err: csv.ErrBareQuote}
				break parseField
			}
			s.rec = append(s.rec, field...)
			s.ends = append(s.ends, len(s.rec))
			if i < 0 {
				break parseField
			}
			line = line[i+1:]
			col += i + 1
			continue parseField
		}
		line = line[1:] // the opening quote
		col++
		for {
			i := bytes.IndexByte(line, '"')
			switch {
			case i >= 0:
				s.rec = append(s.rec, line[:i]...)
				line = line[i+1:]
				col += i + 1
				switch {
				case len(line) > 0 && line[0] == '"': // "" is one quote
					s.rec = append(s.rec, '"')
					line = line[1:]
					col++
				case len(line) > 0 && line[0] == ',':
					line = line[1:]
					col++
					s.ends = append(s.ends, len(s.rec))
					continue parseField
				case lengthNL(line) == len(line):
					s.ends = append(s.ends, len(s.rec))
					break parseField
				default: // a stray byte after the closing quote
					err = &csv.ParseError{StartLine: recLine, Line: s.line, Column: col - 1, Err: csv.ErrQuote}
					break parseField
				}
			case len(line) > 0: // the field runs on into the next line
				s.rec = append(s.rec, line...)
				if errRead != nil {
					break parseField
				}
				col += len(line)
				line, errRead = s.readLine()
				if len(line) > 0 {
					posLine++
					col = 1
				}
				if errors.Is(errRead, io.EOF) {
					errRead = nil
				}
			default:
				if errRead == nil { // EOF inside quotes
					err = &csv.ParseError{StartLine: recLine, Line: posLine, Column: col, Err: csv.ErrQuote}
					break parseField
				}
				s.ends = append(s.ends, len(s.rec))
				break parseField
			}
		}
	}
	if err == nil {
		err = errRead
	}
	s.fields = s.fields[:0]
	start := 0
	for _, end := range s.ends {
		s.fields = append(s.fields, s.rec[start:end])
		start = end
	}
	return s.fields, err
}
