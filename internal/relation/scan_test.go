package relation

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"
)

// diffScan reads data with encoding/csv's Reader (FieldsPerRecord = -1)
// and with a scanner over a bufSize-byte buffer, record by record, and
// describes the first difference, or returns "". Both stop at the first
// error, as ReadCSV does; a *csv.ParseError must match in StartLine,
// Line, Column and Err.
func diffScan(data string, bufSize int) string {
	cr := csv.NewReader(strings.NewReader(data))
	cr.FieldsPerRecord = -1
	sc := newScanner(strings.NewReader(data), bufSize)
	for n := 0; ; n++ {
		want, werr := cr.Read()
		got, gerr := sc.next()
		if werr != nil || gerr != nil {
			var wpe, gpe *csv.ParseError
			switch {
			case errors.Is(werr, io.EOF) != errors.Is(gerr, io.EOF):
				return fmt.Sprintf("record %d: error %v, want %v", n, gerr, werr)
			case errors.As(werr, &wpe) != errors.As(gerr, &gpe):
				return fmt.Sprintf("record %d: error %v, want %v", n, gerr, werr)
			case wpe != nil && *wpe != *gpe:
				return fmt.Sprintf("record %d: error %+v, want %+v", n, *gpe, *wpe)
			}
			return ""
		}
		if len(got) != len(want) {
			return fmt.Sprintf("record %d: %d fields %q, want %d %q", n, len(got), got, len(want), want)
		}
		for i := range want {
			if string(got[i]) != want[i] {
				return fmt.Sprintf("record %d field %d: %q, want %q", n, i, got[i], want[i])
			}
		}
	}
}

// FuzzScanCSV holds the scanner to encoding/csv: every record and every
// *csv.ParseError must equal the standard reader's, over the smallest
// bufio buffer (so most lines go through the spill buffer) and over the
// scanner's own.
func FuzzScanCSV(f *testing.F) {
	long := strings.Repeat("x", scanBufSize+100)
	for _, seed := range []string{
		// Quoted multi-line fields and "" escapes.
		"a,b\n\"x\ny\",\"say \"\"hi\"\"\"\n\"\"\"\",\"\"\n",
		// A bare quote, text after a closing quote, a stray byte after a
		// closing quote on a later line.
		"a,b\n1,x\"y\n",
		"a,b\n\"x\"y,1\n",
		"\"a\nb\"c\n",
		// EOF inside quotes, also right after an escaped quote.
		"a\n\"x\n\ny",
		"a\n\"x\"\"",
		// CRLF, inside quotes too; a lone \r at EOF; \r\r\n.
		"a,b\r\n1,2\r\n\"q\r\nr\",3\r\n",
		"a,b\n1,2\r",
		"a\r\r\nb\r\r\n\"c\r\r\n\"\r\n",
		// Blank lines, empty fields, a last line without a newline.
		"a\n\n\r\n1\n\n\n2\n\n",
		"a,,\n,\"\",\n",
		"a,b\n1,2",
		// Fields longer than the buffer, quoted and not, and a bare quote
		// past it.
		"a,b\n" + long + ",1\n\"" + long + "\",\"\"\"" + long + "\"\n",
		"a\n" + long + "\"\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		for _, size := range []int{16, scanBufSize} {
			if msg := diffScan(data, size); msg != "" {
				t.Fatalf("%d-byte buffer: %s", size, msg)
			}
		}
	})
}

// TestReadCSVReadError: a read error other than io.EOF fails ReadCSV
// wrapped, after a complete record and inside a quoted field, as it
// fails the reference.
func TestReadCSVReadError(t *testing.T) {
	boom := errors.New("boom")
	for _, data := range []string{"a,b\n1,2\n3", "a,b\n1,\"2\n", "a,b\n"} {
		read := func() io.Reader { return io.MultiReader(strings.NewReader(data), iotest.ErrReader(boom)) }
		_, err := ReadCSV(read(), Options{})
		if !errors.Is(err, boom) {
			t.Fatalf("%q: err = %v, want it to wrap %v", data, err, boom)
		}
		if _, werr := refReadCSV(read(), Options{}); err.Error() != werr.Error() {
			t.Fatalf("%q: err = %v, reference %v", data, err, werr)
		}
	}
}
