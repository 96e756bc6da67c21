package statsudf

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
	"repro/internal/fastfloat"
)

// ImportCSV loads comma-separated data into a new table (replacing any
// existing one). When header is true the first record supplies column
// names; otherwise columns are named c1..cn. Column types are inferred
// from the first data record: integers become BIGINT, other numbers
// DOUBLE, everything else VARCHAR. Empty fields load as NULL. A UTF-8
// byte-order mark at the start of the input is skipped. The input is
// read as encoding/csv reads it, with the same errors.
//
// The import is all-or-nothing: on any error the new table is dropped,
// so a malformed row never leaves a partially loaded table (note that
// a pre-existing table of the same name is replaced up front and is
// not restored on failure).
//
// The calling goroutine reads the input in chunks that end at record
// ends and loads the parsed rows in input order; up to GOMAXPROCS
// workers parse the chunks (see csvImport). The first error in input
// order is the one returned, and every worker has exited when
// ImportCSV returns.
func (d *DB) ImportCSV(table string, r io.Reader, header bool) (int64, error) {
	in := &csvInput{r: r, line: 1}
	b := &csvBatch{}
	names, first, err := in.head(b, header)
	if err != nil {
		return 0, err
	}
	if !header {
		names = make([]string, len(first))
		for i := range names {
			names[i] = fmt.Sprintf("c%d", i+1)
		}
	}

	cols := make([]sqltypes.Column, len(names))
	row := make(sqltypes.Row, len(names))
	for i, name := range names {
		cols[i] = sqltypes.Column{Name: strings.TrimSpace(name), Type: inferType(first[i])}
		// The first record's fields parse as the types inferred from them.
		row[i], _ = parseField(first[i], cols[i].Type)
	}
	schema, err := sqltypes.NewSchema(cols...)
	if err != nil {
		return 0, err
	}
	if d.eng.HasTable(table) {
		if err := d.eng.DropTable(table); err != nil {
			return 0, err
		}
	}
	tab, err := d.eng.CreateTable(table, schema)
	if err != nil {
		return 0, err
	}
	bl, err := tab.NewBulkLoader()
	if err != nil {
		return 0, err
	}
	count, err := newCSVImport(cols, bl, in).run(row, b)
	if err == nil {
		err = bl.Close()
	}
	if err != nil {
		// A failed import publishes nothing and leaves no table behind:
		// abort the load (releasing the table lock), then drop the table
		// this import created.
		bl.Abort()
		_ = d.eng.DropTable(table)
		return 0, err
	}
	return count, nil
}

// csvChunkBytes is the window a chunk is read to before it is cut.
const csvChunkBytes = 64 << 10

// csvInput reads the input into batches' buffers and cuts each into a
// chunk of whole records (see fill) and a tail that starts the next.
type csvInput struct {
	r     io.Reader
	end   error  // what ended the input once read: io.EOF or a read error
	tail  []byte // bytes read past the last cut, in that batch's buffer
	line  int64  // input line of the next chunk's first byte
	width int    // fields per record, once head has read the first
}

// read appends up to n bytes of input to b.buf, fewer only where the
// input ends, which in.end then records.
func (in *csvInput) read(b *csvBatch, n int) {
	if in.end != nil || n <= 0 {
		return
	}
	b.buf = slices.Grow(b.buf, n)
	m, err := readFull(in.r, b.buf[len(b.buf):len(b.buf)+n])
	b.buf, in.end = b.buf[:len(b.buf)+m], err
}

// readFull reads into p until it is full or r fails. Like bufio, it
// gives up on a reader that keeps returning nothing.
func readFull(r io.Reader, p []byte) (int, error) {
	n, empty := 0, 0
	for n < len(p) {
		m, err := r.Read(p[n:])
		n += m
		switch {
		case err != nil:
			return n, err
		case m > 0:
			empty = 0
		case empty == 100:
			return n, io.ErrNoProgress
		default:
			empty++
		}
	}
	return n, nil
}

// fill makes b's chunk from a window of csvChunkBytes: the tail the last
// chunk left, then the input. The chunk ends at the window's last record
// end (csvCut). A window with none starts with a record that runs past
// it or does not read; encoding/csv then reads that one record from the
// window and on into the input, as a serial import would, and the chunk
// is that record — or, if it does not read, nothing, with b.end the
// error. Once the input has ended the chunk is all that was read, and
// b.end says how the input ended.
func (in *csvInput) fill(b *csvBatch) {
	b.buf = append(b.buf[:0], in.tail...)
	in.tail = nil
	in.read(b, csvChunkBytes-len(b.buf))
	if in.end != nil {
		b.data, b.end = b.buf, in.end
		return
	}
	cut := csvCut(b.buf)
	if cut == 0 {
		cr := csv.NewReader(&bufReader{in: in, b: b})
		cr.FieldsPerRecord = in.width
		if _, err := cr.Read(); err != nil {
			b.data, b.end = nil, err
			return
		}
		cut = int(cr.InputOffset())
	}
	b.data, b.end, in.tail = b.buf[:cut], nil, b.buf[cut:]
}

// bufReader reads b.buf from off on, and past its end reads the input
// on into b.buf, a window at a time, so the bytes read stay in b.buf.
type bufReader struct {
	in  *csvInput
	b   *csvBatch
	off int
}

func (r *bufReader) Read(p []byte) (int, error) {
	if r.off == len(r.b.buf) {
		r.in.read(r.b, csvChunkBytes)
		if r.off == len(r.b.buf) {
			return 0, r.in.end
		}
	}
	n := copy(p, r.b.buf[r.off:])
	r.off += n
	return n, nil
}

// csvCut returns the length of the longest prefix of p that ends in a
// newline after an even number of double quotes, or 0 if there is none.
// Outside a quoted field encoding/csv has seen an even number of
// quotes, and inside one an odd number (an opening quote, then escaped
// pairs), so where input before the cut reads without error the cut is
// a record end. Where it does not, encoding/csv finds the error before
// the cut: the cut never ends a chunk inside an open quoted field.
func csvCut(p []byte) int {
	quotes := bytes.Count(p, []byte{'"'})
	for end := len(p); ; {
		nl := bytes.LastIndexByte(p[:end], '\n')
		if nl < 0 {
			return 0
		}
		quotes -= bytes.Count(p[nl:end], []byte{'"'})
		if quotes%2 == 0 {
			return nl + 1
		}
		end = nl
	}
}

var byteOrderMark = []byte("\xef\xbb\xbf")

// head reads the header, if wanted, and the first data record with
// encoding/csv through b's buffer, and leaves the bytes read past them
// as the tail the first chunk starts with.
func (in *csvInput) head(b *csvBatch, header bool) (names, first []string, err error) {
	in.read(b, csvChunkBytes)
	skip := 0
	if bytes.HasPrefix(b.buf, byteOrderMark) {
		// Spreadsheet exports write one; left in, it would become part of
		// the first column's name.
		skip = len(byteOrderMark)
	}
	cr := csv.NewReader(&bufReader{in: in, b: b, off: skip})
	first, err = cr.Read()
	if err == nil && header {
		names = first
		first, err = cr.Read()
	}
	switch {
	case err == io.EOF && names == nil:
		return nil, nil, fmt.Errorf("statsudf: empty CSV input")
	case err == io.EOF:
		return nil, nil, fmt.Errorf("statsudf: CSV has a header but no data rows")
	case err != nil:
		return nil, nil, fmt.Errorf("statsudf: %w", err)
	}
	off := skip + int(cr.InputOffset())
	in.line += int64(bytes.Count(b.buf[:off], []byte{'\n'}))
	in.tail, in.width = b.buf[off:], len(first)
	return names, first, nil
}

// chunkReader reads data, then ends as the input did after it: end is
// nil or io.EOF for a chunk the input goes on past, or ends at, and
// otherwise the read error that ended the input.
func chunkReader(data []byte, end error) io.Reader {
	r := bytes.NewReader(data)
	if end == nil || end == io.EOF {
		return r
	}
	return io.MultiReader(r, errReader{end})
}

type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// csvBatch is one chunk of the input on its way from the caller through
// a parse worker and back to the caller, which loads its rows. Its
// buffers are reused for a later chunk once the rows are loaded.
type csvBatch struct {
	buf  []byte // the bytes read: data, then the tail of the next chunk
	data []byte // the chunk: whole records, unless end is set
	line int64  // input line of data's first byte
	// end is nil, or how the input ends after data: io.EOF, a read
	// error, or the error encoding/csv met in a record that fill read
	// past a window (the import stops there either way).
	end  error
	vals []Value // the parsed fields, row-major
	// After parsing: rows records parsed cleanly, and err is the error
	// of the record after them, if any — in column col's field when col
	// is not -1.
	rows   int
	col    int
	err    error
	parsed chan struct{} // closed by the worker once it has parsed the batch
}

// csvImport is one import's pipeline, driven by the caller (ImportCSV's
// goroutine). The caller fills a batch's buffer with the next chunk,
// hands the batch to the parse workers and queues it; before it reuses
// the oldest queued batch it waits for that batch's parse and feeds its
// rows to the one BulkLoader. Rows therefore reach the loader in input
// order, as a serial import would add them — the same partition
// placement, the same row-log bytes.
//
// Batches are made only as they are needed, up to limit, each new one
// starting a worker up to GOMAXPROCS; once limit batches exist the
// caller reuses the oldest. A small file thus holds one batch and one
// worker, and limit bounds the memory in flight: a batch holds a window
// of input, or one record longer than that.
//
// A worker parses its chunk in one pass (parseFast) until a line needs
// encoding/csv's rules — a quote, a carriage return not ending the
// line, the wrong field count, a field that does not parse, or the
// input's unterminated last line — and hands the rest of the chunk to
// encoding/csv (parseSlow).
//
// The first error in input order wins: the caller stops at the first
// batch that fails to parse or load, and a read error ends the input
// after the bytes read before it, so it surfaces only when every earlier
// row has loaded. run returns once every worker it started has exited.
type csvImport struct {
	in      *csvInput
	cols    []sqltypes.Column
	bl      *storage.BulkLoader
	width   int
	limit   int            // batches, at most: one more than GOMAXPROCS
	queue   []*csvBatch    // batches handed to the workers, oldest first
	work    chan *csvBatch // to the parse workers
	workers int            // started so far
	wg      sync.WaitGroup
	count   int64 // rows loaded
}

func newCSVImport(cols []sqltypes.Column, bl *storage.BulkLoader, in *csvInput) *csvImport {
	limit := runtime.GOMAXPROCS(0) + 1
	return &csvImport{
		in: in, cols: cols, bl: bl, width: len(cols), limit: limit,
		// The channel holds every batch there can be, so no send blocks.
		work: make(chan *csvBatch, limit),
	}
}

// run loads the first data row, then the records of b, the first
// chunk, and of every chunk after it, returning the number of rows
// added.
func (im *csvImport) run(first sqltypes.Row, b *csvBatch) (int64, error) {
	defer func() {
		close(im.work)
		im.wg.Wait()
	}()
	if err := im.bl.Add(first); err != nil {
		return 0, err
	}
	im.count = 1
	for {
		im.in.fill(b)
		im.send(b)
		if b.end != nil {
			break
		}
		var err error
		if b, err = im.next(); err != nil {
			return 0, err
		}
	}
	for len(im.queue) > 0 {
		if err := im.load(); err != nil {
			return 0, err
		}
	}
	return im.count, nil
}

// send hands b to the workers, starting one if there are fewer than
// batches in flight and GOMAXPROCS.
func (im *csvImport) send(b *csvBatch) {
	lines := bytes.Count(b.data, []byte{'\n'})
	b.line = im.in.line
	im.in.line += int64(lines)
	// A record is a line or more, and one of w fields at least
	// max(w, 2) bytes with its line end: room for the most rows b holds.
	if n := min(lines+1, len(b.data)/max(im.width, 2)+1) * im.width; cap(b.vals) < n {
		b.vals = make([]Value, 0, n)
	}
	b.rows, b.col, b.err = 0, -1, nil
	b.parsed = make(chan struct{})
	im.work <- b
	im.queue = append(im.queue, b)
	if im.workers < min(len(im.queue), im.limit-1) {
		im.workers++
		im.wg.Add(1)
		go func() {
			defer im.wg.Done()
			for b := range im.work {
				im.parse(b)
				close(b.parsed)
			}
		}()
	}
}

// next returns a batch for the next chunk: the oldest queued batch, once
// its rows are loaded, if limit batches exist, otherwise a new one.
func (im *csvImport) next() (*csvBatch, error) {
	if len(im.queue) < im.limit {
		return &csvBatch{}, nil
	}
	b := im.queue[0]
	return b, im.load()
}

// parse converts b's records into b.vals, stopping at the first error.
func (im *csvImport) parse(b *csvBatch) {
	vals, data, lines := b.vals[:0], b.data, int64(0)
	for {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break
		}
		line := data[:nl]
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if len(line) > 0 { // encoding/csv skips empty lines
			var ok bool
			if vals, ok = im.parseFast(line, vals); !ok {
				break
			}
			b.rows++
		}
		data, lines = data[nl+1:], lines+1
	}
	if len(data) > 0 || (b.end != nil && b.end != io.EOF) {
		vals = im.parseSlow(b, data, b.line+lines, vals)
	}
	b.vals = vals
}

// parseFast appends the fields of line, one record without its line
// end, to vals in one pass. It reports false, with vals as it found it,
// if the line holds a quote or a carriage return or the wrong number of
// fields, or a field does not parse: encoding/csv then reads the line.
func (im *csvImport) parseFast(line []byte, vals []Value) ([]Value, bool) {
	n := len(vals)
	for c, col := range im.cols {
		if c > 0 {
			if len(line) == 0 || line[0] != ',' {
				return vals[:n], false
			}
			line = line[1:]
		}
		// A number is taken in place when its field ends right after it.
		switch col.Type {
		case sqltypes.TypeDouble:
			if f, k, ok := fastfloat.ParsePrefix(line); ok && (k == len(line) || line[k] == ',') {
				vals, line = append(vals, sqltypes.NewDouble(f)), line[k:]
				continue
			}
		case sqltypes.TypeBigInt:
			if i, k, ok := fastfloat.ParseIntPrefix(line); ok && (k == len(line) || line[k] == ',') {
				vals, line = append(vals, sqltypes.NewBigInt(i)), line[k:]
				continue
			}
		}
		k := bytes.IndexByte(line, ',')
		if k < 0 {
			k = len(line)
		}
		field := line[:k]
		if bytes.IndexByte(field, '"') >= 0 || bytes.IndexByte(field, '\r') >= 0 {
			return vals[:n], false
		}
		// The string copies the field out, so no value pins the chunk.
		v, err := parseField(string(field), col.Type)
		if err != nil {
			return vals[:n], false
		}
		vals, line = append(vals, v), line[k:]
	}
	if len(line) > 0 {
		return vals[:n], false
	}
	return vals, true
}

// parseSlow appends the records of data, the rest of b's chunk from
// input line line on, to vals through encoding/csv, stopping at the
// first error; a ParseError's lines are made the input's.
func (im *csvImport) parseSlow(b *csvBatch, data []byte, line int64, vals []Value) []Value {
	cr := csv.NewReader(chunkReader(data, b.end))
	cr.FieldsPerRecord = im.width
	cr.ReuseRecord = true
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return vals
		}
		if err != nil {
			var pe *csv.ParseError
			if errors.As(err, &pe) {
				pe.StartLine += int(line - 1)
				pe.Line += int(line - 1)
			}
			b.err = fmt.Errorf("statsudf: %w", err)
			return vals
		}
		for c, f := range rec {
			v, err := parseField(f, im.cols[c].Type)
			if err != nil {
				b.col, b.err = c, err
				return vals[:b.rows*im.width]
			}
			vals = append(vals, v)
		}
		b.rows++
	}
}

// load waits for the oldest queued batch's parse, takes it off the
// queue and adds its rows to the loader.
func (im *csvImport) load() error {
	b := im.queue[0]
	<-b.parsed
	im.queue = append(im.queue[:0], im.queue[1:]...)
	for r := 0; r < b.rows; r++ {
		if err := im.bl.Add(b.vals[r*im.width : (r+1)*im.width]); err != nil {
			return err
		}
	}
	if b.col >= 0 {
		return fmt.Errorf("statsudf: CSV row %d column %q: %w", im.count+int64(b.rows)+1, im.cols[b.col].Name, b.err)
	}
	if b.err != nil {
		return b.err
	}
	im.count += int64(b.rows)
	return nil
}

func inferType(field string) sqltypes.Type {
	f := strings.TrimSpace(field)
	if f == "" {
		return sqltypes.TypeDouble // NULL-ish: assume numeric
	}
	if _, err := strconv.ParseInt(f, 10, 64); err == nil {
		return sqltypes.TypeBigInt
	}
	if _, err := fastfloat.Parse(f); err == nil {
		return sqltypes.TypeDouble
	}
	return sqltypes.TypeVarChar
}

func parseField(field string, t sqltypes.Type) (Value, error) {
	f := strings.TrimSpace(field)
	if f == "" {
		return sqltypes.Null, nil
	}
	switch t {
	case sqltypes.TypeBigInt:
		i, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			// The column was inferred BIGINT from the first record;
			// silently truncating later reals would corrupt data.
			return sqltypes.Null, fmt.Errorf("column inferred as BIGINT but found %q (re-import without integer first row, or clean the data)", f)
		}
		return sqltypes.NewBigInt(i), nil
	case sqltypes.TypeDouble:
		fl, err := fastfloat.Parse(f)
		if err != nil {
			return sqltypes.Null, fmt.Errorf("bad number %q", f)
		}
		return sqltypes.NewDouble(fl), nil
	default:
		return sqltypes.NewVarChar(field), nil
	}
}
