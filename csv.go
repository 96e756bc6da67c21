package statsudf

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
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
// byte-order mark at the start of the input is skipped.
//
// The import is all-or-nothing: on any error the new table is dropped,
// so a malformed row never leaves a partially loaded table (note that
// a pre-existing table of the same name is replaced up front and is
// not restored on failure).
//
// The calling goroutine reads records and loads the parsed rows in
// input order; up to GOMAXPROCS workers parse them in batches (see
// csvImport). The first error in input order is the one returned.
func (d *DB) ImportCSV(table string, r io.Reader, header bool) (int64, error) {
	cr := csv.NewReader(skipBOM(r))
	cr.ReuseRecord = true

	var names []string
	first, err := cr.Read()
	if err == io.EOF {
		return 0, fmt.Errorf("statsudf: empty CSV input")
	}
	if err != nil {
		return 0, fmt.Errorf("statsudf: %w", err)
	}
	if header {
		names = append([]string(nil), first...)
		first, err = cr.Read()
		if err == io.EOF {
			return 0, fmt.Errorf("statsudf: CSV has a header but no data rows")
		}
		if err != nil {
			return 0, fmt.Errorf("statsudf: %w", err)
		}
	} else {
		names = make([]string, len(first))
		for i := range names {
			names[i] = fmt.Sprintf("c%d", i+1)
		}
	}
	firstData := append([]string(nil), first...)

	cols := make([]sqltypes.Column, len(names))
	for i, name := range names {
		cols[i] = sqltypes.Column{Name: strings.TrimSpace(name), Type: inferType(firstData[i])}
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
	count, err := newCSVImport(cols, bl).run(firstData, cr)
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

// skipBOM drops a UTF-8 byte-order mark from the front of r, as
// spreadsheet exports write one; left in, it would become part of the
// first column's name.
func skipBOM(r io.Reader) io.Reader {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(3); bytes.Equal(head, []byte("\xef\xbb\xbf")) {
		_, _ = br.Discard(3)
	}
	return br
}

// csvBatchFields sizes an import batch by fields rather than rows, so a
// wide file holds as much in flight as a narrow one.
const csvBatchFields = 4096

// csvBatch is a run of consecutive records on its way from the reader
// through a parse worker and back to the reader, which loads its rows.
type csvBatch struct {
	row    int64    // 1-based data row number of the first record
	fields []string // the records' fields, row-major
	vals   []Value  // the parsed fields, row-major
	// After parsing: rows leading rows parsed cleanly, and err is the
	// error of the row after them, if any.
	rows   int
	err    error
	parsed chan struct{} // closed by the worker once it has parsed the batch
}

// csvImport is one import's pipeline, driven by the reader (ImportCSV's
// goroutine). The reader fills a batch, hands it to the parse workers
// and queues it; before it reuses the oldest queued batch it waits for
// that batch's parse and feeds its rows to the one BulkLoader. Rows
// therefore reach the loader in input order, as a serial import would
// add them — the same partition placement, the same row-log bytes.
//
// Batches are made only as they are needed, up to limit, each new one
// starting a worker up to GOMAXPROCS; once limit batches exist the
// reader reuses the oldest. A file of one batch thus holds one batch
// and one worker, and limit bounds what is in flight. (Reusing the
// oldest batch as soon as it is parsed, to make fewer, slowed the
// ingest_score benchmark by about 3 % on 2 CPUs.)
//
// The first error in input order wins: the reader stops at the first
// batch that fails to parse or load, and a read error ends the input
// after the rows read before it, so it surfaces only when every earlier
// row has loaded. run returns once every worker it started has exited.
type csvImport struct {
	cols    []sqltypes.Column
	bl      *storage.BulkLoader
	width   int
	rows    int            // records per batch
	limit   int            // batches, at most: one more than GOMAXPROCS
	queue   []*csvBatch    // batches handed to the workers, oldest first
	work    chan *csvBatch // to the parse workers
	workers int            // started so far
	wg      sync.WaitGroup
	count   int64 // rows loaded
}

func newCSVImport(cols []sqltypes.Column, bl *storage.BulkLoader) *csvImport {
	limit := runtime.GOMAXPROCS(0) + 1
	return &csvImport{
		cols: cols, bl: bl, width: len(cols), rows: max(1, csvBatchFields/len(cols)),
		limit: limit,
		// The channel holds every batch there can be, so no send blocks.
		work: make(chan *csvBatch, limit),
	}
}

// run imports first and then every record cr still holds, returning the
// number of rows added.
func (im *csvImport) run(first []string, cr *csv.Reader) (int64, error) {
	defer func() {
		close(im.work)
		im.wg.Wait()
	}()
	rec, row := first, int64(1)
	for {
		b, err := im.next(row)
		if err != nil {
			return 0, err
		}
		// encoding/csv holds every record to the first one's field count.
		var readErr error
		for len(b.fields) < im.rows*im.width && readErr == nil {
			b.fields = append(b.fields, rec...)
			row++
			rec, readErr = cr.Read()
		}
		im.work <- b
		im.queue = append(im.queue, b)
		if readErr == nil {
			continue
		}
		for len(im.queue) > 0 {
			if err := im.load(); err != nil {
				return 0, err
			}
		}
		if readErr != io.EOF {
			return 0, fmt.Errorf("statsudf: %w", readErr)
		}
		return im.count, nil
	}
}

// next returns an empty batch for the records from data row row on: the
// oldest queued batch, once its rows are loaded, if limit batches
// exist, otherwise a new one.
func (im *csvImport) next(row int64) (*csvBatch, error) {
	var b *csvBatch
	if len(im.queue) == im.limit {
		b = im.queue[0]
		if err := im.load(); err != nil {
			return nil, err
		}
	} else {
		b = &csvBatch{
			fields: make([]string, 0, im.rows*im.width),
			vals:   make([]Value, im.rows*im.width),
		}
		if im.workers < im.limit-1 {
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
	b.row, b.fields, b.rows, b.err = row, b.fields[:0], 0, nil
	b.parsed = make(chan struct{})
	return b, nil
}

// parse converts b's fields, stopping at the first bad one.
func (im *csvImport) parse(b *csvBatch) {
	n := len(b.fields) / im.width
	for r := 0; r < n; r++ {
		for c, col := range im.cols {
			i := r*im.width + c
			v, err := parseField(b.fields[i], col.Type)
			if err != nil {
				b.rows = r
				b.err = fmt.Errorf("statsudf: CSV row %d column %q: %w", b.row+int64(r), col.Name, err)
				return
			}
			b.vals[i] = v
		}
	}
	b.rows = n
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
