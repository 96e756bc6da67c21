package statsudf

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/engine/sqltypes"
	"repro/internal/synth"
)

func TestImportCSVWithHeader(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	in := "id,amount,label\n1,2.5,apple\n2,3.25,pear\n3,,fig\n"
	n, err := d.ImportCSV("items", strings.NewReader(in), true)
	if err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	res, err := d.Exec("SELECT id, amount, label FROM items ORDER BY id")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.Rows[0][2].Str() != "apple" || res.Rows[1][1].MustFloat() != 3.25 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if !res.Rows[2][1].IsNull() {
		t.Fatalf("empty field should be NULL: %v", res.Rows[2])
	}
	// Schema types were inferred.
	tab, _ := d.Engine().Table("items")
	s := tab.Schema()
	if s.Columns[0].Type.String() != "BIGINT" || s.Columns[1].Type.String() != "DOUBLE" || s.Columns[2].Type.String() != "VARCHAR" {
		t.Fatalf("schema = %v", s)
	}
}

func TestImportCSVNoHeader(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	n, err := d.ImportCSV("t", strings.NewReader("1.5,2\n2.5,3\n"), false)
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	res, err := d.Exec("SELECT sum(c1), sum(c2) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].MustFloat() != 4 || res.Rows[0][1].MustFloat() != 5 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestImportCSVReplacesExisting(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	if _, err := d.ImportCSV("t", strings.NewReader("1\n2\n3\n"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ImportCSV("t", strings.NewReader("9\n"), false); err != nil {
		t.Fatal(err)
	}
	res, _ := d.Exec("SELECT count(*) FROM t")
	if v, _ := res.Value(); v.Int() != 1 {
		t.Fatalf("count = %v", v)
	}
}

func TestImportCSVErrors(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	cases := map[string]struct {
		in     string
		header bool
	}{
		"empty":             {"", false},
		"header only":       {"a,b\n", true},
		"ragged row":        {"1,2\n3\n", false},
		"bigint then real":  {"1\n2.5\n", false},
		"double then text":  {"1.5\nabc\n", false},
		"duplicate headers": {"a,a\n1,2\n", true},
	}
	for name, c := range cases {
		if _, err := d.ImportCSV("bad", strings.NewReader(c.in), c.header); err == nil {
			t.Errorf("%s: must fail", name)
		}
	}
}

func TestImportCSVThenModel(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	var b strings.Builder
	b.WriteString("i,X1,X2\n")
	for i := 0; i < 200; i++ {
		x := float64(i)
		b.WriteString(strings.Join([]string{
			itoa(i), ftoa(x), ftoa(2*x + 1),
		}, ","))
		b.WriteByte('\n')
	}
	if _, err := d.ImportCSV("X", strings.NewReader(b.String()), true); err != nil {
		t.Fatal(err)
	}
	m, err := d.Correlation("X", []string{"X1", "X2"})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) < 0.999 {
		t.Fatalf("rho = %g", m.At(0, 1))
	}
}

func itoa(i int) string { return strconv.Itoa(i) }

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func TestImportCSVByteOrderMark(t *testing.T) {
	d := openTest(t)
	defer d.Close()
	if _, err := d.ImportCSV("bom", strings.NewReader("\ufeffid,x\n1,2.5\n2,3.5\n"), true); err != nil {
		t.Fatal(err)
	}
	res, err := d.Exec("SELECT id, x FROM bom ORDER BY id")
	if err != nil {
		t.Fatalf("the first column lost its name to the byte-order mark: %v", err)
	}
	if len(res.Rows) != 2 || res.Rows[1][0].Int() != 2 || res.Rows[1][1].MustFloat() != 3.5 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Without a header the mark must not reach the first field's value:
	// the column is still inferred BIGINT.
	if _, err := d.ImportCSV("bom", strings.NewReader("\ufeff7,1.5\n"), false); err != nil {
		t.Fatal(err)
	}
	res, err = d.Exec("SELECT c1 FROM bom")
	if err != nil {
		t.Fatal(err)
	}
	if v := res.Rows[0][0]; v.Type() != sqltypes.TypeBigInt || v.Int() != 7 {
		t.Fatalf("c1 = %v (%v)", v, v.Type())
	}
}

// serialImportCSV is the reference importer for the differential tests:
// the one-goroutine loop ImportCSV was before its parse moved to
// workers — encoding/csv and a strconv field parse, one row at a time,
// straight into one BulkLoader — with the same byte-order-mark
// handling. It shares no field parsing with ImportCSV, so the tests
// compare the importer's number parser against strconv's.
func serialImportCSV(d *DB, table string, r io.Reader, header bool) (int64, error) {
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
		cols[i] = sqltypes.Column{Name: strings.TrimSpace(name), Type: refInferType(firstData[i])}
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
	fail := func(err error) (int64, error) {
		bl.Abort()
		_ = d.eng.DropTable(table)
		return 0, err
	}
	var count int64
	row := make(sqltypes.Row, len(cols))
	add := func(rec []string) error {
		if len(rec) != len(cols) {
			return fmt.Errorf("statsudf: CSV row %d has %d fields, want %d", count+1, len(rec), len(cols))
		}
		for i, f := range rec {
			v, err := refParseField(f, cols[i].Type)
			if err != nil {
				return fmt.Errorf("statsudf: CSV row %d column %q: %w", count+1, cols[i].Name, err)
			}
			row[i] = v
		}
		count++
		return bl.Add(row)
	}
	if err := add(firstData); err != nil {
		return fail(err)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(fmt.Errorf("statsudf: %w", err))
		}
		if err := add(rec); err != nil {
			return fail(err)
		}
	}
	if err := bl.Close(); err != nil {
		return fail(err)
	}
	return count, nil
}

// skipBOM drops a UTF-8 byte-order mark from the front of r.
func skipBOM(r io.Reader) io.Reader {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(3); bytes.Equal(head, []byte("\xef\xbb\xbf")) {
		_, _ = br.Discard(3)
	}
	return br
}

// refInferType and refParseField are serialImportCSV's column type
// inference and field parse, on strconv alone; their error texts are
// ImportCSV's.
func refInferType(field string) sqltypes.Type {
	f := strings.TrimSpace(field)
	if f == "" {
		return sqltypes.TypeDouble
	}
	if _, err := strconv.ParseInt(f, 10, 64); err == nil {
		return sqltypes.TypeBigInt
	}
	if _, err := strconv.ParseFloat(f, 64); err == nil {
		return sqltypes.TypeDouble
	}
	return sqltypes.TypeVarChar
}

func refParseField(field string, t sqltypes.Type) (Value, error) {
	f := strings.TrimSpace(field)
	if f == "" {
		return sqltypes.Null, nil
	}
	switch t {
	case sqltypes.TypeBigInt:
		i, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return sqltypes.Null, fmt.Errorf("column inferred as BIGINT but found %q (re-import without integer first row, or clean the data)", f)
		}
		return sqltypes.NewBigInt(i), nil
	case sqltypes.TypeDouble:
		fl, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return sqltypes.Null, fmt.Errorf("bad number %q", f)
		}
		return sqltypes.NewDouble(fl), nil
	default:
		return sqltypes.NewVarChar(field), nil
	}
}

// goroutinesAbove waits briefly for the goroutine count to fall back to
// before — a goroutine that has handed over its last result may not
// have returned yet — and reports how many are still above it.
func goroutinesAbove(before int) int {
	for i := 0; i < 200; i++ {
		if runtime.NumGoroutine() <= before {
			return 0
		}
		time.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine() - before
}

// diffImport imports data with ImportCSV and with serialImportCSV into
// two tables of d and fails the test unless they agree: the same row
// count and the same rows, partition by partition, or the same error — a
// csv.ParseError with the same line and column — with no table left
// behind and no goroutine still running. When d is on disk, under dir,
// the partition row logs must also be byte-identical; dir is "" for a
// database in memory. It returns the error, and drops what the imports
// created.
func diffImport(t testing.TB, d *DB, dir, data string, header bool) error {
	t.Helper()
	return diffImportFrom(t, d, dir, func() io.Reader { return strings.NewReader(data) }, header)
}

// diffImportFrom is diffImport over the input open returns, called once
// for each importer.
func diffImportFrom(t testing.TB, d *DB, dir string, open func() io.Reader, header bool) error {
	t.Helper()
	before := runtime.NumGoroutine()
	n, err := d.ImportCSV("par", open(), header)
	if left := goroutinesAbove(before); left > 0 {
		t.Fatalf("ImportCSV left %d goroutine(s) running (err %v)", left, err)
	}
	wantN, wantErr := serialImportCSV(d, "ser", open(), header)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("ImportCSV: %d rows, %v\nserial:    %d rows, %v", n, err, wantN, wantErr)
	}
	var pe, wantPE *csv.ParseError
	if errors.As(err, &pe) != errors.As(wantErr, &wantPE) || (pe != nil && *pe != *wantPE) {
		t.Fatalf("parse errors differ: %+v vs %+v", pe, wantPE)
	}
	if err != nil {
		for _, tab := range []string{"par", "ser"} {
			if d.eng.HasTable(tab) {
				t.Fatalf("a failed import left table %s behind", tab)
			}
		}
		return err
	}
	if n != wantN {
		t.Fatalf("ImportCSV loaded %d rows, serial %d", n, wantN)
	}
	got, want := scanRows(t, d, "par"), scanRows(t, d, "ser")
	if len(got) != len(want) {
		t.Fatalf("ImportCSV stored %d rows, serial %d", len(got), len(want))
	}
	for i := range got {
		if !sameRow(got[i], want[i]) {
			t.Fatalf("stored row %d: ImportCSV %v, serial %v", i, got[i], want[i])
		}
	}
	tab, err := d.eng.Table("par")
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; dir != "" && p < tab.Partitions(); p++ {
		got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("par.p%03d.dat", p)))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("ser.p%03d.dat", p)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("partition %d: ImportCSV wrote %d bytes, serial %d, and they differ", p, len(got), len(want))
		}
	}
	for _, tab := range []string{"par", "ser"} {
		if err := d.eng.DropTable(tab); err != nil {
			t.Fatal(err)
		}
	}
	return nil
}

// scanRows returns table's stored rows, partition by partition.
func scanRows(t testing.TB, d *DB, table string) []sqltypes.Row {
	t.Helper()
	tab, err := d.eng.Table(table)
	if err != nil {
		t.Fatal(err)
	}
	var rows []sqltypes.Row
	if err := tab.Scan(func(r sqltypes.Row) error {
		rows = append(rows, r.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

// sameRow reports whether a and b hold the same values, floats compared
// bit for bit (so a NaN matches itself).
func sameRow(a, b sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type() != b[i].Type() || a[i].Str() != b[i].Str() {
			return false
		}
		fa, _ := a[i].Float()
		fb, _ := b[i].Float()
		if a[i].Type() == sqltypes.TypeDouble && math.Float64bits(fa) != math.Float64bits(fb) {
			return false
		}
	}
	return true
}

// csvText renders a header and n records; rec returns record i (1-based,
// the data row number error messages use).
func csvText(header string, n int, rec func(i int) string) string {
	var b strings.Builder
	b.WriteString(header)
	b.WriteByte('\n')
	for i := 1; i <= n; i++ {
		b.WriteString(rec(i))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestImportCSVMatchesSerial runs inputs spanning several chunks
// through diffImport, into a database on disk and one in memory. Chunks
// are cut by csvCut from csvChunkBytes of input, about 2 200 records of
// the four-column data; the cases named "at a chunk edge" put a quoted
// newline, CRLF lines, empty lines, a ragged row or a bad field on the
// records either side of a cut the cutter itself picks for their input.
// Records longer than a window, quoted or not and first or later, are
// read by encoding/csv on from the window and make a chunk each.
func TestImportCSVMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mem, err := Open(Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	wide := func(i int) string {
		f := make([]string, 9)
		f[0] = strconv.Itoa(i)
		for a := 1; a < 9; a++ {
			f[a] = ftoa(float64(i*a) / 7)
		}
		return strings.Join(f, ",")
	}
	wideHeader := "i,X1,X2,X3,X4,X5,X6,X7,X8"
	narrowHeader := "i,x,s,y"
	narrow := func(i int) string { return fmt.Sprintf("%d,%s,s%d,%s", i, ftoa(float64(i)/3), i, ftoa(float64(-i))) }
	// Row e is the first record of the second chunk of the plain narrow
	// data; the special records of a chunk-edge case are longer than the
	// plain ones they replace, so a cut still falls among them.
	plain := csvText(narrowHeader, 3000, narrow)
	e := strings.Count(plain[:chunkEdges(plain)[0]], "\n")
	pad := strings.Repeat("x", 30)
	// About 1 MB of quoted text: lines, commas and escaped quotes.
	longText := strings.Repeat("a \"\"quoted\"\", line\n", 40000)
	cases := []struct {
		name   string
		data   string
		header bool
		errHas string // "" when the import succeeds
		edge   [2]int // rows among which a cut must fall, if not zero
	}{
		{"5 000 rows", csvText(wideHeader, 5000, wide), true, "", [2]int{}},
		{"no header", csvText(wideHeader, 1000, wide)[len(wideHeader)+1:], false, "", [2]int{}},
		{"byte-order mark", "\ufeff" + csvText(wideHeader, 1000, wide), true, "", [2]int{}},
		{"bad DOUBLE at row 2 500", csvText(wideHeader, 3000, func(i int) string {
			if i == 2500 {
				return "2500,1,2,1.2.3,4,5,6,7,8"
			}
			return wide(i)
		}), true, `CSV row 2500 column "X3": bad number "1.2.3"`, [2]int{}},
		// Row e-1 starts less than a plain row before the first window
		// ends; quoted, its newline comes early and its end after the
		// window's, so the cut must skip that newline.
		{"quoted newline at a chunk edge", csvText(narrowHeader, 3000, func(i int) string {
			if i >= e-1 && i <= e+1 {
				return fmt.Sprintf("%d,1,\"\nline %d %s%s\",2", i, i, pad, pad)
			}
			return narrow(i)
		}), true, "", [2]int{e - 1, e + 1}},
		{"CRLF lines at a chunk edge", csvText(narrowHeader, 3000, func(i int) string {
			if i >= e-1 && i <= e+1 {
				return narrow(i) + "\r"
			}
			return narrow(i)
		}), true, "", [2]int{e - 1, e + 1}},
		{"empty lines at a chunk edge", csvText(narrowHeader, 3000, func(i int) string {
			if i == e-1 || i == e {
				return narrow(i) + "\n"
			}
			return narrow(i)
		}), true, "", [2]int{e - 1, e + 1}},
		{"ragged row at a chunk edge", csvText(narrowHeader, 3000, func(i int) string {
			if i == e {
				return fmt.Sprintf("%d,1,s%d%s", i, i, pad)
			}
			return narrow(i)
		}), true, "wrong number of fields", [2]int{e, e}},
		{"bad field at a chunk edge", csvText(narrowHeader, 3000, func(i int) string {
			if i == e {
				return fmt.Sprintf("%d,ten,s%d%s,1", i, i, pad)
			}
			return narrow(i)
		}), true, fmt.Sprintf(`CSV row %d column "x": bad number "ten"`, e), [2]int{e, e}},
		{"quoted fields after the first chunk", csvText(narrowHeader, 3000, func(i int) string {
			switch i {
			case 2500:
				return "2500,1,\"s2500\",2"
			case 2501:
				return "2501,1,\"a\"\"b\",2"
			case 2502:
				return "2502,\"2.5\",s,\"3\""
			}
			return narrow(i)
		}), true, "", [2]int{}},
		{"malformed quote after a quoted newline", csvText(narrowHeader, 3000, func(i int) string {
			switch {
			case i == 1024:
				return fmt.Sprintf("%d,1,\"two\nlines\",2", i)
			case i == 2100:
				return fmt.Sprintf("%d,1,\"ab\"c,2", i)
			}
			return narrow(i)
		}), true, "parse error on line 2102, column 11", [2]int{}},
		{"ragged row after the first chunk", csvText(narrowHeader, 3000, func(i int) string {
			if i == 2500 {
				return "2500,1,s"
			}
			return narrow(i)
		}), true, "wrong number of fields", [2]int{}},
		// A record longer than a window is read by encoding/csv on from
		// the window: the chunk is that record.
		{"quoted field longer than a window", csvText(narrowHeader, 3000, func(i int) string {
			if i == 1500 {
				return fmt.Sprintf("%d,1,\"%s\",2", i, longText)
			}
			return narrow(i)
		}), true, "", [2]int{1500, 1500}},
		{"unquoted field longer than a window", csvText(narrowHeader, 3000, func(i int) string {
			if i == 1500 {
				return fmt.Sprintf("%d,1,%s,2", i, strings.Repeat("x", 3*csvChunkBytes))
			}
			return narrow(i)
		}), true, "", [2]int{1500, 1500}},
		{"first record longer than a window", csvText(narrowHeader, 3000, func(i int) string {
			if i == 1 {
				return fmt.Sprintf("%d,0.5,\"%s\",-1.5", i, longText)
			}
			return narrow(i)
		}), true, "", [2]int{}},
		// The quote left open reads on to the input's end, as serially.
		{"quote left open", csvText(narrowHeader, 3000, func(i int) string {
			if i == 2500 {
				return "2500,1,\"open,2"
			}
			return narrow(i)
		}), true, "extraneous or missing \" in quoted-field", [2]int{}},
		// The two errors fall in different chunks: the earlier one wins.
		{"bad field at row 10, malformed quote at row 2 500", csvText(narrowHeader, 3000, func(i int) string {
			switch i {
			case 10:
				return "10,ten,s,1"
			case 2500:
				return "2500,1,\"ab\"c,2"
			}
			return narrow(i)
		}), true, `CSV row 10 column "x": bad number "ten"`, [2]int{11, 2499}},
	}
	for _, c := range cases {
		if c.edge != [2]int{} && !cutAmong(c.data, c.edge[0], c.edge[1]) {
			t.Fatalf("%s: no chunk edge falls among rows %d to %d", c.name, c.edge[0], c.edge[1])
		}
		err := diffImport(t, d, dir, c.data, c.header)
		// In memory the loader keeps a copy of every row while the
		// pipeline reuses its batches: the rows must still match.
		if memErr := diffImport(t, mem, "", c.data, c.header); (memErr == nil) != (err == nil) {
			t.Errorf("%s: on disk %v, in memory %v", c.name, err, memErr)
		}
		switch {
		case c.errHas == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.errHas != "" && (err == nil || !strings.Contains(err.Error(), c.errHas)):
			t.Errorf("%s: err = %v, want one containing %q", c.name, err, c.errHas)
		}
	}
}

// TestImportCSVReadError feeds ImportCSV inputs that end in a read error
// other than io.EOF after k bytes, k swept across the first records,
// across record ends on both sides of every chunk edge, through a record
// longer than a window and up to the input's end. Through diffImportFrom the import must return what the
// serial importer does: the read error, or the error of a bad field or
// malformed quote the bytes before it hold, with no table and no
// goroutine left behind.
func TestImportCSVReadError(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mem, err := Open(Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer mem.Close()
	// Record 1 000 holds a quoted field of 100 KB, which encoding/csv reads
	// on past its window, records 3 000 to 3 003 quoted newlines, and
	// record 4 500 a bad field; about 250 KB in all, so the input spans
	// five chunks.
	long := strings.Repeat("a \"\"b\"\",\n", 10000)
	data := csvText("i,x,s,y", 5000, func(i int) string {
		switch {
		case i == 1000:
			return fmt.Sprintf("%d,1,\"%s\",2", i, long)
		case i >= 3000 && i <= 3003:
			return fmt.Sprintf("%d,1,\"two\nlines\",2", i)
		case i == 4500:
			return "4500,x,s,1"
		}
		return fmt.Sprintf("%d,%s,s%d,%s", i, ftoa(float64(i)/3), i, ftoa(float64(-i)))
	})
	ks := map[int]bool{}
	for k := 0; k < 40; k++ {
		ks[k] = true
	}
	for _, edge := range chunkEdges(data) {
		for k := edge - 70; k <= edge+70; k++ {
			ks[k] = true
		}
	}
	for k := len(data) - 70; k <= len(data); k++ {
		ks[k] = true
	}
	ends, _ := recordEnds([]byte(data))
	for k := ends[999]; k < ends[1000]; k += 4099 {
		ks[k] = true
	}
	readErr := errors.New("disk on fire")
	for k := range ks {
		if k < 0 || k > len(data) {
			continue
		}
		open := func() io.Reader {
			return io.MultiReader(strings.NewReader(data[:k]), iotest.ErrReader(readErr))
		}
		err := diffImportFrom(t, d, dir, open, true)
		if memErr := diffImportFrom(t, mem, "", open, true); (memErr == nil) != (err == nil) {
			t.Fatalf("k = %d: on disk %v, in memory %v", k, err, memErr)
		}
		if err == nil {
			t.Fatalf("k = %d: an input cut by a read error imported", k)
		}
	}
}

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestImportCSVStrayQuote feeds ImportCSV 8 MB whose row 10 holds a stray
// quote in an unquoted field, leaving every later newline after an odd
// number of quotes, so no window past it has a cut. The import must
// return encoding/csv's error for that quote, as the serial importer
// does, having read and allocated no more than a few windows.
func TestImportCSVStrayQuote(t *testing.T) {
	d, err := Open(Options{Partitions: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	data := csvText("i,x,s,y", 300000, func(i int) string {
		if i == 10 {
			return `10,1,12",2`
		}
		return fmt.Sprintf("%d,%d.5,s%d,%d", i, i, i, -i)
	})
	err = diffImport(t, d, "", data, true)
	if err == nil || !strings.Contains(err.Error(), `bare " in non-quoted-field`) {
		t.Fatalf("err = %v, want a bare quote error", err)
	}
	in := &countingReader{r: strings.NewReader(data)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := d.ImportCSV("t", in, true); err == nil {
		t.Fatal("the import succeeded")
	}
	runtime.ReadMemStats(&after)
	if in.n > 4*csvChunkBytes {
		t.Errorf("read %d of %d bytes before the error", in.n, len(data))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 2<<20 {
		t.Errorf("allocated %d bytes before the error", alloc)
	}
}

// chunkEdges returns the offsets in data, an input with a header, at
// which ImportCSV ends a chunk short of the input's end, found as
// csvInput.fill finds them: the first chunk starts after the first data
// record, and each ends at csvCut's cut of the csvChunkBytes from its
// start or, where those hold none, at the end of the record encoding/csv
// reads from there.
func chunkEdges(data string) []int {
	var edges []int
	for off := firstRecordsEnd(data, 2); off > 0 && off+csvChunkBytes <= len(data); {
		cut := csvCut([]byte(data[off : off+csvChunkBytes]))
		if cut == 0 {
			cut = firstRecordsEnd(data[off:], 1)
		}
		if cut == 0 || off+cut == len(data) {
			break
		}
		off += cut
		edges = append(edges, off)
	}
	return edges
}

// firstRecordsEnd returns the offset at which the first n records of
// data end, as Reader.InputOffset reports it, or 0 if they do not read.
func firstRecordsEnd(data string, n int) int {
	cr := csv.NewReader(strings.NewReader(data))
	cr.FieldsPerRecord = -1
	for i := 0; i < n; i++ {
		if _, err := cr.Read(); err != nil {
			return 0
		}
	}
	return int(cr.InputOffset())
}

// recordEnds returns the offset at which each record of data ends — the
// header's first — as encoding/csv's InputOffset reports it after
// reading the record, with any field count allowed; on an error, those
// of the records before it and the error.
func recordEnds(data []byte) ([]int, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	var ends []int
	for {
		if _, err := cr.Read(); err == io.EOF {
			return ends, nil
		} else if err != nil {
			return ends, err
		}
		ends = append(ends, int(cr.InputOffset()))
	}
}

// cutAmong reports whether a chunk edge of data falls among data rows lo
// to hi: at the end of row lo-1 at the earliest, of row hi at the latest.
// The rows must read, though later ones need not.
func cutAmong(data string, lo, hi int) bool {
	ends, _ := recordEnds([]byte(data))
	if hi >= len(ends) {
		return false
	}
	for _, edge := range chunkEdges(data) {
		if ends[lo-1] <= edge && edge <= ends[hi] {
			return true
		}
	}
	return false
}

// BenchmarkImportCSV loads the ledger's ingest_score batch — a header
// and 4 096 records of an id and eight DOUBLEs — into a table, replacing
// it each iteration: on disk, where writing the row logs adds file-system
// time to the parse, and in memory, where the import's own CPU shows.
// The quoted arm, in memory, gives every record a quoted VARCHAR field
// after its id, as exports of text columns do: its records leave the
// fast path for encoding/csv.
func BenchmarkImportCSV(b *testing.B) {
	const rows, dims = 4096, 8
	var plain, quoted bytes.Buffer
	plain.WriteString("i," + strings.Join(DimColumns(dims), ",") + "\n")
	if _, err := synth.WriteCSV(&plain, synth.Config{N: rows, D: dims, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	for i, line := range strings.SplitAfter(plain.String(), "\n") {
		if id, rest, ok := strings.Cut(line, ","); ok {
			name := "name"
			if i > 0 {
				name = fmt.Sprintf(`"point %d, ""p%d"""`, i, i)
			}
			quoted.WriteString(id + "," + name + "," + rest)
		}
	}
	for _, arm := range []struct {
		name string
		dir  string
		data []byte
	}{{"disk", b.TempDir(), plain.Bytes()}, {"memory", "", plain.Bytes()}, {"quoted", "", quoted.Bytes()}} {
		b.Run(arm.name, func(b *testing.B) {
			d, err := Open(Options{Dir: arm.dir, Partitions: 4})
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := d.ImportCSV("B", bytes.NewReader(arm.data), true); err != nil || n != rows {
					b.Fatalf("imported %d rows: %v", n, err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
