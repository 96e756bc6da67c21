package statsudf

import (
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
	before := runtime.NumGoroutine()
	n, err := d.ImportCSV("par", strings.NewReader(data), header)
	if left := goroutinesAbove(before); left > 0 {
		t.Fatalf("ImportCSV left %d goroutine(s) running (err %v)", left, err)
	}
	wantN, wantErr := serialImportCSV(d, "ser", strings.NewReader(data), header)
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

// TestImportCSVMatchesSerial runs inputs spanning several batches
// through diffImport, into a database on disk and one in memory:
// batches are sized by fields, 455 records at nine columns and 1 024 at
// four.
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
	cases := []struct {
		name   string
		data   string
		header bool
		errHas string // "" when the import succeeds
	}{
		{"5 000 rows", csvText(wideHeader, 5000, wide), true, ""},
		{"no header", csvText(wideHeader, 1000, wide)[len(wideHeader)+1:], false, ""},
		{"byte-order mark", "\ufeff" + csvText(wideHeader, 1000, wide), true, ""},
		{"bad DOUBLE at row 2 500", csvText(wideHeader, 3000, func(i int) string {
			if i == 2500 {
				return "2500,1,2,1.2.3,4,5,6,7,8"
			}
			return wide(i)
		}), true, `CSV row 2500 column "X3": bad number "1.2.3"`},
		{"quoted newline at a batch edge", csvText(narrowHeader, 3000, func(i int) string {
			if i >= 1023 && i <= 1026 {
				return fmt.Sprintf("%d,1,\"two\nlines %d\",2", i, i)
			}
			return narrow(i)
		}), true, ""},
		{"malformed quote after a quoted newline", csvText(narrowHeader, 3000, func(i int) string {
			switch {
			case i == 1024:
				return fmt.Sprintf("%d,1,\"two\nlines\",2", i)
			case i == 2100:
				return fmt.Sprintf("%d,1,\"ab\"c,2", i)
			}
			return narrow(i)
		}), true, "parse error on line 2102, column 11"},
		{"ragged row after the first batch", csvText(narrowHeader, 3000, func(i int) string {
			if i == 1500 {
				return "1500,1,s"
			}
			return narrow(i)
		}), true, "wrong number of fields"},
		{"bad field at row 10, malformed quote at row 2 000", csvText(narrowHeader, 3000, func(i int) string {
			switch i {
			case 10:
				return "10,ten,s,1"
			case 2000:
				return "2000,1,\"ab\"c,2"
			}
			return narrow(i)
		}), true, `CSV row 10 column "x": bad number "ten"`},
	}
	for _, c := range cases {
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

// BenchmarkImportCSV loads the ledger's ingest_score batch — a header
// and 4 096 records of an id and eight DOUBLEs — into an on-disk table,
// replacing it each iteration.
func BenchmarkImportCSV(b *testing.B) {
	const rows, dims = 4096, 8
	var buf bytes.Buffer
	buf.WriteString("i," + strings.Join(DimColumns(dims), ",") + "\n")
	if _, err := synth.WriteCSV(&buf, synth.Config{N: rows, D: dims, Seed: 1}); err != nil {
		b.Fatal(err)
	}
	d, err := Open(Options{Dir: b.TempDir(), Partitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := d.ImportCSV("B", bytes.NewReader(buf.Bytes()), true); err != nil || n != rows {
			b.Fatalf("imported %d rows: %v", n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}
