package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/engine/sqltypes"
)

func testSchema() *sqltypes.Schema {
	return sqltypes.MustSchema(
		sqltypes.Column{Name: "i", Type: sqltypes.TypeBigInt},
		sqltypes.Column{Name: "x", Type: sqltypes.TypeDouble},
		sqltypes.Column{Name: "tag", Type: sqltypes.TypeVarChar},
	)
}

func row(i int64, x float64, tag string) sqltypes.Row {
	return sqltypes.Row{sqltypes.NewBigInt(i), sqltypes.NewDouble(x), sqltypes.NewVarChar(tag)}
}

func collect(t *testing.T, tab *Table) []sqltypes.Row {
	t.Helper()
	var rows []sqltypes.Row
	if err := tab.Scan(func(r sqltypes.Row) error {
		rows = append(rows, r.Clone())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestInsertAndScanModes(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		name := "mem"
		if dir != "" {
			name = "disk"
		}
		t.Run(name, func(t *testing.T) {
			tab, err := NewTable("x", testSchema(), dir, 4)
			if err != nil {
				t.Fatal(err)
			}
			const n = 37
			for i := 0; i < n; i++ {
				if err := tab.Insert(row(int64(i), float64(i)*1.5, fmt.Sprintf("r%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if tab.NumRows() != n {
				t.Fatalf("NumRows = %d", tab.NumRows())
			}
			rows := collect(t, tab)
			if len(rows) != n {
				t.Fatalf("scanned %d rows", len(rows))
			}
			// Round-robin: each partition holds n/4 ± 1 rows.
			for p := 0; p < tab.Partitions(); p++ {
				var c int
				if err := tab.ScanPartition(nil, p, func(sqltypes.Row) error { c++; return nil }); err != nil {
					t.Fatal(err)
				}
				if c < n/4 || c > n/4+1 {
					t.Fatalf("partition %d has %d rows", p, c)
				}
			}
			// Values survive the round trip.
			seen := make(map[int64]sqltypes.Row)
			for _, r := range rows {
				seen[r[0].Int()] = r
			}
			for i := int64(0); i < n; i++ {
				r, ok := seen[i]
				if !ok {
					t.Fatalf("missing row %d", i)
				}
				if r[1].MustFloat() != float64(i)*1.5 || r[2].Str() != fmt.Sprintf("r%d", i) {
					t.Fatalf("row %d corrupted: %v", i, r)
				}
			}
		})
	}
}

func TestNullRoundTrip(t *testing.T) {
	tab, err := NewTable("x", testSchema(), t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(sqltypes.Row{sqltypes.NewBigInt(1), sqltypes.Null, sqltypes.Null}); err != nil {
		t.Fatal(err)
	}
	rows := collect(t, tab)
	if len(rows) != 1 || !rows[0][1].IsNull() || !rows[0][2].IsNull() {
		t.Fatalf("NULL round trip failed: %v", rows)
	}
}

func TestInsertValidation(t *testing.T) {
	tab, err := NewTable("x", testSchema(), "", 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(sqltypes.Row{sqltypes.NewBigInt(1)}); err == nil {
		t.Fatal("arity mismatch must be rejected")
	}
	if err := tab.Insert(sqltypes.Row{sqltypes.NewVarChar("xx"), sqltypes.NewDouble(1), sqltypes.NewVarChar("t")}); err == nil {
		t.Fatal("uncoercible value must be rejected")
	}
	// Coercion: double into bigint column truncates.
	if err := tab.Insert(sqltypes.Row{sqltypes.NewDouble(3.7), sqltypes.NewBigInt(2), sqltypes.NewVarChar("t")}); err != nil {
		t.Fatal(err)
	}
	rows := collect(t, tab)
	if rows[0][0].Int() != 3 || rows[0][1].MustFloat() != 2 {
		t.Fatalf("coercion wrong: %v", rows[0])
	}
}

func TestBulkLoader(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		tab, err := NewTable("bulk", testSchema(), dir, 3)
		if err != nil {
			t.Fatal(err)
		}
		bl, err := tab.NewBulkLoader()
		if err != nil {
			t.Fatal(err)
		}
		const n = 1000
		for i := 0; i < n; i++ {
			if err := bl.Add(row(int64(i), float64(i), "b")); err != nil {
				t.Fatal(err)
			}
		}
		if err := bl.Close(); err != nil {
			t.Fatal(err)
		}
		if tab.NumRows() != n {
			t.Fatalf("NumRows = %d", tab.NumRows())
		}
		if got := len(collect(t, tab)); got != n {
			t.Fatalf("scanned %d", got)
		}
	}
}

func TestTruncateAndDrop(t *testing.T) {
	dir := t.TempDir()
	tab, err := NewTable("x", testSchema(), dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(row(1, 1, "a"), row(2, 2, "b")); err != nil {
		t.Fatal(err)
	}
	if err := tab.Truncate(); err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 0 || len(collect(t, tab)) != 0 {
		t.Fatal("truncate left rows behind")
	}
	if err := tab.Insert(row(3, 3, "c")); err != nil {
		t.Fatal(err)
	}
	if len(collect(t, tab)) != 1 {
		t.Fatal("insert after truncate failed")
	}
	if err := tab.Drop(); err != nil {
		t.Fatal(err)
	}
}

func TestSizeBytes(t *testing.T) {
	tab, err := NewTable("x", testSchema(), t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s0, err := tab.SizeBytes()
	if err != nil || s0 != 0 {
		t.Fatalf("empty size = %d, %v", s0, err)
	}
	if err := tab.Insert(row(1, 1, "hello")); err != nil {
		t.Fatal(err)
	}
	s1, err := tab.SizeBytes()
	if err != nil || s1 <= 0 {
		t.Fatalf("size = %d, %v", s1, err)
	}
}

func TestScanErrorPropagation(t *testing.T) {
	tab, _ := NewTable("x", testSchema(), "", 2)
	if err := tab.Insert(row(1, 1, "a")); err != nil {
		t.Fatal(err)
	}
	sentinel := io.ErrUnexpectedEOF
	if err := tab.Scan(func(sqltypes.Row) error { return sentinel }); err != sentinel {
		t.Fatalf("scan error not propagated: %v", err)
	}
	if err := tab.ScanPartition(nil, 99, func(sqltypes.Row) error { return nil }); err == nil {
		t.Fatal("out-of-range partition must error")
	}
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("x", testSchema(), "", 0); err == nil {
		t.Fatal("zero partitions must be rejected")
	}
	if _, err := NewTable("x", nil, "", 2); err == nil {
		t.Fatal("nil schema must be rejected")
	}
}

func TestConcurrentInsertAndScan(t *testing.T) {
	tab, err := NewTable("x", testSchema(), t.TempDir(), 4)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				if err := tab.Insert(row(int64(g*100+i), 1, "c")); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		go func() {
			var count int
			done <- tab.Scan(func(sqltypes.Row) error { count++; return nil })
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if tab.NumRows() != 200 {
		t.Fatalf("NumRows = %d", tab.NumRows())
	}
}

func TestOpenTableReattach(t *testing.T) {
	dir := t.TempDir()
	t1, err := NewTable("x", testSchema(), dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := t1.Insert(row(int64(i), float64(i), "r")); err != nil {
			t.Fatal(err)
		}
	}
	t2, err := OpenTable("x", testSchema(), dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if t2.NumRows() != 10 {
		t.Fatalf("NumRows = %d after reattach", t2.NumRows())
	}
	if got := len(collect(t, t2)); got != 10 {
		t.Fatalf("scanned %d", got)
	}
	// Appends continue round-robin without clobbering.
	if err := t2.Insert(row(10, 10, "r")); err != nil {
		t.Fatal(err)
	}
	if t2.NumRows() != 11 {
		t.Fatalf("NumRows = %d", t2.NumRows())
	}
	// Errors: memory mode, missing files, bad schema.
	if _, err := OpenTable("x", testSchema(), "", 3); err == nil {
		t.Fatal("OpenTable without dir must fail")
	}
	if _, err := OpenTable("nope", testSchema(), dir, 3); err == nil {
		t.Fatal("missing partitions must fail")
	}
	if _, err := OpenTable("x", nil, dir, 3); err == nil {
		t.Fatal("nil schema must fail")
	}
	if _, err := OpenTable("x", testSchema(), dir, 0); err == nil {
		t.Fatal("zero partitions must fail")
	}
}

func TestCorruptFileDetected(t *testing.T) {
	dir := t.TempDir()
	tab, err := NewTable("x", testSchema(), dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(row(1, 1, "a")); err != nil {
		t.Fatal(err)
	}
	// Corrupt the partition file by appending a bogus tag.
	f, err := os.OpenFile(tab.parts[0].path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	err = tab.Scan(func(sqltypes.Row) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "bad value tag") {
		t.Fatalf("corruption not detected: %v", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad-tag error %v is not ErrCorrupt", err)
	}
}

// TestShortCountDetected is the regression for the silent short-count
// bug: a row-log file truncated exactly at a row boundary used to decode
// cleanly with fewer rows than the partition accounting, and the scan
// reported success on the shortened data.
func TestShortCountDetected(t *testing.T) {
	dir := t.TempDir()
	tab, err := NewTable("x", testSchema(), dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(row(1, 1, "a")); err != nil {
		t.Fatal(err)
	}
	boundary, err := tab.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(row(2, 2, "b")); err != nil {
		t.Fatal(err)
	}
	// Chop the file back to the end of row 1 — a clean row boundary, so
	// decoding alone cannot notice anything wrong.
	if err := os.Truncate(tab.parts[0].path, boundary); err != nil {
		t.Fatal(err)
	}
	err = tab.Scan(func(sqltypes.Row) error { return nil })
	if err == nil {
		t.Fatal("truncated-at-boundary file scanned as if complete")
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short-count error %v is not ErrCorrupt", err)
	}
	// Mid-row truncation is also typed.
	if err := os.Truncate(tab.parts[0].path, boundary-3); err != nil {
		t.Fatal(err)
	}
	err = tab.Scan(func(sqltypes.Row) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-row truncation error %v is not ErrCorrupt", err)
	}
}

// TestVarCharLengthCap: a corrupt length prefix must fail typed and
// fast, not allocate gigabytes and then hit a short read.
func TestVarCharLengthCap(t *testing.T) {
	dir := t.TempDir()
	tab, err := NewTable("x", testSchema(), dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(row(1, 1, "a")); err != nil {
		t.Fatal(err)
	}
	// Append a row whose varchar claims ~4 GiB: bigint, double, then the
	// poisoned length.
	f, err := os.OpenFile(tab.parts[0].path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	buf = append(buf, tagBigInt)
	buf = binary.LittleEndian.AppendUint64(buf, 2)
	buf = append(buf, tagDouble)
	buf = binary.LittleEndian.AppendUint64(buf, 0)
	buf = append(buf, tagVarChar)
	buf = binary.LittleEndian.AppendUint32(buf, 0xFFFF_FFF0)
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	f.Close()
	err = tab.Scan(func(sqltypes.Row) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "codec limit") {
		t.Fatalf("forged varchar length not rejected: %v", err)
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("length-cap error %v is not ErrCorrupt", err)
	}
	// The encoder refuses to produce such a row in the first place.
	huge := sqltypes.Row{sqltypes.NewBigInt(1), sqltypes.NewDouble(1), sqltypes.NewVarChar(string(make([]byte, maxVarCharLen+1)))}
	if _, err := encodeRow(nil, huge); err == nil {
		t.Fatal("encodeRow accepted an over-limit varchar")
	}
}

// TestOpenTableRejectsTruncatedFile: attach must fail loudly on a file
// that is torn mid-row rather than attaching with a short count.
func TestOpenTableRejectsTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	t1, err := NewTable("x", testSchema(), dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Insert(row(1, 1, "abc"), row(2, 2, "def")); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(t1.parts[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(t1.parts[0].path, st.Size()-2); err != nil {
		t.Fatal(err)
	}
	_, err = OpenTable("x", testSchema(), dir, 1)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("attach to torn file: err = %v, want ErrCorrupt", err)
	}
}

// TestValidateMatchesCoerce: validate's copy-through of a NULL or a
// value already of its column's type stores what sqltypes.Coerce
// returns, and every other pair — error cases included — still goes
// through Coerce, over every value type × column type.
func TestValidateMatchesCoerce(t *testing.T) {
	values := []sqltypes.Value{
		sqltypes.Null,
		sqltypes.NewDouble(0), sqltypes.NewDouble(math.Copysign(0, -1)), sqltypes.NewDouble(1.5),
		sqltypes.NewDouble(-3), sqltypes.NewDouble(math.NaN()), sqltypes.NewDouble(math.Inf(1)), sqltypes.NewDouble(-1e300),
		sqltypes.NewBigInt(0), sqltypes.NewBigInt(-7), sqltypes.NewBigInt(math.MaxInt64), sqltypes.NewBigInt(math.MinInt64),
		sqltypes.NewVarChar(""), sqltypes.NewVarChar("abc"), sqltypes.NewVarChar(" 42 "), sqltypes.NewVarChar("1.5"),
		sqltypes.NewVarChar("-1e3"), sqltypes.NewVarChar("x9"), sqltypes.NewVarChar("9223372036854775808"),
		sqltypes.NewBool(true), sqltypes.NewBool(false),
	}
	same := func(a, b sqltypes.Value) bool {
		if a.Type() != b.Type() {
			return false
		}
		switch a.Type() {
		case sqltypes.TypeDouble:
			return math.Float64bits(a.MustFloat()) == math.Float64bits(b.MustFloat())
		case sqltypes.TypeBigInt:
			return a.Int() == b.Int()
		case sqltypes.TypeVarChar:
			return a.Str() == b.Str()
		case sqltypes.TypeBool:
			return a.Bool() == b.Bool()
		}
		return true
	}
	colTypes := []sqltypes.Type{sqltypes.TypeDouble, sqltypes.TypeBigInt, sqltypes.TypeVarChar, sqltypes.TypeBool, sqltypes.TypeNull}
	for _, ct := range colTypes {
		tab := &Table{name: "v", schema: sqltypes.MustSchema(sqltypes.Column{Name: "c", Type: ct})}
		for _, v := range values {
			want, wantErr := sqltypes.Coerce(v, ct)
			dst := make(sqltypes.Row, 1)
			err := tab.validate(dst, sqltypes.Row{v})
			switch {
			case (err == nil) != (wantErr == nil):
				t.Errorf("%v into %v: validate error %v, Coerce error %v", v, ct, err, wantErr)
			case err != nil && !strings.Contains(err.Error(), wantErr.Error()):
				t.Errorf("%v into %v: validate error %q does not carry Coerce's %q", v, ct, err, wantErr)
			case err == nil && !same(dst[0], want):
				t.Errorf("%v into %v: validate stored %v (%v), Coerce gives %v (%v)", v, ct, dst[0], dst[0].Type(), want, want.Type())
			}
		}
	}
}
