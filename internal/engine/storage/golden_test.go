package storage

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine/sqltypes"
)

// goldenRows is the content of testdata/golden.p00{0,1}.dat: a table
// "golden" over testSchema with two partitions, written row by row
// through Table.Insert by the commit before the slab decoder replaced
// the bufio row reader. The files are long enough (> 64 KB each) that
// rows straddle the reader's buffer, and cover every tag, NULL in every
// column, the float specials, and empty / multi-byte / long VARCHARs.
func goldenRows() []sqltypes.Row {
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.MaxFloat64, math.SmallestNonzeroFloat64, -1.5}
	tags := []string{"", "a", "héllo wörld", "日本語", strings.Repeat("long-", 12)}
	var rows []sqltypes.Row
	for i := 0; i < 4000; i++ {
		r := row(int64(i)*1_000_003-7, float64(i)*0.25-100, tags[i%len(tags)])
		switch {
		case i%11 == 0:
			r[0] = sqltypes.Null
		case i%13 == 0:
			r[1] = sqltypes.Null
		case i%17 == 0:
			r[2] = sqltypes.Null
		case i%19 == 0:
			r[0], r[1], r[2] = sqltypes.Null, sqltypes.Null, sqltypes.Null
		case i%23 == 0:
			r[1] = sqltypes.NewDouble(specials[(i/23)%len(specials)])
		case i%29 == 0:
			r[0] = sqltypes.NewBigInt(math.MinInt64 + int64(i))
		}
		rows = append(rows, r)
	}
	return rows
}

// parentSegmentRows is the content of testdata/seg4096.p000.seg: one
// partition of a table "seg4096" over testSchema, inserted in this
// order, whose SEG2 segment the layout that kept every row in the row
// log derived as a cache, in 2048-row chunks. NULLs fall in every
// column, and the BIGINT values outgrow float64's exact range.
func parentSegmentRows() []sqltypes.Row {
	rows := make([]sqltypes.Row, 4500)
	for i := range rows {
		rows[i] = row(int64(i)*1_000_000_007-(1<<60), float64(i)*0.375-800, "s")
		switch {
		case i%9 == 0:
			rows[i][0] = sqltypes.Null
		case i%10 == 0:
			rows[i][1] = sqltypes.Null
		case i%21 == 0:
			rows[i][2] = sqltypes.Null
		}
	}
	return rows
}

// sameValue compares two values bit for bit (NaN equals NaN, 0 differs
// from -0).
func sameValue(a, b sqltypes.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Type() {
	case sqltypes.TypeDouble:
		fa, _ := a.Float()
		fb, _ := b.Float()
		return math.Float64bits(fa) == math.Float64bits(fb)
	case sqltypes.TypeBigInt:
		return a.Int() == b.Int()
	case sqltypes.TypeVarChar:
		return a.Str() == b.Str()
	}
	return true
}

func sameRow(a, b sqltypes.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestParentWrittenTable pins the on-disk format: partition files
// written before any row was sealed — row logs without a tail header —
// attach, count and scan identically, and re-encoding the decoded rows
// reproduces the files byte for byte. EnsureSegments then seals every
// row into chunks whose bytes are pinned, and the rows read back from
// them, boxed, as floats and as blocks, are the same, before and after
// a reattach: NULL in every column, the float specials, the VARCHARs.
// (Before the seal the rows are read boxed and as floats: a log is read
// as rows.)
func TestParentWrittenTable(t *testing.T) {
	dir := t.TempDir()
	files := []string{"golden.p000.dat", "golden.p001.dat"}
	images := make([][]byte, len(files))
	for p, name := range files {
		img, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		if len(img) <= rowBufSize {
			t.Fatalf("%s is %d bytes: too short to straddle the %d-byte read buffer", name, len(img), rowBufSize)
		}
		images[p] = img
		if err := os.WriteFile(filepath.Join(dir, name), img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := goldenRows()
	tab, err := OpenTable("golden", testSchema(), dir, len(files))
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != int64(len(want)) {
		t.Fatalf("attached %d rows, want %d", tab.NumRows(), len(want))
	}
	readBack := func(tab *Table, what string, sealed bool) {
		t.Helper()
		for p := range files {
			// Insert places row i in partition i mod 2, in order.
			i := p
			var reenc []byte
			st, err := tab.ScanPartitionStats(context.Background(), p, func(r sqltypes.Row) error {
				if i >= len(want) || !sameRow(r, want[i]) {
					t.Fatalf("%s: partition %d: decoded %v, want row %d", what, p, r, i)
				}
				i += len(files)
				var err error
				reenc, err = encodeRow(reenc, r)
				return err
			})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if !sealed && st.Bytes != int64(len(images[p])) {
				t.Fatalf("%s: partition %d: scan decoded %d bytes, file has %d", what, p, st.Bytes, len(images[p]))
			}
			if !bytes.Equal(reenc, images[p]) {
				t.Fatalf("%s: partition %d: re-encoded rows differ from the parent-written file", what, p)
			}
		}
		if sealed {
			blocksMatchRows(t, tab, []int{0, 1})
		}
		floatsMatchRows(t, tab, []int{1, 0})
		floatsMatchRows(t, tab, []int{2, 1})
	}
	readBack(tab, "attached", false)
	if err := tab.EnsureSegments(); err != nil {
		t.Fatal(err)
	}
	readBack(tab, "sealed", true)
	for _, si := range tab.Segments() {
		if si.Rows != int64(len(want)/len(files)) || si.TailRows != 0 {
			t.Fatalf("sealed partition %+v, want %d rows in chunks and none in the log", si, len(want)/len(files))
		}
	}
	// The chunks the seal writes are pinned too.
	for p, want := range []string{
		"739ed411aa2e19f161ab69da7705167926487e3f53ab961d093696c64db97db5",
		"608462a8d9465d315237f5c35bb40fd6f22a2ec285b2f99ac647c18cd7538103",
	} {
		seg, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("golden.p%03d.seg", p)))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(seg)); got != want {
			t.Fatalf("partition %d: sealed chunks hash to %s, want %s", p, got, want)
		}
	}
	re, err := OpenTable("golden", testSchema(), dir, len(files))
	if err != nil {
		t.Fatal(err)
	}
	readBack(re, "reattached", true)
}

// parentLog writes rows as the row log the layout without sealed
// chunks wrote: the encoded rows, no tail header.
func parentLog(t *testing.T, path string, rows []sqltypes.Row) {
	t.Helper()
	var img []byte
	for _, r := range rows {
		var err error
		if img, err = encodeRow(img, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestParentWrittenSegment: a directory of the layout that kept every
// row in the row log, with the SEG2 cache it derived beside it, opens
// with every row in the log and the cache discarded — never misread:
// read directly it fails ErrCorrupt before delivering a block. Sealed
// through EnsureSegments, the rows come back in 2048-row chunks whose
// blocks and rows equal the log's bit for bit, a BIGINT beyond ±2⁵³
// exact on the boxed path.
func TestParentWrittenSegment(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "seg4096.p000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if string(img[:4]) != "SEG2" {
		t.Fatalf("testdata segment starts %q, want a SEG2 chunk", img[:4])
	}
	if blocks, err := readSegImage(img, testSchema(), []int{0, 1, 2}); !errors.Is(err, ErrCorrupt) || len(blocks) != 0 {
		t.Fatalf("reading the SEG2 image: %d blocks, err %v; want none and ErrCorrupt", len(blocks), err)
	}
	dir := t.TempDir()
	rows := parentSegmentRows()
	parentLog(t, filepath.Join(dir, "seg4096.p000.dat"), rows)
	seg := filepath.Join(dir, "seg4096.p000.seg")
	if err := os.WriteFile(seg, img, 0o644); err != nil {
		t.Fatal(err)
	}
	tab, err := OpenTable("seg4096", testSchema(), dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(seg); !os.IsNotExist(err) {
		t.Fatalf("the SEG2 cache survived the attach: %v", err)
	}
	if si := tab.Segments()[0]; si.Rows != 0 || si.Bytes != 0 || si.TailRows != int64(len(rows)) {
		t.Fatalf("attached partition %+v, want every row in the log", si)
	}
	got, _, err := rowScan(context.Background(), tab, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(got, rows, sameRow) {
		t.Fatal("the attached log reads back other rows")
	}
	if err := tab.EnsureSegments(); err != nil {
		t.Fatal(err)
	}
	sealed, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if string(sealed[:4]) != segMagic || bytes.Contains(sealed, []byte("SEG2")) {
		t.Fatalf("the seal left SEG2 bytes behind (file starts %q)", sealed[:4])
	}
	if si := tab.Segments()[0]; si.Rows != int64(len(rows)) || si.Bytes != int64(len(sealed)) || si.TailRows != 0 {
		t.Fatalf("segment state %+v after the seal", si)
	}
	var chunks []int
	if _, err := tab.ScanPartitionBlocks(context.Background(), 0, []int{1}, func(b *Block) error {
		chunks = append(chunks, b.Rows)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(chunks, []int{2048, 2048, 404}) {
		t.Fatalf("blocks of %v rows, want chunks [2048 2048 404]", chunks)
	}
	blocksMatchRows(t, tab, []int{0, 1})
	blocksMatchRows(t, tab, []int{2, 1, 0})
	for _, tab := range []*Table{tab, reopen(t, tab)} {
		got, _, err := rowScan(context.Background(), tab, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.EqualFunc(got, rows, sameRow) {
			t.Fatal("the sealed rows read back other rows")
		}
		if v := got[1][0]; v.Type() != sqltypes.TypeBigInt || exactFloat(v.Int()) || v.Int() != rows[1][0].Int() {
			t.Fatalf("row 1's BIGINT came back %v, want %d exactly", v, rows[1][0].Int())
		}
	}
}

// reopen attaches a second handle to tab's directory.
func reopen(t *testing.T, tab *Table) *Table {
	t.Helper()
	re, err := OpenTable(tab.name, tab.schema, tab.dir, tab.Partitions())
	if err != nil {
		t.Fatal(err)
	}
	return re
}
