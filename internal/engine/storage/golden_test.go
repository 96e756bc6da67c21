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
// order, whose segment the SEG1 writer derived in 4096-row chunks. 4500
// rows make one full 4096-row chunk and a partial one; NULLs fall in both
// numeric columns, and the BIGINT values outgrow float64's exact range.
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

// TestParentWrittenTable pins the on-disk format across the decoder
// rewrite: partition files written by the parent commit attach, count,
// scan and rebuild segments identically, and re-encoding the decoded
// rows reproduces the files byte for byte.
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
	for p := range files {
		// Insert places row i in partition i mod 2, in order.
		i := p
		var reenc []byte
		st, err := tab.ScanPartitionStats(context.Background(), p, func(r sqltypes.Row) error {
			if i >= len(want) || !sameRow(r, want[i]) {
				t.Fatalf("partition %d: decoded %v, want row %d", p, r, i)
			}
			i += len(files)
			var err error
			reenc, err = encodeRow(reenc, r)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Bytes != int64(len(images[p])) {
			t.Fatalf("partition %d: scan decoded %d bytes, file has %d", p, st.Bytes, len(images[p]))
		}
		if !bytes.Equal(reenc, images[p]) {
			t.Fatalf("partition %d: re-encoded rows differ from the parent-written file", p)
		}
	}
	if err := tab.EnsureSegments(); err != nil {
		t.Fatal(err)
	}
	blocksMatchRows(t, tab, []int{0, 1})
	// The segments the rebuild derives are pinned too: these are the
	// bytes the chunk-directory writer derives from the same files.
	for p, want := range []string{
		"37909e9e92b971ce749b087a9b3453053a2681a930edfde00f3117be746abdf3",
		"da9909b2e6474c5a211f94fe27b6b3dfc2bf491419e4743ac7ddf8c19c3ac6c4",
	} {
		seg, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("golden.p%03d.seg", p)))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(seg)); got != want {
			t.Fatalf("partition %d: rebuilt segment hashes to %s, want %s", p, got, want)
		}
	}
}

// TestParentWrittenSegment: a segment of SEG1 chunks, the layout before
// chunks carried a directory (here the 4096-row chunks an earlier writer
// derived), is never adopted and never misread. Read directly it fails
// ErrCorrupt before delivering a block; a table reattached over it
// refuses block scans until its first derivation, which replaces the
// file with 2048-row chunks whose blocks equal the row log bit for bit.
func TestParentWrittenSegment(t *testing.T) {
	img, err := os.ReadFile(filepath.Join("testdata", "seg4096.p000.seg"))
	if err != nil {
		t.Fatal(err)
	}
	if string(img[:4]) != "SEG1" {
		t.Fatalf("testdata segment starts %q, want a SEG1 chunk", img[:4])
	}
	if blocks, err := readSegImage(img, testSchema(), []int{0, 1, 2}); !errors.Is(err, ErrCorrupt) || len(blocks) != 0 {
		t.Fatalf("reading the SEG1 image: %d blocks, err %v; want none and ErrCorrupt", len(blocks), err)
	}
	dir := t.TempDir()
	tab, err := NewTable("seg4096", testSchema(), dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Insert(parentSegmentRows()...); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg4096.p000.seg")
	if err := os.WriteFile(seg, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if tab, err = OpenTable("seg4096", testSchema(), dir, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.ScanPartitionBlocks(context.Background(), 0, []int{1}, discardBlock); !errors.Is(err, ErrSegmentStale) {
		t.Fatalf("block scan before the first derivation: err = %v, want ErrSegmentStale", err)
	}
	if err := tab.EnsureSegments(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[:4]) != segMagic || bytes.Contains(got, []byte("SEG1")) {
		t.Fatalf("the derivation left SEG1 bytes behind (file starts %q)", got[:4])
	}
	if si := tab.Segments()[0]; si.Rows != int64(len(parentSegmentRows())) || si.Bytes != int64(len(got)) {
		t.Fatalf("segment state %+v after the derivation", si)
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
}
