package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/engine/sqltypes"
)

// decodeAll runs a rowReader over r to the end, returning cloned rows,
// the reader's byte count after each row, and the terminal error
// (nil for a clean io.EOF).
func decodeAll(r io.Reader, arity int) (rows []sqltypes.Row, bytesAfter []int64, err error) {
	rr := newRowReader(r, arity)
	var row sqltypes.Row
	for {
		row, err = rr.next(row)
		if err == io.EOF {
			return rows, bytesAfter, nil
		}
		if err != nil {
			return rows, append(bytesAfter, rr.bytes()), err
		}
		rows = append(rows, row.Clone())
		bytesAfter = append(bytesAfter, rr.bytes())
	}
}

func encodeAll(t testing.TB, rows []sqltypes.Row) []byte {
	t.Helper()
	var buf []byte
	for _, r := range rows {
		var err error
		if buf, err = encodeRow(buf, r); err != nil {
			t.Fatal(err)
		}
	}
	return buf
}

// TestRowReaderAcrossReadBoundaries feeds the same streams through
// readers that return one byte, half of the request, or everything per
// Read, and through rows placed so that a value, a VARCHAR header or a
// VARCHAR body straddles the 64 KB buffer: rows and byte counts must
// match the whole-buffer decode exactly.
func TestRowReaderAcrossReadBoundaries(t *testing.T) {
	long := strings.Repeat("0123456789abcdef", (2*rowBufSize+4096)/16) // > 2 buffers
	mixed := func(n int) []sqltypes.Row {
		var rows []sqltypes.Row
		for i := 0; i < n; i++ {
			r := row(int64(i), float64(i)/3, strings.Repeat("v", i%40))
			if i%5 == 0 {
				r[i%3] = sqltypes.Null
			}
			rows = append(rows, r)
		}
		return rows
	}
	// pad is a first row whose VARCHAR sizes the prefix so that the next
	// row's encoding starts `back` bytes before the buffer boundary.
	pad := func(back int) sqltypes.Row {
		const fixed = 2*maxFixedLen + 5
		return row(0, 0, strings.Repeat("p", rowBufSize-back-fixed))
	}
	cases := []struct {
		name string
		rows []sqltypes.Row
	}{
		{"mixed", mixed(9000)}, // ≈ 4 buffers of short rows
		{"long varchar", []sqltypes.Row{row(1, 1, "a"), row(2, 2, long), row(3, 3, "z")}},
		{"long varchar last", []sqltypes.Row{row(1, 1, long)}},
		{"exactly one buffer", []sqltypes.Row{pad(0)}},
	}
	// A following row straddles the boundary at every offset inside it:
	// mid-tag, mid-bigint, mid-double, mid-length-prefix, mid-string.
	for back := 0; back <= 2*maxFixedLen+5+8; back++ {
		cases = append(cases, struct {
			name string
			rows []sqltypes.Row
		}{fmt.Sprintf("straddle-%d", back), []sqltypes.Row{pad(back), row(7, 7.5, "straddle"), row(8, 8.5, "")}})
	}
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"half", iotest.HalfReader},
		{"one-byte", iotest.OneByteReader},
		{"data+EOF", iotest.DataErrReader},
	}
	for _, tc := range cases {
		enc := encodeAll(t, tc.rows)
		var wantBytes []int64
		var n int64
		for _, r := range tc.rows {
			one, _ := encodeRow(nil, r)
			n += int64(len(one))
			wantBytes = append(wantBytes, n)
		}
		for _, rd := range readers {
			if rd.name == "one-byte" && len(enc) > 4*rowBufSize {
				continue // same code path as "half", just slower
			}
			rows, gotBytes, err := decodeAll(rd.wrap(bytes.NewReader(enc)), 3)
			if err != nil {
				t.Fatalf("%s/%s: %v", tc.name, rd.name, err)
			}
			// The float mode steps over the VARCHAR (or stops at it) and
			// agrees with next wherever the row is cut.
			for _, mask := range []uint64{0b011, 0b001, 0b111} {
				want, nslots := request(3, mask, mask == 0b001)
				checkFloatDecode(t, enc, 3, want, nslots, rd.wrap)
			}
			if len(rows) != len(tc.rows) {
				t.Fatalf("%s/%s: decoded %d rows, want %d", tc.name, rd.name, len(rows), len(tc.rows))
			}
			for i := range rows {
				if !sameRow(rows[i], tc.rows[i]) {
					t.Fatalf("%s/%s: row %d differs", tc.name, rd.name, i)
				}
				if gotBytes[i] != wantBytes[i] {
					t.Fatalf("%s/%s: bytes after row %d = %d, want %d", tc.name, rd.name, i, gotBytes[i], wantBytes[i])
				}
			}
		}
	}
}

// TestRowReaderFailures pins the error contract: io.EOF only on a row
// boundary, everything else ErrCorrupt, and bytes never ahead of what
// was decoded.
func TestRowReaderFailures(t *testing.T) {
	good := encodeAll(t, []sqltypes.Row{row(1, 1.5, "abc"), row(2, 2.5, "defg")})
	first, _ := encodeRow(nil, row(1, 1.5, "abc"))
	for cut := 0; cut <= len(good); cut++ {
		rows, bytesAfter, err := decodeAll(iotest.HalfReader(bytes.NewReader(good[:cut])), 3)
		onBoundary := cut == 0 || cut == len(first) || cut == len(good)
		if onBoundary != (err == nil) {
			t.Fatalf("cut %d: err = %v, want clean end: %v", cut, err, onBoundary)
		}
		if err != nil && (!errors.Is(err, ErrCorrupt) || !errors.Is(err, io.ErrUnexpectedEOF)) {
			t.Fatalf("cut %d: error %v must wrap ErrCorrupt and io.ErrUnexpectedEOF", cut, err)
		}
		want := 0
		switch {
		case cut == len(good):
			want = 2
		case cut >= len(first):
			want = 1
		}
		if len(rows) != want {
			t.Fatalf("cut %d: decoded %d rows, want %d", cut, len(rows), want)
		}
		if n := len(bytesAfter); n > 0 && bytesAfter[n-1] > int64(cut) {
			t.Fatalf("cut %d: bytes = %d runs ahead of the stream", cut, bytesAfter[n-1])
		}
	}
	// A read error surfaces typed, with the cause kept inspectable.
	boom := errors.New("boom")
	_, _, err := decodeAll(io.MultiReader(bytes.NewReader(good[:5]), iotest.ErrReader(boom)), 3)
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, boom) {
		t.Fatalf("read error surfaced as %v", err)
	}
	// Bad tag and over-cap VARCHAR length.
	_, _, err = decodeAll(bytes.NewReader([]byte{tagNull, 0x7f}), 2)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "bad value tag 127") {
		t.Fatalf("bad tag surfaced as %v", err)
	}
	_, _, err = decodeAll(bytes.NewReader([]byte{tagVarChar, 0x01, 0x00, 0x00, 0x04, 'x'}), 1)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "codec limit") {
		t.Fatalf("over-cap varchar surfaced as %v", err)
	}
	// A reader that never makes progress must not spin forever.
	_, _, err = decodeAll(stuckReader{}, 1)
	if !errors.Is(err, ErrCorrupt) || !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("stuck reader surfaced as %v", err)
	}
}

type stuckReader struct{}

func (stuckReader) Read([]byte) (int, error) { return 0, nil }

// decodeAllFloats is decodeAll in the float decode mode with the
// request want (column -> slot of x, -1 unrequested; nslots slots): a
// row nextFloats takes is recorded as its floats, with a nil row; a row
// it declines goes through next and is recorded as the boxed row, with
// nil floats.
func decodeAllFloats(r io.Reader, arity int, want []int, nslots int) (rows []sqltypes.Row, floats [][]float64, bytesAfter []int64, err error) {
	rr := newRowReader(r, arity)
	x := make([]float64, nslots)
	var row sqltypes.Row
	for {
		if rr.nextFloats(want, x) {
			rows = append(rows, nil)
			floats = append(floats, append(make([]float64, 0, nslots), x...)) // non-nil, also when empty
			bytesAfter = append(bytesAfter, rr.bytes())
			continue
		}
		row, err = rr.next(row)
		if err == io.EOF {
			return rows, floats, bytesAfter, nil
		}
		if err != nil {
			return rows, floats, append(bytesAfter, rr.bytes()), err
		}
		rows = append(rows, row.Clone())
		floats = append(floats, nil)
		bytesAfter = append(bytesAfter, rr.bytes())
	}
}

// request builds a float-mode request from a column bit mask: slots in
// column order, or in reverse column order when reversed.
func request(arity int, mask uint64, reversed bool) (want []int, nslots int) {
	want = make([]int, arity)
	for i := range want {
		want[i] = -1
		if mask>>i&1 == 1 {
			nslots++
		}
	}
	slot := 0
	for k := 0; k < arity; k++ {
		i := k
		if reversed {
			i = arity - 1 - k
		}
		if mask>>i&1 == 1 {
			want[i] = slot
			slot++
		}
	}
	return want, nslots
}

// checkFloatDecode is the differential check of the float decode mode
// against next over the same stream: every row is either declined —
// and then decoded by next exactly as the boxed decode has it — or
// delivered as the boxed row's requested cells, bit for bit, which must
// be numbers; byte counts and the terminal error match exactly.
func checkFloatDecode(t *testing.T, data []byte, arity int, want []int, nslots int, wrap func(io.Reader) io.Reader) {
	t.Helper()
	boxed, boxedBytes, boxedErr := decodeAll(wrap(bytes.NewReader(data)), arity)
	rows, floats, gotBytes, err := decodeAllFloats(wrap(bytes.NewReader(data)), arity, want, nslots)
	if (err == nil) != (boxedErr == nil) || (err != nil && (err.Error() != boxedErr.Error() || errors.Is(err, ErrCorrupt) != errors.Is(boxedErr, ErrCorrupt))) {
		t.Fatalf("want %v: float mode ended with %v, next with %v", want, err, boxedErr)
	}
	if len(rows) != len(boxed) || !slices.Equal(gotBytes, boxedBytes) {
		t.Fatalf("want %v: float mode decoded %d rows (bytes %v), next %d (bytes %v)", want, len(rows), gotBytes, len(boxed), boxedBytes)
	}
	for r := range rows {
		if floats[r] == nil {
			if !sameRow(rows[r], boxed[r]) {
				t.Fatalf("want %v: declined row %d decodes to %v, next to %v", want, r, rows[r], boxed[r])
			}
			continue
		}
		for c, slot := range want {
			if slot < 0 {
				continue
			}
			v := boxed[r][c]
			f, ok := v.Float()
			if typ := v.Type(); typ != sqltypes.TypeDouble && typ != sqltypes.TypeBigInt || !ok {
				t.Fatalf("want %v: row %d delivered as floats although column %d is %v", want, r, c, v)
			}
			if math.Float64bits(floats[r][slot]) != math.Float64bits(f) {
				t.Fatalf("want %v: row %d column %d is %v as a float, %v boxed", want, r, c, floats[r][slot], f)
			}
		}
	}
}

// FuzzDecodeRow drives the row decoder with arbitrary bytes at arities
// 1–8: it must never panic, never allocate a VARCHAR past the cap,
// type every failure as ErrCorrupt, keep its byte count within the
// input, and whatever it decodes must survive encode→decode→encode
// unchanged. The float decode mode must agree with it (checkFloatDecode)
// for the requested columns mask, its complement with the slots
// reversed, and every column.
func FuzzDecodeRow(f *testing.F) {
	seed := encodeAll(f, []sqltypes.Row{
		row(1, 1.5, "seed"),
		{sqltypes.Null, sqltypes.Null, sqltypes.Null},
		row(-1, -0.0, ""),
	})
	f.Add(seed, uint8(3), uint16(0b011))
	f.Add(seed, uint8(1), uint16(0b001))
	f.Add(seed[:len(seed)-2], uint8(3), uint16(0b111))
	f.Add([]byte{tagVarChar, 0xff, 0xff, 0xff, 0xff}, uint8(1), uint16(0))      // over-cap length
	f.Add([]byte{tagVarChar, 0x00, 0x00, 0x00, 0x04, 'x'}, uint8(1), uint16(0)) // 64 MiB claimed, 1 byte there
	f.Add([]byte{tagDouble, 1, 2, 3}, uint8(2), uint16(0b01))
	f.Add([]byte{9}, uint8(8), uint16(0xff))
	f.Add([]byte{}, uint8(4), uint16(0b1010))
	// The boxed/float boundary, each case in a requested and an
	// unrequested column: NULL, VARCHAR, BIGINT, and a cell cut short.
	mixed := encodeAll(f, []sqltypes.Row{
		row(7, 2.5, "label"),
		{sqltypes.NewBigInt(-3), sqltypes.Null, sqltypes.NewVarChar("")},
		{sqltypes.Null, sqltypes.NewDouble(1e300), sqltypes.Null},
	})
	for _, mask := range []uint16{0b001, 0b010, 0b011, 0b100, 0b110} {
		f.Add(mixed, uint8(2), mask)
		f.Add(mixed[:len(mixed)-4], uint8(2), mask) // a DOUBLE cut short
	}
	f.Add(mixed[:len(encodeAll(f, []sqltypes.Row{row(7, 2.5, "label")}))-3], uint8(2), uint16(0b011)) // VARCHAR cut short
	f.Fuzz(func(t *testing.T, data []byte, a uint8, mask uint16) {
		arity := int(a)%8 + 1
		for _, req := range []struct {
			mask     uint64
			reversed bool
		}{{uint64(mask), false}, {^uint64(mask), true}, {^uint64(0), false}} {
			want, nslots := request(arity, req.mask, req.reversed)
			checkFloatDecode(t, data, arity, want, nslots, iotest.HalfReader)
		}
		rows, bytesAfter, err := decodeAll(iotest.HalfReader(bytes.NewReader(data)), arity)
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("untyped decode error: %v", err)
		}
		for i, n := range bytesAfter {
			if n > int64(len(data)) || (i > 0 && n < bytesAfter[i-1]) {
				t.Fatalf("byte counts %v not monotone within the %d-byte input", bytesAfter, len(data))
			}
		}
		enc := encodeAll(t, rows)
		if err == nil && !bytes.Equal(enc, data) {
			t.Fatalf("clean decode of %d bytes re-encodes to %d different bytes", len(data), len(enc))
		}
		if !bytes.HasPrefix(data, enc) {
			t.Fatalf("decoded rows re-encode to bytes that are not a prefix of the input")
		}
		again, _, err := decodeAll(bytes.NewReader(enc), arity)
		if err != nil || len(again) != len(rows) {
			t.Fatalf("re-decode: %d rows, err %v; want %d rows", len(again), err, len(rows))
		}
		if !bytes.Equal(encodeAll(t, again), enc) {
			t.Fatalf("encode→decode→encode is not stable")
		}
	})
}

// BenchmarkRowDecode measures the row-log decoder alone, from memory:
// MB/s of encoded bytes and (from ns/op) ns per row.
func BenchmarkRowDecode(b *testing.B) {
	doubles := func(d int) sqltypes.Row {
		r := make(sqltypes.Row, d)
		for i := range r {
			r[i] = sqltypes.NewDouble(float64(i) * 1.25)
		}
		return r
	}
	mixed := sqltypes.Row{
		sqltypes.NewBigInt(42), sqltypes.NewDouble(2.5), sqltypes.Null,
		sqltypes.NewVarChar("a-typical-tag"), sqltypes.NewDouble(-1), sqltypes.Null,
	}
	for _, c := range []struct {
		name string
		row  sqltypes.Row
	}{
		{"d=8", doubles(8)},
		{"d=32", doubles(32)},
		{"mixed", mixed},
	} {
		const rows = 8192
		var enc []byte
		for i := 0; i < rows; i++ {
			enc, _ = encodeRow(enc, c.row)
		}
		// The float mode requests every column that is a number.
		want := make([]int, len(c.row))
		var x []float64
		for i, v := range c.row {
			want[i] = -1
			if _, ok := v.Float(); ok && v.Type() != sqltypes.TypeVarChar {
				want[i] = len(x)
				x = append(x, 0)
			}
		}
		for _, mode := range []string{"boxed", "float"} {
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				src := bytes.NewReader(enc)
				var row sqltypes.Row
				b.SetBytes(int64(len(enc) / rows))
				b.ReportAllocs()
				b.ResetTimer()
				var rr *rowReader
				for i := 0; i < b.N; i++ {
					if i%rows == 0 {
						src.Reset(enc)
						rr = newRowReader(src, len(c.row))
					}
					if mode == "float" && rr.nextFloats(want, x) {
						continue
					}
					var err error
					if row, err = rr.next(row); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
