package storage

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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

// FuzzDecodeRow drives the row decoder with arbitrary bytes at arities
// 1–8: it must never panic, never allocate a VARCHAR past the cap,
// type every failure as ErrCorrupt, keep its byte count within the
// input, and whatever it decodes must survive encode→decode→encode
// unchanged.
func FuzzDecodeRow(f *testing.F) {
	seed := encodeAll(f, []sqltypes.Row{
		row(1, 1.5, "seed"),
		{sqltypes.Null, sqltypes.Null, sqltypes.Null},
		row(-1, -0.0, ""),
	})
	f.Add(seed, uint8(3))
	f.Add(seed, uint8(1))
	f.Add(seed[:len(seed)-2], uint8(3))
	f.Add([]byte{tagVarChar, 0xff, 0xff, 0xff, 0xff}, uint8(1))      // over-cap length
	f.Add([]byte{tagVarChar, 0x00, 0x00, 0x00, 0x04, 'x'}, uint8(1)) // 64 MiB claimed, 1 byte there
	f.Add([]byte{tagDouble, 1, 2, 3}, uint8(2))
	f.Add([]byte{9}, uint8(8))
	f.Add([]byte{}, uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, a uint8) {
		arity := int(a)%8 + 1
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
		b.Run(c.name, func(b *testing.B) {
			const rows = 8192
			var enc []byte
			for i := 0; i < rows; i++ {
				enc, _ = encodeRow(enc, c.row)
			}
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
				var err error
				if row, err = rr.next(row); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
