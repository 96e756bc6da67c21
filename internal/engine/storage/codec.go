// Package storage implements the engine's table storage: horizontally
// partitioned tables whose partitions live either in on-disk files
// (re-read on every scan, like the paper's uncached table scans) or in
// memory (for model tables and tests).
//
// The partition count models Teradata's parallel processing threads:
// the paper's system had 20, each owning 1/20th of X; the executor
// scans them with up to one worker per partition, one per ChunkRows
// rows read.
package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"

	"repro/internal/engine/sqltypes"
)

// ErrCorrupt is the typed error every decode-path failure wraps — a
// truncated row, a bad value tag, an implausible varchar length, a
// sealed chunk that fails its header checks, or a partition file whose
// decoded row count disagrees with the table's accounting. Callers
// classify with errors.Is instead of string matching.
var ErrCorrupt = errors.New("storage: corrupt data")

// maxVarCharLen caps a single decoded VARCHAR payload. A corrupt or
// forged u32 length prefix would otherwise drive an allocation of up to
// 4 GiB before the short read is even noticed; nothing the engine
// writes approaches this.
const maxVarCharLen = 1 << 26 // 64 MiB

// corruptf builds an ErrCorrupt-wrapped error. Extra %w verbs in format
// keep any underlying I/O error inspectable too.
func corruptf(format string, args ...any) error {
	args = append(args, ErrCorrupt)
	return fmt.Errorf(format+": %w", args...)
}

// Row codec: every value is a 1-byte type tag followed by its payload.
// DOUBLE and BIGINT are 8 bytes little-endian; VARCHAR is a u32 length
// plus bytes; NULL has no payload. A row is the concatenation of its
// column values — the schema supplies arity, so no row header is needed.
const (
	tagNull    byte = 0
	tagDouble  byte = 1
	tagBigInt  byte = 2
	tagVarChar byte = 3
)

// encodeRow appends the binary encoding of row to buf and returns it.
func encodeRow(buf []byte, row sqltypes.Row) ([]byte, error) {
	for _, v := range row {
		switch v.Type() {
		case sqltypes.TypeNull:
			buf = append(buf, tagNull)
		case sqltypes.TypeDouble:
			f, _ := v.Float()
			buf = append(buf, tagDouble)
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
		case sqltypes.TypeBigInt:
			buf = append(buf, tagBigInt)
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v.Int()))
		case sqltypes.TypeVarChar:
			s := v.Str()
			if len(s) > maxVarCharLen {
				return nil, fmt.Errorf("storage: varchar of %d bytes exceeds the %d-byte codec limit", len(s), maxVarCharLen)
			}
			buf = append(buf, tagVarChar)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
			buf = append(buf, s...)
		default:
			return nil, fmt.Errorf("storage: cannot encode value of type %v", v.Type())
		}
	}
	return buf, nil
}

// maxFixedLen is the longest encoding of a fixed-width value: the tag
// byte plus an 8-byte payload.
const maxFixedLen = 9

// rowBufSize is the row reader's buffer: large enough that refills are
// rare, small enough that a scan's footprint does not depend on the
// partition's size.
const rowBufSize = 1 << 16

// rowReader decodes consecutive rows of fixed arity from a byte stream.
// It reads the stream into one fixed-size buffer and decodes each value
// by indexing that buffer in place; the buffer is topped up only when
// it holds less than a whole row of fixed-width values, so the common
// all-numeric row decodes without a call per value.
//
// Contracts: next returns a bare io.EOF only when the stream ends on a
// row boundary; every other failure — a stream that ends (or a read
// that fails) inside a row, an unknown tag, a VARCHAR length above
// maxVarCharLen — wraps ErrCorrupt. bytes counts the encoded bytes of
// the values decoded so far, never the read-ahead, so it is exact after
// every row and tells a failed scan how far it got.
type rowReader struct {
	r     io.Reader
	arity int
	buf   []byte // buf[pos:end] is read but not yet decoded
	pos   int
	end   int
	off   int64 // stream offset of buf[0]
	err   error // first error r returned (io.EOF included); no reads follow it
}

// rowReaders lends out readers with their buffers: a scoring statement
// opens one per partition of every table it joins, and zeroing a fresh
// buffer for each cost more than planning the statement.
var rowReaders = sync.Pool{New: func() any { return &rowReader{buf: make([]byte, rowBufSize)} }}

// newRowReader returns a reader over r. A caller that is done with it
// hands it back with release; one that does not leaves it to the
// collector.
func newRowReader(r io.Reader, arity int) *rowReader {
	rr := rowReaders.Get().(*rowReader)
	buf := rr.buf
	if need := arity * maxFixedLen; len(buf) < need {
		buf = make([]byte, need)
	}
	*rr = rowReader{r: r, arity: arity, buf: buf}
	return rr
}

// release returns the reader to the pool; it must not be used again.
func (rr *rowReader) release() {
	rr.r, rr.err = nil, nil
	rowReaders.Put(rr)
}

// bytes is the count of encoded bytes decoded so far.
func (rr *rowReader) bytes() int64 { return rr.off + int64(rr.pos) }

// fill tops the buffer up until it holds n undecoded bytes (n ≤
// len(buf)) or the stream has ended, and reports whether it holds n.
func (rr *rowReader) fill(n int) bool {
	if rr.end-rr.pos >= n {
		return true
	}
	if rr.err != nil {
		return false
	}
	if rr.pos > 0 {
		rr.off += int64(rr.pos)
		rr.end = copy(rr.buf, rr.buf[rr.pos:rr.end])
		rr.pos = 0
	}
	for empty := 0; rr.end < n && rr.err == nil; {
		m, err := rr.r.Read(rr.buf[rr.end:])
		rr.end += m
		rr.err = err
		if m > 0 || err != nil {
			empty = 0
		} else if empty++; empty == 100 {
			rr.err = io.ErrNoProgress
		}
	}
	return rr.end >= n
}

// truncated builds the error for a stream that ended (or failed)
// inside a row; what names the piece that was cut short.
func (rr *rowReader) truncated(what string) error {
	cause := rr.err
	if cause == io.EOF {
		cause = io.ErrUnexpectedEOF
	}
	return corruptf("storage: %s: %w", what, cause)
}

// next decodes one row into dst (reused across calls when it has
// capacity). It returns io.EOF cleanly at end of stream. It is also
// how a row nextFloats declines is read.
func (rr *rowReader) next(dst sqltypes.Row) (sqltypes.Row, error) {
	if cap(dst) < rr.arity {
		dst = make(sqltypes.Row, rr.arity)
	}
	dst = dst[:rr.arity]
	// With a whole row of fixed-width values buffered (or the stream
	// ended), running out of bytes below can only mean truncation.
	rr.fill(rr.arity * maxFixedLen)
	b := rr.buf[rr.pos:rr.end]
	for i := range dst {
		if len(b) == 0 {
			rr.pos = rr.end
			if i == 0 && rr.err == io.EOF {
				return nil, io.EOF
			}
			return nil, rr.truncated(fmt.Sprintf("row truncated after %d of %d values", i, rr.arity))
		}
		switch tag := b[0]; tag {
		case tagNull:
			dst[i] = sqltypes.Null
			b = b[1:]
		case tagDouble, tagBigInt:
			if len(b) < maxFixedLen {
				rr.pos = rr.end - len(b)
				return nil, rr.truncated("truncated 8-byte value")
			}
			u := binary.LittleEndian.Uint64(b[1:maxFixedLen])
			if tag == tagDouble {
				dst[i] = sqltypes.NewDouble(math.Float64frombits(u))
			} else {
				dst[i] = sqltypes.NewBigInt(int64(u))
			}
			b = b[maxFixedLen:]
		case tagVarChar:
			rr.pos = rr.end - len(b)
			if len(b) < 5 {
				return nil, rr.truncated("truncated varchar length")
			}
			n := binary.LittleEndian.Uint32(b[1:5])
			if n > maxVarCharLen {
				return nil, corruptf("storage: varchar length %d exceeds the %d-byte codec limit", n, maxVarCharLen)
			}
			s, err := rr.varchar(int(n))
			if err != nil {
				return nil, err
			}
			dst[i] = sqltypes.NewVarChar(s)
			// The string may have used up the bytes buffered for the
			// rest of the row.
			rr.fill((rr.arity - i - 1) * maxFixedLen)
			b = rr.buf[rr.pos:rr.end]
		default:
			rr.pos = rr.end - len(b)
			return nil, corruptf("storage: bad value tag %d", tag)
		}
	}
	rr.pos = rr.end - len(b)
	return dst, nil
}

// nextFloats is next's float decode mode: it walks the next row's tags
// and writes each requested cell — column i goes to x[want[i]], -1
// meaning not requested — as a float (a BIGINT widens as Value.Float
// widens it), stepping over the payloads of the others, VARCHAR
// included, without allocating. It declines, returning false with
// nothing consumed, when a requested cell is NULL, VARCHAR or a BIGINT
// the float cannot hold exactly (exactFloat), and also
// for anything next would not decode as a clean row — the end of the
// stream, a truncation, a bad tag, a VARCHAR over the cap or longer
// than the buffer — so next, called on the same row, boxes it or
// reports exactly the end or error it always would. x's contents are
// unspecified after a decline.
func (rr *rowReader) nextFloats(want []int, x []float64) bool {
	if rr.end-rr.pos < rr.arity*maxFixedLen {
		rr.fill(rr.arity * maxFixedLen)
	}
	b := rr.buf[rr.pos:rr.end]
	off := 0
	for i, slot := range want {
		// A number with its 8 bytes buffered: one bounds check for the
		// cell, none for its parts.
		if len(b)-off >= maxFixedLen {
			c := (*[maxFixedLen]byte)(b[off : off+maxFixedLen])
			if tag := c[0]; tag == tagDouble || tag == tagBigInt {
				if slot >= 0 {
					u := binary.LittleEndian.Uint64(c[1:])
					f := math.Float64frombits(u)
					if tag == tagBigInt {
						if !exactFloat(int64(u)) {
							return false
						}
						f = float64(int64(u))
					}
					x[slot] = f
				}
				off += maxFixedLen
				continue
			}
		}
		var ok bool
		if b, off, ok = rr.skipCell(off, slot, rr.arity-i-1); !ok {
			return false
		}
	}
	rr.pos += off
	return true
}

// exactFloat reports whether BIGINT v is exact as a float64: |v| ≤ 2⁵³.
// A float decode refuses a wider one, so the boxed row keeps the value a
// consumer may hand on as a BIGINT (a projected column) whole.
func exactFloat(v int64) bool { return -1<<53 <= v && v <= 1<<53 }

// skipCell is nextFloats for every other cell, the one at buf[pos+off]:
// an unrequested NULL or VARCHAR is stepped over, the buffer topped up
// when a VARCHAR's payload is not all there (fill keeps the undecoded
// bytes, this row's included, so off stays an offset into them; rest is
// how many cells follow). It returns the row's bytes and the offset
// after the cell, or false for a requested NULL or VARCHAR, a bad tag, a
// cut-short cell, a length over the cap or a row that would not fit the
// buffer.
func (rr *rowReader) skipCell(off, slot, rest int) (b []byte, end int, ok bool) {
	b = rr.buf[rr.pos:rr.end]
	if off >= len(b) || slot >= 0 {
		return nil, 0, false
	}
	switch b[off] {
	case tagNull:
		return b, off + 1, true
	case tagVarChar:
		if len(b)-off < 5 {
			return nil, 0, false
		}
		n := int(binary.LittleEndian.Uint32(b[off+1 : off+5]))
		end = off + 5 + n
		if n > maxVarCharLen || end > len(rr.buf) {
			return nil, 0, false
		}
		if end > len(b) {
			rr.fill(min(end+rest*maxFixedLen, len(rr.buf)))
			b = rr.buf[rr.pos:rr.end]
		}
		return b, end, end <= len(b)
	}
	return nil, 0, false // a bad tag, or a number cut short
}

// varchar decodes the n-byte VARCHAR whose tag is at buf[pos] and whose
// length prefix is buffered, copying the payload exactly once: straight
// out of the buffer when it is all there, otherwise through a builder
// fed by successive refills (the buffer itself never grows).
func (rr *rowReader) varchar(n int) (string, error) {
	rr.pos += 5
	if n <= len(rr.buf) && rr.fill(n) {
		s := string(rr.buf[rr.pos : rr.pos+n])
		rr.pos += n
		return s, nil
	}
	var sb strings.Builder
	sb.Grow(n)
	for {
		m := min(n-sb.Len(), rr.end-rr.pos)
		sb.Write(rr.buf[rr.pos : rr.pos+m])
		rr.pos += m
		if sb.Len() == n {
			return sb.String(), nil
		}
		if !rr.fill(1) {
			return "", rr.truncated("truncated varchar")
		}
	}
}
