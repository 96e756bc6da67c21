package statsudf

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine/sqltypes"
	"repro/internal/nlqudf"
)

// FuzzImportCSV drives the CSV loader with arbitrary bytes against a
// database on disk and one in memory, each through diffImport: the
// import must agree with the serial reference importer — the same
// stored rows (and, on disk, byte-identical partition row logs), or the
// same error with no table and no goroutine left behind. A successful
// import must also answer a COUNT(*) matching the reported row count.
func FuzzImportCSV(f *testing.F) {
	f.Add("a,b\n1,2\n3,4\n", true)
	f.Add("1,2.5,x\n2,3.5,y\n", false)
	f.Add("a,b\n1,\n,2\n", true)
	f.Add("h\n\"quoted,comma\"\n", true)
	f.Add("a,b\n1\n", true)         // ragged row: must error cleanly
	f.Add("a,b\n1,notint\n", false) // type drift after inference
	f.Add("", true)
	f.Add("\ufeffid,x\n1,2\n", true) // byte-order mark
	// Two chunks (about 75 KB): a bad field, then a malformed quote in the
	// second chunk.
	f.Add(csvText("a,b", 7000, func(i int) string {
		switch i {
		case 10:
			return "10,x"
		case 6500:
			return "6500,\"a\"b"
		}
		return strconv.Itoa(i) + "," + strconv.Itoa(-i)
	}), true)
	dir := f.TempDir()
	disk, err := Open(Options{Dir: dir, Partitions: 2})
	if err != nil {
		f.Fatal(err)
	}
	defer disk.Close()
	mem, err := Open(Options{Partitions: 2})
	if err != nil {
		f.Fatal(err)
	}
	defer mem.Close()
	f.Fuzz(func(t *testing.T, data string, header bool) {
		memErr := diffImport(t, mem, "", data, header)
		if err := diffImport(t, disk, dir, data, header); (err == nil) != (memErr == nil) {
			t.Fatalf("on disk %v, in memory %v (data=%q)", err, memErr, data)
		} else if err != nil {
			return
		}
		for _, d := range []*DB{disk, mem} {
			n, err := d.ImportCSV("fz", strings.NewReader(data), header)
			if err != nil {
				t.Fatalf("a repeated import failed (data=%q): %v", data, err)
			}
			res, err := d.Exec("SELECT count(*) FROM fz")
			if err != nil {
				t.Fatalf("imported table is not queryable (data=%q): %v", data, err)
			}
			if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
				t.Fatalf("COUNT(*) shape: %d rows", len(res.Rows))
			}
			if got := res.Rows[0][0].Int(); got != n {
				t.Fatalf("ImportCSV reported %d rows, COUNT(*) sees %d (data=%q)", n, got, data)
			}
			if _, err := d.Exec("DROP TABLE fz"); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// FuzzCSVCut checks csvCut on every prefix of an input encoding/csv
// reads without error. A cut must be a record end Reader.InputOffset
// reports, or follow one through empty lines alone, which encoding/csv
// skips; and reading the input in two parts split at the cut must give
// the records reading it whole does, so no cut splits a quoted field.
func FuzzCSVCut(f *testing.F) {
	f.Add([]byte("a,b\n1,2\n3,4\n"))
	f.Add([]byte("a,\"b\nc\"\n1,\"x\"\"\ny\"\n\n2,3"))
	f.Add([]byte("\"\"\n\"\n\"\n\r\n\n1\r\n\"a,\"\"b\""))
	f.Add([]byte("h\n\"quoted,comma\"\n\"two\nlines\",x\n"))
	f.Add([]byte("\n\n1\n\r\n2\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return // every prefix is cut: keep the quadratic check small
		}
		whole, err := readRecords(data)
		if err != nil {
			return
		}
		ends, err := recordEnds(data)
		if err != nil {
			t.Fatal(err)
		}
		checked := map[int]bool{}
		for w := 0; w <= len(data); w++ {
			c := csvCut(data[:w])
			if c == 0 || checked[c] {
				continue
			}
			checked[c] = true
			if c > w || data[c-1] != '\n' {
				t.Fatalf("cut %d of the first %d bytes of %q is not after a newline in them", c, w, data)
			}
			end := 0
			for _, e := range ends {
				if e <= c {
					end = e
				}
			}
			if blank := bytes.ReplaceAll(data[end:c], []byte("\r\n"), []byte("\n")); len(bytes.Trim(blank, "\n")) != 0 {
				t.Fatalf("cut %d of %q is not a record end (the last before it is %d)", c, data, end)
			}
			first, err := readRecords(data[:c])
			if err != nil {
				t.Fatalf("the %d bytes before cut %d of %q do not read: %v", c, c, data, err)
			}
			rest, err := readRecords(data[c:])
			if err != nil {
				t.Fatalf("the bytes after cut %d of %q do not read: %v", c, data, err)
			}
			if got := append(first, rest...); fmt.Sprintf("%q", got) != fmt.Sprintf("%q", whole) {
				t.Fatalf("split at cut %d, %q reads as %q, whole as %q", c, data, got, whole)
			}
		}
	})
}

// readRecords returns every record of data, with any field count.
func readRecords(data []byte) ([][]string, error) {
	cr := csv.NewReader(bytes.NewReader(data))
	cr.FieldsPerRecord = -1
	return cr.ReadAll()
}

// FuzzDecodeBlockedSummary hands DecodeBlockedSummary a plan of d
// dimensions in blocks of blockD and a one-row result whose values are
// the lines of packed — an empty line is a NULL. It must return an error
// or an NLQ of dimension d, never panic.
func FuzzDecodeBlockedSummary(f *testing.F) {
	pts := [][]float64{{1, -2.5, 1e300, 0, 3}, {0, 7, -1e-300, -0.0, 2}}
	for _, shape := range [][2]int{{5, 2}, {5, 5}, {3, 1}} {
		plan, err := core.PlanBlocks(shape[0], shape[1])
		if err != nil {
			f.Fatal(err)
		}
		var lines []string
		for _, blk := range plan.Blocks {
			r, err := core.ComputeBlock(blk, func(fn func(x []float64) error) error {
				for _, x := range pts {
					if err := fn(x); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				f.Fatal(err)
			}
			lines = append(lines, nlqudf.PackBlock(blk, r))
		}
		f.Add(uint8(shape[0]), uint8(shape[1]), strings.Join(lines, "\n"))
	}
	f.Add(uint8(2), uint8(1), "0,1,0,1;1;2;2;2;4\n\n0,1,0,1;1;2;2;2;4")
	f.Add(uint8(1), uint8(1), "0,1,0,1;NaN;Inf;-Inf;0x1p-3;-0")
	f.Add(uint8(0), uint8(0), "")
	f.Fuzz(func(t *testing.T, d, blockD uint8, packed string) {
		plan, err := core.PlanBlocks(int(d)%97, int(blockD)%97)
		if err != nil {
			return
		}
		var row sqltypes.Row
		for _, line := range strings.Split(packed, "\n") {
			v := sqltypes.NewVarChar(line)
			if line == "" {
				v = sqltypes.Null
			}
			row = append(row, v)
		}
		s, err := DecodeBlockedSummary(&Result{Rows: []sqltypes.Row{row}}, plan)
		if err != nil {
			return
		}
		if n := plan.D; s.D != n || len(s.L) != n || len(s.Min) != n || len(s.Max) != n || len(s.Q) != n*n {
			t.Fatalf("plan d = %d decoded to d = %d with %d L, %d min, %d max and %d Q entries", n, s.D, len(s.L), len(s.Min), len(s.Max), len(s.Q))
		}
	})
}
