package statsudf

import (
	"strconv"
	"strings"
	"testing"
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
	// Two batches (2 048 records of two fields each): a bad field, then a
	// malformed quote in the second batch.
	f.Add(csvText("a,b", 2600, func(i int) string {
		switch i {
		case 10:
			return "10,x"
		case 2500:
			return "2500,\"a\"b"
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
