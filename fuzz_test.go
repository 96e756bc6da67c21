package statsudf

import (
	"strings"
	"testing"
)

// FuzzImportCSV drives the CSV loader with arbitrary bytes against an
// in-memory database. The loader must never panic and must never leave
// a half-created table behind: either the import succeeds and the
// table answers a COUNT(*) matching the reported row count, or it
// fails and the table does not exist.
func FuzzImportCSV(f *testing.F) {
	f.Add("a,b\n1,2\n3,4\n", true)
	f.Add("1,2.5,x\n2,3.5,y\n", false)
	f.Add("a,b\n1,\n,2\n", true)
	f.Add("h\n\"quoted,comma\"\n", true)
	f.Add("a,b\n1\n", true)         // ragged row: must error cleanly
	f.Add("a,b\n1,notint\n", false) // type drift after inference
	f.Add("", true)
	d, err := Open(Options{Partitions: 2})
	if err != nil {
		f.Fatal(err)
	}
	defer d.Close()
	f.Fuzz(func(t *testing.T, data string, header bool) {
		n, err := d.ImportCSV("fz", strings.NewReader(data), header)
		if err != nil {
			if d.eng.HasTable("fz") {
				if _, derr := d.Exec("DROP TABLE fz"); derr != nil {
					t.Fatalf("cleanup after failed import: %v", derr)
				}
				t.Fatalf("failed import left table behind (data=%q): %v", data, err)
			}
			return
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
	})
}
