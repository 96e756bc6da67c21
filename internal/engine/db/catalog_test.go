package db

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestCatalogPersistence(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDir(Options{Dir: dir, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, d1, "CREATE TABLE people (id BIGINT, name VARCHAR, score DOUBLE)")
	mustExec(t, d1, "INSERT INTO people VALUES (1, 'ada', 9.5), (2, 'bob', 7.25)")
	mustExec(t, d1, "CREATE TABLE other (a DOUBLE)")
	mustExec(t, d1, "DROP TABLE other")

	// Reopen in a "new process".
	d2, err := OpenDir(Options{Dir: dir, Partitions: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d2.HasTable("other") {
		t.Fatal("dropped table resurrected")
	}
	rows := query(t, d2, "SELECT id, name, score FROM people ORDER BY id")
	if len(rows) != 2 || rows[0][1] != "ada" || rows[1][2] != "7.25" {
		t.Fatalf("rows = %v", rows)
	}
	tab, err := d2.Table("people")
	if err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 2 {
		t.Fatalf("NumRows = %d after reattach", tab.NumRows())
	}
	// Appends after reattach keep working.
	mustExec(t, d2, "INSERT INTO people VALUES (3, 'cyd', 1)")
	if got := len(query(t, d2, "SELECT id FROM people")); got != 3 {
		t.Fatalf("%d rows after append", got)
	}
}

func TestCatalogCorruptFails(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "catalog.json"), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(Options{Dir: dir}); err == nil {
		t.Fatal("corrupt catalog must fail to open")
	}
}

func TestCatalogMissingPartitionFails(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDir(Options{Dir: dir, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, d1, "CREATE TABLE t (a DOUBLE)")
	// Remove one partition file behind the catalog's back.
	if err := os.Remove(filepath.Join(dir, "t.p001.dat")); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(Options{Dir: dir, Partitions: 2}); err == nil {
		t.Fatal("missing partition must fail to open")
	}
}

func TestInMemoryOpenHasNoCatalog(t *testing.T) {
	d := Open(Options{Partitions: 2})
	mustExec(t, d, "CREATE TABLE t (a DOUBLE)")
	// No files anywhere; nothing to assert beyond not crashing.
	if !d.HasTable("t") {
		t.Fatal("table missing")
	}
}

// A catalog naming a table outside its directory, or claiming more
// partitions than it has files, is refused.
func TestCatalogUntrustedFails(t *testing.T) {
	for _, doc := range []string{
		`{"tables":[{"name":"../evil","partitions":1,"columns":[{"name":"a","type":"DOUBLE"}]}]}`,
		`{"tables":[{"name":"t","partitions":1125899906842624,"columns":[{"name":"a","type":"DOUBLE"}]}]}`,
	} {
		root := t.TempDir()
		dir := filepath.Join(root, "db")
		for _, path := range []string{filepath.Join(root, "evil.p000.dat"), filepath.Join(dir, "t.p000.dat")} {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, catalogFile), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDir(Options{Dir: dir}); err == nil {
			t.Fatalf("%s: opened", doc)
		}
	}
}

// FuzzOpenCatalog: catalog.json is read from disk, so it is untrusted.
// Any bytes give an error or an open database, never a panic, and every
// table attached has its files inside the directory — even with a table
// file waiting one directory up.
func FuzzOpenCatalog(f *testing.F) {
	f.Add([]byte(`{"tables":[{"name":"t","partitions":1,"columns":[{"name":"a","type":"DOUBLE"},{"name":"s","type":"VARCHAR"}]}],"views":[{"name":"v","sql":"SELECT a FROM t"}]}`))
	f.Add([]byte(`{"tables":[{"name":"../evil","partitions":1,"columns":[{"name":"a","type":"DOUBLE"}]}]}`))
	f.Add([]byte(`{"tables":[{"name":"t","partitions":1125899906842624,"columns":[{"name":"a","type":"DOUBLE"}]}]}`))
	f.Add([]byte(`{"tables":[{"name":"t","partitions":-1,"columns":[]}],"views":[{"name":"v","sql":"DROP TABLE t"}]}`))
	f.Add([]byte(`{"tables":[{"name":"t","partitions":1,"columns":[{"name":"a","type":"DOUBLE"},{"name":"A","type":"nope"}]}]}`))
	f.Add([]byte(`{nope`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "db")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{filepath.Join(root, "evil.p000.dat"), filepath.Join(dir, "t.p000.dat")} {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, catalogFile), data, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := OpenDir(Options{Dir: dir})
		if err != nil {
			return
		}
		for _, name := range d.TableNames() {
			tab, err := d.Table(name)
			if err != nil {
				t.Fatalf("attached table %q: %v", name, err)
			}
			for p := 0; p < tab.Partitions(); p++ {
				if path := filepath.Join(dir, fmt.Sprintf("%s.p%03d.dat", name, p)); filepath.Dir(path) != dir {
					t.Fatalf("attached table %q reads %s, outside %s", name, path, dir)
				}
			}
		}
	})
}
