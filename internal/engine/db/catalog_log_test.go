package db

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// catalogOf is d's in-memory catalog in its snapshot form.
func catalogOf(t testing.TB, d *DB) catalogDoc {
	t.Helper()
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.catalogDoc()
}

// reopenCatalog opens dir as a later process would and returns its
// catalog.
func reopenCatalog(t testing.TB, dir string) catalogDoc {
	t.Helper()
	d, err := OpenDir(Options{Dir: dir, Partitions: 1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer d.Close()
	return catalogOf(t, d)
}

func sameCatalog(t testing.TB, what string, got, want catalogDoc) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		t.Fatalf("%s:\n got %s\nwant %s", what, g, w)
	}
}

// copyDir copies every regular file of src into a fresh directory.
func copyDir(t testing.TB, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func statFile(t testing.TB, path string) os.FileInfo {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi
}

func readLog(t testing.TB, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, catalogLogFile))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func writeLog(t testing.TB, dir string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, catalogLogFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// wideTable is a CREATE TABLE whose log record is several KB, so a few
// hundred DDLs cross catalogLogLimit.
func wideTable(name string, cols int) string {
	defs := make([]string, cols)
	for i := range defs {
		defs[i] = fmt.Sprintf("col_%d DOUBLE", i)
	}
	return fmt.Sprintf("CREATE TABLE %s (%s)", name, strings.Join(defs, ", "))
}

// Random DDL over tables and views, long enough to fold the log into
// the snapshot more than once: a reopen at any point, and after the
// last statement, sees the live catalog.
func TestCatalogLogRandomDDL(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	dir := t.TempDir()
	d, err := OpenDir(Options{Dir: dir, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mustExec(t, d, "CREATE TABLE base (a DOUBLE, b DOUBLE)")
	compactions := 0
	for i := 0; i < 2000; i++ {
		before := d.clogSize
		table, view := fmt.Sprintf("t%d", rng.Intn(12)), fmt.Sprintf("v%d", rng.Intn(12))
		switch rng.Intn(4) {
		case 0:
			if !d.HasTable(table) {
				mustExec(t, d, wideTable(table, 100+rng.Intn(600)))
			}
		case 1:
			if d.HasTable(table) {
				mustExec(t, d, "DROP TABLE "+table)
			}
		case 2:
			if !d.HasView(view) {
				mustExec(t, d, fmt.Sprintf("CREATE VIEW %s AS SELECT a * %d AS x, b AS y FROM base WHERE a > %d", view, i, rng.Intn(9)))
			}
		case 3:
			mustExec(t, d, "DROP VIEW IF EXISTS "+view)
		}
		if d.clogSize < before {
			compactions++
		}
		if i%397 == 0 {
			sameCatalog(t, fmt.Sprintf("reopen after %d statements", i), reopenCatalog(t, dir), catalogOf(t, d))
		}
	}
	if compactions < 2 {
		t.Fatalf("%d compactions: the sequence never crossed catalogLogLimit twice", compactions)
	}
	sameCatalog(t, "reopen at the end", reopenCatalog(t, dir), catalogOf(t, d))
}

// For each kind of DDL as the log's last record, every cut of that
// record — what a crash inside its append leaves — reopens to the
// catalog without it, and the whole record to the catalog with it.
func TestCatalogLogTornLastRecord(t *testing.T) {
	for _, last := range []string{
		"CREATE TABLE u (a DOUBLE, s VARCHAR)",
		"DROP TABLE t",
		"CREATE VIEW w AS SELECT a + 1 AS x FROM t",
		"DROP VIEW v",
	} {
		dir := t.TempDir()
		d, err := OpenDir(Options{Dir: dir, Partitions: 2})
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, d, "CREATE TABLE t (a DOUBLE)")
		mustExec(t, d, "CREATE VIEW v AS SELECT a AS x FROM t")
		// A crash inside the append comes before a DROP removes any
		// file, so the cut directories are copies taken before it.
		before, beforeDoc, prefix := copyDir(t, dir), catalogOf(t, d), readLog(t, dir)
		snap := statFile(t, filepath.Join(dir, catalogFile))
		mustExec(t, d, last)
		afterDoc, full := catalogOf(t, d), readLog(t, dir)
		d.Close()
		// The DDL appended one record and left the snapshot alone.
		rec := full[len(prefix):]
		if bodies, err := catalogRecords(rec); err != nil || len(bodies) != 1 || len(rec) != catalogHeader+len(bodies[0]) {
			t.Fatalf("%s: appended %d bytes, not one record (%v)", last, len(rec), err)
		}
		if now := statFile(t, filepath.Join(dir, catalogFile)); !os.SameFile(snap, now) || !now.ModTime().Equal(snap.ModTime()) {
			t.Fatalf("%s: rewrote %s", last, catalogFile)
		}
		for cut := 0; cut <= len(rec); cut++ {
			cdir, want := copyDir(t, before), beforeDoc
			if cut == len(rec) {
				cdir, want = copyDir(t, dir), afterDoc
			}
			writeLog(t, cdir, full[:len(prefix)+cut])
			sameCatalog(t, fmt.Sprintf("%s cut to %d of %d bytes", last, cut, len(rec)), reopenCatalog(t, cdir), want)
			if got := readLog(t, cdir); len(got) != 0 {
				t.Fatalf("%s cut to %d: reopen left %d log bytes", last, cut, len(got))
			}
		}
	}
}

// A flipped byte anywhere in a record that is not the last makes the
// log corrupt: OpenDir fails rather than open a catalog missing DDL.
func TestCatalogLogFlippedByteFails(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(Options{Dir: dir, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, d, "CREATE TABLE t (a DOUBLE)")
	mustExec(t, d, "CREATE VIEW v AS SELECT a AS x FROM t")
	mustExec(t, d, "CREATE TABLE u (a DOUBLE)")
	d.Close()
	log := readLog(t, dir)
	bodies, err := catalogRecords(log)
	if err != nil || len(bodies) != 3 {
		t.Fatalf("%d records, %v", len(bodies), err)
	}
	notLast := len(log) - (catalogHeader + len(bodies[2]))
	for i := 0; i < notLast; i++ {
		for _, mask := range []byte{0x01, 0x80, 0xff} {
			cdir := copyDir(t, dir)
			bad := append([]byte(nil), log...)
			bad[i] ^= mask
			writeLog(t, cdir, bad)
			if d, err := OpenDir(Options{Dir: cdir, Partitions: 1}); err == nil {
				d.Close()
				t.Fatalf("byte %d ^ %#x: opened", i, mask)
			}
		}
	}
}

// A crash after the snapshot's rename and before the log's truncation
// leaves the new snapshot and the whole old log: replaying it again
// reopens to the same catalog.
func TestCatalogLogReplayOverItsOwnSnapshot(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(Options{Dir: dir, Partitions: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for _, sql := range []string{
		"CREATE TABLE t (a DOUBLE)",
		"CREATE TABLE u (a DOUBLE)",
		"CREATE VIEW v AS SELECT a AS x FROM t",
		"DROP TABLE t",
		"CREATE TABLE t (b BIGINT, c VARCHAR)",
		"DROP VIEW v",
		"CREATE VIEW v AS SELECT b * 2 AS y FROM t",
		"CREATE VIEW w AS SELECT a AS x FROM u",
		"DROP TABLE u",
	} {
		mustExec(t, d, sql)
	}
	want, log := catalogOf(t, d), readLog(t, dir)
	d.mu.Lock()
	err = d.compactCatalog()
	d.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	writeLog(t, dir, log)
	sameCatalog(t, "snapshot plus its own log", reopenCatalog(t, dir), want)
	sameCatalog(t, "reopened again", reopenCatalog(t, dir), want)
}

// A DDL whose catalog write fails changes nothing: not the session's
// catalog, its epoch or a table's files, and not what a reopen finds.
func TestDDLCatalogWriteFailureChangesNothing(t *testing.T) {
	dir := t.TempDir()
	d, err := OpenDir(Options{Dir: dir, Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	mustExec(t, d, "CREATE TABLE t (a DOUBLE)")
	mustExec(t, d, "INSERT INTO t VALUES (1), (2), (3)")
	mustExec(t, d, "CREATE VIEW v AS SELECT a AS x FROM t")
	want := catalogOf(t, d)
	for _, sql := range []string{
		"CREATE TABLE u (a DOUBLE)",
		"DROP TABLE t",
		"CREATE VIEW w AS SELECT a AS x FROM t",
		"DROP VIEW v",
	} {
		// A read-only handle in place of the log: the append fails.
		d.mu.Lock()
		ro, err := os.Open(filepath.Join(dir, catalogLogFile))
		if err != nil {
			d.mu.Unlock()
			t.Fatal(err)
		}
		d.clog.Close()
		d.clog = ro
		d.mu.Unlock()
		epoch := d.Epoch()
		if _, err := d.Exec(sql); err == nil {
			t.Fatalf("%s: succeeded with a failing catalog write", sql)
		}
		if d.Epoch() != epoch {
			t.Fatalf("%s: epoch moved %d -> %d", sql, epoch, d.Epoch())
		}
		sameCatalog(t, sql+": in memory", catalogOf(t, d), want)
		if got := len(query(t, d, "SELECT x FROM v")); got != 3 {
			t.Fatalf("%s: view reads %d rows, want 3", sql, got)
		}
		sameCatalog(t, sql+": reopened", reopenCatalog(t, dir), want)
	}
	// The next DDL starts the log afresh and succeeds.
	mustExec(t, d, "CREATE TABLE u (a DOUBLE)")
	sameCatalog(t, "after recovery", reopenCatalog(t, dir), catalogOf(t, d))
}

// FuzzOpenCatalogLog: catalog.log is read from disk, so it is
// untrusted. Any bytes behind a valid snapshot give an error or an open
// database, never a panic, and every table attached has its files
// inside the directory — even with a table file waiting one directory
// up.
func FuzzOpenCatalogLog(f *testing.F) {
	record := func(rec catalogRecord) []byte {
		body, err := json.Marshal(rec)
		if err != nil {
			f.Fatal(err)
		}
		return frameCatalogRecord(body)
	}
	col := []catalogColumn{{Name: "a", Type: "DOUBLE"}}
	valid := append(append(append(record(catalogRecord{Op: "create_table", Table: &catalogTable{Name: "t", Partitions: 1, Columns: col}}),
		record(catalogRecord{Op: "drop_view", Name: "v"})...),
		record(catalogRecord{Op: "create_view", View: &catalogView{Name: "w", SQL: "SELECT a AS x FROM t"}})...),
		record(catalogRecord{Op: "drop_table", Name: "t"})...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(append([]byte(nil), valid...), "junk after the last record"...))
	f.Add(record(catalogRecord{Op: "create_table", Table: &catalogTable{Name: "../evil", Partitions: 1, Columns: col}}))
	f.Add(record(catalogRecord{Op: "create_table", Table: &catalogTable{Name: "t", Partitions: 1 << 50, Columns: col}}))
	f.Add(record(catalogRecord{Op: "create_view", View: &catalogView{Name: "v", SQL: "DROP TABLE t"}}))
	f.Add(record(catalogRecord{Op: "create_table"}))
	f.Add(record(catalogRecord{Op: "rename"}))
	f.Add(frameCatalogRecord([]byte("{nope")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, '{'})
	f.Add(make([]byte, 24))
	f.Add([]byte{})
	snapshot := []byte(`{"tables":[{"name":"t","partitions":1,"columns":[{"name":"a","type":"DOUBLE"}]}],"views":[{"name":"v","sql":"SELECT a AS x FROM t"}]}`)
	f.Fuzz(func(t *testing.T, log []byte) {
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
		if err := os.WriteFile(filepath.Join(dir, catalogFile), snapshot, 0o644); err != nil {
			t.Fatal(err)
		}
		writeLog(t, dir, log)
		d, err := OpenDir(Options{Dir: dir})
		if err != nil {
			return
		}
		defer d.Close()
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
		// What opened is what a second open finds: the open folded the
		// log into the snapshot and emptied it.
		if got := readLog(t, dir); len(got) != 0 {
			t.Fatalf("open left %d log bytes", len(got))
		}
		sameCatalog(t, "second open", reopenCatalog(t, dir), catalogOf(t, d))
	})
}

// BenchmarkDDL prices a CREATE TABLE and a DROP TABLE on disk, the pair
// every scoring call into a fresh output table pays, beside five other
// tables in the catalog.
func BenchmarkDDL(b *testing.B) {
	d, err := OpenDir(Options{Dir: b.TempDir(), Partitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 5; i++ {
		if _, err := d.Exec(wideTable(fmt.Sprintf("keep%d", i), 9)); err != nil {
			b.Fatal(err)
		}
	}
	create := wideTable("scored", 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Exec(create); err != nil {
			b.Fatal(err)
		}
		if _, err := d.Exec("DROP TABLE scored"); err != nil {
			b.Fatal(err)
		}
	}
}
