package db

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"unicode"

	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

// The on-disk catalog records table schemas and view definitions so a
// database directory can be reopened by a later process (the TWM-style
// CLI relies on this); partition files carry the data. It is two files:
// catalog.json, a snapshot, and catalog.log, the DDL since that
// snapshot. Every CREATE and DROP of a table or view appends one record
// to the log, in one write, and changes nothing in memory unless that
// write succeeded. OpenDir replays the log over the snapshot, writes the
// result as the new snapshot (temp file, rename) and empties the log;
// a DDL that finds the log past catalogLogLimit does the same first.
//
// A record is u32 body length | u32 CRC-32C of the body | JSON body,
// little-endian. Replay applies records as assignments — a create sets
// the name, a drop deletes it — so replaying a record twice changes
// nothing, and a crash between the snapshot's rename and the log's
// truncation reopens to the same catalog. Partition files are created
// before their CREATE record and removed after their DROP record, so a
// crash leaves at worst unreferenced files, never a table without them.
// Nothing is fsynced: a crash of the machine, not just of the process,
// can lose the latest DDL.
const (
	catalogFile    = "catalog.json"
	catalogLogFile = "catalog.log"
	// catalogLogLimit is the log size past which the next DDL folds the
	// log into a fresh snapshot first.
	catalogLogLimit = 1 << 20
	// maxCatalogRecord bounds a record's body: the log is read from
	// disk, so a length is not trusted beyond it.
	maxCatalogRecord = 1 << 24
	catalogHeader    = 8
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

type catalogDoc struct {
	Tables []catalogTable `json:"tables"`
	Views  []catalogView  `json:"views,omitempty"`
}

type catalogView struct {
	Name string `json:"name"`
	SQL  string `json:"sql"`
}

type catalogTable struct {
	Name       string          `json:"name"`
	Partitions int             `json:"partitions"`
	Columns    []catalogColumn `json:"columns"`
}

type catalogColumn struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// catalogRecord is the body of one log record: Op is create_table
// (Table set), create_view (View set), drop_table or drop_view (Name
// set).
type catalogRecord struct {
	Op    string        `json:"op"`
	Table *catalogTable `json:"table,omitempty"`
	View  *catalogView  `json:"view,omitempty"`
	Name  string        `json:"name,omitempty"`
}

func tableRecord(name string, t *storage.Table) *catalogTable {
	ct := &catalogTable{Name: name, Partitions: t.Partitions()}
	for _, c := range t.Schema().Columns {
		ct.Columns = append(ct.Columns, catalogColumn{Name: c.Name, Type: c.Type.String()})
	}
	return ct
}

// logDDL appends rec to the catalog log; callers hold d.mu and apply
// the DDL in memory only when it returns nil. A DB without a log open —
// one from Open, or whose last append failed — and a log past
// catalogLogLimit start from a fresh snapshot of the catalog as it
// stands before rec.
func (d *DB) logDDL(rec catalogRecord) error {
	if d.opts.Dir == "" {
		return nil
	}
	body, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("db: %w", err)
	}
	if len(body) > maxCatalogRecord {
		return fmt.Errorf("db: catalog record of %d bytes exceeds %d", len(body), maxCatalogRecord)
	}
	if d.clog == nil || d.clogSize >= catalogLogLimit {
		if err := d.compactCatalog(); err != nil {
			return err
		}
	}
	buf := frameCatalogRecord(body)
	if _, err := d.clog.Write(buf); err != nil {
		// Part of the record may have reached the file. Nothing may be
		// appended behind it, so the next DDL starts from a snapshot,
		// which empties the log; a reopen before that drops it as a
		// torn tail.
		_ = d.clog.Close() // the write's error is the one to report
		d.clog = nil
		return fmt.Errorf("db: catalog log: %w", err)
	}
	d.clogSize += int64(len(buf))
	return nil
}

// frameCatalogRecord returns body as one log record.
func frameCatalogRecord(body []byte) []byte {
	buf := make([]byte, catalogHeader+len(body))
	binary.LittleEndian.PutUint32(buf, uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[4:], crc32.Checksum(body, castagnoli))
	copy(buf[catalogHeader:], body)
	return buf
}

// compactCatalog writes the in-memory catalog as the snapshot (temp
// file, rename), then opens the log if it is not open and empties it;
// callers hold d.mu or own d.
func (d *DB) compactCatalog() error {
	data, err := json.MarshalIndent(d.catalogDoc(), "", "  ")
	if err != nil {
		return fmt.Errorf("db: %w", err)
	}
	if err := os.MkdirAll(d.opts.Dir, 0o755); err != nil {
		return fmt.Errorf("db: %w", err)
	}
	tmp := filepath.Join(d.opts.Dir, catalogFile+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("db: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(d.opts.Dir, catalogFile)); err != nil {
		return fmt.Errorf("db: %w", err)
	}
	if d.clog == nil {
		f, err := os.OpenFile(filepath.Join(d.opts.Dir, catalogLogFile), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("db: %w", err)
		}
		d.clog = f
	}
	if err := d.clog.Truncate(0); err != nil {
		return fmt.Errorf("db: catalog log: %w", err)
	}
	d.clogSize = 0
	return nil
}

// catalogDoc is the snapshot of the in-memory catalog, sorted by name.
func (d *DB) catalogDoc() catalogDoc {
	var doc catalogDoc
	for _, n := range sortedKeys(d.tables) {
		doc.Tables = append(doc.Tables, *tableRecord(n, d.tables[n]))
	}
	for _, n := range sortedKeys(d.views) {
		doc.Views = append(doc.Views, catalogView{Name: n, SQL: d.views[n].String()})
	}
	return doc
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// loadCatalog attaches the tables and views of the snapshot with the
// log replayed over it, then writes them as the new snapshot and
// empties the log. A directory without a catalog is a fresh one.
func (d *DB) loadCatalog() error {
	if d.opts.Dir == "" {
		return nil
	}
	tables, views, err := readCatalog(d.opts.Dir)
	if err != nil {
		return err
	}
	for _, name := range sortedKeys(tables) {
		ct := tables[name]
		// The name picks the files attached: one CREATE TABLE could not
		// have made, such as ../x, would reach outside the directory.
		if !tableNameOK(name) {
			return fmt.Errorf("db: catalog table name %q is not a lower-case identifier", name)
		}
		cols := make([]sqltypes.Column, len(ct.Columns))
		for i, c := range ct.Columns {
			typ, err := sqltypes.ParseType(c.Type)
			if err != nil {
				return fmt.Errorf("db: catalog table %q: %w", name, err)
			}
			cols[i] = sqltypes.Column{Name: c.Name, Type: typ}
		}
		schema, err := sqltypes.NewSchema(cols...)
		if err != nil {
			return fmt.Errorf("db: catalog table %q: %w", name, err)
		}
		t, err := storage.OpenTable(name, schema, d.opts.Dir, ct.Partitions)
		if err != nil {
			return err
		}
		d.tables[name] = t
	}
	for _, name := range sortedKeys(views) {
		stmt, err := sqlparser.Parse(views[name].SQL)
		if err != nil {
			return fmt.Errorf("db: catalog view %q: %w", name, err)
		}
		sel, ok := stmt.(*sqlparser.Select)
		if !ok {
			return fmt.Errorf("db: catalog view %q is not a SELECT", name)
		}
		d.views[name] = sel
	}
	return d.compactCatalog()
}

// readCatalog returns the tables and views of dir's snapshot with its
// log replayed over them.
func readCatalog(dir string) (map[string]catalogTable, map[string]catalogView, error) {
	tables, views := map[string]catalogTable{}, map[string]catalogView{}
	data, err := os.ReadFile(filepath.Join(dir, catalogFile))
	switch {
	case err == nil:
		var doc catalogDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, nil, fmt.Errorf("db: corrupt catalog: %w", err)
		}
		for _, ct := range doc.Tables {
			tables[ct.Name] = ct
		}
		for _, cv := range doc.Views {
			views[cv.Name] = cv
		}
	case !os.IsNotExist(err):
		return nil, nil, fmt.Errorf("db: %w", err)
	}
	log, err := os.ReadFile(filepath.Join(dir, catalogLogFile))
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("db: %w", err)
	}
	bodies, err := catalogRecords(log)
	if err != nil {
		return nil, nil, err
	}
	for i, body := range bodies {
		var rec catalogRecord
		if err := json.Unmarshal(body, &rec); err != nil {
			return nil, nil, fmt.Errorf("db: corrupt catalog log, record %d: %w", i, err)
		}
		switch {
		case rec.Op == "create_table" && rec.Table != nil:
			tables[rec.Table.Name] = *rec.Table
		case rec.Op == "drop_table":
			delete(tables, rec.Name)
		case rec.Op == "create_view" && rec.View != nil:
			views[rec.View.Name] = *rec.View
		case rec.Op == "drop_view":
			delete(views, rec.Name)
		default:
			return nil, nil, fmt.Errorf("db: corrupt catalog log, record %d: bad op %q", i, rec.Op)
		}
	}
	return tables, views, nil
}

// catalogRecords splits a catalog log into its record bodies. A bad
// record — short, of length zero, or failing its CRC — with nothing
// after it is a torn tail, an append a crash cut short: it is dropped.
// A bad record with bytes after it means the log is corrupt. A torn
// append leaves a prefix of one record, and a JSON body as written holds
// no byte below 0x20; the header of a record behind it does (its
// length's high byte is zero), so a bad length cannot pass a later
// record off as part of a torn tail.
func catalogRecords(log []byte) ([][]byte, error) {
	var bodies [][]byte
	for off := 0; off < len(log); {
		rest := log[off:]
		if len(rest) < catalogHeader {
			return bodies, nil
		}
		n := int64(binary.LittleEndian.Uint32(rest))
		end := catalogHeader + n
		ok := n > 0 && n <= maxCatalogRecord && end <= int64(len(rest)) &&
			crc32.Checksum(rest[catalogHeader:end], castagnoli) == binary.LittleEndian.Uint32(rest[4:])
		if !ok {
			if end >= int64(len(rest)) && !hasControlByte(rest[catalogHeader:]) {
				return bodies, nil
			}
			return nil, fmt.Errorf("db: corrupt catalog log: bad record at byte %d", off)
		}
		bodies = append(bodies, rest[catalogHeader:end])
		off += int(end)
	}
	return bodies, nil
}

func hasControlByte(b []byte) bool {
	for _, c := range b {
		if c < 0x20 {
			return true
		}
	}
	return false
}

// tableNameOK reports whether name is a table name the engine can have
// created: an identifier as the SQL lexer reads one (a letter or '_',
// then letters, digits and '_'), lower-cased as the catalog keys it.
func tableNameOK(name string) bool {
	for i, r := range name {
		if r != '_' && !unicode.IsLetter(r) && (i == 0 || !unicode.IsDigit(r)) {
			return false
		}
	}
	return name != "" && name == strings.ToLower(name)
}
