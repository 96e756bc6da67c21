package db

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"unicode"

	"repro/internal/engine/sqlparser"
	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

// The on-disk catalog records table schemas so a database directory
// can be reopened by a later process (the TWM-style CLI relies on
// this). It is a single JSON file rewritten on every DDL operation;
// partition files carry the data.

const catalogFile = "catalog.json"

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

// saveCatalog rewrites the catalog file; callers hold d.mu.
func (d *DB) saveCatalog() error {
	if d.opts.Dir == "" {
		return nil
	}
	doc := catalogDoc{}
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := d.tables[n]
		ct := catalogTable{Name: n, Partitions: t.Partitions()}
		for _, c := range t.Schema().Columns {
			ct.Columns = append(ct.Columns, catalogColumn{Name: c.Name, Type: c.Type.String()})
		}
		doc.Tables = append(doc.Tables, ct)
	}
	viewNames := make([]string, 0, len(d.views))
	for n := range d.views {
		viewNames = append(viewNames, n)
	}
	sort.Strings(viewNames)
	for _, n := range viewNames {
		doc.Views = append(doc.Views, catalogView{Name: n, SQL: d.views[n].String()})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("db: %w", err)
	}
	tmp := filepath.Join(d.opts.Dir, catalogFile+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("db: %w", err)
	}
	return os.Rename(tmp, filepath.Join(d.opts.Dir, catalogFile))
}

// loadCatalog attaches the tables recorded in an existing catalog
// file; missing file means a fresh directory.
func (d *DB) loadCatalog() error {
	if d.opts.Dir == "" {
		return nil
	}
	data, err := os.ReadFile(filepath.Join(d.opts.Dir, catalogFile))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("db: %w", err)
	}
	var doc catalogDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("db: corrupt catalog: %w", err)
	}
	for _, ct := range doc.Tables {
		// The name picks the files attached: one CREATE TABLE could not
		// have made, such as ../x, would reach outside the directory.
		if !tableNameOK(ct.Name) {
			return fmt.Errorf("db: catalog table name %q is not a lower-case identifier", ct.Name)
		}
		cols := make([]sqltypes.Column, len(ct.Columns))
		for i, c := range ct.Columns {
			typ, err := sqltypes.ParseType(c.Type)
			if err != nil {
				return fmt.Errorf("db: catalog table %q: %w", ct.Name, err)
			}
			cols[i] = sqltypes.Column{Name: c.Name, Type: typ}
		}
		schema, err := sqltypes.NewSchema(cols...)
		if err != nil {
			return fmt.Errorf("db: catalog table %q: %w", ct.Name, err)
		}
		t, err := storage.OpenTable(ct.Name, schema, d.opts.Dir, ct.Partitions)
		if err != nil {
			return err
		}
		d.tables[ct.Name] = t
	}
	for _, cv := range doc.Views {
		stmt, err := sqlparser.Parse(cv.SQL)
		if err != nil {
			return fmt.Errorf("db: catalog view %q: %w", cv.Name, err)
		}
		sel, ok := stmt.(*sqlparser.Select)
		if !ok {
			return fmt.Errorf("db: catalog view %q is not a SELECT", cv.Name)
		}
		d.views[cv.Name] = sel
	}
	return nil
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
