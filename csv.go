package statsudf

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/engine/sqltypes"
)

// ImportCSV loads comma-separated data into a new table (replacing any
// existing one). When header is true the first record supplies column
// names; otherwise columns are named c1..cn. Column types are inferred
// from the first data record: integers become BIGINT, other numbers
// DOUBLE, everything else VARCHAR. Empty fields load as NULL.
//
// The import is all-or-nothing: on any error the new table is dropped,
// so a malformed row never leaves a partially loaded table (note that
// a pre-existing table of the same name is replaced up front and is
// not restored on failure).
func (d *DB) ImportCSV(table string, r io.Reader, header bool) (int64, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true

	var names []string
	first, err := cr.Read()
	if err == io.EOF {
		return 0, fmt.Errorf("statsudf: empty CSV input")
	}
	if err != nil {
		return 0, fmt.Errorf("statsudf: %w", err)
	}
	if header {
		names = append([]string(nil), first...)
		first, err = cr.Read()
		if err == io.EOF {
			return 0, fmt.Errorf("statsudf: CSV has a header but no data rows")
		}
		if err != nil {
			return 0, fmt.Errorf("statsudf: %w", err)
		}
	} else {
		names = make([]string, len(first))
		for i := range names {
			names[i] = fmt.Sprintf("c%d", i+1)
		}
	}
	firstData := append([]string(nil), first...)

	cols := make([]sqltypes.Column, len(names))
	for i, name := range names {
		cols[i] = sqltypes.Column{Name: strings.TrimSpace(name), Type: inferType(firstData[i])}
	}
	schema, err := sqltypes.NewSchema(cols...)
	if err != nil {
		return 0, err
	}
	if d.eng.HasTable(table) {
		if err := d.eng.DropTable(table); err != nil {
			return 0, err
		}
	}
	tab, err := d.eng.CreateTable(table, schema)
	if err != nil {
		return 0, err
	}
	bl, err := tab.NewBulkLoader()
	if err != nil {
		return 0, err
	}
	// A failed import publishes nothing and leaves no table behind:
	// abort the load (releasing the table lock), then drop the table
	// this import created.
	fail := func(err error) (int64, error) {
		bl.Abort()
		_ = d.eng.DropTable(table)
		return 0, err
	}
	var count int64
	row := make(sqltypes.Row, len(cols))
	add := func(rec []string) error {
		if len(rec) != len(cols) {
			return fmt.Errorf("statsudf: CSV row %d has %d fields, want %d", count+1, len(rec), len(cols))
		}
		for i, f := range rec {
			v, err := parseField(f, cols[i].Type)
			if err != nil {
				return fmt.Errorf("statsudf: CSV row %d column %q: %w", count+1, cols[i].Name, err)
			}
			row[i] = v
		}
		count++
		return bl.Add(row)
	}
	if err := add(firstData); err != nil {
		return fail(err)
	}
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail(fmt.Errorf("statsudf: %w", err))
		}
		if err := add(rec); err != nil {
			return fail(err)
		}
	}
	if err := bl.Close(); err != nil {
		return fail(err)
	}
	return count, nil
}

func inferType(field string) sqltypes.Type {
	f := strings.TrimSpace(field)
	if f == "" {
		return sqltypes.TypeDouble // NULL-ish: assume numeric
	}
	if _, err := strconv.ParseInt(f, 10, 64); err == nil {
		return sqltypes.TypeBigInt
	}
	if _, err := strconv.ParseFloat(f, 64); err == nil {
		return sqltypes.TypeDouble
	}
	return sqltypes.TypeVarChar
}

func parseField(field string, t sqltypes.Type) (Value, error) {
	f := strings.TrimSpace(field)
	if f == "" {
		return sqltypes.Null, nil
	}
	switch t {
	case sqltypes.TypeBigInt:
		i, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			// The column was inferred BIGINT from the first record;
			// silently truncating later reals would corrupt data.
			return sqltypes.Null, fmt.Errorf("column inferred as BIGINT but found %q (re-import without integer first row, or clean the data)", f)
		}
		return sqltypes.NewBigInt(i), nil
	case sqltypes.TypeDouble:
		fl, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return sqltypes.Null, fmt.Errorf("bad number %q", f)
		}
		return sqltypes.NewDouble(fl), nil
	default:
		return sqltypes.NewVarChar(field), nil
	}
}
