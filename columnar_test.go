package statsudf

import (
	"encoding/binary"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/engine/sqltypes"
	"repro/internal/engine/storage"
)

// openModePair opens two databases over identical options except for
// the layout: row keeps its tables in memory, where they have no
// segments and every scan reads rows; col keeps them on disk, where
// eligible scans read segment blocks.
func openModePair(t *testing.T, parts int) (row, col *DB) {
	t.Helper()
	mk := func(dir string) *DB {
		d, err := Open(Options{Dir: dir, Partitions: parts})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	return mk(""), mk(t.TempDir())
}

// execBothModes applies the same statement to both databases so their
// row logs are identical.
func execBothModes(t *testing.T, row, col *DB, sql string) {
	t.Helper()
	if _, err := row.Exec(sql); err != nil {
		t.Fatalf("row db %q: %v", sql, err)
	}
	if _, err := col.Exec(sql); err != nil {
		t.Fatalf("columnar db %q: %v", sql, err)
	}
}

// loadNullMixture creates table name(x1..xD) in both databases — x1
// to x(D-1) DOUBLE, xD BIGINT — and loads the same n rows into each,
// identically seeded: each cell NULL with probability nullFrac, a NaN
// in every 101st x1 and a BIGINT beyond 2⁵³ in every 97th xD. The
// first built rows arrive in one commit, the rest in a second.
func loadNullMixture(t *testing.T, row, col *DB, name string, built, n, d int, nullFrac float64, seed int64) {
	t.Helper()
	cols := make([]string, d)
	for i := range cols {
		cols[i] = DimColumns(d)[i] + " DOUBLE"
	}
	cols[d-1] = DimColumns(d)[d-1] + " BIGINT"
	execBothModes(t, row, col, "CREATE TABLE "+name+" ("+strings.Join(cols, ", ")+")")
	rng := rand.New(rand.NewSource(seed))
	rows := make([]sqltypes.Row, n)
	for i := range rows {
		r := make(sqltypes.Row, d)
		for j := range r {
			switch {
			case rng.Float64() < nullFrac:
				r[j] = sqltypes.Null
			case j < d-1:
				r[j] = sqltypes.NewDouble(rng.NormFloat64()*10 + float64(j))
			default:
				r[j] = sqltypes.NewBigInt(int64(rng.NormFloat64()*10) + int64(j))
			}
		}
		if i%101 == 3 {
			r[0] = sqltypes.NewDouble(math.NaN())
		}
		if i%97 == 5 {
			r[d-1] = sqltypes.NewBigInt(1<<53 + 1)
		}
		rows[i] = r
	}
	for _, db := range []*DB{row, col} {
		tab, err := db.Engine().Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert(rows[:built]...); err != nil {
			t.Fatal(err)
		}
		if err := tab.Insert(rows[built:]...); err != nil {
			t.Fatal(err)
		}
	}
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func requireNLQBitIdentical(t *testing.T, what string, row, col *NLQ) {
	t.Helper()
	if row.D != col.D || !bitsEqual(row.N, col.N) {
		t.Fatalf("%s: n/d differ: d=%d n=%v vs d=%d n=%v", what, row.D, row.N, col.D, col.N)
	}
	for i := range row.L {
		if !bitsEqual(row.L[i], col.L[i]) || !bitsEqual(row.Min[i], col.Min[i]) || !bitsEqual(row.Max[i], col.Max[i]) {
			t.Fatalf("%s: L/Min/Max[%d] differ: %v/%v/%v vs %v/%v/%v",
				what, i, row.L[i], row.Min[i], row.Max[i], col.L[i], col.Min[i], col.Max[i])
		}
	}
	for i := range row.Q {
		if !bitsEqual(row.Q[i], col.Q[i]) {
			t.Fatalf("%s: Q[%d] = %v vs %v", what, i, row.Q[i], col.Q[i])
		}
	}
}

func requireCloseSlice(t *testing.T, what string, a, b []float64, tol float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", what, len(a), len(b))
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			t.Fatalf("%s[%d]: %v vs %v", what, i, a[i], b[i])
		}
	}
}

// The scan source must be invisible in every result: cached summaries
// bit-for-bit, over whole sealed chunks and a tail, and the model
// builders that consume them within 1e-9 — across NULL densities and
// partition counts.
func TestColumnarModesAgreeRandomized(t *testing.T) {
	const tol = 1e-9
	cases := []struct {
		name     string
		parts    int
		nullFrac float64
		seed     int64
	}{
		{"mem_p1_dense", 1, 0, 101},
		{"mem_p4_sparse", 4, 0.3, 202},
		{"disk_p3_mixed", 3, 0.1, 303},
		{"disk_p5_very_sparse", 5, 0.6, 404},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rowDB, colDB := openModePair(t, tc.parts)
			// Two whole chunks per partition, then a 40-row tail.
			built := tc.parts * 2 * storage.ChunkRows
			loadNullMixture(t, rowDB, colDB, "p", built, built+40, 4, tc.nullFrac, tc.seed)
			tab, err := colDB.Engine().Table("p")
			if err != nil {
				t.Fatal(err)
			}
			for _, si := range tab.Segments() {
				if si.Rows != 2*storage.ChunkRows || si.TailRows == 0 {
					t.Fatalf("partition %+v: want two whole chunks and a tail", si)
				}
			}

			// Cached summaries rebuild through the aggregate scan — float
			// rows on one database, blocks on the other — and the merged
			// matrices must be byte-identical.
			for _, mt := range []MatrixType{Diagonal, Triangular, Full} {
				opts := SummaryOptions{Method: ViaCache, Matrix: mt}
				rs, err := rowDB.Summary("p", DimColumns(4), opts)
				if err != nil {
					t.Fatal(err)
				}
				cs, err := colDB.Summary("p", DimColumns(4), opts)
				if err != nil {
					t.Fatal(err)
				}
				requireNLQBitIdentical(t, "p/"+mt.String(), rs, cs)
			}

			// A clean regression workload for the model builders, seeded
			// identically in both databases.
			cfg := MixtureConfig{N: 300, D: 3, K: 2, Seed: tc.seed + 7}
			beta := []float64{2, -1, 0.5}
			if err := rowDB.GenerateRegression("m", cfg, 4, beta, 1.5); err != nil {
				t.Fatal(err)
			}
			if err := colDB.GenerateRegression("m", cfg, 4, beta, 1.5); err != nil {
				t.Fatal(err)
			}
			dims := DimColumns(3)

			rc, err := rowDB.Correlation("m", dims)
			if err != nil {
				t.Fatal(err)
			}
			cc, err := colDB.Correlation("m", dims)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < rc.D; i++ {
				for j := 0; j < rc.D; j++ {
					if math.Abs(rc.At(i, j)-cc.At(i, j)) > tol {
						t.Fatalf("rho[%d,%d]: %v vs %v", i, j, rc.At(i, j), cc.At(i, j))
					}
				}
			}

			rl, err := rowDB.LinearRegression("m", dims, "Y")
			if err != nil {
				t.Fatal(err)
			}
			cl, err := colDB.LinearRegression("m", dims, "Y")
			if err != nil {
				t.Fatal(err)
			}
			requireCloseSlice(t, "beta", rl.Beta, cl.Beta, tol)

			rp, err := rowDB.PCA("m", dims, 2, CorrelationBasis)
			if err != nil {
				t.Fatal(err)
			}
			cp, err := colDB.PCA("m", dims, 2, CorrelationBasis)
			if err != nil {
				t.Fatal(err)
			}
			requireCloseSlice(t, "eigen", rp.Eigen, cp.Eigen, tol)

			rk, err := rowDB.KMeans("m", dims, 2, KMeansOptions{Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			ck, err := colDB.KMeans("m", dims, 2, KMeansOptions{Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(rk.SSE-ck.SSE) > tol {
				t.Fatalf("kmeans SSE: %v vs %v", rk.SSE, ck.SSE)
			}
			for k := range rk.C {
				requireCloseSlice(t, "centroid", rk.C[k], ck.C[k], tol)
			}
		})
	}
}

// The summary catalog's stamps — covered_rows, n, state — must come
// out identical from rows and from blocks even when NULL-heavy rows are
// skip-counted block-wise (the block path counts masked rows toward
// seen exactly like the row path's pre-skip increment).
func TestColumnarSummaryStampsMatch(t *testing.T) {
	rowDB, colDB := openModePair(t, 3)
	loadNullMixture(t, rowDB, colDB, "h", 100, 180, 3, 0.5, 77)

	opts := SummaryOptions{Method: ViaCache, Matrix: Triangular}
	if _, err := rowDB.Summary("h", DimColumns(3), opts); err != nil {
		t.Fatal(err)
	}
	if _, err := colDB.Summary("h", DimColumns(3), opts); err != nil {
		t.Fatal(err)
	}

	const q = `SELECT table_name, columns, matrix_type, state, n, covered_rows
	           FROM sys.summaries ORDER BY 1, 2, 3`
	rr, err := rowDB.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	cr, err := colDB.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rr.Rows) != len(cr.Rows) || len(rr.Rows) == 0 {
		t.Fatalf("sys.summaries: %d rows vs %d", len(rr.Rows), len(cr.Rows))
	}
	for i := range rr.Rows {
		for c := range rr.Rows[i] {
			if rr.Rows[i][c].String() != cr.Rows[i][c].String() {
				t.Fatalf("stamp row %d col %d: %q vs %q",
					i, c, rr.Rows[i][c].String(), cr.Rows[i][c].String())
			}
		}
	}
}

// segmentFiles lists every sealed-chunk file under dir, with each
// file's chunk count read off its chunk headers: "SEG3" | u32 rows |
// u32 ncols | u32 0 | u64 bodyLen | body (directory, blocks, payloads).
func segmentFiles(t *testing.T, dir string) map[string]int {
	t.Helper()
	out := map[string]int{}
	err := filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".seg") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		chunks := 0
		for len(data) >= 24 && string(data[:4]) == "SEG3" {
			data = data[24+binary.LittleEndian.Uint64(data[16:24]):]
			chunks++
		}
		if len(data) != 0 {
			t.Fatalf("%s: %d trailing bytes after %d chunks", path, len(data), chunks)
		}
		out[filepath.Base(path)] = chunks
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEveryRowIsStoredOnce: writes — SQL INSERTs one row at a time,
// Generate's bulk load, a CSV import — seal every whole 2048-row chunk
// of a partition's rows as they commit and keep the rest in the row
// log; scans and a drop write nothing; the bytes at rest stay within a
// few percent of the user's 8 per cell; and a reopened database reads
// the same rows.
func TestEveryRowIsStoredOnce(t *testing.T) {
	const n, parts = 5000, 2
	dir := t.TempDir()
	d, err := Open(Options{Dir: dir, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.ExecScript(`CREATE TABLE s (a DOUBLE, b DOUBLE); CREATE TABLE t (a DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := d.Exec("INSERT INTO s VALUES (" + strconv.Itoa(i) + ", 0.5)"); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Generate("X", MixtureConfig{N: n, D: 3, K: 2, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	csv.WriteString("u,v\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&csv, "%d,%d.5\n", i, i)
	}
	if _, err := d.ImportCSV("c", strings.NewReader(csv.String()), true); err != nil {
		t.Fatal(err)
	}
	want := map[string]int{}
	for _, tab := range []string{"s", "x", "c"} {
		for p := 0; p < parts; p++ {
			want[fmt.Sprintf("%s.p%03d.seg", tab, p)] = n / parts / 2048
		}
	}
	if segs := segmentFiles(t, dir); !reflect.DeepEqual(segs, want) {
		t.Fatalf("chunks after the writes = %v, want %v (file: chunks)", segs, want)
	}
	sums := func(d *DB) string {
		t.Helper()
		res, err := d.Exec("SELECT count(*), sum(a), sum(b) FROM s")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Rows)
	}
	before := sums(d)
	if _, err := d.ExecScript(`SELECT X1 + X2 FROM X WHERE X3 > 0; SELECT v * 2 FROM c;
		SELECT a + b FROM s; DROP TABLE t`); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Summary("X", DimColumns(3), SummaryOptions{Method: ViaUDF}); err != nil {
		t.Fatal(err)
	}
	if segs := segmentFiles(t, dir); !reflect.DeepEqual(segs, want) {
		t.Fatalf("chunks after the scans = %v, want %v", segs, want)
	}
	tab, err := d.Engine().Table("s")
	if err != nil {
		t.Fatal(err)
	}
	disk, _ := tab.SizeBytes()
	for _, si := range tab.Segments() {
		disk += si.Bytes
	}
	if user := 8 * 2 * int64(n); float64(disk) > 1.15*float64(user) {
		t.Fatalf("table s keeps %d bytes for %d user bytes", disk, user)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(Options{Dir: dir, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if got := sums(again); got != before {
		t.Fatalf("reopened, s sums to %s; before, %s", got, before)
	}
}
