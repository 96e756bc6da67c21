// Command sqlsh is an interactive SQL shell for the embedded engine,
// with the paper's UDFs (nlq_list, nlq_str, nlq_block, linearregscore,
// fascore, kdistance, clusterscore) pre-registered.
//
// Usage:
//
//	sqlsh [-dir data/] [-partitions 20] [-debug-addr :6060] [-c "SELECT ..."] [file.sql]
//	sqlsh -connect host:port [-user alice] [-c "SELECT ..."] [file.sql]
//
// Without -connect the shell embeds the engine; with it, statements go
// over the wire protocol to a running twmd, through the pooled client
// (the session shows up in the server's sys.sessions). Either way a
// SELECT text is planned once by the engine's plan cache, the one place
// a plan is kept, and served from it on every repeat, from any session:
// sys.prepared lists the cache, one row per text with its executions.
//
// Statements end with ';'. Shell commands: \d lists tables, \d NAME
// shows a schema, \stats toggles per-query execution statistics
// (rows/bytes scanned, partition skew, phase times), \q quits.
// `EXPLAIN ANALYZE <select>` runs the statement and prints its span
// tree; the sys.metrics/sys.queries/sys.tables/sys.partitions/
// sys.prepared virtual tables are queryable like any other table.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	enginedb "repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/sqltypes"
	"repro/pkg/client"

	statsudf "repro"
)

// showStats controls whether a "-- stats: ..." line follows each
// result; the -stats flag sets it and \stats toggles it in the REPL.
var showStats bool

// engine abstracts where statements execute: the embedded database, or
// a remote twmd over the wire protocol.
type engine interface {
	// Run executes one statement, materialized.
	Run(sql string) (*exec.Result, error)
	// Script executes a semicolon-separated script.
	Script(sql string) (*exec.Result, error)
	// Tables prints the \d listing.
	Tables(out io.Writer)
	// Describe prints one table's schema (\d NAME).
	Describe(name string, out io.Writer)
	Close() error
}

func main() {
	dir := flag.String("dir", "", "database directory (empty = in-memory)")
	partitions := flag.Int("partitions", 20, "table partitions")
	workers := flag.Int("workers", 0, "cap on a scan's workers, one per 2048-row chunk read (0 = up to one per partition)")
	stats := flag.Bool("stats", false, "print execution statistics after each statement")
	command := flag.String("c", "", "execute this statement and exit")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/queries and /debug/pprof on this address")
	connect := flag.String("connect", "", "connect to a twmd server at this address instead of embedding the engine")
	user := flag.String("user", "sqlsh", "user name reported to the server (with -connect)")
	flag.Parse()
	showStats = *stats

	var eng engine
	if *connect != "" {
		pool, err := client.Open(client.Config{Addr: *connect, User: *user, PoolSize: 1})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sqlsh:", err)
			os.Exit(1)
		}
		if err := pool.Ping(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "sqlsh: cannot reach %s: %v\n", *connect, err)
			os.Exit(1)
		}
		eng = &remoteEngine{pool: pool}
	} else {
		db, err := statsudf.Open(statsudf.Options{Dir: *dir, Partitions: *partitions, Workers: *workers})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sqlsh:", err)
			os.Exit(1)
		}
		if *debugAddr != "" {
			srv, err := db.ServeDebug(*debugAddr)
			if err != nil {
				fmt.Fprintln(os.Stderr, "sqlsh:", err)
				os.Exit(1)
			}
			defer srv.Close()
			fmt.Fprintf(os.Stderr, "sqlsh: debug endpoint on http://%s/metrics\n", srv.Addr)
		}
		eng = &localEngine{db: db}
	}
	defer eng.Close()

	if *command != "" {
		if err := runStatement(eng, *command, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "sqlsh:", err)
			os.Exit(1)
		}
		return
	}
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "sqlsh:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := runScript(eng, f, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "sqlsh:", err)
			os.Exit(1)
		}
		return
	}
	repl(eng, os.Stdin, os.Stdout)
}

// localEngine embeds the database in-process.
type localEngine struct {
	db *statsudf.DB
}

func (l *localEngine) Run(sql string) (*exec.Result, error)    { return l.db.Exec(sql) }
func (l *localEngine) Script(sql string) (*exec.Result, error) { return l.db.ExecScript(sql) }
func (l *localEngine) Close() error                            { return l.db.Close() }

func (l *localEngine) Tables(out io.Writer) {
	names := l.db.Engine().TableNames()
	sort.Strings(names)
	for _, n := range names {
		t, err := l.db.Engine().Table(n)
		if err != nil {
			continue
		}
		fmt.Fprintf(out, "%s  (%d rows)\n", n, t.NumRows())
	}
	views := l.db.Engine().ViewNames()
	sort.Strings(views)
	for _, n := range views {
		fmt.Fprintf(out, "%s  (view)\n", n)
	}
	for _, n := range l.db.Engine().SysTableNames() {
		fmt.Fprintf(out, "%s  (system)\n", n)
	}
}

func (l *localEngine) Describe(name string, out io.Writer) {
	t, err := l.db.Engine().Table(name)
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	fmt.Fprintf(out, "%s %s, %d rows in %d partitions\n",
		t.Name(), t.Schema(), t.NumRows(), t.Partitions())
}

// remoteEngine sends statements to a twmd over the wire protocol.
type remoteEngine struct {
	pool *client.Pool
}

// toResult adapts a wire result to the local result shape, decoding
// the server's execution statistics so \stats and EXPLAIN ANALYZE work
// over the wire too.
func toResult(rows *client.Rows) *exec.Result {
	res := &exec.Result{Schema: rows.Schema, Rows: rows.Rows, Affected: rows.Affected}
	if rows.StatsJSON != "" {
		var st exec.Stats
		if err := json.Unmarshal([]byte(rows.StatsJSON), &st); err == nil {
			res.Stats = &st
		}
	}
	return res
}

func (r *remoteEngine) Run(sql string) (*exec.Result, error) {
	rows, err := r.pool.Query(context.Background(), sql)
	if err != nil {
		return nil, err
	}
	return toResult(rows), nil
}

func (r *remoteEngine) Script(sql string) (*exec.Result, error) {
	rows, err := r.pool.Exec(context.Background(), sql)
	if err != nil {
		return nil, err
	}
	return toResult(rows), nil
}

func (r *remoteEngine) Close() error { return r.pool.Close() }

func (r *remoteEngine) Tables(out io.Writer) {
	res, err := r.Run("SELECT name, num_rows FROM sys.tables ORDER BY name")
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	for _, row := range res.Rows {
		fmt.Fprintf(out, "%s  (%s rows)\n", row[0].Str(), row[1].String())
	}
	for _, n := range enginedb.SystemTableNames() {
		fmt.Fprintf(out, "%s  (system)\n", n)
	}
	fmt.Fprintln(out, "sys.sessions  (system)")
}

func (r *remoteEngine) Describe(name string, out io.Writer) {
	res, err := r.Run(fmt.Sprintf("SELECT * FROM %s LIMIT 1", name))
	if err != nil {
		fmt.Fprintln(out, "error:", err)
		return
	}
	if res.Schema == nil {
		fmt.Fprintln(out, "error: no schema")
		return
	}
	fmt.Fprintf(out, "%s %s\n", name, res.Schema)
}

func repl(eng engine, in io.Reader, out io.Writer) {
	fmt.Fprintln(out, "statsudf sql shell — statements end with ';', \\d lists tables, \\stats toggles stats, \\q quits")
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1<<20), 1<<24)
	var pending strings.Builder
	prompt := func() {
		if pending.Len() == 0 {
			fmt.Fprint(out, "sql> ")
		} else {
			fmt.Fprint(out, "...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, "\\") {
			if quit := shellCommand(eng, trimmed, out); quit {
				return
			}
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			stmt := pending.String()
			pending.Reset()
			if err := runStatement(eng, stmt, out); err != nil {
				fmt.Fprintln(out, "error:", err)
			}
		}
		prompt()
	}
}

func shellCommand(eng engine, cmd string, out io.Writer) (quit bool) {
	switch {
	case cmd == "\\q":
		return true
	case cmd == "\\stats":
		showStats = !showStats
		if showStats {
			fmt.Fprintln(out, "stats on")
		} else {
			fmt.Fprintln(out, "stats off")
		}
	case cmd == "\\d":
		eng.Tables(out)
	case strings.HasPrefix(cmd, "\\d "):
		eng.Describe(strings.TrimSpace(cmd[3:]), out)
	default:
		fmt.Fprintln(out, "unknown command; try \\d or \\q")
	}
	return false
}

func runScript(eng engine, r io.Reader, out io.Writer) error {
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	res, err := eng.Script(string(data))
	if err != nil {
		return err
	}
	printResult(out, res)
	printStats(out, res)
	return nil
}

func runStatement(eng engine, sql string, out io.Writer) error {
	// Strip the shell's statement terminator: the client pool only
	// treats terminator-free single SELECTs as retry-eligible.
	sql = strings.TrimSuffix(strings.TrimSpace(sql), ";")
	if rest, ok := stripExplainAnalyze(sql); ok {
		return runExplainAnalyze(eng, rest, out)
	}
	res, err := eng.Run(sql)
	if err != nil {
		return err
	}
	printResult(out, res)
	printStats(out, res)
	return nil
}

// stripExplainAnalyze detects an EXPLAIN ANALYZE prefix and returns
// the wrapped statement.
func stripExplainAnalyze(sql string) (string, bool) {
	s := strings.TrimSpace(sql)
	fields := strings.Fields(s)
	if len(fields) < 3 || !strings.EqualFold(fields[0], "EXPLAIN") || !strings.EqualFold(fields[1], "ANALYZE") {
		return "", false
	}
	idx := strings.Index(strings.ToUpper(s), "ANALYZE")
	return strings.TrimSpace(s[idx+len("ANALYZE"):]), true
}

// runExplainAnalyze executes the statement and prints its span tree
// instead of its rows: per-phase wall times with per-partition scan
// detail, followed by the one-line stats summary.
func runExplainAnalyze(eng engine, sql string, out io.Writer) error {
	res, err := eng.Run(sql)
	if err != nil {
		return err
	}
	if res == nil || res.Stats == nil || res.Stats.Root == nil {
		fmt.Fprintln(out, "(no execution trace: statement did not scan)")
		return nil
	}
	fmt.Fprint(out, res.Stats.Root.RenderTree())
	fmt.Fprintf(out, "-- stats: %s\n", res.Stats)
	if res.Stats.TraceID != "" {
		// The stamped trace id: look the statement up in sys.traces /
		// sys.spans (works remotely — the id rides the stats JSON).
		fmt.Fprintf(out, "-- trace: %s\n", res.Stats.TraceID)
	}
	return nil
}

func printStats(out io.Writer, res *exec.Result) {
	if !showStats || res == nil || res.Stats == nil {
		return
	}
	fmt.Fprintf(out, "-- stats: %s\n", res.Stats)
}

func printResult(out io.Writer, res *exec.Result) {
	if res == nil {
		return
	}
	if res.Schema == nil {
		if res.Affected > 0 {
			fmt.Fprintf(out, "%d row(s) affected\n", res.Affected)
		} else {
			fmt.Fprintln(out, "ok")
		}
		return
	}
	names := res.Schema.Names()
	fmt.Fprintln(out, strings.Join(names, " | "))
	fmt.Fprintln(out, strings.Repeat("-", len(strings.Join(names, " | "))))
	const maxPrint = 200
	for i, row := range res.Rows {
		if i == maxPrint {
			fmt.Fprintf(out, "... (%d more rows)\n", len(res.Rows)-maxPrint)
			break
		}
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = renderValue(v)
		}
		fmt.Fprintln(out, strings.Join(cells, " | "))
	}
	fmt.Fprintf(out, "(%d rows)\n", len(res.Rows))
}

func renderValue(v sqltypes.Value) string {
	s := v.String()
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}
