package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	statsudf "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine/db"
	"repro/internal/engine/exec"
	"repro/internal/engine/sqltypes"
	"repro/internal/nlqudf"
	"repro/internal/score"
	"repro/internal/server"
	"repro/internal/sqlgen"
	"repro/internal/synth"
	"repro/pkg/client"
)

const (
	shards       = 2
	insertBatch  = 512 // rows per INSERT statement sent to the coordinator
	shardParts   = partitions / shards
	clusterTable = "X"
)

// clusterWorkload is build_udf's statement over build_udf's data,
// issued by a client to a server that fronts a coordinator over two
// in-process shard servers.
type clusterWorkload struct {
	cfg     config
	gen     synth.Config
	cols    []string
	oracle  *nlqOracle
	want    *core.NLQ // each shard's partials merged, then the shard sums
	sql     string
	create  string
	inserts []string // the load, rendered before any clock starts
}

func newClusterWorkload(cfg config) (*clusterWorkload, error) {
	w := &clusterWorkload{cfg: cfg, cols: statsudf.DimColumns(cfg.sz.dims)}
	w.gen = synth.Config{N: cfg.sz.buildRows, D: cfg.sz.dims, Seed: cfg.seed}
	w.sql = sqlgen.NLQUDFQuery(clusterTable, w.cols, core.Triangular, sqlgen.ListStyle)
	var err error
	if w.oracle, err = newNLQOracle(w.gen); err != nil {
		return nil, err
	}
	// Shard s owns logical partitions [s*shardParts, (s+1)*shardParts)
	// and merges them locally before the coordinator merges the shards.
	groups := make([][]int, shards)
	for p := 0; p < partitions; p++ {
		groups[p/shardParts] = append(groups[p/shardParts], p)
	}
	if w.want, err = w.oracle.merged(groups); err != nil {
		return nil, err
	}

	typed := make([]string, len(w.cols))
	for i, c := range w.cols {
		typed[i] = c + " DOUBLE"
	}
	w.create = fmt.Sprintf("CREATE TABLE %s (i BIGINT, %s)", clusterTable, strings.Join(typed, ", "))
	var b strings.Builder
	inBatch := 0
	flush := func() {
		if inBatch > 0 {
			w.inserts = append(w.inserts, b.String())
			b.Reset()
			inBatch = 0
		}
	}
	err = synth.Stream(w.gen, func(i int64, x []float64) error {
		if inBatch == 0 {
			b.WriteString("INSERT INTO " + clusterTable + " VALUES ")
		} else {
			b.WriteString(", ")
		}
		b.WriteString("(" + strconv.FormatInt(i, 10))
		for _, v := range x {
			// Shortest round-trip form: the shard stores the same bits.
			b.WriteString(", " + strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteString(")")
		if inBatch++; inBatch == insertBatch {
			flush()
		}
		return nil
	})
	flush()
	return w, err
}

func (w *clusterWorkload) clients() int   { return 1 }
func (w *clusterWorkload) warmupOps() int { return w.cfg.sz.warmupOps }

type clusterInstance struct {
	w         *clusterWorkload
	shardDBs  []*db.DB
	shardSrvs []*server.Server
	coord     *cluster.Coordinator
	front     *server.Server
	pool      *client.Pool
	loadRate  float64 // rows per second through the coordinator
}

func (w *clusterWorkload) setUp(dir string) (inst instance, err error) {
	in := &clusterInstance{w: w}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	var addrs []string
	for s := 0; s < shards; s++ {
		sd, err := db.OpenDir(db.Options{Dir: filepath.Join(dir, fmt.Sprintf("shard%d", s)), Partitions: shardParts, SlowQuery: time.Hour})
		if err != nil {
			return nil, err
		}
		if err := nlqudf.Register(sd); err != nil {
			return nil, err
		}
		if err := score.Register(sd); err != nil {
			return nil, err
		}
		srv := server.New(sd, server.Config{Addr: "127.0.0.1:0"})
		if err := srv.Start(); err != nil {
			return nil, err
		}
		in.shardDBs, in.shardSrvs = append(in.shardDBs, sd), append(in.shardSrvs, srv)
		addrs = append(addrs, srv.Addr())
	}
	local := db.Open(db.Options{SlowQuery: time.Hour})
	if err := nlqudf.Register(local); err != nil {
		return nil, err
	}
	in.coord, err = cluster.New(local, cluster.Config{Shards: addrs, Partitions: partitions, User: "benchmark", PoolSize: 2})
	if err != nil {
		return nil, err
	}
	in.front = server.New(in.coord, server.Config{Addr: "127.0.0.1:0"})
	if err := in.front.Start(); err != nil {
		return nil, err
	}
	in.pool, err = client.Open(client.Config{Addr: in.front.Addr(), User: "benchmark", PoolSize: 1})
	if err != nil {
		return nil, err
	}
	if _, err := in.pool.Exec(bg, w.create); err != nil {
		return nil, err
	}
	t0 := time.Now()
	for _, ins := range w.inserts {
		if _, err := in.pool.Exec(bg, ins); err != nil {
			return nil, err
		}
	}
	in.loadRate = float64(w.gen.N) / time.Since(t0).Seconds()
	return in, nil
}

func (in *clusterInstance) close() error {
	if in.pool != nil {
		in.pool.Close()
	}
	if in.front != nil {
		in.front.Close()
	}
	if in.coord != nil {
		in.coord.Close()
	}
	for _, s := range in.shardSrvs {
		s.Close()
	}
	for _, d := range in.shardDBs {
		d.Close()
	}
	return nil
}

func (in *clusterInstance) stored() (disk, user int64) {
	for _, sd := range in.shardDBs {
		d, u := tableBytes(sd, clusterTable)
		disk, user = disk+d, user+u
	}
	return disk, user
}

func (in *clusterInstance) op(c *worker) (func() error, error) {
	w := in.w
	done := c.sc.begin("client.Pool.Query")
	rows, err := in.pool.Query(bg, w.sql)
	done()
	if err != nil {
		return nil, err
	}
	if len(rows.Rows) != 1 || len(rows.Rows[0]) != 1 {
		return nil, fmt.Errorf("summary statement returned %d rows", len(rows.Rows))
	}
	done = c.sc.begin("core.Unpack")
	s, err := core.Unpack(rows.Rows[0][0].Str())
	done()
	if err != nil {
		return nil, err
	}
	done = c.sc.begin("core.models")
	err = buildModels(s)
	done()
	return func() error { return w.oracle.check(s, w.want) }, err
}

func (in *clusterInstance) layers(lc *layerCtx) error {
	w := in.w
	lc.m["cluster.load_rows_per_s"] = in.loadRate
	if err := lc.statement(in.shardDBs[0], w.sql, false); err != nil {
		return err
	}
	// The coordinator's own account of the statement rides the reply.
	var last *client.Rows
	_, merge, _, err := lc.execStats("client.Pool.Query (statistics)", func() (*exec.Stats, error) {
		rows, err := in.pool.Query(bg, w.sql)
		if err != nil {
			return nil, err
		}
		last = rows
		var st exec.Stats
		if err := json.Unmarshal([]byte(rows.StatsJSON), &st); err != nil {
			return nil, fmt.Errorf("coordinator statistics: %w", err)
		}
		return &st, nil
	})
	if err != nil {
		return err
	}
	d, err := lc.bench("client.Pool.Ping", func() error { return in.pool.Ping(bg) })
	if err != nil {
		return err
	}
	lc.m["wire.ping_us"] = us(d)
	if err := lc.wireBatch([]sqltypes.Row{last.Rows[0]}); err != nil {
		return err
	}

	// The shard sub-queries issued directly and at once, as the
	// coordinator issues them; the slower one is what it must wait for.
	pools := make([]*client.Pool, shards)
	for s, srv := range in.shardSrvs {
		if pools[s], err = client.Open(client.Config{Addr: srv.Addr(), User: "benchmark", PoolSize: 1}); err != nil {
			return err
		}
		defer pools[s].Close()
	}
	viaCoord, direct, err := lc.alternate(w.cfg.sz.overheadCalls, "client.Pool.Query", func() error {
		_, err := in.pool.Query(bg, w.sql)
		return err
	}, "shards direct (slowest)", func() error {
		errs := make([]error, shards)
		var wg sync.WaitGroup
		for s := range pools {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				_, errs[s] = pools[s].Query(bg, w.sql)
			}(s)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lc.m["cluster.overhead_ms"] = ms(viaCoord - direct)

	// Below the hops, one shard's scan is build_udf's over half the rows;
	// both shards scan at once, so the width is the machine's.
	t, err := in.shardDBs[0].Table(clusterTable)
	if err != nil {
		return err
	}
	if err := lc.udfScan(in.shardDBs[0], t, w.sql, w.gen.N, scanWidth()); err != nil {
		return err
	}
	_, pack, unpack, models, err := lc.nlqAlgebra(w.oracle.parts)
	if err != nil {
		return err
	}
	lc.stage("shard merge + pack, coordinator unpack", pack+unpack)
	lc.stage("coordinator merge + pack", merge)
	lc.stage("client core.unpack", unpack)
	lc.stage("core.models", models)
	lc.stage("cluster.overhead (less the above)", viaCoord-direct-merge-unpack)
	return nil
}
