package harness

import (
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/wire"
)

// runClusterScale (a7) pits the paper's scale-up answer — one engine,
// many partitions — against scale-out: the same workload sharded over
// 2 and 4 twmd nodes behind a cluster coordinator. Each arm loads the
// identical row set, then builds n,L,Q cold (every shard scans its
// slice) and warm (every shard answers from its summary cache and the
// coordinator only re-merges the partials). The interesting ratio is
// cold-build time, where scan parallelism across processes should pay;
// the warm build measures the floor the coordinator's merge adds.
func runClusterScale(cfg Config) ([]*Table, error) {
	const dims = 8
	n := cfg.rows(100)
	t := &Table{
		ID:    "a7",
		Title: fmt.Sprintf("Distributed scale-out: n,L,Q build over shard fleets vs one process (n=%d, d=%d)", n, dims),
		Header: []string{
			"topology", "load s", "cold n,L,Q s", "warm n,L,Q s", "cold speedup",
		},
		Note: "cold scans every partition; warm is served from the shards' summary caches with only the coordinator's partial merge on top.",
	}

	stmts := clusterWorkload(n, dims, cfg.Seed)

	// Scale-up baseline: one in-memory engine with the full partition
	// budget, the configuration every other experiment measures.
	d, err := openMem(cfg.Partitions)
	if err != nil {
		return nil, err
	}
	base, err := runClusterArm(cfg, n, stmts, d.Engine())
	if err != nil {
		return nil, err
	}
	t.add(fmt.Sprintf("1 process (%d partitions)", cfg.Partitions), base.load, base.cold, base.warm, number("%.2fx", 1))

	for _, shards := range []int{2, 4} {
		fleet, err := runFleetArm(cfg, shards, n, stmts)
		if err != nil {
			return nil, err
		}
		t.add(fmt.Sprintf("%d shards + coordinator", shards), fleet.load, fleet.cold, fleet.warm,
			ratio("%.2fx", base.cold.Seconds(), fleet.cold.Seconds()))
	}

	// Partial-failure leg: a dead shard must surface as a typed
	// shard_unavailable, not a hang — and the attempt moves
	// engine_cluster_shard_errors_total, which CI's -check-metrics
	// asserts on.
	if err := clusterKillOneShard(cfg); err != nil {
		return nil, err
	}
	t.Note += " A shard was killed after the measurements and the next build failed fast with shard_unavailable."
	return []*Table{t}, nil
}

// clusterArmResult carries one topology's measurements.
type clusterArmResult struct {
	load, cold time.Duration
	warm       []Timing
}

// runFleetArm is runClusterArm through a coordinator over a fresh fleet
// of in-process shards.
func runFleetArm(cfg Config, shards, n int, stmts []string) (clusterArmResult, error) {
	f, err := openCluster(cfg, shards)
	if err != nil {
		return clusterArmResult{}, err
	}
	defer f.close()
	return runClusterArm(cfg, n, stmts, f.coord)
}

// runClusterArm loads the workload through one topology — the
// scale-up engine and the coordinator take the same statement text
// through the same server.Engine entry, parse included — and measures
// the cold and warm n,L,Q builds.
func runClusterArm(cfg Config, n int, stmts []string, eng server.Engine) (clusterArmResult, error) {
	var a clusterArmResult
	start := time.Now()
	if err := loadStatements(cfg, eng, stmts); err != nil {
		return a, err
	}
	a.load = time.Since(start)

	start = time.Now()
	if _, _, err := eng.SummaryNLQ(cfg.ctx(), "CX", nil, core.Triangular); err != nil {
		return a, err
	}
	a.cold = time.Since(start)

	// a7 has no dataset — its load is the measured statement workload —
	// so the warm arm runs against an env carrying only the run's config.
	var err error
	a.warm, err = (&env{cfg: cfg}).time(arm{"warm n,L,Q", func(*env) error {
		s, hit, err := eng.SummaryNLQ(cfg.ctx(), "CX", nil, core.Triangular)
		if err != nil {
			return err
		}
		if !hit {
			return fmt.Errorf("a7: warm n,L,Q build missed the summary cache")
		}
		if s.N != float64(n) {
			return fmt.Errorf("a7: summary n=%g, want %d", s.N, n)
		}
		return nil
	}})
	return a, err
}

// loadStatements sends each statement's text through the engine.
func loadStatements(cfg Config, eng server.Engine, stmts []string) error {
	for _, sql := range stmts {
		if err := cfg.ctx().Err(); err != nil {
			return err
		}
		if _, err := eng.QueryContext(cfg.ctx(), sql, nil); err != nil {
			return err
		}
	}
	return nil
}

// fleet is one coordinator over in-process shard servers.
type fleet struct {
	coord   *cluster.Coordinator
	servers []*server.Server
}

// close drains the whole fleet, coordinator first.
func (f *fleet) close() {
	if f.coord != nil {
		f.coord.Close()
	}
	for _, srv := range f.servers {
		srv.Close()
	}
}

// openCluster boots `shards` in-process twmd shard nodes (each owning
// an equal slice of the partition budget) plus a coordinator over
// them.
func openCluster(cfg Config, shards int) (_ *fleet, err error) {
	f := &fleet{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	per := max(cfg.Partitions/shards, 1)
	addrs := make([]string, 0, shards)
	for i := 0; i < shards; i++ {
		sd, err := openMem(per)
		if err != nil {
			return nil, err
		}
		srv, err := serve(sd.Engine())
		if err != nil {
			return nil, err
		}
		f.servers = append(f.servers, srv)
		addrs = append(addrs, srv.Addr())
	}
	local, err := openMem(0)
	if err != nil {
		return nil, err
	}
	f.coord, err = cluster.New(local.Engine(), cluster.Config{Shards: addrs, Partitions: cfg.Partitions, User: "bench-a7", PoolSize: 2})
	return f, err
}

// clusterKillOneShard boots the smallest fleet, loads a sliver, kills
// one shard, and demands the next build fail fast with the typed
// cluster error.
func clusterKillOneShard(cfg Config) error {
	f, err := openCluster(cfg, 2)
	if err != nil {
		return err
	}
	defer f.close()
	if err := loadStatements(cfg, f.coord, clusterWorkload(40, 2, cfg.Seed+1)); err != nil {
		return err
	}
	f.servers[1].Close() // the fleet loses a shard mid-service
	_, _, err = f.coord.SummaryNLQ(cfg.ctx(), "CX", nil, core.Triangular)
	if err == nil {
		return fmt.Errorf("a7: n,L,Q build over a dead shard succeeded")
	}
	var we *wire.Error
	if !errors.As(err, &we) || we.Code != wire.CodeShardUnavailable {
		return fmt.Errorf("a7: dead-shard build failed untyped: %w", err)
	}
	return nil
}

// clusterWorkload renders the deterministic CX load: one CREATE TABLE
// followed by batched literal INSERTs, the exact text every arm (local
// or coordinator) executes.
func clusterWorkload(n, dims int, seed int64) []string {
	const batch = 200
	rng := rand.New(rand.NewSource(seed))
	cols := make([]string, dims)
	for j := range cols {
		cols[j] = "x" + strconv.Itoa(j+1)
	}
	texts := []string{"CREATE TABLE CX (" + strings.Join(cols, " DOUBLE, ") + " DOUBLE)"}
	for at := 0; at < n; at += batch {
		m := min(batch, n-at)
		var b strings.Builder
		b.WriteString("INSERT INTO CX (" + strings.Join(cols, ", ") + ") VALUES ")
		for r := 0; r < m; r++ {
			if r > 0 {
				b.WriteString(", ")
			}
			b.WriteByte('(')
			for j := 0; j < dims; j++ {
				if j > 0 {
					b.WriteString(", ")
				}
				b.WriteString(strconv.FormatFloat(float64(rng.Intn(2000))/8, 'g', -1, 64))
			}
			b.WriteByte(')')
		}
		texts = append(texts, b.String())
	}
	return texts
}
