// Command twmd is the network daemon: it opens (or creates) a
// database, registers the paper's UDFs, and serves the wire protocol
// so remote clients — sqlsh -connect, pkg/client pools, the bench
// harness — can create tables, build models, and score without linking
// the engine.
//
//	twmd -addr :7780 -dir data/ [-partitions 20] [-max-statements 64]
//	     [-max-waiting 64] [-idle-timeout 5m] [-batch-rows 256]
//	     [-debug-addr :6060] [-warm-summaries=false]
//	     [-log-level info] [-log-format json] [-slow-query 250ms]
//	     [-trace-sample 16]
//
// With -coordinator the daemon serves the same wire protocol but owns
// no rows: statements are planned as push-down subqueries against the
// shard fleet named by -shards (comma-separated addresses of plain
// twmd processes, in shard-id order) and their partial results are
// merged locally. sys.shards on the coordinator shows fleet health;
// -shard-id stamps a shard's own log lines with its position so a
// fleet's interleaved stderr is attributable.
//
//	twmd -coordinator -shards 127.0.0.1:7781,127.0.0.1:7782 -addr :7780
//	twmd -shard-id 0 -addr :7781 & twmd -shard-id 1 -addr :7782 &
//
// All daemon output is structured logging on stderr (JSON by default,
// one object per line) through log/slog; the engine's slow-query lines
// land in the same stream, each carrying its trace_id so a log line
// joins against sys.traces / /debug/traces. Every log record also
// feeds an in-memory flight recorder: on SIGQUIT (and on panic) the
// recent trace and log events are dumped to stderr for post-mortem.
//
// On startup (unless -warm-summaries=false) the daemon pre-warms the
// incremental summary cache for every reopened table that has DOUBLE
// columns: one scan per table up front, after which model builds
// served over the wire run from the cache, reading at most the rows
// appended since the last build.
//
// SIGINT/SIGTERM triggers a graceful shutdown: the listener stops
// accepting, in-flight statements are cancelled through their run
// contexts, sessions drain (bounded by -drain-timeout), final metrics
// are flushed to stderr in Prometheus text format, and the process
// exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine/obs"
	"repro/internal/server"

	statsudf "repro"
)

// twmdConfig carries the parsed flags into run.
type twmdConfig struct {
	addr          string
	dir           string
	partitions    int
	workers       int
	maxStatements int
	maxWaiting    int
	idleTimeout   time.Duration
	batchRows     int
	drainTimeout  time.Duration
	debugAddr     string
	warmSummaries bool
	slowQuery     time.Duration
	traceSample   int

	coordinator bool
	shards      string
	shardID     int
}

func main() {
	var cfg twmdConfig
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:7780", "address to serve the wire protocol on")
	flag.StringVar(&cfg.dir, "dir", "", "database directory (empty = in-memory)")
	flag.IntVar(&cfg.partitions, "partitions", 20, "table partitions")
	flag.IntVar(&cfg.workers, "workers", 0, "cap on a scan's workers, one per 2048-row chunk read (0 = up to one per partition)")
	flag.IntVar(&cfg.maxStatements, "max-statements", 0, "admission control: max concurrently executing statements (0 = default)")
	flag.IntVar(&cfg.maxWaiting, "max-waiting", 0, "admission control: max statements queued for a slot (0 = same as max-statements, negative = fail fast)")
	flag.DurationVar(&cfg.idleTimeout, "idle-timeout", 0, "drop connections idle longer than this (0 = default)")
	flag.IntVar(&cfg.batchRows, "batch-rows", 0, "rows per streamed result batch (0 = default)")
	flag.DurationVar(&cfg.drainTimeout, "drain-timeout", 15*time.Second, "graceful shutdown: how long to wait for sessions to drain")
	flag.StringVar(&cfg.debugAddr, "debug-addr", "", "serve /metrics, /debug/queries, /debug/traces and /debug/pprof on this address")
	flag.BoolVar(&cfg.warmSummaries, "warm-summaries", true, "pre-warm the summary cache for reopened tables at startup")
	flag.DurationVar(&cfg.slowQuery, "slow-query", 0, "log statements at or over this duration and retain their traces (0 = engine default)")
	flag.IntVar(&cfg.traceSample, "trace-sample", 0, "tail sampling: retain 1-in-N healthy traces (0 = engine default, 1 = all)")
	flag.BoolVar(&cfg.coordinator, "coordinator", false, "serve as a cluster coordinator over the shard fleet in -shards instead of storing rows locally")
	flag.StringVar(&cfg.shards, "shards", "", "comma-separated shard addresses, in shard-id order (requires -coordinator)")
	flag.IntVar(&cfg.shardID, "shard-id", -1, "this shard's position in the coordinator's -shards list; stamps log lines (-1 = standalone)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	logFormat := flag.String("log-format", "json", "log line format: json or text")
	flag.Parse()

	if err := setupLogging(*logLevel, *logFormat); err != nil {
		fmt.Fprintln(os.Stderr, "twmd:", err)
		os.Exit(1)
	}
	if cfg.shardID >= 0 {
		slog.SetDefault(slog.Default().With(slog.Int("shard_id", cfg.shardID)))
	}
	dumpFlightOnSigquit()
	defer func() {
		// A crashing daemon dumps the flight ring — the recent trace and
		// log events leading up to the panic — before dying.
		if r := recover(); r != nil {
			obs.Flight.WriteTo(os.Stderr)
			panic(r)
		}
	}()

	if err := run(cfg); err != nil {
		slog.Error("fatal", slog.String("error", err.Error()))
		os.Exit(1)
	}
}

// setupLogging installs the process-wide slog handler: leveled JSON (or
// text) on stderr, with every record teed into the flight recorder at
// all levels — the ring sees debug events even when stderr does not.
func setupLogging(level, format string) error {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var inner slog.Handler
	switch format {
	case "json":
		inner = slog.NewJSONHandler(os.Stderr, opts)
	case "text":
		inner = slog.NewTextHandler(os.Stderr, opts)
	default:
		return fmt.Errorf("bad -log-format %q: want json or text", format)
	}
	slog.SetDefault(slog.New(obs.NewFlightHandler(inner)))
	return nil
}

// dumpFlightOnSigquit dumps the flight ring on SIGQUIT without dying,
// so an operator can snapshot a live daemon's recent events.
func dumpFlightOnSigquit() {
	q := make(chan os.Signal, 1)
	signal.Notify(q, syscall.SIGQUIT)
	go func() {
		for range q {
			obs.Flight.WriteTo(os.Stderr)
		}
	}()
}

func run(cfg twmdConfig) error {
	if cfg.coordinator {
		return runCoordinator(cfg)
	}
	if cfg.shards != "" {
		return fmt.Errorf("-shards requires -coordinator")
	}
	d, err := statsudf.Open(statsudf.Options{
		Dir: cfg.dir, Partitions: cfg.partitions, Workers: cfg.workers,
		SlowQuery: cfg.slowQuery, TraceSampleN: cfg.traceSample,
	})
	if err != nil {
		return err
	}
	defer d.Close()

	if cfg.warmSummaries {
		warmSummaryCache(d)
	}

	if cfg.debugAddr != "" {
		dbg, err := d.ServeDebug(cfg.debugAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
		slog.Info("debug endpoint up", slog.String("addr", dbg.Addr))
	}

	return serve(cfg, d.Engine())
}

// runCoordinator serves the wire protocol with the cluster
// coordinator as the engine: a rowless local instance holds the
// catalog mirror, UDF registries, sys.* views and the coordinator's
// own query/trace observability, while every data-bearing statement
// fans out to the -shards fleet.
func runCoordinator(cfg twmdConfig) error {
	if cfg.shards == "" {
		return fmt.Errorf("-coordinator requires -shards")
	}
	if cfg.dir != "" {
		return fmt.Errorf("-coordinator stores no rows; drop -dir (shards own the data directories)")
	}
	local, err := statsudf.Open(statsudf.Options{
		Workers: cfg.workers, SlowQuery: cfg.slowQuery, TraceSampleN: cfg.traceSample,
	})
	if err != nil {
		return err
	}
	defer local.Close()

	coord, err := cluster.New(local.Engine(), cluster.Config{
		Shards:     strings.Split(cfg.shards, ","),
		Partitions: cfg.partitions,
	})
	if err != nil {
		return err
	}
	defer coord.Close()
	slog.Info("coordinating shard fleet",
		slog.Int("shards", coord.Shards()),
		slog.Int("partitions", cfg.partitions))

	if cfg.debugAddr != "" {
		dbg, err := local.ServeDebug(cfg.debugAddr)
		if err != nil {
			return err
		}
		defer dbg.Close()
		slog.Info("debug endpoint up", slog.String("addr", dbg.Addr))
	}

	return serve(cfg, coord)
}

// serve fronts eng with the wire server until SIGINT/SIGTERM, then
// drains the sessions, flushes the final metrics and says goodbye.
func serve(cfg twmdConfig, eng server.Engine) error {
	srv := server.New(eng, server.Config{
		Addr:          cfg.addr,
		MaxStatements: cfg.maxStatements,
		MaxWaiting:    cfg.maxWaiting,
		IdleTimeout:   cfg.idleTimeout,
		BatchRows:     cfg.batchRows,
	})
	if err := srv.Start(); err != nil {
		return err
	}
	slog.Info("serving wire protocol",
		slog.String("addr", srv.Addr()),
		slog.String("server_version", server.Version),
		slog.Bool("coordinator", cfg.coordinator))

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // a second signal kills immediately

	slog.Info("signal received, draining sessions")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		slog.Warn("drain incomplete", slog.String("error", err.Error()))
	}
	fmt.Fprintln(os.Stderr, "twmd: final metrics:")
	obs.Default.WritePrometheus(os.Stderr)
	slog.Info("bye")
	return nil
}

// warmSummaryCache pays one scan per reopened table now so the first
// model build a client issues runs from the cache. Tables without
// numeric columns (or otherwise unwarmable) are skipped with a note —
// the cache cold-starts them on first use.
func warmSummaryCache(d *statsudf.DB) {
	eng := d.Engine()
	for _, name := range eng.TableNames() {
		if _, _, err := eng.SummaryNLQ(context.Background(), name, nil, core.Triangular); err != nil {
			slog.Info("summary warm skipped", slog.String("table", name), slog.String("error", err.Error()))
			continue
		}
		slog.Info("summary cache warmed", slog.String("table", name))
	}
}
