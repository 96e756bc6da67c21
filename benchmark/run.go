package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/engine/obs"
)

// partitions is fixed so that per-operation counts do not depend on
// the host; Workers stays at the engine default (one per partition).
const partitions = 4

// sizes are the workload dimensions. fullSizes is what the benchmark
// measures; the smoke test shrinks them.
type sizes struct {
	dims        int // build_udf, build_columnar, serve_point, cluster_build
	buildRows   int // build_udf and cluster_build (same data on the same seed)
	colRows     int // build_columnar
	ingestRows  int // rows per imported batch
	ingestDims  int
	ingestK     int // k-means centroids scored against
	ingestBatch int // distinct pre-rendered CSV batches, cycled
	serveRows   int
	schedule    int           // pre-rendered requests per serve_point client, cycled
	setupReps   int           // set-ups per untraced run; setup_s is their median
	warmupOps   int           // per client, at the end of every set-up
	serveWarmup int           // the same for serve_point's much shorter requests
	layerDur    time.Duration // measuring time of one layer replay
	// overheadCalls is how many statements through the coordinator, and
	// as many issued to the shards directly, cluster.overhead_ms rests on.
	overheadCalls int
}

var fullSizes = sizes{
	dims: 32, buildRows: 32768, colRows: 65536,
	ingestRows: 4096, ingestDims: 8, ingestK: 8, ingestBatch: 4,
	serveRows: 128, schedule: 32768,
	setupReps: 3, warmupOps: 10, serveWarmup: 4000, layerDur: 150 * time.Millisecond, overheadCalls: 40,
}

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	outDir   string
	sz       sizes
}

// workload renders its inputs and oracle from the seed when it is
// constructed; setUp is the program's own set-up and may run several
// times on the same inputs.
type workload interface {
	clients() int
	// warmupOps is how many operations each client issues, untimed, at
	// the end of every set-up.
	warmupOps() int
	setUp(dir string) (instance, error)
}

// worker is one closed-loop generator goroutine.
type worker struct {
	id   int
	seq  int    // operations issued so far by this client
	sc   *scope // nil unless traced
	kind uint8  // set by op: request class of the last operation
}

// instance is one set-up of a workload's system under test.
type instance interface {
	// op runs one operation. The returned check verifies the outputs
	// against the oracle; it runs after the operation's clock stops.
	op(c *worker) (check func() error, err error)
	// stored reports the bytes at rest of the user tables and the bytes
	// of user data in them (8 per cell); zero for in-memory tables.
	stored() (disk, user int64)
	// layers replays the operation's stages through each layer's public
	// functions (traced run only).
	layers(lc *layerCtx) error
	close() error
}

func newWorkload(cfg config) (workload, error) {
	switch cfg.workload {
	case "build_udf":
		return newBuildWorkload(cfg, false)
	case "build_columnar":
		return newBuildWorkload(cfg, true)
	case "ingest_score":
		return newIngestWorkload(cfg)
	case "serve_point":
		return newServeWorkload(cfg)
	case "cluster_build":
		return newClusterWorkload(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

// window is the outcome of one closed-loop measurement interval.
type window struct {
	wall      time.Duration
	lat       []time.Duration // per completed operation
	end       []time.Duration // when each completed, since the window opened
	cycle     []time.Duration // latency plus the generator's check of the outputs
	kind      []uint8         // its request class
	slow      []float64       // the machine's slowdown around it (ref.go); nil when no readings were asked for
	stolen    []float64       // the share of CPU time the host took around it
	readings  []time.Duration // every reference reading of the window
	attempted int64
	failed    int64
	firstErr  error
	generator time.Duration // time spent in checks, outside latencies
	scopes    []*scope
}

func (w *window) opsPerSec() float64 {
	return float64(w.attempted-w.failed) / w.wall.Seconds()
}

// toRefSpeed divides every latency and cycle by the slowdown around it
// and multiplies it by the share of CPU time that was not stolen: from
// here on the window's times are what they would have been with the
// reference kernel at its nominal speed and the CPUs left alone.
func (w *window) toRefSpeed() {
	for i, f := range w.slow {
		f /= 1 - w.stolen[i]
		w.lat[i] = time.Duration(float64(w.lat[i]) / f)
		w.cycle[i] = time.Duration(float64(w.cycle[i]) / f)
	}
}

// maxSetupRetries bounds the failed set-ups one run repeats.
const maxSetupRetries = 2

// quietSlices is how many equal slices of time a window is cut into.
const quietSlices = 80

// quietQuarter returns the operations (as indexes into lat) of the
// quiet quarter of the window. Dividing by the slowdown takes out the
// slow swell of the sandbox's interference; what is left are bursts of
// tens of milliseconds that hit an operation and miss the reading beside
// it. The window is cut into equal slices by completion time, the slices
// are ranked by the share of CPU time stolen around their operations (in
// steps of 2 %) and then by their median latency (one in which nothing
// completed ranks last), and the best quarter is pooled. What the program
// itself does in every slice stays in; a stall that recurs in fewer than
// three quarters of them is filtered like interference, which is why the
// whole-window numbers are printed beside these.
func (w *window) quietQuarter() []int {
	n := quietSlices
	if len(w.lat) < 4*n {
		n = max(1, len(w.lat)/4)
	}
	slices := make([][]int, n)
	for i := range w.lat {
		k := min(int(int64(w.end[i])*int64(n)/int64(w.wall)), n-1)
		slices[k] = append(slices[k], i)
	}
	order := make([]int, n)
	stolen := make([]int, n) // in steps of 2 %
	lat := make([]time.Duration, n)
	for k, s := range slices {
		order[k] = k
		if len(s) == 0 {
			stolen[k] = math.MaxInt
			continue
		}
		lat[k] = medianDuration(w.pick(w.lat, s))
		if w.stolen != nil {
			var sum float64
			for _, op := range s {
				sum += w.stolen[op]
			}
			stolen[k] = int(sum / float64(len(s)) / 0.02)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if stolen[a] != stolen[b] {
			return stolen[a] < stolen[b]
		}
		return lat[a] < lat[b]
	})
	var ops []int
	for _, k := range order[:max(1, n/4)] {
		ops = append(ops, slices[k]...)
	}
	return ops
}

func (w *window) pick(from []time.Duration, ops []int) []time.Duration {
	out := make([]time.Duration, len(ops))
	for i, op := range ops {
		out[i] = from[op]
	}
	return out
}

// quietRate is the window's ops_per_s: the closed-loop rate of its
// quiet quarter.
func (w *window) quietRate(clients int) float64 {
	return closedLoopRate(clients, w.pick(w.cycle, w.quietQuarter()))
}

// closedLoopRate is the throughput of clients closed loops whose
// operations took the given cycles (latency plus the generator's
// check): clients over the mean cycle.
func closedLoopRate(clients int, cycles []time.Duration) float64 {
	var sum time.Duration
	for _, c := range cycles {
		sum += c
	}
	return float64(clients) * float64(len(cycles)) / sum.Seconds()
}

// drive runs the closed loop: every client issues its next operation
// only after the previous one completed and was checked. It stops
// after dur, or once every client has issued ops operations when ops
// is positive. With ref set, every client takes a reading of the
// reference kernel before its first operation and then before the next
// one once refGap has passed since its last; readings lie outside
// latencies and cycles.
func drive(inst instance, clients []*worker, dur time.Duration, ops int, ref bool) *window {
	type part struct {
		lat      []time.Duration
		end      []time.Duration
		cycle    []time.Duration
		kind     []uint8
		failed   int64
		firstErr error
		ref      refReadings
	}
	parts := make([]part, len(clients))
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(p *part, c *worker) {
			defer wg.Done()
			var lastRef time.Time
			for n := 0; time.Now().Before(deadline) && (ops <= 0 || n < ops); n++ {
				if ref && time.Since(lastRef) >= refGap {
					p.ref.take(n-1, start)
					lastRef = time.Now()
				}
				if c.sc != nil {
					c.sc.op = c.seq
				}
				done := c.sc.begin("op")
				t0 := time.Now()
				check, err := inst.op(c)
				t1 := time.Now()
				done()
				c.seq++
				if err == nil && check != nil {
					err = check()
				}
				p.lat = append(p.lat, t1.Sub(t0))
				p.end = append(p.end, t1.Sub(start))
				p.cycle = append(p.cycle, time.Since(t0))
				p.kind = append(p.kind, c.kind)
				if err != nil {
					p.failed++
					if p.firstErr == nil {
						p.firstErr = err
					}
				}
			}
		}(&parts[i], c)
	}
	wg.Wait()
	w := &window{wall: time.Since(start)}
	for i, p := range parts {
		w.lat = append(w.lat, p.lat...)
		w.end = append(w.end, p.end...)
		w.cycle = append(w.cycle, p.cycle...)
		w.kind = append(w.kind, p.kind...)
		if ref {
			slow, stolen := p.ref.around(len(p.lat))
			w.slow, w.stolen = append(w.slow, slow...), append(w.stolen, stolen...)
			w.readings = append(w.readings, p.ref.dur...)
		}
		w.attempted += int64(len(p.lat))
		w.failed += p.failed
		if w.firstErr == nil {
			w.firstErr = p.firstErr
		}
		w.scopes = append(w.scopes, clients[i].sc)
	}
	for i := range w.lat {
		w.generator += w.cycle[i] - w.lat[i]
	}
	return w
}

func newWorkers(n int) []*worker {
	cs := make([]*worker, n)
	for i := range cs {
		cs[i] = &worker{id: i}
	}
	return cs
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is the numeric record of one run: the result plus what is
// needed to repeat and compare it.
type runRecord struct {
	result
	Workload string  `json:"workload"`
	Traced   bool    `json:"traced"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Clients  int     `json:"clients"`
	Samples  int     `json:"samples"` // latency samples behind op_p50_ms and op_p95_ms
	// Whole holds the same three statistics over the whole timed window
	// as the clock read them: interference included, reference readings
	// counted in the wall time.
	Whole map[string]float64 `json:"whole_window,omitempty"`
	// Ref describes the window's reference readings; SetupsRaw the
	// set-ups as the clock read them.
	Ref       map[string]float64 `json:"reference_kernel,omitempty"`
	SetupsRaw []float64          `json:"setups_raw_s,omitempty"`
	WarmupOps int64              `json:"warmup_ops"`
	// SetupRetries counts set-ups that failed and were repeated;
	// SetupError is the last such failure.
	SetupRetries int        `json:"setup_retries,omitempty"`
	SetupError   string     `json:"setup_error,omitempty"`
	FailRatio    float64    `json:"fail_ratio"`
	StoredB      int64      `json:"stored_bytes"`
	UserB        int64      `json:"user_bytes"`
	FirstError   string     `json:"first_error,omitempty"`
	Budget       []stageRow `json:"where_the_time_goes,omitempty"`
	// Live is the traced window's own spans: the median self time (a
	// span less its children) of every public call of the operation.
	Live []stageRow `json:"traced_calls_self_time,omitempty"`
}

// stageRow is one row of the traced run's "where the time goes" table.
type stageRow struct {
	Stage string  `json:"stage"`
	Ms    float64 `json:"ms_per_op"`
	Share float64 `json:"share_of_op_p50"`
}

// runWorkload is one benchmark run of one workload in this process.
func runWorkload(cfg config) (*runRecord, error) {
	// Slow-query WARN lines would otherwise be timed as I/O.
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil)))
	work := filepath.Join(cfg.outDir, fmt.Sprintf("tmp-%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)

	wl, err := newWorkload(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: generating inputs: %w", cfg.workload, err)
	}
	rec := &runRecord{
		Workload: cfg.workload, Traced: cfg.traced, Seed: cfg.seed,
		Seconds: cfg.seconds.Seconds(), Clients: wl.clients(),
	}
	rec.Metrics = map[string]metricValue{}

	reps := cfg.sz.setupReps
	if cfg.traced {
		reps = 1
	}
	var inst instance
	var setups []float64
	clients := newWorkers(wl.clients())
	for r := 0; r < reps; r++ {
		dir := filepath.Join(work, fmt.Sprintf("setup%d", r))
		slow, stolen := slowdownNow(), stolenCPU()
		t0 := time.Now()
		var warm *window
		if inst, err = wl.setUp(dir); err == nil {
			// Warm-up belongs to set-up: lazy segment materialisation, the
			// plan cache and the OS page cache settle before the clock starts.
			if warm = drive(inst, clients, time.Hour, wl.warmupOps(), false); warm.failed > 0 {
				err = fmt.Errorf("warm-up: %d of %d operations failed: %w", warm.failed, warm.attempted, warm.firstErr)
				inst.close()
			}
		}
		if err != nil {
			// A set-up is not an operation: one that fails is repeated,
			// counted and reported (see README, "A finding"), twice at most.
			if rec.SetupRetries++; rec.SetupRetries > maxSetupRetries {
				return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
			}
			rec.SetupError = err.Error()
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
			r--
			continue
		}
		took := time.Since(t0)
		rec.SetupsRaw = append(rec.SetupsRaw, took.Seconds())
		// at reference speed: the slowdown read before and after, and the
		// CPU time stolen in between
		free := 1 - stolenShare(stolenCPU()-stolen, took)
		setups = append(setups, took.Seconds()*free/((slow+slowdownNow())/2))
		rec.WarmupOps = warm.attempted
		if r < reps-1 {
			if err := inst.close(); err != nil {
				return nil, err
			}
			if err := os.RemoveAll(dir); err != nil {
				return nil, err
			}
		}
	}
	defer inst.close()
	rec.StoredB, rec.UserB = inst.stored()

	if !cfg.traced {
		resetPeakRSS()
		w := drive(inst, clients, cfg.seconds, 0, true)
		rec.fill(w)
		all := sortedCopy(durationsMs(w.lat))
		rec.Whole = map[string]float64{
			"ops_per_s": w.opsPerSec(), "op_p50_ms": quantile(all, 0.50), "op_p95_ms": quantile(all, 0.95),
		}
		readings := sortedCopy(durationsMs(w.readings))
		rec.Ref = map[string]float64{
			"readings": float64(len(readings)), "nominal_ms": ms(refNominal),
			"p05_ms": quantile(readings, 0.05), "p50_ms": quantile(readings, 0.50), "p95_ms": quantile(readings, 0.95),
		}
		for _, s := range w.stolen {
			rec.Ref["stolen_share"] += s / float64(len(w.stolen))
		}
		w.toRefSpeed()
		quiet := w.quietQuarter()
		norm := sortedCopy(durationsMs(w.pick(w.lat, quiet)))
		rec.Samples = len(norm)
		rec.set(endToEndSpecs, "setup_s", median(setups))
		rec.set(endToEndSpecs, "ops_per_s", closedLoopRate(len(clients), w.pick(w.cycle, quiet)))
		rec.set(endToEndSpecs, "op_p50_ms", quantile(norm, 0.50))
		rec.set(endToEndSpecs, "op_p95_ms", quantile(norm, 0.95))
		rec.set(endToEndSpecs, "peak_rss_mb", peakRSSMB())
		return rec, nil
	}

	// Traced run: a short untraced window, the same window with spans
	// recorded, then the layer replays.
	before := obsCounters()
	plain := drive(inst, clients, cfg.seconds/4, 0, false)
	origin := time.Now()
	for _, c := range clients {
		c.sc = newScope(origin, c.id)
	}
	mid := obsCounters()
	traced := drive(inst, clients, cfg.seconds/4, 0, false)
	after := obsCounters()
	for _, c := range clients {
		c.sc = nil
	}
	rec.fill(traced)
	rec.Attempted += plain.attempted
	rec.Failed += plain.failed
	rec.Correct = rec.Failed == 0
	rec.Samples = len(traced.lat)

	lc := newLayerCtx(cfg, traced, counterDelta(mid, after), origin)
	if err := inst.layers(lc); err != nil {
		return nil, fmt.Errorf("%s: layer replay: %w", cfg.workload, err)
	}
	lc.common(plain, traced, counterDelta(before, after), rec)
	for _, m := range perLayerSpecs {
		rec.set(perLayerSpecs, m.Name, lc.m[m.Name])
	}
	tf := traceFile{Workload: cfg.workload, Seed: cfg.seed, Replay: lc.sc.spans}
	for _, sc := range traced.scopes {
		tf.Clients = append(tf.Clients, sc.spans)
	}
	return rec, writeJSONFile(filepath.Join(cfg.outDir, "trace_"+cfg.workload+".json"), tf)
}

func (r *runRecord) fill(w *window) {
	r.Attempted = w.attempted
	r.Failed = w.failed
	r.Correct = w.failed == 0
	if w.attempted > 0 {
		r.FailRatio = float64(w.failed) / float64(w.attempted)
	}
	if w.firstErr != nil {
		r.FirstError = w.firstErr.Error()
	}
}

func (r *runRecord) set(specs []metricSpec, name string, v float64) {
	for _, s := range specs {
		if s.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: s.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in spec.go")
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// that peak_rss_mb is the peak of the timed window: what is resident
// from set-up and the generator stays counted, but the garbage of the
// repeated set-ups does not. The heap is collected and its free spans
// are handed back first: left to the runtime's background scavenger they
// were still resident in most runs and gone in some (15 against 52 MB).
// Where the kernel refuses, the mark covers the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// obsCounters snapshots the program's own published counters (the rows
// sys.metrics serves).
func obsCounters() map[string]float64 {
	out := map[string]float64{}
	for _, s := range obs.Default.Snapshot() {
		if s.Kind == "counter" {
			out[s.Name] = s.Value
		}
	}
	return out
}

func counterDelta(a, b map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(b))
	for k, v := range b {
		out[k] = v - a[k]
	}
	return out
}

// printRecord writes the human-readable report and, as the last line,
// the result object.
func printRecord(w io.Writer, rec *runRecord) error {
	fmt.Fprintf(w, "workload %s  seed %d  clients %d  seconds %g  traced %v  GOMAXPROCS %d\n",
		rec.Workload, rec.Seed, rec.Clients, rec.Seconds, rec.Traced, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "attempted %d  failed %d  fail_ratio %g  samples %d  warm-up ops %d\n",
		rec.Attempted, rec.Failed, rec.FailRatio, rec.Samples, rec.WarmupOps)
	if rec.FirstError != "" {
		fmt.Fprintf(w, "first error: %s\n", rec.FirstError)
	}
	if rec.SetupRetries > 0 {
		fmt.Fprintf(w, "set-ups repeated after a failure: %d (last: %s)\n", rec.SetupRetries, rec.SetupError)
	}
	if rec.Whole != nil {
		fmt.Fprintf(w, "whole window, as the clock read it: %.4f ops/s, p50 %.4f ms, p95 %.4f ms; set-ups %.4f s\n",
			rec.Whole["ops_per_s"], rec.Whole["op_p50_ms"], rec.Whole["op_p95_ms"], median(rec.SetupsRaw))
		fmt.Fprintf(w, "reference kernel: %.0f readings, p05 %.4f  p50 %.4f  p95 %.4f ms against a nominal %.4f ms; %.1f %% of the CPU time was stolen (the metrics below are at reference speed, over the quiet quarter)\n",
			rec.Ref["readings"], rec.Ref["p05_ms"], rec.Ref["p50_ms"], rec.Ref["p95_ms"], rec.Ref["nominal_ms"], 100*rec.Ref["stolen_share"])
	}
	if rec.UserB > 0 {
		fmt.Fprintf(w, "stored_bytes_per_user_byte %.6f (%d / %d B; no fsync is issued: latencies are the sandbox's, not a device's)\n",
			float64(rec.StoredB)/float64(rec.UserB), rec.StoredB, rec.UserB)
	}
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Fprintf(w, "  %-38s %16.6f %s\n", n, m.Value, m.Unit)
	}
	if len(rec.Live) > 0 {
		fmt.Fprintf(w, "traced operation, median self time of each public call:\n")
		for _, row := range rec.Live {
			fmt.Fprintf(w, "  %-38s %12.4f ms %7.1f %%\n", row.Stage, row.Ms, 100*row.Share)
		}
	}
	if len(rec.Budget) > 0 {
		fmt.Fprintf(w, "where the time goes (per operation, against the traced op p50):\n")
		for _, row := range rec.Budget {
			fmt.Fprintf(w, "  %-38s %12.4f ms %7.1f %%\n", row.Stage, row.Ms, 100*row.Share)
		}
	}
	return writeResultLine(w, rec.result)
}

var bg = context.Background()
