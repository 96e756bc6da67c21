package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"

	"repro/internal/synth"
)

// tinySizes keep the smoke test within a few seconds.
var tinySizes = sizes{
	dims: 32, buildRows: 512, colRows: 1024,
	ingestRows: 128, ingestDims: 8, ingestK: 8, ingestBatch: 2,
	serveRows: 64, schedule: 512,
	setupReps: 2, warmupOps: 2, serveWarmup: 50, layerDur: 2 * time.Millisecond, overheadCalls: 3,
}

func tinyConfig(t *testing.T, workload string, seed int64, traced bool) config {
	return config{workload: workload, seed: seed, seconds: 100 * time.Millisecond, traced: traced, outDir: t.TempDir(), sz: tinySizes}
}

type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return doc
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if !reflect.DeepEqual(doc.Workloads, workloadSpecs) {
		t.Errorf("workloads differ:\n json %v\n spec %v", doc.Workloads, workloadSpecs)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEndSpecs) {
		t.Errorf("end_to_end differs:\n json %v\n spec %v", doc.EndToEnd, endToEndSpecs)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayerSpecs) {
		t.Errorf("per_layer differs:\n json %v\n spec %v", doc.PerLayer, perLayerSpecs)
	}
	if doc.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, spec %d", doc.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) || !reflect.DeepEqual(doc.Command, []string{"go", "run", "./benchmark"}) {
		t.Errorf("command %v paths %v", doc.Command, doc.Paths)
	}
	if len(doc.PerLayer) > 128 || len(doc.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the limits", len(doc.PerLayer), len(doc.EndToEnd))
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metricSpec{}, doc.EndToEnd...), doc.PerLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or repeated", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || (m.Better != lower && m.Better != higher) {
			t.Errorf("metric %s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower)
	}
	for _, m := range doc.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s end-to-end metric")
	}
	for _, w := range doc.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q is malformed or repeated", w.Name)
		}
		seen[w.Name] = true
	}
	for _, name := range countMetrics {
		if _, ok := specByName(perLayerSpecs)[name]; !ok {
			t.Errorf("count metric %s is not a per-layer metric", name)
		}
	}
}

// checkEmitted asserts that a run emitted exactly the declared metrics,
// each with its declared unit, and that every operation was correct.
func checkEmitted(t *testing.T, rec *runRecord, specs []metricSpec) {
	t.Helper()
	if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
		t.Errorf("%s: correct %v, %d failed of %d: %s", rec.Workload, rec.Correct, rec.Failed, rec.Attempted, rec.FirstError)
	}
	want := specByName(specs)
	for name, m := range rec.Metrics {
		s, ok := want[name]
		if !ok {
			t.Errorf("%s: emitted undeclared metric %s", rec.Workload, name)
		} else if m.Unit != s.Unit || m.Unit == "" {
			t.Errorf("%s: metric %s has unit %q, declared %q", rec.Workload, name, m.Unit, s.Unit)
		}
	}
	for name := range want {
		if _, ok := rec.Metrics[name]; !ok {
			t.Errorf("%s: declared metric %s was not emitted", rec.Workload, name)
		}
	}
}

// TestWorkloads runs every workload and its traced run at tiny sizes.
// It asserts that the metric names emitted are exactly the ones
// declared, that every operation was correct, and that the count
// metrics repeat exactly on the same seed and do not move with the seed.
func TestWorkloads(t *testing.T) {
	for _, w := range workloadSpecs {
		rec, err := runWorkload(tinyConfig(t, w.Name, 7, false))
		if err != nil {
			t.Fatal(err)
		}
		checkEmitted(t, rec, endToEndSpecs)
		for name, m := range rec.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.Name, name, m.Value)
			}
		}

		cfg := tinyConfig(t, w.Name, 7, true)
		if rec, err = runWorkload(cfg); err != nil {
			t.Fatal(err)
		}
		checkEmitted(t, rec, perLayerSpecs)
		for _, zero := range []string{"storage.columnar_fallbacks", "server.admission_rejects", "client.retries", "cluster.shard_errors"} {
			if v := rec.Metrics[zero].Value; v != 0 {
				t.Errorf("%s: %s = %g, want 0", w.Name, zero, v)
			}
		}
		if len(rec.Budget) < 3 || rec.Budget[len(rec.Budget)-2].Stage != "bench.unattributed" {
			t.Errorf("%s: where-the-time-goes table lacks its unattributed row: %v", w.Name, rec.Budget)
		}
		if _, err := os.Stat(filepath.Join(cfg.outDir, "trace_"+w.Name+".json")); err != nil {
			t.Errorf("%s: span dump: %v", w.Name, err)
		}
		// The last line of a report is the result object, with exactly
		// the four contract keys.
		var out bytes.Buffer
		if err := printRecord(&out, rec); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
		var last map[string]json.RawMessage
		if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || len(last) != 4 {
			t.Errorf("%s: last line %q: %v", w.Name, lines[len(lines)-1], err)
		}

		counts := func(rec *runRecord) map[string]float64 {
			out := map[string]float64{}
			for _, name := range countMetrics {
				out[name] = rec.Metrics[name].Value
			}
			return out
		}
		again, err := runWorkload(tinyConfig(t, w.Name, 7, true))
		if err != nil {
			t.Fatal(err)
		}
		other, err := runWorkload(tinyConfig(t, w.Name, 8, true))
		if err != nil {
			t.Fatal(err)
		}
		a, b, c := counts(rec), counts(again), counts(other)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different counts:\n %v\n %v", w.Name, a, b)
		}
		if w.Name == "cluster_build" {
			// Its one result row is the packed summary, whose text length
			// follows the digits of the data.
			delete(a, "wire.bytes_per_row")
			delete(c, "wire.bytes_per_row")
		}
		if !reflect.DeepEqual(a, c) {
			t.Errorf("%s: another seed changed the counts:\n %v\n %v", w.Name, a, c)
		}
	}
}

// inputs returns a workload's generated inputs in comparable form.
func inputs(t *testing.T, name string, seed int64) any {
	t.Helper()
	wl, err := newWorkload(tinyConfig(t, name, seed, true))
	if err != nil {
		t.Fatal(err)
	}
	switch w := wl.(type) {
	case *buildWorkload:
		var csv bytes.Buffer
		if _, err := synth.WriteCSV(&csv, w.gen); err != nil {
			t.Fatal(err)
		}
		return []any{csv.Bytes(), w.oracle.seq, w.oracle.parts, w.oracle.posX3, w.sql, w.projSQL}
	case *ingestWorkload:
		return []any{w.batches, w.reg, w.km, w.regSQL, w.kmSQL}
	case *serveWorkload:
		return []any{w.points, w.schedule}
	case *clusterWorkload:
		return []any{w.inserts, w.create, w.oracle.seq, w.sql}
	}
	t.Fatalf("unknown workload type %T", wl)
	return nil
}

// TestSeedDeterminism: the same seed generates byte-identical inputs,
// another seed different ones.
func TestSeedDeterminism(t *testing.T) {
	for _, w := range workloadSpecs {
		if !reflect.DeepEqual(inputs(t, w.Name, 11), inputs(t, w.Name, 11)) {
			t.Errorf("%s: the same seed generated different inputs", w.Name)
		}
		if reflect.DeepEqual(inputs(t, w.Name, 11), inputs(t, w.Name, 12)) {
			t.Errorf("%s: another seed generated the same inputs", w.Name)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	p50 := specByName(endToEndSpecs)["op_p50_ms"]
	thr := specByName(endToEndSpecs)["ops_per_s"]
	for _, c := range []struct {
		m                metricSpec
		old, new, spread float64
		want             string
	}{
		{p50, 10, 10.2, 0.01, unchanged},
		{p50, 10, 10 * (1 + p50.Bound + 0.01), 0.01, regressed},
		{p50, 10, 9, 0.01, improved},
		{p50, 10, 20, p50.Bound + 0.01, unresolved},
		{thr, 100, 100 * (1 - thr.Bound - 0.01), 0.01, regressed},
		{thr, 100, 120, 0.01, improved},
	} {
		if got, _ := verdict(c.m, c.old, c.new, c.spread); got != c.want {
			t.Errorf("%s %g -> %g (spread %g): %s, want %s", c.m.Name, c.old, c.new, c.spread, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 8, 16, 32, 64, 128, 256, 512], n=4)
	q1, q2, q3 := quartiles([]float64{512, 1, 2, 4, 8, 16, 32, 64, 128, 256})
	if q1 != 3.5 || q2 != 24 || q3 != 160 {
		t.Errorf("quartiles = %g %g %g, want 3.5 24 160", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) extrapolates.
	if q1, q2, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles = %g %g %g, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestRefSpeed(t *testing.T) {
	// One reading before each of ten operations, 30 ms apart: the machine
	// is at nominal speed for the first five and twice as slow for the
	// rest, and over the last nine readings the host steals 60 ms of the
	// CPU time there was.
	r := refReadings{}
	for i := 0; i < 10; i++ {
		d := refNominal
		if i >= 5 {
			d = 2 * refNominal
		}
		var stolen time.Duration
		if i == 9 {
			stolen = 60 * time.Millisecond
		}
		r.dur, r.at = append(r.dur, d), append(r.at, i-1)
		r.when, r.stolen = append(r.when, time.Duration(i)*30*time.Millisecond), append(r.stolen, stolen)
	}
	slow, stolen := r.around(10)
	if slow[0] != 1 || slow[9] != 2 {
		t.Fatalf("slowdowns = %v, want 1 at the start and 2 at the end", slow)
	}
	for i := 1; i < len(slow); i++ {
		if slow[i] < slow[i-1] {
			t.Fatalf("slowdowns = %v, want non-decreasing", slow)
		}
	}
	// the stretch around the first operation ends before the theft; the one
	// around the last spans readings 5..9: 60 ms of 120 ms x CPUs
	want := 0.5 / float64(runtime.NumCPU())
	if stolen[0] != 0 || math.Abs(stolen[9]-want) > 1e-9 {
		t.Fatalf("stolen shares = %v, want 0 at the start and %g at the end", stolen, want)
	}
	w := &window{lat: []time.Duration{10, 10}, cycle: []time.Duration{20, 20}, slow: []float64{1, 2}, stolen: []float64{0, 0.5}}
	w.toRefSpeed()
	if w.lat[0] != 10 || w.cycle[0] != 20 || w.lat[1] != 2 || w.cycle[1] != 5 {
		t.Fatalf("toRefSpeed: lat %v cycle %v", w.lat, w.cycle)
	}
}
