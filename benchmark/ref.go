package main

import (
	"bytes"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"time"
)

// The reference kernel. Most of the time the sandbox's other tenants do
// not take the CPUs away (steal time stays at zero) but share the cores'
// caches and memory system: the program runs up to 1.8x slower for
// minutes on end, and no statistic over one run's latencies sees through
// that. So the
// generator reads the machine's speed beside the operations. Between
// operations it times a fixed piece of work of the program's own kind —
// decimal text parsed into freshly allocated rows of floats, which are
// then summed — and every latency is divided by the slowdown the readings
// around it show. Of the kernels tried (a register-only loop, a 16 MB
// stream, a pointer chase through 32 MB, and mixes of them) only this one
// slowed down as the five workloads do.
//
// At other times the host does take the CPUs away, a third of them for a
// quarter of an hour. That shows as steal time in /proc/stat, which is
// read with every reading of the kernel: a latency is also multiplied by
// the share of CPU time that was not stolen around it. See README.md,
// "Reference speed".
const (
	// refFloats is how many numbers one reading parses.
	refFloats = 7500
	// refNominal is a reading's time on this sandbox when it is quiet; a
	// reading of twice that is a slowdown of 2.
	refNominal = 900 * time.Microsecond
	// refGap is how long a client lets pass between two readings: one
	// after every operation of the build, ingest and cluster workloads,
	// one in about 400 point requests.
	refGap = 25 * time.Millisecond
	// refSpan is how many readings on either side the slowdown at a
	// reading is the median of.
	refSpan = 4
)

// refText is the kernel's input: the same numbers in every run of every
// workload, whatever the seed.
var refText = func() []byte {
	rng := rand.New(rand.NewSource(1))
	var b []byte
	for i := 0; i < refFloats; i++ {
		b = strconv.AppendFloat(b, rng.NormFloat64()*100, 'g', -1, 64)
		b = append(b, ',')
	}
	return b
}()

var refSink float64

// refRead times one pass of the kernel.
func refRead() time.Duration {
	t0 := time.Now()
	var rows [][]float64
	row := make([]float64, 0, 8)
	start := 0
	for i, c := range refText {
		if c != ',' {
			continue
		}
		v, _ := strconv.ParseFloat(string(refText[start:i]), 64)
		start = i + 1
		if row = append(row, v); len(row) == cap(row) {
			rows = append(rows, row)
			row = make([]float64, 0, 8)
		}
	}
	var s float64
	for _, r := range rows {
		for _, v := range r {
			s += v
		}
	}
	refSink = s
	return time.Since(t0)
}

// slowdownNow is the machine's slowdown from five readings on the spot;
// set-ups are bracketed by it.
func slowdownNow() float64 {
	d := make([]time.Duration, 5)
	for i := range d {
		d[i] = refRead()
	}
	return float64(medianDuration(d)) / float64(refNominal)
}

// stolenCPU reads the CPU time the host has taken from this machine so
// far, summed over its CPUs: the steal column of /proc/stat, which counts
// in hundredths of a second. Zero where there is no such file.
func stolenCPU() time.Duration {
	b, _ := os.ReadFile("/proc/stat")
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 {
		return 0
	}
	ticks, _ := strconv.ParseInt(string(f[8]), 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond
}

// stolenShare is the share of the machine's CPU time that was stolen over
// a stretch of wall time.
func stolenShare(stolen, wall time.Duration) float64 {
	if wall <= 0 {
		return 0
	}
	return min(0.9, max(0, float64(stolen)/(float64(runtime.NumCPU())*float64(wall))))
}

// refReadings are one client's readings in a window: reading k was taken
// after the client's operation at[k] (-1: before its first), when[k]
// after the window opened, with stolen[k] of CPU time stolen so far.
type refReadings struct {
	dur    []time.Duration
	at     []int
	when   []time.Duration
	stolen []time.Duration
}

func (r *refReadings) take(at int, start time.Time) {
	r.dur = append(r.dur, refRead())
	r.at = append(r.at, at)
	r.when = append(r.when, time.Since(start))
	r.stolen = append(r.stolen, stolenCPU())
}

// around returns, for each of the client's n operations, the slowdown
// factor and the stolen share of the stretch of refSpan readings on
// either side of the nearest one: the median of those readings over
// refNominal, and the CPU time stolen between the first and the last of
// them over the CPU time there was.
func (r *refReadings) around(n int) (slow, stolen []float64) {
	smooth := make([]float64, len(r.dur))
	share := make([]float64, len(r.dur))
	for k := range r.dur {
		lo, hi := max(0, k-refSpan), min(len(r.dur)-1, k+refSpan)
		smooth[k] = float64(medianDuration(r.dur[lo:hi+1])) / float64(refNominal)
		share[k] = stolenShare(r.stolen[hi]-r.stolen[lo], r.when[hi]-r.when[lo])
	}
	slow, stolen = make([]float64, n), make([]float64, n)
	k := 0
	for i := range slow {
		// the nearest reading: the last one taken before operation i, or
		// the next when that is closer
		for k+1 < len(r.at) && r.at[k+1] < i {
			k++
		}
		near := k
		if k+1 < len(r.at) && r.at[k+1]-i < i-r.at[k] {
			near = k + 1
		}
		slow[i], stolen[i] = smooth[near], share[near]
	}
	return slow, stolen
}
