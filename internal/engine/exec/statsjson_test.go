package exec

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strconv"
	"testing"
	"time"
)

// Strings that exercise every branch of appendJSONString: plain ASCII
// is copied, anything json.Marshal escapes is handed to it.
var jsonNames = []string{
	"", "statement", "scan[p3]", "a\"b", `back\slash`, "<script>", "R&D", "x>y",
	"tab\there", "nul\x00", "\x1f", "\x7f", "é", "naïve", "  ",
	"\xff\xfe invalid utf-8", "日本", "scan[p" + "\U0001F600" + "]",
}

// jsonZones covers UTC, local time, half-hour and second-granular
// offsets either side of UTC, and offsets json.Marshal refuses.
var jsonZones = []*time.Location{
	time.UTC,
	time.Local,
	time.FixedZone("IST", 5*3600+30*60),
	time.FixedZone("odd", 5*3600+30*60+17),
	time.FixedZone("west", -(9*3600 + 45*60 + 59)),
	time.FixedZone("edge", 23*3600+59*60),
	time.FixedZone("over", 24*3600),
	time.FixedZone("far", -100*3600),
}

// randTime draws zero times, times carrying a monotonic reading, times
// across [0,9999] in any zone and, rarely, years json.Marshal refuses.
func randTime(rng *rand.Rand) time.Time {
	switch rng.Intn(24) {
	case 0:
		return time.Time{}
	case 1:
		return time.Now()
	case 2:
		return time.Now().Add(time.Duration(rng.Int63n(int64(time.Hour))))
	case 3:
		return time.Date(10000+rng.Intn(5), 1, 1, 0, 0, 0, 0, time.UTC)
	case 4:
		return time.Date(-rng.Intn(3)-1, 6, 1, 0, 0, 0, 0, time.UTC)
	}
	sec := rng.Int63n(253402300799) // 0001..9999
	t := time.Unix(sec-62135596800, rng.Int63n(1e9)*int64(rng.Intn(2)))
	return t.In(jsonZones[rng.Intn(len(jsonZones))])
}

func randSpan(rng *rand.Rand, depth int) *Span {
	if rng.Intn(10) == 0 {
		return nil
	}
	sp := &Span{
		Name:  jsonNames[rng.Intn(len(jsonNames))],
		Start: randTime(rng),
		End:   randTime(rng),
	}
	if rng.Intn(2) == 0 {
		sp.ID = jsonNames[rng.Intn(len(jsonNames))]
	}
	if rng.Intn(2) == 0 {
		sp.Rows = rng.Int63() - rng.Int63()
	}
	if rng.Intn(2) == 0 {
		sp.Bytes = rng.Int63()
	}
	if rng.Intn(2) == 0 {
		sp.Source = []string{"block", "float", "row", "<odd>"}[rng.Intn(4)]
	}
	if depth > 0 {
		switch rng.Intn(3) {
		case 0:
		case 1:
			sp.Children = []*Span{}
		default:
			for i := rng.Intn(5); i >= 0; i-- {
				sp.Children = append(sp.Children, randSpan(rng, depth-1))
			}
		}
	}
	return sp
}

func randStats(rng *rand.Rand) *Stats {
	st := &Stats{
		Partitions:  rng.Intn(64) - 2,
		Workers:     rng.Intn(64),
		RowsScanned: rng.Int63(),
		BytesRead:   rng.Int63() - rng.Int63(),
		RowsEmitted: rng.Int63n(1000),
		Plan:        time.Duration(rng.Int63n(1e9)),
		Scan:        time.Duration(rng.Int63()),
		Merge:       time.Duration(-rng.Int63n(10)),
		Finalize:    time.Duration(rng.Int63n(1e6)),
		Total:       time.Duration(rng.Int63()),
	}
	switch rng.Intn(3) {
	case 0: // nil
	case 1:
		st.PartitionRows = []int64{}
	default:
		for i := rng.Intn(9); i >= 0; i-- {
			st.PartitionRows = append(st.PartitionRows, rng.Int63()-rng.Int63())
		}
	}
	if rng.Intn(4) > 0 {
		st.Root = randSpan(rng, 3)
	}
	if rng.Intn(2) == 0 {
		st.TraceID = jsonNames[rng.Intn(len(jsonNames))]
	}
	return st
}

// requireMarshalBytes asserts AppendJSON equals json.Marshal byte for
// byte, appends after whatever the buffer holds, and appends nothing
// exactly when json.Marshal fails.
func requireMarshalBytes(t *testing.T, st *Stats) {
	t.Helper()
	want, err := json.Marshal(st)
	got := st.AppendJSON(nil)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendJSON:\n%s\njson.Marshal (err %v):\n%s", got, err, want)
	}
	if (err != nil) != (len(got) == 0) {
		t.Fatalf("json.Marshal error %v, but AppendJSON wrote %d bytes", err, len(got))
	}
	prefix := []byte("prefix:")
	if got := st.AppendJSON(prefix); !bytes.Equal(got, append(prefix, want...)) {
		t.Fatalf("AppendJSON after a prefix:\n%s", got)
	}
}

// TestStatsAppendJSON pins the Done frame's statistics to json.Marshal
// over random statistics and span trees, and over what a real scan
// records.
func TestStatsAppendJSON(t *testing.T) {
	requireMarshalBytes(t, nil)
	requireMarshalBytes(t, &Stats{})
	requireMarshalBytes(t, &Stats{Root: &Span{Children: []*Span{nil, {}}}})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		requireMarshalBytes(t, randStats(rng))
	}
	st := &Stats{}
	root := st.ensureRoot()
	for p := 0; p < 4; p++ {
		sp := root.child("scan[p" + strconv.Itoa(p) + "]")
		sp.Rows, sp.Source = int64(p), "block"
		sp.finish()
	}
	st.Total = root.finish()
	requireMarshalBytes(t, st)
}

// FuzzStatsJSON drives one span tree's names, times and zone from the
// fuzzer; shape's bits pick nil and empty slices, nil children and a
// monotonic reading.
func FuzzStatsJSON(f *testing.F) {
	f.Add("scan[p0]", "block", "0123456789abcdef", int64(1700000000123456789), int32(0), int64(42), uint16(0))
	f.Add("a\"<b>&\\", " ", "", int64(-62135596800000000), int32(19800), int64(0), uint16(0xffff))
	f.Add("é", "\xff", "trace", int64(0), int32(86400), int64(-1), uint16(0x5555))
	f.Fuzz(func(t *testing.T, name, source, traceID string, unixNano int64, offset int32, rows int64, shape uint16) {
		at := time.Unix(0, unixNano).In(time.FixedZone("f", int(offset)))
		if shape&1 != 0 {
			at = time.Now()
		}
		leaf := &Span{Name: name, ID: traceID, Start: at, End: at.Add(time.Duration(rows)), Rows: rows, Bytes: -rows, Source: source}
		root := &Span{Name: source, Start: at.AddDate(int(rows%20000), 0, 0), End: at}
		switch shape >> 1 & 3 {
		case 1:
			root.Children = []*Span{}
		case 2:
			root.Children = []*Span{leaf, nil, leaf}
		case 3:
			root.Children = []*Span{{Name: name, Children: []*Span{leaf}}}
		}
		st := &Stats{Partitions: int(offset), RowsScanned: rows, Total: time.Duration(unixNano), TraceID: traceID}
		switch shape >> 3 & 3 {
		case 1:
			st.PartitionRows = []int64{}
		case 2:
			st.PartitionRows = []int64{rows, unixNano, int64(offset)}
		}
		if shape&32 == 0 {
			st.Root = root
		}
		requireMarshalBytes(t, st)
	})
}
