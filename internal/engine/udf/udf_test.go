package udf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/engine/sqltypes"
)

func TestHeapAccounting(t *testing.T) {
	h := NewHeap(100)
	if err := h.Alloc(60); err != nil {
		t.Fatal(err)
	}
	if err := h.Alloc(40); err != nil {
		t.Fatal(err)
	}
	if err := h.Alloc(1); err == nil {
		t.Fatal("over-allocation must fail")
	}
	if h.Used() != 100 || h.Limit() != 100 {
		t.Fatalf("used=%d limit=%d", h.Used(), h.Limit())
	}
	if err := h.Alloc(-1); err == nil {
		t.Fatal("negative allocation must fail")
	}
}

func TestHeapAllocFloats(t *testing.T) {
	h := NewHeap(SegmentSize)
	// The paper's MAX_d: a 64×64 Q plus L must fit in 64 KB; 90×90 must not.
	if _, err := h.AllocFloats(64*64 + 64); err != nil {
		t.Fatalf("64-dim state must fit: %v", err)
	}
	h2 := NewHeap(SegmentSize)
	if _, err := h2.AllocFloats(96*96 + 96); err == nil {
		t.Fatal("96-dim state must exceed the segment")
	}
}

func runAgg(t *testing.T, name string, rows [][]sqltypes.Value) sqltypes.Value {
	t.Helper()
	r := NewRegistry()
	agg, ok := r.Lookup(name)
	if !ok {
		t.Fatalf("aggregate %q missing", name)
	}
	// Exercise the full 4-phase protocol with two partitions.
	s1, err := agg.Init(NewHeap(SegmentSize))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := agg.Init(NewHeap(SegmentSize))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range rows {
		s := s1
		if i%2 == 1 {
			s = s2
		}
		if err := agg.Accumulate(s, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := agg.Merge(s1, s2); err != nil {
		t.Fatal(err)
	}
	v, err := agg.Finalize(s1)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func vrow(f float64) []sqltypes.Value { return []sqltypes.Value{sqltypes.NewDouble(f)} }

func TestStandardAggregates(t *testing.T) {
	rows := [][]sqltypes.Value{vrow(1), vrow(2), vrow(3), {sqltypes.Null}, vrow(4)}
	if v := runAgg(t, "sum", rows); v.MustFloat() != 10 {
		t.Errorf("sum = %v", v)
	}
	if v := runAgg(t, "count", rows); v.Int() != 4 { // NULLs ignored
		t.Errorf("count = %v", v)
	}
	if v := runAgg(t, "avg", rows); v.MustFloat() != 2.5 {
		t.Errorf("avg = %v", v)
	}
	if v := runAgg(t, "min", rows); v.MustFloat() != 1 {
		t.Errorf("min = %v", v)
	}
	if v := runAgg(t, "max", rows); v.MustFloat() != 4 {
		t.Errorf("max = %v", v)
	}
}

func TestCountStar(t *testing.T) {
	rows := [][]sqltypes.Value{{}, {}, {}}
	if v := runAgg(t, "count", rows); v.Int() != 3 {
		t.Errorf("count(*) = %v", v)
	}
}

func TestEmptyAggregates(t *testing.T) {
	if v := runAgg(t, "sum", nil); !v.IsNull() {
		t.Errorf("sum of empty = %v, want NULL", v)
	}
	if v := runAgg(t, "count", nil); v.Int() != 0 {
		t.Errorf("count of empty = %v, want 0", v)
	}
	if v := runAgg(t, "min", nil); !v.IsNull() {
		t.Errorf("min of empty = %v, want NULL", v)
	}
}

func TestMinMaxStrings(t *testing.T) {
	rows := [][]sqltypes.Value{
		{sqltypes.NewVarChar("pear")},
		{sqltypes.NewVarChar("apple")},
		{sqltypes.NewVarChar("fig")},
	}
	if v := runAgg(t, "min", rows); v.Str() != "apple" {
		t.Errorf("min = %v", v)
	}
	if v := runAgg(t, "max", rows); v.Str() != "pear" {
		t.Errorf("max = %v", v)
	}
}

func TestCheckArgs(t *testing.T) {
	r := NewRegistry()
	sum, _ := r.Lookup("sum")
	if err := sum.CheckArgs(1); err != nil {
		t.Error(err)
	}
	if err := sum.CheckArgs(2); err == nil {
		t.Error("sum(a,b) must be rejected")
	}
	cnt, _ := r.Lookup("count")
	if err := cnt.CheckArgs(0); err != nil {
		t.Error("count(*) must be allowed")
	}
}

func TestMergeIsCommutativeOverPartitioning(t *testing.T) {
	// Property: however rows are split between two partial states, the
	// merged sum matches the sequential sum. This is the correctness
	// contract the paper's phase-3 parallel merge relies on.
	f := func(vals []float64, split uint8) bool {
		r := NewRegistry()
		agg, _ := r.Lookup("sum")
		seq, _ := agg.Init(NewHeap(SegmentSize))
		p1, _ := agg.Init(NewHeap(SegmentSize))
		p2, _ := agg.Init(NewHeap(SegmentSize))
		var want float64
		for i, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			// Bound magnitudes so the running sum cannot overflow.
			v = math.Mod(v, 1e9)
			_ = agg.Accumulate(seq, vrow(v))
			want += math.Abs(v)
			if i%max(int(split%7)+1, 1) == 0 {
				_ = agg.Accumulate(p1, vrow(v))
			} else {
				_ = agg.Accumulate(p2, vrow(v))
			}
		}
		_ = agg.Merge(p1, p2)
		got, _ := agg.Finalize(p1)
		ref, _ := agg.Finalize(seq)
		if len(vals) == 0 {
			return got.IsNull() && ref.IsNull()
		}
		g, _ := got.Float()
		r2, _ := ref.Float()
		scale := math.Max(1, math.Abs(want))
		return math.Abs(g-r2) <= 1e-9*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPackUnpackFloats(t *testing.T) {
	f := func(vals []float64) bool {
		for _, v := range vals {
			if math.IsNaN(v) {
				return true
			}
		}
		got, err := UnpackFloats(PackFloats(vals))
		if err != nil {
			return false
		}
		if len(got) != len(vals) {
			return len(vals) == 0 && len(got) == 0
		}
		for i := range vals {
			if got[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := UnpackFloats("1|x|3"); err == nil {
		t.Fatal("bad packed float must error")
	}
}

func TestRegistryRegisterAndNames(t *testing.T) {
	r := NewRegistry()
	names := r.Names()
	for _, want := range []string{"sum", "count", "avg", "min", "max"} {
		if !names[want] {
			t.Errorf("standard aggregate %q missing", want)
		}
	}
	if err := r.Register(simpleAgg{name: ""}); err == nil {
		t.Error("empty-name aggregate must be rejected")
	}
}

// FuzzUnpackFloats feeds arbitrary text to the pipe-separated vector
// parser: nlq_str runs it on a VARCHAR built from table data for every
// row. It must not panic, and whatever it accepts must survive a
// PackFloats/UnpackFloats round trip bit for bit.
func FuzzUnpackFloats(f *testing.F) {
	f.Add("")
	f.Add("1|2.5|-3e300")
	f.Add(" 1 | 2 ")
	f.Add("NaN|Inf|-Inf|-0")
	f.Add("1||2")
	f.Add("0x1p-2|1_000")
	f.Fuzz(func(t *testing.T, s string) {
		v, err := UnpackFloats(s)
		if err != nil {
			return
		}
		again, err := UnpackFloats(PackFloats(v))
		if err != nil {
			t.Fatalf("UnpackFloats accepted %q but rejects its own re-pack: %v", s, err)
		}
		if len(again) != len(v) {
			t.Fatalf("round trip of %q changed length %d -> %d", s, len(v), len(again))
		}
		for i := range v {
			if math.Float64bits(again[i]) != math.Float64bits(v[i]) && !(math.IsNaN(v[i]) && math.IsNaN(again[i])) {
				t.Fatalf("round trip of %q changed value %d: %v -> %v", s, i, v[i], again[i])
			}
		}
	})
}
