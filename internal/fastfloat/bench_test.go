package fastfloat_test

import (
	"strconv"
	"testing"

	"repro/internal/fastfloat"
	"repro/internal/synth"
)

var sink float64

// BenchmarkParseFloat converts the fields of a synthetic CSV — the
// paper's mixture data formatted 'g' 17, as WriteCSV writes them — with
// strconv and with Parse.
func BenchmarkParseFloat(b *testing.B) {
	pts, err := synth.Points(synth.Config{N: 256, D: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var fields []string
	for _, p := range pts {
		for _, v := range p {
			fields = append(fields, strconv.FormatFloat(v, 'g', 17, 64))
		}
	}
	for _, arm := range []struct {
		name  string
		parse func(string) (float64, error)
	}{
		{"strconv", func(s string) (float64, error) { return strconv.ParseFloat(s, 64) }},
		{"fastfloat", fastfloat.Parse},
	} {
		b.Run(arm.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for _, s := range fields {
					f, err := arm.parse(s)
					if err != nil {
						b.Fatal(err)
					}
					sink += f
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fields)), "ns/field")
		})
	}
}
