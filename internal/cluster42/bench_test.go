package cluster42_test

import (
	"math/rand"
	"testing"

	"github.com/eoml/eoml/internal/cluster42"
)

// BenchmarkAblationLinkage is the linkage ablation: Ward against
// average linkage on 300 points in six clusters, reporting the
// within-cluster SSE each reaches.
func BenchmarkAblationLinkage(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	data := make([][]float32, 300)
	for i := range data {
		row := make([]float32, 16)
		center := float32(i % 6 * 10)
		for d := range row {
			row[d] = center + float32(r.NormFloat64())
		}
		data[i] = row
	}
	for _, linkage := range []cluster42.Linkage{cluster42.Ward, cluster42.Average} {
		linkage := linkage
		b.Run(linkage.String(), func(b *testing.B) {
			var sse float64
			for i := 0; i < b.N; i++ {
				res, err := cluster42.Agglomerate(data, 6, linkage)
				if err != nil {
					b.Fatal(err)
				}
				sse, err = cluster42.WithinSSE(data, res.Centroids, res.Labels)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(sse, "within-SSE")
		})
	}
}
