package core

import (
	"fmt"
	"testing"

	"erasmus/internal/sim"
)

// BenchmarkVerifyHistory is the audit tier's in-package number: one clean
// stateless verification of k records (HMAC-SHA256, as on the benchmark's
// audit-full workload), every record's MAC recomputed on the collection's
// keyed context. The three cache modes price the MAC cache against a
// ~210 ns miss: off, every record a hit (the same history re-verified),
// and every record a miss (two histories alternating through a k-entry
// cache, so each evicts the other).
func BenchmarkVerifyHistory(b *testing.B) {
	memory := []byte("clean image")
	modes := []struct {
		name      string
		cacheSize func(k int) int
		histories int
	}{
		{"cache=off", func(int) int { return 0 }, 1},
		{"cache=hit", func(int) int { return 4096 }, 1},
		{"cache=miss", func(k int) int { return k }, 2},
	}
	for _, k := range []int{8, 32, 64} {
		for _, mode := range modes {
			b.Run(fmt.Sprintf("k=%d/%s", k, mode.name), func(b *testing.B) {
				v, err := NewVerifier(VerifierConfig{
					Alg: alg, Key: testKey,
					GoldenHashes: [][]byte{goldenFor(memory)},
					MinGap:       sim.Hour - sim.Minute, MaxGap: sim.Hour + sim.Minute,
					MACCacheSize: mode.cacheSize(k),
				})
				if err != nil {
					b.Fatal(err)
				}
				hists := make([][]Record, mode.histories)
				for i := range hists {
					hists[i] = history(k, uint64(1000+100*i)*uint64(sim.Hour), sim.Hour, memory)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					recs := hists[i%len(hists)]
					if rep := v.VerifyHistory(recs, recs[0].T+uint64(sim.Minute), k); !rep.Healthy() {
						b.Fatalf("clean history judged %+v", rep)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k), "ns/record")
			})
		}
	}
}
