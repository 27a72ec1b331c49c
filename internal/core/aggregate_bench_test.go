package core

import (
	"fmt"
	"testing"

	"erasmus/internal/crypto/mac"
	"erasmus/internal/sim"
)

// benchAggSetup builds an anchored aggregate round: k new records on top
// of an anchor the verifier has watermarked (chain state included), plus
// the evidence a prover would ship. Uses keyed BLAKE2s to mirror the
// fleet-facing configuration in the top-level benchmarks.
func benchAggSetup(b *testing.B, k int) (*Verifier, []Record, uint64, Watermark, AggregateEvidence) {
	b.Helper()
	const balg = mac.KeyedBLAKE2s
	// 32 bytes: BLAKE2s's native keyed mode caps keys at 32; one byte
	// more and mac.New silently folds the key through an extra hash,
	// which would skew every per-record MAC this benchmark measures.
	key := []byte("bench-device-key-0123456789abcde")
	memory := []byte("clean image")
	tm := sim.Hour
	endT := uint64(1000 * sim.Hour)
	recs := make([]Record, 0, k+1)
	for i := 0; i <= k; i++ {
		recs = append(recs, ComputeRecord(balg, key, endT-uint64(i)*uint64(tm), memory))
	}
	anchor := recs[k]
	anchorState, err := ChainOf(nil, recs[k:])
	if err != nil {
		b.Fatal(err)
	}
	head, err := ChainOf(anchorState, recs[:k])
	if err != nil {
		b.Fatal(err)
	}
	v, err := NewVerifier(VerifierConfig{
		Alg:          balg,
		Key:          key,
		GoldenHashes: [][]byte{mac.HashSum(balg, memory)},
		MinGap:       tm - sim.Minute,
		MaxGap:       tm + sim.Minute,
	})
	if err != nil {
		b.Fatal(err)
	}
	wm := Watermark{T: anchor.T, Hash: anchor.Hash, MAC: anchor.MAC, Chain: anchorState}
	agg := AggregateEvidence{
		Since:      anchor.T,
		Nonce:      7,
		AnchorHash: anchor.Hash,
		State:      head,
	}
	agg.MAC = mac.Sum(balg, key, AggMACInput(agg.Since, agg.Nonce, agg.AnchorHash, agg.State))
	now := endT + uint64(30*sim.Minute)
	return v, recs, now, wm, agg
}

// BenchmarkAggComponents decomposes one aggregate verification into its
// three costs — the hash walk, the chain-trusted grading pass, and the
// single MAC — so regressions are attributable.
func BenchmarkAggComponents(b *testing.B) {
	const k = 128
	v, recs, now, wm, agg := benchAggSetup(b, k)

	b.Run("walk", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if !walkChain(wm.Chain, recs, len(recs)-1, agg.State) {
				b.Fatal("walk diverged")
			}
		}
	})
	b.Run("grade", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]VerifiedRecord, 0, k)
		for i := 0; i < b.N; i++ {
			rep := Report{Records: buf[:0]}
			v.gradeChainTrusted(recs[:k], now, &rep)
			if len(rep.Records) != k {
				b.Fatal("grade dropped records")
			}
		}
	})
	b.Run("mac", func(b *testing.B) {
		b.ReportAllocs()
		input := AggMACInput(agg.Since, agg.Nonce, agg.AnchorHash, agg.State)
		c := mac.NewContext(v.cfg.Alg, v.cfg.Key)
		for i := 0; i < b.N; i++ {
			if !c.Verify(input, agg.MAC) {
				b.Fatal("MAC rejected")
			}
		}
	})
}

// BenchmarkVerifyDeltaAggregateCore is the in-package end-to-end number
// for one anchored aggregate round (cf. the top-level
// BenchmarkIncrementalVerify, which also exercises the wire shapes).
func BenchmarkVerifyDeltaAggregateCore(b *testing.B) {
	for _, k := range []int{16, 128, 512} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			v, recs, now, wm, agg := benchAggSetup(b, k)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, _ := v.VerifyDeltaAggregate(recs, now, 0, wm, agg)
				if !rep.AggregateApplied || !rep.Healthy() {
					b.Fatalf("aggregate round not clean: %+v", rep)
				}
			}
		})
	}
}
