package core

import (
	"fmt"
	"reflect"
	"testing"

	"erasmus/internal/crypto/mac"
	"erasmus/internal/hw/mcu"
	"erasmus/internal/sim"
)

// The prover MACs its measurements on the context it keyed at start-up;
// the records must be the bytes ComputeRecord produces by keying per
// measurement — scheduled, unscheduled and on-demand (M0) alike.
func TestProverRecordsMatchComputeRecord(t *testing.T) {
	for _, a := range mac.Algorithms() {
		t.Run(a.String(), func(t *testing.T) {
			e := sim.NewEngine()
			dev, err := mcu.New(mcu.Config{
				Engine: e, MemorySize: 1024, StoreSize: 8 * RecordSize(a), Key: testKey,
			})
			if err != nil {
				t.Fatal(err)
			}
			sched, err := NewRegular(sim.Minute)
			if err != nil {
				t.Fatal(err)
			}
			p, err := NewProver(dev, ProverConfig{Alg: a, Schedule: sched, Slots: 8})
			if err != nil {
				t.Fatal(err)
			}
			p.Start()
			e.RunUntil(5 * sim.Minute)
			p.Stop()
			// An aggregate answer in between uses the same context and must
			// leave nothing behind for the next measurement.
			if _, _, _, _, err := p.HandleCollectDeltaAggregate(0, 1, 0, nil); err != nil {
				t.Fatal(err)
			}
			p.MeasureNow()
			e.RunUntil(6 * sim.Minute)

			treq := dev.RROC()
			m0, recs, _, err := p.HandleCollectOD(treq, 8, NewODRequestMAC(a, testKey, treq, 8))
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) < 5 {
				t.Fatalf("collected %d records, want ≥ 5", len(recs))
			}
			for _, rec := range append([]Record{m0}, recs...) {
				if want := ComputeRecord(a, testKey, rec.T, dev.Memory()); !reflect.DeepEqual(rec, want) {
					t.Fatalf("record t=%d differs from ComputeRecord:\n got %+v\nwant %+v", rec.T, rec, want)
				}
			}
		})
	}
}

// A clean verification allocates the report's record slice (and, on the
// delta path, the successor watermark) and nothing per record: the count
// must be the same at k = 8 and k = 64.
func TestAuditTierAllocsIndependentOfK(t *testing.T) {
	if raceEnabled {
		t.Skip("race mode randomizes sync.Pool reuse; alloc counts jitter")
	}
	memory := []byte("clean image")
	v := newTestVerifier(t, goldenFor(memory))
	full := func(k int) float64 {
		recs := history(k, uint64(1000*sim.Hour), sim.Hour, memory)
		now := recs[0].T + uint64(30*sim.Minute)
		return testing.AllocsPerRun(50, func() {
			if rep := v.VerifyHistory(recs, now, k); !rep.Healthy() || len(rep.Records) != k {
				t.Fatalf("clean history judged %+v", rep)
			}
		})
	}
	delta := func(k int) float64 {
		fx := mkAggFixture(t, k, 2, memory)
		return testing.AllocsPerRun(50, func() {
			rep, next := v.VerifyDelta(fx.recs, fx.now, 0, fx.wm)
			if !rep.Healthy() || rep.OverlapTrusted != 1 || len(rep.Records) != k || next.T != fx.recs[0].T {
				t.Fatalf("clean anchored delta judged %+v", rep)
			}
		})
	}
	for name, measure := range map[string]func(int) float64{"VerifyHistory": full, "VerifyDelta": delta} {
		small, large := measure(8), measure(64)
		if small != large {
			t.Errorf("%s: %v allocations at k=8, %v at k=64; want equal", name, small, large)
		}
		t.Logf("%s: %v allocs/op at k=8 and k=64", name, small)
	}
}

// One Verifier shared by many workers: each worker must MAC on a context
// of its own (a shared one is a data race on its scratch, which -race
// reports), and the verdicts must be the sequential run's — for clean,
// forged and infected histories, with and without the MAC cache.
func TestSharedVerifierAcrossWorkers(t *testing.T) {
	memory, malware := []byte("clean image"), []byte("malware")
	for _, cacheSize := range []int{0, 64} {
		t.Run(fmt.Sprintf("cache=%d", cacheSize), func(t *testing.T) {
			v, err := NewVerifier(VerifierConfig{
				Alg: alg, Key: testKey,
				GoldenHashes: [][]byte{goldenFor(memory)},
				MinGap:       sim.Hour - sim.Minute, MaxGap: sim.Hour + sim.Minute,
				MACCacheSize: cacheSize,
			})
			if err != nil {
				t.Fatal(err)
			}
			const histories, k = 256, 16
			jobs := make([]VerifyJob, histories)
			for i := range jobs {
				endT := uint64(1000+i) * uint64(sim.Hour)
				recs := history(k, endT, sim.Hour, memory)
				switch i % 4 {
				case 1: // forged MAC
					recs[i%k].MAC[3] ^= 0x40
				case 2: // authentic measurement of malware
					recs[i%k] = ComputeRecord(alg, testKey, recs[i%k].T, malware)
				}
				jobs[i] = VerifyJob{Verifier: v, Records: recs, Now: endT + uint64(sim.Minute), ExpectedK: k}
				if i%4 == 3 { // anchored delta on the same shared verifier
					jobs[i].Delta = true
					jobs[i].Watermark = NewWatermark(recs[k-1])
				}
			}
			want := NewBatchVerifier(1).Verify(jobs)
			for _, workers := range []int{4, 8} {
				if got := NewBatchVerifier(workers).Verify(jobs); !reflect.DeepEqual(got, want) {
					t.Fatalf("%d workers: reports differ from the sequential run", workers)
				}
			}
			if want[0].TamperDetected || !want[1].TamperDetected || !want[2].InfectionDetected || want[3].OverlapTrusted != 1 {
				t.Fatalf("sequential verdicts wrong: %+v", want[:4])
			}
		})
	}
}
