package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"erasmus/internal/crypto/mac"
	"erasmus/internal/sim"
)

// historyCase is one randomized collected history plus the verification
// context it should be judged in.
type historyCase struct {
	verifier  *Verifier
	records   []Record
	now       uint64
	expectedK int
}

// buildRandomCases fabricates histories across every algorithm and every
// defect class the verifier judges: tampered MACs, non-golden states,
// reordering, missing records, future timestamps, schedule gaps and stale
// (freshness-bound) histories.
func buildRandomCases(t testing.TB, rng *rand.Rand, n int) []historyCase {
	t.Helper()
	tm := sim.Minute
	cases := make([]historyCase, 0, n)
	for i := 0; i < n; i++ {
		alg := mac.Algorithms()[rng.Intn(len(mac.Algorithms()))]
		key := make([]byte, 16)
		rng.Read(key)
		golden := make([]byte, 64)
		rng.Read(golden)
		infectedMem := make([]byte, 64)
		rng.Read(infectedMem)

		cfg := VerifierConfig{
			Alg: alg, Key: key,
			GoldenHashes: [][]byte{mac.HashSum(alg, golden)},
			MinGap:       tm - tm/10,
			MaxGap:       tm + tm/2,
		}
		if rng.Intn(2) == 0 {
			cfg.FreshnessBound = 2 * tm
		}
		if rng.Intn(2) == 0 {
			cfg.MACCacheSize = 32
		}
		v, err := NewVerifier(cfg)
		if err != nil {
			t.Fatal(err)
		}

		// A clean schedule of k records, newest first.
		k := 2 + rng.Intn(6)
		base := uint64(1_000_000_000_000) + uint64(rng.Intn(1000))*uint64(tm)
		recs := make([]Record, 0, k)
		for j := 0; j < k; j++ {
			mem := golden
			if rng.Intn(5) == 0 {
				mem = infectedMem // authentic measurement of malware
			}
			tRec := base - uint64(j)*uint64(tm)
			recs = append(recs, ComputeRecord(alg, key, tRec, mem))
		}
		now := base + uint64(rng.Intn(int(tm)))
		expectedK := k

		// Inject defects.
		switch rng.Intn(7) {
		case 0: // tampered MAC
			r := &recs[rng.Intn(len(recs))]
			r.MAC[rng.Intn(len(r.MAC))] ^= 0x5a
		case 1: // tampered hash (breaks authentication too)
			r := &recs[rng.Intn(len(recs))]
			r.Hash[rng.Intn(len(r.Hash))] ^= 0x5a
		case 2: // reordered
			if len(recs) >= 2 {
				a, b := rng.Intn(len(recs)), rng.Intn(len(recs))
				recs[a], recs[b] = recs[b], recs[a]
			}
		case 3: // missing records
			recs = recs[:len(recs)-1]
		case 4: // future timestamp
			recs[0].T = now + uint64(tm)
		case 5: // schedule gap: drop an interior record
			if len(recs) > 2 {
				recs = append(recs[:1], recs[2:]...)
				expectedK = len(recs)
			}
		case 6: // stale history
			now += uint64(10 * tm)
		}
		if rng.Intn(4) == 0 {
			expectedK = 0 // warm-up: skip the length check
		}
		cases = append(cases, historyCase{verifier: v, records: recs, now: now, expectedK: expectedK})
	}
	return cases
}

// TestBatchVerifierEquivalence is the randomized equivalence guarantee:
// the batch verifier must produce verdict-for-verdict identical Reports to
// sequential VerifyHistory for any worker count, with and without the MAC
// cache, across algorithms and every defect class.
func TestBatchVerifierEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cases := buildRandomCases(t, rng, 200)

	sequential := make([]Report, len(cases))
	jobs := make([]VerifyJob, len(cases))
	for i, c := range cases {
		sequential[i] = c.verifier.VerifyHistory(c.records, c.now, c.expectedK)
		jobs[i] = VerifyJob{Verifier: c.verifier, Records: c.records, Now: c.now, ExpectedK: c.expectedK}
	}

	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := NewBatchVerifier(workers).Verify(jobs)
			if len(got) != len(sequential) {
				t.Fatalf("got %d reports, want %d", len(got), len(sequential))
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], sequential[i]) {
					t.Errorf("case %d: batch report diverges from sequential\nbatch: %+v\nseq:   %+v",
						i, got[i], sequential[i])
				}
			}
		})
	}
}

// TestBatchVerifierRepeatedJobsWithCache re-verifies the same jobs twice
// through one batch verifier: the second pass hits each verifier's MAC
// cache and must still be identical.
func TestBatchVerifierRepeatedJobsWithCache(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := buildRandomCases(t, rng, 64)
	jobs := make([]VerifyJob, len(cases))
	for i, c := range cases {
		jobs[i] = VerifyJob{Verifier: c.verifier, Records: c.records, Now: c.now, ExpectedK: c.expectedK}
	}
	bv := NewBatchVerifier(4)
	first := bv.Verify(jobs)
	second := bv.Verify(jobs)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached re-verification changed reports")
	}
}

// TestVerifyHistories covers the shared-provisioning path (§6 swarm): many
// histories under one verifier, parallel result identical to sequential.
func TestVerifyHistories(t *testing.T) {
	alg := mac.KeyedBLAKE2s
	key := []byte("verify-histories-key")
	golden := []byte("golden image contents")
	v, err := NewVerifier(VerifierConfig{
		Alg: alg, Key: key, GoldenHashes: [][]byte{mac.HashSum(alg, golden)},
	})
	if err != nil {
		t.Fatal(err)
	}
	histories := make([][]Record, 50)
	for i := range histories {
		base := uint64(1_000_000_000) * uint64(i+2)
		for j := 0; j < 4; j++ {
			rec := ComputeRecord(alg, key, base-uint64(j)*uint64(sim.Minute), golden)
			if i%5 == 0 && j == 1 {
				rec.MAC[0] ^= 1
			}
			histories[i] = append(histories[i], rec)
		}
	}
	now := uint64(1_000_000_000) * 60
	want := make([]Report, len(histories))
	for i, h := range histories {
		want[i] = v.VerifyHistory(h, now, 4)
	}
	got, err := v.VerifyHistories(histories, now, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("VerifyHistories diverges from sequential VerifyHistory")
	}
}

// TestMACCacheRejectsForgeries ensures a cache hit can never be produced
// by a record that differs in any field from the cached authentic one.
func TestMACCacheRejectsForgeries(t *testing.T) {
	alg := mac.KeyedBLAKE2s
	key := []byte("cache-forgery-key")
	golden := []byte("clean state")
	v, err := NewVerifier(VerifierConfig{
		Alg: alg, Key: key,
		GoldenHashes: [][]byte{mac.HashSum(alg, golden)},
		MACCacheSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := ComputeRecord(alg, key, 1000, golden)
	if rep := v.VerifyHistory([]Record{rec}, 2000, 0); rep.TamperDetected {
		t.Fatal("authentic record rejected")
	}
	// Warm cache, then forge each field in turn.
	forgeries := []Record{rec, rec, rec}
	forgeries[0].T++
	forgeries[1].Hash = append([]byte(nil), rec.Hash...)
	forgeries[1].Hash[0] ^= 1
	forgeries[2].MAC = append([]byte(nil), rec.MAC...)
	forgeries[2].MAC[0] ^= 1
	for i, f := range forgeries {
		rep := v.VerifyHistory([]Record{f}, 2000+uint64(i), 0)
		if !rep.TamperDetected {
			t.Errorf("forgery %d passed verification via cache", i)
		}
	}
}

// The cache key is a fixed-size value type: building it and probing the
// cache must not allocate. (The previous string-backed key heap-
// allocated on every record — the dominant allocation of the batch
// verify loop — so this gate keeps that regression out.)
func TestMACCacheHitZeroAlloc(t *testing.T) {
	alg := mac.KeyedBLAKE2s
	key := []byte("cache-alloc-key")
	golden := []byte("clean state")
	v, err := NewVerifier(VerifierConfig{
		Alg: alg, Key: key,
		GoldenHashes: [][]byte{mac.HashSum(alg, golden)},
		MACCacheSize: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := ComputeRecord(alg, key, 1000, golden)
	c := mac.NewContext(alg, key)
	if !v.verifyMAC(c, rec) {
		t.Fatal("authentic record rejected")
	}
	allocs := testing.AllocsPerRun(100, func() {
		if !v.verifyMAC(c, rec) {
			t.Fatal("cached record rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("warm-cache verifyMAC allocates %v times per record, want 0", allocs)
	}
}

// A job with a nil Verifier is a caller bug (e.g. a device deregistered
// mid-flight); it must produce an unhealthy error report, not panic the
// worker pool and take every other device's verdict down with it.
func TestBatchVerifyNilVerifierDoesNotPanic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := buildRandomCases(t, rng, 5)
	jobs := make([]VerifyJob, 0, len(cases)+1)
	for _, c := range cases {
		jobs = append(jobs, VerifyJob{Verifier: c.verifier, Records: c.records, Now: c.now, ExpectedK: c.expectedK})
	}
	jobs = append(jobs, VerifyJob{Records: cases[0].records, Now: cases[0].now})

	for _, workers := range []int{1, 4} {
		reports := NewBatchVerifier(workers).Verify(jobs)
		bad := reports[len(reports)-1]
		if bad.Healthy() || !bad.TamperDetected || len(bad.Issues) == 0 {
			t.Fatalf("workers=%d: nil-verifier job not reported as a fault: %+v", workers, bad)
		}
		// The healthy jobs around it still get real verdicts.
		for i, c := range cases {
			want := c.verifier.VerifyHistory(c.records, c.now, c.expectedK)
			if !reflect.DeepEqual(reports[i], want) {
				t.Fatalf("workers=%d: job %d verdict diverged next to a faulty job", workers, i)
			}
		}
	}
}
