package main

import (
	"testing"

	"erasmus/internal/core"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/hw/mcu"
	"erasmus/internal/sim"
)

// TestReplayMatchesProver is the load source's conformance test: for
// every collection verb, the replay collector's wire bytes equal what a
// real core.Prover, driven over the same schedule, returns — through an
// empty buffer, a filling one and one that has wrapped. A codec, buffer
// or chain change that the replay arithmetic does not follow fails here
// instead of silently benchmarking something the program would never
// receive.
func TestReplayMatchesProver(t *testing.T) {
	spec := fleetSpec{Devices: 3, TM: sim.Minute, K: 4, Rounds: 9, MemBytes: 64}
	const seed = 7
	ev, err := generateEvidence(spec, seed)
	if err != nil {
		t.Fatal(err)
	}
	col := &replayCollector{ev: ev}
	tm := uint64(spec.TM)

	for i, d := range ev.devices {
		key, memory, sched, err := drawDevice(spec, seed, i)
		if err != nil {
			t.Fatal(err)
		}
		engine := sim.NewEngine()
		dev, err := mcu.New(mcu.Config{
			Engine: engine, MemorySize: spec.MemBytes, Key: key,
			StoreSize: spec.slots() * core.RecordSize(benchAlg),
		})
		if err != nil {
			t.Fatal(err)
		}
		copy(dev.Memory(), memory)
		prv, err := core.NewProver(dev, core.ProverConfig{Alg: benchAlg, Schedule: sched, Slots: spec.slots()})
		if err != nil {
			t.Fatal(err)
		}
		prv.Start()

		// Collect half a period after records 0, 2, 5, slots+3, … so no
		// collection races a measurement in flight; the first collection
		// precedes the first record.
		collectAt := []uint64{epoch + (d.t0-epoch)/2}
		for _, j := range []int{0, 2, 5, spec.slots() + 3, d.n - 1} {
			collectAt = append(collectAt, d.t0+uint64(j)*tm+tm/2)
		}
		anchor := make([]byte, benchAlg.HashSize())
		for n, now := range collectAt {
			engine.RunUntil(sim.Ticks(now - epoch))
			sinces := []uint64{0, d.t0, now - 3*tm/2, now + tm}
			for _, k := range []int{spec.K, 1, 0, -1, 10 * spec.slots()} {
				recs, _ := prv.HandleCollect(k)
				want := core.CollectResponse{Records: recs}.Encode(benchAlg)
				check(t, col, request{dev: int32(i), verb: verbFull, k: int32(k), now: now}, want)

				for _, since := range sinces {
					recs, _ := prv.HandleCollectDelta(since, k)
					want := core.CollectResponse{Records: recs}.Encode(benchAlg)
					check(t, col, request{dev: int32(i), verb: verbDelta, k: int32(k), now: now, since: since}, want)

					for _, hash := range [][]byte{nil, anchor} {
						nonce := uint64(n*100 + k)
						recs, state, aggMAC, _, err := prv.HandleCollectDeltaAggregate(since, nonce, k, hash)
						if err != nil {
							t.Fatal(err)
						}
						want := core.AggCollectResponse{ChainState: state, AggMAC: aggMAC, Records: recs}.Encode(benchAlg)
						check(t, col, request{dev: int32(i), verb: verbAggregate, k: int32(k), now: now, since: since, nonce: nonce, anchorHash: hash}, want)
					}
				}
			}
		}
	}
}

func check(t *testing.T, col *replayCollector, req request, want []byte) {
	t.Helper()
	got, err := col.respond(req)
	if err != nil {
		t.Fatalf("%+v: %v", req, err)
	}
	if !mac.ConstantTimeEqual(got, want) {
		t.Fatalf("%+v:\nreplay %x\nprover %x", req, got, want)
	}
}

// TestAggregateMemoFollowsChallenge checks that a memoised aggregate MAC
// is never served for a different challenge.
func TestAggregateMemoFollowsChallenge(t *testing.T) {
	spec := fleetSpec{Devices: 1, TM: sim.Minute, K: 4, Rounds: 8, MemBytes: 64}
	ev, err := generateEvidence(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	col := &replayCollector{ev: ev}
	d := ev.devices[0]
	now := d.t0 + 6*uint64(spec.TM)
	base := request{verb: verbAggregate, now: now, since: d.t0, nonce: 1, anchorHash: make([]byte, 32)}
	variants := []request{base, base, base, base}
	variants[1].nonce = 2
	variants[2].since = d.t0 + uint64(spec.TM)
	variants[3].anchorHash = append([]byte{1}, make([]byte, 31)...)
	for _, req := range append(variants, base) { // base again: memo overwritten, then restored
		wire, err := col.respond(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := core.DecodeAggCollectResponse(benchAlg, wire)
		if err != nil {
			t.Fatal(err)
		}
		want := mac.Sum(benchAlg, d.key, core.AggMACInput(req.since, req.nonce, req.anchorHash, resp.ChainState))
		if !mac.ConstantTimeEqual(resp.AggMAC, want) {
			t.Fatalf("%+v: aggregate MAC does not bind the challenge", req)
		}
	}
}
