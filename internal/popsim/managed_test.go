package popsim

import (
	"testing"

	"erasmus/internal/core"
	"erasmus/internal/fleet"
	"erasmus/internal/obs"
	"erasmus/internal/sim"
)

// A fleet-managed population with churn, loss and an infection wave: every
// seeded infection is detected, and — the warm-up regression at population
// scale — devices joining mid-run never produce false tamper alerts while
// their buffers fill.
func TestManagedPopulationSim(t *testing.T) {
	res, err := RunManaged(ManagedConfig{
		Population:       150,
		Seed:             11,
		QoA:              core.QoA{TM: 10 * sim.Minute, TC: 40 * sim.Minute},
		Duration:         4 * sim.Hour,
		IMX6Fraction:     0.25,
		Loss:             0.05,
		Latency:          10 * sim.Millisecond,
		LateJoinFraction: 0.2,
		Wave:             WaveConfig{Coverage: 0.3, Start: sim.Hour, Spread: 30 * sim.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LateJoiners == 0 || res.InfectionsSeeded == 0 {
		t.Fatalf("scenario degenerate: %d late joiners, %d infections", res.LateJoiners, res.InfectionsSeeded)
	}
	if res.InfectionsDetected != res.InfectionsSeeded {
		t.Errorf("detected %d of %d persistent infections", res.InfectionsDetected, res.InfectionsSeeded)
	}
	if res.FalseInfections != 0 {
		t.Errorf("%d clean devices flagged infected", res.FalseInfections)
	}
	if n := res.AlertCounts[fleet.AlertTamper]; n != 0 {
		t.Errorf("%d false tamper alerts (warm-up / loss handling regression)", n)
	}
	if res.HealthyCount < res.Devices-res.InfectionsSeeded {
		t.Errorf("healthy %d/%d with only %d infected", res.HealthyCount, res.Devices, res.InfectionsSeeded)
	}
}

// The same scenario shape over real loopback UDP (wall-paced, so small):
// collections demux over one socket, verdicts flow through the async
// pipeline, and no clock-drift false tampers appear.
func TestManagedPopulationUDP(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := RunManaged(ManagedConfig{
		Obs:              reg,
		Population:       8,
		Transport:        "udp",
		Seed:             5,
		QoA:              core.QoA{TM: 100 * sim.Millisecond, TC: 400 * sim.Millisecond},
		Duration:         1500 * sim.Millisecond,
		IMX6Fraction:     1, // µs-scale measurements keep ms-scale TM feasible
		LateJoinFraction: 0.25,
		Wave:             WaveConfig{Coverage: 0.5, Start: 300 * sim.Millisecond, Spread: 200 * sim.Millisecond},
		UDPPool:          4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.InfectionsSeeded == 0 {
		t.Fatal("scenario degenerate: no infections seeded")
	}
	if res.InfectionsDetected != res.InfectionsSeeded {
		t.Errorf("detected %d of %d persistent infections", res.InfectionsDetected, res.InfectionsSeeded)
	}
	if res.FalseInfections != 0 {
		t.Errorf("%d clean devices flagged infected", res.FalseInfections)
	}
	if n := res.AlertCounts[fleet.AlertTamper]; n != 0 {
		t.Errorf("%d false tamper alerts over UDP (clock drift regression): %+v", n, res.Alerts)
	}
	if n := res.AlertCounts[fleet.AlertUnreachable]; n != 0 {
		t.Errorf("%d unreachable alerts on loopback", n)
	}
	// The transport's counters are exported: collections were sent and
	// answered, and loopback lost none of them.
	udp := func(counter string) int64 {
		return reg.Gauge("erasmus_udp_client", "", obs.Label{Name: "counter", Value: counter}).Value()
	}
	if udp("sent") == 0 || udp("received") != udp("sent") || udp("timeouts")+udp("malformed") != 0 {
		t.Errorf("erasmus_udp_client: sent %d, received %d, timeouts %d, malformed %d",
			udp("sent"), udp("received"), udp("timeouts"), udp("malformed"))
	}
}

// PR 3 documented a caveat instead of a fix: Delta with the async
// pipeline on the virtual-time sim transport silently fell back to a full
// collection every round (the engine outruns verdict application), so
// nothing was ever verified incrementally. The managed runner now forces
// synchronous verification for virtual-time engines; this is the
// regression test that the incremental path genuinely engages without the
// caller opting into Synchronous themselves.
func TestDeltaAutoSynchronousSim(t *testing.T) {
	res, err := RunManaged(ManagedConfig{
		Population: 40,
		Seed:       7,
		QoA:        core.QoA{TM: 10 * sim.Minute, TC: 40 * sim.Minute},
		Duration:   4 * sim.Hour,
		Delta:      true,
		// Synchronous deliberately left false: the runner must force it.
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Config.Synchronous {
		t.Error("sim transport with Delta did not force synchronous verification")
	}
	if res.DeltaRounds == 0 {
		t.Error("no round verified incrementally; the virtual-time delta fallback bug is back")
	}
	// The wall-paced udp transport must NOT be forced synchronous: real
	// time gives the async pipeline room, and delta rounds still engage.
	udp, err := RunManaged(ManagedConfig{
		Population:   6,
		Transport:    "udp",
		Seed:         7,
		QoA:          core.QoA{TM: 100 * sim.Millisecond, TC: 400 * sim.Millisecond},
		Duration:     1500 * sim.Millisecond,
		IMX6Fraction: 1,
		Delta:        true,
		UDPPool:      4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if udp.Config.Synchronous {
		t.Error("udp transport was forced synchronous; the fix should only cover virtual-time engines")
	}
	if udp.DeltaRounds == 0 {
		t.Error("udp delta run never verified incrementally")
	}
}

// A managed run with StateDir journals verifier state and compacts it
// into a snapshot; a second run over the same directory recovers it.
func TestManagedStateDir(t *testing.T) {
	dir := t.TempDir()
	run := func() *ManagedResult {
		res, err := RunManaged(ManagedConfig{
			Population: 30,
			Seed:       3,
			QoA:        core.QoA{TM: 10 * sim.Minute, TC: 40 * sim.Minute},
			Duration:   3 * sim.Hour,
			Delta:      true,
			StateDir:   dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run()
	if first.Recovery == nil || first.StoreStats == nil {
		t.Fatalf("StateDir run reported no store info: %+v", first)
	}
	if first.Recovery.SnapshotSeq != 0 || first.Recovery.RecordsReplayed != 0 {
		t.Errorf("fresh directory recovered state: %+v", *first.Recovery)
	}
	if first.StoreStats.Devices != 30 {
		t.Errorf("snapshot tracks %d devices, want 30", first.StoreStats.Devices)
	}
	if first.StoreStats.Watermarked == 0 {
		t.Error("no watermarks persisted from a delta run")
	}
	second := run()
	if second.Recovery.SnapshotSeq == 0 || second.Recovery.SnapshotDevices != 30 {
		t.Errorf("second run did not recover the first run's snapshot: %+v", *second.Recovery)
	}
}

func TestManagedConfigValidation(t *testing.T) {
	if _, err := RunManaged(ManagedConfig{}); err == nil {
		t.Error("zero population accepted")
	}
	if _, err := RunManaged(ManagedConfig{Population: 1, Transport: "carrier-pigeon"}); err == nil {
		t.Error("unknown transport accepted")
	}
	if _, err := RunManaged(ManagedConfig{Population: 1, Transport: "udp", Loss: 0.5}); err == nil {
		t.Error("udp transport with loss accepted")
	}
}

// Delta collection at population scale: the same seeded lossy scenario —
// churn, wave, 5% datagram loss — must produce the identical alert stream
// with incremental verification as with stateless full re-verification.
// Inline verification keeps the virtual-time run deterministic (the async
// pipeline's watermarks would lag the instantly-advancing clock and every
// round would fall back to full collection — equivalent, but vacuous).
func TestManagedPopulationDeltaEquivalence(t *testing.T) {
	run := func(delta bool) *ManagedResult {
		res, err := RunManaged(ManagedConfig{
			Population:       80,
			Seed:             23,
			QoA:              core.QoA{TM: 10 * sim.Minute, TC: 40 * sim.Minute},
			Duration:         4 * sim.Hour,
			IMX6Fraction:     0.25,
			Loss:             0.05,
			Latency:          10 * sim.Millisecond,
			LateJoinFraction: 0.2,
			Wave:             WaveConfig{Coverage: 0.3, Start: sim.Hour, Spread: 30 * sim.Minute},
			Synchronous:      true,
			Delta:            delta,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	full := run(false)
	incr := run(true)
	if full.InfectionsSeeded == 0 {
		t.Fatal("scenario degenerate: no infections seeded")
	}
	if len(full.Alerts) != len(incr.Alerts) {
		t.Fatalf("alert counts diverge: full %d, delta %d", len(full.Alerts), len(incr.Alerts))
	}
	for i := range full.Alerts {
		if full.Alerts[i] != incr.Alerts[i] {
			t.Fatalf("alert %d diverges:\nfull:  %+v\ndelta: %+v", i, full.Alerts[i], incr.Alerts[i])
		}
	}
	if full.HealthyCount != incr.HealthyCount ||
		full.InfectionsDetected != incr.InfectionsDetected ||
		full.FalseInfections != incr.FalseInfections {
		t.Fatalf("end states diverge:\nfull:  %+v\ndelta: %+v", full, incr)
	}
}
