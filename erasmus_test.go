package erasmus_test

import (
	"testing"

	"erasmus"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/qoa"
)

// End-to-end through the public API only: build a device, run the prover,
// collect, verify.
func TestPublicAPIRoundTrip(t *testing.T) {
	e := erasmus.NewEngine()
	key := []byte("public-api-device-key")
	dev, err := erasmus.NewMSP430(erasmus.MSP430Config{
		Engine:     e,
		MemorySize: 2048,
		StoreSize:  8 * erasmus.RecordSize(erasmus.KeyedBLAKE2s),
		Key:        key,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := erasmus.NewRegularSchedule(erasmus.Hour)
	if err != nil {
		t.Fatal(err)
	}
	prv, err := erasmus.NewProver(dev, erasmus.ProverConfig{
		Alg: erasmus.KeyedBLAKE2s, Schedule: sched, Slots: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	golden := mac.HashSum(erasmus.KeyedBLAKE2s, dev.Memory())
	vrf, err := erasmus.NewVerifier(erasmus.VerifierConfig{
		Alg: erasmus.KeyedBLAKE2s, Key: key,
		GoldenHashes: [][]byte{golden},
	})
	if err != nil {
		t.Fatal(err)
	}

	prv.Start()
	e.RunUntil(5 * erasmus.Hour)
	prv.Stop()

	recs, timing := prv.HandleCollect(4)
	if len(recs) != 4 {
		t.Fatalf("collected %d records", len(recs))
	}
	if timing.Total() <= 0 {
		t.Fatal("no collection cost")
	}
	rep := vrf.VerifyHistory(recs, dev.RROC(), 4)
	if !rep.Healthy() {
		t.Fatalf("healthy run flagged: %v", rep.Issues)
	}
}

func TestPublicAPIIMX6(t *testing.T) {
	e := erasmus.NewEngine()
	key := []byte("imx6-public-key")
	dev, err := erasmus.NewIMX6(erasmus.IMX6Config{
		Engine:     e,
		MemorySize: 1 << 16,
		StoreSize:  4 * erasmus.RecordSize(erasmus.HMACSHA256),
		Key:        key,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	sched, _ := erasmus.NewRegularSchedule(erasmus.Minute)
	prv, err := erasmus.NewProver(dev, erasmus.ProverConfig{
		Alg: erasmus.HMACSHA256, Schedule: sched, Slots: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	prv.Start()
	e.RunUntil(3 * erasmus.Minute)
	prv.Stop()
	if prv.Stats().Measurements == 0 {
		t.Fatal("no measurements on HYDRA device")
	}
}

func TestPublicAPISchedules(t *testing.T) {
	if _, err := erasmus.NewRegularSchedule(0); err == nil {
		t.Error("bad TM accepted")
	}
	if _, err := erasmus.NewStaggeredSchedule(erasmus.Hour, erasmus.Minute); err != nil {
		t.Errorf("staggered schedule: %v", err)
	}
}

func TestPublicAPIScenario(t *testing.T) {
	res, err := erasmus.RunScenario(erasmus.ScenarioConfig{
		TM: erasmus.Hour, TC: 4 * erasmus.Hour, Duration: 12 * erasmus.Hour,
		Infections: []erasmus.Infection{{Enter: 5 * erasmus.Hour}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DetectedCount() != 1 {
		t.Fatal("persistent infection not detected through public API")
	}
}

func TestPublicAPINetworkAndFleet(t *testing.T) {
	e := erasmus.NewEngine()
	n, err := erasmus.NewNetwork(e, erasmus.NetworkConfig{Latency: erasmus.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	key := []byte("facade-fleet-key")
	dev, err := erasmus.NewMSP430(erasmus.MSP430Config{
		Engine: e, MemorySize: 512,
		StoreSize: 8 * erasmus.RecordSize(erasmus.KeyedBLAKE2s),
		Key:       key,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, _ := erasmus.NewRegularSchedule(erasmus.Hour)
	prv, err := erasmus.NewProver(dev, erasmus.ProverConfig{
		Alg: erasmus.KeyedBLAKE2s, Schedule: sched, Slots: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := erasmus.AttachProver(n, e, "dev-1", prv, erasmus.KeyedBLAKE2s); err != nil {
		t.Fatal(err)
	}
	prv.Start()

	clock := func() uint64 { return erasmus.DefaultEpoch + uint64(e.Now()) }
	col, err := erasmus.NewSimCollector(n, e, "hq", clock)
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := erasmus.NewFleetManagerWith(erasmus.FleetManagerConfig{Engine: e, Collector: col, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	err = mgr.Register(erasmus.FleetDeviceConfig{
		Addr: "dev-1", Key: key, Alg: erasmus.KeyedBLAKE2s,
		QoA:          erasmus.QoA{TM: erasmus.Hour, TC: 4 * erasmus.Hour},
		GoldenHashes: [][]byte{mac.HashSum(erasmus.KeyedBLAKE2s, dev.Memory())},
	})
	if err != nil {
		t.Fatal(err)
	}
	mgr.Start()
	e.RunUntil(9 * erasmus.Hour)
	mgr.Stop()
	prv.Stop()
	if mgr.HealthyCount() != 1 {
		t.Fatalf("healthy = %d", mgr.HealthyCount())
	}
	st, err := mgr.Status("dev-1")
	if err != nil || st.Collections < 2 {
		t.Fatalf("status = %+v, %v", st, err)
	}
	if len(mgr.Alerts()) != 0 {
		t.Fatalf("unexpected alerts: %v", mgr.Alerts())
	}
}

func TestPublicAPISwarm(t *testing.T) {
	e := erasmus.NewEngine()
	s, err := erasmus.NewSwarm(erasmus.SwarmConfig{
		N: 4, Area: 50, Radius: 100, Speed: 0, Seed: 2, Engine: e, MemorySize: 1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Stop()
	e.RunUntil(25 * erasmus.Minute)
	res := s.RunErasmusCollection(0, 1)
	if res.Completed != 4 || res.Verified != 4 {
		t.Fatalf("swarm collection completed %d/4, verified %d/4", res.Completed, res.Verified)
	}
	rep := s.CollectiveAttest(0, 1, erasmus.QoSAList)
	if !rep.Healthy || len(rep.Devices) != 4 {
		t.Fatalf("collective report: healthy=%v devices=%d", rep.Healthy, len(rep.Devices))
	}
	if rep.Temporal.Worst() != qoa.TemporalFresh {
		t.Fatalf("clean running swarm graded %v", rep.Temporal.Worst())
	}
}

func TestPublicAPIAvailability(t *testing.T) {
	res, err := erasmus.RunAvailability(erasmus.AvailabilityConfig{
		TM: 10 * erasmus.Minute, TaskPeriod: 11 * erasmus.Second,
		TaskDuration: erasmus.Second, Duration: erasmus.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksReleased == 0 {
		t.Fatal("no tasks released")
	}
}

func TestPublicAPIStatelessIrregular(t *testing.T) {
	s, err := erasmus.NewStatelessIrregularSchedule(
		erasmus.HMACSHA256, []byte("K"), erasmus.Minute, erasmus.Hour)
	if err != nil {
		t.Fatal(err)
	}
	iv := s.IntervalAfter(12345)
	if iv < erasmus.Minute || iv >= erasmus.Hour {
		t.Fatalf("interval %v outside bounds", iv)
	}
}

func TestPublicAPIMeasurementTime(t *testing.T) {
	lo := erasmus.MeasurementTime(erasmus.MSP430, erasmus.HMACSHA256, 10*1024)
	if lo.Seconds() < 6.5 || lo.Seconds() > 7.5 {
		t.Fatalf("MSP430 10KB = %v", lo)
	}
}

// Population scale and batched verification through the public API only.
func TestPublicAPIPopulation(t *testing.T) {
	res, err := erasmus.RunPopulation(erasmus.PopulationConfig{
		Population: 120,
		Shards:     3,
		Seed:       3,
		QoA:        erasmus.QoA{TM: erasmus.Minute, TC: 4 * erasmus.Minute},
		Duration:   16 * erasmus.Minute,
		Wave:       erasmus.WaveConfig{Coverage: 0.5, Start: 5 * erasmus.Minute, Spread: 2 * erasmus.Minute},
		Churn:      erasmus.ChurnConfig{LateJoinFraction: 0.1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Devices != 120 || res.Stats.InfectionsDetected == 0 {
		t.Fatalf("population run went wrong: %+v", res.Stats)
	}
}
