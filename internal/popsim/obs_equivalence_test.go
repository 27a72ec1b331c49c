package popsim

import (
	"reflect"
	"strings"
	"testing"

	"erasmus/internal/core"
	"erasmus/internal/obs"
	"erasmus/internal/sim"
)

// obsEqConfig is the shared scenario: churn, loss, an infection wave and a
// durable state store, over the sim transport with delta collection — the
// full instrumented surface (fleet, verify, store, popsim gauges).
func obsEqConfig(stateDir string) ManagedConfig {
	return ManagedConfig{
		Population:       60,
		Seed:             7,
		QoA:              core.QoA{TM: 10 * sim.Minute, TC: 40 * sim.Minute},
		Duration:         3 * sim.Hour,
		IMX6Fraction:     0.25,
		Loss:             0.05,
		Latency:          10 * sim.Millisecond,
		LateJoinFraction: 0.2,
		Wave:             WaveConfig{Coverage: 0.3, Start: sim.Hour, Spread: 30 * sim.Minute},
		Delta:            true,
		StateDir:         stateDir,
	}
}

// Enabling the full observability stack on a managed population run — the
// registry families across fleet/verify/store/popsim, the collection
// tracer and the event log — must not change a single alert, verdict or
// delta round. This is the whole-stack version of the fleet-level
// equivalence test, and what makes `-serve` safe to turn on in
// production: instrumentation is a read-only tap.
func TestObservabilityEquivalence(t *testing.T) {
	plain, err := RunManaged(obsEqConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}

	cfg := obsEqConfig(t.TempDir())
	reg := obs.NewRegistry()
	cfg.Obs = reg
	cfg.Tracer = obs.NewTracer(4096)
	cfg.Events = obs.NewEventLog(1024)
	instrumented, err := RunManaged(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(plain.Alerts) == 0 || plain.InfectionsSeeded == 0 {
		t.Fatal("scenario degenerate: no alerts or no seeded infections")
	}
	if !reflect.DeepEqual(plain.Alerts, instrumented.Alerts) {
		t.Errorf("alert streams diverge:\nplain: %+v\nobs:   %+v", plain.Alerts, instrumented.Alerts)
	}
	if !reflect.DeepEqual(plain.AlertCounts, instrumented.AlertCounts) {
		t.Errorf("alert counts diverge: plain %v, obs %v", plain.AlertCounts, instrumented.AlertCounts)
	}
	if plain.DeltaRounds != instrumented.DeltaRounds {
		t.Errorf("delta rounds diverge: plain %d, obs %d", plain.DeltaRounds, instrumented.DeltaRounds)
	}
	if plain.HealthyCount != instrumented.HealthyCount ||
		plain.InfectionsDetected != instrumented.InfectionsDetected ||
		plain.FalseInfections != instrumented.FalseInfections {
		t.Errorf("outcomes diverge: plain %d/%d/%d, obs %d/%d/%d (healthy/detected/false)",
			plain.HealthyCount, plain.InfectionsDetected, plain.FalseInfections,
			instrumented.HealthyCount, instrumented.InfectionsDetected, instrumented.FalseInfections)
	}

	// The instrumented run must expose the key series with real samples —
	// the same assertions the CI smoke step makes against erasmus-fleet -serve.
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	text := sb.String()
	for _, series := range []string{
		"erasmus_verify_latency_seconds_bucket",
		"erasmus_fleet_queue_depth",
		"erasmus_fleet_collections_total",
		"erasmus_fleet_watermark_fallbacks_total",
		"erasmus_wal_appends_total",
		"erasmus_wal_fsync_seconds_bucket",
		"erasmus_popsim_devices",
	} {
		if !strings.Contains(text, series) {
			t.Errorf("exposition missing %s", series)
		}
	}
	if n := reg.Counter("erasmus_wal_appends_total", "").Value(); n == 0 {
		t.Error("erasmus_wal_appends_total is zero with a state store configured")
	}
	if cfg.Tracer.Total() == 0 {
		t.Error("tracer recorded no spans")
	}
	if cfg.Events.Total() == 0 {
		t.Error("event log recorded no events")
	}

	// A managed run over the sim transport with delta must have tallied
	// genuinely incremental rounds on the mode="delta" latency shards.
	if instrumented.DeltaRounds == 0 {
		t.Error("no delta rounds; the incremental path was never observed")
	}
}
