package main

import (
	"strings"
	"testing"

	"erasmus/internal/sim"
)

func TestParseArgsShardedDefaults(t *testing.T) {
	spec, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if spec.managed != nil || spec.serve != "" || spec.recoverDir != "" {
		t.Fatalf("no flags must select the sharded runtime: %+v", spec)
	}
	c := spec.sharded
	if c.Population != 100_000 || c.QoA.TM != 10*sim.Minute || c.QoA.TC != 40*sim.Minute ||
		c.Duration != 4*sim.Hour || c.IMX6Fraction != 0.25 || c.Loss != 0.01 ||
		c.Wave.Start != sim.Hour || c.Wave.Spread != 30*sim.Minute {
		t.Fatalf("sharded defaults moved: %+v", c)
	}
}

func TestParseArgsBatchSimDefaults(t *testing.T) {
	spec, err := parseArgs([]string{"-transport", "sim"})
	if err != nil {
		t.Fatal(err)
	}
	c := spec.managed
	if c == nil || spec.serve != "" {
		t.Fatalf("-transport sim must select a batch managed run: %+v", spec)
	}
	// Virtual time: only the population shrinks, the QoA keeps its scale.
	if c.Population != 1000 || c.QoA.TM != 10*sim.Minute || c.Duration != 4*sim.Hour ||
		c.IMX6Fraction != 0.25 || c.Loss != 0.01 || !c.Delta || c.Aggregate || c.AdaptiveSchedule {
		t.Fatalf("batch sim defaults moved: %+v", c)
	}
}

// The udp transport and any served run are wall-paced, so both get the
// milliseconds-scale scenario — and an explicitly set flag always wins.
func TestParseArgsWallPacedDefaults(t *testing.T) {
	for _, args := range [][]string{
		{"-transport", "udp"},
		{"-transport", "sim", "-serve", ":0"},
	} {
		name := strings.Join(args, " ")
		spec, err := parseArgs(args)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := spec.managed
		if c.Population != 32 || c.QoA.TM != 100*sim.Millisecond || c.QoA.TC != 400*sim.Millisecond ||
			c.Duration != 2*sim.Second || c.Wave.Start != 500*sim.Millisecond ||
			c.Wave.Spread != 400*sim.Millisecond || c.Loss != 0 || c.IMX6Fraction != 1 {
			t.Errorf("%s: wall-paced defaults not applied: %+v", name, c)
		}

		spec, err = parseArgs(append(args, "-population", "8", "-tm", "50ms", "-duration", "5s", "-imx6", "0.5"))
		if err != nil {
			t.Fatalf("%s + overrides: %v", name, err)
		}
		c = spec.managed
		if c.Population != 8 || c.QoA.TM != 50*sim.Millisecond || c.Duration != 5*sim.Second || c.IMX6Fraction != 0.5 {
			t.Errorf("%s: explicit flags lost to defaults: %+v", name, c)
		}
		if c.QoA.TC != 400*sim.Millisecond {
			t.Errorf("%s: unset -tc lost its wall-paced default: %v", name, c.QoA.TC)
		}
	}
}

func TestParseArgsServe(t *testing.T) {
	spec, err := parseArgs([]string{"-transport", "sim", "-serve", "127.0.0.1:0", "-duration", "0", "-aggregate", "-adaptive"})
	if err != nil {
		t.Fatal(err)
	}
	c := spec.managed
	if spec.serve != "127.0.0.1:0" || c.Duration != 0 || !c.Aggregate || !c.AdaptiveSchedule {
		t.Fatalf("served until-signalled aggregate run misparsed: serve=%q %+v", spec.serve, c)
	}
}

func TestParseArgsRejects(t *testing.T) {
	type reject struct {
		args []string
		want string // what the error must name
	}
	cases := []reject{
		{[]string{"-duration", "0"}, "-duration 0"},
		{[]string{"-transport", "sim", "-duration", "0"}, "-duration 0"},
		{[]string{"-transport", "sim", "-serve", ":0", "-duration", "-1s"}, "negative -duration"},
		{[]string{"-recover"}, "-state-dir"},
		{[]string{"-alg", "nope"}, "nope"},
	}
	// Every managed-only flag, explicitly set, is an error on the sharded
	// runtime — including one set to its default value.
	values := map[string]string{
		"adaptive": "true", "aggregate": "true", "delta": "true", "latency": "1ms",
		"pool": "4", "serve": ":0", "state-dir": "/tmp/x", "sync-verify": "true",
	}
	for name := range managedOnly {
		v, ok := values[name]
		if !ok {
			t.Fatalf("managed-only flag -%s has no case here", name)
		}
		cases = append(cases, reject{[]string{"-" + name + "=" + v}, "-" + name})
	}
	for _, c := range cases {
		if _, err := parseArgs(c.args); err == nil {
			t.Errorf("%v accepted", c.args)
		} else if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: error %q does not name %s", c.args, err, c.want)
		}
	}
	// The same flags are fine once a transport is chosen.
	if _, err := parseArgs([]string{"-transport", "udp", "-aggregate", "-pool", "4", "-state-dir", "/tmp/x"}); err != nil {
		t.Errorf("managed flags rejected with -transport: %v", err)
	}
	// -recover needs no transport.
	if spec, err := parseArgs([]string{"-recover", "-state-dir", "/tmp/x"}); err != nil || spec.recoverDir != "/tmp/x" {
		t.Errorf("-recover -state-dir: %+v, %v", spec, err)
	}
}
