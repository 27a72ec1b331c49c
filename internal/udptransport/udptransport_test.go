package udptransport

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"erasmus/internal/core"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/hw/imx6"
	"erasmus/internal/sim"
)

const alg = mac.KeyedBLAKE2s

var key = []byte("udp-test-device-key")

// startServer boots an i.MX6-class prover with a 30 ms measurement period
// (1.8 ms modeled measurements) and serves it on loopback UDP.
func startServer(t *testing.T) (*Server, time.Time) {
	t.Helper()
	e := sim.NewEngine()
	dev, err := imx6.New(imx6.Config{
		Engine:     e,
		MemorySize: 64 * 1024,
		StoreSize:  64 * core.RecordSize(alg),
		Key:        key,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewRegular(30 * sim.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProver(dev, core.ProverConfig{Alg: alg, Schedule: sched, Slots: 64})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	started := time.Now()
	srv, err := Serve("127.0.0.1:0", e, p, alg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, started
}

func dialServer(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr().String(), alg, key)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCollectOverRealUDP(t *testing.T) {
	srv, _ := startServer(t)
	c := dialServer(t, srv)

	// Let the wall clock (and hence the virtual schedule) run.
	time.Sleep(250 * time.Millisecond)

	recs, err := c.Collect(8)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 {
		t.Fatalf("got %d records after 250ms at TM=30ms", len(recs))
	}
	for i, r := range recs {
		if !r.VerifyMAC(alg, key) {
			t.Fatalf("record %d fails authentication", i)
		}
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].T >= recs[i-1].T {
			t.Fatal("records not newest-first")
		}
	}
}

func TestCollectODOverRealUDP(t *testing.T) {
	srv, started := startServer(t)
	c := dialServer(t, srv)
	time.Sleep(120 * time.Millisecond)

	clock := func() uint64 { return imx6.DefaultEpoch + uint64(time.Since(started)) }
	m0, hist, err := c.CollectOD(4, clock)
	if err != nil {
		t.Fatal(err)
	}
	if !m0.VerifyMAC(alg, key) {
		t.Fatal("M0 not authentic")
	}
	if len(hist) == 0 {
		t.Fatal("no history returned")
	}
	if m0.T <= hist[0].T {
		t.Fatal("M0 not fresher than stored history")
	}
}

func TestForgedODRequestIgnored(t *testing.T) {
	srv, started := startServer(t)
	bad, err := Dial(srv.Addr().String(), alg, []byte("wrong-key"))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	bad.Timeout = 100 * time.Millisecond
	bad.Attempts = 2
	clock := func() uint64 { return imx6.DefaultEpoch + uint64(time.Since(started)) }
	if _, _, err := bad.CollectOD(1, clock); err != ErrTimeout {
		t.Fatalf("forged OD request: err = %v, want ErrTimeout", err)
	}
}

func TestMalformedDatagramsDropped(t *testing.T) {
	srv, _ := startServer(t)
	c := dialServer(t, srv)
	// Raw garbage via the same socket path.
	c.conn.Write([]byte{0x99, 1, 2, 3})
	c.conn.Write([]byte{msgCollectReq, 1}) // truncated request
	time.Sleep(80 * time.Millisecond)
	// Server is still alive.
	if _, err := c.Collect(1); err != nil {
		t.Fatalf("server wedged by malformed datagrams: %v", err)
	}
}

func TestClientTimeoutAgainstDeadServer(t *testing.T) {
	srv, _ := startServer(t)
	addr := srv.Addr().String()
	srv.Close()
	c, err := Dial(addr, alg, key)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Timeout = 50 * time.Millisecond
	c.Attempts = 2
	if _, err := c.Collect(1); err != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestServeValidation(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", nil, nil, alg); err == nil {
		t.Error("nil engine/prover accepted")
	}
	if _, err := Dial("127.0.0.1:1", mac.Algorithm(0), key); err == nil {
		t.Error("invalid algorithm accepted")
	}
}

func TestCloseIdempotent(t *testing.T) {
	srv, _ := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// The anti-replay floor regression: treq must track the clock, not
// accumulate an offset. After any number of requests under a frozen clock,
// one clock advance must bring treq back to exactly clock() — the old
// clock()+nonce scheme kept the accumulated nonce in every later
// timestamp, ratcheting the prover's floor ahead of real time. Both
// transports (this client and session.VerifierClient) share the rule via
// core.NextTreq against the client's floor field.
func TestODTreqTracksClock(t *testing.T) {
	c := &Client{}
	now := uint64(1_000_000)
	clock := func() uint64 { return now }
	prev := core.NextTreq(clock, &c.lastTreq)
	for i := 0; i < 100; i++ {
		got := core.NextTreq(clock, &c.lastTreq)
		if got <= prev {
			t.Fatalf("treq not strictly increasing: %d after %d", got, prev)
		}
		prev = got
	}
	now += 5_000_000
	if got := core.NextTreq(clock, &c.lastTreq); got != now {
		t.Fatalf("after clock advance treq = %d, want exactly clock %d (offset %d leaked)",
			got, now, got-now)
	}
}

// A verifier that reconnects with fresh client state (treq floor unknown)
// and an honest clock must be accepted even after a previous client issued
// many on-demand requests.
func TestReconnectingClientNotLockedOut(t *testing.T) {
	srv, started := startServer(t)
	clock := func() uint64 { return imx6.DefaultEpoch + uint64(time.Since(started)) }

	first := dialServer(t, srv)
	time.Sleep(120 * time.Millisecond)
	for i := 0; i < 5; i++ {
		if _, _, err := first.CollectOD(2, clock); err != nil {
			t.Fatalf("first client request %d: %v", i, err)
		}
	}
	first.Close()

	fresh := dialServer(t, srv)
	fresh.Timeout = 200 * time.Millisecond
	m0, _, err := fresh.CollectOD(2, clock)
	if err != nil {
		t.Fatalf("reconnecting client locked out: %v", err)
	}
	if !m0.VerifyMAC(alg, key) {
		t.Fatal("M0 not authentic")
	}
}

// A socket that dies underneath the server (without Close being called)
// must terminate the read loop rather than spin it at 100% CPU forever.
func TestServeExitsOnDeadSocket(t *testing.T) {
	srv, _ := startServer(t)
	srv.conn.Close() // simulate the socket failing out from under serve
	select {
	case <-srv.serveExited:
	case <-time.After(2 * time.Second):
		t.Fatal("serve loop still running on a closed socket")
	}
	srv.Close() // still safe afterwards
}

// startFleetServer hosts n provers (keys fleet-key-<i>) on one socket.
func startFleetServer(t *testing.T, n int) (*Server, [][]byte) {
	t.Helper()
	e := sim.NewEngine()
	srv, err := ServeFleet("127.0.0.1:0", e, alg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	keys := make([][]byte, n)
	for i := 0; i < n; i++ {
		keys[i] = []byte(fmt.Sprintf("fleet-key-%02d", i))
		dev, err := imx6.New(imx6.Config{
			Engine:     e,
			MemorySize: 4 * 1024,
			StoreSize:  32 * core.RecordSize(alg),
			Key:        keys[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		sched, _ := core.NewRegularWithPhase(30*sim.Millisecond, sim.Ticks(i)*sim.Millisecond)
		p, err := core.NewProver(dev, core.ProverConfig{Alg: alg, Schedule: sched, Slots: 32})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		if err := srv.Host(fmt.Sprintf("dev-%02d", i), p); err != nil {
			t.Fatal(err)
		}
	}
	return srv, keys
}

// One socket hosts many provers; a pooled client demuxes them by device
// id and every history authenticates under its own device key.
func TestFleetServerDemux(t *testing.T) {
	srv, keys := startFleetServer(t, 4)
	fc, err := DialFleet(srv.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	time.Sleep(200 * time.Millisecond)

	var wg sync.WaitGroup
	errs := make([]error, len(keys))
	for i := range keys {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			recs, err := fc.Collect(fmt.Sprintf("dev-%02d", i), alg, 4)
			if err != nil {
				errs[i] = err
				return
			}
			if len(recs) < 3 {
				errs[i] = fmt.Errorf("only %d records", len(recs))
				return
			}
			for _, r := range recs {
				if !r.VerifyMAC(alg, keys[i]) {
					errs[i] = fmt.Errorf("record not authentic under device %d's key", i)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("device %d: %v", i, err)
		}
	}

	// Unknown ids are dropped silently, like a dark device.
	fc.Timeout = 50 * time.Millisecond
	fc.Attempts = 1
	if _, err := fc.Collect("no-such-device", alg, 1); err != ErrTimeout {
		t.Fatalf("unknown device: err = %v, want ErrTimeout", err)
	}
	if _, err := fc.Collect("", alg, 1); err == nil {
		t.Fatal("empty device id accepted")
	}
}

// Unhosting removes a device from the demux table.
func TestFleetUnhost(t *testing.T) {
	srv, _ := startFleetServer(t, 1)
	fc, err := DialFleet(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	fc.Timeout = 50 * time.Millisecond
	fc.Attempts = 1
	time.Sleep(80 * time.Millisecond)
	if _, err := fc.Collect("dev-00", alg, 1); err != nil {
		t.Fatalf("hosted device unreachable: %v", err)
	}
	srv.Unhost("dev-00")
	if _, err := fc.Collect("dev-00", alg, 1); err != ErrTimeout {
		t.Fatalf("unhosted device: err = %v, want ErrTimeout", err)
	}
}

func TestCollectDeltaOverRealUDP(t *testing.T) {
	srv, _ := startServer(t)
	c := dialServer(t, srv)

	time.Sleep(250 * time.Millisecond)
	full, err := c.Collect(4)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 4 {
		t.Fatalf("got %d records", len(full))
	}
	since := full[0].T

	// More measurements land (TM = 30 ms), then the delta request ships
	// only the anchor and what is newer.
	time.Sleep(120 * time.Millisecond)
	recs, err := c.CollectDelta(since, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("delta shipped %d records, want anchor + new", len(recs))
	}
	if recs[len(recs)-1].T != since {
		t.Fatalf("oldest shipped t=%d, want anchor t=%d", recs[len(recs)-1].T, since)
	}
	for i, r := range recs {
		if r.T < since {
			t.Fatalf("record %d older than the watermark", i)
		}
		if !r.VerifyMAC(alg, key) {
			t.Fatalf("record %d fails authentication", i)
		}
	}
}

// The fleet protocol's delta frame: the server demuxes per-device delta
// requests on one socket exactly like full collections.
func TestFleetCollectDeltaDemux(t *testing.T) {
	e := sim.NewEngine()
	build := func(id string, devKey []byte) *core.Prover {
		dev, err := imx6.New(imx6.Config{
			Engine: e, MemorySize: 4096,
			StoreSize: 16 * core.RecordSize(alg),
			Key:       devKey,
		})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := core.NewRegular(30 * sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewProver(dev, core.ProverConfig{Alg: alg, Schedule: sched, Slots: 16})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		return p
	}
	keyA := []byte("fleet-delta-key-a")
	keyB := []byte("fleet-delta-key-b")
	pa, pb := build("a", keyA), build("b", keyB)
	srv, err := ServeFleet("127.0.0.1:0", e, alg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Host("dev-a", pa); err != nil {
		t.Fatal(err)
	}
	if err := srv.Host("dev-b", pb); err != nil {
		t.Fatal(err)
	}
	fc, err := DialFleet(srv.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	time.Sleep(250 * time.Millisecond)
	fullA, err := fc.Collect("dev-a", alg, 4)
	if err != nil {
		t.Fatal(err)
	}
	since := fullA[0].T
	time.Sleep(120 * time.Millisecond)

	recsA, err := fc.CollectDelta("dev-a", alg, since, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recsA) < 2 || recsA[len(recsA)-1].T != since {
		t.Fatalf("delta for dev-a wrong: %d records", len(recsA))
	}
	for i, r := range recsA {
		if !r.VerifyMAC(alg, keyA) {
			t.Fatalf("dev-a record %d not authentic under dev-a's key (cross-device mixup?)", i)
		}
	}
	// A delta for an unknown device is silently dropped, like any request
	// to a dark device.
	fc.Timeout, fc.Attempts = 50*time.Millisecond, 1
	if _, err := fc.CollectDelta("dev-zz", alg, since, 0); err == nil {
		t.Fatal("unknown device answered a delta request")
	}
}

func TestCollectDeltaAggregateOverRealUDP(t *testing.T) {
	srv, _ := startServer(t)
	c := dialServer(t, srv)

	// Measurements commit at 10, 40, …, 220 ms: collecting at 235 ms finds
	// exactly the 8 records the request asks for, with 15 ms to spare on
	// either side (at 250 ms the ninth is being committed, and whether the
	// shipped chain covers only the shipped records is a coin toss).
	time.Sleep(235 * time.Millisecond)
	recs, state, aggMAC, err := c.CollectDeltaAggregate(0, 41, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 3 {
		t.Fatalf("got %d records after 250ms at TM=30ms", len(recs))
	}
	if len(state) == 0 || len(aggMAC) == 0 {
		t.Fatalf("aggregate evidence missing: state=%d MAC=%d bytes", len(state), len(aggMAC))
	}
	// The one MAC binds the shipped head to this exact challenge.
	if !mac.Verify(alg, key, core.AggMACInput(0, 41, nil, state), aggMAC) {
		t.Fatal("aggregate MAC does not verify against the challenge")
	}
	if mac.Verify(alg, key, core.AggMACInput(0, 42, nil, state), aggMAC) {
		t.Fatal("aggregate MAC verifies under a different nonce")
	}
	// The shipped state is the chain over exactly the shipped records.
	want, err := core.ChainOf(nil, recs)
	if err != nil {
		t.Fatal(err)
	}
	if string(want) != string(state) {
		t.Fatal("shipped chain state does not match the shipped records")
	}

	// Anchored follow-up: since/anchor from the newest record.
	since := recs[0].T
	time.Sleep(120 * time.Millisecond)
	recs2, state2, aggMAC2, err := c.CollectDeltaAggregate(since, 43, recs[0].Hash, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) < 2 || recs2[len(recs2)-1].T != since {
		t.Fatalf("anchored aggregate shipped %d records, oldest t=%d, want anchor t=%d",
			len(recs2), recs2[len(recs2)-1].T, since)
	}
	if !mac.Verify(alg, key, core.AggMACInput(since, 43, recs[0].Hash, state2), aggMAC2) {
		t.Fatal("anchored aggregate MAC does not verify")
	}
	// Resuming the walk from the previous head over the new records
	// (anchor excluded — it was already absorbed) lands on the new head.
	want2, err := core.ChainOf(state, recs2[:len(recs2)-1])
	if err != nil {
		t.Fatal(err)
	}
	if string(want2) != string(state2) {
		t.Fatal("anchored chain state does not resume from the previous head")
	}
}

// The fleet protocol's aggregate frames: per-device demux on one socket,
// evidence MAC'd under each device's own key.
func TestFleetCollectDeltaAggregateDemux(t *testing.T) {
	e := sim.NewEngine()
	build := func(devKey []byte) *core.Prover {
		dev, err := imx6.New(imx6.Config{
			Engine: e, MemorySize: 4096,
			StoreSize: 16 * core.RecordSize(alg),
			Key:       devKey,
		})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := core.NewRegular(30 * sim.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		p, err := core.NewProver(dev, core.ProverConfig{Alg: alg, Schedule: sched, Slots: 16})
		if err != nil {
			t.Fatal(err)
		}
		p.Start()
		return p
	}
	keyA := []byte("fleet-agg-key-a")
	keyB := []byte("fleet-agg-key-b")
	pa, pb := build(keyA), build(keyB)
	srv, err := ServeFleet("127.0.0.1:0", e, alg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.Host("dev-a", pa); err != nil {
		t.Fatal(err)
	}
	if err := srv.Host("dev-b", pb); err != nil {
		t.Fatal(err)
	}
	fc, err := DialFleet(srv.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()

	time.Sleep(250 * time.Millisecond)
	recsA, stateA, macA, err := fc.CollectDeltaAggregate("dev-a", alg, 0, 7, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	recsB, stateB, macB, err := fc.CollectDeltaAggregate("dev-b", alg, 0, 8, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recsA) == 0 || len(recsB) == 0 {
		t.Fatalf("no records: a=%d b=%d", len(recsA), len(recsB))
	}
	if !mac.Verify(alg, keyA, core.AggMACInput(0, 7, nil, stateA), macA) {
		t.Fatal("dev-a evidence not MAC'd under dev-a's key")
	}
	if !mac.Verify(alg, keyB, core.AggMACInput(0, 8, nil, stateB), macB) {
		t.Fatal("dev-b evidence not MAC'd under dev-b's key")
	}
	// Cross-checks: evidence must not verify under the other device's key.
	if mac.Verify(alg, keyB, core.AggMACInput(0, 7, nil, stateA), macA) {
		t.Fatal("dev-a evidence verifies under dev-b's key (cross-device mixup?)")
	}
}
