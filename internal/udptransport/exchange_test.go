package udptransport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"erasmus/internal/core"
)

// tally is a Completion that counts its calls and keeps the last outcome.
type tally struct {
	calls atomic.Int32
	done  chan struct{}
	reply Reply
	err   error
}

func newTally() *tally { return &tally{done: make(chan struct{})} }

func (c *tally) ExchangeDone(r Reply, err error) {
	if c.calls.Add(1) == 1 {
		c.reply, c.err = r, err
		close(c.done)
	}
}

func (c *tally) wait(t *testing.T) {
	t.Helper()
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		t.Fatal("exchange never completed")
	}
}

// A server that is away for less than Timeout × Attempts must not fail a
// collection. On a connected socket the ICMP port-unreachable for a closed
// port makes the next Read fail at once; the old loop counted that as an
// expired attempt, burned the whole budget in microseconds and reported a
// timeout. Socket errors consume no attempt: the collection below rides
// out the outage on retransmissions.
func TestServerRestartInsideRetryBudget(t *testing.T) {
	srv, _ := startFleetServer(t, 1)
	addr := srv.Addr().String()
	fc, err := DialFleet(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	fc.Timeout, fc.Attempts = 100*time.Millisecond, 8
	time.Sleep(80 * time.Millisecond)
	if _, err := fc.Collect("dev-00", alg, 1); err != nil {
		t.Fatalf("before the outage: %v", err)
	}

	srv.mu.Lock()
	engine, prover := srv.engine, srv.provers["dev-00"]
	srv.mu.Unlock()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	done := newTally()
	if err := fc.Start("dev-00", alg, Request{Kind: KindFull, K: 1}, done); err != nil {
		t.Fatal(err)
	}
	time.Sleep(250 * time.Millisecond) // a quarter of the budget, several refused attempts
	again, err := ServeFleet(addr, engine, alg)
	if err != nil {
		t.Fatalf("re-serving on %s: %v", addr, err)
	}
	defer again.Close()
	if err := again.Host("dev-00", prover); err != nil {
		t.Fatal(err)
	}
	done.wait(t)
	if done.err != nil {
		t.Fatalf("collection across a %v outage with a %v budget: %v",
			250*time.Millisecond, fc.Timeout*time.Duration(fc.Attempts), done.err)
	}
	if done.reply.Attempts < 2 || len(done.reply.Records) != 1 {
		t.Fatalf("attempts = %d, records = %d; want a retransmitted exchange with 1 record",
			done.reply.Attempts, len(done.reply.Records))
	}
	st := fc.Stats()
	if st.Retransmits == 0 || st.Timeouts != 0 {
		t.Fatalf("stats %+v: want retransmissions and no timeout", st)
	}
	t.Logf("socket errors absorbed: %d", st.SocketErrors)
}

// Against a port that stays dead the verdict is ErrTimeout — after the
// whole budget, not after the first ICMP error.
func TestDeadPortTimesOutAfterWholeBudget(t *testing.T) {
	srv, _ := startFleetServer(t, 1)
	addr := srv.Addr().String()
	srv.Close()
	fc, err := DialFleet(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	fc.Timeout, fc.Attempts = 60*time.Millisecond, 3
	start := time.Now()
	_, err = fc.Collect("dev-00", alg, 1)
	if elapsed := time.Since(start); err != ErrTimeout || elapsed < fc.Timeout*time.Duration(fc.Attempts) {
		t.Fatalf("err = %v after %v; want ErrTimeout no earlier than %v",
			err, elapsed, fc.Timeout*time.Duration(fc.Attempts))
	}
	st := fc.Stats()
	if st.Retransmits != 2 || st.Timeouts != 1 || st.Received != 0 {
		t.Fatalf("stats %+v: want 2 retransmissions, 1 timeout, nothing received", st)
	}
	t.Logf("socket errors absorbed: %d", st.SocketErrors)
}

// The attempt count an exchange reports is the number of datagrams it
// really sent, on success and on failure, and the counters say what the
// transport did to it.
func TestAttemptsAndCounters(t *testing.T) {
	srv, _ := startFleetServer(t, 1)
	fc, err := DialFleet(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	fc.Timeout, fc.Attempts = 60*time.Millisecond, 4
	time.Sleep(80 * time.Millisecond)

	first := newTally()
	if err := fc.Start("dev-00", alg, Request{Kind: KindFull, K: 1}, first); err != nil {
		t.Fatal(err)
	}
	first.wait(t)
	if first.err != nil || first.reply.Attempts != 1 {
		t.Fatalf("clean exchange: attempts = %d, err = %v", first.reply.Attempts, first.err)
	}

	// The device goes dark for one attempt and a half: the exchange
	// succeeds on a retransmission and says so.
	srv.mu.Lock()
	prover := srv.provers["dev-00"]
	srv.mu.Unlock()
	srv.Unhost("dev-00")
	retried := newTally()
	if err := fc.Start("dev-00", alg, Request{Kind: KindDelta, Since: 0, K: 1}, retried); err != nil {
		t.Fatal(err)
	}
	time.Sleep(90 * time.Millisecond)
	if err := srv.Host("dev-00", prover); err != nil {
		t.Fatal(err)
	}
	retried.wait(t)
	if retried.err != nil || retried.reply.Attempts < 2 {
		t.Fatalf("retransmitted exchange: attempts = %d, err = %v", retried.reply.Attempts, retried.err)
	}

	dark := newTally()
	if err := fc.Start("no-such-device", alg, Request{Kind: KindFull, K: 1}, dark); err != nil {
		t.Fatal(err)
	}
	dark.wait(t)
	if dark.err != ErrTimeout || dark.reply.Attempts != 4 {
		t.Fatalf("dark device: attempts = %d, err = %v; want 4, ErrTimeout", dark.reply.Attempts, dark.err)
	}

	cs, ss := fc.Stats(), srv.Stats()
	sent := uint64(first.reply.Attempts + retried.reply.Attempts + dark.reply.Attempts)
	if cs.Sent != sent || cs.Retransmits != sent-3 || cs.Timeouts != 1 || cs.Received != 2 || cs.Stale+cs.Malformed != 0 {
		t.Errorf("client stats %+v: want %d sent, %d retransmitted, 1 timeout, 2 received", cs, sent, sent-3)
	}
	if ss.Received != sent || ss.Sent != 2 || ss.Rejected != sent-2 || ss.Malformed != 0 {
		t.Errorf("server stats %+v: want %d received, 2 answered, %d rejected", ss, sent, sent-2)
	}
}

// One socket, one receive buffer, reused for every datagram: the records
// of an earlier reply must survive the next reply landing in the same
// bytes. The fleet pipeline verifies asynchronously, so a Record aliasing
// the buffer would be rewritten under the verifier.
func TestRecordsSurviveReceiveBufferReuse(t *testing.T) {
	srv, keys := startFleetServer(t, 2)
	fc, err := DialFleet(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	time.Sleep(200 * time.Millisecond)

	recs, state, aggMAC, err := fc.CollectDeltaAggregate("dev-00", alg, 0, 1, nil, 4)
	if err != nil || len(recs) < 3 {
		t.Fatalf("%d records, %v", len(recs), err)
	}
	keep := make([]core.Record, len(recs))
	for i, r := range recs {
		keep[i] = core.Record{T: r.T, Hash: bytes.Clone(r.Hash), MAC: bytes.Clone(r.MAC)}
	}
	keepState, keepMAC := bytes.Clone(state), bytes.Clone(aggMAC)
	for i := 0; i < 3; i++ { // same socket, same buffer, another device's bytes
		if _, _, _, err := fc.CollectDeltaAggregate("dev-01", alg, 0, 2, nil, 4); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(recs, keep) || !bytes.Equal(state, keepState) || !bytes.Equal(aggMAC, keepMAC) {
		t.Fatal("a later datagram rewrote an earlier reply: decoded evidence aliases the receive buffer")
	}
	for i, r := range recs {
		if !r.VerifyMAC(alg, keys[0]) {
			t.Fatalf("record %d no longer authentic under its device's key", i)
		}
	}
}

// Close fails every exchange in flight exactly once, and a closed client
// refuses new ones.
func TestCloseFailsInFlightExactlyOnce(t *testing.T) {
	srv, _ := startFleetServer(t, 1)
	fc, err := DialFleet(srv.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	fc.Timeout, fc.Attempts = 30*time.Millisecond, 100
	pending := make([]*tally, 2*socketWindow+8) // more than the sockets' windows: some start queued
	for i := range pending {
		pending[i] = newTally()
		if err := fc.Start("dark-device", alg, Request{Kind: KindFull, K: 1}, pending[i]); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond) // let the sweeper retransmit some
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ { // concurrent Closes are one Close
		wg.Add(1)
		go func() { defer wg.Done(); fc.Close() }()
	}
	wg.Wait()
	time.Sleep(20 * time.Millisecond)
	for i, c := range pending {
		if n := c.calls.Load(); n != 1 || !errors.Is(c.err, ErrClosed) {
			t.Fatalf("exchange %d: completed %d times, err = %v", i, n, c.err)
		}
	}
	if err := fc.Start("dev-00", alg, Request{Kind: KindFull, K: 1}, newTally()); !errors.Is(err, ErrClosed) {
		t.Fatalf("Start on a closed client: %v", err)
	}
	if _, err := fc.Collect("dev-00", alg, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Collect on a closed client: %v", err)
	}
}

// exchangeAllocCeiling is the committed ceiling on heap allocations for
// one warm aggregate exchange, both ends: the client's Start, reader and
// decode, and the server's read loop, handle and prover. The measured
// count is 18; the slack absorbs a runtime timer or two.
const exchangeAllocCeiling = 22

// The datagram path must stay garbage-free: nothing the size of a
// datagram per exchange, and no more allocations than the ceiling.
func TestExchangeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	srv, _ := startFleetServer(t, 1)
	fc, err := DialFleet(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	time.Sleep(100 * time.Millisecond)
	// Stop the prover so the only work in the process is the exchange.
	srv.mu.Lock()
	srv.provers["dev-00"].Stop()
	srv.mu.Unlock()
	time.Sleep(10 * time.Millisecond)

	recs, _, _, err := fc.CollectDeltaAggregate("dev-00", alg, 0, 1, nil, 1)
	if err != nil || len(recs) != 1 {
		t.Fatalf("%d records, %v", len(recs), err)
	}
	since, anchor := recs[0].T, recs[0].Hash
	nonce := uint64(1)
	exchange := func() {
		nonce++
		if _, _, _, err := fc.CollectDeltaAggregate("dev-00", alg, since, nonce, anchor, 1); err != nil {
			t.Error(err)
		}
	}
	for i := 0; i < 10; i++ {
		exchange() // warm: reply buffer grown, pools filled
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, exchange)
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("%.1f allocations, %d bytes per exchange", allocs, perRun)
	if allocs > exchangeAllocCeiling {
		t.Errorf("%.1f allocations per exchange, ceiling %d", allocs, exchangeAllocCeiling)
	}
	// Everything one exchange allocates, together, is far smaller than a
	// datagram buffer — so no single allocation is one.
	if perRun >= maxDatagram/16 {
		t.Errorf("%d bytes allocated per exchange: a datagram-sized buffer is back on the per-exchange path", perRun)
	}
}

func FuzzDecodeFleetFrame(f *testing.F) {
	f.Add(appendFleetFrame(nil, msgFleetCollectReq, 7, "dev-07"))
	f.Add(append(appendFleetFrame(nil, msgFleetAggCollectResp, 1<<31, "x"), 1, 2, 3))
	f.Add([]byte{msgFleetCollectReq, 0, 0, 0, 1, 0})
	f.Add([]byte{msgFleetCollectReq, 0, 0, 0, 1, 200, 'a'})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, dgram []byte) {
		xid, id, payload, err := decodeFleetFrame(dgram)
		if err != nil {
			return
		}
		if len(id) == 0 || len(id) > 255 {
			t.Fatalf("accepted a %d-byte device id", len(id))
		}
		again := append(appendFleetFrame(nil, dgram[0], xid, string(id)), payload...)
		if !bytes.Equal(again, dgram) {
			t.Fatal("frame decode/encode not idempotent")
		}
	})
}

// Whatever arrives, the server must not panic, and what it sends back
// must be addressed to the exchange that asked: the reply type of the
// request, then the request's own exchange id and device id.
func FuzzServerHandle(f *testing.F) {
	srv := frozenServer(f)
	for _, kind := range []CollectKind{KindFull, KindDelta, KindAggregate} {
		r := Request{Kind: kind, Since: 1, Nonce: 2, K: 3, AnchorHash: bytes.Repeat([]byte{9}, 32)}
		f.Add(r.appendTo([]byte{kind.msgType(false)}))
		f.Add(r.appendTo(appendFleetFrame(nil, kind.msgType(true), 0xABCDEF01, "dev-07")))
		f.Add(r.appendTo(appendFleetFrame(nil, kind.msgType(true), 5, "nobody")))
	}
	f.Add(append([]byte{msgODReq}, make([]byte, 12+32)...))
	f.Add([]byte{msgFleetCollectResp, 0, 0, 0, 1, 1, 'a'})
	f.Add([]byte{0x99, 1, 2, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, dgram []byte) {
		before := srv.Stats()
		prefix := []byte("kept")
		out := srv.handle(dgram, prefix)
		if !bytes.HasPrefix(out, prefix) {
			t.Fatal("handle clobbered the bytes already in the reply buffer")
		}
		reply := out[len(prefix):]
		after := srv.Stats()
		if len(reply) == 0 {
			if after.Malformed+after.Rejected != before.Malformed+before.Rejected+1 {
				t.Fatal("a dropped datagram was not counted")
			}
			return
		}
		op := requestOps[dgram[0]]
		if reply[0] != op.resp {
			t.Fatalf("request type %#x answered with type %#x", dgram[0], reply[0])
		}
		if !op.framed {
			return
		}
		xid, id, _, err := decodeFleetFrame(reply)
		if err != nil {
			t.Fatalf("reply frame: %v", err)
		}
		if xid != binary.BigEndian.Uint32(dgram[1:5]) || !bytes.Equal(id, dgram[6:6+int(dgram[5])]) {
			t.Fatal("reply carries another exchange's id or device id")
		}
	})
}
