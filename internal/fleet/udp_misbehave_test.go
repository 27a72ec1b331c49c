package fleet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"erasmus/internal/core"
	"erasmus/internal/hw/imx6"
	"erasmus/internal/session"
	"erasmus/internal/sim"
	"erasmus/internal/udptransport"
)

// What a misbehaving network does to one datagram. Every action delivers
// the genuine datagram intact — the scenario's collections must observe
// exactly the records the clean run observes — and most inject something
// extra around it.
type netAction int

const (
	actPass      netAction = iota
	actDuplicate           // the datagram twice
	actTruncate            // a cut-short copy ahead of the datagram
	actReorder             // held back until the next datagram has passed
	actStaleXID            // requests only: an earlier request replayed (stale xid, right device id)
	actWrongID             // requests only: a copy readdressed to another device (right xid, wrong device id)
	numActions
)

// misbehavingRelay sits between a UDPCollector and a fleet server on
// loopback and mangles traffic in both directions from a seeded plan.
type misbehavingRelay struct {
	lis    *net.UDPConn
	server *net.UDPAddr
	ids    []string // hosted device ids, all the same length
	wg     sync.WaitGroup

	mu       sync.Mutex
	plan     []netAction                     // the seeded plan; each direction consumes its own half in arrival order
	cuts     []float64                       // where along the datagram plan[i]'s truncation cuts
	next     [2]int                          // requests [0] walk the plan from 0, replies [1] from the middle
	upstream map[netip.AddrPort]*net.UDPConn // one socket towards the server per client socket
	seen     [][]byte                        // requests so far, for replays
	held     func()                          // a reordered datagram waiting for its successor
	injected [2][numActions]int              // what each action injected, into requests [0] and into replies [1]
	requests int                             // genuine requests forwarded
}

func startRelay(t *testing.T, server *net.UDPAddr, ids []string, seed int64) *misbehavingRelay {
	t.Helper()
	lis, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	r := &misbehavingRelay{lis: lis, server: server, ids: ids, upstream: make(map[netip.AddrPort]*net.UDPConn)}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 1024; i++ {
		r.plan = append(r.plan, netAction(rng.Intn(int(numActions))))
		r.cuts = append(r.cuts, rng.Float64())
	}
	r.wg.Add(1)
	go r.clientSide(t)
	return r
}

func (r *misbehavingRelay) close() {
	r.lis.Close()
	r.mu.Lock()
	for _, up := range r.upstream {
		up.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
}

// clientSide forwards requests to the server, one upstream socket per
// client socket so replies find their way back.
func (r *misbehavingRelay) clientSide(t *testing.T) {
	defer r.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, client, err := r.lis.ReadFromUDPAddrPort(buf)
		if err != nil {
			return
		}
		dgram := append([]byte(nil), buf[:n]...)
		r.mu.Lock()
		up := r.upstream[client]
		if up == nil {
			if up, err = net.DialUDP("udp", nil, r.server); err != nil {
				r.mu.Unlock()
				t.Error(err)
				return
			}
			r.upstream[client] = up
			r.wg.Add(1)
			go r.serverSide(up, client)
		}
		r.requests++
		r.mangle(dgram, true, func(b []byte) { up.Write(b) })
		r.seen = append(r.seen, dgram)
		r.mu.Unlock()
	}
}

// serverSide forwards the replies arriving on one upstream socket back to
// the client socket it stands for.
func (r *misbehavingRelay) serverSide(up *net.UDPConn, client netip.AddrPort) {
	defer r.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, err := up.Read(buf)
		if err != nil {
			return
		}
		dgram := append([]byte(nil), buf[:n]...)
		r.mu.Lock()
		r.mangle(dgram, false, func(b []byte) { r.lis.WriteToUDPAddrPort(b, client) })
		r.mu.Unlock()
	}
}

// mangle delivers one genuine datagram through send, applying the plan's
// next action. Callers hold mu.
func (r *misbehavingRelay) mangle(dgram []byte, request bool, send func([]byte)) {
	dir := 1
	if request {
		dir = 0
	}
	at := (dir*len(r.plan)/2 + r.next[dir]) % len(r.plan)
	r.next[dir]++
	act, cut, injected := r.plan[at], r.cuts[at], &r.injected[dir]
	if held := r.held; held != nil && act != actReorder {
		// The datagram held back goes out after this one.
		defer held()
		r.held = nil
	}
	switch {
	case act == actDuplicate:
		send(dgram)
		injected[act]++
	case act == actTruncate:
		send(dgram[:1+int(cut*float64(len(dgram)-1))])
		injected[act]++
	case act == actReorder && r.held == nil:
		injected[act]++
		r.held = func() { send(dgram) }
		time.AfterFunc(3*time.Millisecond, func() { // nothing followed: let it go
			r.mu.Lock()
			defer r.mu.Unlock()
			if held := r.held; held != nil {
				r.held = nil
				held()
			}
		})
		return
	case act == actStaleXID && request && len(r.seen) > 0:
		defer send(r.seen[int(cut*float64(len(r.seen)))])
		injected[act]++
	case act == actWrongID && request:
		// Fleet frame: type, xid (4), id length, id.
		forged := append([]byte(nil), dgram...)
		id := string(forged[6 : 6+int(forged[5])])
		other := r.ids[int(cut*float64(len(r.ids)))]
		if other == id {
			other = r.ids[(int(cut*float64(len(r.ids)))+1)%len(r.ids)]
		}
		copy(forged[6:], other)
		defer send(forged)
		injected[act]++
	}
	send(dgram)
}

// onceCollector checks the Collector contract on the way through: every
// accepted collection calls back exactly once.
type onceCollector struct {
	*UDPCollector
	mu       sync.Mutex
	launches []*atomic.Int32
	attempts []int // of the successful ones
}

func (c *onceCollector) watch(cb func(session.CollectResult, error)) func(session.CollectResult, error) {
	n := new(atomic.Int32)
	c.mu.Lock()
	c.launches = append(c.launches, n)
	c.mu.Unlock()
	return func(res session.CollectResult, err error) {
		n.Add(1)
		if err == nil {
			c.mu.Lock()
			c.attempts = append(c.attempts, res.Attempts)
			c.mu.Unlock()
		}
		cb(res, err)
	}
}

func (c *onceCollector) Collect(addr string, k int, cb func(session.CollectResult, error)) error {
	return c.UDPCollector.Collect(addr, k, c.watch(cb))
}

func (c *onceCollector) CollectDelta(addr string, since uint64, k int, cb func(session.CollectResult, error)) error {
	return c.UDPCollector.CollectDelta(addr, since, k, c.watch(cb))
}

func (c *onceCollector) CollectDeltaAggregate(addr string, since, nonce uint64, anchorHash []byte, k int, cb func(session.CollectResult, error)) error {
	return c.UDPCollector.CollectDeltaAggregate(addr, since, nonce, anchorHash, k, c.watch(cb))
}

// ROADMAP item 4d: duplicated, reordered, truncated and replayed datagrams
// under the transport-equivalence scenario leave the alert stream equal to
// the clean run's, every callback fires exactly once, and the transport's
// drop counters account for every datagram the network injected.
func TestMisbehavingNetworkEquivalence(t *testing.T) {
	want := canonicalAlerts(runEqOverSim(t))

	proverEngine := sim.NewEngine()
	provers, goldens := buildEqProvers(t, proverEngine)
	srv, err := udptransport.ServeFleet("127.0.0.1:0", proverEngine, alg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var ids []string
	for _, d := range eqFleet() {
		ids = append(ids, d.addr)
		if err := srv.Host(d.addr, provers[d.addr]); err != nil {
			t.Fatal(err)
		}
	}
	relay := startRelay(t, srv.Addr(), ids, 20180319)
	defer relay.close()

	inner, err := NewUDPCollector(relay.lis.LocalAddr().String(), len(provers))
	if err != nil {
		t.Fatal(err)
	}
	col := &onceCollector{UDPCollector: inner}
	mgrEngine := sim.NewEngine()
	clock := func() uint64 { return imx6.DefaultEpoch + uint64(mgrEngine.Now()) }
	mgr, err := NewManagerWith(ManagerConfig{Engine: mgrEngine, Collector: col, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	registerEqFleet(t, mgr, goldens)
	mgr.Start()
	PumpRealTime(mgrEngine, eqHorizon, 2*time.Millisecond)
	mgr.Stop()
	mgr.Flush()
	got := canonicalAlerts(mgr.Alerts())
	// Every collection is resolved, but the datagrams injected behind the
	// last replies may still be on their way: wait until a few
	// milliseconds pass without either end receiving anything.
	client, server := inner.Stats(), srv.Stats()
	for quiet := 0; quiet < 10; quiet++ {
		time.Sleep(5 * time.Millisecond)
		c, s := inner.Stats(), srv.Stats()
		if c != client || s != server {
			client, server, quiet = c, s, 0
		}
	}
	if err := mgr.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(got, want) {
		t.Errorf("alert stream under a misbehaving network diverges from the clean run:\nclean: %+v\n  got: %+v", want, got)
	}
	for i, n := range col.launches {
		if n.Load() != 1 {
			t.Errorf("collection %d called back %d times", i, n.Load())
		}
	}
	completed := uint64(len(col.attempts))
	if int(completed) != len(col.launches) {
		t.Errorf("%d of %d collections succeeded; the network lost nothing", completed, len(col.launches))
	}
	for _, a := range col.attempts {
		if a != 1 {
			t.Errorf("a collection reports %d attempts; nothing was retransmitted", a)
		}
	}

	relay.mu.Lock()
	req, resp, requests := relay.injected[0], relay.injected[1], uint64(relay.requests)
	relay.mu.Unlock()
	t.Logf("into %d requests: %d duplicated, %d truncated, %d reordered, %d stale-xid, %d wrong-id; into the replies: %d duplicated, %d truncated, %d reordered",
		requests, req[actDuplicate], req[actTruncate], req[actReorder], req[actStaleXID], req[actWrongID],
		resp[actDuplicate], resp[actTruncate], resp[actReorder])
	t.Logf("client %+v", client)
	t.Logf("server %+v", server)
	for act := actDuplicate; act < numActions; act++ {
		if req[act] == 0 || (resp[act] == 0 && act <= actReorder) {
			t.Errorf("the plan never exercised action %d in both directions; pick another seed", act)
		}
	}
	if requests != completed || client.Sent != requests || client.Retransmits+client.Timeouts+client.SocketErrors != 0 {
		t.Errorf("%d requests for %d collections, client %+v: want one transmission each", requests, completed, client)
	}
	// The relay's ledger against the transport's counters: every datagram
	// the network injected was received, and every datagram received was
	// answered, completed an exchange, or sits in a drop counter.
	// Truncated requests never decode; every other request, genuine or
	// injected, names a hosted device and is answered.
	toServer := requests + uint64(req[actDuplicate]+req[actTruncate]+req[actStaleXID]+req[actWrongID])
	if server.Received != toServer || server.Malformed != uint64(req[actTruncate]) ||
		server.Sent != toServer-server.Malformed || server.Rejected != 0 {
		t.Errorf("server %+v: want %d received, the %d truncated ones dropped as malformed, the rest answered",
			server, toServer, req[actTruncate])
	}
	toClient := server.Sent + uint64(resp[actDuplicate]+resp[actTruncate])
	if client.Received != toClient || client.Received != completed+client.Stale+client.Malformed {
		t.Errorf("client %+v: want %d received: %d completing a collection, every other one in a drop counter",
			client, toClient, completed)
	}
	if client.Stale == 0 || client.Malformed == 0 || client.Malformed > uint64(resp[actTruncate]) {
		t.Errorf("client %+v: want stale drops (duplicates, replays, wrong ids) and malformed drops (the %d truncations at most)",
			client, resp[actTruncate])
	}
}

// The attempt count in a CollectResult is the number of datagrams the
// exchange really sent — not 1 on every success and the whole budget on
// every failure — and the one-outstanding-per-device slot is held exactly
// as long as the collection is.
func TestUDPCollectorReportsRealAttempts(t *testing.T) {
	proverEngine := sim.NewEngine()
	provers, _ := buildEqProvers(t, proverEngine)
	srv, err := udptransport.ServeFleet("127.0.0.1:0", proverEngine, alg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	col, err := NewUDPCollector(srv.Addr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	col.SetRetryBudget(60*time.Millisecond, 4)
	if err := col.Register(DeviceConfig{Addr: "eq-00", Alg: alg}); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		res session.CollectResult
		err error
	}
	results := make(chan outcome, 1)
	cb := func(res session.CollectResult, err error) { results <- outcome{res, err} }

	// Not hosted yet: the first attempt goes unanswered, a later one lands.
	if err := col.Collect("eq-00", 1, cb); err != nil {
		t.Fatal(err)
	}
	if err := col.Collect("eq-00", 1, cb); err == nil {
		t.Fatal("a second collection to a device with one outstanding was accepted")
	}
	time.Sleep(90 * time.Millisecond)
	if err := srv.Host("eq-00", provers["eq-00"]); err != nil {
		t.Fatal(err)
	}
	if o := <-results; o.err != nil || o.res.Attempts < 2 || o.res.Attempts > 4 {
		t.Fatalf("retransmitted collection: attempts = %d, err = %v", o.res.Attempts, o.err)
	}

	if err := col.CollectDelta("eq-00", 0, 1, cb); err != nil {
		t.Fatalf("the slot of a completed collection was not released: %v", err)
	}
	if o := <-results; o.err != nil || o.res.Attempts != 1 {
		t.Fatalf("clean collection: attempts = %d, err = %v", o.res.Attempts, o.err)
	}

	srv.Unhost("eq-00")
	if err := col.Collect("eq-00", 1, cb); err != nil {
		t.Fatal(err)
	}
	if o := <-results; !errors.Is(o.err, udptransport.ErrTimeout) || o.res.Attempts != 4 {
		t.Fatalf("dark device: attempts = %d, err = %v; want the whole budget of 4 and ErrTimeout", o.res.Attempts, o.err)
	}

	// Closing with a collection in flight fails it once, having sent once.
	col.SetRetryBudget(time.Minute, 4)
	if err := col.Collect("eq-00", 1, cb); err != nil {
		t.Fatal(err)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	if o := <-results; !errors.Is(o.err, udptransport.ErrClosed) || o.res.Attempts != 1 {
		t.Fatalf("closed in flight: attempts = %d, err = %v; want 1 and ErrClosed", o.res.Attempts, o.err)
	}
	select {
	case o := <-results:
		t.Fatalf("a second callback for the closed collection: %+v", o)
	case <-time.After(20 * time.Millisecond):
	}
	if err := col.Collect("eq-00", 1, cb); !errors.Is(err, udptransport.ErrClosed) {
		t.Fatalf("Collect on a closed collector: %v", err)
	}
}

// A burst of collections — a scheduler catching up after a stall, a fleet
// whose devices share a phase — must not overflow a kernel receive buffer:
// one lost datagram costs a collection half a second, and at TC < 500 ms
// that reads as an unreachable device. Each socket keeps only a window of
// exchanges on the wire; the rest queue in user space, so every collection
// of the burst is answered on its first attempt.
func TestCollectionBurstLosesNothing(t *testing.T) {
	const devices, rounds = 1500, 3
	engine := sim.NewEngine()
	provers := make([]*core.Prover, devices)
	for i := range provers {
		dev, err := imx6.New(imx6.Config{
			Engine: engine, MemorySize: 64, StoreSize: 2 * core.RecordSize(alg),
			Key: []byte(fmt.Sprintf("burst-key-%04d", i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		sched, err := core.NewRegular(sim.Second)
		if err != nil {
			t.Fatal(err)
		}
		if provers[i], err = core.NewProver(dev, core.ProverConfig{Alg: alg, Schedule: sched, Slots: 2}); err != nil {
			t.Fatal(err)
		}
		provers[i].MeasureNow()
	}
	engine.RunUntil(100 * sim.Millisecond)
	srv, err := udptransport.ServeFleet("127.0.0.1:0", engine, alg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	col, err := NewUDPCollector(srv.Addr().String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer col.Close()
	addr := func(i int) string { return fmt.Sprintf("burst-%04d", i) }
	for i, p := range provers {
		if err := srv.Host(addr(i), p); err != nil {
			t.Fatal(err)
		}
		if err := col.Register(DeviceConfig{Addr: addr(i), Alg: alg}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		var failed atomic.Int32
		wg.Add(devices)
		for i := 0; i < devices; i++ {
			err := col.Collect(addr(i), 1, func(res session.CollectResult, err error) {
				if err != nil || len(res.Records) != 1 || res.Attempts != 1 {
					failed.Add(1)
				}
				wg.Done()
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		if n := failed.Load(); n != 0 {
			t.Fatalf("round %d: %d of %d collections failed or needed a retransmission", round, n, devices)
		}
	}
	if st := col.Stats(); st.Sent != devices*rounds || st.Received != st.Sent || st.Retransmits+st.Timeouts != 0 {
		t.Fatalf("stats %+v: want %d datagrams each way and no retransmission", st, devices*rounds)
	}
}
