// Package udptransport serves the ERASMUS collection protocols over real
// UDP sockets (standard library net), turning simulated provers into
// daemons a verifier can poll across an actual network.
//
// The prover's runtime is event-driven on virtual time; this package
// bridges the two clocks by pumping the simulation forward to track the
// wall clock: one virtual nanosecond per elapsed wall nanosecond. The
// measurement schedule therefore fires in real time, and collection
// requests observe the same buffer state a hardware deployment would.
//
// A Server hosts any number of provers on one socket. The original
// single-prover datagrams (one type byte followed by the wire encodings
// from internal/core) address the server's default prover; fleet datagrams
// carry an exchange id and a device-id frame in front of the payload, so
// one socket demuxes collections for a whole population. To the code the
// un-framed protocol is the framed one with exchange id 0 and the empty
// device id.
//
// # Concurrency and buffers
//
// Nothing the size of a datagram is allocated per exchange: buffers live
// with the socket. The server's read loop owns one receive buffer and one
// reply buffer and encodes each answer in place; it holds Server.mu only
// to advance the clock and call the prover, never to decode or encode.
//
// A client (Client, FleetClient) is a set of connected sockets multiplexed
// by exchange id. Starting an exchange encodes the request, registers it
// as pending and writes it, all on the caller's goroutine — unless the
// socket already has socketWindow exchanges awaiting their first answer,
// in which case it is written when one of them is answered or its first
// attempt expires, so a burst queues in user space instead of overflowing
// a kernel buffer. One reader
// goroutine per socket owns that socket's receive buffer: it matches each
// reply to a pending exchange on both the exchange id and the echoed
// device id, decodes it — core's decoders copy, so nothing a caller gets
// aliases the buffer the next datagram lands in — and completes the
// exchange. One sweeper goroutine per client retransmits exchanges whose
// attempt expired and fails those out of attempts with ErrTimeout. A
// socket error (an ICMP port-unreachable on a connected socket, say) is
// neither a reply nor a timeout: it is counted and the attempt runs out
// its time. Every exchange completes exactly once: by its reply, by the
// sweeper, or by Close.
package udptransport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"erasmus/internal/core"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/sim"
)

// Message type bytes.
const (
	msgCollectReq  = 0x01
	msgCollectResp = 0x02
	msgODReq       = 0x03
	msgODResp      = 0x04
	// Fleet messages prefix the payload with [xid uint32][idLen uint8][id],
	// echoed verbatim in the response so a client can match replies to
	// requests.
	msgFleetCollectReq  = 0x05
	msgFleetCollectResp = 0x06
	// Delta (since-watermark) collections: the incremental protocol of a
	// stateful verifier. Responses reuse msgCollectResp/msgFleetCollectResp
	// — a record list is a record list, whichever request produced it.
	msgDeltaCollectReq      = 0x07
	msgFleetDeltaCollectReq = 0x08
	// Aggregate-anchor collections carry evidence (chain head + one MAC)
	// ahead of the record list, so they get their own response types.
	msgAggDeltaCollectReq      = 0x09
	msgAggCollectResp          = 0x0A
	msgFleetAggDeltaCollectReq = 0x0B
	msgFleetAggCollectResp     = 0x0C
)

const maxDatagram = 64 * 1024

// defaultProverID keys the prover addressed by the original un-framed
// single-prover messages.
const defaultProverID = ""

// Limits for the serve loop's persistent-error handling: a socket that
// keeps failing must not spin a goroutine at 100% CPU, and one that can
// never recover must not keep a dead server half-alive.
const (
	maxReadErrors  = 64
	maxReadBackoff = 250 * time.Millisecond
)

// Client-side pacing. sweepEvery is how often the sweeper looks for
// expired attempts, so a timeout fires at most this much late and never
// early. readErrorPause keeps a reader whose socket fails persistently
// from spinning; it must stay small, because replies wait behind it.
// socketWindow is how many exchanges a socket keeps on the wire awaiting
// their first answer; the rest wait their turn in user space, where a
// burst of collections (a scheduler catching up after a stall, a fleet
// with one phase) cannot overflow a kernel receive buffer and turn into
// half-second retransmissions.
const (
	sweepEvery     = 5 * time.Millisecond
	readErrorPause = time.Millisecond
	socketWindow   = 16
)

// CollectKind is what a request asks of the prover.
type CollectKind uint8

const (
	KindFull      CollectKind = iota // the k latest records
	KindDelta                        // the records since a watermark
	KindAggregate                    // the same, plus chain head and one MAC
	kindOD                           // authenticated, with a fresh measurement (Client.CollectOD only)
)

// requestOps maps a request's type byte to its meaning and the type byte
// of its reply; resp is 0 for a byte that is not a request type.
var requestOps = [...]struct {
	kind   CollectKind
	framed bool
	resp   byte
}{
	msgCollectReq:              {KindFull, false, msgCollectResp},
	msgDeltaCollectReq:         {KindDelta, false, msgCollectResp},
	msgAggDeltaCollectReq:      {KindAggregate, false, msgAggCollectResp},
	msgODReq:                   {kindOD, false, msgODResp},
	msgFleetCollectReq:         {KindFull, true, msgFleetCollectResp},
	msgFleetDeltaCollectReq:    {KindDelta, true, msgFleetCollectResp},
	msgFleetAggDeltaCollectReq: {KindAggregate, true, msgFleetAggCollectResp},
}

// msgType is the request type byte of a collection kind under the framed
// or un-framed protocol (0 if there is none).
func (k CollectKind) msgType(framed bool) byte {
	for t, op := range requestOps {
		if op.resp != 0 && op.kind == k && op.framed == framed {
			return byte(t)
		}
	}
	return 0
}

// Stats is a snapshot of one endpoint's transport counters. A Server
// fills Sent, Received, Malformed and Rejected; a client everything but
// Rejected.
type Stats struct {
	Sent, Received uint64 // datagrams written (retransmissions included) and read
	Retransmits    uint64 // requests sent again after an attempt expired
	Timeouts       uint64 // exchanges that spent their whole budget unanswered
	Stale          uint64 // well-formed replies no pending exchange claimed: late, duplicated, replayed, or echoing another device's id
	Malformed      uint64 // datagrams dropped undecoded: empty, unknown type, bad frame, or a payload the codec rejects
	Rejected       uint64 // well-formed requests a server left unanswered: unknown device, or refused by the prover
	SocketErrors   uint64 // read and write errors absorbed without failing an exchange
}

// counters is the live form of Stats.
type counters struct {
	sent, received, retransmits, timeouts, stale, malformed, rejected, socketErrors atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Sent: c.sent.Load(), Received: c.received.Load(),
		Retransmits: c.retransmits.Load(), Timeouts: c.timeouts.Load(),
		Stale: c.stale.Load(), Malformed: c.malformed.Load(),
		Rejected: c.rejected.Load(), SocketErrors: c.socketErrors.Load(),
	}
}

// Server exposes one or more provers on a UDP socket.
type Server struct {
	conn *net.UDPConn
	alg  mac.Algorithm

	mu        sync.Mutex // guards engine and provers
	engine    *sim.Engine
	provers   map[string]*core.Prover
	wallStart time.Time
	simStart  sim.Ticks

	stats counters

	done        chan struct{}
	serveExited chan struct{} // closed when the read loop returns
	wg          sync.WaitGroup
}

// Serve binds addr (e.g. "127.0.0.1:0") and starts serving the prover as
// the server's default (un-framed protocol) device. The caller must have
// built prover on engine; after Serve returns, the engine is owned by the
// server's clock pump and must not be driven directly.
func Serve(addr string, engine *sim.Engine, prover *core.Prover, alg mac.Algorithm) (*Server, error) {
	if prover == nil {
		return nil, errors.New("udptransport: nil prover")
	}
	s, err := newServer(addr, engine, alg)
	if err != nil {
		return nil, err
	}
	s.provers[defaultProverID] = prover
	s.start()
	return s, nil
}

// ServeFleet binds addr and starts a multi-prover server. Provers are
// added with Host; every hosted prover must live on the given engine,
// which the server's clock pump owns from here on.
func ServeFleet(addr string, engine *sim.Engine, alg mac.Algorithm) (*Server, error) {
	s, err := newServer(addr, engine, alg)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

//erasmus:wallpaced the server anchors its virtual clock to a wall epoch; real sockets are wall-paced by nature
func newServer(addr string, engine *sim.Engine, alg mac.Algorithm) (*Server, error) {
	if engine == nil {
		return nil, errors.New("udptransport: nil engine")
	}
	if !alg.Valid() {
		return nil, fmt.Errorf("udptransport: invalid algorithm %d", int(alg))
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, err
	}
	// One socket stands in for a whole population of devices: ask for a
	// receive buffer to match (best effort; the kernel caps it).
	_ = conn.SetReadBuffer(1 << 20)
	s := &Server{
		conn:        conn,
		alg:         alg,
		provers:     make(map[string]*core.Prover),
		engine:      engine,
		wallStart:   time.Now(),
		simStart:    engine.Now(),
		done:        make(chan struct{}),
		serveExited: make(chan struct{}),
	}
	return s, nil
}

func (s *Server) start() {
	s.wg.Add(2)
	go s.pumpClock()
	go s.serve()
}

// Host registers a prover under a device id for the fleet protocol. The
// prover must run on the server's engine. Hosting may happen at any time
// (fleet churn): requests for unknown ids are silently dropped, exactly
// like requests to a dark device.
func (s *Server) Host(id string, prover *core.Prover) error {
	if id == "" || len(id) > 255 {
		return fmt.Errorf("udptransport: device id %q must be 1–255 bytes", id)
	}
	if prover == nil {
		return errors.New("udptransport: nil prover")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.provers[id]; dup {
		return fmt.Errorf("udptransport: device %q already hosted", id)
	}
	s.provers[id] = prover
	return nil
}

// Unhost removes a prover from the fleet protocol (decommissioning);
// subsequent requests for the id are dropped.
func (s *Server) Unhost(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.provers, id)
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Stats returns the server's transport counters.
func (s *Server) Stats() Stats { return s.stats.snapshot() }

// Close stops the server and releases the socket.
func (s *Server) Close() error {
	select {
	case <-s.done:
		return nil
	default:
	}
	close(s.done)
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

// advance drives virtual time to the current wall offset. Callers hold mu.
//
//erasmus:wallpaced mapping wall time onto the virtual clock is this function's purpose
func (s *Server) advanceLocked() {
	target := s.simStart + sim.Ticks(time.Since(s.wallStart))
	if target > s.engine.Now() {
		s.engine.RunUntil(target)
	}
}

// pumpClock keeps the schedule firing even when no requests arrive.
func (s *Server) pumpClock() {
	defer s.wg.Done()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
			s.mu.Lock()
			s.advanceLocked()
			s.mu.Unlock()
		}
	}
}

// serve is the read loop. It owns the socket's receive buffer and the
// reply buffer handle encodes into; both are reused for every datagram.
func (s *Server) serve() {
	defer s.wg.Done()
	defer close(s.serveExited)
	buf := make([]byte, maxDatagram)
	var reply []byte
	errStreak := 0
	backoff := time.Millisecond
	for {
		n, peer, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return // the socket is gone for good; nothing left to serve
			}
			// Transient errors happen (ICMP-induced, buffer pressure), but
			// a persistent failure must neither spin this goroutine at
			// 100% CPU nor keep a dead server half-alive: back off, and
			// give up after a sustained streak.
			if errStreak++; errStreak >= maxReadErrors {
				return
			}
			select {
			case <-s.done:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxReadBackoff {
				backoff = maxReadBackoff
			}
			continue
		}
		errStreak, backoff = 0, time.Millisecond
		s.stats.received.Add(1)
		if reply = s.handle(buf[:n], reply[:0]); len(reply) == 0 {
			continue
		}
		if _, err := s.conn.WriteToUDPAddrPort(reply, peer); err != nil {
			s.stats.socketErrors.Add(1)
			continue
		}
		s.stats.sent.Add(1)
	}
}

// handle parses one datagram and appends the reply to dst. It returns dst
// unextended to drop the datagram silently, matching the simulation
// transport's semantics for malformed or rejected requests. The lock
// covers only the clock and the prover: decoding the datagram and
// encoding the reply touch nothing shared, and the records a prover
// returns are copies of its buffer, not views.
func (s *Server) handle(dgram, dst []byte) []byte {
	if len(dgram) == 0 || int(dgram[0]) >= len(requestOps) || requestOps[dgram[0]].resp == 0 {
		s.stats.malformed.Add(1)
		return dst
	}
	op := requestOps[dgram[0]]
	var id []byte
	var err error
	payload := dgram[1:]
	if op.framed {
		_, id, payload, err = decodeFleetFrame(dgram)
	}
	var (
		full  core.CollectRequest
		delta core.DeltaCollectRequest
		agg   core.AggDeltaCollectRequest
		od    core.ODRequest
	)
	if err == nil {
		switch op.kind {
		case KindFull:
			full, err = core.DecodeCollectRequest(payload)
		case KindDelta:
			delta, err = core.DecodeDeltaCollectRequest(payload)
		case KindAggregate:
			agg, err = core.DecodeAggDeltaCollectRequest(payload)
		case kindOD:
			od, err = core.DecodeODRequest(s.alg, payload)
		}
	}
	if err != nil {
		s.stats.malformed.Add(1)
		return dst
	}

	var (
		recs          []core.Record
		state, aggMAC []byte
		m0            core.Record
	)
	s.mu.Lock()
	s.advanceLocked()
	prover := s.provers[string(id)]
	switch {
	case prover == nil:
		err = errNoDevice
	case op.kind == KindFull:
		recs, _ = prover.HandleCollect(full.K)
	case op.kind == KindDelta:
		recs, _ = prover.HandleCollectDelta(delta.Since, delta.K)
	case op.kind == KindAggregate:
		recs, state, aggMAC, _, err = prover.HandleCollectDeltaAggregate(agg.Since, agg.Nonce, agg.K, agg.AnchorHash)
	case op.kind == kindOD:
		m0, recs, _, err = prover.HandleCollectOD(od.Treq, od.K, od.MAC)
	}
	s.mu.Unlock()
	if err != nil {
		s.stats.rejected.Add(1)
		return dst
	}

	// The reply echoes the request's frame (exchange id and device id)
	// under the reply's type byte.
	dst = append(dst, op.resp)
	dst = append(dst, dgram[1:len(dgram)-len(payload)]...)
	switch op.kind {
	case KindAggregate:
		return core.AggCollectResponse{ChainState: state, AggMAC: aggMAC, Records: recs}.AppendEncode(dst, s.alg)
	case kindOD:
		return append(dst, core.ODResponse{M0: m0, Records: recs}.Encode(s.alg)...)
	default:
		return core.CollectResponse{Records: recs}.AppendEncode(dst, s.alg)
	}
}

// appendFleetFrame appends the demux header of the fleet protocol: the
// message type, an exchange id chosen by the client and the target device
// id, all echoed in the response.
func appendFleetFrame(dst []byte, msgType byte, xid uint32, id string) []byte {
	dst = append(dst, msgType)
	dst = binary.BigEndian.AppendUint32(dst, xid)
	dst = append(dst, byte(len(id)))
	return append(dst, id...)
}

// decodeFleetFrame splits a framed datagram into exchange id, device id
// and payload. id and payload alias dgram.
func decodeFleetFrame(dgram []byte) (xid uint32, id, payload []byte, err error) {
	if len(dgram) < 6 || dgram[5] == 0 || len(dgram) < 6+int(dgram[5]) {
		return 0, nil, nil, errBadFrame
	}
	idLen := int(dgram[5])
	return binary.BigEndian.Uint32(dgram[1:5]), dgram[6 : 6+idLen], dgram[6+idLen:], nil
}

var (
	errNoDevice = errors.New("udptransport: no such device")
	errNotReply = errors.New("udptransport: not a reply datagram")
	errBadFrame = errors.New("udptransport: fleet frame truncated or without a device id")
)

// ErrTimeout is returned when every attempt expires unanswered.
var ErrTimeout = errors.New("udptransport: request timed out")

// ErrClosed fails the exchanges in flight when their client is closed,
// and any started afterwards.
var ErrClosed = errors.New("udptransport: client closed")

// Request is one collection request, whichever framing carries it.
type Request struct {
	Kind CollectKind
	// Since (delta and aggregate) is the watermark: records measured at or
	// after it are returned. K caps the record count; for delta and
	// aggregate requests K ≤ 0 means everything since, clamped to the
	// prover's buffer.
	Since uint64
	K     int
	// Nonce and AnchorHash (aggregate) are the challenge the aggregate MAC
	// binds. AnchorHash is encoded before Start returns, not retained.
	Nonce      uint64
	AnchorHash []byte
}

// appendTo appends the request's wire payload to dst.
func (r Request) appendTo(dst []byte) []byte {
	switch r.Kind {
	case KindDelta:
		return core.DeltaCollectRequest{Since: r.Since, K: r.K}.AppendEncode(dst)
	case KindAggregate:
		return core.AggDeltaCollectRequest{Since: r.Since, Nonce: r.Nonce, K: r.K, AnchorHash: r.AnchorHash}.AppendEncode(dst)
	default:
		return core.CollectRequest{K: r.K}.AppendEncode(dst)
	}
}

// Reply is the outcome of one exchange.
type Reply struct {
	Records            []core.Record // the returned history, newest first
	ChainState, AggMAC []byte        // the aggregate tier's evidence (KindAggregate only)
	M0                 core.Record   // the fresh measurement (ERASMUS+OD only)
	// Attempts counts the datagrams transmitted for the exchange (1 = no
	// retransmission). It is set on failure too.
	Attempts int
}

// Completion receives the outcome of an exchange, exactly once: from a
// socket's reader goroutine on a reply, the sweeper goroutine on a
// timeout, or the goroutine calling Close. It must not block for long —
// every reply on that socket waits behind it — and must not call Close.
type Completion interface {
	ExchangeDone(Reply, error)
}

// exchange is one pending request.
type exchange struct {
	xid      uint32
	id       string        // device id the reply must echo
	alg      mac.Algorithm // decodes the reply
	resp     byte          // type byte the reply must carry
	timeout  time.Duration // per attempt
	attempts int           // budget
	fresh    func() []byte // rebuilds the request for a retransmission; nil resends req
	sock     *socket
	done     Completion

	// Guarded by mux.mu once registered.
	req      []byte    // the request datagram, kept for retransmission
	sent     int       // datagrams transmitted; 0 while queued behind the window
	deadline time.Time // of the current attempt
	inWindow bool      // holds one of sock's window slots
}

// socket is one connected socket and its send window.
type socket struct {
	conn *net.UDPConn

	// Guarded by mux.mu.
	inWindow int         // exchanges sent and neither answered nor past their first attempt
	queue    []*exchange // started, not yet sent: the window was full
}

// mux is the client core: sockets, the pending exchanges demultiplexed
// over them, one reader per socket and the sweeper.
type mux struct {
	socks []*socket
	turn  atomic.Uint32 // round-robin socket choice
	xid   atomic.Uint32
	stats counters

	mu      sync.Mutex
	pending map[uint32]*exchange
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// dialMux connects n sockets to server and starts their readers and the
// sweeper.
func dialMux(server string, n int) (*mux, error) {
	addr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		return nil, err
	}
	m := &mux{pending: make(map[uint32]*exchange), stop: make(chan struct{})}
	for i := 0; i < n; i++ {
		conn, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			for _, s := range m.socks {
				s.conn.Close()
			}
			return nil, err
		}
		m.socks = append(m.socks, &socket{conn: conn})
	}
	m.wg.Add(len(m.socks) + 1)
	for _, s := range m.socks {
		go m.read(s.conn)
	}
	go m.sweep()
	return m, nil
}

// start registers the exchange and, window permitting, transmits its
// request on the caller's goroutine; otherwise it goes out when a slot
// frees. After a nil return ex.done is called exactly once.
func (m *mux) start(ex *exchange) error {
	if ex.attempts < 1 {
		ex.attempts = 1
	}
	ex.sock = m.socks[int(m.turn.Add(1))%len(m.socks)]
	req := ex.req
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	m.pending[ex.xid] = ex
	send := ex.sock.inWindow < socketWindow
	if send {
		ex.launch()
	} else {
		ex.sock.queue = append(ex.sock.queue, ex)
	}
	m.mu.Unlock()
	if send {
		m.write(ex.sock.conn, req)
	}
	return nil
}

// launch takes a window slot and starts the first attempt's clock; the
// caller then writes the request. Callers hold mux.mu.
//
//erasmus:wallpaced attempt deadlines are wall-clock by definition
func (ex *exchange) launch() {
	ex.sock.inWindow++
	ex.inWindow = true
	ex.sent = 1
	ex.deadline = time.Now().Add(ex.timeout)
}

// release gives back the exchange's window slot, if it still holds one,
// and launches the queued exchanges that now fit, appending them to next
// for the caller to write once it has dropped mux.mu. Callers hold mux.mu.
func (m *mux) release(ex *exchange, next []*exchange) []*exchange {
	if !ex.inWindow {
		return next
	}
	ex.inWindow = false
	s := ex.sock
	s.inWindow--
	for len(s.queue) > 0 && s.inWindow < socketWindow {
		q := s.queue[0]
		s.queue[0] = nil
		s.queue = s.queue[1:]
		q.launch()
		next = append(next, q)
	}
	return next
}

// write transmits one request. A failed write is a lost datagram, not a
// failed exchange: the attempt's deadline still runs and the sweeper
// retransmits.
func (m *mux) write(conn *net.UDPConn, req []byte) {
	if _, err := conn.Write(req); err != nil {
		m.stats.socketErrors.Add(1)
		return
	}
	m.stats.sent.Add(1)
}

// writeAll transmits the first attempt of exchanges release just launched.
// Nothing rewrites a request before its first attempt expires, so req is
// read without the lock.
func (m *mux) writeAll(launched []*exchange) {
	for _, ex := range launched {
		m.write(ex.sock.conn, ex.req)
	}
}

// read is the reader goroutine of one socket. It owns the socket's
// receive buffer, which every datagram overwrites: whatever deliver hands
// to a Completion must have been copied out of it.
func (m *mux) read(conn *net.UDPConn) {
	defer m.wg.Done()
	buf := make([]byte, maxDatagram)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Not a reply and not a verdict on any exchange: on a connected
			// socket an ICMP port-unreachable surfaces here while the
			// server is away. Pending attempts run out their deadlines.
			m.stats.socketErrors.Add(1)
			select {
			case <-m.stop:
				return
			case <-time.After(readErrorPause):
			}
			continue
		}
		m.stats.received.Add(1)
		m.deliver(buf[:n])
	}
}

// deliver matches one datagram to its pending exchange and completes it.
// A reply must carry the exchange's id, the device id it asked for and
// the reply type it expects, and must decode; anything else is dropped
// and the exchange stays pending, so neither a stray nor a mangled
// datagram can fail a collection.
func (m *mux) deliver(dgram []byte) {
	var xid uint32
	var id, payload []byte
	var err error
	switch {
	case len(dgram) == 0:
		err = errNotReply
	case dgram[0] == msgFleetCollectResp || dgram[0] == msgFleetAggCollectResp:
		xid, id, payload, err = decodeFleetFrame(dgram)
	case dgram[0] == msgCollectResp || dgram[0] == msgAggCollectResp || dgram[0] == msgODResp:
		payload = dgram[1:]
	default:
		err = errNotReply
	}
	if err != nil {
		m.stats.malformed.Add(1)
		return
	}
	// Decoding under the lock makes matching and completing one step: a
	// reply that does not decode leaves its exchange pending.
	m.mu.Lock()
	ex := m.pending[xid]
	if ex == nil || ex.sent == 0 || ex.resp != dgram[0] || ex.id != string(id) {
		m.mu.Unlock()
		m.stats.stale.Add(1)
		return
	}
	reply, err := decodeReply(ex.alg, dgram[0], payload)
	var next []*exchange
	if err == nil {
		delete(m.pending, xid)
		reply.Attempts = ex.sent
		next = m.release(ex, nil)
	}
	m.mu.Unlock()
	if err != nil {
		m.stats.malformed.Add(1)
		return
	}
	m.writeAll(next)
	ex.done.ExchangeDone(reply, nil)
}

// decodeReply parses a reply payload. The record decoders copy, so the
// result does not alias payload.
func decodeReply(alg mac.Algorithm, msgType byte, payload []byte) (Reply, error) {
	switch msgType {
	case msgAggCollectResp, msgFleetAggCollectResp:
		resp, err := core.DecodeAggCollectResponse(alg, payload)
		return Reply{Records: resp.Records, ChainState: resp.ChainState, AggMAC: resp.AggMAC}, err
	case msgODResp:
		resp, err := core.DecodeODResponse(alg, payload)
		return Reply{M0: resp.M0, Records: resp.Records}, err
	default:
		resp, err := core.DecodeCollectResponse(alg, payload)
		return Reply{Records: resp.Records}, err
	}
}

// duePending appends to dst the pending exchanges whose attempt has
// expired at now — every pending exchange if all is set — in the order
// they were started, so that retransmissions and the completions of a
// sweep or a Close do not follow map order. Callers hold mu.
func (m *mux) duePending(dst []*exchange, now time.Time, all bool) []*exchange {
	for _, ex := range m.pending {
		if all || (ex.sent > 0 && !now.Before(ex.deadline)) {
			dst = append(dst, ex)
		}
	}
	sort.Slice(dst, func(i, j int) bool { return dst[i].xid < dst[j].xid })
	return dst
}

// sweep is the client's one timer: every sweepEvery it retransmits the
// exchanges whose attempt has expired and fails those out of attempts.
//
//erasmus:wallpaced attempt deadlines are wall-clock by definition
func (m *mux) sweep() {
	defer m.wg.Done()
	tick := time.NewTicker(sweepEvery)
	defer tick.Stop()
	var due, next []*exchange
	for {
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		next = next[:0]
		m.mu.Lock()
		due = m.duePending(due[:0], now, false)
		for _, ex := range due {
			// Answered or not, its first attempt is over: the slot goes
			// to an exchange that has not been on the wire yet.
			next = m.release(ex, next)
			if ex.sent++; ex.sent > ex.attempts {
				delete(m.pending, ex.xid) // budget spent: the sweeper completes it below
				continue
			}
			ex.deadline = now.Add(ex.timeout)
			if ex.fresh != nil {
				ex.req = ex.fresh()
			}
		}
		m.mu.Unlock()
		// Once an exchange is on the wire only the sweeper writes its sent
		// and req, so it may read them back without the lock.
		for _, ex := range due {
			if ex.sent > ex.attempts {
				m.stats.timeouts.Add(1)
				ex.done.ExchangeDone(Reply{Attempts: ex.attempts}, ErrTimeout)
				continue
			}
			m.stats.retransmits.Add(1)
			m.write(ex.sock.conn, ex.req)
		}
		m.writeAll(next)
	}
}

// close fails every pending exchange with ErrClosed, releases the sockets
// and waits for the readers and the sweeper to exit.
func (m *mux) close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	orphans := m.duePending(nil, time.Time{}, true)
	m.pending = nil // no reply or sweep can reach an orphan any more
	m.mu.Unlock()

	close(m.stop)
	var first error
	for _, s := range m.socks {
		if err := s.conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	m.wg.Wait()
	for _, ex := range orphans {
		ex.done.ExchangeDone(Reply{Attempts: ex.sent}, ErrClosed)
	}
	return first
}

// waiter is the Completion behind the blocking calls.
type waiter chan outcome

type outcome struct {
	reply Reply
	err   error
}

func (w waiter) ExchangeDone(r Reply, err error) { w <- outcome{r, err} }

// wait blocks on an exchange started with w as its Completion.
func (w waiter) wait(startErr error) (Reply, error) {
	if startErr != nil {
		return Reply{}, startErr
	}
	o := <-w
	return o.reply, o.err
}

// Client collects from a remote prover over UDP (the single-prover,
// un-framed protocol): blocking calls over the same core as FleetClient,
// one exchange at a time — un-framed replies carry nothing to tell two
// concurrent exchanges apart, so concurrent callers take turns.
type Client struct {
	conn *net.UDPConn
	mux  *mux
	alg  mac.Algorithm
	key  []byte

	// Timeout per attempt and total attempts (defaults 500 ms × 3).
	Timeout  time.Duration
	Attempts int

	turn     chan struct{} // held for the length of an exchange
	lastTreq uint64
}

// Dial connects (in the UDP sense) to a prover server.
func Dial(server string, alg mac.Algorithm, key []byte) (*Client, error) {
	if !alg.Valid() {
		return nil, fmt.Errorf("udptransport: invalid algorithm %d", int(alg))
	}
	m, err := dialMux(server, 1)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: m.socks[0].conn, mux: m, alg: alg, key: append([]byte(nil), key...),
		Timeout: 500 * time.Millisecond, Attempts: 3,
		turn: make(chan struct{}, 1),
	}, nil
}

// Close releases the socket.
func (c *Client) Close() error { return c.mux.close() }

// do runs one un-framed exchange — exchange id 0, the default
// device id — and blocks until it completes.
func (c *Client) do(resp byte, req []byte, fresh func() []byte) (Reply, error) {
	c.turn <- struct{}{}
	defer func() { <-c.turn }()
	w := make(waiter, 1)
	return w.wait(c.mux.start(&exchange{
		id: defaultProverID, alg: c.alg, resp: resp, req: req, fresh: fresh,
		timeout: c.Timeout, attempts: c.Attempts, done: w,
	}))
}

// collect runs one of the three unauthenticated collections.
func (c *Client) collect(r Request) (Reply, error) {
	msgType := r.Kind.msgType(false)
	return c.do(requestOps[msgType].resp, r.appendTo([]byte{msgType}), nil)
}

// Collect fetches the k latest records.
func (c *Client) Collect(k int) ([]core.Record, error) {
	r, err := c.collect(Request{Kind: KindFull, K: k})
	return r.Records, err
}

// CollectDelta fetches the records measured at or after since (the
// caller's watermark), newest first; k ≤ 0 means everything since,
// clamped to the prover's buffer.
func (c *Client) CollectDelta(since uint64, k int) ([]core.Record, error) {
	r, err := c.collect(Request{Kind: KindDelta, Since: since, K: k})
	return r.Records, err
}

// CollectDeltaAggregate fetches the records measured at or after since
// together with the aggregate evidence: the prover's marshaled chain
// head and one MAC binding it to (since, nonce, anchorHash). The caller
// verifies the bundle with core.VerifyDeltaAggregate.
func (c *Client) CollectDeltaAggregate(since, nonce uint64, anchorHash []byte, k int) ([]core.Record, []byte, []byte, error) {
	r, err := c.collect(Request{Kind: KindAggregate, Since: since, Nonce: nonce, AnchorHash: anchorHash, K: k})
	return r.Records, r.ChainState, r.AggMAC, err
}

// CollectOD issues an authenticated ERASMUS+OD request. clock supplies the
// verifier's time base (must be loosely synchronized with the prover's
// RROC). Retransmissions carry fresh treq values so the prover's
// anti-replay floor never blocks them; timestamps follow core.NextTreq,
// so the floor never ratchets ahead of honest clocks either.
func (c *Client) CollectOD(k int, clock func() uint64) (core.Record, []core.Record, error) {
	if clock == nil {
		return core.Record{}, nil, errors.New("udptransport: clock required")
	}
	build := func() []byte {
		req := core.NewODRequest(c.alg, c.key, core.NextTreq(clock, &c.lastTreq), k)
		return append([]byte{msgODReq}, req.Encode()...)
	}
	r, err := c.do(msgODResp, build(), build)
	return r.M0, r.Records, err
}

// FleetClient collects from many provers hosted on one fleet server over
// poolSize connected sockets. Any number of exchanges may be started,
// spread over the sockets round-robin; poolSize is the number of reader
// goroutines — how many replies are decoded and how many completions run
// at a time — and, times socketWindow, how many exchanges are on the wire
// awaiting their first answer (the rest are sent as those resolve). All
// methods are safe for concurrent use.
//
// Start is the asynchronous core: it transmits on the caller's goroutine
// and returns; the Completion fires later, per its contract. The Collect
// methods block on the same exchanges.
type FleetClient struct {
	// Timeout per attempt and total attempts (defaults 500 ms × 3). Read
	// when an exchange starts; not synchronized with concurrent starts.
	Timeout  time.Duration
	Attempts int

	mux *mux
}

// DialFleet opens poolSize sockets (minimum 1) to a fleet server.
func DialFleet(server string, poolSize int) (*FleetClient, error) {
	if poolSize < 1 {
		poolSize = 1
	}
	m, err := dialMux(server, poolSize)
	if err != nil {
		return nil, err
	}
	return &FleetClient{Timeout: 500 * time.Millisecond, Attempts: 3, mux: m}, nil
}

// Close releases every socket and fails each exchange in flight, exactly
// once, with ErrClosed. Every Completion has fired when it returns.
func (c *FleetClient) Close() error { return c.mux.close() }

// PoolSize returns the number of sockets.
func (c *FleetClient) PoolSize() int { return len(c.mux.socks) }

// Stats returns the client's transport counters.
func (c *FleetClient) Stats() Stats { return c.mux.stats.snapshot() }

// Start begins a collection from the prover hosted under id; the reply is
// decoded with the device's provisioned algorithm. Replies are matched on
// both the exchange id and the echoed device id, so sockets shared across
// devices never deliver one device's history as another's. After a nil
// return done fires exactly once.
func (c *FleetClient) Start(id string, alg mac.Algorithm, r Request, done Completion) error {
	if id == "" || len(id) > 255 {
		return fmt.Errorf("udptransport: device id %q must be 1–255 bytes", id)
	}
	if !alg.Valid() {
		return fmt.Errorf("udptransport: invalid algorithm %d", int(alg))
	}
	msgType := r.Kind.msgType(true)
	ex := &exchange{
		xid: c.mux.xid.Add(1), id: id, alg: alg, resp: requestOps[msgType].resp,
		timeout: c.Timeout, attempts: c.Attempts, done: done,
	}
	// One allocation holds the frame and any of the three payloads.
	ex.req = make([]byte, 0, 6+len(id)+22+len(r.AnchorHash))
	ex.req = r.appendTo(appendFleetFrame(ex.req, msgType, ex.xid, id))
	return c.mux.start(ex)
}

// do is the blocking form of Start.
func (c *FleetClient) do(id string, alg mac.Algorithm, r Request) (Reply, error) {
	w := make(waiter, 1)
	return w.wait(c.Start(id, alg, r, w))
}

// Collect fetches the k latest records from the prover hosted under id.
func (c *FleetClient) Collect(id string, alg mac.Algorithm, k int) ([]core.Record, error) {
	r, err := c.do(id, alg, Request{Kind: KindFull, K: k})
	return r.Records, err
}

// CollectDelta fetches the records measured at or after since from the
// prover hosted under id — the incremental collection.
func (c *FleetClient) CollectDelta(id string, alg mac.Algorithm, since uint64, k int) ([]core.Record, error) {
	r, err := c.do(id, alg, Request{Kind: KindDelta, Since: since, K: k})
	return r.Records, err
}

// CollectDeltaAggregate fetches the records measured at or after since
// from the prover hosted under id, plus the aggregate evidence (chain
// head + MAC bound to since/nonce/anchorHash).
func (c *FleetClient) CollectDeltaAggregate(id string, alg mac.Algorithm, since, nonce uint64, anchorHash []byte, k int) ([]core.Record, []byte, []byte, error) {
	r, err := c.do(id, alg, Request{Kind: KindAggregate, Since: since, Nonce: nonce, AnchorHash: anchorHash, K: k})
	return r.Records, r.ChainState, r.AggMAC, err
}
