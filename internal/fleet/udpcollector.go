package fleet

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"erasmus/internal/crypto/mac"
	"erasmus/internal/session"
	"erasmus/internal/udptransport"
)

// UDPCollector drives collections over real UDP sockets against a
// udptransport fleet server (many provers on one socket, demuxed by
// device id). A Collect call encodes and transmits its request on the
// caller's goroutine and returns; nothing is spawned per collection. The
// callback runs later on one of the transport's goroutines — a socket's
// reader on a reply, the sweeper on a timeout, Close's caller for
// collections still in flight — so it must not block for long (the
// manager's callback only enqueues) and must not call Close. poolSize is
// the number of sockets, hence of readers decoding replies and running
// callbacks at once; each socket keeps a fixed window of requests on the
// wire and queues the rest, so a burst of collections is paced rather
// than lost. The collections outstanding are bounded by the
// one-per-device contract, not by the pool.
type UDPCollector struct {
	fc *udptransport.FleetClient

	mu      sync.Mutex
	devices map[string]*udpDevice
}

// udpDevice is a registered device: its wire algorithm and, while a
// collection is outstanding, the callback that collection owes. It is the
// transport's Completion for the device's exchanges, which is what makes a
// collection free of closures.
type udpDevice struct {
	u   *UDPCollector
	alg mac.Algorithm
	cb  func(session.CollectResult, error) // guarded by u.mu; nil when idle
}

// NewUDPCollector dials a fleet server over poolSize sockets (minimum 1).
func NewUDPCollector(server string, poolSize int) (*UDPCollector, error) {
	fc, err := udptransport.DialFleet(server, poolSize)
	if err != nil {
		return nil, err
	}
	return &UDPCollector{fc: fc, devices: make(map[string]*udpDevice)}, nil
}

// SetRetryBudget overrides the per-attempt timeout and attempt count
// (defaults 500 ms × 3). Call before the first Collect.
func (u *UDPCollector) SetRetryBudget(timeout time.Duration, attempts int) {
	if timeout > 0 {
		u.fc.Timeout = timeout
	}
	if attempts > 0 {
		u.fc.Attempts = attempts
	}
}

// Stats returns the transport counters of the collector's sockets.
func (u *UDPCollector) Stats() udptransport.Stats { return u.fc.Stats() }

// Register records the device's wire algorithm for response decoding.
func (u *UDPCollector) Register(cfg DeviceConfig) error {
	if !cfg.Alg.Valid() {
		return fmt.Errorf("fleet: device %q has invalid algorithm %d", cfg.Addr, int(cfg.Alg))
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if _, dup := u.devices[cfg.Addr]; dup {
		return fmt.Errorf("fleet: device %q already registered with collector", cfg.Addr)
	}
	u.devices[cfg.Addr] = &udpDevice{u: u, alg: cfg.Alg}
	return nil
}

// Collect fetches the k latest records from the device, asynchronously.
// One collection per device may be outstanding at a time (the Collector
// contract, matching the session transport).
func (u *UDPCollector) Collect(addr string, k int, cb func(session.CollectResult, error)) error {
	return u.start(addr, udptransport.Request{Kind: udptransport.KindFull, K: k}, cb)
}

// CollectDelta fetches the records measured at or after since from the
// device, asynchronously — same contract as Collect.
func (u *UDPCollector) CollectDelta(addr string, since uint64, k int, cb func(session.CollectResult, error)) error {
	return u.start(addr, udptransport.Request{Kind: udptransport.KindDelta, Since: since, K: k}, cb)
}

// CollectDeltaAggregate fetches the records measured at or after since
// plus the prover's aggregate evidence — same contract as Collect.
func (u *UDPCollector) CollectDeltaAggregate(addr string, since, nonce uint64, anchorHash []byte, k int, cb func(session.CollectResult, error)) error {
	return u.start(addr, udptransport.Request{
		Kind: udptransport.KindAggregate, Since: since, Nonce: nonce, AnchorHash: anchorHash, K: k,
	}, cb)
}

// start claims the device's one collection slot and transmits the
// request. After a nil return cb is called exactly once.
func (u *UDPCollector) start(addr string, req udptransport.Request, cb func(session.CollectResult, error)) error {
	if cb == nil {
		return errors.New("fleet: nil collection callback")
	}
	u.mu.Lock()
	d := u.devices[addr]
	switch {
	case d == nil:
		u.mu.Unlock()
		return fmt.Errorf("fleet: device %q not registered with collector", addr)
	case d.cb != nil:
		u.mu.Unlock()
		return fmt.Errorf("fleet: collection to %q already outstanding", addr)
	}
	d.cb = cb
	u.mu.Unlock()
	if err := u.fc.Start(addr, d.alg, req, d); err != nil {
		d.release()
		return err
	}
	return nil
}

// release frees the device's collection slot and returns the callback it
// held.
func (d *udpDevice) release() func(session.CollectResult, error) {
	d.u.mu.Lock()
	defer d.u.mu.Unlock()
	cb := d.cb
	d.cb = nil
	return cb
}

// ExchangeDone completes the device's outstanding collection, reporting
// the number of datagrams the exchange really sent.
func (d *udpDevice) ExchangeDone(r udptransport.Reply, err error) {
	cb := d.release()
	if err != nil {
		cb(session.CollectResult{Attempts: r.Attempts}, err)
		return
	}
	cb(session.CollectResult{Records: r.Records, AggState: r.ChainState, AggMAC: r.AggMAC, Attempts: r.Attempts}, nil)
}

// Close releases the sockets; every collection still in flight fails,
// its callback called exactly once, before Close returns.
func (u *UDPCollector) Close() error { return u.fc.Close() }
