package main

import (
	"encoding/binary"
	"fmt"

	"erasmus/internal/core"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/fleet"
	"erasmus/internal/session"
)

// Collection verbs of fleet.Collector.
const (
	verbFull = iota
	verbDelta
	verbAggregate
)

// request is one collection as the manager issued it.
type request struct {
	dev        int32
	verb       uint8
	k          int32
	now        uint64 // device clock at launch
	since      uint64
	nonce      uint64
	anchorHash []byte
}

// replayCollector is the benchmark's load source: a fleet.Collector that
// answers from pre-computed evidence. It builds each response in wire
// encoding, runs it through the program's public decoder and invokes the
// callback synchronously on the engine goroutine, so everything from the
// decoder on is the program under test and nothing before it costs more
// than a slice copy.
type replayCollector struct {
	ev    *evidence
	clock func() uint64
	rec   *recorder
	tally *tally
	buf   []byte

	// err is the first fault of the load source itself. The manager takes
	// any Collector error for an unreachable device, so the pass runner
	// reads it here instead.
	err error
}

var _ fleet.Collector = (*replayCollector)(nil)

func (c *replayCollector) Register(cfg fleet.DeviceConfig) error {
	if _, err := c.device(cfg.Addr); err != nil {
		return err
	}
	if cfg.Alg != benchAlg {
		return fmt.Errorf("replay: device %q registered with %v, evidence is %v", cfg.Addr, cfg.Alg, benchAlg)
	}
	return nil
}

func (c *replayCollector) device(addr string) (int, error) {
	i := deviceIndex(addr)
	if len(addr) < 5 || i >= len(c.ev.devices) || c.ev.devices[i].addr != addr {
		return 0, fmt.Errorf("replay: device %q has no evidence", addr)
	}
	return i, nil
}

func (c *replayCollector) Collect(addr string, k int, cb func(session.CollectResult, error)) error {
	return c.serve(addr, request{verb: verbFull, k: int32(k)}, cb)
}

func (c *replayCollector) CollectDelta(addr string, since uint64, k int, cb func(session.CollectResult, error)) error {
	return c.serve(addr, request{verb: verbDelta, since: since, k: int32(k)}, cb)
}

func (c *replayCollector) CollectDeltaAggregate(addr string, since, nonce uint64, anchorHash []byte, k int, cb func(session.CollectResult, error)) error {
	return c.serve(addr, request{verb: verbAggregate, since: since, nonce: nonce, anchorHash: anchorHash, k: int32(k)}, cb)
}

// serve answers one collection: planned silence as a timeout, anything
// else as a decoded response.
func (c *replayCollector) serve(addr string, req request, cb func(session.CollectResult, error)) error {
	i, err := c.device(addr)
	if err != nil {
		return c.fault(err)
	}
	req.dev, req.now = int32(i), c.clock()
	d := c.ev.devices[i]
	round := c.tally.launch(i)
	t0 := c.rec.launch(i, req)
	if d.silentAt(req.now) {
		c.tally.failed(i, round)
		t1 := c.rec.mark()
		cb(session.CollectResult{Attempts: 3}, session.ErrTimeout)
		c.rec.served(i, t0, t1, t1)
		return nil
	}
	wire, err := c.respond(req)
	if err != nil {
		return c.fault(err)
	}
	t1 := c.rec.mark()
	res, err := decodeResponse(req.verb, wire)
	if err != nil {
		return c.fault(fmt.Errorf("replay: %s: %w", addr, err))
	}
	t2 := c.rec.mark()
	cb(res, nil)
	c.rec.served(i, t0, t1, t2)
	return nil
}

func (c *replayCollector) fault(err error) error {
	if c.err == nil {
		c.err = err
	}
	return err
}

// decodeResponse is the decode step every transport performs on a
// collection response, through the program's public decoders.
func decodeResponse(verb uint8, wire []byte) (session.CollectResult, error) {
	if verb == verbAggregate {
		resp, err := core.DecodeAggCollectResponse(benchAlg, wire)
		return session.CollectResult{
			Records: resp.Records, AggState: resp.ChainState, AggMAC: resp.AggMAC, Attempts: 1,
		}, err
	}
	resp, err := core.DecodeCollectResponse(benchAlg, wire)
	return session.CollectResult{Records: resp.Records, Attempts: 1}, err
}

// respond builds the wire bytes a core.Prover holding the device's
// history would return for req. The slice is reused by the next call.
func (c *replayCollector) respond(req request) ([]byte, error) {
	ev, d := c.ev, c.ev.devices[req.dev]
	var lo, hi int
	if req.verb == verbFull {
		lo, hi = d.window(ev, req.now, 0, int(req.k))
		if req.k <= 0 {
			lo = hi + 1 // Buffer.Latest clamps a negative k to nothing
		}
	} else {
		lo, hi = d.window(ev, req.now, req.since, int(req.k))
	}
	count := hi - lo + 1
	if count < 0 {
		count = 0
	}

	b := c.buf[:0]
	if req.verb == verbAggregate {
		head, aggMAC, err := c.aggregate(d, d.latest(ev, req.now), req)
		if err != nil {
			return nil, err
		}
		b = binary.BigEndian.AppendUint16(b, uint16(len(head)))
		b = append(b, head...)
		b = binary.BigEndian.AppendUint16(b, uint16(len(aggMAC)))
		b = append(b, aggMAC...)
	}
	b = binary.BigEndian.AppendUint16(b, uint16(count))
	if count > 0 {
		// Records lo..hi are contiguous in the newest-first slab.
		b = append(b, d.slab[(d.n-1-hi)*ev.recSize:(d.n-lo)*ev.recSize]...)
	}
	c.buf = b
	return b, nil
}

// aggregate returns the chain head after record j and the MAC binding it
// to the challenge. The MAC is memoised under the whole challenge, so a
// pass that repeats an earlier pass's challenges pays a comparison and a
// changed challenge recomputes.
func (c *replayCollector) aggregate(d *devEvidence, j int, req request) (head, aggMAC []byte, err error) {
	if j < 0 {
		if head, err = core.ChainOf(nil, nil); err != nil {
			return nil, nil, err
		}
		return head, mac.Sum(benchAlg, d.key, core.AggMACInput(req.since, req.nonce, req.anchorHash, head)), nil
	}
	l, err := d.landingAt(c.ev, j)
	if err != nil {
		return nil, nil, err
	}
	head = l.head[:c.ev.chainLen]
	if !l.memoValid || l.since != req.since || l.nonce != req.nonce ||
		!mac.ConstantTimeEqual(l.anchorHash[:l.anchorLen], req.anchorHash) {
		if len(req.anchorHash) > len(l.anchorHash) {
			return nil, nil, fmt.Errorf("replay: anchor hash of %d bytes", len(req.anchorHash))
		}
		sum := mac.Sum(benchAlg, d.key, core.AggMACInput(req.since, req.nonce, req.anchorHash, head))
		l.memoValid, l.since, l.nonce, l.anchorLen = true, req.since, req.nonce, uint8(len(req.anchorHash))
		copy(l.anchorHash[:], req.anchorHash)
		copy(l.mac[:], sum)
	}
	return head, l.mac[:benchAlg.Size()], nil
}
