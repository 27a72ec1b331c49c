package core

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"sync"

	"erasmus/internal/costmodel"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/hw/cpu"
)

// Aggregate-anchor delta collection — the O(1)-per-collection tier of
// incremental verification. ERASMUS stores measurements as a
// hash-chained history precisely so a verifier can trust an entire
// prefix from one authenticated point; the per-record path (VerifyDelta)
// leaves that property on the table by recomputing one MAC per record.
// Here the prover maintains a running chain digest over the (t, H(mem))
// content of every committed record and, on request, ships the delta
// records plus a single *aggregate MAC*: MAC_K over the chain head,
// bound to the requested watermark anchor (since/anchor-hash) and a
// verifier nonce. The verifier re-walks the chain from the state it
// saved at the watermark — hash-only, no per-record MAC — and checks
// exactly one MAC per collection regardless of record count. Any
// mismatch (missing or modified anchor, walk divergence, bad aggregate
// MAC, no saved chain state) falls back to the per-record path, which
// stays the audit tier: fallback costs one slower round, never a
// different verdict.
//
// One deliberate asymmetry with the audit tier: the chain commits to a
// record's (t, hash) content — the same facts its MAC covers — but not
// to the MAC bytes sitting next to it in the insecure store. Malware
// that rewrites only a non-anchor record's MAC field (t and hash
// intact) is therefore accepted by the aggregate tier and would be
// flagged VerdictBadMAC by the audit tier. Such vandalism forges no
// state and hides no state change — the attested facts are untouched —
// and the anchor record itself is still compared byte-for-byte
// (Watermark.Matches covers its MAC), so the equivalence guarantee is:
// identical verdicts and alerts for every tamper that changes what the
// history *claims*.

// Packet kind discriminators for the aggregate collection mode.
const (
	KindAggDeltaCollectRequest = "erasmus/agg-delta-collect-req"
	KindAggCollectResponse     = "erasmus/agg-collect-resp"
)

// aggMACDomain separates the aggregate MAC's input space from record
// MACs (8-byte t ‖ hash) and on-demand request MACs (12 bytes): those
// inputs never start with this tag, and an aggregate input is always
// longer than either.
var aggMACDomain = []byte("erasmus/agg-v1\x00")

// AggMACInput builds the authenticated message of the aggregate tier:
// domain tag, the verifier's challenge (since, nonce, anchor hash) and
// the prover's marshaled chain head. Binding the challenge makes every
// response single-use (replay of an earlier response fails under a fresh
// nonce) and anchor-specific; binding the chain head authenticates the
// entire committed history transitively.
func AggMACInput(since, nonce uint64, anchorHash, chainState []byte) []byte {
	b := make([]byte, 0, len(aggMACDomain)+8+8+2+len(anchorHash)+len(chainState))
	return appendAggMACInput(b, since, nonce, anchorHash, chainState)
}

// appendAggMACInput is AggMACInput into a caller-owned buffer, so the
// verify hot path can reuse pooled scratch instead of allocating.
func appendAggMACInput(b []byte, since, nonce uint64, anchorHash, chainState []byte) []byte {
	b = append(b, aggMACDomain...)
	b = binary.BigEndian.AppendUint64(b, since)
	b = binary.BigEndian.AppendUint64(b, nonce)
	b = binary.BigEndian.AppendUint16(b, uint16(len(anchorHash)))
	b = append(b, anchorHash...)
	b = append(b, chainState...)
	return b
}

// chainDigest is the streaming digest maintained over committed records.
// SHA-256's state marshals to ~108 bytes (hash state + buffered partial
// block + length), which is exactly what makes the walk *resumable*: the
// verifier saves the marshaled state at its watermark and absorbs only
// the delta next round. A bare 32-byte sum could not be continued.
type chainDigest interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryAppender
	encoding.BinaryUnmarshaler
}

// newChain returns a fresh (genesis) chain digest.
func newChain() chainDigest {
	return sha256.New().(chainDigest)
}

// chainAbsorb feeds one record's authenticated content into the chain:
// big-endian t followed by the memory hash — the same bytes the record
// MAC covers (macInput), so chain and MAC commit to identical facts.
func chainAbsorb(d chainDigest, t uint64, h []byte) {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], t)
	d.Write(b[:])
	d.Write(h)
}

// marshalChain snapshots the digest's resumable state. The stdlib
// SHA-256 marshaler cannot fail.
func marshalChain(d chainDigest) []byte {
	b, err := d.MarshalBinary()
	if err != nil {
		panic(fmt.Sprintf("core: chain digest marshal: %v", err))
	}
	return b
}

// ---- wire encoding ---------------------------------------------------------

// AggDeltaCollectRequest asks for the records measured at or after Since
// plus the aggregate evidence: the prover's chain head and one MAC
// binding it to this request. Since/K follow DeltaCollectRequest
// semantics (Since = 0 with K > 0 degenerates to a full collection;
// K ≤ 0 means "everything since"). AnchorHash is the verifier's cached
// watermark hash (empty when bootstrapping without state); the prover
// only echoes it into the MAC input — it never trusts or inspects it.
type AggDeltaCollectRequest struct {
	Since      uint64
	Nonce      uint64
	K          int
	AnchorHash []byte
}

// Encode serializes the request.
func (r AggDeltaCollectRequest) Encode() []byte {
	return r.AppendEncode(make([]byte, 0, 22+len(r.AnchorHash)))
}

// AppendEncode appends the serialized request to b.
func (r AggDeltaCollectRequest) AppendEncode(b []byte) []byte {
	b = binary.BigEndian.AppendUint64(b, r.Since)
	b = binary.BigEndian.AppendUint64(b, r.Nonce)
	b = binary.BigEndian.AppendUint32(b, uint32(r.K))
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.AnchorHash)))
	b = append(b, r.AnchorHash...)
	return b
}

// DecodeAggDeltaCollectRequest parses a request.
func DecodeAggDeltaCollectRequest(b []byte) (AggDeltaCollectRequest, error) {
	if len(b) < 22 {
		return AggDeltaCollectRequest{}, fmt.Errorf("core: aggregate collect request length %d, want ≥ 22", len(b))
	}
	n := int(binary.BigEndian.Uint16(b[20:22]))
	if len(b) != 22+n {
		return AggDeltaCollectRequest{}, fmt.Errorf("core: aggregate collect request length %d, want %d", len(b), 22+n)
	}
	r := AggDeltaCollectRequest{
		Since: binary.BigEndian.Uint64(b[:8]),
		Nonce: binary.BigEndian.Uint64(b[8:16]),
		K:     int(int32(binary.BigEndian.Uint32(b[16:20]))),
	}
	if n > 0 {
		r.AnchorHash = append([]byte(nil), b[22:]...)
	}
	return r, nil
}

// AggCollectResponse carries the aggregate evidence ahead of the delta
// records: the prover's marshaled chain head, the aggregate MAC over
// AggMACInput, then the records newest first.
type AggCollectResponse struct {
	ChainState []byte
	AggMAC     []byte
	Records    []Record
}

// Encode serializes the response.
func (r AggCollectResponse) Encode(alg mac.Algorithm) []byte {
	size := 4 + len(r.ChainState) + len(r.AggMAC) + recordsSize(alg, r.Records)
	return r.AppendEncode(make([]byte, 0, size), alg)
}

// AppendEncode appends the serialized response to b.
func (r AggCollectResponse) AppendEncode(b []byte, alg mac.Algorithm) []byte {
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.ChainState)))
	b = append(b, r.ChainState...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.AggMAC)))
	b = append(b, r.AggMAC...)
	return appendRecords(b, alg, r.Records)
}

// DecodeAggCollectResponse parses a response.
func DecodeAggCollectResponse(alg mac.Algorithm, b []byte) (AggCollectResponse, error) {
	var r AggCollectResponse
	var err error
	if r.ChainState, b, err = decodePrefixed(b, "chain state"); err != nil {
		return AggCollectResponse{}, err
	}
	if r.AggMAC, b, err = decodePrefixed(b, "aggregate MAC"); err != nil {
		return AggCollectResponse{}, err
	}
	recs, rest, err := decodeRecords(alg, b)
	if err != nil {
		return AggCollectResponse{}, err
	}
	if len(rest) != 0 {
		return AggCollectResponse{}, fmt.Errorf("core: %d trailing bytes in aggregate collect response", len(rest))
	}
	r.Records = recs
	return r, nil
}

// decodePrefixed consumes one uint16-length-prefixed field.
func decodePrefixed(b []byte, what string) ([]byte, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("core: %s length truncated", what)
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < n {
		return nil, nil, fmt.Errorf("core: %s holds %d bytes, want %d", what, len(b), n)
	}
	var f []byte
	if n > 0 {
		f = append([]byte(nil), b[:n]...)
	}
	return f, b[n:], nil
}

// ---- prover side -----------------------------------------------------------

// HandleCollectDeltaAggregate serves an aggregate-anchor incremental
// collection: the records measured at or after since (newest first,
// capped at k; k ≤ 0 means everything since), the marshaled chain head,
// and the aggregate MAC binding the head to this request's challenge.
// Unlike the per-record collection paths it performs one MAC inside the
// protected context, so the response costs the prover one AuthTime on
// top of the buffer read — constant in the record count, charged to the
// CPU like every other collection phase.
func (p *Prover) HandleCollectDeltaAggregate(since, nonce uint64, k int, anchorHash []byte) ([]Record, []byte, []byte, CollectTiming, error) {
	p.stats.Collections++
	p.stats.DeltaCollections++
	p.stats.AggregateCollections++
	var recs []Record
	visited := 0
	if p.lastSlot >= 0 {
		recs, visited = p.buf.LatestSince(p.lastSlot, k, since)
	}
	timing := CollectTiming{
		AuthenticateResponse: costmodel.AuthTime(p.dev.Arch()),
		ConstructPacket:      costmodel.ConstructPacketTime(p.dev.Arch()),
		SendPacket:           costmodel.SendPacketTime(p.dev.Arch()),
	}
	if visited > 0 {
		timing.ReadBuffer = costmodel.BufferReadTime(p.dev.Arch(), visited)
	}
	state := marshalChain(p.chain)
	var aggMAC []byte
	attErr := p.dev.Attest(func(key []byte) {
		aggMAC = p.macCtx.AppendSum(nil, AggMACInput(since, nonce, anchorHash, state))
	})
	p.dev.CPU().Occupy(cpu.KindCollection, timing.Total())
	if attErr != nil {
		p.emit(EventCollection, p.lastT, "aggregate collection failed: "+attErr.Error())
		return nil, nil, nil, timing, attErr
	}
	if p.cfg.OnEvent != nil {
		p.emit(EventCollection, p.lastT, fmt.Sprintf("%d records since t=%d (aggregate)", len(recs), since))
	}
	return recs, state, aggMAC, timing, nil
}

// ChainHead returns the prover's current marshaled chain state (the
// digest over every committed record, oldest first). Exposed for tests
// and diagnostics; the collection path ships it via
// HandleCollectDeltaAggregate.
func (p *Prover) ChainHead() []byte { return marshalChain(p.chain) }

// ChainOf computes the marshaled chain state over a newest-first record
// list, resuming from fromState (nil = genesis) — what a prover's chain
// head would read after committing exactly those records. Exposed for
// benchmarks and tests that synthesize histories without a device; the
// real chain lives inside the Prover.
func ChainOf(fromState []byte, recs []Record) ([]byte, error) {
	d := newChain()
	if fromState != nil {
		if err := d.UnmarshalBinary(fromState); err != nil {
			return nil, fmt.Errorf("core: resume chain state: %w", err)
		}
	}
	for i := len(recs) - 1; i >= 0; i-- {
		chainAbsorb(d, recs[i].T, recs[i].Hash)
	}
	return marshalChain(d), nil
}

// ---- verifier side ---------------------------------------------------------

// AggregateEvidence is the aggregate tier of one collection as the
// verifier sees it: the challenge it issued (Since, Nonce, AnchorHash)
// and the evidence the prover returned (State, MAC). A zero value (no
// evidence) makes VerifyDeltaAggregate fall back immediately.
type AggregateEvidence struct {
	Since      uint64
	Nonce      uint64
	AnchorHash []byte
	State      []byte
	MAC        []byte
}

// aggScratch is the reusable walk state: a resumable digest plus an
// absorb slab sized to the largest walk seen. Pooled so the steady-state
// batch verify loop allocates nothing per record — workers grab one per
// walk and the slab's backing array is reused across jobs.
type aggScratch struct {
	dig  chainDigest
	slab []byte
	got  []byte
}

var aggScratchPool = sync.Pool{New: func() any { return &aggScratch{dig: newChain()} }}

// walkChain resumes the chain from fromState (nil = genesis), absorbs
// the non-anchor records oldest-first — recs arrive newest-first;
// skipIdx excises the anchor (pass -1 to absorb everything) — and
// reports whether the resulting state is byte-identical to wantState.
// State equality implies both digests absorbed the identical byte
// stream, i.e. the shipped records are exactly the records the prover
// committed since the watermark.
func walkChain(fromState []byte, recs []Record, skipIdx int, wantState []byte) bool {
	s := aggScratchPool.Get().(*aggScratch)
	defer aggScratchPool.Put(s)
	if fromState == nil {
		s.dig.Reset()
	} else if err := s.dig.UnmarshalBinary(fromState); err != nil {
		s.dig.Reset()
		return false
	}
	// One slab, one Write: per-record d.Write calls would make each
	// record's staging buffer escape through the interface. The slab is
	// grown once and filled at fixed offsets — append's bounds/growth
	// checks per record are measurable at this loop's temperature.
	need := 0
	for i := range recs {
		if i != skipIdx {
			need += 8 + len(recs[i].Hash)
		}
	}
	if cap(s.slab) < need {
		s.slab = make([]byte, need)
	}
	s.slab = s.slab[:need]
	off := 0
	for i := len(recs) - 1; i >= 0; i-- {
		if i == skipIdx {
			continue
		}
		binary.BigEndian.PutUint64(s.slab[off:], recs[i].T)
		off += 8 + copy(s.slab[off+8:], recs[i].Hash)
	}
	s.dig.Write(s.slab)
	var err error
	s.got, err = s.dig.AppendBinary(s.got[:0])
	s.dig.Reset()
	// wantState is the prover's claimed chain head, straight off the wire;
	// comparing it against the recomputed state must not leak the position
	// of the first diverging byte.
	return err == nil && mac.ConstantTimeEqual(s.got, wantState)
}

// VerifyDeltaAggregate validates an aggregate-anchor collection. The
// fast path costs one MAC verification plus one hash walk over the new
// records — no per-record cryptography; per-record work is O(1) map
// lookups (golden-hash membership) and comparisons. On any mismatch it
// re-verifies the same records through VerifyDelta, so its verdicts are
// those of the audit tier exactly (Report.AggregateFallback marks such
// rounds). Like VerifyDelta it returns the watermark to store next;
// when the aggregate MAC authenticated the shipped chain head, that
// head is adopted into the advancing watermark (Report.ChainState), so
// even a bootstrap or fallback round re-establishes the aggregate tier
// for the next collection.
func (v *Verifier) VerifyDeltaAggregate(recs []Record, now uint64, expectedK int, wm Watermark, agg AggregateEvidence) (Report, Watermark) {
	rep := v.aggregateReport(recs, now, expectedK, wm, agg)
	return rep, NextWatermark(wm, rep)
}

// aggregateReport is VerifyDeltaAggregate without deriving the successor
// watermark; the batch verify loop uses it directly (see deltaReport).
func (v *Verifier) aggregateReport(recs []Record, now uint64, expectedK int, wm Watermark, agg AggregateEvidence) Report {
	// One MAC per collection: authenticate the shipped chain head against
	// the challenge this verifier issued.
	macOK := false
	if len(agg.State) > 0 && len(agg.MAC) > 0 {
		s := aggScratchPool.Get().(*aggScratch)
		s.got = appendAggMACInput(s.got[:0], agg.Since, agg.Nonce, agg.AnchorHash, agg.State)
		c := v.macPool.Get().(*mac.Context)
		macOK = c.Verify(s.got, agg.MAC)
		v.macPool.Put(c)
		aggScratchPool.Put(s)
	}

	var rep Report
	applied := false
	if macOK {
		rep, applied = v.verifyAggregate(recs, now, expectedK, wm, agg)
	}
	if !applied {
		rep = v.deltaReport(recs, now, expectedK, wm)
		rep.AggregateFallback = true
	}
	if macOK {
		// The head is authentic regardless of which tier produced the
		// verdict; NextWatermark decides whether it is adopted.
		rep.ChainState = agg.State
	}
	return rep
}

// verifyAggregate is the hash-only fast path. It handles exactly the
// clean cases — a zero watermark whose walk closes from genesis, or a
// byte-identical anchor whose walk closes from the saved state — and
// reports applied=false for everything else (missing/modified anchor,
// missing saved state, walk divergence), leaving those records to the
// audit tier so edge-case semantics can never drift between tiers.
func (v *Verifier) verifyAggregate(recs []Record, now uint64, expectedK int, wm Watermark, agg AggregateEvidence) (Report, bool) {
	if wm.IsZero() {
		// Bootstrap: the walk closes from genesis only when the response
		// is the device's entire committed history.
		if !walkChain(nil, recs, -1, agg.State) {
			return Report{}, false
		}
		var rep Report
		rep.AggregateApplied = true
		rep.Records = make([]VerifiedRecord, 0, len(recs))
		if expectedK > 0 && len(recs) < expectedK {
			rep.MissingRecords = expectedK - len(recs)
			rep.TamperDetected = true
			rep.Issues = append(rep.Issues,
				fmt.Sprintf("history has %d records, schedule requires %d", len(recs), expectedK))
		}
		v.gradeChainTrusted(recs, now, &rep)
		v.checkChain(recs, nil, &rep)
		v.checkFreshness(recs, now, &rep)
		return rep, true
	}

	if len(wm.Chain) == 0 {
		return Report{}, false // per-record watermark: no state to resume from
	}
	anchorIdx := -1
	for i, r := range recs {
		if r.T == wm.T {
			anchorIdx = i
			break
		}
	}
	if anchorIdx < 0 || !wm.Matches(recs[anchorIdx]) {
		return Report{}, false // WatermarkGap / WatermarkTampered: audit tier
	}
	if !walkChain(wm.Chain, recs, anchorIdx, agg.State) {
		return Report{}, false
	}

	// From here the flow mirrors verifyDelta's anchored case with the
	// per-record MAC check replaced by chain-conferred authenticity.
	var rep Report
	rep.DeltaApplied = true
	rep.AggregateApplied = true
	rep.OverlapTrusted = 1
	verifySet := exciseAnchor(recs, anchorIdx)

	// Anchored-empty staleness, exactly as on the audit tier: an anchor
	// past the maximum spacing with nothing new means measurements were
	// withheld, lost, or stopped.
	if len(verifySet) == 0 && v.cfg.MaxGap > 0 &&
		now > wm.T+uint64(v.cfg.MaxGap)+uint64(v.cfg.ClockSkew) {
		rep.TamperDetected = true
		rep.Issues = append(rep.Issues, fmt.Sprintf(
			"no records newer than the watermark (t=%d) after %d ticks: new measurements withheld, lost, or stopped",
			wm.T, now-wm.T))
	}

	rep.Records = make([]VerifiedRecord, 0, len(verifySet))
	v.gradeChainTrusted(verifySet, now, &rep)
	v.checkChain(verifySet, &wm, &rep)
	v.checkFreshness(recs, now, &rep)
	return rep, true
}

// gradeChainTrusted is checkRecords without the per-record MAC check:
// the chain walk already authenticated every record's (t, hash) content
// collectively, so only golden-hash membership and the future-timestamp
// check remain — both allocation-free per record. Device memory rarely
// changes between measurements, so consecutive records usually carry an
// identical hash; one comparison then replaces the map lookup.
func (v *Verifier) gradeChainTrusted(recs []Record, now uint64, rep *Report) {
	// Extend once and fill by index: a VerifiedRecord is a pointerful
	// ~70-byte struct, and the obvious range-copy + literal + append
	// shape moves each one three times (with a write barrier each time).
	// At batch temperature that triple copy costs more than the golden
	// lookup it surrounds.
	base := len(rep.Records)
	if n := base + len(recs); n <= cap(rep.Records) {
		rep.Records = rep.Records[:n]
	} else {
		rep.Records = append(rep.Records, make([]VerifiedRecord, len(recs))...)
	}
	skew := now + uint64(v.cfg.ClockSkew)
	var prevHash []byte
	prevGolden := false
	for idx := range recs {
		rec := &recs[idx]
		golden := prevGolden
		if prevHash == nil || !bytes.Equal(rec.Hash, prevHash) {
			golden = v.isGolden(rec.Hash)
		}
		prevHash, prevGolden = rec.Hash, golden
		vr := &rep.Records[base+idx]
		vr.Record = *rec
		if !golden {
			vr.Verdict = VerdictInfected
			rep.InfectionDetected = true
			rep.Issues = append(rep.Issues,
				fmt.Sprintf("record %d (t=%d): authentic but unknown memory state", idx, rec.T))
		} else {
			vr.Verdict = VerdictOK
		}
		if rec.T > skew {
			rep.TamperDetected = true
			rep.Issues = append(rep.Issues, fmt.Sprintf("record %d: timestamp %d in the future", idx, rec.T))
		}
	}
}
