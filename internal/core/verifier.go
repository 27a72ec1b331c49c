package core

import (
	"errors"
	"fmt"
	"sync"

	"erasmus/internal/crypto/mac"
	"erasmus/internal/sim"
)

// QoA captures the Quality-of-Attestation parameters of §3.1: how often
// the prover measures itself (TM) and how often the verifier collects
// (TC). It is the temporal analogue of QoSA.
type QoA struct {
	TM sim.Ticks
	TC sim.Ticks
}

// Validate checks the parameters.
func (q QoA) Validate() error {
	if q.TM <= 0 || q.TC <= 0 {
		return fmt.Errorf("core: QoA periods must be positive (TM=%v, TC=%v)", q.TM, q.TC)
	}
	return nil
}

// RecordsPerCollection returns k = ⌈TC/TM⌉, the history size at which each
// measurement is collected exactly once.
func (q QoA) RecordsPerCollection() int {
	return int((q.TC + q.TM - 1) / q.TM)
}

// MinBufferSlots returns the smallest n satisfying TC ≤ n·TM, the §3.2
// constraint guaranteeing no record is overwritten before collection.
func (q QoA) MinBufferSlots() int { return q.RecordsPerCollection() }

// ExpectedFreshness returns the mean freshness E[f] = TM/2 (§3.1: f ranges
// over [0, TM], averaging TM/2).
func (q QoA) ExpectedFreshness() sim.Ticks { return q.TM / 2 }

// MaxDetectionDelay bounds the time from a persistent infection to the
// verifier learning about it: at most TM (next measurement) + TC (next
// collection).
func (q QoA) MaxDetectionDelay() sim.Ticks { return q.TM + q.TC }

// Verdict classifies one collected record.
type Verdict int

const (
	// VerdictOK: authentic record of a whitelisted memory state.
	VerdictOK Verdict = iota
	// VerdictBadMAC: the record fails authentication — the store was
	// tampered with (or the slot held garbage).
	VerdictBadMAC
	// VerdictInfected: the record is authentic but digests a memory state
	// outside the whitelist — malware was present at measurement time.
	VerdictInfected
)

func (v Verdict) String() string {
	switch v {
	case VerdictOK:
		return "ok"
	case VerdictBadMAC:
		return "bad-mac"
	case VerdictInfected:
		return "infected"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// VerifiedRecord pairs a record with its verdict.
type VerifiedRecord struct {
	Record  Record
	Verdict Verdict
}

// Report is the outcome of validating one collected history.
type Report struct {
	// Records holds per-record verdicts in the order received
	// (newest first).
	Records []VerifiedRecord
	// TamperDetected: at least one record failed authentication, was out
	// of order, carried an impossible timestamp, or the history was
	// shorter than the schedule requires. Per §3.4 any of these
	// immediately indicates malware (or loss) on the prover.
	TamperDetected bool
	// InfectionDetected: at least one authentic record shows a
	// non-whitelisted memory state.
	InfectionDetected bool
	// MissingRecords is the shortfall versus the expected history length.
	MissingRecords int
	// ScheduleGaps counts consecutive-record spacings outside the
	// expected bounds.
	ScheduleGaps int
	// Freshness is now − T of the newest record (§3.1's f).
	Freshness sim.Ticks
	// Issues lists human-readable findings.
	Issues []string

	// Incremental-verification fields, zero-valued on the stateless path.
	//
	// DeltaApplied: the history was validated against a watermark; Records
	// covers only the records newer than it.
	DeltaApplied bool
	// OverlapTrusted counts records accepted by the O(1) watermark
	// equality check instead of MAC recomputation (0 or 1: the anchor).
	OverlapTrusted int
	// WatermarkGap: the watermark record was absent from the response
	// (buffer rollover, reboot, or deletion). Not tamper by itself, but
	// the device's watermark resets and the next collection verifies the
	// full history.
	WatermarkGap bool
	// WatermarkTampered: a record claimed the watermark's timestamp with
	// different bytes — the already-verified overlap was modified in
	// place. Always accompanied by TamperDetected.
	WatermarkTampered bool

	// Aggregate-tier fields (see aggregate.go), zero-valued elsewhere.
	//
	// AggregateApplied: the history was accepted by the O(1) aggregate
	// tier — one chain walk plus one MAC, no per-record MAC work.
	AggregateApplied bool
	// AggregateFallback: aggregate evidence was present but did not
	// close (forged/absent aggregate MAC, chain-walk divergence, missing
	// or modified anchor, no saved chain state); the verdicts above came
	// from the per-record audit tier on the same records.
	AggregateFallback bool
	// ChainState is the prover's chain head, set only when the aggregate
	// MAC authenticated it. NextWatermark copies it into the advancing
	// watermark so the next round can resume the hash walk.
	ChainState []byte
}

// Healthy reports a clean history: nothing tampered, no infection, no
// missing records or schedule gaps.
func (r Report) Healthy() bool {
	return !r.TamperDetected && !r.InfectionDetected && r.MissingRecords == 0 && r.ScheduleGaps == 0
}

// VerifierConfig parameterizes a verifier.
type VerifierConfig struct {
	// Alg and Key mirror the prover's provisioning.
	Alg mac.Algorithm
	Key []byte
	// GoldenHashes whitelists known-good memory digests (multiple entries
	// allow sanctioned software versions).
	GoldenHashes [][]byte
	// MinGap/MaxGap bound the expected spacing between consecutive
	// measurements: for a regular schedule TM±tolerance; for an irregular
	// schedule [L, U) widened by tolerance.
	MinGap, MaxGap sim.Ticks
	// FreshnessBound is the largest acceptable age of the newest record
	// at collection time; zero disables the check.
	FreshnessBound sim.Ticks
	// ClockSkew tolerates the prover's RROC running ahead of the
	// verifier's time base by up to this much before a record timestamp is
	// flagged as "in the future". The paper assumes loose synchronization
	// (§2); over a real transport the two clocks drift by pump granularity
	// and network latency, and a zero tolerance turns that drift into
	// false tamper alerts. Zero keeps the strict check.
	ClockSkew sim.Ticks
	// MACCacheSize, when positive, remembers up to that many records whose
	// MACs already verified, so histories that overlap across collections
	// (k > new records per TC, or repeated batch validation) skip the MAC
	// recomputation. Only successful verifications are cached — the cache
	// key is the full record content, so a forged record can never hit.
	MACCacheSize int
	// Metrics, when set, counts MAC-cache hits and misses (the cache-
	// effectiveness ratio on /metrics). Nil adds no work to verifyMAC.
	Metrics *VerifyMetrics
}

// Verifier validates collected measurement histories. Verifiers can be
// untrusted couriers in ERASMUS — records are self-authenticating — but
// this Verifier is the party holding K that performs final validation.
//
// A Verifier is safe for concurrent use: all configuration is immutable
// after NewVerifier and the optional MAC cache is internally synchronized,
// so a BatchVerifier may fan the same instance out across workers.
type Verifier struct {
	cfg    VerifierConfig
	golden map[string]struct{} // whitelist as a set: O(1) per record

	cacheMu  sync.Mutex
	macCache map[macCacheKey]struct{}

	// macPool holds MAC contexts keyed with this verifier's key, behind
	// every MAC the hot paths check: each record of an audited history and
	// the aggregate tier's one MAC per collection. A collection takes one
	// and reuses it for all its records, so the key schedule and the
	// instance are paid once per worker, not once per record. Keys are
	// device-unique, so the pool is the only place a keyed instance lives:
	// an idle verifier retains none past two garbage collections.
	macPool sync.Pool
}

// NewVerifier validates the configuration.
func NewVerifier(cfg VerifierConfig) (*Verifier, error) {
	if !cfg.Alg.Valid() {
		return nil, fmt.Errorf("core: invalid MAC algorithm %d", int(cfg.Alg))
	}
	if len(cfg.Key) == 0 {
		return nil, errors.New("core: verifier key required")
	}
	if cfg.MinGap < 0 || cfg.MaxGap < 0 || (cfg.MaxGap > 0 && cfg.MaxGap < cfg.MinGap) {
		return nil, fmt.Errorf("core: gap bounds [%v,%v] invalid", cfg.MinGap, cfg.MaxGap)
	}
	if cfg.MACCacheSize < 0 {
		return nil, fmt.Errorf("core: negative MAC cache size %d", cfg.MACCacheSize)
	}
	if cfg.ClockSkew < 0 {
		return nil, fmt.Errorf("core: negative clock skew tolerance %v", cfg.ClockSkew)
	}
	v := &Verifier{cfg: cfg, golden: make(map[string]struct{}, len(cfg.GoldenHashes))}
	for _, g := range cfg.GoldenHashes {
		v.golden[string(g)] = struct{}{}
	}
	if cfg.MACCacheSize > 0 {
		v.macCache = make(map[macCacheKey]struct{}, cfg.MACCacheSize)
	}
	v.macPool.New = func() any { return mac.NewContext(v.cfg.Alg, v.cfg.Key) }
	return v, nil
}

// isGolden reports whether h digests a whitelisted memory state.
func (v *Verifier) isGolden(h []byte) bool {
	_, ok := v.golden[string(h)]
	return ok
}

// verifyMAC authenticates one record on the caller's context, consulting
// the cache when enabled.
func (v *Verifier) verifyMAC(c *mac.Context, rec Record) bool {
	if v.macCache == nil {
		return rec.verifyMAC(c)
	}
	key, ok := cacheKey(rec)
	if !ok {
		// Oversized fields cannot be packed without truncation, and a
		// truncated key could let two distinct records collide — never
		// acceptable in a cache whose hits skip MAC verification.
		return rec.verifyMAC(c)
	}
	v.cacheMu.Lock()
	_, hit := v.macCache[key]
	v.cacheMu.Unlock()
	if hit {
		v.cfg.Metrics.cacheHit()
		return true
	}
	v.cfg.Metrics.cacheMiss()
	if !rec.verifyMAC(c) {
		return false
	}
	v.cacheMu.Lock()
	if len(v.macCache) >= v.cfg.MACCacheSize {
		clear(v.macCache) // cheap bound; the working set refills immediately
	}
	v.macCache[key] = struct{}{}
	v.cacheMu.Unlock()
	return true
}

// macCacheKey packs the complete record into a fixed-size comparable
// key: any bit flip in t, hash or MAC produces a different key, and the
// recorded field lengths disambiguate the boundary. A value key keeps
// the cache lookup allocation-free — the previous string key heap-
// allocated its backing bytes on every record, the dominant allocation
// of the batch verify loop. The 64-byte body fits every supported
// algorithm (hash ≤ 32 B, MAC ≤ 32 B); trailing bytes stay zero.
type macCacheKey struct {
	t      uint64
	nh, nm uint8
	b      [64]byte
}

// cacheKey builds the cache key; ok is false when the record's fields
// exceed the fixed body (never the case for records of a valid
// algorithm) and the cache must be bypassed.
func cacheKey(rec Record) (macCacheKey, bool) {
	k := macCacheKey{t: rec.T, nh: uint8(len(rec.Hash)), nm: uint8(len(rec.MAC))}
	if len(rec.Hash)+len(rec.MAC) > len(k.b) || len(rec.Hash) > 255 || len(rec.MAC) > 255 {
		return macCacheKey{}, false
	}
	n := copy(k.b[:], rec.Hash)
	copy(k.b[n:], rec.MAC)
	return k, true
}

// VerifyHistory validates records collected at RROC time now, expecting
// expectedK records (pass 0 to skip the length check, e.g. right after
// boot). Records must arrive newest-first, as HandleCollect returns them.
func (v *Verifier) VerifyHistory(recs []Record, now uint64, expectedK int) Report {
	var rep Report
	rep.Records = make([]VerifiedRecord, 0, len(recs))
	v.verifyHistory(recs, now, expectedK, &rep)
	return rep
}

// verifyHistory is VerifyHistory into a report whose Records the caller
// has sized (and may have started filling).
func (v *Verifier) verifyHistory(recs []Record, now uint64, expectedK int, rep *Report) {
	if expectedK > 0 && len(recs) < expectedK {
		rep.MissingRecords = expectedK - len(recs)
		rep.TamperDetected = true
		rep.Issues = append(rep.Issues,
			fmt.Sprintf("history has %d records, schedule requires %d", len(recs), expectedK))
	}

	v.checkRecords(recs, now, rep)
	v.checkChain(recs, nil, rep)
	v.checkFreshness(recs, now, rep)
}

// checkRecords runs the per-record checks — MAC, golden-hash membership,
// future timestamp — over a newest-first record list, appending verdicts
// and findings to rep. Shared by the stateless and incremental paths so
// verdict logic can never drift between them. One keyed context serves
// the whole list.
func (v *Verifier) checkRecords(recs []Record, now uint64, rep *Report) {
	c := v.macPool.Get().(*mac.Context)
	defer v.macPool.Put(c)
	for idx, rec := range recs {
		vr := VerifiedRecord{Record: rec}
		switch {
		case !v.verifyMAC(c, rec):
			vr.Verdict = VerdictBadMAC
			rep.TamperDetected = true
			rep.Issues = append(rep.Issues, fmt.Sprintf("record %d: MAC verification failed", idx))
		case !v.isGolden(rec.Hash):
			vr.Verdict = VerdictInfected
			rep.InfectionDetected = true
			rep.Issues = append(rep.Issues,
				fmt.Sprintf("record %d (t=%d): authentic but unknown memory state", idx, rec.T))
		default:
			vr.Verdict = VerdictOK
		}
		if rec.T > now+uint64(v.cfg.ClockSkew) {
			rep.TamperDetected = true
			rep.Issues = append(rep.Issues, fmt.Sprintf("record %d: timestamp %d in the future", idx, rec.T))
		}
		rep.Records = append(rep.Records, vr)
	}
}

// checkFreshness sets rep.Freshness from the newest shipped record (§3.1's
// f) and enforces the optional freshness bound. Shared by the stateless
// and incremental paths.
func (v *Verifier) checkFreshness(recs []Record, now uint64, rep *Report) {
	if len(recs) == 0 {
		return
	}
	newest := recs[0].T
	if now >= newest {
		rep.Freshness = sim.Ticks(now - newest)
	}
	if v.cfg.FreshnessBound > 0 && rep.Freshness > v.cfg.FreshnessBound {
		rep.Issues = append(rep.Issues,
			fmt.Sprintf("newest record is %v old, bound %v", rep.Freshness, v.cfg.FreshnessBound))
		rep.TamperDetected = true
	}
}

// checkChain runs the ordering and spacing checks over a newest-first
// record chain, folding findings into rep. Shared by the stateless and
// the incremental verification paths; the latter pass the watermark as
// anchor, which is checked as the chain's oldest element so the old/new
// seam obeys the same rules as any interior pair.
func (v *Verifier) checkChain(recs []Record, anchor *Watermark, rep *Report) {
	for i := 1; i < len(recs); i++ {
		v.checkSpacing(i, recs[i-1].T, recs[i].T, rep)
	}
	if anchor != nil && len(recs) > 0 {
		v.checkSpacing(len(recs), recs[len(recs)-1].T, anchor.T, rep)
	}
}

// checkSpacing checks chain elements i-1 (timestamp newer) and i (older):
// newest-first means strictly decreasing T, spaced within the gap bounds.
func (v *Verifier) checkSpacing(i int, newer, older uint64, rep *Report) {
	if older >= newer {
		rep.TamperDetected = true
		rep.Issues = append(rep.Issues,
			fmt.Sprintf("records %d/%d out of order (%d ≥ %d)", i-1, i, older, newer))
		return
	}
	gap := sim.Ticks(newer - older)
	if v.cfg.MinGap > 0 && gap < v.cfg.MinGap {
		rep.ScheduleGaps++
		rep.Issues = append(rep.Issues,
			fmt.Sprintf("records %d/%d: spacing %v below minimum %v", i-1, i, gap, v.cfg.MinGap))
	}
	if v.cfg.MaxGap > 0 && gap > v.cfg.MaxGap {
		rep.ScheduleGaps++
		rep.Issues = append(rep.Issues,
			fmt.Sprintf("records %d/%d: spacing %v above maximum %v (missing measurements?)", i-1, i, gap, v.cfg.MaxGap))
	}
}

// VerifyODResponse validates an ERASMUS+OD response (Fig. 4): M0 must be
// authentic, whitelisted and essentially fresh; the history is then
// validated as usual.
func (v *Verifier) VerifyODResponse(m0 Record, history []Record, now uint64, expectedK int, m0FreshBound sim.Ticks) Report {
	// M0 is reported first but judged last (its findings follow the
	// history's): slot 0 is reserved for it.
	var rep Report
	rep.Records = make([]VerifiedRecord, 1, 1+len(history))
	v.verifyHistory(history, now, expectedK, &rep)
	c := v.macPool.Get().(*mac.Context)
	m0Authentic := v.verifyMAC(c, m0)
	v.macPool.Put(c)
	vr := VerifiedRecord{Record: m0}
	switch {
	case !m0Authentic:
		vr.Verdict = VerdictBadMAC
		rep.TamperDetected = true
		rep.Issues = append(rep.Issues, "M0: MAC verification failed")
	case !v.isGolden(m0.Hash):
		vr.Verdict = VerdictInfected
		rep.InfectionDetected = true
		rep.Issues = append(rep.Issues, "M0: authentic but unknown memory state")
	default:
		vr.Verdict = VerdictOK
	}
	if m0FreshBound > 0 && (m0.T > now+uint64(v.cfg.ClockSkew) || (m0.T <= now && sim.Ticks(now-m0.T) > m0FreshBound)) {
		rep.TamperDetected = true
		rep.Issues = append(rep.Issues, "M0: not fresh")
	}
	// M0 is the newest evidence; report freshness relative to it.
	if now >= m0.T {
		rep.Freshness = sim.Ticks(now - m0.T)
	}
	rep.Records[0] = vr
	return rep
}
