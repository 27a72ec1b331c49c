package core

import (
	"fmt"

	"erasmus/internal/crypto/mac"
)

// Incremental (delta) verification — the stateful half of ERASMUS's
// efficiency claim (§4): because provers accumulate self-measurements
// autonomously, the verifier only ever needs the records produced *since
// its last collection*. A stateless verifier re-ships and re-MAC-verifies
// the full k-record history every round, so consecutive collections pay
// for the same records over and over; a verifier that remembers one
// watermark per device pays O(new records) instead — the property that
// lets one verifier keep up with millions of provers.

// Watermark is the per-device verifier state left behind by a successful
// verification: the newest verified record's timestamp plus its hash and
// MAC bytes. The next collection asks only for records at or after T, and
// the returned copy of the watermark record (the *anchor*) is checked for
// byte equality against the cached fields — O(1) — instead of recomputing
// its MAC. Any in-place modification of the already-verified record
// therefore still surfaces as tamper.
//
// The zero Watermark means "no state": verification falls back to the
// stateless full path.
type Watermark struct {
	// T is the RROC timestamp of the newest verified record.
	T uint64
	// Hash and MAC are that record's bytes, kept for the O(1) overlap
	// equality check. Roughly 8 + 2×digest bytes per device: ~72 B of
	// state per device under keyed BLAKE2s, ~150 B with map overhead —
	// about 150 MB for a million-device fleet.
	Hash, MAC []byte
	// Chain is the prover's marshaled chain-digest state as of this
	// record, adopted from an aggregate collection whose aggregate MAC
	// verified (Report.ChainState). It is what lets the next
	// VerifyDeltaAggregate resume the hash walk mid-stream instead of
	// re-hashing history from genesis. Empty on watermarks produced by
	// the per-record path alone; ~108 B (SHA-256 state) otherwise, no
	// secrets. Equality of marshaled states implies equality of the
	// absorbed record streams.
	Chain []byte
}

// IsZero reports whether the watermark carries no state.
func (w Watermark) IsZero() bool { return w.T == 0 && len(w.Hash) == 0 && len(w.MAC) == 0 }

// Matches reports whether rec is byte-for-byte the record the watermark
// was taken from. Equality implies authenticity: the bytes were MAC-
// verified when the watermark was written, and malware cannot change any
// of them without breaking equality. The comparison is constant-time in
// the record's contents — rec is prover-supplied, and a variable-time
// compare against the cached MAC bytes would leak the mismatch position
// — and both fields are compared unconditionally so timing does not even
// reveal which one diverged.
func (w Watermark) Matches(rec Record) bool {
	hashOK := mac.ConstantTimeEqual(rec.Hash, w.Hash)
	macOK := mac.ConstantTimeEqual(rec.MAC, w.MAC)
	return rec.T == w.T && hashOK && macOK
}

// NewWatermark captures a verified record as watermark state. The field
// slices are copied: records decoded from a reused wire buffer must not
// alias long-lived verifier state.
func NewWatermark(rec Record) Watermark {
	return Watermark{
		T:    rec.T,
		Hash: append([]byte(nil), rec.Hash...),
		MAC:  append([]byte(nil), rec.MAC...),
	}
}

// NextWatermark derives the watermark to store after applying a report
// that was produced against prev. The rules:
//
//   - Tamper (including a modified anchor), or a lost anchor
//     (WatermarkGap): reset to zero — the next collection re-fetches and
//     re-verifies the full history. Fallback is always safe: it merely
//     costs one stateless round.
//   - Otherwise, if the report verified at least one new record and the
//     newest is authentic (VerdictOK or VerdictInfected — infection is a
//     memory-state finding, not an evidence fault): advance to it.
//   - Otherwise (nothing new, e.g. an anchor-only response): keep prev.
//
// The function is pure, so callers that verify concurrently (the fleet
// pipeline) can apply watermark updates in submission order from the
// report alone.
func NextWatermark(prev Watermark, rep Report) Watermark {
	if rep.TamperDetected || rep.WatermarkGap {
		return Watermark{}
	}
	if len(rep.Records) > 0 {
		vr := rep.Records[0]
		if vr.Verdict == VerdictOK || vr.Verdict == VerdictInfected {
			w := NewWatermark(vr.Record)
			// An aggregate-authenticated chain head (set only when the
			// aggregate MAC verified) rides along so the next round can
			// resume the hash walk — including after a fallback round,
			// which is how the aggregate tier re-establishes itself in
			// one collection. The prover marshals its head at the same
			// instant it reads the buffer, so the state corresponds to
			// the newest shipped record exactly.
			w.Chain = append([]byte(nil), rep.ChainState...)
			return w
		}
		return Watermark{}
	}
	// Nothing new (anchored-empty round): keep the watermark, but still
	// adopt an authenticated chain head — with zero new records the head
	// is the post-anchor state, so a watermark minted before the
	// aggregate tier existed (no Chain) upgrades in place instead of
	// falling back every idle round.
	if !prev.IsZero() && len(rep.ChainState) > 0 && rep.OverlapTrusted == 1 {
		w := prev
		w.Chain = append([]byte(nil), rep.ChainState...)
		return w
	}
	return prev
}

// VerifyDelta validates a delta collection — records at or after wm.T,
// newest first, as HandleCollectDelta returns them — against the device's
// watermark, and returns the report plus the watermark to store for the
// next round.
//
// Semantics relative to VerifyHistory:
//
//   - A zero watermark degenerates to VerifyHistory exactly.
//   - The anchor (the record with T == wm.T) is consumed by an O(1)
//     equality check against the cached bytes instead of a MAC
//     recomputation; it does not appear in Report.Records. A present but
//     modified anchor sets WatermarkTampered (and TamperDetected).
//   - An absent anchor sets WatermarkGap: the watermark record was
//     overwritten (buffer rollover after missed collections), erased, or
//     the device rebooted with a cleared store. This alone is not tamper —
//     a stateless verifier would have been equally blind — but the
//     returned watermark resets so the next collection re-verifies fully.
//   - All other records are validated with the full per-record checks;
//     ordering and spacing checks run across them and the anchor, so the
//     seam between old and new history is gap-checked too.
//
// Report.Freshness, the expected-length check and the future-timestamp
// check behave exactly as in VerifyHistory.
func (v *Verifier) VerifyDelta(recs []Record, now uint64, expectedK int, wm Watermark) (Report, Watermark) {
	rep := v.deltaReport(recs, now, expectedK, wm)
	return rep, NextWatermark(wm, rep)
}

// exciseAnchor returns recs without the anchor at anchorIdx. The anchor is
// the oldest shipped record, so it normally sits at the end of the
// newest-first slice and excising it is a reslice, not an O(k) copy.
func exciseAnchor(recs []Record, anchorIdx int) []Record {
	if anchorIdx == len(recs)-1 {
		return recs[:anchorIdx]
	}
	out := make([]Record, 0, len(recs)-1)
	out = append(out, recs[:anchorIdx]...)
	return append(out, recs[anchorIdx+1:]...)
}

// deltaReport is VerifyDelta without deriving the successor watermark.
// The batch verify loop uses it directly: NextWatermark is a pure
// function of (Watermark, Report) that pipeline callers re-derive in
// submission order, so computing it per job would only be thrown away.
func (v *Verifier) deltaReport(recs []Record, now uint64, expectedK int, wm Watermark) Report {
	if wm.IsZero() {
		return v.VerifyHistory(recs, now, expectedK)
	}
	return v.verifyDelta(recs, now, expectedK, wm)
}

// verifyDelta is the non-zero-watermark path of VerifyDelta.
func (v *Verifier) verifyDelta(recs []Record, now uint64, expectedK int, wm Watermark) Report {
	var rep Report
	rep.DeltaApplied = true

	// Locate the anchor: the returned copy of the watermark record.
	anchorIdx := -1
	for i, r := range recs {
		if r.T == wm.T {
			anchorIdx = i
			break
		}
	}
	verifySet := recs
	anchored := false
	switch {
	case anchorIdx < 0:
		rep.WatermarkGap = true
		rep.Issues = append(rep.Issues, fmt.Sprintf(
			"watermark record (t=%d) absent from response: rollover, reboot or deletion; next collection re-verifies fully", wm.T))
	case wm.Matches(recs[anchorIdx]):
		anchored = true
		rep.OverlapTrusted = 1
		verifySet = exciseAnchor(recs, anchorIdx)
	default:
		// Same timestamp, different bytes: the already-verified record was
		// modified in place. Leave it in the verify set so the usual MAC
		// check produces its verdict too.
		rep.WatermarkTampered = true
		rep.TamperDetected = true
		rep.Issues = append(rep.Issues, fmt.Sprintf(
			"watermark record (t=%d) modified since last verification", wm.T))
	}

	// The expected-length check applies only when the anchor is absent
	// (reboot with a cleared store, deep rollover): there the response is
	// the device's whole usable history, exactly as on the stateless
	// path. With an anchor, the response is delta-sized by design —
	// counting it against the full window k would turn ordinary missed
	// measurements (or any k > TC/TM overlap regime) into false tamper.
	// Window completeness is instead covered by the seam-inclusive
	// spacing checks below: missing measurements surface as ScheduleGaps,
	// matching what a stateless verifier reports.
	if anchorIdx < 0 && expectedK > 0 && len(recs) < expectedK {
		rep.MissingRecords = expectedK - len(recs)
		rep.TamperDetected = true
		rep.Issues = append(rep.Issues,
			fmt.Sprintf("history has %d records, schedule requires %d", len(recs), expectedK))
	}

	// An anchored response with no new records at all is only acceptable
	// while the watermark is younger than the maximum measurement
	// spacing. Past that, measurements the schedule requires exist (or
	// should) and were not shipped — withheld by malware, lost, or the
	// prover stopped measuring — and unlike the stateless path there are
	// no stale padding records here to hide behind, so flag it. The
	// spacing checks below cannot see this case (a one-element chain has
	// no pairs), and the fleet sets no FreshnessBound.
	if anchored && len(verifySet) == 0 && v.cfg.MaxGap > 0 &&
		now > wm.T+uint64(v.cfg.MaxGap)+uint64(v.cfg.ClockSkew) {
		rep.TamperDetected = true
		rep.Issues = append(rep.Issues, fmt.Sprintf(
			"no records newer than the watermark (t=%d) after %d ticks: new measurements withheld, lost, or stopped",
			wm.T, now-wm.T))
	}

	rep.Records = make([]VerifiedRecord, 0, len(verifySet))
	v.checkRecords(verifySet, now, &rep)

	// Ordering and spacing across the new records, with the anchor as
	// the oldest element so the old/new seam is checked with the same
	// rules as any interior pair. When the anchor is absent the seam is
	// unverifiable (that is what WatermarkGap records), so no boundary
	// gap is charged.
	var anchor *Watermark
	if anchored {
		anchor = &wm
	}
	v.checkChain(verifySet, anchor, &rep)

	// Freshness is judged on everything shipped: with no new records the
	// anchor is still the newest evidence.
	v.checkFreshness(recs, now, &rep)
	return rep
}
