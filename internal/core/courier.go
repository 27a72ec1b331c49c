package core

import (
	"encoding/binary"
	"fmt"

	"erasmus/internal/crypto/mac"
)

// Untrusted couriers. §3 observes that the collecting party need not be
// trusted: measurements are MAC'd under K, are not secret, and need no
// confidentiality — so *anyone* (a drone flying past, a gateway, another
// swarm member) can haul a prover's history to the real verifier. A
// courier can drop, reorder or corrupt records, but per §3.4 all of that
// is detectable, and none of it enables forgery.
//
// Bundle is the interchange format: one device's collected history plus
// unauthenticated courier metadata. The metadata is advisory (the courier
// could lie about it); all trust decisions rest on the records themselves.

// Bundle is a courier-portable collection result.
type Bundle struct {
	// DeviceID names the prover the courier claims this history is from.
	// The claim is cross-checked cryptographically: records only verify
	// under that device's key.
	DeviceID string
	// CollectedAt is the courier's claimed collection time (advisory).
	CollectedAt uint64
	// Records is the collected history, newest first.
	Records []Record
}

// Encode serializes the bundle:
// idLen u16 | id | collectedAt u64 | records.
func (b Bundle) Encode(alg mac.Algorithm) []byte {
	out := make([]byte, 0, 2+len(b.DeviceID)+8+recordsSize(alg, b.Records))
	out = binary.BigEndian.AppendUint16(out, uint16(len(b.DeviceID)))
	out = append(out, b.DeviceID...)
	out = binary.BigEndian.AppendUint64(out, b.CollectedAt)
	return appendRecords(out, alg, b.Records)
}

// DecodeBundle parses a bundle.
func DecodeBundle(alg mac.Algorithm, data []byte) (Bundle, error) {
	if len(data) < 2 {
		return Bundle{}, fmt.Errorf("core: bundle truncated")
	}
	idLen := int(binary.BigEndian.Uint16(data))
	if len(data) < 2+idLen+8 {
		return Bundle{}, fmt.Errorf("core: bundle header truncated")
	}
	b := Bundle{DeviceID: string(data[2 : 2+idLen])}
	b.CollectedAt = binary.BigEndian.Uint64(data[2+idLen:])
	recs, rest, err := decodeRecords(alg, data[2+idLen+8:])
	if err != nil {
		return Bundle{}, err
	}
	if len(rest) != 0 {
		return Bundle{}, fmt.Errorf("core: %d trailing bytes in bundle", len(rest))
	}
	b.Records = recs
	return b, nil
}

// VerifyBundle validates a courier-delivered bundle against the claimed
// device's verifier: the records authenticate themselves, so a dishonest
// courier can cause loss (visible) but never false evidence.
func (v *Verifier) VerifyBundle(b Bundle, now uint64, expectedK int) Report {
	return v.VerifyHistory(b.Records, now, expectedK)
}
