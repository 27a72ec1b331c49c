package core

import (
	"encoding/binary"
	"fmt"

	"erasmus/internal/crypto/mac"
)

// Wire encodings for the collection protocols, used over the simulated UDP
// network (internal/netsim) and by the swarm relay protocol. All integers
// are big-endian; record lists are length-prefixed with a uint16 count.

// Packet kind discriminators.
const (
	KindCollectRequest      = "erasmus/collect-req"
	KindCollectResponse     = "erasmus/collect-resp"
	KindODRequest           = "erasmus/od-req"
	KindODResponse          = "erasmus/od-resp"
	KindDeltaCollectRequest = "erasmus/delta-collect-req"
)

// CollectRequest asks for the k latest self-measurements (Fig. 2). It is
// deliberately unauthenticated: serving it costs the prover nothing
// cryptographic, so there is no DoS surface (§3).
type CollectRequest struct {
	K int
}

// Encode serializes the request.
func (r CollectRequest) Encode() []byte {
	return r.AppendEncode(make([]byte, 0, 4))
}

// AppendEncode appends the serialized request to dst.
func (r CollectRequest) AppendEncode(dst []byte) []byte {
	return binary.BigEndian.AppendUint32(dst, uint32(r.K))
}

// DecodeCollectRequest parses a request.
func DecodeCollectRequest(b []byte) (CollectRequest, error) {
	if len(b) != 4 {
		return CollectRequest{}, fmt.Errorf("core: collect request length %d, want 4", len(b))
	}
	return CollectRequest{K: int(binary.BigEndian.Uint32(b))}, nil
}

// DeltaCollectRequest asks for the records measured at or after Since —
// the incremental collection of a stateful verifier. Like CollectRequest
// it is unauthenticated and costs the prover no cryptography; unlike it,
// the response is O(records since the verifier's watermark) instead of
// O(k), which is what bounds fleet-scale traffic and verifier CPU by the
// measurement rate rather than by collections × history size.
//
// Since is the verifier's watermark timestamp; the record measured
// exactly at Since (the anchor) is included so the verifier can check
// continuity and overlap integrity. Since = 0 degenerates to a full
// collection. K caps the response; K ≤ 0 means "everything since"
// (clamped to the buffer size by the prover, per the Fig. 2 rule).
type DeltaCollectRequest struct {
	Since uint64
	K     int
}

// Encode serializes the request.
func (r DeltaCollectRequest) Encode() []byte {
	return r.AppendEncode(make([]byte, 0, 12))
}

// AppendEncode appends the serialized request to dst.
func (r DeltaCollectRequest) AppendEncode(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, r.Since)
	return binary.BigEndian.AppendUint32(dst, uint32(r.K))
}

// DecodeDeltaCollectRequest parses a request.
func DecodeDeltaCollectRequest(b []byte) (DeltaCollectRequest, error) {
	if len(b) != 12 {
		return DeltaCollectRequest{}, fmt.Errorf("core: delta collect request length %d, want 12", len(b))
	}
	return DeltaCollectRequest{
		Since: binary.BigEndian.Uint64(b[:8]),
		K:     int(int32(binary.BigEndian.Uint32(b[8:]))),
	}, nil
}

// recordsSize is the encoded size of a record list.
func recordsSize(alg mac.Algorithm, recs []Record) int {
	return 2 + len(recs)*RecordSize(alg)
}

// appendRecords appends a newest-first record list to dst.
func appendRecords(dst []byte, alg mac.Algorithm, recs []Record) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(recs)))
	for _, r := range recs {
		dst = r.AppendEncode(dst, alg)
	}
	return dst
}

// decodeRecords parses a record list.
func decodeRecords(alg mac.Algorithm, b []byte) ([]Record, []byte, error) {
	if len(b) < 2 {
		return nil, nil, fmt.Errorf("core: record list truncated")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	rs := RecordSize(alg)
	if len(b) < n*rs {
		return nil, nil, fmt.Errorf("core: record list holds %d bytes, want %d", len(b), n*rs)
	}
	// Slab decode: one backing array for every record's hash and MAC
	// instead of two heap allocations per record (what DecodeRecord
	// does). Decoded histories flow straight into the batch verify hot
	// path, and consumers that outlive the response copy what they keep
	// (NewWatermark copies its slices), so the shared backing is safe.
	//
	// This copy is also the one place a response leaves the buffer it
	// arrived in: the UDP transport decodes out of a per-socket receive
	// buffer it reuses for the next datagram, while the fleet pipeline
	// verifies asynchronously — a Record aliasing b would be silently
	// rewritten under the verifier.
	slab := make([]byte, n*rs)
	copy(slab, b[:n*rs])
	return viewRecords(alg, slab, n), b[n*rs:], nil
}

// viewRecords returns the n records encoded back to back in slab as views
// into it (no copy): the caller hands over a slab nothing else writes.
func viewRecords(alg mac.Algorithm, slab []byte, n int) []Record {
	rs, hs := RecordSize(alg), alg.HashSize()
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		enc := slab[i*rs : (i+1)*rs]
		recs = append(recs, Record{
			T:    binary.BigEndian.Uint64(enc),
			Hash: enc[8 : 8+hs : 8+hs],
			MAC:  enc[8+hs:],
		})
	}
	return recs
}

// CollectResponse carries the collected history, newest first.
type CollectResponse struct {
	Records []Record
}

// Encode serializes the response.
func (r CollectResponse) Encode(alg mac.Algorithm) []byte {
	return r.AppendEncode(make([]byte, 0, recordsSize(alg, r.Records)), alg)
}

// AppendEncode appends the serialized response to dst.
func (r CollectResponse) AppendEncode(dst []byte, alg mac.Algorithm) []byte {
	return appendRecords(dst, alg, r.Records)
}

// DecodeCollectResponse parses a response.
func DecodeCollectResponse(alg mac.Algorithm, b []byte) (CollectResponse, error) {
	recs, rest, err := decodeRecords(alg, b)
	if err != nil {
		return CollectResponse{}, err
	}
	if len(rest) != 0 {
		return CollectResponse{}, fmt.Errorf("core: %d trailing bytes in collect response", len(rest))
	}
	return CollectResponse{Records: recs}, nil
}

// ODRequest is the authenticated ERASMUS+OD / on-demand request
// <treq, k, MAC_K(treq, k)> of Fig. 4.
type ODRequest struct {
	Treq uint64
	K    int
	MAC  []byte
}

// NewODRequest builds and authenticates a request.
func NewODRequest(alg mac.Algorithm, key []byte, treq uint64, k int) ODRequest {
	return ODRequest{Treq: treq, K: k, MAC: NewODRequestMAC(alg, key, treq, k)}
}

// NextTreq returns a strictly increasing on-demand request timestamp that
// tracks the verifier clock, updating *last. It bumps past the previous
// value only when the clock has not advanced, so the prover's monotone
// anti-replay floor (the largest accepted treq) stays within one tick of
// real time and a reconnecting client — fresh floor state, honest clock —
// is accepted immediately. Both collection transports share this rule; a
// clock()+nonce scheme with a forever-growing nonce would ratchet the
// floor ahead of real time without bound.
func NextTreq(clock func() uint64, last *uint64) uint64 {
	treq := clock()
	if treq <= *last {
		treq = *last + 1
	}
	*last = treq
	return treq
}

// Encode serializes the request.
func (r ODRequest) Encode() []byte {
	out := make([]byte, 12+len(r.MAC))
	binary.BigEndian.PutUint64(out, r.Treq)
	binary.BigEndian.PutUint32(out[8:], uint32(r.K))
	copy(out[12:], r.MAC)
	return out
}

// DecodeODRequest parses a request for the given algorithm's MAC size.
func DecodeODRequest(alg mac.Algorithm, b []byte) (ODRequest, error) {
	want := 12 + alg.Size()
	if len(b) != want {
		return ODRequest{}, fmt.Errorf("core: OD request length %d, want %d", len(b), want)
	}
	return ODRequest{
		Treq: binary.BigEndian.Uint64(b),
		K:    int(binary.BigEndian.Uint32(b[8:])),
		MAC:  append([]byte(nil), b[12:]...),
	}, nil
}

// ODResponse carries the fresh measurement M0 plus the stored history.
type ODResponse struct {
	M0      Record
	Records []Record
}

// Encode serializes the response: M0 then the history list.
func (r ODResponse) Encode(alg mac.Algorithm) []byte {
	out := make([]byte, 0, RecordSize(alg)+recordsSize(alg, r.Records))
	return appendRecords(r.M0.AppendEncode(out, alg), alg, r.Records)
}

// DecodeODResponse parses a response.
func DecodeODResponse(alg mac.Algorithm, b []byte) (ODResponse, error) {
	rs := RecordSize(alg)
	if len(b) < rs {
		return ODResponse{}, fmt.Errorf("core: OD response truncated")
	}
	m0, err := DecodeRecord(alg, b[:rs])
	if err != nil {
		return ODResponse{}, err
	}
	recs, rest, err := decodeRecords(alg, b[rs:])
	if err != nil {
		return ODResponse{}, err
	}
	if len(rest) != 0 {
		return ODResponse{}, fmt.Errorf("core: %d trailing bytes in OD response", len(rest))
	}
	return ODResponse{M0: m0, Records: recs}, nil
}
