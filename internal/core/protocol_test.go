package core

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"erasmus/internal/crypto/mac"
)

func TestCollectRequestRoundTrip(t *testing.T) {
	req := CollectRequest{K: 17}
	got, err := DecodeCollectRequest(req.Encode())
	if err != nil || got.K != 17 {
		t.Fatalf("round trip: %+v, %v", got, err)
	}
	if _, err := DecodeCollectRequest([]byte{1, 2}); err == nil {
		t.Fatal("short request accepted")
	}
}

func TestCollectResponseRoundTrip(t *testing.T) {
	recs := []Record{
		ComputeRecord(alg, testKey, 300, []byte("m3")),
		ComputeRecord(alg, testKey, 200, []byte("m2")),
		ComputeRecord(alg, testKey, 100, []byte("m1")),
	}
	enc := CollectResponse{Records: recs}.Encode(alg)
	got, err := DecodeCollectResponse(alg, enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 3 {
		t.Fatalf("decoded %d records", len(got.Records))
	}
	for i := range recs {
		if got.Records[i].T != recs[i].T ||
			//erasmus:allow(ctcompare) wire round-trip assertion on test-known values; no prover-supplied operand, no timing oracle
			!bytes.Equal(got.Records[i].MAC, recs[i].MAC) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestCollectResponseEmpty(t *testing.T) {
	got, err := DecodeCollectResponse(alg, CollectResponse{}.Encode(alg))
	if err != nil || len(got.Records) != 0 {
		t.Fatalf("empty round trip: %v, %d records", err, len(got.Records))
	}
}

func TestCollectResponseRejectsMalformed(t *testing.T) {
	if _, err := DecodeCollectResponse(alg, []byte{0}); err == nil {
		t.Fatal("truncated count accepted")
	}
	if _, err := DecodeCollectResponse(alg, []byte{0, 3, 1, 2}); err == nil {
		t.Fatal("truncated records accepted")
	}
	good := CollectResponse{Records: history(1, 100, 1, []byte("m"))}.Encode(alg)
	if _, err := DecodeCollectResponse(alg, append(good, 0xFF)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestODRequestRoundTripWire(t *testing.T) {
	req := NewODRequest(alg, testKey, 123456, 7)
	got, err := DecodeODRequest(alg, req.Encode())
	if err != nil {
		t.Fatal(err)
	}
	//erasmus:allow(ctcompare) wire round-trip assertion on test-known values; no prover-supplied operand, no timing oracle
	if got.Treq != 123456 || got.K != 7 || !bytes.Equal(got.MAC, req.MAC) {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if _, err := DecodeODRequest(alg, req.Encode()[:10]); err == nil {
		t.Fatal("truncated OD request accepted")
	}
}

func TestODRequestMACBindsKAndTreq(t *testing.T) {
	a := NewODRequest(alg, testKey, 100, 5)
	b := NewODRequest(alg, testKey, 100, 6)
	c := NewODRequest(alg, testKey, 101, 5)
	//erasmus:allow(ctcompare) record-equality helper over test-known values; no prover-supplied operand, no timing oracle
	if bytes.Equal(a.MAC, b.MAC) || bytes.Equal(a.MAC, c.MAC) {
		t.Fatal("request MAC does not bind treq and k")
	}
}

func TestODResponseRoundTrip(t *testing.T) {
	m0 := ComputeRecord(alg, testKey, 500, []byte("fresh"))
	hist := history(2, 400, 100, []byte("older"))
	enc := ODResponse{M0: m0, Records: hist}.Encode(alg)
	got, err := DecodeODResponse(alg, enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.M0.T != 500 || len(got.Records) != 2 {
		t.Fatalf("round trip: M0.T=%d, %d records", got.M0.T, len(got.Records))
	}
	if !got.M0.VerifyMAC(alg, testKey) {
		t.Fatal("M0 corrupted in transit encoding")
	}
	if _, err := DecodeODResponse(alg, enc[:5]); err == nil {
		t.Fatal("truncated OD response accepted")
	}
	if _, err := DecodeODResponse(alg, append(enc, 1)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// Property: responses of any size round-trip for every algorithm.
func TestPropertyResponseRoundTrip(t *testing.T) {
	f := func(count uint8, seed uint32) bool {
		for _, a := range mac.Algorithms() {
			n := int(count) % 20
			recs := make([]Record, n)
			for i := range recs {
				recs[i] = ComputeRecord(a, testKey, uint64(seed)+uint64(i), []byte{byte(seed), byte(i)})
			}
			got, err := DecodeCollectResponse(a, CollectResponse{Records: recs}.Encode(a))
			if err != nil || len(got.Records) != n {
				return false
			}
			for i := range recs {
				if !got.Records[i].VerifyMAC(a, testKey) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Decoded responses must own their bytes. The UDP transport decodes out of
// a per-socket receive buffer that the next datagram overwrites, while the
// fleet pipeline verifies asynchronously: a Record (or chain head, or
// aggregate MAC) still aliasing the source would be silently rewritten
// under the verifier.
func TestDecodedResponsesDoNotAliasSource(t *testing.T) {
	alg := mac.KeyedBLAKE2s
	recs := []Record{
		ComputeRecord(alg, testKey, 20, []byte("newer")),
		ComputeRecord(alg, testKey, 10, []byte("older")),
	}
	scribble := func(b []byte) {
		for i := range b {
			b[i] ^= 0xFF
		}
	}

	src := CollectResponse{Records: recs}.Encode(alg)
	plain, err := DecodeCollectResponse(alg, src)
	if err != nil {
		t.Fatal(err)
	}
	scribble(src)
	if !reflect.DeepEqual(plain.Records, recs) {
		t.Fatal("records of a collect response alias the buffer they were decoded from")
	}

	want := AggCollectResponse{ChainState: []byte("chain-head-state"), AggMAC: []byte("aggregate-mac"), Records: recs}
	src = want.Encode(alg)
	agg, err := DecodeAggCollectResponse(alg, src)
	if err != nil {
		t.Fatal(err)
	}
	scribble(src)
	if !reflect.DeepEqual(agg, want) {
		t.Fatal("an aggregate response aliases the buffer it was decoded from")
	}
}
