package core

import (
	"bytes"
	"testing"

	"erasmus/internal/crypto/mac"
)

// Fuzz targets for everything that parses attacker-controlled bytes: the
// record codec (store contents are attacker-writable) and the wire
// protocol decoders (datagrams arrive off an open network). Run with
// `go test -fuzz FuzzDecodeRecord ./internal/core`; the seeds below also
// execute as ordinary unit tests.

func FuzzDecodeRecord(f *testing.F) {
	rec := ComputeRecord(mac.HMACSHA256, testKey, 123456789, []byte("image"))
	f.Add(rec.Encode(mac.HMACSHA256))
	f.Add(make([]byte, RecordSize(mac.HMACSHA256)))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 100))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, alg := range mac.Algorithms() {
			r, err := DecodeRecord(alg, data)
			if err != nil {
				continue
			}
			// A decodable blob must re-encode to the identical bytes.
			if !bytes.Equal(r.Encode(alg), data) {
				t.Fatalf("%v: decode/encode not idempotent", alg)
			}
			// And must never verify under our key unless it was a real
			// record (the only seeded real record is for HMAC-SHA256).
			if r.VerifyMAC(alg, []byte("some-other-key")) {
				t.Fatalf("%v: fuzzed record verified under an arbitrary key", alg)
			}
		}
	})
}

func FuzzDecodeCollectResponse(f *testing.F) {
	resp := CollectResponse{Records: []Record{
		ComputeRecord(mac.KeyedBLAKE2s, testKey, 1, []byte("a")),
		ComputeRecord(mac.KeyedBLAKE2s, testKey, 2, []byte("b")),
	}}
	f.Add(resp.Encode(mac.KeyedBLAKE2s))
	f.Add([]byte{0, 0})
	f.Add([]byte{0xFF, 0xFF, 1, 2, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, alg := range mac.Algorithms() {
			r, err := DecodeCollectResponse(alg, data)
			if err != nil {
				continue
			}
			if !bytes.Equal(CollectResponse{Records: r.Records}.Encode(alg), data) {
				t.Fatalf("%v: response decode/encode not idempotent", alg)
			}
		}
	})
}

func FuzzDecodeODRequest(f *testing.F) {
	req := NewODRequest(mac.HMACSHA256, testKey, 42, 3)
	f.Add(req.Encode())
	f.Add(make([]byte, 12+32))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, alg := range mac.Algorithms() {
			r, err := DecodeODRequest(alg, data)
			if err != nil {
				continue
			}
			if !bytes.Equal(r.Encode(), data) {
				t.Fatalf("%v: request decode/encode not idempotent", alg)
			}
			// Fuzzed requests must not authenticate under a fresh key.
			if mac.Verify(alg, []byte("never-provisioned"), reqMACInput(r.Treq, r.K), r.MAC) {
				t.Fatalf("%v: fuzzed request authenticated", alg)
			}
		}
	})
}

func FuzzDecodeODResponse(f *testing.F) {
	m0 := ComputeRecord(mac.HMACSHA1, testKey, 9, []byte("fresh"))
	resp := ODResponse{M0: m0, Records: []Record{ComputeRecord(mac.HMACSHA1, testKey, 5, nil)}}
	f.Add(resp.Encode(mac.HMACSHA1))
	f.Add(make([]byte, RecordSize(mac.HMACSHA1)+2))
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, alg := range mac.Algorithms() {
			r, err := DecodeODResponse(alg, data)
			if err != nil {
				continue
			}
			if !bytes.Equal(ODResponse{M0: r.M0, Records: r.Records}.Encode(alg), data) {
				t.Fatalf("%v: OD response decode/encode not idempotent", alg)
			}
		}
	})
}

func FuzzDecodeDeltaCollectRequest(f *testing.F) {
	f.Add(DeltaCollectRequest{Since: 1 << 40, K: 8}.Encode())
	f.Add(DeltaCollectRequest{Since: 0, K: -1}.Encode())
	f.Add(make([]byte, 11))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeDeltaCollectRequest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(r.Encode(), data) {
			t.Fatal("delta request decode/encode not idempotent")
		}
	})
}

func FuzzDecodeAggDeltaCollectRequest(f *testing.F) {
	f.Add(AggDeltaCollectRequest{Since: 7, Nonce: 9, K: 0, AnchorHash: bytes.Repeat([]byte{0xA5}, 32)}.Encode())
	f.Add(AggDeltaCollectRequest{K: 8}.Encode())
	f.Add(append(make([]byte, 20), 0xFF, 0xFF)) // anchor length far past the end
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeAggDeltaCollectRequest(data)
		if err != nil {
			return
		}
		if !bytes.Equal(r.Encode(), data) {
			t.Fatal("aggregate request decode/encode not idempotent")
		}
		// The anchor must not alias the datagram it was parsed from.
		if len(r.AnchorHash) > 0 {
			data[22] ^= 0xFF
			if r.AnchorHash[0] == data[22] {
				t.Fatal("decoded anchor hash aliases the input")
			}
		}
	})
}

func FuzzDecodeAggCollectResponse(f *testing.F) {
	resp := AggCollectResponse{
		ChainState: bytes.Repeat([]byte{3}, 108),
		AggMAC:     bytes.Repeat([]byte{4}, 32),
		Records: []Record{
			ComputeRecord(mac.KeyedBLAKE2s, testKey, 2, []byte("b")),
			ComputeRecord(mac.KeyedBLAKE2s, testKey, 1, []byte("a")),
		},
	}
	f.Add(resp.Encode(mac.KeyedBLAKE2s))
	f.Add([]byte{0, 0, 0, 0, 0, 0})
	f.Add([]byte{0xFF, 0xFF, 1})
	f.Add([]byte{0, 1, 9, 0xFF, 0xFF})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, alg := range mac.Algorithms() {
			r, err := DecodeAggCollectResponse(alg, data)
			if err != nil {
				continue
			}
			if !bytes.Equal(r.Encode(alg), data) {
				t.Fatalf("%v: aggregate response decode/encode not idempotent", alg)
			}
		}
	})
}
