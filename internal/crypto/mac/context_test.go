package mac

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// stamped is the message AppendSumStamped/VerifyStamped MAC, built the way
// a one-shot caller has to build it.
func stamped(stamp uint64, msg []byte) []byte {
	return append(binary.BigEndian.AppendUint64(nil, stamp), msg...)
}

// TestContextMatchesOneShot holds a reused Context to the one-shot API:
// for every algorithm, over random keys (short, longer than the HMAC
// block, longer than the BLAKE2s key cap) and random messages, the context
// produces Sum's bytes and gives Verify's answer for the right tag and for
// wrong, short, long and empty ones — with one context per key serving
// every call, so a rejected tag or an interleaved plain/stamped or
// sum/verify call must leave nothing behind for the next.
func TestContextMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	randBytes := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	keyLens := []int{1, 16, 32, 33, 64, 65, 100, 200}
	for _, alg := range Algorithms() {
		for _, kl := range keyLens {
			key := randBytes(kl)
			c := NewContext(alg, key)
			for i := 0; i < 200; i++ {
				msg := randBytes(rng.Intn(150))
				stamp := rng.Uint64()
				want := Sum(alg, key, msg)
				wantStamped := Sum(alg, key, stamped(stamp, msg))

				flipped := append([]byte(nil), want...)
				flipped[rng.Intn(len(flipped))] ^= 1 << uint(rng.Intn(8))
				tags := [][]byte{
					want, wantStamped, flipped,
					want[:len(want)-1], append(append([]byte(nil), want...), 0),
					{}, nil, randBytes(alg.Size()),
				}
				// Shuffle so accepted and rejected tags, and the two
				// message shapes, follow each other in every order.
				rng.Shuffle(len(tags), func(a, b int) { tags[a], tags[b] = tags[b], tags[a] })
				for _, tag := range tags {
					if got, ref := c.Verify(msg, tag), Verify(alg, key, msg, tag); got != ref {
						t.Fatalf("%v key=%dB msg=%dB tag=%dB: Context.Verify=%v, Verify=%v", alg, kl, len(msg), len(tag), got, ref)
					}
					if got, ref := c.VerifyStamped(stamp, msg, tag), Verify(alg, key, stamped(stamp, msg), tag); got != ref {
						t.Fatalf("%v key=%dB msg=%dB tag=%dB: Context.VerifyStamped=%v, Verify=%v", alg, kl, len(msg), len(tag), got, ref)
					}
				}
				if !c.Verify(msg, want) || !c.VerifyStamped(stamp, msg, wantStamped) {
					t.Fatalf("%v key=%dB: correct tag rejected after failed verifies", alg, kl)
				}

				prefix := randBytes(rng.Intn(4))
				if got := c.AppendSum(append([]byte(nil), prefix...), msg); !ConstantTimeEqual(got, append(prefix, want...)) {
					t.Fatalf("%v key=%dB: AppendSum = %x, want %x‖%x", alg, kl, got, prefix, want)
				}
				if got := c.AppendSumStamped(nil, stamp, msg); !ConstantTimeEqual(got, wantStamped) {
					t.Fatalf("%v key=%dB: AppendSumStamped = %x, want %x", alg, kl, got, wantStamped)
				}
			}
		}
	}
}

// TestContextAllocatesNothing pins the point of the type: after
// construction, verifying allocates nothing and AppendSum allocates only
// when the destination has no room.
func TestContextAllocatesNothing(t *testing.T) {
	key := []byte("0123456789abcdef0123456789abcdef")
	msg := make([]byte, 32)
	for _, alg := range Algorithms() {
		c := NewContext(alg, key)
		tag := c.AppendSumStamped(nil, 7, msg)
		dst := make([]byte, 0, maxSize)
		allocs := testing.AllocsPerRun(100, func() {
			if !c.VerifyStamped(7, msg, tag) || c.Verify(msg, tag) {
				t.Fatal("wrong verdict")
			}
			dst = c.AppendSum(dst[:0], msg)
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocations per verify+verify+sum, want 0", alg, allocs)
		}
	}
}

var benchOK bool

// BenchmarkRecordMAC compares the two ways to check one record-sized MAC:
// keying per message (Verify) and a kept Context.
func BenchmarkRecordMAC(b *testing.B) {
	key := []byte("0123456789abcdef0123456789abcdef")
	hash := make([]byte, 32)
	for _, alg := range Algorithms() {
		tag := Sum(alg, key, stamped(7, hash))
		b.Run(alg.String()+"/one-shot", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchOK = Verify(alg, key, stamped(7, hash), tag)
			}
		})
		b.Run(alg.String()+"/context", func(b *testing.B) {
			c := NewContext(alg, key)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchOK = c.VerifyStamped(7, hash, tag)
			}
		})
	}
}
