// Package mac provides the message-authentication-code algorithms used by
// ERASMUS measurements: HMAC-SHA1, HMAC-SHA256 and keyed BLAKE2s.
//
// The paper evaluates all three (Table 1, Figures 6 and 8) but excludes
// HMAC-SHA1 from deployments due to the SHA-1 collision attack; it is kept
// here for the same comparison purposes. Each algorithm also carries the
// per-architecture cost metadata (cycles per byte, code size) used by the
// calibrated run-time models — see internal/costmodel.
package mac

import (
	"crypto/hmac"
	"crypto/sha1"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash"
	"sort"

	"erasmus/internal/crypto/blake2s"
)

// Algorithm identifies a MAC function. The zero value is deliberately
// invalid so that configuration structs can default it.
type Algorithm int

const (
	// HMACSHA1 is HMAC with SHA-1 (comparison only; excluded from
	// deployment in the paper due to the SHAttered collision).
	HMACSHA1 Algorithm = iota + 1
	// HMACSHA256 is HMAC with SHA-256.
	HMACSHA256
	// KeyedBLAKE2s is BLAKE2s in its native keyed mode.
	KeyedBLAKE2s
)

// Algorithms lists all supported algorithms in display order.
func Algorithms() []Algorithm {
	return []Algorithm{HMACSHA1, HMACSHA256, KeyedBLAKE2s}
}

// String returns the paper's name for the algorithm.
func (a Algorithm) String() string {
	switch a {
	case HMACSHA1:
		return "HMAC-SHA1"
	case HMACSHA256:
		return "HMAC-SHA256"
	case KeyedBLAKE2s:
		return "Keyed BLAKE2S"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Size returns the MAC output length in bytes.
func (a Algorithm) Size() int {
	switch a {
	case HMACSHA1:
		return sha1.Size
	case HMACSHA256:
		return sha256.Size
	case KeyedBLAKE2s:
		return blake2s.Size
	default:
		panic(fmt.Sprintf("mac: unknown algorithm %d", int(a)))
	}
}

// Valid reports whether a names a supported algorithm.
func (a Algorithm) Valid() bool {
	return a == HMACSHA1 || a == HMACSHA256 || a == KeyedBLAKE2s
}

// ParseAlgorithm resolves a case-sensitive algorithm name as printed by
// String (plus compact aliases used on command lines).
func ParseAlgorithm(name string) (Algorithm, error) {
	switch name {
	case "HMAC-SHA1", "hmac-sha1", "sha1":
		return HMACSHA1, nil
	case "HMAC-SHA256", "hmac-sha256", "sha256":
		return HMACSHA256, nil
	case "Keyed BLAKE2S", "keyed-blake2s", "blake2s":
		return KeyedBLAKE2s, nil
	}
	names := make([]string, 0, 3)
	for _, a := range Algorithms() {
		names = append(names, a.String())
	}
	sort.Strings(names)
	return 0, fmt.Errorf("mac: unknown algorithm %q (supported: %v)", name, names)
}

// New returns a keyed MAC instance for the algorithm. The key is the
// device-unique secret K shared between prover and verifier; per the paper
// it never leaves the protected region of the security architecture.
func New(a Algorithm, key []byte) hash.Hash {
	switch a {
	case HMACSHA1:
		return hmac.New(sha1.New, key)
	case HMACSHA256:
		return hmac.New(sha256.New, key)
	case KeyedBLAKE2s:
		k := key
		if len(k) > blake2s.MaxKeySize {
			// BLAKE2s keys are capped at 32 bytes; fold longer keys the
			// way HMAC folds long keys, by hashing them first.
			sum := blake2s.Sum256(key)
			k = sum[:]
		}
		return blake2s.New256(k)
	default:
		panic(fmt.Sprintf("mac: unknown algorithm %d", int(a)))
	}
}

// Sum computes the one-shot MAC of msg under key.
func Sum(a Algorithm, key, msg []byte) []byte {
	h := New(a, key)
	h.Write(msg)
	return h.Sum(nil)
}

// Verify reports whether tag is the correct MAC of msg under key, in
// constant time with respect to the tag comparison.
func Verify(a Algorithm, key, msg, tag []byte) bool {
	want := Sum(a, key, msg)
	return ConstantTimeEqual(want, tag)
}

// maxSize is the largest Size() of any supported algorithm.
const maxSize = sha256.Size

// Context is a keyed MAC instance that is kept and reused: key it once,
// then MAC any number of messages. Keying is most of the cost of a short
// one-shot MAC (an HMAC key schedule is two extra compressions and seven
// allocations against two compressions for a 40-byte record message), so
// code that MACs many messages under one key — a verifier walking a
// collected history, a prover measuring on a timer — holds a Context
// instead of calling Sum or Verify per message. After NewContext returns
// no method allocates beyond what the caller asks AppendSum to append to.
//
// Every call starts from the keyed initial state, so nothing carries over
// from one message to the next, whatever the previous call did. A Context
// is not safe for concurrent use; it holds key-derived state, so it lives
// where the key may live.
type Context struct {
	h hash.Hash
	// Scratch owned by the context: a stack array handed to h.Write would
	// escape through the interface and be heap-allocated per call.
	hdr [8]byte
	tag [maxSize]byte
}

// NewContext returns a reusable context for the algorithm keyed with key
// (the same key handling as New).
func NewContext(a Algorithm, key []byte) *Context {
	c := &Context{h: New(a, key)}
	// The first Reset of a stdlib HMAC snapshots its keyed pads (two
	// allocations); take it here so that no later call allocates.
	c.h.Reset()
	return c
}

// AppendSum appends the MAC of msg to dst and returns the extended slice.
func (c *Context) AppendSum(dst, msg []byte) []byte {
	c.h.Reset()
	c.h.Write(msg)
	return c.h.Sum(dst)
}

// AppendSumStamped appends the MAC of the 8-byte big-endian stamp followed
// by msg — the shape of every timestamped ERASMUS message — to dst.
func (c *Context) AppendSumStamped(dst []byte, stamp uint64, msg []byte) []byte {
	binary.BigEndian.PutUint64(c.hdr[:], stamp)
	c.h.Reset()
	c.h.Write(c.hdr[:])
	c.h.Write(msg)
	return c.h.Sum(dst)
}

// Verify reports whether tag is the MAC of msg, comparing in constant
// time. It agrees with the one-shot Verify under the same key.
func (c *Context) Verify(msg, tag []byte) bool {
	return ConstantTimeEqual(c.AppendSum(c.tag[:0], msg), tag)
}

// VerifyStamped reports whether tag is the MAC of stamp‖msg as
// AppendSumStamped lays it out, comparing in constant time.
func (c *Context) VerifyStamped(stamp uint64, msg, tag []byte) bool {
	return ConstantTimeEqual(c.AppendSumStamped(c.tag[:0], stamp, msg), tag)
}

// ConstantTimeEqual reports whether a and b are equal in time that
// depends on their lengths but not their contents. It is the comparison
// every check of prover-supplied bytes against stored MAC material or
// verifier chain state must use: a variable-time bytes.Equal leaks the
// position of the first mismatching byte, which is exactly the oracle an
// attacker forging a tag one byte at a time needs. Lengths are public
// (they are fixed by the algorithm), so the early length exit leaks
// nothing.
func ConstantTimeEqual(a, b []byte) bool {
	return len(a) == len(b) && subtle.ConstantTimeCompare(a, b) == 1
}

// Hash returns the un-keyed hash function H used to digest prover memory
// before MACing: M_t = <t, H(mem_t), MAC_K(t, H(mem_t))>. For the HMAC
// variants H is the underlying SHA; for keyed BLAKE2s H is unkeyed BLAKE2s.
func Hash(a Algorithm) hash.Hash {
	switch a {
	case HMACSHA1:
		return sha1.New()
	case HMACSHA256:
		return sha256.New()
	case KeyedBLAKE2s:
		return blake2s.New256(nil)
	default:
		panic(fmt.Sprintf("mac: unknown algorithm %d", int(a)))
	}
}

// HashSize returns the byte length of Hash(a) digests.
func (a Algorithm) HashSize() int {
	switch a {
	case HMACSHA1:
		return sha1.Size
	case HMACSHA256, KeyedBLAKE2s:
		return 32
	default:
		panic(fmt.Sprintf("mac: unknown algorithm %d", int(a)))
	}
}

// HashSum computes the one-shot memory digest H(data).
func HashSum(a Algorithm, data []byte) []byte {
	h := Hash(a)
	h.Write(data)
	return h.Sum(nil)
}
