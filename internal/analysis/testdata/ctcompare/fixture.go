// Package ctcompare exercises the constant-time-comparison taint rule:
// authenticator bytes (MAC fields, watermark material, keyed mac-package
// results) reaching bytes.Equal or ==, directly, through assignments,
// and interprocedurally through a helper's parameter.
package ctcompare

import (
	"bytes"

	"erasmus/internal/crypto/mac"
)

// Report mirrors the shape of core's attested records: MAC carries
// authenticator bytes, Hash is a content address.
type Report struct {
	Device string
	Hash   []byte
	MAC    []byte
}

// Watermark mirrors core.Watermark: both fields are trusted-anchor
// material a prover could try to forge.
type Watermark struct {
	Hash []byte
	MAC  []byte
}

// BadDirect compares an authenticator field with bytes.Equal.
func BadDirect(r Report, supplied []byte) bool {
	return bytes.Equal(r.MAC, supplied)
}

// BadFlow reaches the sink through an intermediate assignment.
func BadFlow(r Report, supplied []byte) bool {
	want := r.MAC
	return bytes.Equal(want, supplied)
}

// BadSum compares a keyed mac-package result.
func BadSum(key, msg, supplied []byte) bool {
	tag := mac.Sum(mac.HMACSHA256, key, msg)
	return bytes.Equal(tag, supplied)
}

// compareTags receives tainted bytes through its parameter: the
// interprocedural fixpoint carries the taint from BadInterproc's call
// site into tag.
func compareTags(tag, supplied []byte) bool {
	return bytes.Equal(tag, supplied)
}

// BadInterproc passes watermark material to a helper that compares it.
func BadInterproc(w Watermark, supplied []byte) bool {
	return compareTags(w.Hash, supplied)
}

// BadString reaches == through a string conversion.
func BadString(r Report, supplied string) bool {
	return string(r.MAC) == supplied
}

// Allowed is the suppression path: the same sink, explained.
func Allowed(r Report, golden []byte) bool {
	//erasmus:allow(ctcompare) fixture: both operands are operator-owned; no prover-supplied bytes
	return bytes.Equal(r.MAC, golden)
}

// CleanConstantTime uses the trusted comparator.
func CleanConstantTime(r Report, supplied []byte) bool {
	return mac.ConstantTimeEqual(r.MAC, supplied)
}

// CleanHash compares a content address: Report.Hash is not a source.
func CleanHash(r Report, golden []byte) bool {
	return bytes.Equal(r.Hash, golden)
}

// CleanKill compares a variable whose taint was overwritten.
func CleanKill(r Report, supplied []byte) bool {
	b := r.MAC
	b = []byte("fixture")
	return bytes.Equal(b, supplied)
}

// CleanNil is a nil check, not a comparison of contents.
func CleanNil(r Report) bool {
	return r.MAC == nil
}

// BadContext compares the output of a reused keyed context: the tag is
// produced inside the mac package, so it is a source like mac.Sum's.
func BadContext(c *mac.Context, msg, supplied []byte) bool {
	tag := c.AppendSum(nil, msg)
	return bytes.Equal(tag, supplied)
}

// CleanContext lets the context compare in constant time itself.
func CleanContext(c *mac.Context, msg, supplied []byte) bool {
	return c.Verify(msg, supplied)
}
