// Package core implements the paper's primary contribution: ERASMUS
// self-measurement remote attestation.
//
// A prover measures its own memory on a timer-driven schedule, storing
// records
//
//	M_t = <t, H(mem_t), MAC_K(t, H(mem_t))>
//
// in a rolling (circular) buffer held in *insecure* storage. A verifier
// occasionally collects the k most recent records and validates the
// prover's state history. The package provides:
//
//   - measurement records with binary encoding (record.go);
//   - the windowed buffer with the paper's stateless slot arithmetic
//     i = ⌊t/TM⌋ mod n (buffer.go);
//   - regular, irregular (CSPRNG-driven, §3.5) and lenient-window (§5)
//     measurement schedules (schedule.go);
//   - the Prover runtime: timer-driven self-measurement on a device model,
//     plus the ERASMUS, ERASMUS+OD (§3.3) and pure on-demand (SMART+
//     baseline) collection protocols (prover.go, protocol.go);
//   - the Verifier with history validation and Quality-of-Attestation
//     accounting (verifier.go).
package core

import (
	"encoding/binary"
	"fmt"

	"erasmus/internal/crypto/mac"
)

// Record is one self-measurement M_t = <t, H(mem_t), MAC_K(t, H(mem_t))>.
type Record struct {
	// T is the RROC timestamp of the measurement, in nanoseconds since
	// the device epoch.
	T uint64
	// Hash is H(mem_t), the digest of the prover's attested memory.
	Hash []byte
	// MAC is MAC_K(t, H(mem_t)).
	MAC []byte
}

// macInput serializes the MAC'd message: big-endian t followed by the hash.
func macInput(t uint64, h []byte) []byte {
	buf := make([]byte, 8+len(h))
	binary.BigEndian.PutUint64(buf, t)
	copy(buf[8:], h)
	return buf
}

// ComputeRecord produces the measurement of memory at time t under key.
// This is what the protected attestation code runs; callers must invoke it
// inside the device's Attest context so K never leaves protected execution.
func ComputeRecord(alg mac.Algorithm, key []byte, t uint64, memory []byte) Record {
	h := mac.HashSum(alg, memory)
	return Record{T: t, Hash: h, MAC: mac.Sum(alg, key, macInput(t, h))}
}

// VerifyMAC checks the record's authenticity under key.
func (r Record) VerifyMAC(alg mac.Algorithm, key []byte) bool {
	return mac.Verify(alg, key, macInput(r.T, r.Hash), r.MAC)
}

// computeRecord is ComputeRecord on a context already keyed with the
// device key — same bytes, without keying a MAC per measurement.
func computeRecord(c *mac.Context, alg mac.Algorithm, t uint64, memory []byte) Record {
	h := mac.HashSum(alg, memory)
	return Record{T: t, Hash: h, MAC: c.AppendSumStamped(nil, t, h)}
}

// verifyMAC is VerifyMAC on a context already keyed with the device key:
// the stamped message is macInput's layout, big-endian t then the hash.
func (r Record) verifyMAC(c *mac.Context) bool {
	return c.VerifyStamped(r.T, r.Hash, r.MAC)
}

// RecordSize returns the fixed encoded size of a record for the algorithm:
// 8-byte timestamp, hash, MAC.
func RecordSize(alg mac.Algorithm) int {
	return 8 + alg.HashSize() + alg.Size()
}

// Encode serializes the record into its fixed-size wire/storage form.
// It panics if the hash or MAC lengths do not match the algorithm (records
// built by ComputeRecord always match).
func (r Record) Encode(alg mac.Algorithm) []byte {
	return r.AppendEncode(make([]byte, 0, RecordSize(alg)), alg)
}

// AppendEncode appends the record's wire/storage form to dst and returns
// the extended slice — Encode into a buffer the caller owns. Same panic
// as Encode.
func (r Record) AppendEncode(dst []byte, alg mac.Algorithm) []byte {
	if len(r.Hash) != alg.HashSize() || len(r.MAC) != alg.Size() {
		panic(fmt.Sprintf("core: record field sizes %d/%d do not match %v", len(r.Hash), len(r.MAC), alg))
	}
	dst = binary.BigEndian.AppendUint64(dst, r.T)
	dst = append(dst, r.Hash...)
	return append(dst, r.MAC...)
}

// DecodeRecord parses a fixed-size encoded record. It performs no
// authenticity check — the store is untrusted, so callers must VerifyMAC.
func DecodeRecord(alg mac.Algorithm, b []byte) (Record, error) {
	if len(b) != RecordSize(alg) {
		return Record{}, fmt.Errorf("core: record length %d, want %d for %v", len(b), RecordSize(alg), alg)
	}
	hs := alg.HashSize()
	r := Record{
		T:    binary.BigEndian.Uint64(b),
		Hash: append([]byte(nil), b[8:8+hs]...),
		MAC:  append([]byte(nil), b[8+hs:]...),
	}
	return r, nil
}

// IsZero reports whether the record is all-zero, i.e. read from a buffer
// slot that was never written.
func (r Record) IsZero() bool {
	return r.T == 0 && allZero(r.Hash) && allZero(r.MAC)
}
