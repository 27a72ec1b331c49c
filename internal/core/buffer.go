package core

import (
	"encoding/binary"
	"fmt"

	"erasmus/internal/crypto/mac"
	"erasmus/internal/sim"
)

// Buffer is the prover's rolling measurement store (§3.2, Fig. 3): a fixed
// region of insecure memory organized as a windowed circular buffer of n
// fixed-size record slots. The i-th measurement is stored at L_{i mod n}.
//
// The backing slice is supplied by the device (its Store region), so
// resident malware can tamper with stored records — which, per §3.4, is
// detected at the next collection because malware cannot forge MACs.
type Buffer struct {
	alg     mac.Algorithm
	n       int
	recSize int
	backing []byte
}

// NewBuffer wraps a device store region as an n-slot buffer. The region
// must hold at least n records.
func NewBuffer(alg mac.Algorithm, n int, backing []byte) (*Buffer, error) {
	if n <= 0 {
		return nil, fmt.Errorf("core: buffer needs ≥1 slot, got %d", n)
	}
	rs := RecordSize(alg)
	if len(backing) < n*rs {
		return nil, fmt.Errorf("core: store of %d bytes cannot hold %d records of %d bytes",
			len(backing), n, rs)
	}
	return &Buffer{alg: alg, n: n, recSize: rs, backing: backing}, nil
}

// Slots returns n, the buffer capacity in records.
func (b *Buffer) Slots() int { return b.n }

// SlotForTime implements the paper's stateless schedule mapping for regular
// intervals: i = ⌊t/TM⌋ mod n. Because it depends only on the RROC value
// and configuration, the prover needs no persistent write cursor — it
// recovers the correct slot even after a reboot.
//
// tm must be positive; NewProver rejects stateless schedules with a
// non-positive nominal TM at construction time, so the runtime never gets
// here with one. A direct caller passing tm ≤ 0 is addressed to slot 0
// rather than crashing the prover loop.
func (b *Buffer) SlotForTime(t uint64, tm sim.Ticks) int {
	if tm <= 0 {
		return 0
	}
	return int((t / uint64(tm)) % uint64(b.n))
}

// Put stores the record in the given slot.
func (b *Buffer) Put(slot int, r Record) {
	b.check(slot)
	off := slot * b.recSize
	r.AppendEncode(b.backing[off:off:off+b.recSize], b.alg)
}

// Get reads the record in the given slot. The result is unauthenticated.
func (b *Buffer) Get(slot int) (Record, error) {
	b.check(slot)
	return DecodeRecord(b.alg, b.backing[slot*b.recSize:(slot+1)*b.recSize])
}

// Erase zeroes a slot (used by tamper experiments to model record
// deletion by malware).
func (b *Buffer) Erase(slot int) {
	b.check(slot)
	for i := slot * b.recSize; i < (slot+1)*b.recSize; i++ {
		b.backing[i] = 0
	}
}

// Latest returns the k most recent records reading backward from slot i:
// M = {*L_{(i−j) mod n} | 0 ≤ j < k}, the collection set of Fig. 2. k is
// clamped to n, per the protocol ("if k > n: k = n"). Never-written
// (all-zero) slots are skipped, so a freshly booted prover returns fewer
// than k records rather than garbage.
func (b *Buffer) Latest(i, k int) []Record {
	if k > b.n {
		k = b.n
	}
	if k < 0 {
		k = 0
	}
	recs, _ := b.read(i, k, k, 0)
	return recs
}

// LatestSince returns the records measured at or after since, reading
// backward from slot i and stopping at the first record older than since
// — the delta-collection read. With an honest buffer (timestamps decrease
// going backward) the scan touches O(returned)+1 slots, which is what
// makes serving an incremental collection proportional to the new history
// rather than to k; tampered orderings merely ship extra records that the
// verifier then flags. k caps the result; k ≤ 0 means the whole buffer.
// The second return value is the number of slots visited, for cost
// accounting.
func (b *Buffer) LatestSince(i, k int, since uint64) ([]Record, int) {
	if k <= 0 || k > b.n {
		k = b.n
	}
	return b.read(i, b.n, k, since)
}

// read copies out the written records found walking backward from slot i
// over at most maxSlots slots, stopping after maxRecs records or at the
// first one older than since. It sizes the result with one counting walk
// and then copies the slots into a single slab the records view, so a
// collection costs two allocations however many records it ships.
func (b *Buffer) read(i, maxSlots, maxRecs int, since uint64) ([]Record, int) {
	b.check(i)
	found, visited := b.walk(i, maxSlots, maxRecs, since, nil)
	slab := make([]byte, 0, found*b.recSize)
	b.walk(i, maxSlots, maxRecs, since, func(enc []byte) { slab = append(slab, enc...) })
	return viewRecords(b.alg, slab, found), visited
}

// walk visits slots backward from i, passing each qualifying record's
// encoded bytes to each (when non-nil), and reports how many records
// qualified and how many slots were visited.
func (b *Buffer) walk(i, maxSlots, maxRecs int, since uint64, each func(enc []byte)) (found, visited int) {
	for j := 0; j < maxSlots && found < maxRecs; j++ {
		slot := ((i-j)%b.n + b.n) % b.n
		visited++
		enc := b.backing[slot*b.recSize : (slot+1)*b.recSize]
		if allZero(enc) {
			continue // never written
		}
		if binary.BigEndian.Uint64(enc) < since {
			break
		}
		found++
		if each != nil {
			each(enc)
		}
	}
	return found, visited
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

func (b *Buffer) check(slot int) {
	if slot < 0 || slot >= b.n {
		panic(fmt.Sprintf("core: slot %d outside buffer of %d", slot, b.n))
	}
}
