package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"

	"erasmus/internal/core"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/hw/mcu"
	"erasmus/internal/sim"
)

// Every benchmark device measures with HMAC-SHA256 and boots at the
// device models' epoch, so the replay fleet and the hosted provers of
// udp-loopback share one time base.
const (
	benchAlg = mac.HMACSHA256
	epoch    = mcu.DefaultEpoch
)

// fleetSpec sizes a replay fleet and its seeded adversary plan.
type fleetSpec struct {
	Devices  int
	TM       sim.Ticks
	K        int // records per collection: TC = K·TM
	Rounds   int // collections per device in one pass
	MemBytes int // attested memory per device

	// Adversary plan, as shares of the fleet; the three sets are disjoint.
	Infected float64 // infected for one TC window
	Tampered float64 // one stored record with a flipped hash bit
	Silent   float64 // unanswered for three consecutive rounds
}

func (s fleetSpec) TC() sim.Ticks { return sim.Ticks(s.K) * s.TM }

// slots is the provers' buffer size: room for the three rounds a silent
// device misses plus the current one and its anchor, so a delta
// collection after the silence still finds its watermark record.
func (s fleetSpec) slots() int { return 5 * s.K }

// horizon is the virtual time a pass runs to. The manager staggers
// first collections over [TC, 2·TC), so every device is collected
// exactly Rounds times.
func (s fleetSpec) horizon() sim.Ticks { return sim.Ticks(s.Rounds+1)*s.TC() - 1 }

// landing is what the aggregate tier needs at one record index a
// collection has landed on: the prover's chain head after that record,
// and the last aggregate MAC computed there with the full challenge it
// answers. One pointer-free value, so serving a collection touches one
// run of cache lines.
type landing struct {
	index int32
	head  [chainMax]byte

	memoValid  bool
	since      uint64
	nonce      uint64
	anchorLen  uint8
	anchorHash [32]byte
	mac        [32]byte
}

// chainMax bounds the marshaled chain state (SHA-256: 108 bytes).
const chainMax = 128

// devEvidence is one device's pre-computed measurement history.
type devEvidence struct {
	addr   string
	key    []byte
	golden []byte

	t0   uint64 // timestamp of record 0; record j is at t0 + j·TM
	n    int    // records generated
	slab []byte // wire encoding, newest first: record j at (n-1-j)·recSize

	// landings is ascending by record index; cursor is the entry the
	// last collection used, since the next one usually wants its successor.
	landings []landing
	cursor   int

	// Adversary plan, in device clock time (0 = not planned): memory is
	// infected over [infectAt, infectAt+TC), the record measured around
	// tamperAt has its stored hash rewritten, and collections during
	// [silentFrom, silentTo) go unanswered.
	infectAt, tamperAt   uint64
	silentFrom, silentTo uint64

	// Derived by generate: the timestamp of the first measurement of
	// infected memory, and the tampered record with the hash the prover's
	// chain committed to.
	infectedFrom uint64
	tamperIdx    int
	origHash     []byte
}

// evidence is a replay fleet: every record any pass will ever collect,
// computed once during set-up.
type evidence struct {
	spec     fleetSpec
	recSize  int
	chainLen int
	devices  []*devEvidence
}

func deviceAddr(i int) string { return fmt.Sprintf("dev-%06d", i) }

// deviceIndex inverts deviceAddr without allocating.
func deviceIndex(addr string) int {
	n := 0
	for i := 4; i < len(addr); i++ {
		n = n*10 + int(addr[i]-'0')
	}
	return n
}

// planFleet draws the adversary plan: which devices misbehave and in
// which round. Rounds 0–1 and the last rounds stay clean so that every
// planned event, and the recovery that follows it, lies inside the pass.
func planFleet(spec fleetSpec, rng *rand.Rand, devs []*devEvidence) {
	perm := rng.Perm(spec.Devices)
	take := func(share float64) []int {
		n := int(share * float64(spec.Devices))
		out := perm[:n]
		perm = perm[n:]
		return out
	}
	tc := uint64(spec.TC())
	at := func(lastRound int) uint64 { // a time in rounds [2, lastRound]
		r := 2 + rng.Intn(lastRound-1)
		return epoch + uint64(r)*tc + uint64(rng.Int63n(int64(tc)))
	}
	for _, i := range take(spec.Infected) {
		devs[i].infectAt = at(spec.Rounds - 4)
	}
	for _, i := range take(spec.Tampered) {
		devs[i].tamperAt = at(spec.Rounds - 4)
	}
	for _, i := range take(spec.Silent) {
		devs[i].silentFrom = at(spec.Rounds - 5)
		devs[i].silentTo = devs[i].silentFrom + 3*tc
	}
}

// generateEvidence computes the fleet's records (core.ComputeRecord)
// into one pointer-free slab. Devices are generated in parallel, each
// from its own stream, so the result depends on the seed alone.
func generateEvidence(spec fleetSpec, seed int64) (*evidence, error) {
	if spec.Rounds < 8 && spec.Infected+spec.Tampered+spec.Silent > 0 {
		return nil, fmt.Errorf("adversary plan needs at least 8 rounds, have %d", spec.Rounds)
	}
	genesis, err := core.ChainOf(nil, nil)
	if err != nil {
		return nil, err
	}
	if len(genesis) > chainMax {
		return nil, fmt.Errorf("chain state is %d bytes, the benchmark keeps %d", len(genesis), chainMax)
	}
	ev := &evidence{
		spec:     spec,
		recSize:  core.RecordSize(benchAlg),
		chainLen: len(genesis),
		devices:  make([]*devEvidence, spec.Devices),
	}
	perDevice := int(spec.horizon()/spec.TM) + 1
	slab := make([]byte, spec.Devices*perDevice*ev.recSize)
	for i := range ev.devices {
		ev.devices[i] = &devEvidence{addr: deviceAddr(i), tamperIdx: -1}
	}
	planFleet(spec, rand.New(rand.NewSource(seed)), ev.devices)

	var wg sync.WaitGroup
	errs := make([]error, runtime.GOMAXPROCS(0))
	for w := range errs {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < spec.Devices; i += len(errs) {
				off := i * perDevice * ev.recSize
				if err := ev.generate(i, seed, slab[off:off+perDevice*ev.recSize]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// drawDevice draws device i's provisioning from the seed: its key, its
// clean memory image and its measurement schedule (TM with a seeded
// phase).
func drawDevice(spec fleetSpec, seed int64, i int) (key, memory []byte, sched core.Regular, err error) {
	rng := rand.New(rand.NewSource(seed<<24 ^ int64(i+1)))
	key = make([]byte, 32)
	rng.Read(key)
	memory = make([]byte, spec.MemBytes)
	rng.Read(memory)
	sched, err = core.NewRegularWithPhase(spec.TM, sim.Ticks(rng.Int63n(int64(spec.TM))))
	return key, memory, sched, err
}

// generate fills one device's slab. The device measures on a regular
// schedule with a seeded phase, exactly as a core.Prover would from a
// boot at the epoch.
func (ev *evidence) generate(i int, seed int64, slab []byte) error {
	spec := ev.spec
	d := ev.devices[i]
	key, clean, sched, err := drawDevice(spec, seed, i)
	if err != nil {
		return err
	}
	d.key = key
	infected := append([]byte(nil), clean...)
	copy(infected, "implant")
	d.golden = mac.HashSum(benchAlg, clean)

	d.t0 = epoch + uint64(sched.NextInterval(epoch))
	d.n = int((epoch+uint64(spec.horizon())-d.t0)/uint64(spec.TM)) + 1
	d.slab = slab[:d.n*ev.recSize]

	for j := 0; j < d.n; j++ {
		t := d.t0 + uint64(j)*uint64(spec.TM)
		mem := clean
		if d.infectAt != 0 && t >= d.infectAt && t < d.infectAt+uint64(spec.TC()) {
			mem = infected
			if d.infectedFrom == 0 {
				d.infectedFrom = t
			}
		}
		rec := core.ComputeRecord(benchAlg, d.key, t, mem)
		copy(d.record(ev, j), rec.Encode(benchAlg))
	}
	if d.tamperAt != 0 {
		d.tamperIdx = int((d.tamperAt - d.t0) / uint64(spec.TM))
		// Malware rewrites the stored hash; the chain, kept by the trusted
		// measurement path, still commits to the original.
		hash := d.record(ev, d.tamperIdx)[8 : 8+benchAlg.HashSize()]
		d.origHash = append([]byte(nil), hash...)
		hash[0] ^= 0x01
	}
	return nil
}

// record returns the wire bytes of record j.
func (d *devEvidence) record(ev *evidence, j int) []byte {
	off := (d.n - 1 - j) * ev.recSize
	return d.slab[off : off+ev.recSize]
}

// latest returns the index of the newest record measured at or before
// now, or -1 when the device has not measured yet.
func (d *devEvidence) latest(ev *evidence, now uint64) int {
	if now < d.t0 {
		return -1
	}
	j := int((now - d.t0) / uint64(ev.spec.TM))
	if j >= d.n {
		j = d.n - 1
	}
	return j
}

// silentAt reports whether the plan has the device unreachable at now.
func (d *devEvidence) silentAt(now uint64) bool { return now >= d.silentFrom && now < d.silentTo }

// window returns the index range [lo, hi] a collection at now ships:
// the records measured at or after since, newest first, capped at k
// (k ≤ 0 or beyond the buffer means the whole buffer) — the arithmetic
// of core.Buffer.LatestSince over an honest buffer. hi < lo is empty.
func (d *devEvidence) window(ev *evidence, now, since uint64, k int) (lo, hi int) {
	hi = d.latest(ev, now)
	if slots := ev.spec.slots(); k <= 0 || k > slots {
		k = slots
	}
	lo = hi - k + 1
	if since > d.t0 {
		tm := uint64(ev.spec.TM)
		if first := int((since - d.t0 + tm - 1) / tm); first > lo {
			lo = first
		}
	}
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// landingAt returns the landing at record index j, computing its chain
// head first if no collection has landed there yet. A head is derived
// from the landing before it, so a pass that lands on ascending indexes
// pays for each record once.
func (d *devEvidence) landingAt(ev *evidence, j int) (*landing, error) {
	if next := d.cursor + 1; next < len(d.landings) && int(d.landings[next].index) == j {
		d.cursor = next
		return &d.landings[next], nil
	}
	p := sort.Search(len(d.landings), func(i int) bool { return int(d.landings[i].index) >= j })
	d.cursor = p
	if p < len(d.landings) && int(d.landings[p].index) == j {
		return &d.landings[p], nil
	}
	from, prev := []byte(nil), -1
	if p > 0 {
		prev = int(d.landings[p-1].index)
		from = d.landings[p-1].head[:ev.chainLen]
	}
	recs := make([]core.Record, 0, j-prev)
	for i := j; i > prev; i-- {
		enc := d.record(ev, i)
		rec := core.Record{
			T:    binary.BigEndian.Uint64(enc),
			Hash: enc[8 : 8+benchAlg.HashSize()],
		}
		if i == d.tamperIdx {
			rec.Hash = d.origHash
		}
		recs = append(recs, rec)
	}
	head, err := core.ChainOf(from, recs)
	if err != nil {
		return nil, err
	}
	d.landings = slices.Insert(d.landings, p, landing{index: int32(j)})
	copy(d.landings[p].head[:], head)
	return &d.landings[p], nil
}
