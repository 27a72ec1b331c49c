package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"erasmus/internal/core"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/hw/mcu"
	"erasmus/internal/sim"
)

func wm(t uint64, tag byte) core.Watermark {
	return core.Watermark{
		T:    t,
		Hash: []byte{tag, 0x01, 0x02, 0x03},
		MAC:  []byte{tag, 0xA0, 0xB0, 0xC0, 0xD0},
	}
}

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func wantWM(t *testing.T, s *Store, device string, want core.Watermark) {
	t.Helper()
	got, ok := s.LoadWatermark(device)
	if !ok {
		t.Fatalf("%s: no watermark", device)
	}
	if !got.Matches(core.Record{T: want.T, Hash: want.Hash, MAC: want.MAC}) {
		t.Fatalf("%s: watermark %+v, want %+v", device, got, want)
	}
}

// ---- basic durability ------------------------------------------------------

// The aggregate tier's chain state must survive both durability paths —
// WAL replay and snapshot — and a chain-less watermark must round-trip
// to the pre-aggregate layout (no trailing field, no phantom chain).
func TestWatermarkChainRoundTrip(t *testing.T) {
	dir := t.TempDir()
	chain := append([]byte("sha256-state:"), make([]byte, 95)...)
	withChain := wm(100, 1)
	withChain.Chain = chain

	s := mustOpen(t, dir, Options{})
	if err := s.SetWatermark("dev-chain", withChain); err != nil {
		t.Fatal(err)
	}
	if err := s.SetWatermark("dev-plain", wm(200, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// WAL replay.
	r := mustOpen(t, dir, Options{})
	got, ok := r.LoadWatermark("dev-chain")
	//erasmus:allow(ctcompare) persisted-chain round-trip assertion on test-known values; no prover-supplied operand, no timing oracle
	if !ok || string(got.Chain) != string(chain) {
		t.Fatalf("chain lost through WAL replay: %+v", got)
	}
	wantWM(t, r, "dev-chain", withChain)
	plain, ok := r.LoadWatermark("dev-plain")
	if !ok || plain.Chain != nil {
		t.Fatalf("chain-less watermark grew a chain: %+v", plain)
	}

	// Snapshot compaction.
	if err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := mustOpen(t, dir, Options{})
	defer r2.Close()
	if r2.Recovery().SnapshotSeq == 0 {
		t.Fatal("snapshot not used")
	}
	got, ok = r2.LoadWatermark("dev-chain")
	//erasmus:allow(ctcompare) persisted-chain round-trip assertion on test-known values; no prover-supplied operand, no timing oracle
	if !ok || string(got.Chain) != string(chain) {
		t.Fatalf("chain lost through snapshot: %+v", got)
	}
	plain, ok = r2.LoadWatermark("dev-plain")
	if !ok || plain.Chain != nil {
		t.Fatalf("chain-less watermark grew a chain after snapshot: %+v", plain)
	}
}

func TestRoundTripThroughWAL(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.SetWatermark("dev-a", wm(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetWatermark("dev-b", wm(200, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetWatermark("dev-a", wm(150, 3)); err != nil { // supersedes
		t.Fatal(err)
	}
	if err := s.PutStatus(DeviceState{
		Addr: "dev-a", Healthy: true, HasAnchor: true,
		RegisteredAt: 5, ScheduleAnchor: 60, LastContact: 150,
		Freshness: 9, Failures: 0, Collections: 3,
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAlert(AlertEvent{Time: 120, Device: "dev-b", Kind: "infection", Detail: "implant"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	ri := r.Recovery()
	if ri.SnapshotSeq != 0 || ri.RecordsReplayed != 5 || ri.TornTail {
		t.Fatalf("recovery %+v, want 5 WAL records and no snapshot", ri)
	}
	wantWM(t, r, "dev-a", wm(150, 3))
	wantWM(t, r, "dev-b", wm(200, 2))
	st, ok := r.State("dev-a")
	if !ok || !st.HasStatus || !st.Healthy || st.ScheduleAnchor != 60 || st.Collections != 3 {
		t.Fatalf("dev-a state %+v", st)
	}
	if !st.HasWatermark {
		t.Fatal("status update clobbered the watermark half of the entry")
	}
	alerts := r.Alerts()
	if len(alerts) != 1 || alerts[0].Device != "dev-b" || alerts[0].Kind != "infection" {
		t.Fatalf("alerts %+v", alerts)
	}
}

func TestSnapshotCompactsAndTruncates(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 50; i++ {
		if err := s.SetWatermark("dev", wm(uint64(i+1), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	// Appends after the snapshot land in a fresh segment.
	if err := s.SetWatermark("post", wm(999, 9)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	ri := r.Recovery()
	if ri.SnapshotSeq != 1 || ri.SnapshotDevices != 1 {
		t.Fatalf("recovery %+v, want snapshot 1 with 1 device", ri)
	}
	if ri.RecordsReplayed != 1 {
		t.Fatalf("replayed %d records, want only the post-snapshot append", ri.RecordsReplayed)
	}
	wantWM(t, r, "dev", wm(50, 49))
	wantWM(t, r, "post", wm(999, 9))
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 512})
	for i := 0; i < 64; i++ {
		if err := s.SetWatermark("rot", wm(uint64(i+1), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Segments < 2 {
		t.Fatalf("no rotation after 64 appends with 512-byte segments: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if ri := r.Recovery(); ri.RecordsReplayed != 64 {
		t.Fatalf("replayed %d of 64 records across rotated segments", ri.RecordsReplayed)
	}
	wantWM(t, r, "rot", wm(64, 63))
}

func TestAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SnapshotEvery: 10})
	for i := 0; i < 25; i++ {
		if err := s.SetWatermark("auto", wm(uint64(i+1), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.SnapshotBytes == 0 {
		t.Fatal("SnapshotEvery never compacted")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	ri := r.Recovery()
	if ri.SnapshotSeq == 0 {
		t.Fatalf("recovery ignored the auto-snapshot: %+v", ri)
	}
	if ri.RecordsReplayed >= 10 {
		t.Fatalf("replayed %d records; compaction should leave < 10", ri.RecordsReplayed)
	}
	wantWM(t, r, "auto", wm(25, 24))
}

// ---- recovery edge cases (ISSUE 5 satellite) ------------------------------

func TestRecoverEmptyDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh") // does not exist yet
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	ri := s.Recovery()
	if ri.SnapshotSeq != 0 || ri.SegmentsReplayed != 0 || ri.RecordsReplayed != 0 || ri.TornTail {
		t.Fatalf("empty dir recovered something: %+v", ri)
	}
	if n := len(s.Devices()); n != 0 {
		t.Fatalf("%d devices out of nothing", n)
	}
	// And it is immediately usable.
	if err := s.SetWatermark("d", wm(1, 1)); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverSnapshotWithoutWAL(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.SetWatermark("solo", wm(77, 7)); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Delete every WAL file: only the snapshot remains (e.g. the empty
	// post-snapshot segment was lost, or state was copied snapshot-only).
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range segs {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	ri := r.Recovery()
	if ri.SnapshotSeq != 1 || ri.SegmentsReplayed != 0 {
		t.Fatalf("recovery %+v, want snapshot only", ri)
	}
	wantWM(t, r, "solo", wm(77, 7))
}

func TestRecoverTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := s.SetWatermark("torn", wm(uint64(i+1), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Crash mid-append: the final record's tail never hit the disk.
	seg := filepath.Join(dir, walName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	ri := r.Recovery()
	if !ri.TornTail {
		t.Fatalf("torn tail not reported: %+v", ri)
	}
	if ri.RecordsReplayed != 4 {
		t.Fatalf("replayed %d records, want the 4 intact ones", ri.RecordsReplayed)
	}
	if len(ri.Quarantined) != 0 {
		t.Fatalf("a torn tail is crash residue, not damage; quarantined %v", ri.Quarantined)
	}
	wantWM(t, r, "torn", wm(4, 3))
	// The store keeps working: new appends go to a fresh segment, never
	// extending the torn one, and a further reopen sees everything.
	if err := r.SetWatermark("torn", wm(6, 6)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2 := mustOpen(t, dir, Options{})
	defer r2.Close()
	wantWM(t, r2, "torn", wm(6, 6))
}

func TestRecoverChecksumMismatchQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SegmentBytes: 256})
	for i := 0; i < 40; i++ {
		if err := s.SetWatermark("q", wm(uint64(i+1), byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Bit-rot one byte in the middle of the FIRST segment — not its tail,
	// so this is damage, not crash residue.
	seg := filepath.Join(dir, walName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	ri := r.Recovery()
	if len(ri.Quarantined) != 1 || ri.Quarantined[0] != walName(1) {
		t.Fatalf("damaged segment not quarantined: %+v", ri)
	}
	if _, err := os.Stat(seg + ".quarantined"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if ri.TornTail {
		t.Fatalf("mid-segment corruption misread as a torn tail: %+v", ri)
	}
	// Records before the rot and every later segment still applied: the
	// newest watermark survives because per-device state is last-writer-
	// wins and the damage was in an older segment.
	wantWM(t, r, "q", wm(40, 39))
}

func TestRecoverCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.SetWatermark("gen1", wm(10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetWatermark("gen2", wm(20, 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Rot the newest snapshot; the previous generation is the fallback
	// (its WAL suffix is gone, so gen2 is lost — compaction's price).
	snap2 := filepath.Join(dir, snapName(2))
	data, err := os.ReadFile(snap2)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x80
	if err := os.WriteFile(snap2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	ri := r.Recovery()
	if ri.SnapshotSeq != 1 {
		t.Fatalf("did not fall back to snapshot 1: %+v", ri)
	}
	if len(ri.Quarantined) != 1 || !strings.HasPrefix(ri.Quarantined[0], "snap-") {
		t.Fatalf("rotten snapshot not quarantined: %+v", ri)
	}
	wantWM(t, r, "gen1", wm(10, 1))
}

// A device whose watermark was cleared in the WAL after the snapshot that
// still contains it must come back without a watermark — and the reverse:
// a device absent from the snapshot but set in the WAL must come back
// with one. Last-writer-wins across the snapshot/WAL boundary.
func TestRecoverEvictionAcrossSnapshotBoundary(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.SetWatermark("cleared-later", wm(10, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.PutStatus(DeviceState{Addr: "cleared-later", Healthy: true}); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil { // snapshot holds cleared-later's watermark
		t.Fatal(err)
	}
	if err := s.SetWatermark("cleared-later", core.Watermark{}); err != nil { // WAL clears it
		t.Fatal(err)
	}
	if err := s.SetWatermark("wal-only", wm(30, 3)); err != nil { // WAL introduces a new device
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r := mustOpen(t, dir, Options{})
	defer r.Close()
	if _, ok := r.LoadWatermark("cleared-later"); ok {
		t.Error("watermark cleared in the WAL resurrected from the snapshot")
	}
	if st, ok := r.State("cleared-later"); !ok || !st.HasStatus {
		t.Error("clearing the watermark must not drop the device's status half")
	}
	wantWM(t, r, "wal-only", wm(30, 3))
}

// A watermark clear for a device with no status deletes the whole entry:
// tombstones would defeat the memory bound the service evicts to keep.
func TestClearWithoutStatusDeletesEntry(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	defer s.Close()
	if err := s.SetWatermark("ghost", wm(5, 5)); err != nil {
		t.Fatal(err)
	}
	if err := s.SetWatermark("ghost", core.Watermark{}); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.State("ghost"); ok {
		t.Error("cleared watermark left a tombstone entry")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.SetWatermark("late", wm(1, 1)); err == nil {
		t.Fatal("append after Close succeeded")
	}
	if s.Err() == nil {
		t.Fatal("post-Close append did not stick as the store error")
	}
}

// Snapshot on a closed store must return the sticky error, not follow a
// nil segment writer into a panic.
func TestSnapshotAfterCloseFails(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	if err := s.SetWatermark("d", wm(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err == nil {
		t.Fatal("Snapshot after Close succeeded")
	}
	if s.Err() == nil {
		t.Fatal("post-Close snapshot did not stick as the store error")
	}
}

// A crash between segment creation and the first sync leaves a 0-byte (or
// short-header) newest segment: that is crash residue — recovery must
// drop it as a torn tail, not quarantine it as damage.
func TestRecoverEmptyFreshSegment(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	if err := s.SetWatermark("d", wm(9, 9)); err != nil {
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil { // seals wal-1, opens wal-2
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the crash: the post-snapshot segment's header never made
	// it to disk.
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("want exactly the post-snapshot segment, got %v (%v)", segs, err)
	}
	if err := os.Truncate(segs[0], 0); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	ri := r.Recovery()
	if len(ri.Quarantined) != 0 {
		t.Fatalf("empty fresh segment quarantined as damage: %+v", ri)
	}
	wantWM(t, r, "d", wm(9, 9))
	// And the store appends into a fresh segment, never the short one.
	if err := r.SetWatermark("d", wm(10, 10)); err != nil {
		t.Fatal(err)
	}
}

// MaxAlerts bounds retained alert history in memory, in snapshots, and
// across recovery.
func TestMaxAlertsBoundsRetention(t *testing.T) {
	dir := t.TempDir()
	opts := Options{MaxAlerts: 3}
	s := mustOpen(t, dir, opts)
	for i := 0; i < 8; i++ {
		if err := s.AppendAlert(AlertEvent{Time: int64(i), Device: "d", Kind: "infection"}); err != nil {
			t.Fatal(err)
		}
	}
	alerts := s.Alerts()
	if len(alerts) != 3 || alerts[0].Time != 5 || alerts[2].Time != 7 {
		t.Fatalf("retained %+v, want the newest 3 (times 5..7)", alerts)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r := mustOpen(t, dir, opts)
	defer r.Close()
	if got := r.Alerts(); len(got) != 3 || got[0].Time != 5 {
		t.Fatalf("recovered %+v, want the newest 3", got)
	}
	// Trimming never renumbers: the retained tail keeps seqs 6..8 through
	// snapshot + recovery, and the head counts the trimmed history too.
	if got := r.Alerts(); got[0].Seq != 6 || got[2].Seq != 8 {
		t.Fatalf("recovered seqs %+v, want 6..8", got)
	}
	if head := r.AlertHead(); head != 8 {
		t.Fatalf("AlertHead = %d, want 8", head)
	}
	// A cursor that predates the retained window reports an explicit gap.
	tail, gap := r.AlertsSince(2)
	if !gap || len(tail) != 3 || tail[0].Seq != 6 {
		t.Fatalf("AlertsSince(2) = %+v gap=%v, want gap + seqs 6..8", tail, gap)
	}
}

// ---- streaming cursor semantics (ISSUE 10) --------------------------------

// Sequence numbers are assigned in append order starting at 1, survive WAL
// replay positionally, and AlertsSince implements the resume contract: no
// gap inside the retained window, explicit gap beyond it, empty result at
// or past the head.
func TestAlertSeqAndAlertsSince(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	for i := 0; i < 5; i++ {
		if err := s.AppendAlert(AlertEvent{Time: int64(100 + i), Device: "d", Kind: "tamper"}); err != nil {
			t.Fatal(err)
		}
	}
	alerts := s.Alerts()
	for i, ev := range alerts {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("alert %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}

	tail, gap := s.AlertsSince(0)
	if gap || len(tail) != 5 || tail[0].Seq != 1 {
		t.Fatalf("AlertsSince(0) = %+v gap=%v, want all 5 without gap", tail, gap)
	}
	tail, gap = s.AlertsSince(3)
	if gap || len(tail) != 2 || tail[0].Seq != 4 || tail[1].Seq != 5 {
		t.Fatalf("AlertsSince(3) = %+v gap=%v, want seqs 4,5 without gap", tail, gap)
	}
	// At the head and beyond it: nothing new, and no gap — the caller has
	// simply seen everything (a stale over-large cursor is their bug, not
	// a trimming event).
	if tail, gap = s.AlertsSince(5); gap || len(tail) != 0 {
		t.Fatalf("AlertsSince(head) = %+v gap=%v, want empty", tail, gap)
	}
	if tail, gap = s.AlertsSince(99); gap || len(tail) != 0 {
		t.Fatalf("AlertsSince(beyond head) = %+v gap=%v, want empty", tail, gap)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Pure WAL replay re-derives identical numbering, and appending after
	// recovery continues the sequence rather than restarting it.
	r := mustOpen(t, dir, Options{})
	defer r.Close()
	got := r.Alerts()
	if len(got) != 5 || got[0].Seq != 1 || got[4].Seq != 5 {
		t.Fatalf("recovered seqs %+v, want 1..5", got)
	}
	if err := r.AppendAlert(AlertEvent{Time: 200, Device: "d", Kind: "tamper"}); err != nil {
		t.Fatal(err)
	}
	if head := r.AlertHead(); head != 6 {
		t.Fatalf("post-recovery append got head %d, want 6", head)
	}
	// Caller-set Seq on AppendAlert is ignored, not trusted.
	if err := r.AppendAlert(AlertEvent{Seq: 999, Time: 201, Device: "d", Kind: "tamper"}); err != nil {
		t.Fatal(err)
	}
	if got := r.Alerts(); got[len(got)-1].Seq != 7 {
		t.Fatalf("caller-set seq leaked through: %+v", got[len(got)-1])
	}
}

// A store-backed attestation service against a real prover: the watermark
// survives a "process restart" (a second store opened over the same
// directory), and the successor resumes incremental verification with no
// stateless fallback round.
func TestServiceResumesDeltaAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	e := sim.NewEngine()
	alg := mac.KeyedBLAKE2s
	key := []byte("store-service-restart-key")
	dev, err := mcu.New(mcu.Config{
		Engine: e, MemorySize: 2048, StoreSize: 8 * core.RecordSize(alg), Key: key,
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewRegular(sim.Hour)
	if err != nil {
		t.Fatal(err)
	}
	prv, err := core.NewProver(dev, core.ProverConfig{Alg: alg, Schedule: sched, Slots: 8})
	if err != nil {
		t.Fatal(err)
	}
	vrf, err := core.NewVerifier(core.VerifierConfig{
		Alg: alg, Key: key, GoldenHashes: [][]byte{mac.HashSum(alg, dev.Memory())},
	})
	if err != nil {
		t.Fatal(err)
	}

	st := mustOpen(t, dir, Options{})
	svc := core.NewAttestationService(core.ServiceConfig{Sink: st, Source: st})
	prv.Start()
	e.RunUntil(4 * sim.Hour)
	recs, _ := prv.HandleCollect(4)
	if rep := svc.Verify("dev-1", vrf, recs, dev.RROC(), 4); !rep.Healthy() {
		t.Fatalf("first round unhealthy: %+v", rep)
	}
	if err := st.Close(); err != nil { // the verifier process dies
		t.Fatal(err)
	}

	st2 := mustOpen(t, dir, Options{})
	defer st2.Close()
	if ri := st2.Recovery(); ri.RecordsReplayed == 0 {
		t.Fatalf("nothing recovered: %+v", ri)
	}
	svc2 := core.NewAttestationService(core.ServiceConfig{Sink: st2, Source: st2})
	mark, ok := svc2.Watermark("dev-1") // re-hydrated from the store
	if !ok || mark.IsZero() {
		t.Fatal("watermark did not survive the restart")
	}
	e.RunUntil(7 * sim.Hour)
	prv.Stop()
	deltaRecs, _ := prv.HandleCollectDelta(mark.T, 0)
	rep := svc2.Verify("dev-1", vrf, deltaRecs, dev.RROC(), 4)
	if !rep.Healthy() || !rep.DeltaApplied {
		t.Fatalf("restarted verifier fell back to stateless verification: %+v", rep)
	}
}
