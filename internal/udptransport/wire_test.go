package udptransport

import (
	"crypto/sha256"
	"encoding/hex"
	"net"
	"testing"
	"time"

	"erasmus/internal/core"
	"erasmus/internal/hw/imx6"
	"erasmus/internal/sim"
)

// frozenServer hosts one prover whose history is fixed: two measurements
// taken in virtual time, then a server whose clock never advances (its
// wall epoch lies in the future), so every answer is the same bytes on
// every run. The prover is hosted under "dev-07" and as the default
// device. There is no socket: datagrams go through handle.
func frozenServer(t testing.TB) *Server {
	t.Helper()
	e := sim.NewEngine()
	dev, err := imx6.New(imx6.Config{
		Engine: e, MemorySize: 64, StoreSize: 4 * core.RecordSize(alg), Key: []byte("golden-bytes-key"),
	})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewRegular(sim.Second)
	if err != nil {
		t.Fatal(err)
	}
	p, err := core.NewProver(dev, core.ProverConfig{Alg: alg, Schedule: sched, Slots: 4})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	e.RunUntil(2500 * sim.Millisecond)
	p.Stop()
	return &Server{
		alg: alg, engine: e, simStart: e.Now(), wallStart: time.Now().Add(24 * time.Hour),
		provers: map[string]*core.Prover{defaultProverID: p, "dev-07": p},
	}
}

// Datagram bytes are a compatibility surface: the encode-in-place codecs
// and the reply-buffer path must put on the wire exactly what the
// allocate-and-copy ones did. The golden values below were produced by
// the previous implementation on the same frozen prover; requests are
// pinned in full, replies by length and SHA-256.
func TestGoldenWireBytes(t *testing.T) {
	srv := frozenServer(t)
	lis, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	// The listener stands in for the server's socket: it records each
	// request, answers it through handle, and records the reply.
	type hop struct{ req, resp []byte }
	hops := make(chan hop, 1)
	go func() {
		buf := make([]byte, maxDatagram)
		for {
			n, peer, err := lis.ReadFromUDPAddrPort(buf)
			if err != nil {
				return
			}
			h := hop{req: append([]byte(nil), buf[:n]...)}
			h.resp = append([]byte(nil), srv.handle(h.req, nil)...)
			lis.WriteToUDPAddrPort(h.resp, peer)
			hops <- h
		}
	}()

	c, err := Dial(lis.LocalAddr().String(), alg, key)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fc, err := DialFleet(lis.LocalAddr().String(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer fc.Close()
	fc.mux.xid.Store(0xDEADBEEE) // the exchanges below are 0xDEADBEEF, 0xDEADBEF0, …

	// The anchor of the delta and aggregate requests is the older of the
	// two records.
	full, err := c.Collect(2)
	if err != nil || len(full) != 2 {
		t.Fatalf("frozen prover served %d records, %v", len(full), err)
	}
	<-hops
	since, anchor := full[1].T, full[1].Hash
	const nonce = 0x1122334455667788
	const anchorHex = "ae09db7cd54f42b490ef09b6bc541af688e4959bb8c53f359a6f56e38ab454a3"

	cases := []struct {
		name          string
		run           func() error
		req, respHash string
		respLen       int
	}{
		{"full", func() error { _, err := c.Collect(2); return err },
			"0100000002",
			"001ba6d0c613e4c240a9824cb69ec8c81c72cba2dd62f30f0163f71b1433e2d5", 147},
		{"delta", func() error { _, err := c.CollectDelta(since, 0); return err },
			"0714b642b58a7f240000000000",
			"001ba6d0c613e4c240a9824cb69ec8c81c72cba2dd62f30f0163f71b1433e2d5", 147},
		{"aggregate", func() error { _, _, _, err := c.CollectDeltaAggregate(since, nonce, anchor, 0); return err },
			"0914b642b58a7f24001122334455667788000000000020" + anchorHex,
			"3784a23d3147b241bf1e7176c110959d3e1520e478bc4d060f91722ee87a9379", 291},
		{"fleet full", func() error { _, err := fc.Collect("dev-07", alg, 2); return err },
			"05deadbeef066465762d303700000002",
			"6bff3b8e7f2a09daba5a59ca55a9beb0a9a3448dcef1b827026b8f373017f96d", 158},
		{"fleet delta", func() error { _, err := fc.CollectDelta("dev-07", alg, since, 0); return err },
			"08deadbef0066465762d303714b642b58a7f240000000000",
			"43bdba5a108e03209ff04a5d7706297f0b6b331ea61c7e84034f343da5f7f0fe", 158},
		{"fleet aggregate", func() error {
			_, _, _, err := fc.CollectDeltaAggregate("dev-07", alg, since, nonce, anchor, 0)
			return err
		},
			"0bdeadbef1066465762d303714b642b58a7f24001122334455667788000000000020" + anchorHex,
			"837e611d5465af1c8a373d8b04ef1cc73e348fc380f17f55e078e885bb734c2a", 302},
	}
	for _, tc := range cases {
		if err := tc.run(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		h := <-hops
		sum := sha256.Sum256(h.resp)
		gotReq, gotHash := hex.EncodeToString(h.req), hex.EncodeToString(sum[:])
		if gotReq != tc.req {
			t.Errorf("%s: request bytes\n got %s\nwant %s", tc.name, gotReq, tc.req)
		}
		if len(h.resp) != tc.respLen || gotHash != tc.respHash {
			t.Errorf("%s: reply is %d bytes, sha256 %s; want %d bytes, sha256 %s",
				tc.name, len(h.resp), gotHash, tc.respLen, tc.respHash)
		}
	}
}
