package hmc

import (
	"math/rand"
	"strings"
	"testing"
)

func testDevice(t *testing.T) *Device {
	t.Helper()
	d, err := NewDevice(KindHMC, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.CapacityBytes = 0 },
		func(c *Config) { c.Vaults = 0 },
		func(c *Config) { c.BanksPerVault = -1 },
		func(c *Config) { c.Links = 0 },
		func(c *Config) { c.BlockBytes = 100 },
		func(c *Config) { c.BlockBytes = 0 },
		func(c *Config) { c.RowBytes = 128 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := NewDevice(KindHMC, cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestSubmitRejectsMalformedRequests(t *testing.T) {
	d := testDevice(t)
	cases := []struct {
		name string
		req  Request
	}{
		{"too small", Request{Addr: 0, PacketBytes: 8}},
		{"too big", Request{Addr: 0, PacketBytes: 512}},
		{"unaligned", Request{Addr: 0, PacketBytes: 40}},
		{"crosses block", Request{Addr: 192, PacketBytes: 128}},
		{"requested exceeds packet", Request{Addr: 0, PacketBytes: 16, RequestedBytes: 64}},
	}
	for _, c := range cases {
		if _, err := d.Submit(0, c.req); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestSubmitBasicLatency(t *testing.T) {
	d := testDevice(t)
	c := d.Config()
	done, err := d.Submit(100, Request{Addr: 0, PacketBytes: 64, RequestedBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// request FLIT serialization + serdes + ACT + COL + burst + response
	// serialization + serdes.
	want := 100 + 1*c.TFlit + c.TSerDes +
		c.TActivate + c.TColumn + 4*c.TBurstPerFlit +
		5*c.TFlit + c.TSerDes
	if done != want {
		t.Errorf("done = %d, want %d", done, want)
	}
	s := d.Stats()
	if s.Requests != 1 || s.Reads != 1 || s.Writes != 0 {
		t.Errorf("stats counts = %+v", s)
	}
	if s.TransferredBytes != 96 { // 64 payload + 32 control
		t.Errorf("TransferredBytes = %d, want 96", s.TransferredBytes)
	}
	if s.RowActivations != 1 {
		t.Errorf("RowActivations = %d, want 1", s.RowActivations)
	}
}

func TestCoalescedBeatsScatteredOnOneBank(t *testing.T) {
	// The §2.2.1 motivating example: sixteen 16 B loads to one 256 B block
	// versus one coalesced 256 B load. The same bank is hit 16 times, so
	// the row is opened/closed 16 times and the scattered version must be
	// dramatically slower and move more bytes.
	scattered := testDevice(t)
	var lastScattered uint64
	for i := uint64(0); i < 16; i++ {
		done, err := scattered.Submit(0, Request{Addr: i * 16, PacketBytes: 16, RequestedBytes: 16})
		if err != nil {
			t.Fatal(err)
		}
		if done > lastScattered {
			lastScattered = done
		}
	}
	coalesced := testDevice(t)
	lastCoalesced, err := coalesced.Submit(0, Request{Addr: 0, PacketBytes: 256, RequestedBytes: 256})
	if err != nil {
		t.Fatal(err)
	}

	ss, cs := scattered.Stats(), coalesced.Stats()
	if ss.RowActivations != 16 || cs.RowActivations != 1 {
		t.Errorf("row activations scattered=%d coalesced=%d, want 16/1", ss.RowActivations, cs.RowActivations)
	}
	if ss.BankConflicts == 0 {
		t.Error("scattered run recorded no bank conflicts")
	}
	if ss.TransferredBytes != 768 || cs.TransferredBytes != 288 {
		t.Errorf("transferred scattered=%d coalesced=%d, want 768/288", ss.TransferredBytes, cs.TransferredBytes)
	}
	if lastCoalesced*2 > lastScattered {
		t.Errorf("coalesced latency %d not ≪ scattered %d", lastCoalesced, lastScattered)
	}
}

func TestVaultParallelism(t *testing.T) {
	// Requests to different vaults must overlap: total completion time for
	// k parallel requests should be far below k × single-request latency.
	d := testDevice(t)
	single, err := d.Submit(0, Request{Addr: 0, PacketBytes: 64, RequestedBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	d.Reset(d.Kind(), d.Config())
	c := d.Config()
	var last uint64
	const k = 16
	for i := uint64(0); i < k; i++ {
		// Stride by one block so each request lands in a different vault.
		done, err := d.Submit(0, Request{Addr: i * uint64(c.BlockBytes), PacketBytes: 64, RequestedBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		if done > last {
			last = done
		}
	}
	if got := d.Stats().BankConflicts; got != 0 {
		t.Errorf("cross-vault run has %d bank conflicts, want 0", got)
	}
	if last > single*3 {
		t.Errorf("parallel completion %d vs single %d: no overlap", last, single)
	}
}

func TestSameBankConflictsSerialize(t *testing.T) {
	d := testDevice(t)
	c := d.Config()
	// Same vault and same bank: stride by Vaults×Banks blocks.
	stride := uint64(c.BlockBytes) * uint64(c.Vaults) * uint64(c.BanksPerVault)
	var prev uint64
	for i := uint64(0); i < 4; i++ {
		done, err := d.Submit(0, Request{Addr: i * stride, PacketBytes: 64, RequestedBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		if done <= prev {
			t.Errorf("request %d completed at %d, not after previous %d", i, done, prev)
		}
		prev = done
	}
	if got := d.Stats().BankConflicts; got != 3 {
		t.Errorf("BankConflicts = %d, want 3", got)
	}
}

func TestWriteAccounting(t *testing.T) {
	d := testDevice(t)
	if _, err := d.Submit(0, Request{Addr: 0, PacketBytes: 128, RequestedBytes: 100, Write: true}); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.Writes != 1 || s.Reads != 0 {
		t.Errorf("writes/reads = %d/%d", s.Writes, s.Reads)
	}
	if s.TransferredBytes != 160 { // 128 payload + 32 control
		t.Errorf("TransferredBytes = %d, want 160", s.TransferredBytes)
	}
	if s.ControlBytes() != 32 {
		t.Errorf("ControlBytes = %d, want 32", s.ControlBytes())
	}
	eff := s.BandwidthEfficiency()
	if want := 100.0 / 160.0; eff != want {
		t.Errorf("BandwidthEfficiency = %v, want %v", eff, want)
	}
}

func TestSizeHistogram(t *testing.T) {
	d := testDevice(t)
	sizes := []uint32{16, 16, 64, 128, 256, 256, 256}
	for i, sz := range sizes {
		if _, err := d.Submit(uint64(i), Request{Addr: uint64(i) * 256, PacketBytes: sz, RequestedBytes: sz}); err != nil {
			t.Fatal(err)
		}
	}
	h := d.Stats().SizeHist
	if h[16] != 2 || h[64] != 1 || h[128] != 1 || h[256] != 3 {
		t.Errorf("histogram = %v", h)
	}
}

func TestSizeHistSorted(t *testing.T) {
	d := testDevice(t)
	sizes := []uint32{256, 16, 128, 256, 16, 64, 16}
	for i, sz := range sizes {
		if _, err := d.Submit(uint64(i), Request{Addr: uint64(i) * 256, PacketBytes: sz, RequestedBytes: sz}); err != nil {
			t.Fatal(err)
		}
	}
	got := d.Stats().SizeHistSorted()
	want := []SizeCount{{16, 3}, {64, 1}, {128, 1}, {256, 2}}
	if len(got) != len(want) {
		t.Fatalf("SizeHistSorted = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("SizeHistSorted[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestResetClearsState(t *testing.T) {
	d := testDevice(t)
	if _, err := d.Submit(0, Request{Addr: 0, PacketBytes: 64, RequestedBytes: 64}); err != nil {
		t.Fatal(err)
	}
	d.Reset(d.Kind(), d.Config())
	s := d.Stats()
	if s.Requests != 0 || s.TransferredBytes != 0 || len(s.SizeHist) != 0 {
		t.Errorf("stats not cleared: %+v", s)
	}
	// After reset the device must behave as new: identical latency.
	d2 := testDevice(t)
	a, _ := d.Submit(0, Request{Addr: 0, PacketBytes: 64, RequestedBytes: 64})
	b, _ := d2.Submit(0, Request{Addr: 0, PacketBytes: 64, RequestedBytes: 64})
	if a != b {
		t.Errorf("post-reset latency %d != fresh %d", a, b)
	}
}

func TestAddressWrapsCapacity(t *testing.T) {
	d := testDevice(t)
	huge := d.Config().CapacityBytes*3 + 512
	if _, err := d.Submit(0, Request{Addr: huge, PacketBytes: 64, RequestedBytes: 64}); err != nil {
		t.Errorf("address beyond capacity rejected: %v", err)
	}
}

func TestStatsCopyIsolated(t *testing.T) {
	d := testDevice(t)
	if _, err := d.Submit(0, Request{Addr: 0, PacketBytes: 64, RequestedBytes: 64}); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	s.SizeHist[64] = 999
	if d.Stats().SizeHist[64] != 1 {
		t.Error("Stats() histogram aliases device state")
	}
}

func TestBlockBoundaryErrorMessage(t *testing.T) {
	d := testDevice(t)
	_, err := d.Submit(0, Request{Addr: 192, PacketBytes: 128})
	if err == nil || !strings.Contains(err.Error(), "block boundary") {
		t.Errorf("err = %v, want block boundary error", err)
	}
}

func TestRandomTrafficInvariants(t *testing.T) {
	d := testDevice(t)
	rng := rand.New(rand.NewSource(5))
	var tick uint64
	for i := 0; i < 2000; i++ {
		sz := uint32(16 * (1 + rng.Intn(16)))
		block := rng.Uint64() % (1 << 22)
		off := uint64(0)
		if sz < 256 {
			off = uint64(rng.Intn(int(256-sz)/16)) * 16
		}
		req := Request{
			Addr:           block*256 + off,
			PacketBytes:    sz,
			RequestedBytes: sz - uint32(rng.Intn(int(sz))),
			Write:          rng.Intn(2) == 0,
		}
		done, err := d.Submit(tick, req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if done <= tick {
			t.Fatalf("request %d: done %d not after submit %d", i, done, tick)
		}
		tick += uint64(rng.Intn(20))
	}
	s := d.Stats()
	if s.Requests != 2000 {
		t.Fatalf("Requests = %d", s.Requests)
	}
	if s.RequestedBytes > s.PacketBytes {
		t.Fatal("requested exceeds packet bytes")
	}
	if s.TransferredBytes != s.PacketBytes+s.Requests*ControlBytes {
		t.Fatalf("transferred %d != payload %d + control %d",
			s.TransferredBytes, s.PacketBytes, s.Requests*ControlBytes)
	}
	if eff := s.BandwidthEfficiency(); eff <= 0 || eff >= 1 {
		t.Fatalf("BandwidthEfficiency = %v out of (0,1)", eff)
	}
}

func TestOpenPageRowHits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OpenPage = true
	d, err := NewDevice(KindHMC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Four 64 B requests within one 256 B block: first opens the row, the
	// rest are row hits.
	var last uint64
	for i := uint64(0); i < 4; i++ {
		done, err := d.Submit(0, Request{Addr: i * 64, PacketBytes: 64, RequestedBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		last = done
	}
	s := d.Stats()
	if s.RowActivations != 1 || s.RowHits != 3 {
		t.Fatalf("activations/hits = %d/%d, want 1/3", s.RowActivations, s.RowHits)
	}
	// The same traffic under closed page reopens the row every time and
	// finishes later.
	closed := testDevice(t)
	var lastClosed uint64
	for i := uint64(0); i < 4; i++ {
		done, err := closed.Submit(0, Request{Addr: i * 64, PacketBytes: 64, RequestedBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		lastClosed = done
	}
	if closed.Stats().RowActivations != 4 {
		t.Fatalf("closed-page activations = %d, want 4", closed.Stats().RowActivations)
	}
	if last >= lastClosed {
		t.Errorf("open page (%d) not faster than closed page (%d)", last, lastClosed)
	}
}

func TestOpenPageRowConflict(t *testing.T) {
	cfg := DefaultConfig()
	cfg.OpenPage = true
	d, err := NewDevice(KindHMC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Two requests to the same bank but different rows: second pays
	// precharge + activate.
	rowStride := uint64(cfg.RowBytes) * uint64(cfg.Vaults) * uint64(cfg.BanksPerVault)
	if _, err := d.Submit(0, Request{Addr: 0, PacketBytes: 64, RequestedBytes: 64}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(1<<20, Request{Addr: rowStride, PacketBytes: 64, RequestedBytes: 64}); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.RowActivations != 2 || s.RowHits != 0 {
		t.Fatalf("activations/hits = %d/%d, want 2/0", s.RowActivations, s.RowHits)
	}
}

func TestClosedPageNeverCountsRowHits(t *testing.T) {
	d := testDevice(t)
	for i := uint64(0); i < 4; i++ {
		if _, err := d.Submit(0, Request{Addr: i * 64, PacketBytes: 64, RequestedBytes: 64}); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Stats().RowHits; got != 0 {
		t.Fatalf("closed page RowHits = %d", got)
	}
}

func TestVaultAccountingAndImbalance(t *testing.T) {
	d := testDevice(t)
	// All traffic to one vault.
	stride := uint64(d.Config().BlockBytes) * uint64(d.Config().Vaults)
	for i := uint64(0); i < 8; i++ {
		if _, err := d.Submit(0, Request{Addr: i * stride, PacketBytes: 64, RequestedBytes: 64}); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.VaultRequests[0] != 8 {
		t.Errorf("vault 0 requests = %d, want 8", s.VaultRequests[0])
	}
	if got := s.VaultImbalance(); got != float64(d.Config().Vaults) {
		t.Errorf("VaultImbalance = %v, want %d (all in one vault)", got, d.Config().Vaults)
	}
	// Spread traffic: one request per vault.
	d.Reset(d.Kind(), d.Config())
	for i := uint64(0); i < uint64(d.Config().Vaults); i++ {
		if _, err := d.Submit(0, Request{Addr: i * uint64(d.Config().BlockBytes), PacketBytes: 64, RequestedBytes: 64}); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Stats().VaultImbalance(); got != 1 {
		t.Errorf("even spread VaultImbalance = %v, want 1", got)
	}
}

func TestLinkTokenFlowControl(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LinkTokens = 1 // one outstanding transaction per link
	d, err := NewDevice(KindHMC, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 8 simultaneous requests over 4 links with 1 token each: the second
	// wave must wait for tokens, so completion times split into two groups
	// and TokenWait is charged.
	var dones []uint64
	for i := uint64(0); i < 8; i++ {
		done, err := d.Submit(0, Request{Addr: i * 256, PacketBytes: 64, RequestedBytes: 64})
		if err != nil {
			t.Fatal(err)
		}
		dones = append(dones, done)
	}
	s := d.Stats()
	if s.TokenWait == 0 {
		t.Fatal("no token wait recorded despite 2× oversubscription")
	}
	if dones[7] <= dones[3] {
		t.Errorf("second wave (%d) not after first (%d)", dones[7], dones[3])
	}
	// Unlimited tokens: same traffic, no token wait.
	free := testDevice(t)
	for i := uint64(0); i < 8; i++ {
		if _, err := free.Submit(0, Request{Addr: i * 256, PacketBytes: 64, RequestedBytes: 64}); err != nil {
			t.Fatal(err)
		}
	}
	if free.Stats().TokenWait != 0 {
		t.Error("token wait recorded with flow control disabled")
	}
}
