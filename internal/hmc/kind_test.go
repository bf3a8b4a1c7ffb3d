package hmc

import (
	"reflect"
	"strings"
	"testing"

	"hmccoal/internal/fault"
)

func TestParseKind(t *testing.T) {
	cases := []struct {
		in   string
		want Kind
		err  bool
	}{
		{"", KindHMC, false},
		{"hmc", KindHMC, false},
		{"ddr", KindDDR, false},
		{"ideal", KindIdeal, false},
		{"HMC", 0, true},
		{"dram", 0, true},
	}
	for _, c := range cases {
		got, err := ParseKind(c.in)
		if (err != nil) != c.err {
			t.Errorf("ParseKind(%q): err = %v, want err = %v", c.in, err, c.err)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseKind(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if err := Kind(99).Validate(); err == nil {
		t.Errorf("Kind(99).Validate() accepted an unknown kind")
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, name := range Kinds() {
		k, err := ParseKind(name)
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", name, err)
		}
		if k.String() != name {
			t.Errorf("ParseKind(%q).String() = %q", name, k.String())
		}
		if err := k.Validate(); err != nil {
			t.Errorf("%v.Validate(): %v", k, err)
		}
	}
}

func TestFactoryKinds(t *testing.T) {
	for _, k := range []Kind{KindHMC, KindDDR, KindIdeal} {
		b, err := NewDevice(k, DefaultConfig())
		if err != nil {
			t.Fatalf("NewDevice(%v): %v", k, err)
		}
		if b.Kind() != k {
			t.Errorf("NewDevice(%v).Kind() = %v", k, b.Kind())
		}
	}
	if _, err := NewDevice(Kind(42), DefaultConfig()); err == nil {
		t.Errorf("NewDevice(42) accepted an unknown kind")
	}
}

func TestFaultConfigHMCOnly(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Fault = fault.Config{Seed: 1, BER: 1e-6}
	if _, err := NewDevice(KindHMC, cfg); err != nil {
		t.Fatalf("hmc backend rejected fault config: %v", err)
	}
	for _, k := range []Kind{KindDDR, KindIdeal} {
		_, err := NewDevice(k, cfg)
		if err == nil {
			t.Fatalf("NewDevice(%v) accepted a fault config", k)
		}
		if !strings.Contains(err.Error(), "HMC-only") {
			t.Errorf("NewDevice(%v) error %q does not mention HMC-only", k, err)
		}
	}
}

// submitPattern drives a deterministic mixed read/write stream and returns
// the completion ticks.
func submitPattern(t *testing.T, b *Device, n int) []uint64 {
	t.Helper()
	done := make([]uint64, 0, n)
	tick := uint64(0)
	for i := 0; i < n; i++ {
		req := Request{
			Addr:           uint64(i) * 256 * 7,
			PacketBytes:    uint32(16 << (i % 5)), // 16..256
			Write:          i%3 == 0,
			RequestedBytes: uint32(16 << (i % 5) / 2),
		}
		comp, err := b.SubmitPacket(tick, req)
		if err != nil {
			t.Fatalf("SubmitPacket %d: %v", i, err)
		}
		done = append(done, comp.Done)
		tick += 3
	}
	return done
}

func TestBackendsDeterministic(t *testing.T) {
	for _, k := range []Kind{KindHMC, KindDDR, KindIdeal} {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			a, err := NewDevice(k, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewDevice(k, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			da := submitPattern(t, a, 200)
			db := submitPattern(t, b, 200)
			if !reflect.DeepEqual(da, db) {
				t.Fatalf("%v backend is not deterministic", k)
			}
			sa, sb := a.Stats(), b.Stats()
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("%v stats differ between identical runs:\n%+v\n%+v", k, sa, sb)
			}
			if sa.Requests != 200 {
				t.Errorf("%v: Requests = %d, want 200", k, sa.Requests)
			}
			if sa.TransferredBytes == 0 || sa.RequestedBytes == 0 {
				t.Errorf("%v: zero byte accounting: %+v", k, sa)
			}
		})
	}
}

func TestBackendValidation(t *testing.T) {
	for _, k := range []Kind{KindHMC, KindDDR, KindIdeal} {
		b, err := NewDevice(k, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		bad := []Request{
			{Addr: 0, PacketBytes: 8},                       // below minimum
			{Addr: 0, PacketBytes: 512},                     // above block
			{Addr: 0, PacketBytes: 48 + 8},                  // not FLIT aligned
			{Addr: 192, PacketBytes: 128},                   // crosses block
			{Addr: 0, PacketBytes: 64, RequestedBytes: 100}, // requested > packet
		}
		for i, req := range bad {
			if _, err := b.SubmitPacket(0, req); err == nil {
				t.Errorf("%v: bad request %d (%+v) accepted", k, i, req)
			}
		}
	}
}

func TestIdealLatencyIsLoadIndependent(t *testing.T) {
	b, err := NewDevice(KindIdeal, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Addr: 0, PacketBytes: 64, RequestedBytes: 64}
	first, err := b.SubmitPacket(100, req)
	if err != nil {
		t.Fatal(err)
	}
	lat := first.Done - 100
	// Same-tick resubmissions to the same address must see zero contention.
	for i := 0; i < 50; i++ {
		comp, err := b.SubmitPacket(100, req)
		if err != nil {
			t.Fatal(err)
		}
		if comp.Done-100 != lat {
			t.Fatalf("ideal backend latency changed under load: %d vs %d", comp.Done-100, lat)
		}
	}
}

func TestDDRSlowerThanIdeal(t *testing.T) {
	ddr, err := NewDevice(KindDDR, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := NewDevice(KindIdeal, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dd := submitPattern(t, ddr, 500)
	di := submitPattern(t, ideal, 500)
	if dd[len(dd)-1] <= di[len(di)-1] {
		t.Errorf("ddr backend (%d) not slower than ideal (%d) under load",
			dd[len(dd)-1], di[len(di)-1])
	}
	if ddr.Stats().BankConflicts == 0 {
		t.Errorf("ddr backend saw no bank conflicts on a 500-request burst")
	}
}

// newBackend builds a default-configured backend of kind k.
func newBackend(t *testing.T, k Kind) *Device {
	t.Helper()
	b, err := NewDevice(k, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestResetClearsBackends(t *testing.T) {
	for _, k := range []Kind{KindHMC, KindDDR, KindIdeal} {
		b, err := NewDevice(k, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := NewDevice(k, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		submitPattern(t, b, 100)
		b.Reset(b.Kind(), b.Config())
		if got, want := b.Stats(), fresh.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: Reset left stats dirty:\n%+v\nwant fresh:\n%+v", k, got, want)
		}
		// Post-reset traffic must match a fresh device exactly.
		db := submitPattern(t, b, 100)
		df := submitPattern(t, fresh, 100)
		if !reflect.DeepEqual(db, df) {
			t.Errorf("%v: post-Reset completions differ from a fresh backend", k)
		}
	}
}
