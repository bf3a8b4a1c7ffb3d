package hmc

import "testing"

// BenchmarkSubmit measures the device's busy-until request path with a
// vault-spreading address stream of mixed packet sizes.
func BenchmarkSubmit(b *testing.B) {
	d, err := NewDevice(KindHMC, DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sizes := []uint32{64, 128, 256, 64}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := d.Submit(uint64(i)*4, Request{
			Addr:           uint64(i) * 256,
			PacketBytes:    sizes[i&3],
			RequestedBytes: 48,
			Write:          i&7 == 0,
		}); err != nil {
			b.Fatal(err)
		}
	}
}
