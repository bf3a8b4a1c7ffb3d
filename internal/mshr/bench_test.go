package mshr

import "testing"

// BenchmarkInsertComplete measures the second-phase coalescing steady
// state: insert a 4-line packet with four waiters, then complete every
// issued entry so the file never fills.
func BenchmarkInsertComplete(b *testing.B) {
	f, err := NewFile(DefaultConfig(), testLinesPerBlock, true)
	if err != nil {
		b.Fatal(err)
	}
	targets := make([]Target, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		base := uint64(i%1024) * 4
		for j := range targets {
			targets[j] = Target{Line: base + uint64(j), Token: uint64(i*4 + j), Payload: 16}
		}
		out, err := f.Insert(base, 4, i&1 == 0, targets)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range out.Issued {
			if _, err := f.Complete(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkInsertMerge measures the Case-A merge path: waiters landing in
// an already outstanding entry.
func BenchmarkInsertMerge(b *testing.B) {
	f, err := NewFile(DefaultConfig(), testLinesPerBlock, true)
	if err != nil {
		b.Fatal(err)
	}
	// Insert allocates only the lines that have waiters, so the host gets
	// one waiter on each of its four lines.
	seed, err := f.Insert(0, 4, false, []Target{
		{Line: 0, Token: 0, Payload: 16}, {Line: 1, Token: 1, Payload: 16},
		{Line: 2, Token: 2, Payload: 16}, {Line: 3, Token: 3, Payload: 16},
	})
	if err != nil || len(seed.Issued) != 1 || seed.Issued[0].Lines() != 4 {
		b.Fatalf("seed insert: %+v, %v", seed, err)
	}
	host := seed.Issued[0]
	hostSubs := len(host.subs)
	targets := []Target{{Line: 1, Token: 1, Payload: 16}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		targets[0].Token = uint64(i)
		out, err := f.Insert(1, 1, false, targets)
		if err != nil {
			b.Fatal(err)
		}
		if out.MergedTargets != 1 {
			b.Fatalf("expected merge, got %+v", out)
		}
		// Drop the absorbed subentry so the host never fills.
		host.subs = host.subs[:hostSubs]
	}
}
