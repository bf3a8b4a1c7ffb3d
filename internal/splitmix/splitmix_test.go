package splitmix

import (
	"math"
	"testing"
)

func TestThresholdEdges(t *testing.T) {
	if Threshold(0) != 0 {
		t.Error("p=0 must never fire")
	}
	if Threshold(1) != math.MaxUint64 {
		t.Error("p=1 must map to the max threshold")
	}
	if Threshold(0.5) != 1<<63 {
		t.Errorf("p=0.5 = %#x, want 1<<63", Threshold(0.5))
	}
}

// TestHashPinned pins the finalizer's outputs: every fault, chaos and
// jitter draw in the repository is derived from them.
func TestHashPinned(t *testing.T) {
	for _, c := range []struct{ in, want uint64 }{
		{0, 0xe220a8397b1dcdaf},
		{1, 0x910a2dec89025cc1},
		{0xdeadbeef, 0x4adfb90f68c9eb9b},
	} {
		if got := Hash(c.in); got != c.want {
			t.Errorf("Hash(%#x) = %#x, want %#x", c.in, got, c.want)
		}
	}
}
