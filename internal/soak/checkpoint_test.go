package soak

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"hmccoal/internal/coalescer"
	"hmccoal/internal/hmc"
	"hmccoal/internal/trace"
)

// errFake is a deterministic unexplained failure the classifier must
// count as Failed.
var errFake = errors.New("synthetic soak failure")

// TestSoakCheckpointResume pins the park/resume contract of soak jobs: a
// campaign run with a checkpoint restores every classified scenario on a
// rerun — the runner is never invoked again — and the restored report is
// identical to the original, including a failure's shrunken repro.
func TestSoakCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "soak.ckpt")
	failing := func(sc Scenario, accs []trace.Access) error {
		if sc.Index == 3 {
			return errFake
		}
		return nil
	}
	opts := Options{Seed: 7, Runs: 8, Workers: 2, Run: failing, Checkpoint: ckpt}

	first, err := Soak(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Clean != 7 || len(first.Failures) != 1 {
		t.Fatalf("first campaign: %d clean, %d failures; want 7 and 1", first.Clean, len(first.Failures))
	}

	opts.Run = func(sc Scenario, accs []trace.Access) error {
		t.Errorf("scenario %d re-ran despite a complete checkpoint", sc.Index)
		return nil
	}
	second, err := Soak(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("restored report differs:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestSoakCheckpointCampaignIdentity pins the campaign tag: a checkpoint
// restores only into the campaign that wrote it. A different seed,
// backend, front-end or scheduler derives different scenarios, so it
// restores nothing and re-runs every scenario.
func TestSoakCheckpointCampaignIdentity(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "soak.ckpt")
	var ran atomic.Int64
	count := func(sc Scenario, accs []trace.Access) error { ran.Add(1); return nil }
	base := Options{Seed: 7, Runs: 4, Workers: 1, Run: count, Checkpoint: ckpt}
	if _, err := Soak(context.Background(), base); err != nil {
		t.Fatal(err)
	}
	for name, mod := range map[string]func(*Options){
		"seed":     func(o *Options) { o.Seed = 8 },
		"backend":  func(o *Options) { o.Backend = hmc.KindIdeal },
		"frontend": func(o *Options) { o.Frontend = coalescer.KindWarp },
		"sched":    func(o *Options) { o.Sched = coalescer.SchedHetero },
	} {
		opts := base
		opts.Checkpoint = filepath.Join(t.TempDir(), name+".ckpt")
		data, err := os.ReadFile(ckpt)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(opts.Checkpoint, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mod(&opts)
		ran.Store(0)
		if _, err := Soak(context.Background(), opts); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r := ran.Load(); r != int64(base.Runs) {
			t.Errorf("%s: campaign ran %d of %d scenarios over a foreign checkpoint", name, r, base.Runs)
		}
	}
}
