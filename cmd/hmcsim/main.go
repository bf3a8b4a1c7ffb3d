// Command hmcsim drives the HMC device model directly with synthetic
// traffic, reproducing the §2.2 packet-economics arguments on the simulated
// device: request-size sweeps, bank-conflict behaviour of scattered versus
// coalesced access, and Equation-1 bandwidth efficiency.
//
// Usage:
//
//	hmcsim -sweep                       # request-size sweep
//	hmcsim -pattern seq -size 64        # one traffic pattern
//	hmcsim -pattern scatter16           # the 16×16 B motivating example
//	hmcsim -pattern scatter16 -frontend two-phase # same, coalesced first
//
// With -frontend the pattern's requests are routed through a coalescing
// front-end (the paper's two-phase coalescer or the GPU-style warp unit,
// with -sched picking the issue policy) before they reach the device —
// the scatter16 example then shows the coalescer repairing exactly the
// packet economics the raw run demonstrates.
//
// Exit codes: 0 success, 1 usage/configuration error, 2 device run
// failure.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"hmccoal/internal/coalescer"
	"hmccoal/internal/fault"
	"hmccoal/internal/hmc"
	"hmccoal/internal/membackend"
	"hmccoal/internal/mshr"
	"hmccoal/internal/profiling"
	"hmccoal/internal/sweep"
)

// Exit codes: flag/config mistakes are the user's to fix (1); a failed
// device run is the simulator's fault (2).
const (
	exitUsage = 1
	exitRun   = 2
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(argv []string) int {
	fs := flag.NewFlagSet("hmcsim", flag.ContinueOnError)
	var (
		sizeSweep = fs.Bool("sweep", false, "run the request-size sweep and exit")
		pattern   = fs.String("pattern", "seq", "traffic pattern: seq, random, scatter16")
		size      = fs.Uint("size", 64, "request payload bytes (FLIT multiple)")
		requests  = fs.Int("n", 100000, "number of requests")
		seed      = fs.Int64("seed", 1, "random seed")
		workers   = fs.Int("workers", 0, "sweep worker pool size (0 = all cores, 1 = serial)")
		frontendF = fs.String("frontend", "", "route the pattern through a coalescing front-end before the device: two-phase or warp ('' = raw device traffic)")
		schedF    = fs.String("sched", "", "with -frontend: issue policy inside the front-end, frfcfs or hetero")
		faults    = fs.String("faults", "", "link fault injection (hmc backend only), e.g. seed=1,ber=1e-6[,drop=1e-7][,retries=3]")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write an allocation profile to this file on exit")
		exectrace  = fs.String("trace", "", "write a runtime execution trace to this file")
	)
	var kind membackend.Kind
	fs.TextVar(&kind, "backend", kind, "memory backend: hmc, ddr or ideal")
	if err := fs.Parse(argv); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return exitUsage
	}
	if *workers < 0 {
		return usageErr(fmt.Errorf("-workers must be ≥ 0, got %d", *workers))
	}

	faultCfg, err := fault.ParseFlag(*faults)
	if err != nil {
		return usageErr(fmt.Errorf("-faults: %w", err))
	}
	if *frontendF == "" && *schedF != "" {
		return usageErr(errors.New("-sched only applies with -frontend"))
	}
	if *frontendF != "" && *sizeSweep {
		return usageErr(errors.New("-frontend only applies to pattern runs, not -sweep"))
	}
	fe, err := coalescer.ParseKind(*frontendF)
	if err != nil {
		return usageErr(err)
	}
	sched, err := coalescer.ParseSched(*schedF)
	if err != nil {
		return usageErr(err)
	}
	if *size < hmc.MinRequestBytes || *size > hmc.MaxRequestBytes || *size%hmc.FlitBytes != 0 {
		return usageErr(fmt.Errorf("-size %d: want a FLIT-aligned payload in [%d,%d]",
			*size, hmc.MinRequestBytes, hmc.MaxRequestBytes))
	}

	stopProf, perr := profiling.Start(*cpuprofile, *memprofile, *exectrace)
	if perr != nil {
		return usageErr(perr)
	}
	defer stopProf()

	if *sizeSweep {
		// Each sweep point drives its own device, so the grid fans out
		// across the worker pool; rows print in size order regardless of
		// completion order.
		sizes := []uint32{16, 32, 64, 128, 256}
		point := func(sz uint32) (string, error) {
			dev, err := membackend.New(kind, hmc.DefaultConfig())
			if err != nil {
				return "", err
			}
			var last uint64
			n := (1 << 24) / int(sz) // fixed 16 MiB of payload
			for j := 0; j < n; j++ {
				done, err := dev.Submit(0, hmc.Request{
					Addr:           uint64(j) * 256,
					PacketBytes:    sz,
					RequestedBytes: sz,
				})
				if err != nil {
					return "", err
				}
				if done > last {
					last = done
				}
			}
			s := dev.Stats()
			us := float64(last) / 3.3 / 1000
			gbps := float64(s.PacketBytes) / (us * 1000)
			return fmt.Sprintf("%7dB %8s %12d %12.1f %14.2f %11.2f%%",
				sz, kind, s.Requests, us, gbps, 100*s.BandwidthEfficiency()), nil
		}
		rows, err := sweep.Map(context.Background(), len(sizes), sweep.Options{Workers: *workers},
			func(_ context.Context, i int) (string, error) { return point(sizes[i]) })
		if err != nil {
			return runErr(err)
		}
		fmt.Printf("%8s %8s %12s %12s %14s %12s\n", "size", "backend", "requests", "time(µs)", "GB/s(payload)", "efficiency")
		for _, row := range rows {
			fmt.Println(row)
		}
		return 0
	}

	dev, err := newBackend(kind, faultCfg)
	if err != nil {
		return usageErr(err)
	}
	rng := rand.New(rand.NewSource(*seed))
	var last uint64
	step := func(addr uint64, size uint32) error {
		done, err := submit(dev, addr, size)
		if err != nil {
			return err
		}
		last = max(last, done)
		return nil
	}
	var drv *coalescedDriver
	if *frontendF != "" {
		drv, err = newCoalescedDriver(fe, sched, dev)
		if err != nil {
			return usageErr(err)
		}
		step = drv.step
	}
	var runErrV error
	switch *pattern {
	case "seq":
		for i := 0; i < *requests && runErrV == nil; i++ {
			runErrV = step(uint64(i)*256, uint32(*size))
		}
	case "random":
		for i := 0; i < *requests && runErrV == nil; i++ {
			runErrV = step(uint64(rng.Int63n(1<<25))*256, uint32(*size))
		}
	case "scatter16":
		// §2.2.1: 16 separate 16 B loads per 256 B block vs one coalesced
		// load — row reopened 16 times.
		for i := 0; i < *requests/16 && runErrV == nil; i++ {
			base := uint64(i) * 256
			for j := uint64(0); j < 16 && runErrV == nil; j++ {
				runErrV = step(base+j*16, 16)
			}
		}
	default:
		return usageErr(fmt.Errorf("unknown pattern %q", *pattern))
	}
	if runErrV != nil {
		return runErr(runErrV)
	}
	if drv != nil {
		if err := drv.finish(); err != nil {
			return runErr(err)
		}
		last = max(last, drv.last)
		fs := drv.fr.Stats()
		fmt.Printf("front-end %v (%v): %d line requests -> %d memory packets (%.2f%% coalescing efficiency)\n",
			fe, sched, fs.Requests, fs.HMCRequests, 100*fs.CoalescingEfficiency())
	}

	s := dev.Stats()
	fmt.Printf("pattern %s (%s backend): %d requests\n", *pattern, kind, s.Requests)
	fmt.Printf("  completion           %.1f µs\n", float64(last)/3.3/1000)
	fmt.Printf("  transferred          %.2f MB (control %.2f MB)\n",
		float64(s.TransferredBytes)/1e6, float64(s.ControlBytes())/1e6)
	fmt.Printf("  bandwidth efficiency %.2f%%\n", 100*s.BandwidthEfficiency())
	fmt.Printf("  row activations      %d\n", s.RowActivations)
	fmt.Printf("  bank conflicts       %d (wait %.1f µs)\n", s.BankConflicts, float64(s.ConflictWait)/3.3/1000)
	if faultCfg.Enabled() {
		fmt.Printf("  link retries         %d (%d retrains, %.2f MB retransmitted)\n",
			s.Retries, s.RetrainEvents, float64(s.RetransmittedBytes)/1e6)
		fmt.Printf("  poisoned responses   %d (%d dropped)\n", s.PoisonedResponses, s.DroppedResponses)
	}
	return 0
}

// coalescedDriver routes pattern requests through a coalescing front-end
// before the device, mirroring the simulator's LLC-miss issue path: each
// access splits into per-line requests, the front-end batches and merges
// them, and issued packets reach the device through SubmitPacket. The
// request lane is the address's 256 B block modulo the lane count, so a
// block's scattered loads share one lane — the scatter16 pattern is then
// exactly the motivating example the front-end exists to repair.
type coalescedDriver struct {
	fr     *coalescer.Coalescer
	now    uint64
	token  uint64
	last   uint64
	devErr error
}

const (
	driverLineBytes  = 64
	driverBlockBytes = 256
	driverLanes      = 16
)

func newCoalescedDriver(fe coalescer.Kind, sched coalescer.Sched, dev membackend.Backend) (*coalescedDriver, error) {
	d := &coalescedDriver{}
	fr, err := coalescer.New(coalescer.DefaultConfig(), fe, sched, driverLanes,
		func(tick uint64, e *mshr.Entry) coalescer.IssueResult {
			packet := uint32(e.Lines()) * driverLineBytes
			requested := uint32(e.Payload())
			if requested > packet {
				requested = packet
			}
			comp, err := dev.SubmitPacket(tick, hmc.Request{
				Addr:           e.BaseLine() * driverLineBytes,
				PacketBytes:    packet,
				RequestedBytes: requested,
				Write:          e.Write(),
			})
			if err != nil {
				if d.devErr == nil {
					d.devErr = err
				}
				return coalescer.IssueResult{Done: tick}
			}
			return coalescer.IssueResult{
				Done:    comp.Done,
				Fault:   comp.Poisoned,
				Dropped: comp.Dropped,
				Retries: comp.Retries,
			}
		},
		func(tick uint64, subs []mshr.Sub, fault bool) {
			if tick != coalescer.NeverTick && tick > d.last {
				d.last = tick
			}
		})
	if err != nil {
		return nil, err
	}
	d.fr = fr
	return d, nil
}

// step presents one pattern access to the front-end, split into line
// requests as the LLC miss path would deliver them.
func (d *coalescedDriver) step(addr uint64, size uint32) error {
	for off := uint64(0); off < uint64(size); {
		line := (addr + off) / driverLineBytes
		chunk := (line+1)*driverLineBytes - (addr + off)
		if rest := uint64(size) - off; chunk > rest {
			chunk = rest
		}
		d.fr.Push(d.now, coalescer.Request{
			Line:    line,
			Payload: uint32(chunk),
			Token:   d.token,
			CPU:     uint8((addr + off) / driverBlockBytes % driverLanes),
		})
		d.token++
		off += chunk
	}
	d.now += 2
	d.fr.Advance(d.now)
	return d.devErr
}

// finish drains the front-end and audits its conservation laws.
func (d *coalescedDriver) finish() error {
	end, err := d.fr.Drain(d.now)
	if err != nil {
		return err
	}
	if d.devErr != nil {
		return d.devErr
	}
	if end > d.last {
		d.last = end
	}
	return d.fr.CheckDrained(end)
}

// newBackend builds the selected memory backend; fault injection is
// rejected by the factory for the link-less ddr/ideal models.
func newBackend(kind membackend.Kind, f fault.Config) (membackend.Backend, error) {
	cfg := hmc.DefaultConfig()
	cfg.Fault = f
	return membackend.New(kind, cfg)
}

// submit issues one request and returns its completion tick. A dropped
// response (fault injection) completes never; callers track the last
// real tick, so NeverTick is simply ignored by the max.
func submit(dev membackend.Backend, addr uint64, size uint32) (uint64, error) {
	comp, err := dev.SubmitPacket(0, hmc.Request{Addr: addr, PacketBytes: size, RequestedBytes: size})
	if err != nil {
		return 0, err
	}
	if comp.Dropped {
		return 0, nil
	}
	return comp.Done, nil
}

// usageErr reports a configuration mistake (exit 1); runErr reports a
// failed device run (exit 2).
func usageErr(err error) int {
	fmt.Fprintln(os.Stderr, "hmcsim:", err)
	return exitUsage
}

func runErr(err error) int {
	fmt.Fprintln(os.Stderr, "hmcsim:", err)
	return exitRun
}
