// Package hmccoal reproduces "Memory Coalescing for Hybrid Memory Cube"
// (Wang, Leidel, Chen — ICPP 2018): a two-phase memory coalescer between a
// shared last level cache and dynamic MSHRs that batches LLC misses, sorts
// them on a pipelined odd–even merge network, fuses adjacent requests into
// large HMC packets, and merges them against outstanding misses before they
// reach a simulated Hybrid Memory Cube.
//
// The package is a facade over the implementation packages:
//
//	internal/sortnet    Batcher odd–even mergesort network + pipeline model
//	internal/mshr       dynamic MSHRs with second-phase coalescing
//	internal/coalescer  sorting pipeline + DMC unit + CRQ (the contribution)
//	internal/hmc        HMC 2.1 device model (packets, vaults, banks, links)
//	internal/cache      L1/L2/shared-LLC hierarchy
//	internal/workloads  the 12 evaluation benchmark trace generators
//	internal/sim        full-system simulator and metrics
//	internal/sweep      deterministic worker pool for the evaluation sweeps
//	internal/riscv      RV64I emulator + assembler (Spike substitution)
//
// Quick start:
//
//	cfg := hmccoal.DefaultConfig()
//	sys, _ := hmccoal.NewSystem(cfg)
//	trace, _ := hmccoal.GenerateTrace("FT", hmccoal.DefaultTraceParams())
//	res, _ := sys.Run(trace)
//	fmt.Printf("coalescing efficiency: %.1f%%\n", 100*res.CoalescingEfficiency())
package hmccoal

import (
	"fmt"

	"hmccoal/internal/coalescer"
	"hmccoal/internal/fault"
	"hmccoal/internal/membackend"
	"hmccoal/internal/sim"
	"hmccoal/internal/trace"
	"hmccoal/internal/workloads"
)

// Core simulation API, re-exported from internal/sim.
type (
	// Config assembles a simulated system (hierarchy, coalescer, HMC).
	Config = sim.Config
	// Result carries a run's metrics; see its methods for the paper's
	// derived figures (coalescing efficiency, bandwidth efficiency, …).
	Result = sim.Result
	// System is a runnable machine; Reset it to run it again.
	System = sim.System
	// Mode selects the miss-handling architecture (Figure 8 series).
	Mode = sim.Mode
	// Access is one memory operation of a trace.
	Access = trace.Access
	// PayloadAnalysis is the payload-granularity study of §5.3.2
	// (Figures 9–11) plus the Figure 10 size distribution.
	PayloadAnalysis = sim.PayloadAnalysis
	// TraceParams scales a benchmark trace.
	TraceParams = workloads.Params
	// FaultConfig parameterizes deterministic link fault injection
	// (Config.HMC.Fault): seeded bit error rate, drop rate and retry
	// budget. The zero value disables injection entirely.
	FaultConfig = fault.Config
	// Variant selects the simulated machine beyond the paper's knobs
	// (Config.Variant): memory backend, coalescing front-end and issue
	// policy. Each field spells itself as its CLI flag does in JSON and
	// flag.TextVar; the zero value is the paper's machine.
	Variant = sim.Variant
	// BackendKind selects the memory device behind the coalescer
	// (Config.Backend): the HMC model, a DDR-like single-channel baseline,
	// or an ideal zero-contention device. The zero value is the HMC.
	BackendKind = membackend.Kind
	// FrontendKind selects the coalescing front-end between the LLC and
	// the memory backend (Config.Frontend): the paper's two-phase
	// coalescer or a GPU-style warp coalescing unit. The zero value is
	// the two-phase coalescer.
	FrontendKind = coalescer.Kind
	// SchedKind selects the issue policy inside the front-end
	// (Config.Sched): strict FR-FCFS or the heterogeneity-aware
	// scheduler. The zero value is FR-FCFS.
	SchedKind = coalescer.Sched
	// SystemSnapshot is a deterministic mid-run snapshot of a System
	// (System.Snapshot / System.Restore): restoring it into a fresh or
	// Reset system with the same Config and stepping to completion
	// reproduces the uninterrupted run byte-for-byte.
	SystemSnapshot = sim.Snapshot
)

// Miss-handling architectures under evaluation.
const (
	// ModeBaseline is the conventional MHA: MSHR-based coalescing only.
	ModeBaseline = sim.Baseline
	// ModeDMCOnly enables the sorting network + DMC unit without MSHR
	// merging.
	ModeDMCOnly = sim.DMCOnly
	// ModeTwoPhase is the full memory coalescer.
	ModeTwoPhase = sim.TwoPhase
)

// Memory backends selectable via Config.Backend.
const (
	// BackendHMC is the full HMC 2.1 device model (the default).
	BackendHMC = membackend.KindHMC
	// BackendDDR is the DDR-like single-channel banked baseline.
	BackendDDR = membackend.KindDDR
	// BackendIdeal is the zero-contention ideal memory.
	BackendIdeal = membackend.KindIdeal
)

// Coalescing front-ends selectable via Config.Frontend.
const (
	// FrontendTwoPhase is the paper's two-phase coalescer (the default).
	FrontendTwoPhase = coalescer.KindTwoPhase
	// FrontendWarp is the GPU-style warp coalescing unit.
	FrontendWarp = coalescer.KindWarp
)

// Issue policies selectable via Config.Sched.
const (
	// SchedFRFCFS issues queued packets strictly in arrival order (the
	// default).
	SchedFRFCFS = coalescer.SchedFRFCFS
	// SchedHetero favors criticality-hinted requests and starved lanes.
	SchedHetero = coalescer.SchedHetero
)

// ParseFaultFlag decodes the shared -faults CLI syntax ("seed=1,ber=1e-6,
// drop=1e-7,retries=3"); an empty string disables injection.
func ParseFaultFlag(s string) (FaultConfig, error) { return fault.ParseFlag(s) }

// DefaultConfig returns the paper's evaluation system: 12 CPUs at 3.3 GHz,
// 16 LLC MSHRs, sequence width 16, 8 GB HMC with 256 B blocks.
func DefaultConfig() Config { return sim.DefaultConfig() }

// NewSystem builds a simulated system. A System runs once per Start:
// Reset it (System.Reset) to run it again.
func NewSystem(cfg Config) (*System, error) { return sim.NewSystem(cfg) }

// TraceIndex is a shared, read-only layout of a trace by CPU. Runs
// replaying the same trace share one index instead of each re-bucketing
// it (System.StartIndexed, System.RunIndexed).
type TraceIndex = sim.TraceIndex

// NewTraceIndex buckets a trace for systems with cpus cores; the index is
// immutable and safely shared across concurrent runs.
func NewTraceIndex(accs []Access, cpus int) (*TraceIndex, error) {
	return sim.NewTraceIndex(accs, cpus)
}

// DefaultTraceParams returns the 12-CPU laptop-scale workload sizing.
func DefaultTraceParams() TraceParams { return workloads.DefaultParams() }

// Benchmarks lists the 12 evaluation benchmark names in figure order.
func Benchmarks() []string { return workloads.Names() }

// GenerateTrace synthesizes the named benchmark's multi-core access trace,
// ordered by tick, equal ticks by CPU.
func GenerateTrace(name string, p TraceParams) ([]Access, error) {
	st, err := generateStreams(name, p)
	return st.Flatten(), err
}

// generateStreams synthesizes the named benchmark's per-core streams.
func generateStreams(name string, p TraceParams) (trace.Streams, error) {
	g, ok := workloads.ByName(name)
	if !ok {
		return trace.Streams{}, fmt.Errorf("hmccoal: unknown benchmark %q (have %v)", name, workloads.Names())
	}
	return g.Generate(p)
}

// DescribeBenchmark returns the one-line access-pattern summary of the
// named benchmark.
func DescribeBenchmark(name string) (string, error) {
	g, ok := workloads.ByName(name)
	if !ok {
		return "", fmt.Errorf("hmccoal: unknown benchmark %q", name)
	}
	return g.Description(), nil
}

// AnalyzePayload runs the §5.3.2 payload-granularity coalescing study over
// a trace with the paper's parameters.
func AnalyzePayload(cfg Config, accs []Access) (PayloadAnalysis, error) {
	return sim.AnalyzePayload(cfg.Hierarchy, accs, cfg.Coalescer.Width)
}

// TraceStats summarizes a trace (access counts, payload, footprint, span).
type TraceStats = trace.Stats

// SummarizeTrace computes TraceStats over a trace.
func SummarizeTrace(accs []Access) TraceStats { return trace.Summarize(accs) }

// MergeTraces interleaves traces by tick, preserving per-source order —
// for combining independently generated or captured per-core streams.
func MergeTraces(traces ...[]Access) []Access { return trace.Merge(traces...) }

// ValidateTrace checks the invariants System.Run relies on and returns the
// first violation.
func ValidateTrace(accs []Access) error { return trace.Validate(accs) }

// Access kinds for hand-built traces.
const (
	LoadAccess  = trace.Load
	StoreAccess = trace.Store
	FenceAccess = trace.FenceOp
)
