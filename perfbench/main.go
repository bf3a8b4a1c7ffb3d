// Command perfbench is the repository's benchmark. It drives the simulator
// only through its public surface — hmccoal.GenerateTrace, NewSystem and
// System.Start/Step/Finish, the sweep drivers, and the hmcservd job daemon
// over HTTP — on one named workload, checks every simulated output, and
// prints the metrics as a JSON object on the last line of stdout:
//
//	bash perfbench/run.sh --workload stream --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload untraced and then traced (spans plus a CPU profile) and
// prints the per-layer metrics. README.md defines every metric.
package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
)

// env is what a workload receives: generated inputs and run settings.
type env struct {
	workload  string
	traceSeed int64   // seed of every generated trace (a committed-table seed)
	jobSeed   int64   // seed of the service workload's job mix
	seconds   float64 // how long the timed phase measures
	workdir   string  // scratch space inside the checkout
	hmcservd  string  // path of the built job daemon
	expect    *expected
	tr        *tracer // non-nil in the traced phase only
}

// runFunc runs one measurement of a workload. A traced measurement also
// returns the per-layer values.
type runFunc func(e *env) (*measure, layers, error)

var workloads = map[string]runFunc{
	"stream":    runSim,
	"irregular": runSim,
	"grid":      runGrid,
	"service":   runService,
}

// seedSlots is how many trace seeds have committed expected outputs. A
// --seed selects slot seed mod seedSlots; slot heldOutSlot is reserved for
// verifying performance claims and is not used while tuning a change.
const (
	seedSlots   = 8
	heldOutSlot = 7
)

func slotOf(seed int64) int64 { return ((seed % seedSlots) + seedSlots) % seedSlots }

// traceSeedOf maps a --seed to the trace seed of its slot.
func traceSeedOf(seed int64) int64 { return slotOf(seed) + 1 }

//go:embed expected.json
var expectedJSON []byte

// expected holds the committed digests of every deterministic output, by
// trace seed.
type expected struct {
	// Sim maps "<trace seed>/<benchmark>/<front-end>" to the digest of
	// that single run's Result.
	Sim map[string]string `json:"sim"`
	// Grid maps "<trace seed>" to the digest of the figure grid's text.
	Grid map[string]string `json:"grid"`
}

// digest is a short fingerprint of v's JSON encoding.
func digest(v any) string {
	raw, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:8])
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
}

// run executes one benchmark invocation and writes its result line to
// stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: stream, irregular, grid or service")
		seed     = fs.Int64("seed", 0, fmt.Sprintf("workload seed; seed mod %d picks a committed trace seed (%d is held out for verifying claims)", seedSlots, heldOutSlot))
		seconds  = fs.Float64("seconds", 15, "how long the timed phase measures")
		trace    = fs.Int("trace", 0, "0: end-to-end metrics; 1: untraced then traced run, per-layer metrics")
		workdir  = fs.String("workdir", ".bench_build", "scratch directory for daemon state and spans")
		servd    = fs.String("hmcservd", "", "path of the hmcservd binary (service workload)")
		record   = fs.String("record", "", "regenerate the expected outputs of every seed slot into this file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	exp := &expected{}
	if err := json.Unmarshal(expectedJSON, exp); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	if *record != "" {
		return recordExpected(*record)
	}
	fn, ok := workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q (have stream, irregular, grid, service)", *workload)
	}
	if *seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("-trace must be 0 or 1")
	}
	e := &env{
		workload:  *workload,
		traceSeed: traceSeedOf(*seed),
		jobSeed:   *seed,
		seconds:   *seconds,
		workdir:   *workdir,
		hmcservd:  *servd,
		expect:    exp,
	}
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return err
	}

	m, _, err := fn(e)
	if err != nil {
		return err
	}
	out := output{Attempted: m.attempted, Failed: m.failed}
	if *trace == 0 {
		out.Metrics = render(endToEnd, m.endToEnd())
	} else {
		e.tr = newTracer()
		mt, lay, err := fn(e)
		if err != nil {
			return err
		}
		out.Attempted += mt.attempted
		out.Failed += mt.failed
		for name, v := range m.endToEnd() {
			lay["untraced."+name] = v
		}
		for name, v := range mt.endToEnd() {
			lay["traced."+name] = v
		}
		lay["bench.err_frac"] = float64(out.Failed) / float64(max(out.Attempted, 1))
		lay["bench.units"] = float64(len(m.units))
		m.wallClock(lay)
		if err := checkNames(perLayer, lay); err != nil {
			return err
		}
		spans := filepath.Join(e.workdir, "spans-"+*workload+"-"+strconv.FormatInt(*seed, 10)+".jsonl")
		if err := e.tr.write(spans); err != nil {
			return err
		}
		logf("spans written to %s", spans)
		out.Metrics = render(perLayer, lay)
	}
	if out.Attempted == 0 {
		return errors.New("no operation was attempted")
	}
	out.Correct = out.Failed == 0
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(line))
	return err
}

// recordExpected regenerates the committed digests of every seed slot.
func recordExpected(path string) error {
	exp := &expected{Sim: map[string]string{}, Grid: map[string]string{}}
	for slot := int64(0); slot < seedSlots; slot++ {
		ts := traceSeedOf(slot)
		for _, benches := range simSets {
			cases, _, err := genCases(nil, 0, benches, ts)
			if err != nil {
				return err
			}
			for _, c := range cases {
				res, err := simulateFresh(c)
				if err != nil {
					return err
				}
				exp.Sim[c.key] = digest(res)
			}
		}
		g, err := figureGrid(gridParams(ts), nil)
		if err != nil {
			return err
		}
		exp.Grid[strconv.FormatInt(ts, 10)] = digest(g.text)
		logf("recorded trace seed %d", ts)
	}
	raw, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
