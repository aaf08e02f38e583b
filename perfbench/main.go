// Command perfbench is the repository's benchmark. It drives one
// workload through the program's public packages for a fixed host-time
// budget, checks the program's outputs against properties computed
// apart from the program, and prints one JSON object as the last line
// of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1
// the run alternates untraced and traced rounds and the metrics are the
// per-layer figures taken from spans the benchmark records around every
// call it makes into a layer, plus the tracing overhead. See README.md.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload paper-sim --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// workDir holds everything a run leaves behind (sockets, span files);
// it lies inside the checkout and is ignored by git.
const workDir = ".bench_build"

// options are the command-line settings shared by every workload.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// roundStat is one round's host cost: wall time and heap allocation.
type roundStat struct {
	wall   time.Duration
	bytes  uint64
	allocs uint64
}

// roundOut is what one round of a workload reports.
type roundOut struct {
	stat roundStat
	// ops are the latencies of the round's unit operations.
	ops []time.Duration
	// setup is the round's own set-up time, for workloads that set up
	// afresh in every round (zero otherwise).
	setup     time.Duration
	attempted int64
	failed    int64
}

// workload is one benchmark workload. A run calls setup once, then
// whole rounds until the time budget is spent, then finish.
type workload interface {
	// setup prepares the workload and returns its set-up time samples.
	setup() ([]time.Duration, error)
	// round runs one whole round of the workload's fixed operations.
	// tr is nil in untraced rounds. Failed output checks are returned
	// as errors wrapping errCheck.
	round(tr *tracer) (roundOut, error)
	// finish runs the end-of-run checks and stops every goroutine and
	// process the workload started.
	finish() error
	// layers derives the per-layer metrics from the traced rounds.
	layers(tr *tracer, traced, untraced []roundOut) map[string]metric
}

// errCheck marks a failed output check: the program ran but produced a
// result that violates a property it must have.
var errCheck = errors.New("output check failed")

func checkf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: paper-sim, rcrd-monitor or fleet-cap")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "host seconds to measure")
	trace := flag.Int("trace", 0, "1 runs alternating untraced and traced rounds and prints per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	o := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	var w workload
	switch *name {
	case "paper-sim":
		w = newPaperSim(o)
	case "rcrd-monitor":
		w = newRcrdMonitor(o)
	case "fleet-cap":
		w = newFleetCap(o)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	res, err := drive(o, *name, w)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// drive runs a workload for the time budget and assembles the result.
// A failed output check makes the result incorrect but still prints
// it; an error that stops the workload from running at all is returned.
func drive(o options, name string, w workload) (*result, error) {
	setups, err := w.setup()
	if err != nil {
		_ = w.finish()
		return nil, fmt.Errorf("%s set-up: %w", name, err)
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	correct := true
	ops := newLatHist()
	var untraced, traced []roundOut
	var attempted, failed int64
	note := func(err error) {
		if err != nil {
			correct = false
			fmt.Fprintln(os.Stderr, "perfbench:", name+":", err)
		}
	}
	deadline := time.Now().Add(o.seconds)
	roundSpans := 0 // spans the last traced round recorded
	for i := 0; ; i++ {
		// Trace runs alternate untraced and traced rounds, so both sides
		// of the overhead see the same host conditions, until the next
		// traced round would take the tracer past maxSpans.
		var rtr *tracer
		if o.trace && i%2 == 1 && tr.len()+roundSpans <= maxSpans {
			rtr = tr
			roundSpans = -tr.len()
		}
		out, err := w.round(rtr)
		if err != nil && !errors.Is(err, errCheck) {
			_ = w.finish()
			return nil, fmt.Errorf("%s round %d: %w", name, i, err)
		}
		note(err)
		attempted += out.attempted
		failed += out.failed
		if out.setup > 0 {
			setups = append(setups, out.setup)
		}
		if rtr != nil {
			traced = append(traced, out)
			roundSpans += tr.len()
		} else {
			for _, d := range out.ops {
				ops.add(d)
			}
			out.ops = nil
			untraced = append(untraced, out)
		}
		if time.Now().After(deadline) && (!o.trace || len(traced) > 0 && i%2 == 1) {
			break
		}
	}
	note(w.finish())
	rss := maxRSSMB() // before the result is assembled
	res := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if o.trace {
		res.Metrics = w.layers(tr, traced, untraced)
		set(res.Metrics, "trace.overhead_s", medianDur(walls(traced)).Seconds()-medianDur(walls(untraced)).Seconds())
		for layer, ms := range tr.selfTimes(len(traced)) {
			set(res.Metrics, layer+".self_ms", ms)
		}
		path, err := tr.write(name, o.seed)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans over %d traced rounds written to %s\n", tr.len(), len(traced), path)
		return res, nil
	}
	bytes := make([]float64, len(untraced))
	allocs := make([]float64, len(untraced))
	for i, r := range untraced {
		bytes[i] = float64(r.stat.bytes)
		allocs[i] = float64(r.stat.allocs)
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	res.Metrics = map[string]metric{}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{0, m.unit}
	}
	set(res.Metrics, "wall_s", medianDur(walls(untraced)).Seconds())
	set(res.Metrics, "setup_s", medianDur(setups).Seconds())
	set(res.Metrics, "op_p50_us", us(ops.quantile(0.50)))
	set(res.Metrics, "op_p99_us", us(ops.quantile(0.99)))
	set(res.Metrics, "alloc_mb", median(bytes)/1e6)
	set(res.Metrics, "allocs", median(allocs))
	set(res.Metrics, "max_rss_mb", rss)
	rw := walls(untraced)
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d rounds (wall min %v, median %v, max %v), %d operations timed, %d set-ups\n",
		name, len(untraced), quantileDur(rw, 0), medianDur(rw), quantileDur(rw, 1), ops.n, len(setups))
	return res, nil
}

func walls(rs []roundOut) []time.Duration {
	out := make([]time.Duration, len(rs))
	for i, r := range rs {
		out[i] = r.stat.wall
	}
	return out
}

// measure runs fn and returns its wall time and heap allocation.
// ReadMemStats stops the world, so callers measure whole rounds, never
// single operations.
func measure(fn func() error) (roundStat, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&after)
	return roundStat{wall: wall, bytes: after.TotalAlloc - before.TotalAlloc, allocs: after.Mallocs - before.Mallocs}, err
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func quantileDur(ds []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, q))
}

func medianDur(ds []time.Duration) time.Duration { return quantileDur(ds, 0.5) }

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports kilobytes
}
