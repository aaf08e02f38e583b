package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"repro/internal/compiler"
	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/maestro"
	"repro/internal/qthreads"
	"repro/internal/rapl"
	"repro/internal/rcr"
	"repro/internal/telemetry"
	"repro/internal/workloads"
	"repro/internal/workloads/suite"
)

// paper-sim regenerates the paper's Figure 3 thread sweep (the BOTS
// programs GCC builds, at -O2, parked idle, no daemon) and Tables IV–VII
// (lulesh, dijkstra, health and strassen at -O3, spin-only idle, as
// dynamic-16, fixed-16 and fixed-12). Untraced rounds go through
// experiments.Lab with Parallel = nproc; one Lab call (one app's sweep or
// one throttle table) is the unit operation. Traced rounds build every
// cell's stack through the same public constructors the Lab uses, so
// each layer call gets its own span.

// sweepThreads are Figure 3's worker counts.
var sweepThreads = []int{1, 2, 4, 8, 12, 16}

var (
	gccO2 = compiler.Target{Compiler: compiler.GCC, Opt: compiler.O2}
	gccO3 = compiler.Target{Compiler: compiler.GCC, Opt: compiler.O3}
)

// throttleConfigs are the three rows of Tables IV–VII, in Lab order.
var throttleConfigs = []struct {
	cfg     experiments.ThrottleConfig
	workers int
	dynamic bool
}{
	{experiments.Dynamic16, experiments.FullThreads, true},
	{experiments.Fixed16, experiments.FullThreads, false},
	{experiments.Fixed12, experiments.ThrottledThreads, false},
}

// cellSpec is one simulated run of the workload.
type cellSpec struct {
	app     string
	target  compiler.Target
	workers int
	scale   float64
	spin    bool
	dynamic bool
}

// cellOut is a traced cell's measurement and the counts recorded at its
// layer boundaries.
type cellOut struct {
	meas     experiments.Measurement
	steps    uint64
	counters map[string]float64
	journal  int
}

type paperSim struct {
	o     options
	mcfg  machine.Config
	nproc int
	apps  []string // Figure 3 programs GCC builds
	cells []cellSpec

	// first holds the first untraced round's results: the 1-worker cells
	// are re-run against it, and traced rounds must match it bit for bit.
	first *paperResults
	// traceCells accumulates traced cells' layer counts.
	traceCells []cellOut
}

// paperResults is one round's outputs in the Lab's shapes.
type paperResults struct {
	series   []experiments.Series
	throttle []experiments.ThrottleResult
}

func newPaperSim(o options) *paperSim {
	p := &paperSim{o: o, mcfg: machine.M620(), nproc: runtime.NumCPU()}
	for _, app := range experiments.BOTSApps() {
		if compiler.Supported(app, compiler.GCC) {
			p.apps = append(p.apps, app)
		}
	}
	for _, app := range p.apps {
		for _, k := range sweepThreads {
			p.cells = append(p.cells, cellSpec{app: app, target: gccO2, workers: k, scale: 1})
		}
	}
	for _, app := range experiments.ThrottleApps() {
		for _, c := range throttleConfigs {
			p.cells = append(p.cells, cellSpec{app: app, target: gccO3, workers: c.workers,
				scale: throttleScale(app), spin: true, dynamic: c.dynamic})
		}
	}
	return p
}

// throttleScale is the Lab's Tables IV–VII input scale: the paper's
// fixed-16 MAESTRO run time over its Table I -O3 time.
func throttleScale(app string) float64 {
	base, ok := compiler.PaperEntry(app, gccO3)
	fixed16, ok2 := experiments.PaperThrottleEntry(app, experiments.Fixed16)
	if !ok || !ok2 || base.Seconds <= 0 {
		return 1
	}
	return fixed16.Seconds / base.Seconds
}

// setup times the input generation and calibration of every distinct
// workload input of a round (Prepare), three times.
func (p *paperSim) setup() ([]time.Duration, error) {
	var out []time.Duration
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		seen := map[cellSpec]bool{}
		for _, c := range p.cells {
			key := cellSpec{app: c.app, target: c.target, scale: c.scale}
			if seen[key] {
				continue
			}
			seen[key] = true
			wl, err := suite.New(c.app)
			if err != nil {
				return nil, err
			}
			if err := wl.Prepare(workloads.Params{MachineConfig: p.mcfg, Target: c.target, Scale: c.scale, Seed: p.o.seed}); err != nil {
				return nil, err
			}
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

func (p *paperSim) round(tr *tracer) (roundOut, error) {
	if tr != nil {
		return p.tracedRound(tr)
	}
	var out roundOut
	var res paperResults
	var opErr error
	stat, _ := measure(func() error {
		lab := experiments.NewLab()
		lab.Seed = p.o.seed
		lab.Parallel = p.nproc
		for _, app := range p.apps {
			t0 := time.Now()
			s, err := lab.Sweep(app, gccO2, sweepThreads)
			out.ops = append(out.ops, time.Since(t0))
			out.attempted++
			if err != nil {
				out.failed++
				opErr = err
				continue
			}
			res.series = append(res.series, s)
		}
		for _, app := range experiments.ThrottleApps() {
			t0 := time.Now()
			r, err := lab.ThrottleTable(app)
			out.ops = append(out.ops, time.Since(t0))
			out.attempted++
			if err != nil {
				out.failed++
				opErr = err
				continue
			}
			res.throttle = append(res.throttle, r)
		}
		return nil
	})
	out.stat = stat
	if opErr != nil {
		// A Lab call fails when a cell's answer fails its workload's
		// serial reference (or the stack cannot be built).
		return out, checkf("paper-sim: %v", opErr)
	}
	if err := checkPaper(res, p.mcfg); err != nil {
		return out, err
	}
	if p.first == nil {
		p.first = &res
		return out, p.rerunSerial(res)
	}
	return out, nil
}

// rerunSerial re-runs every 1-worker cell once on a fresh Lab; a
// single-worker run must reproduce bit for bit.
func (p *paperSim) rerunSerial(res paperResults) error {
	lab := experiments.NewLab()
	lab.Seed = p.o.seed
	lab.Parallel = 1
	for _, s := range res.series {
		m, err := lab.Measure(experiments.RunSpec{App: s.App, Target: gccO2, Workers: 1})
		if err != nil {
			return checkf("paper-sim: re-run %s @1: %v", s.App, err)
		}
		if err := sameBits(s.App+" @1 re-run", m, s.Seconds[0], s.Joules[0], s.Watts[0]); err != nil {
			return err
		}
	}
	return nil
}

// sameBits reports whether a measurement reproduces an earlier one
// exactly (math.Float64bits on time, energy and power).
func sameBits(what string, m experiments.Measurement, secs, joules, watts float64) error {
	if math.Float64bits(m.Seconds) != math.Float64bits(secs) ||
		math.Float64bits(m.Joules) != math.Float64bits(joules) ||
		math.Float64bits(m.Watts) != math.Float64bits(watts) {
		return checkf("paper-sim: %s not bit-identical: %v s %v J %v W, first %v s %v J %v W",
			what, m.Seconds, m.Joules, m.Watts, secs, joules, watts)
	}
	return nil
}

// tracedRound runs every cell on a pool of nproc workers, building each
// stack itself with a span around every layer call.
func (p *paperSim) tracedRound(tr *tracer) (roundOut, error) {
	var out roundOut
	outs := make([]cellOut, len(p.cells))
	errs := make([]error, len(p.cells))
	stat, _ := measure(func() error {
		root := tr.begin("experiments", "experiments.round", -1, -1)
		var wg sync.WaitGroup
		next := make(chan int)
		for w := 0; w < p.nproc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					op := int64(i)
					outs[i], errs[i] = p.tracedCell(tr, root, op, p.cells[i])
				}
			}()
		}
		for i := range p.cells {
			next <- i
		}
		close(next)
		wg.Wait()
		tr.end(root)
		return nil
	})
	out.stat = stat
	out.attempted = int64(len(p.apps) + len(experiments.ThrottleApps()))
	// Failures count per Lab-call group (one app's sweep or table), as
	// in untraced rounds.
	var firstErr error
	failedApps := map[string]bool{}
	for i, err := range errs {
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("traced cell %s @%d: %v", p.cells[i].app, p.cells[i].workers, err)
			}
			failedApps[fmt.Sprint(p.cells[i].app, p.cells[i].target)] = true
		}
	}
	out.failed = int64(len(failedApps))
	p.traceCells = append(p.traceCells, outs...)
	if firstErr != nil {
		return out, checkf("paper-sim: %v", firstErr)
	}
	res := p.assemble(outs)
	if err := checkPaper(res, p.mcfg); err != nil {
		return out, err
	}
	// Tracing must not change the program being measured: every
	// 1-worker cell matches the untraced round bit for bit.
	if p.first != nil {
		for i, s := range res.series {
			f := p.first.series[i]
			m := experiments.Measurement{Seconds: s.Seconds[0], Joules: s.Joules[0], Watts: s.Watts[0]}
			if err := sameBits(s.App+" @1 traced", m, f.Seconds[0], f.Joules[0], f.Watts[0]); err != nil {
				return out, err
			}
		}
	}
	return out, nil
}

// assemble turns traced cells into the Lab's result shapes.
func (p *paperSim) assemble(outs []cellOut) paperResults {
	var res paperResults
	i := 0
	for _, app := range p.apps {
		s := experiments.Series{App: app, Target: gccO2}
		for _, k := range sweepThreads {
			m := outs[i].meas
			i++
			s.Threads = append(s.Threads, k)
			s.Seconds = append(s.Seconds, m.Seconds)
			s.Joules = append(s.Joules, m.Joules)
			s.Watts = append(s.Watts, m.Watts)
		}
		for j := range s.Seconds {
			s.Speedup = append(s.Speedup, s.Seconds[0]/s.Seconds[j])
			s.NormEnergy = append(s.NormEnergy, s.Joules[j]/s.Joules[0])
		}
		res.series = append(res.series, s)
	}
	for _, app := range experiments.ThrottleApps() {
		r := experiments.ThrottleResult{App: app}
		for _, c := range throttleConfigs {
			r.Rows = append(r.Rows, experiments.ThrottleRow{Config: c.cfg, Meas: outs[i].meas})
			i++
		}
		res.throttle = append(res.throttle, r)
	}
	return res
}

// tracedCell assembles, runs and tears down one cell's stack in the
// order experiments.Lab does, with a span around every layer call.
func (p *paperSim) tracedCell(tr *tracer, parent int32, op int64, c cellSpec) (cellOut, error) {
	var out cellOut
	cell := tr.begin("experiments", "experiments.cell", parent, op)
	defer tr.end(cell)
	sp := func(layer, name string) int32 { return tr.begin(layer, name, cell, op) }

	wl, err := suite.New(c.app)
	if err != nil {
		return out, err
	}
	id := sp("workloads", "workloads.Prepare")
	err = wl.Prepare(workloads.Params{MachineConfig: p.mcfg, Target: c.target, Scale: c.scale, Seed: p.o.seed})
	tr.end(id)
	if err != nil {
		return out, err
	}

	id = sp("machine", "machine.New")
	m, err := machine.New(p.mcfg)
	tr.end(id)
	if err != nil {
		return out, err
	}
	defer func() {
		id := sp("machine", "machine.Stop")
		m.Stop()
		tr.end(id)
	}()
	var steps uint64 // written by the engine goroutine under the machine lock
	m.SetStepHook(func(machine.StepRecord) { steps++ })
	release := m.Hold()
	defer release()
	id = sp("machine", "machine.WarmAll")
	m.WarmAll(workloads.WarmTemp)
	tr.end(id)

	id = sp("rapl", "rapl.NewMSRReader")
	reader, err := rapl.NewMSRReader(m.MSR())
	tr.end(id)
	if err != nil {
		return out, err
	}
	id = sp("rcr", "rcr.NewBlackboard")
	bb, err := rcr.NewBlackboard(p.mcfg.Sockets, p.mcfg.CoresPerSocket)
	tr.end(id)
	if err != nil {
		return out, err
	}
	id = sp("rcr", "rcr.StartSampler")
	sampler, err := rcr.StartSampler(m, reader, bb, 0)
	tr.end(id)
	if err != nil {
		return out, err
	}
	defer func() {
		id := sp("rcr", "rcr.Sampler.Stop")
		sampler.Stop()
		tr.end(id)
	}()
	reg := telemetry.NewRegistry()
	journal := telemetry.NewJournal(0, p.mcfg.Sockets)
	bb.Instrument(reg)
	sampler.Instrument(reg)

	qcfg := qthreads.DefaultConfig()
	qcfg.Workers = c.workers
	qcfg.SpinOnlyIdle = c.spin
	qcfg.Telemetry = reg
	id = sp("qthreads", "qthreads.New")
	rt, err := qthreads.New(m, qcfg)
	tr.end(id)
	if err != nil {
		return out, err
	}
	defer func() {
		id := sp("qthreads", "qthreads.Shutdown")
		rt.Shutdown()
		tr.end(id)
	}()

	var daemon *maestro.Daemon
	if c.dynamic {
		id = sp("maestro", "maestro.Start")
		daemon, err = maestro.Start(rt, bb, maestro.Config{Telemetry: reg, Journal: journal})
		tr.end(id)
		if err != nil {
			return out, err
		}
		defer func() {
			id := sp("maestro", "maestro.Stop")
			daemon.Stop()
			tr.end(id)
		}()
	}

	id = sp("workloads", "workloads.RunOnRuntimeHeld")
	rep, err := workloads.RunOnRuntimeHeld(rt, reader, bb, wl, release)
	tr.end(id)
	if err != nil {
		return out, err
	}
	out.meas = experiments.Measurement{
		App: c.app, Target: c.target, Workers: c.workers,
		Seconds: rep.Elapsed.Seconds(), Joules: float64(rep.Energy), Watts: float64(rep.AvgPower),
	}
	if daemon != nil {
		out.meas.Daemon = daemon.Stats()
	}
	m.SetStepHook(nil) // orders the engine's writes to steps before the read
	out.steps = steps
	out.journal = journal.Len()
	out.counters = map[string]float64{}
	for _, mt := range reg.Snapshot() {
		out.counters[mt.Name] = mt.Value
	}
	return out, nil
}

func (p *paperSim) finish() error { return nil }

func (p *paperSim) layers(tr *tracer, traced, _ []roundOut) map[string]metric {
	m := layerMetrics()
	n := float64(len(traced))
	if n == 0 {
		return m
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	cells := tr.durations("experiments.cell")
	set(m, "experiments.cell_ms_p50", ms(medianDur(cells)))
	set(m, "experiments.cell_ms_max", ms(quantileDur(cells, 1)))
	set(m, "workloads.prepare_ms", ms(tr.sum("workloads.Prepare"))/n)
	run := tr.sum("workloads.RunOnRuntimeHeld")
	set(m, "workloads.run_ms", ms(run)/n)
	set(m, "machine.setup_ms", ms(tr.sum("machine.New")+tr.sum("machine.WarmAll"))/n)

	var steps, virtual, journal float64
	counters := map[string]float64{}
	var activations float64
	for _, c := range p.traceCells {
		steps += float64(c.steps)
		virtual += c.meas.Seconds
		journal += float64(c.journal)
		activations += float64(c.meas.Daemon.Activations)
		for k, v := range c.counters {
			counters[k] += v
		}
	}
	set(m, "machine.steps", steps/n)
	set(m, "machine.virtual_s", virtual/n)
	if run > 0 {
		set(m, "machine.sim_rate", virtual/run.Seconds())
	}
	set(m, "qthreads.tasks", counters["qthreads_tasks_total"]/n)
	set(m, "qthreads.steals", counters["qthreads_steals_total"]/n)
	set(m, "qthreads.steal_misses", counters["qthreads_steal_misses_total"]/n)
	set(m, "qthreads.throttle_park_ms", counters["qthreads_throttle_park_ns_total"]/1e6/n)
	set(m, "rcr.sampler_ticks", counters["rcr_sampler_ticks_total"]/n)
	set(m, "rcr.bb_writes", counters["rcr_blackboard_writes_total"]/n)
	set(m, "rcr.bb_reads", counters["rcr_blackboard_reads_total"]/n)
	set(m, "maestro.polls", counters["maestro_polls_total"]/n)
	set(m, "maestro.activations", activations/n)
	set(m, "maestro.transitions", counters["maestro_transitions_total"]/n)
	set(m, "telemetry.journal_records", journal/n)
	return m
}

// checkPaper applies the paper-sim output properties to one round.
func checkPaper(res paperResults, cfg machine.Config) error {
	for _, s := range res.series {
		if err := checkSweep(s); err != nil {
			return err
		}
		for i, w := range s.Watts {
			if err := checkEnvelope(cfg, w); err != nil {
				return fmt.Errorf("%w (%s @%d)", err, s.App, s.Threads[i])
			}
		}
	}
	for _, r := range res.throttle {
		if err := checkThrottle(r); err != nil {
			return err
		}
		for _, row := range r.Rows {
			if err := checkEnvelope(cfg, row.Meas.Watts); err != nil {
				return fmt.Errorf("%w (%s %s)", err, r.App, row.Config)
			}
		}
	}
	return nil
}

// checkSweep: every speedup lies in (0, workers], with 1% slack — no
// program runs faster than linear scaling on identical cores.
func checkSweep(s experiments.Series) error {
	if len(s.Speedup) != len(s.Threads) || len(s.Threads) == 0 {
		return checkf("paper-sim: %s sweep has %d speedups for %d thread counts", s.App, len(s.Speedup), len(s.Threads))
	}
	for i, k := range s.Threads {
		if sp := s.Speedup[i]; !(sp > 0 && sp <= 1.01*float64(k)) {
			return checkf("paper-sim: %s speedup %v at %d workers outside (0, %d]", s.App, sp, k, k)
		}
	}
	return nil
}

// checkThrottle: the daemon engages on each of the paper's throttled
// programs, saves energy against fixed-16, and fixed-12 draws less
// average power than fixed-16.
func checkThrottle(r experiments.ThrottleResult) error {
	dyn, ok1 := r.Row(experiments.Dynamic16)
	f16, ok2 := r.Row(experiments.Fixed16)
	f12, ok3 := r.Row(experiments.Fixed12)
	if !ok1 || !ok2 || !ok3 {
		return checkf("paper-sim: %s throttle table lacks a row", r.App)
	}
	if dyn.Meas.Daemon.Activations < 1 {
		return checkf("paper-sim: %s dynamic-16 never activated the daemon", r.App)
	}
	if !(dyn.Meas.Joules < f16.Meas.Joules) {
		return checkf("paper-sim: %s dynamic-16 energy %v J not below fixed-16 %v J", r.App, dyn.Meas.Joules, f16.Meas.Joules)
	}
	if !(f12.Meas.Watts < f16.Meas.Watts) {
		return checkf("paper-sim: %s fixed-12 power %v W not below fixed-16 %v W", r.App, f12.Meas.Watts, f16.Meas.Watts)
	}
	return nil
}

// powerEnvelope derives the node's possible average-power range from
// its configuration alone: at least every socket's uncore base plus the
// cheapest core state, scaled by leakage at ambient; at most uncore base
// plus full bandwidth power plus every core at its most expensive state
// and the highest turbo multiplier, scaled by leakage at 105 °C, above
// any die temperature the thermal model can reach.
func powerEnvelope(cfg machine.Config) (lo, hi float64) {
	pp := cfg.Power
	cheapest := math.Min(math.Min(float64(pp.CoreUnowned), float64(pp.CoreParked)), math.Min(float64(pp.CoreStall), float64(pp.CoreSpinFloor)))
	dearest := math.Max(float64(pp.CoreActive), float64(pp.CoreSpin))
	boost := 1.0
	if cfg.Turbo.Enabled {
		boost = math.Max(boost, cfg.Turbo.MaxBoost)
	}
	leak := func(t float64) float64 {
		return 1 + cfg.Thermal.LeakageCoef*(t-float64(cfg.Thermal.LeakageRef))
	}
	n := float64(cfg.CoresPerSocket)
	s := float64(cfg.Sockets)
	lo = s * (float64(pp.UncoreBase) + n*cheapest) * math.Min(1, leak(float64(cfg.Thermal.Ambient)))
	hi = s * (float64(pp.UncoreBase) + float64(pp.BandwidthMax) + n*dearest*boost*boost) * leak(105)
	return lo, hi
}

// checkEnvelope: a run's average power lies inside the node envelope.
func checkEnvelope(cfg machine.Config, watts float64) error {
	lo, hi := powerEnvelope(cfg)
	if !(watts >= lo && watts <= hi) {
		return checkf("paper-sim: average power %v W outside the node envelope [%.1f, %.1f] W", watts, lo, hi)
	}
	return nil
}
