package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/rcr"
	"repro/internal/telemetry"
)

// rcrd-monitor runs an rcrd in process: an M620-shaped blackboard
// (2 sockets × 8 cores) served by rcr.Server with a Publisher on a unix
// socket. A writer sets every meter each writerPeriod of host time
// through the blackboard setters the sampler uses, then calls
// Publisher.Tick as the sampler does. One closed-loop client calls
// rcr.QueryContext (the unit operation) and one subscriber follows the
// delta stream. Every meter value encodes the tick that wrote it, so a
// reader can tell exactly which write it saw.

const (
	writerPeriod    = time.Millisecond
	queriesPerRound = 500
	// valueStride separates ticks in meter values: value = tick ×
	// valueStride + the meter's offset, an offset below the stride with
	// ten fractional bits, so every value is exact in float64 and maps
	// back to exactly one (meter, tick).
	valueStride = 4096
	tickRing    = 1 << 12
	probes      = 200
)

// meterDef is one meter the writer sets.
type meterDef struct {
	scope int // 0 system, 1 socket, 2 core
	index int
	name  string
	off   float64
}

var (
	systemMeters = []string{rcr.MeterEnergy, rcr.MeterHeartbeat, rcr.MeterPower}
	socketMeters = []string{rcr.MeterEnergy, rcr.MeterMemBandwidth, rcr.MeterMemConcurrency, rcr.MeterPower, rcr.MeterTemperature}
	coreMeters   = []string{rcr.MeterDutyCycle}
)

const (
	monSockets = 2
	monPerSock = 8
)

// monitorMeters lists every meter with a seeded offset.
func monitorMeters(seed int64) []meterDef {
	rng := rand.New(rand.NewSource(seed))
	var ms []meterDef
	add := func(scope, index int, name string) {
		ms = append(ms, meterDef{scope: scope, index: index, name: name,
			off: float64(rng.Int63n(valueStride*1024)) / 1024})
	}
	for _, n := range systemMeters {
		add(0, 0, n)
	}
	for s := 0; s < monSockets; s++ {
		for _, n := range socketMeters {
			add(1, s, n)
		}
	}
	for c := 0; c < monSockets*monPerSock; c++ {
		for _, n := range coreMeters {
			add(2, c, n)
		}
	}
	return ms
}

func meterValue(m meterDef, tick int64) float64 { return float64(tick)*valueStride + m.off }

// tickOf maps a value back to the tick that wrote it, or -1 if no tick
// of this meter could have written it.
func tickOf(m meterDef, v float64) int64 {
	t := math.Floor(v / valueStride)
	if t < 0 || v-t*valueStride != m.off {
		return -1
	}
	return int64(t)
}

// snapshotTicks checks that a snapshot holds every meter exactly once
// and that each value maps to a tick in [lo, hi]. It returns the lowest
// and highest tick seen.
func snapshotTicks(ms []meterDef, snap *rcr.Snapshot, lo, hi int64) (minT, maxT int64, err error) {
	minT, maxT = math.MaxInt64, -1
	seen := 0
	visit := func(scope, index int, mv []rcr.MeterValue) error {
		for _, v := range mv {
			j := findMeter(ms, scope, index, v.Name)
			if j < 0 {
				return checkf("rcrd-monitor: unexpected meter %q in scope %d/%d", v.Name, scope, index)
			}
			t := tickOf(ms[j], v.Value)
			if t < lo || t > hi {
				return checkf("rcrd-monitor: meter %s %d/%d value %v maps to tick %d outside [%d, %d]", v.Name, scope, index, v.Value, t, lo, hi)
			}
			minT, maxT = min(minT, t), max(maxT, t)
			seen++
		}
		return nil
	}
	if err := visit(0, 0, snap.System); err != nil {
		return 0, 0, err
	}
	if len(snap.Sockets) != monSockets {
		return 0, 0, checkf("rcrd-monitor: snapshot has %d sockets", len(snap.Sockets))
	}
	for s, d := range snap.Sockets {
		if err := visit(1, s, d.Meters); err != nil {
			return 0, 0, err
		}
		if len(d.Cores) != monPerSock {
			return 0, 0, checkf("rcrd-monitor: socket %d has %d cores", s, len(d.Cores))
		}
		for c, cm := range d.Cores {
			if err := visit(2, s*monPerSock+c, cm); err != nil {
				return 0, 0, err
			}
		}
	}
	if seen != len(ms) {
		return 0, 0, checkf("rcrd-monitor: snapshot holds %d meters, want %d", seen, len(ms))
	}
	return minT, maxT, nil
}

func findMeter(ms []meterDef, scope, index int, name string) int {
	for j := range ms {
		if ms[j].scope == scope && ms[j].index == index && ms[j].name == name {
			return j
		}
	}
	return -1
}

// tickClock stamps server replies with the writer's tick time.
type tickClock struct{ r *rcrdMonitor }

func (c tickClock) Now() time.Duration { return time.Duration(c.r.started.Load()) * writerPeriod }

type rcrdMonitor struct {
	meters []meterDef
	t0     time.Time

	// One daemon instance (rebuilt by each set-up).
	dir       string
	addr      string
	bb        *rcr.Blackboard
	reg       *telemetry.Registry
	srv       *rcr.Server
	serveDone chan error
	stopW     chan struct{}
	writerOut chan struct{}
	sub       *rcr.Subscription
	subCancel context.CancelFunc
	subDone   chan struct{}

	started atomic.Int64 // tick the writer is writing (or last wrote)
	done    atomic.Int64 // last tick fully written and published
	tr      atomic.Pointer[tracer]
	tickAt  [tickRing]atomic.Int64 // host ns (since t0) each tick was published
	tickID  [tickRing]atomic.Int64

	// Subscriber results, owned by the subscriber goroutine until
	// subDone closes.
	subTick  atomic.Int64
	subErr   error
	pushLats []time.Duration

	// Probe costs of the query path's stages (traced rounds).
	snapNS, encNS, decNS []float64
	probeErr             error
	rounds               int
}

func newRcrdMonitor(o options) *rcrdMonitor {
	return &rcrdMonitor{meters: monitorMeters(o.seed), t0: time.Now()}
}

// setup brings the daemon up five times (server, publisher, first
// subscriber frame) and keeps the last one running.
func (r *rcrdMonitor) setup() ([]time.Duration, error) {
	var out []time.Duration
	for rep := 0; rep < 5; rep++ {
		if rep > 0 {
			if err := r.stop(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if err := r.start(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

func (r *rcrdMonitor) start() error {
	dir, err := os.MkdirTemp(workDir, "rcrd-")
	if err != nil {
		return err
	}
	r.dir = dir
	r.addr = filepath.Join(dir, "rcrd.sock")
	ln, err := net.Listen("unix", r.addr)
	if err != nil {
		return err
	}
	bb, err := rcr.NewBlackboard(monSockets, monPerSock)
	if err != nil {
		ln.Close()
		return err
	}
	r.bb = bb
	r.reg = telemetry.NewRegistry()
	bb.Instrument(r.reg)
	r.started.Store(0)
	r.done.Store(0)
	r.writeTick(0)
	r.srv = rcr.NewServer(bb, tickClock{r}, ln)
	r.srv.Instrument(r.reg)
	r.srv.Pub = rcr.NewPublisher(bb)
	r.srv.Pub.Instrument(r.reg)
	r.serveDone = make(chan error, 1)
	go func() { r.serveDone <- r.srv.Serve() }()

	r.stopW = make(chan struct{})
	r.writerOut = make(chan struct{})
	go r.writer()

	ctx, cancel := context.WithCancel(context.Background())
	r.subCancel = cancel
	r.subDone = make(chan struct{})
	// The stream outlives set-up, so set-up is bounded by cancelling
	// the stream's own context rather than by a shorter-lived one.
	timeout := time.AfterFunc(10*time.Second, cancel)
	sub, err := rcr.Subscribe(ctx, "unix", r.addr)
	if err == nil {
		r.sub = sub
		err = sub.Next(ctx) // the first (full) frame
	}
	if !timeout.Stop() && err == nil {
		err = context.DeadlineExceeded
	}
	if err != nil {
		close(r.subDone)
		return fmt.Errorf("rcrd-monitor: first subscriber frame: %w", err)
	}
	r.subTick.Store(-1)
	r.subErr = nil
	go r.subscriber(ctx)
	return nil
}

// stop tears the daemon down and waits for every goroutine it started.
func (r *rcrdMonitor) stop() error {
	if r.srv == nil {
		return nil
	}
	r.stopWriter()
	r.subCancel()
	<-r.subDone
	var err error
	if r.sub != nil {
		err = r.sub.Close()
		r.sub = nil
	}
	cerr := r.srv.Close()
	serr := <-r.serveDone
	r.srv = nil
	rerr := os.RemoveAll(r.dir)
	return errors.Join(err, cerr, serr, rerr)
}

func (r *rcrdMonitor) stopWriter() {
	if r.stopW == nil {
		return
	}
	close(r.stopW)
	<-r.writerOut
	r.stopW = nil
}

func (r *rcrdMonitor) writeTick(t int64) {
	now := time.Duration(t) * writerPeriod
	for _, m := range r.meters {
		v := meterValue(m, t)
		switch m.scope {
		case 0:
			r.bb.SetSystem(m.name, v, now)
		case 1:
			r.bb.SetSocket(m.index, m.name, v, now)
		default:
			r.bb.SetCore(m.index, m.name, v, now)
		}
	}
}

// writer sets every meter and publishes one frame per writerPeriod.
func (r *rcrdMonitor) writer() {
	defer close(r.writerOut)
	tk := time.NewTicker(writerPeriod)
	defer tk.Stop()
	for {
		select {
		case <-r.stopW:
			return
		case <-tk.C:
		}
		t := r.started.Load() + 1
		r.started.Store(t)
		r.writeTick(t)
		r.tickID[t%tickRing].Store(t)
		r.tickAt[t%tickRing].Store(int64(time.Since(r.t0)))
		tr := r.tr.Load()
		id := tr.begin("rcr", "rcr.Publisher.Tick", -1, t)
		r.srv.Pub.Tick(time.Duration(t) * writerPeriod)
		tr.end(id)
		r.done.Store(t)
	}
}

// subscriber follows the delta stream: versions must strictly increase
// and every frame must hold one whole tick, newer than the last.
func (r *rcrdMonitor) subscriber(ctx context.Context) {
	defer close(r.subDone)
	lastVer := r.sub.State().Ver
	lastTick := int64(-1)
	for {
		err := r.sub.Next(ctx)
		arrived := time.Since(r.t0)
		if errors.Is(err, rcr.ErrDeltaGap) {
			continue // the publisher resyncs the stream with a full frame
		}
		if err != nil {
			if ctx.Err() == nil {
				r.subErr = err
			}
			return
		}
		snap := r.sub.Snapshot()
		tick, err := checkFrame(r.meters, lastVer, lastTick, r.sub.State().Ver, &snap)
		if err != nil {
			r.subErr = err
			return
		}
		lastVer, lastTick = r.sub.State().Ver, tick
		if r.tickID[tick%tickRing].Load() == tick {
			r.pushLats = append(r.pushLats, arrived-time.Duration(r.tickAt[tick%tickRing].Load()))
		}
		r.subTick.Store(tick)
	}
}

// checkFrame checks one subscriber frame: its version is newer than the
// last, and its state is one whole tick, newer than the last. It
// returns that tick.
func checkFrame(ms []meterDef, lastVer uint64, lastTick int64, ver uint64, snap *rcr.Snapshot) (int64, error) {
	if ver <= lastVer {
		return 0, checkf("rcrd-monitor: subscriber version %d after %d", ver, lastVer)
	}
	lo, hi, err := snapshotTicks(ms, snap, 0, math.MaxInt64)
	if err != nil {
		return 0, err
	}
	if lo != hi {
		return 0, checkf("rcrd-monitor: subscriber state mixes ticks %d..%d", lo, hi)
	}
	if hi <= lastTick {
		return 0, checkf("rcrd-monitor: subscriber tick %d after %d", hi, lastTick)
	}
	return hi, nil
}

type queryRecord struct {
	snap   rcr.Snapshot
	lo, hi int64
	err    error
}

func (r *rcrdMonitor) round(tr *tracer) (roundOut, error) {
	r.rounds++
	r.tr.Store(tr)
	defer r.tr.Store(nil)
	recs := make([]queryRecord, queriesPerRound)
	out := roundOut{ops: make([]time.Duration, 0, queriesPerRound), attempted: queriesPerRound}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	base := int64(r.rounds) * queriesPerRound
	stat, _ := measure(func() error {
		for q := range recs {
			rec := &recs[q]
			rec.lo = r.done.Load()
			id := tr.begin("rcr", "rcr.QueryContext", -1, base+int64(q))
			t0 := time.Now()
			rec.snap, rec.err = rcr.QueryContext(ctx, "unix", r.addr)
			out.ops = append(out.ops, time.Since(t0))
			tr.end(id)
			rec.hi = r.started.Load()
		}
		return nil
	})
	out.stat = stat
	var firstErr error
	for q := range recs {
		rec := &recs[q]
		if rec.err != nil {
			// A failed query is a failed operation, not a wrong answer.
			if out.failed == 0 {
				fmt.Fprintf(os.Stderr, "perfbench: rcrd-monitor: query %d: %v\n", q, rec.err)
			}
			out.failed++
			continue
		}
		if _, _, err := snapshotTicks(r.meters, &rec.snap, rec.lo, rec.hi); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("query %d: %w", q, err)
		}
	}
	if tr != nil {
		r.probe(tr)
	}
	return out, firstErr
}

// probe times the query path's stages on the live board: the server's
// snapshot (SnapshotInto), its encoding (AppendSnapshot) and the
// client's decoding (DecodeSnapshot).
func (r *rcrdMonitor) probe(tr *tracer) {
	var snap rcr.Snapshot
	var buf []byte
	for i := 0; i < probes; i++ {
		id := tr.begin("rcr", "rcr.SnapshotInto", -1, -1)
		r.bb.SnapshotInto(&snap, 0)
		r.snapNS = append(r.snapNS, float64(tr.end(id)))
		id = tr.begin("rcr", "rcr.AppendSnapshot", -1, -1)
		buf = rcr.AppendSnapshot(buf[:0], snap)
		r.encNS = append(r.encNS, float64(tr.end(id)))
		id = tr.begin("rcr", "rcr.DecodeSnapshot", -1, -1)
		_, err := rcr.DecodeSnapshot(buf)
		r.decNS = append(r.decNS, float64(tr.end(id)))
		if err != nil && r.probeErr == nil {
			r.probeErr = fmt.Errorf("rcrd-monitor: probe decode: %w", err)
		}
	}
}

// finish stops the writer, waits for the subscriber to reach the final
// tick and checks its reconstructed state, then tears everything down.
func (r *rcrdMonitor) finish() error {
	if r.srv == nil {
		return nil
	}
	r.stopWriter()
	final := r.done.Load()
	deadline := time.Now().Add(10 * time.Second)
	for r.subTick.Load() < final && time.Now().Before(deadline) {
		select {
		case <-r.subDone:
			deadline = time.Now()
		case <-time.After(time.Millisecond):
		}
	}
	got := r.subTick.Load()
	stopErr := r.stop()
	var err error
	switch {
	case r.subErr != nil:
		err = r.subErr
	case r.probeErr != nil:
		err = r.probeErr
	case got != final:
		err = checkf("rcrd-monitor: subscriber ended at tick %d, writer's final tick is %d", got, final)
	}
	return errors.Join(err, stopErr)
}

func (r *rcrdMonitor) layers(tr *tracer, traced, untraced []roundOut) map[string]metric {
	m := layerMetrics()
	n := float64(r.rounds)
	counter := func(name string) float64 { return float64(r.reg.Counter(name).Value()) / n }
	set(m, "rcr.snapshot_ns", median(r.snapNS))
	set(m, "rcr.encode_ns", median(r.encNS))
	set(m, "rcr.decode_ns", median(r.decNS))
	allocs := make([]float64, len(untraced))
	for i, u := range untraced {
		allocs[i] = float64(u.stat.allocs)
	}
	set(m, "rcr.query_allocs", median(allocs)/queriesPerRound)
	set(m, "rcr.ipc_requests", counter("rcr_ipc_requests_total"))
	set(m, "rcr.ipc_errors", counter("rcr_ipc_errors_total"))
	set(m, "rcr.tick_us", float64(medianDur(tr.durations("rcr.Publisher.Tick")))/1e3)
	set(m, "rcr.push_p50_us", float64(medianDur(r.pushLats))/1e3)
	if f := r.reg.Counter("rcr_sub_frames_total").Value(); f > 0 {
		set(m, "rcr.delta_bytes", float64(r.reg.Counter("rcr_sub_bytes_total").Value())/float64(f))
	}
	set(m, "rcr.sub_frames", counter("rcr_sub_frames_total"))
	set(m, "rcr.sub_dropped_frames", counter("rcr_sub_dropped_frames_total"))
	set(m, "rcr.sub_resyncs", counter("rcr_sub_resyncs_total"))
	set(m, "rcr.bb_writes", counter("rcr_blackboard_writes_total"))
	set(m, "rcr.bb_reads", counter("rcr_blackboard_reads_total"))
	return m
}
