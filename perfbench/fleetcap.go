package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/machine"
	"repro/internal/rcr"
	"repro/internal/resilience"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// fleet-cap runs one aggregator over scripted shards on a manual clock.
// Shard snapshots reach it through AggregatorConfig.Tune's subscribe
// seam, handed over synchronously: a delivery returns only once the
// shard client has stored the snapshot, so every Poll sees exactly the
// scripted fleet. Caps travel as fenced CAPW writes: the aggregator is a
// one-replica HA control plane whose WriteCap offers each write to the
// shard's rcr.FenceGuard in process. Each round builds a fresh fleet
// (set-up: membership, aggregator, first converged poll) and then plays
// the script: steady load, memory-bound ↔ compute-bound skew flips, a
// join wave, one drain and its decommission. Aggregator.Poll is the
// unit operation.

const (
	fleetInitial = 48
	fleetJoin    = 16
	fleetShards  = fleetInitial + fleetJoin
	fleetFloor   = units.Watts(10)
	fleetMax     = units.Watts(200)
	fleetBudget  = units.Watts(100 * fleetInitial)
	fleetTick    = 10 * time.Millisecond
	fleetSteady  = 20
	fleetFlips   = 6
	// settleK is how many change-free polls count as settled.
	settleK     = 3
	settleLimit = 200
	sumTol      = 1e-6
)

// fleetScript is a round's seeded inputs; every round of a run plays
// the same script.
type fleetScript struct {
	conc    []float64   // initial memory concurrency per shard
	power   []float64   // reported power per shard
	flips   [][]int     // shards that change class at each flip
	flipTo  [][]float64 // their new concurrency
	drainID int
}

// Memory-bound shards sit just under the knee (little headroom),
// compute-bound ones far below it.
func memBoundConc(rng *rand.Rand) float64     { return 22 + 5*rng.Float64() }
func computeBoundConc(rng *rand.Rand) float64 { return 2 + 8*rng.Float64() }

func newFleetScript(seed int64) fleetScript {
	rng := rand.New(rand.NewSource(seed))
	s := fleetScript{conc: make([]float64, fleetShards), power: make([]float64, fleetShards)}
	for i := range s.conc {
		if rng.Intn(2) == 0 {
			s.conc[i] = memBoundConc(rng)
		} else {
			s.conc[i] = computeBoundConc(rng)
		}
		s.power[i] = 60 + 80*rng.Float64()
	}
	for k := 0; k < fleetFlips; k++ {
		var ids []int
		var to []float64
		for _, i := range rng.Perm(fleetInitial)[:fleetInitial/4] {
			ids = append(ids, i)
			to = append(to, 0) // filled below, once classes are known
		}
		s.flips = append(s.flips, ids)
		s.flipTo = append(s.flipTo, to)
	}
	// Resolve each flip against the class the shard has by then.
	cur := append([]float64(nil), s.conc...)
	for k, ids := range s.flips {
		for j, i := range ids {
			if cur[i] >= 22 {
				s.flipTo[k][j] = computeBoundConc(rng)
			} else {
				s.flipTo[k][j] = memBoundConc(rng)
			}
			cur[i] = s.flipTo[k][j]
		}
	}
	s.drainID = rng.Intn(fleetInitial)
	return s
}

// headroomOf is the scaling headroom a shard at concurrency conc has
// against the node's memory knee, derived from the machine
// configuration rather than from the aggregator.
func headroomOf(conc float64) float64 {
	h := 1 - conc/float64(machine.M620().Mem.KneeRefs)
	return math.Max(0, math.Min(1, h))
}

// syncStream is a scripted resilience.SubStream with synchronous
// hand-over: deliver returns only after the client's subscribe loop has
// stored the snapshot and come back for the next one.
type syncStream struct {
	in   chan rcr.Snapshot
	ack  chan struct{}
	snap rcr.Snapshot
	held bool
}

func newSyncStream() *syncStream {
	return &syncStream{in: make(chan rcr.Snapshot), ack: make(chan struct{})}
}

func (s *syncStream) Next(ctx context.Context) error {
	if s.held {
		s.held = false
		select {
		case s.ack <- struct{}{}:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	select {
	case snap := <-s.in:
		s.snap, s.held = snap, true
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *syncStream) Snapshot() rcr.Snapshot { return s.snap }
func (s *syncStream) Close() error           { return nil }

func (s *syncStream) deliver(snap rcr.Snapshot) {
	s.in <- snap
	<-s.ack
}

// capAudit watches the guards' apply seam and the WriteCap seam.
type capAudit struct {
	mu      sync.Mutex
	caps    []float64
	retired []bool
	err     error
}

func (a *capAudit) fail(err error) {
	if a.err == nil {
		a.err = err
	}
}

// applyFn is shard i's guard actuation: every applied cap lies within
// [Floor, Max], and after every apply Σ applied caps stays within the
// budget.
func (a *capAudit) applyFn(i int) func(cap float64, fence uint64) error {
	return func(capW float64, _ uint64) error {
		a.mu.Lock()
		defer a.mu.Unlock()
		if capW < float64(fleetFloor)-sumTol || capW > float64(fleetMax)+sumTol {
			a.fail(checkf("fleet-cap: shard %d cap %.6f W outside [%v, %v]", i, capW, fleetFloor, fleetMax))
		}
		a.caps[i] = capW
		sum := 0.0
		for j, c := range a.caps {
			if !a.retired[j] {
				sum += c
			}
		}
		if sum > float64(fleetBudget)+sumTol {
			a.fail(checkf("fleet-cap: Σ applied caps %.6f W over the %v budget after shard %d", sum, fleetBudget, i))
		}
		return nil
	}
}

func (a *capAudit) failure() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.err
}

// retire powers shard i off: its cap no longer draws from the budget,
// and it must receive no cap write from now on.
func (a *capAudit) retire(i int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.retired[i] = true
	a.caps[i] = 0
}

// offered checks one cap write at the WriteCap seam.
func (a *capAudit) offered(i int, w rcr.CapWrite) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w.HasCap && a.retired[i] {
		a.fail(checkf("fleet-cap: decommissioned shard %d received a %.3f W cap write", i, w.Cap))
	}
}

// checkSettled: at a settle the whole budget is assigned, and among
// Active shards more headroom never means a lower cap.
func (a *capAudit) checkSettled(what string, active []int, conc []float64) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	sum := 0.0
	for j, c := range a.caps {
		if !a.retired[j] {
			sum += c
		}
	}
	if math.Abs(sum-float64(fleetBudget)) > sumTol {
		return checkf("fleet-cap: %s settled with Σ caps %.9f W, budget %v", what, sum, fleetBudget)
	}
	for _, hi := range active {
		for _, lo := range active {
			if headroomOf(conc[hi]) > headroomOf(conc[lo]) && a.caps[hi] < a.caps[lo]-sumTol {
				return checkf("fleet-cap: %s: shard %d (headroom %.3f) capped %.3f W below shard %d (headroom %.3f) at %.3f W",
					what, hi, headroomOf(conc[hi]), a.caps[hi], lo, headroomOf(conc[lo]), a.caps[lo])
			}
		}
	}
	return nil
}

// fleet is one round's scripted fleet.
type fleet struct {
	script   *fleetScript
	clock    atomic.Int64
	eps      []cluster.ShardEndpoint
	guards   []*rcr.FenceGuard
	boards   []*rcr.Blackboard
	streams  []*syncStream
	live     []bool
	conc     []float64
	beat     float64
	audit    *capAudit
	members  *cluster.Membership
	agg      *cluster.Aggregator
	reg      *telemetry.Registry
	journal  *telemetry.Journal
	cancel   context.CancelFunc
	runDone  chan error
	tr       *tracer
	pollSpan int32
	polls    int64
	pollLats []time.Duration
	settles  []float64
	offerNS  []float64
	partNS   []float64
}

func (f *fleet) now() time.Duration { return time.Duration(f.clock.Load()) }

func newFleet(script *fleetScript, seed int64, tr *tracer) (*fleet, error) {
	f := &fleet{
		script:   script,
		eps:      make([]cluster.ShardEndpoint, fleetShards),
		guards:   make([]*rcr.FenceGuard, fleetShards),
		boards:   make([]*rcr.Blackboard, fleetShards),
		streams:  make([]*syncStream, fleetShards),
		live:     make([]bool, fleetShards),
		conc:     append([]float64(nil), script.conc...),
		audit:    &capAudit{caps: make([]float64, fleetShards), retired: make([]bool, fleetShards)},
		reg:      telemetry.NewRegistry(),
		journal:  telemetry.NewJournal(1024, 1), // a round records about 120
		tr:       tr,
		pollSpan: -1,
	}
	for i := range f.eps {
		f.eps[i] = cluster.ShardEndpoint{ID: i, Network: "unix", Addr: fmt.Sprintf("shard-%d", i)}
		f.guards[i] = rcr.NewFenceGuard(f.now, f.audit.applyFn(i))
		f.guards[i].Instrument(f.reg)
		bb, err := rcr.NewBlackboard(1, 1)
		if err != nil {
			return nil, err
		}
		bb.Instrument(f.reg)
		f.guards[i].Bind(bb)
		f.boards[i] = bb
		f.streams[i] = newSyncStream()
	}
	members, err := cluster.NewMembership(f.eps[:fleetInitial], f.now)
	if err != nil {
		return nil, err
	}
	members.Instrument(f.reg)
	members.Journal(f.journal)
	f.members = members
	f.agg, err = cluster.NewAggregator(cluster.AggregatorConfig{
		Members:       members,
		Global:        fleetBudget,
		Floor:         fleetFloor,
		Max:           fleetMax,
		Period:        time.Hour, // Run's ticker never fires; the script drives Poll
		HealthHorizon: 10 * fleetTick,
		Clock:         f.now,
		Telemetry:     f.reg,
		Journal:       f.journal,
		HA: &cluster.HAConfig{
			ID:         1,
			LeaseTTL:   6 * fleetTick,
			Grace:      2 * fleetTick,
			JitterSeed: uint64(seed),
			WriteCap:   f.writeCap,
		},
		Tune: func(shard int, cfg *resilience.ClientConfig) {
			cfg.Subscribe = func(context.Context, string, string) (resilience.SubStream, error) {
				return f.streams[shard], nil
			}
		},
	})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.runDone = make(chan error, 1)
	go func() { f.runDone <- f.agg.Run(ctx) }()
	for i := 0; i < fleetInitial; i++ {
		f.live[i] = true
	}
	return f, nil
}

// stop ends the aggregator's Run and waits for its subscribe loops.
func (f *fleet) stop() {
	f.cancel()
	<-f.runDone
}

// writeCap is the HA WriteCap seam: the fenced write goes straight to
// the shard's guard.
func (f *fleet) writeCap(shard int, w rcr.CapWrite) (rcr.CapAck, error) {
	f.audit.offered(shard, w)
	id := f.tr.begin("rcr", "rcr.FenceGuard.Offer", f.pollSpan, f.polls)
	ack := f.guards[shard].Offer(w)
	if d := f.tr.end(id); f.tr != nil {
		f.offerNS = append(f.offerNS, float64(d))
	}
	return ack, nil
}

// step advances the clock one tick, delivers a heartbeat snapshot from
// every live shard and polls once.
func (f *fleet) step() {
	f.clock.Add(int64(fleetTick))
	f.beat++
	now := f.now()
	f.polls++
	id := f.tr.begin("resilience", "resilience.deliver", -1, f.polls)
	for i, live := range f.live {
		if !live {
			continue
		}
		bb := f.boards[i]
		bb.SetSystem(rcr.MeterHeartbeat, f.beat, now)
		bb.SetSocket(0, rcr.MeterPower, f.script.power[i], now)
		bb.SetSocket(0, rcr.MeterMemConcurrency, f.conc[i], now)
		f.streams[i].deliver(bb.Snapshot(now))
	}
	f.tr.end(id)
	f.pollSpan = f.tr.begin("cluster", "cluster.Aggregator.Poll", -1, f.polls)
	t0 := time.Now()
	f.agg.Poll()
	f.pollLats = append(f.pollLats, time.Since(t0))
	f.tr.end(f.pollSpan)
	f.pollSpan = -1
	if f.tr != nil {
		f.probePartition()
	}
}

// probePartition times Partition plus ApplyOrder on this poll's fleet
// as the aggregator sees it.
func (f *fleet) probePartition() {
	mems := f.members.Members()
	reports := make([]cluster.NodeReport, len(mems))
	for j, mb := range mems {
		maxW := fleetFloor
		if mb.State == cluster.MemberActive {
			maxW = fleetMax
		}
		reports[j] = cluster.NodeReport{Headroom: headroomOf(f.conc[mb.ID]), Floor: fleetFloor, Max: maxW, Healthy: f.live[mb.ID]}
	}
	prev := f.agg.Status().Caps
	if len(prev) != len(reports) {
		return
	}
	next := make([]units.Watts, len(reports))
	id := f.tr.begin("cluster", "cluster.Partition", -1, f.polls)
	next = cluster.Partition(fleetBudget, reports, next)
	cluster.ApplyOrder(prev, next)
	f.partNS = append(f.partNS, float64(f.tr.end(id)))
}

// settle polls until the aggregator has made no cap change for settleK
// polls and cond holds, then checks the settled assignment.
func (f *fleet) settle(what string, cond func(cluster.AggregatorStatus) bool) error {
	for n := 1; n <= settleLimit; n++ {
		f.step()
		if err := f.audit.failure(); err != nil {
			return err
		}
		if !f.agg.ConvergedSince(settleK) || !cond(f.agg.Status()) {
			continue
		}
		f.settles = append(f.settles, float64(n))
		var active []int
		for _, mb := range f.members.Members() {
			if mb.State == cluster.MemberActive {
				active = append(active, mb.ID)
			}
		}
		return f.audit.checkSettled(what, active, f.conc)
	}
	return checkf("fleet-cap: %s did not settle within %d polls", what, settleLimit)
}

// converge is set-up's last step: the replica is elected and the seeded
// fleet is healthy with the whole budget assigned.
func (f *fleet) converge() error {
	return f.settle("set-up", func(st cluster.AggregatorStatus) bool {
		return st.Leader && st.Healthy == fleetInitial && float64(st.CapsSum) >= float64(fleetBudget)-sumTol
	})
}

// play runs the scripted poll sequence.
func (f *fleet) play() error {
	for s := 0; s < fleetSteady; s++ {
		f.step()
	}
	for k, ids := range f.script.flips {
		for j, i := range ids {
			f.conc[i] = f.script.flipTo[k][j]
		}
		if err := f.settle(fmt.Sprintf("flip %d", k), func(cluster.AggregatorStatus) bool { return true }); err != nil {
			return err
		}
		for s := 0; s < fleetSteady/2; s++ {
			f.step()
		}
	}
	// Join wave: joiners are admitted at the next poll, whose reconcile
	// starts their subscriptions; they heartbeat from the poll after.
	for i := fleetInitial; i < fleetShards; i++ {
		if err := f.members.Join(f.eps[i]); err != nil {
			return err
		}
	}
	f.step()
	for i := fleetInitial; i < fleetShards; i++ {
		f.live[i] = true
	}
	if err := f.settle("join wave", func(st cluster.AggregatorStatus) bool {
		return st.Joining == 0 && st.Healthy == fleetShards
	}); err != nil {
		return err
	}
	d := f.script.drainID
	if err := f.members.Drain(d); err != nil {
		return err
	}
	if err := f.settle("drain", func(st cluster.AggregatorStatus) bool { return st.Drained == 1 }); err != nil {
		return err
	}
	if err := f.members.Decommission(d); err != nil {
		return err
	}
	f.audit.retire(d)
	f.guards[d].PowerCycle()
	f.live[d] = false
	return f.settle("decommission", func(st cluster.AggregatorStatus) bool {
		return st.Shards == fleetShards-1 && st.Healthy == fleetShards-1
	})
}

type fleetCap struct {
	o      options
	script fleetScript
	// Layer figures accumulated over traced rounds.
	counters map[string]float64
	epochs   float64
	journal  float64
	settles  []float64
	offerNS  []float64
	partNS   []float64
	traced   int
}

func newFleetCap(o options) *fleetCap {
	return &fleetCap{o: o, script: newFleetScript(o.seed), counters: map[string]float64{}}
}

// setup has nothing to share across rounds: every round sets up a
// fresh fleet and reports that set-up time itself.
func (c *fleetCap) setup() ([]time.Duration, error) { return nil, nil }

func (c *fleetCap) round(tr *tracer) (roundOut, error) {
	var out roundOut
	t0 := time.Now()
	f, err := newFleet(&c.script, c.o.seed, tr)
	if err != nil {
		return out, err
	}
	defer f.stop()
	if err := f.converge(); err != nil {
		return out, err
	}
	out.setup = time.Since(t0)
	f.pollLats = f.pollLats[:0]
	f.settles = f.settles[:0]
	var playErr error
	out.stat, _ = measure(func() error {
		playErr = f.play()
		return nil
	})
	out.ops = f.pollLats
	out.attempted = int64(len(f.pollLats))
	if tr != nil {
		c.traced++
		for _, mt := range f.reg.Snapshot() {
			c.counters[mt.Name] += mt.Value
		}
		c.epochs += float64(f.members.Epoch())
		c.journal += float64(f.journal.Len())
		c.settles = append(c.settles, f.settles...)
		c.offerNS = append(c.offerNS, f.offerNS...)
		c.partNS = append(c.partNS, f.partNS...)
	}
	return out, playErr
}

func (c *fleetCap) finish() error { return nil }

func (c *fleetCap) layers(tr *tracer, _, _ []roundOut) map[string]metric {
	m := layerMetrics()
	n := float64(c.traced)
	if n == 0 {
		return m
	}
	set(m, "cluster.partition_us", median(c.partNS)/1e3)
	set(m, "cluster.repartitions", c.counters["cluster_repartitions_total"]/n)
	set(m, "cluster.fence_grants", c.counters["cluster_fence_grants_total"]/n)
	set(m, "cluster.fence_rejects", c.counters["cluster_fence_rejects_total"]/n)
	set(m, "cluster.member_epochs", c.epochs/n)
	set(m, "cluster.settle_polls", median(c.settles))
	set(m, "rcr.fence_offer_us", median(c.offerNS)/1e3)
	set(m, "resilience.sub_frames", c.counters["resilience_client_sub_frames_total"]/n)
	set(m, "telemetry.journal_records", c.journal/n)
	set(m, "rcr.bb_writes", c.counters["rcr_blackboard_writes_total"]/n)
	set(m, "rcr.bb_reads", c.counters["rcr_blackboard_reads_total"]/n)
	return m
}
