package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"testing"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/maestro"
	"repro/internal/rcr"
)

// Each check family passes on a valid output and fails when one value
// of that output is corrupted.

func wantCheckFail(t *testing.T, what string, err error) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: corrupted output passed the check", what)
	} else if !errors.Is(err, errCheck) {
		t.Errorf("%s: got %v, want an output-check failure", what, err)
	}
}

func validSeries() experiments.Series {
	return experiments.Series{
		App:     "bots-fib-cutoff",
		Threads: []int{1, 2, 4},
		Seconds: []float64{4, 2.1, 1.2},
		Joules:  []float64{400, 300, 250},
		Watts:   []float64{100, 142, 208},
		Speedup: []float64{1, 4 / 2.1, 4 / 1.2},
	}
}

func validThrottle() experiments.ThrottleResult {
	return experiments.ThrottleResult{App: "lulesh", Rows: []experiments.ThrottleRow{
		{Config: experiments.Dynamic16, Meas: experiments.Measurement{Joules: 6800, Watts: 141, Daemon: maestro.Stats{Activations: 2}}},
		{Config: experiments.Fixed16, Meas: experiments.Measurement{Joules: 7000, Watts: 155}},
		{Config: experiments.Fixed12, Meas: experiments.Measurement{Joules: 6300, Watts: 131}},
	}}
}

func TestPaperChecks(t *testing.T) {
	cfg := machine.M620()
	if err := checkSweep(validSeries()); err != nil {
		t.Fatalf("valid sweep: %v", err)
	}
	if err := checkThrottle(validThrottle()); err != nil {
		t.Fatalf("valid throttle table: %v", err)
	}
	if err := checkEnvelope(cfg, 120); err != nil {
		t.Fatalf("valid power: %v", err)
	}

	s := validSeries()
	s.Speedup[2] = 4.1 // faster than linear on 4 workers
	wantCheckFail(t, "superlinear speedup", checkSweep(s))
	s = validSeries()
	s.Speedup[1] = 0
	wantCheckFail(t, "zero speedup", checkSweep(s))

	r := validThrottle()
	r.Rows[0].Meas.Daemon.Activations = 0
	wantCheckFail(t, "daemon never activated", checkThrottle(r))
	r = validThrottle()
	r.Rows[0].Meas.Joules = 7000
	wantCheckFail(t, "dynamic energy not below fixed-16", checkThrottle(r))
	r = validThrottle()
	r.Rows[2].Meas.Watts = 155
	wantCheckFail(t, "fixed-12 power not below fixed-16", checkThrottle(r))

	lo, hi := powerEnvelope(cfg)
	wantCheckFail(t, "power below the envelope", checkEnvelope(cfg, lo*0.99))
	wantCheckFail(t, "power above the envelope", checkEnvelope(cfg, hi*1.01))

	m := experiments.Measurement{Seconds: 1.5, Joules: 200, Watts: 133}
	if err := sameBits("same", m, 1.5, 200, 133); err != nil {
		t.Fatalf("identical run: %v", err)
	}
	wantCheckFail(t, "one bit off", sameBits("off", m, 1.5, math.Nextafter(200, 201), 133))
}

// boardSnapshot writes tick t of every meter and snapshots the board.
func boardSnapshot(t *testing.T, ms []meterDef, tick int64) (*rcr.Blackboard, rcr.Snapshot) {
	t.Helper()
	bb, err := rcr.NewBlackboard(monSockets, monPerSock)
	if err != nil {
		t.Fatal(err)
	}
	r := &rcrdMonitor{meters: ms, bb: bb}
	r.writeTick(tick)
	return bb, bb.Snapshot(0)
}

func TestRcrdChecks(t *testing.T) {
	ms := monitorMeters(7)
	_, snap := boardSnapshot(t, ms, 41)
	if lo, hi, err := snapshotTicks(ms, &snap, 40, 42); err != nil || lo != 41 || hi != 41 {
		t.Fatalf("valid query: ticks %d..%d, %v", lo, hi, err)
	}
	_, _, err := snapshotTicks(ms, &snap, 42, 43)
	wantCheckFail(t, "tick older than the query's send", err)

	corrupt := func() rcr.Snapshot {
		_, s := boardSnapshot(t, ms, 41)
		s.Sockets[1].Cores[3][0].Value = math.Nextafter(s.Sockets[1].Cores[3][0].Value, 0)
		return s
	}
	bad := corrupt()
	_, _, err = snapshotTicks(ms, &bad, 0, 100)
	wantCheckFail(t, "one meter value off", err)

	if tick, err := checkFrame(ms, 10, 40, 11, &snap); err != nil || tick != 41 {
		t.Fatalf("valid frame: tick %d, %v", tick, err)
	}
	_, err = checkFrame(ms, 11, 40, 11, &snap)
	wantCheckFail(t, "version did not increase", err)
	_, err = checkFrame(ms, 10, 41, 11, &snap)
	wantCheckFail(t, "tick did not increase", err)
	_, err = checkFrame(ms, 10, 40, 11, &bad)
	wantCheckFail(t, "final state differs from the final values", err)

	// A state that mixes two ticks is not the writer's state at any
	// instant.
	mixed := snap
	mixed.System = append([]rcr.MeterValue(nil), snap.System...)
	mixed.System[0].Value = meterValue(ms[findMeter(ms, 0, 0, mixed.System[0].Name)], 40)
	_, err = checkFrame(ms, 10, 39, 11, &mixed)
	wantCheckFail(t, "state mixes ticks", err)
}

// settledAudit is a 30-shard fleet settled on the whole budget: 22
// compute-bound shards (high headroom) at Max and 8 memory-bound ones
// sharing the rest.
func settledAudit(t *testing.T) (*capAudit, []float64) {
	t.Helper()
	const n = 30
	a := &capAudit{caps: make([]float64, n), retired: make([]bool, n)}
	conc := make([]float64, n)
	for i := range conc {
		c, w := 4.0, float64(fleetMax)
		if i >= 22 {
			c, w = 26, 50
		}
		conc[i] = c
		_ = a.applyFn(i)(w, 1)
	}
	if err := a.failure(); err != nil {
		t.Fatalf("valid applies: %v", err)
	}
	return a, conc
}

func all(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestFleetChecks(t *testing.T) {
	a, conc := settledAudit(t)
	if err := a.checkSettled("valid", all(30), conc); err != nil {
		t.Fatalf("valid settle: %v", err)
	}

	a, _ = settledAudit(t)
	_ = a.applyFn(29)(51, 1) // one watt over the budget
	wantCheckFail(t, "Σ caps over budget", a.failure())

	a, _ = settledAudit(t)
	_ = a.applyFn(29)(float64(fleetFloor)-1, 1)
	wantCheckFail(t, "cap below Floor", a.failure())
	a, _ = settledAudit(t)
	a.retire(0)
	_ = a.applyFn(1)(float64(fleetMax)+1, 1)
	wantCheckFail(t, "cap above Max", a.failure())

	a, conc = settledAudit(t)
	a.caps[29]--
	wantCheckFail(t, "settled below budget", a.checkSettled("short", all(30), conc))
	a, conc = settledAudit(t)
	a.caps[0], a.caps[29] = a.caps[29], a.caps[0] // less headroom, more watts
	wantCheckFail(t, "headroom order", a.checkSettled("inverted", all(30), conc))

	a, _ = settledAudit(t)
	a.retire(29)
	a.offered(29, rcr.CapWrite{Fence: 2, Leader: 1, Seq: 9, HasCap: true, Cap: 10})
	wantCheckFail(t, "cap write to a decommissioned shard", a.failure())
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metric
// names the benchmark prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	if len(e2e) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark prints %d", len(e2e), len(endToEnd))
	}
	for _, m := range endToEnd {
		if e2e[m.name] != m.unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, printed %q", m.name, e2e[m.name], m.unit)
		}
	}
	want := layerMetrics()
	if len(b.PerLayer) != len(want) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark prints %d", len(b.PerLayer), len(want))
	}
	for _, m := range b.PerLayer {
		if want[m.Name].Unit != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, printed %q", m.Name, m.Unit, want[m.Name].Unit)
		}
	}
}
