package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 50}, {5, 50}, {19, 50}, // too few for a tail: the median
		{20, 50}, {28, 64}, {50, 80}, {99, 89},
		{100, 90}, {1000, 90}, // p90 once 100 samples exist, never higher
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	// The rule's invariant, checked exhaustively: the chosen percentile
	// leaves at least minBeyond samples above its nearest rank, and the
	// next percentile up would not.
	for n := 20; n <= 2000; n++ {
		p := tailPercentile(n)
		rank := int(math.Ceil(float64(p) * float64(n) / 100))
		if n-rank < minBeyond {
			t.Fatalf("n=%d: p%d has %d samples beyond", n, p, n-rank)
		}
		if next := int(math.Ceil(float64(p+1) * float64(n) / 100)); p < 90 && n-next >= minBeyond {
			t.Fatalf("n=%d: p%d chosen but p%d also leaves %d beyond", n, p, p+1, n-next)
		}
	}
}

func TestTailReportsThePercentileSample(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	if got := tail(xs); got != 90 {
		t.Errorf("tail of 1..100 = %v, want 90 (ten samples beyond)", got)
	}
	if got := tail([]float64{3, 1, 2}); got != 2 {
		t.Errorf("tail of 3 samples = %v, want the median", got)
	}
	if got := tail([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("tail of 4 samples = %v, want the median 2.5", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("empty samples must give NaN")
	}
}

func sp(id, parent, start, end int64) span {
	return span{ID: id, Parent: parent, Start: start, End: end}
}

func TestSelfTimeSubtractsChildCoveredInterval(t *testing.T) {
	parent := sp(1, 0, 0, 100)
	cases := []struct {
		name string
		kids []span
		want time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(2, 1, 10, 20), sp(3, 1, 50, 80)}, 60},
		{"overlapping count once", []span{sp(2, 1, 10, 40), sp(3, 1, 30, 60)}, 50},
		{"nested", []span{sp(2, 1, 10, 90), sp(3, 1, 20, 30)}, 20},
		{"touching", []span{sp(2, 1, 0, 50), sp(3, 1, 50, 100)}, 0},
		{"clipped to the parent", []span{sp(2, 1, -20, 10), sp(3, 1, 95, 140)}, 85},
		{"outside the parent", []span{sp(2, 1, 120, 130)}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.kids); got != c.want {
			t.Errorf("%s: self time %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRemainderIsUnattributedShare(t *testing.T) {
	if got := remainder(0.25, 0.5); got != 0.25 {
		t.Errorf("remainder(0.25, 0.5) = %v, want 0.25", got)
	}
	if got := remainder(); got != 1 {
		t.Errorf("remainder() = %v, want 1", got)
	}
	if got := remainder(0.75, 0.5); got != -0.25 {
		t.Errorf("over-explained remainder = %v, want -0.25", got)
	}
}

// A layer's share is unit cost × per-trial count over the measured round
// time, and the remainder is what the shares leave unexplained.
func TestLayerMetricsDecomposition(t *testing.T) {
	cell := &cellLayers{
		trials: 64, batches: 1, lanes: 64, rounds: 64 * 10 * time.Microsecond,
		seals: 2, opens: 1, sealNs: 1000, openNs: 1000, pairKeyNs: 0,
		splits: 1, splitNs: 2000, recons: 1, reconNs: 0,
		chainNs: 64 * 1000, reconChainNs: 0,
		correct: 1, nodes: 1, links: 1,
	}
	m := map[string]float64{}
	layerMetrics([]*cellLayers{cell}, m)
	want := map[string]float64{
		"seckey.share_of_round":   0.3, // (2+1)·1µs of 10µs per trial
		"shamir.share_of_round":   0.2,
		"vss.share_of_round":      0,
		"minicast.share_of_round": 0.1, // one 64µs chain per 64-trial batch
		"core.unattributed_share": 0.4,
		"core.round_us_per_trial": 10,
	}
	for k, v := range want {
		if math.Abs(m[k]-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

func TestRecorderSpansAndMerge(t *testing.T) {
	var none *recorder
	none.start("x", "", 0).end() // untraced mode is a no-op

	r := newRecorder()
	job := r.start("bench.job", "j1", 0)
	r.start("service.submit", "j1", job.id()).end()
	job.end()
	if got := len(r.children(job.id())); got != 1 {
		t.Fatalf("children = %d, want 1", got)
	}
	probe := newRecorder()
	probe.start("bench.job", "p1", 0).endOps(3)
	r.merge(probe, "probe.")
	if len(r.named("bench.job")) != 1 || len(r.named("probe.bench.job")) != 1 {
		t.Fatal("merged spans must keep apart under their prefix")
	}
	ids := map[int64]bool{}
	for _, s := range r.spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d after merge", s.ID)
		}
		ids[s.ID] = true
	}
}

// A window's speed is its bursts' operations over their CPU time; a window
// too short to hold a burst takes the nearest one.
func TestMeterSpeedOverWindow(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	bursts := []burst{
		{at: at(25), ops: 100, cpu: time.Millisecond},
		{at: at(50), ops: 300, cpu: time.Millisecond},
		{at: at(75), ops: 50, cpu: 500 * time.Microsecond},
	}
	cases := []struct {
		name     string
		from, to time.Time
		want     float64
	}{
		{"all bursts", at(0), at(100), 450 / 2.5e-3},
		{"bursts are weighted by CPU time", at(40), at(80), 350 / 1.5e-3},
		{"ends are inclusive", at(25), at(25), 100 / 1e-3},
		{"nearest burst", at(60), at(70), 50 / 0.5e-3},
	}
	for _, c := range cases {
		if got := windowSpeed(bursts, c.from, c.to); math.Abs(got-c.want) > 1e-6*c.want {
			t.Errorf("%s: speed %v, want %v", c.name, got, c.want)
		}
	}
	if !math.IsNaN(windowSpeed(nil, at(0), at(1))) {
		t.Error("a window without bursts must give NaN")
	}
}

// A time taken at the reference speed is kept; one taken on a host whose
// meter reads four times as fast counts 4^1.5 = 8 times.
func TestScaledToReferenceHost(t *testing.T) {
	if got := scaled(time.Second, refSpeed); got != time.Second {
		t.Errorf("at the reference speed: %v, want 1s", got)
	}
	if got := scaled(time.Second, 4*refSpeed); got != 8*time.Second {
		t.Errorf("at four times the reference speed: %v, want 8s", got)
	}
}

// BENCHMARK.json must name exactly the metrics the program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if e := b.EndToEnd[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("end_to_end[%d] = %+v, program says %+v", i, e, d)
		}
	}
	for i, d := range perLayer {
		if e := b.PerLayer[i]; e.Name != d.name || e.Unit != d.unit || e.Better != d.better {
			t.Errorf("per_layer[%d] = %+v, program says %+v", i, e, d)
		}
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not in the program", w.Name)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
}
