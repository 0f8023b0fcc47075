package phy

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestAirtime(t *testing.T) {
	p := DefaultParams()
	tests := []struct {
		name    string
		payload int
		want    time.Duration
	}{
		// 250 kbit/s = 32 µs per byte; 6 bytes PHY overhead.
		{"empty payload", 0, 192 * time.Microsecond},
		{"one byte", 1, 224 * time.Microsecond},
		{"32 bytes", 32, (6 + 32) * 32 * time.Microsecond},
		{"max PSDU", MaxPSDU, (6 + 127) * 32 * time.Microsecond},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := p.Airtime(tt.payload)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("Airtime(%d) = %v, want %v", tt.payload, got, tt.want)
			}
		})
	}
}

func TestAirtimeErrors(t *testing.T) {
	p := DefaultParams()
	for _, payload := range []int{-1, MaxPSDU + 1} {
		if _, err := p.Airtime(payload); !errors.Is(err, ErrPayloadTooLarge) {
			t.Errorf("Airtime(%d) error = %v, want ErrPayloadTooLarge", payload, err)
		}
	}
}

func TestSlotDuration(t *testing.T) {
	p := DefaultParams()
	slot, err := p.SlotDuration(10)
	if err != nil {
		t.Fatal(err)
	}
	air, _ := p.Airtime(10)
	if slot != air+p.SlotGuard {
		t.Errorf("SlotDuration = %v, want airtime+guard = %v", slot, air+p.SlotGuard)
	}
}

func TestValidate(t *testing.T) {
	good := DefaultParams()
	if err := good.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"zero bitrate", func(p *Params) { p.BitrateBps = 0 }},
		{"negative overhead", func(p *Params) { p.PHYOverheadBytes = -1 }},
		{"zero exponent", func(p *Params) { p.PathLossExponent = 0 }},
		{"zero prr width", func(p *Params) { p.PRRWidthDB = 0 }},
		{"negative guard", func(p *Params) { p.SlotGuard = -time.Microsecond }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := DefaultParams()
			tt.mutate(&p)
			if err := p.Validate(); !errors.Is(err, ErrBadParams) {
				t.Errorf("error = %v, want ErrBadParams", err)
			}
		})
	}
}

func TestChargeMicroCoulombs(t *testing.T) {
	p := DefaultParams()
	got := p.ChargeMicroCoulombs(time.Second, 0)
	if math.Abs(got-p.TxCurrentMA*1e3) > 1e-9 {
		t.Errorf("1s tx charge = %f µC, want %f", got, p.TxCurrentMA*1e3)
	}
}

func linePositions(n int, spacing float64) []Position {
	pos := make([]Position, n)
	for i := range pos {
		pos[i] = Position{X: float64(i) * spacing}
	}
	return pos
}

func TestNewChannelDeterministic(t *testing.T) {
	pos := linePositions(5, 10)
	a, err := NewLogDistance(DefaultParams(), pos, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLogDistance(DefaultParams(), pos, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 5; j++ {
			if i != j && a.rssi[i][j] != b.rssi[i][j] {
				t.Fatalf("same seed, different RSSI at (%d,%d)", i, j)
			}
		}
	}
}

func TestChannelReciprocity(t *testing.T) {
	c, err := NewLogDistance(DefaultParams(), linePositions(6, 8), 1)
	if err != nil {
		t.Fatal(err)
	}
	table := c.LinkTable()
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if c.rssi[i][j] != c.rssi[j][i] || table.PRR(i, j) != table.PRR(j, i) {
				t.Fatalf("link (%d,%d) not reciprocal", i, j)
			}
		}
	}
}

func TestRSSIDecreasesWithDistance(t *testing.T) {
	// Disable shadowing so monotonicity is exact.
	p := DefaultParams()
	p.ShadowingSigmaDB = 0
	c, err := NewLogDistance(p, linePositions(10, 5), 1)
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for j := 1; j < 10; j++ {
		r := c.rssi[0][j]
		if r >= prev {
			t.Fatalf("RSSI not monotone: node %d has %f >= %f", j, r, prev)
		}
		prev = r
	}
}

func TestPRRProperties(t *testing.T) {
	p := DefaultParams()
	p.ShadowingSigmaDB = 0
	c, err := NewLogDistance(p, linePositions(2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	table := c.LinkTable()
	if prr := table.PRR(0, 1); prr < 0.99 {
		t.Errorf("1 m link PRR = %f, want ≈1", prr)
	}
	if prr := table.PRR(1, 1); prr != 0 {
		t.Errorf("self PRR = %f, want 0", prr)
	}
	// Below sensitivity → exactly zero.
	if got := table.prrFromRSSI(p.SensitivityDBm - 1); got != 0 {
		t.Errorf("below-sensitivity PRR = %f, want 0", got)
	}
}

func TestReceiveSingleExtremes(t *testing.T) {
	p := DefaultParams()
	p.ShadowingSigmaDB = 0
	p.FadingSigmaDB = 0
	// Nodes 1 m apart: guaranteed reception. 10 km apart: none.
	c, err := NewLogDistance(p, []Position{{0, 0}, {1, 0}, {10000, 0}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	table := c.LinkTable()
	rng := rand.New(rand.NewSource(1))
	okCount := 0
	for i := 0; i < 100; i++ {
		if table.ReceiveSingle(0, 1, rng) {
			okCount++
		}
	}
	if okCount < 99 {
		t.Errorf("strong link delivered %d/100", okCount)
	}
	for i := 0; i < 100; i++ {
		if table.ReceiveSingle(0, 2, rng) {
			t.Fatal("10 km link delivered a packet")
		}
		if table.ReceiveSingle(1, 1, rng) {
			t.Fatal("a node received itself")
		}
	}
}

func TestReceiveConcurrentBoostsMarginalLink(t *testing.T) {
	// Put rx at a distance where a single tx struggles, then add synchronized
	// transmitters: reception rate must improve (constructive interference).
	p := DefaultParams()
	p.ShadowingSigmaDB = 0
	positions := []Position{
		{0, 0}, {1, 0}, {2, 0}, {3, 0}, // transmitters
		{62, 0}, // marginal receiver
	}
	c, err := NewLogDistance(p, positions, 1)
	if err != nil {
		t.Fatal(err)
	}
	table := c.LinkTable()
	countSuccesses := func(txers []int, seed int64) int {
		rng := rand.New(rand.NewSource(seed))
		n := 0
		for i := 0; i < 3000; i++ {
			if table.ReceiveConcurrentFast(4, txers, rng) {
				n++
			}
		}
		return n
	}
	single := countSuccesses([]int{0}, 7)
	quad := countSuccesses([]int{0, 1, 2, 3}, 7)
	if quad <= single {
		t.Errorf("CT did not help: single=%d quad=%d", single, quad)
	}
}

func TestReceiveConcurrentTransmitterCannotReceive(t *testing.T) {
	c, err := NewLogDistance(DefaultParams(), linePositions(3, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	if c.LinkTable().ReceiveConcurrentFast(1, []int{0, 1}, rng) {
		t.Error("node received while transmitting in the same slot")
	}
}

func TestReceiveConcurrentEmpty(t *testing.T) {
	c, err := NewLogDistance(DefaultParams(), linePositions(2, 1), 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.LinkTable().ReceiveConcurrentFast(0, nil, rand.New(rand.NewSource(1))) {
		t.Error("reception with no transmitters")
	}
}

func TestHopDistancesAndDiameter(t *testing.T) {
	p := DefaultParams()
	p.ShadowingSigmaDB = 0
	c, err := NewLogDistance(p, linePositions(6, 35), 1)
	if err != nil {
		t.Fatal(err)
	}
	table := c.LinkTable()
	dist := table.HopDistances(0, 0.9)
	if dist[0] != 0 {
		t.Errorf("dist to self = %d", dist[0])
	}
	// Distances must be non-decreasing along the line.
	for i := 1; i < len(dist); i++ {
		if dist[i] < dist[i-1] {
			t.Errorf("hop distance not monotone along line: %v", dist)
		}
	}
	diam, connected := table.Diameter(0.9)
	if !connected {
		t.Fatal("line topology disconnected at 35 m spacing")
	}
	if diam < 2 {
		t.Errorf("diameter = %d, want multi-hop (>=2)", diam)
	}
}

func TestNewChannelErrors(t *testing.T) {
	if _, err := NewLogDistance(DefaultParams(), nil, 1); !errors.Is(err, ErrNoNodes) {
		t.Errorf("empty: %v, want ErrNoNodes", err)
	}
	bad := DefaultParams()
	bad.BitrateBps = 0
	if _, err := NewLogDistance(bad, linePositions(2, 1), 1); !errors.Is(err, ErrBadParams) {
		t.Errorf("bad params: %v, want ErrBadParams", err)
	}
}

func TestChannelAccessors(t *testing.T) {
	p := DefaultParams()
	c, err := NewLogDistance(p, linePositions(4, 10), 1)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumNodes() != 4 {
		t.Errorf("NumNodes = %d, want 4", c.NumNodes())
	}
	if got := c.Params(); got != p {
		t.Error("Params does not round-trip")
	}
}

func TestBeatingLossReducesCTReliability(t *testing.T) {
	base := DefaultParams()
	base.ShadowingSigmaDB = 0
	base.FadingSigmaDB = 0
	count := func(beating float64) int {
		p := base
		p.CTBeatingLoss = beating
		c, err := NewLogDistance(p, []Position{{0, 0}, {2, 0}, {1, 0}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		table := c.LinkTable()
		rng := rand.New(rand.NewSource(3))
		got := 0
		for i := 0; i < 2000; i++ {
			if table.ReceiveConcurrentFast(2, []int{0, 1}, rng) {
				got++
			}
		}
		return got
	}
	clean := count(0)
	noisy := count(0.3)
	if noisy >= clean {
		t.Errorf("beating loss did not reduce receptions: clean=%d noisy=%d", clean, noisy)
	}
	if noisy < 1200 || noisy > 1600 {
		t.Errorf("30%% beating loss gave %d/2000 receptions, want ≈1400", noisy)
	}
}

func TestPositionDistance(t *testing.T) {
	a := Position{0, 0}
	b := Position{3, 4}
	if got := a.Distance(b); got != 5 {
		t.Errorf("Distance = %f, want 5", got)
	}
}
