package sim

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestLedgerAccumulatesByState(t *testing.T) {
	l := NewRadioLedger(2)
	mustSet := func(node int, s RadioState, at time.Duration) {
		t.Helper()
		if err := l.SetState(node, s, at); err != nil {
			t.Fatal(err)
		}
	}
	mustSet(0, RadioRx, 0)
	mustSet(0, RadioTx, 10*time.Millisecond)
	mustSet(0, RadioOff, 15*time.Millisecond)
	if err := l.CloseAt(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}

	if got := l.RxTime(0); got != 10*time.Millisecond {
		t.Errorf("RxTime = %v, want 10ms", got)
	}
	if got := l.TxTime(0); got != 5*time.Millisecond {
		t.Errorf("TxTime = %v, want 5ms", got)
	}
	if got := l.OnTime(0); got != 15*time.Millisecond {
		t.Errorf("OnTime = %v, want 15ms", got)
	}
	if got := l.OnTime(1); got != 0 {
		t.Errorf("idle node OnTime = %v, want 0", got)
	}
}

// TestLedgerReset reuses a ledger left mid-state at a larger and a smaller
// width: each Reset must equal a fresh ledger of that width.
func TestLedgerReset(t *testing.T) {
	l := NewRadioLedger(4)
	for _, n := range []int{6, 2} {
		if err := l.SetState(1, RadioRx, time.Millisecond); err != nil {
			t.Fatal(err)
		}
		if err := l.AddBulk(0, time.Millisecond, 2*time.Millisecond); err != nil {
			t.Fatal(err)
		}
		l.Reset(n)
		if !reflect.DeepEqual(l, NewRadioLedger(n)) {
			t.Fatalf("Reset(%d) = %+v, want a fresh ledger", n, l)
		}
	}
}

func TestLedgerAggregates(t *testing.T) {
	l := NewRadioLedger(3)
	if err := l.AddBulk(0, 10*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	if err := l.AddBulk(1, 0, 20*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := l.TotalOnTime(); got != 30*time.Millisecond {
		t.Errorf("TotalOnTime = %v, want 30ms", got)
	}
	if got := l.MeanOnTime(); got != 10*time.Millisecond {
		t.Errorf("MeanOnTime = %v, want 10ms", got)
	}
	if got := l.MaxOnTime(); got != 20*time.Millisecond {
		t.Errorf("MaxOnTime = %v, want 20ms", got)
	}
}

func TestLedgerErrors(t *testing.T) {
	l := NewRadioLedger(1)
	if err := l.SetState(5, RadioRx, 0); !errors.Is(err, ErrLedgerNode) {
		t.Errorf("bad node: %v, want ErrLedgerNode", err)
	}
	if err := l.SetState(0, RadioRx, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := l.SetState(0, RadioOff, time.Millisecond); !errors.Is(err, ErrLedgerTime) {
		t.Errorf("backwards: %v, want ErrLedgerTime", err)
	}
	if err := l.AddBulk(3, 0, 0); !errors.Is(err, ErrLedgerNode) {
		t.Errorf("AddBulk bad node: %v, want ErrLedgerNode", err)
	}
	if err := l.AddBulk(0, -time.Millisecond, 0); !errors.Is(err, ErrLedgerTime) {
		t.Errorf("AddBulk negative: %v, want ErrLedgerTime", err)
	}
}

func TestLedgerMeanEmpty(t *testing.T) {
	l := NewRadioLedger(0)
	if got := l.MeanOnTime(); got != 0 {
		t.Errorf("MeanOnTime on empty = %v", got)
	}
}

func TestRadioStateString(t *testing.T) {
	tests := []struct {
		s    RadioState
		want string
	}{
		{RadioOff, "off"},
		{RadioRx, "rx"},
		{RadioTx, "tx"},
		{RadioState(99), "RadioState(99)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("String(%d) = %q, want %q", int(tt.s), got, tt.want)
		}
	}
}

func TestDeriveSeedIndependence(t *testing.T) {
	seen := make(map[int64]uint64)
	for stream := uint64(0); stream < 1000; stream++ {
		s := DeriveSeed(42, stream)
		if prev, dup := seen[s]; dup {
			t.Fatalf("streams %d and %d collide", prev, stream)
		}
		seen[s] = stream
	}
}

func TestDeriveSeedDeterministic(t *testing.T) {
	if DeriveSeed(1, 2) != DeriveSeed(1, 2) {
		t.Error("DeriveSeed not deterministic")
	}
	if DeriveSeed(1, 2) == DeriveSeed(2, 2) {
		t.Error("different roots collide")
	}
}

func TestNewRNGStreamsDiffer(t *testing.T) {
	a := NewRNG(7, 0)
	b := NewRNG(7, 1)
	same := true
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			same = false
			break
		}
	}
	if same {
		t.Error("distinct streams produced identical sequences")
	}
}
