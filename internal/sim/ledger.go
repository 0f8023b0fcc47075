package sim

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// RadioState enumerates the radio of one node. States start at one so the
// zero value is distinguishable from "explicitly off".
type RadioState int

// Radio states.
const (
	// RadioOff — radio powered down, no energy draw.
	RadioOff RadioState = iota + 1
	// RadioRx — listening or receiving.
	RadioRx
	// RadioTx — transmitting.
	RadioTx
)

// String implements fmt.Stringer.
func (s RadioState) String() string {
	switch s {
	case RadioOff:
		return "off"
	case RadioRx:
		return "rx"
	case RadioTx:
		return "tx"
	default:
		return fmt.Sprintf("RadioState(%d)", int(s))
	}
}

// Errors returned by the ledger.
var (
	// ErrLedgerNode is returned for out-of-range node indices.
	ErrLedgerNode = errors.New("sim: ledger node out of range")
	// ErrLedgerTime is returned when a state change is reported out of order.
	ErrLedgerTime = errors.New("sim: ledger time out of order")
)

// RadioLedger accumulates per-node radio-on time, split into rx and tx, from
// a stream of (node, state, timestamp) transitions. This is the source of the
// paper's "Radio-on time" metric.
type RadioLedger struct {
	state []RadioState
	since []time.Duration
	tx    []time.Duration
	rx    []time.Duration
}

// NewRadioLedger creates a ledger for n nodes, all radios off at time zero.
func NewRadioLedger(n int) *RadioLedger {
	l := new(RadioLedger)
	l.Reset(n)
	return l
}

// Reset returns the ledger to n nodes, all radios off at time zero, reusing
// its storage when it is large enough.
func (l *RadioLedger) Reset(n int) {
	l.state = slices.Grow(l.state[:0], n)[:n]
	l.since = slices.Grow(l.since[:0], n)[:n]
	l.tx = slices.Grow(l.tx[:0], n)[:n]
	l.rx = slices.Grow(l.rx[:0], n)[:n]
	for i := range l.state {
		l.state[i] = RadioOff
	}
	clear(l.since)
	clear(l.tx)
	clear(l.rx)
}

// NumNodes returns the ledger width.
func (l *RadioLedger) NumNodes() int { return len(l.state) }

// SetState records that node's radio entered state at virtual time now.
// Time must be monotone per node.
func (l *RadioLedger) SetState(node int, state RadioState, now time.Duration) error {
	if node < 0 || node >= len(l.state) {
		return fmt.Errorf("%w: %d", ErrLedgerNode, node)
	}
	if now < l.since[node] {
		return fmt.Errorf("%w: node %d at %v, last %v", ErrLedgerTime, node, now, l.since[node])
	}
	l.accumulate(node, now)
	l.state[node] = state
	return nil
}

// CloseAt finalizes accounting at the end of a simulation: every radio is
// considered off from now on.
func (l *RadioLedger) CloseAt(now time.Duration) error {
	for i := range l.state {
		if err := l.SetState(i, RadioOff, now); err != nil {
			return err
		}
	}
	return nil
}

func (l *RadioLedger) accumulate(node int, now time.Duration) {
	elapsed := now - l.since[node]
	switch l.state[node] {
	case RadioRx:
		l.rx[node] += elapsed
	case RadioTx:
		l.tx[node] += elapsed
	case RadioOff:
		// no draw
	}
	l.since[node] = now
}

// TxTime returns accumulated transmit time for node.
func (l *RadioLedger) TxTime(node int) time.Duration { return l.tx[node] }

// RxTime returns accumulated receive/listen time for node.
func (l *RadioLedger) RxTime(node int) time.Duration { return l.rx[node] }

// OnTime returns total radio-on time (tx+rx) for node.
func (l *RadioLedger) OnTime(node int) time.Duration { return l.tx[node] + l.rx[node] }

// TotalOnTime sums radio-on time over all nodes.
func (l *RadioLedger) TotalOnTime() time.Duration {
	var total time.Duration
	for i := range l.state {
		total += l.OnTime(i)
	}
	return total
}

// MeanOnTime returns the per-node average radio-on time.
func (l *RadioLedger) MeanOnTime() time.Duration {
	if len(l.state) == 0 {
		return 0
	}
	return l.TotalOnTime() / time.Duration(len(l.state))
}

// MaxOnTime returns the largest per-node radio-on time (the bottleneck node
// that determines network lifetime).
func (l *RadioLedger) MaxOnTime() time.Duration {
	var m time.Duration
	for i := range l.state {
		if on := l.OnTime(i); on > m {
			m = on
		}
	}
	return m
}

// AddBulk credits node with tx and rx time directly. Slot-synchronous
// protocol code that processes an entire TDMA slot at once uses this instead
// of issuing two SetState transitions per sub-slot, which would dominate
// runtime at n² sub-slots per chain.
func (l *RadioLedger) AddBulk(node int, tx, rx time.Duration) error {
	if node < 0 || node >= len(l.state) {
		return fmt.Errorf("%w: %d", ErrLedgerNode, node)
	}
	if tx < 0 || rx < 0 {
		return fmt.Errorf("%w: negative bulk credit", ErrLedgerTime)
	}
	l.tx[node] += tx
	l.rx[node] += rx
	return nil
}
