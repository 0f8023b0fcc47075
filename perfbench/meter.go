package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"os/exec"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// The host this benchmark was defined on changes speed by up to 2x within
// seconds as its neighbours come and go. A meter therefore samples the
// host's speed all through a run: every meterEvery it runs a fixed
// arithmetic kernel for meterBurst on one thread and notes how many
// operations it completed per second of that thread's CPU time. Times
// measured over a window are then scaled by the speed of the bursts in
// that window.
//
// Operations per CPU-second of the meter's own thread do not drop when the
// program takes CPU from it (the thread is simply not running then), and
// the meter shares no heap or scheduler with the program: only a slower
// core moves the figure. It costs the load a fixed share of one CPU
// (meterBurst/meterEvery) on every workload.
const (
	meterEvery = 50 * time.Millisecond
	meterBurst = 500 * time.Microsecond
)

// refSpeed is the meter speed, in operations per CPU-second, of the
// reference host all reported times are scaled to (a mid value of the
// 2-vCPU host the benchmark was defined on, whose 1 s readings ranged
// 1 100 000–1 840 000).
const refSpeed = 1300000

// speedExponent is how strongly the program's times follow the meter: on
// the reference host, a slowdown that cut the meter's speed by a factor f
// stretched the workloads' times by about f^1.5. The meter's dependent
// multiply chain is latency-bound and loses less to a busy neighbour than
// the program's allocation- and memory-heavy code does. Over six runs of
// each workload, spread across a quarter hour, the run medians spread
// least with 1.5: 0.05–0.085 against 0.08–0.10 with 1 and 0.05–0.11 with 2.
const speedExponent = 1.5

// scaled converts a duration measured while the host's meter read speed
// into reference-host time: d · (speed/refSpeed)^speedExponent.
func scaled(d time.Duration, speed float64) time.Duration {
	return time.Duration(float64(d) * math.Pow(speed/refSpeed, speedExponent))
}

// meterOp is one metering operation: 64 rounds of a 4-limb
// multiply-accumulate, the inner loop of multi-precision arithmetic.
func meterOp(x *[4]uint64) {
	for r := 0; r < 64; r++ {
		y := x[r&3] | 1
		var c uint64
		for i := range x {
			hi, lo := bits.Mul64(x[i], y)
			var cc uint64
			x[i], cc = bits.Add64(lo, c, 0)
			c = hi + cc
		}
		x[0] ^= c
	}
}

// burst is one metering burst: operations done and the CPU time they took.
type burst struct {
	at  time.Time // when the burst ended
	ops int64
	cpu time.Duration
}

// hostMeter is the benchmark's handle on the meter, which runs as a child
// process (this program with --meter). In a process of its own the meter
// wakes on the operating system's timer alone. As a goroutine of the
// benchmark it had to be handed a Go processor at every burst, which on
// the host the benchmark was defined on cost sweep-cold about a fifth of
// its throughput.
type hostMeter struct {
	cmd    *exec.Cmd
	req    io.WriteCloser
	resp   *bufio.Reader
	bursts []burst
}

func startMeter() (*hostMeter, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--meter")
	cmd.Stderr = os.Stderr
	req, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	resp, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start meter: %w", err)
	}
	return &hostMeter{cmd: cmd, req: req, resp: bufio.NewReader(resp)}, nil
}

// speed is the host's speed over [from, to], from the bursts the meter has
// finished by now.
func (m *hostMeter) speed(from, to time.Time) (float64, error) {
	if _, err := m.req.Write([]byte("\n")); err != nil {
		return 0, fmt.Errorf("meter: %w", err)
	}
	for {
		line, err := m.resp.ReadString('\n')
		if err != nil {
			return 0, fmt.Errorf("meter: %w", err)
		}
		if line == "end\n" {
			break
		}
		var at, ops, cpu int64
		if _, err := fmt.Sscan(line, &at, &ops, &cpu); err != nil {
			return 0, fmt.Errorf("meter: %q: %w", line, err)
		}
		m.bursts = append(m.bursts, burst{at: time.Unix(0, at), ops: ops, cpu: time.Duration(cpu)})
	}
	return windowSpeed(m.bursts, from, to), nil
}

// close stops the meter process and waits for it to end.
func (m *hostMeter) close() {
	m.req.Close()
	m.cmd.Process.Kill()
	m.cmd.Wait()
}

// windowSpeed is operations per CPU-second of the bursts that ended in
// [from, to], or of the nearest burst when the window is shorter than
// meterEvery; NaN without bursts.
func windowSpeed(bursts []burst, from, to time.Time) float64 {
	var ops int64
	var cpu time.Duration
	var nearest *burst
	for i := range bursts {
		b := &bursts[i]
		if !b.at.Before(from) && !b.at.After(to) {
			ops += b.ops
			cpu += b.cpu
		}
		if nearest == nil || absDur(b.at.Sub(to)) < absDur(nearest.at.Sub(to)) {
			nearest = b
		}
	}
	if cpu <= 0 && nearest != nil {
		ops, cpu = nearest.ops, nearest.cpu
	}
	if cpu <= 0 {
		return math.NaN()
	}
	return float64(ops) / cpu.Seconds()
}

// runMeter is the meter process. It runs a burst every meterEvery until
// its input ends, and answers each input line with the bursts finished
// since its last answer, one "end-unix-ns ops cpu-ns" line each, then
// "end".
func runMeter() {
	var mu sync.Mutex
	var pending []burst
	go func() {
		in, out := bufio.NewReader(os.Stdin), bufio.NewWriter(os.Stdout)
		for {
			if _, err := in.ReadString('\n'); err != nil {
				os.Exit(0) // the benchmark has ended
			}
			mu.Lock()
			done := pending
			pending = nil
			mu.Unlock()
			for _, b := range done {
				fmt.Fprintf(out, "%d %d %d\n", b.at.UnixNano(), b.ops, int64(b.cpu))
			}
			out.WriteString("end\n")
			out.Flush()
		}
	}()
	// Pinned to one thread, the goroutine's CPU time is the thread's.
	runtime.LockOSThread()
	x := [4]uint64{1, 2, 3, 4}
	for range time.Tick(meterEvery) {
		c0, t0 := threadCPU(), time.Now()
		var ops int64
		for time.Since(t0) < meterBurst {
			meterOp(&x)
			ops++
		}
		b := burst{at: time.Now(), ops: ops, cpu: threadCPU() - c0}
		if c0 < 0 {
			b.cpu = b.at.Sub(t0) // no per-thread times: wall time instead
		}
		mu.Lock()
		pending = append(pending, b)
		mu.Unlock()
		meterSink += x[0]
	}
}

// meterSink keeps the kernel's result alive, so it cannot be optimised
// away.
var meterSink uint64

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// processCPU is the whole process's CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
