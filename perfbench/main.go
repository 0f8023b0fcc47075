// Command perfbench is the repository benchmark. It runs one workload from a
// single process over the repository's internal packages and prints every
// metric by name and unit; the last line of standard output is one JSON
// object {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics. --trace 1 is the separate
// traced run: it measures the load in untraced and traced quarters, with
// spans recorded around every call the benchmark makes into a layer,
// derives the per-layer metrics from those spans, and reports the slowdown
// of the traced quarters as bench.trace_overhead. README.md maps each per-layer metric
// to the end-to-end metric and workload it should move.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// nproc bounds every workload's worker goroutines and client connections:
// the benchmark is sized for a 2-CPU host, and a fixed width keeps figures
// comparable across hosts with more cores.
const nproc = 2

// A run builds its set-up at least minSetups times, and keeps repeating it
// until the set-ups together have taken setupBudget; setup_s is the median,
// and only the last set-up carries the timed load. A sweep's set-up is an
// expansion of 15–35 µs, so it is repeated tens of thousands of times:
// 25 samples of so short a span left a median that moved by more than half
// from run to run. Set-ups of a second or more stop at minSetups, which
// keeps service-churn's two-second store fill to about ten seconds a run.
const (
	minSetups   = 5
	setupBudget = time.Second
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what --trace 0 reports for every workload. A "job" is one
// unit a user waits for: a whole Runner sweep in the sweep workloads, one
// submitted matrix in the service ones.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"trials_per_s", "trials/s", "higher"},
	{"jobs_per_s", "jobs/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p90_ms", "ms", "lower"},
	{"first_row_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// env is one workload's built set-up.
type env interface {
	// load runs the closed loop for about seconds of measured time; rec
	// is nil on untraced loads.
	load(seconds float64, rec *recorder) (*loadStats, error)
	// check verifies every output the loads produced against a reference
	// path, outside any timed region, and counts what it verified.
	check(rec *recorder) (attempted, failed int)
	// layers measures the per-layer probes of a traced run into m and
	// counts the outputs it verified on the way.
	layers(rec *recorder, m map[string]float64) (attempted, failed int, err error)
	close()
}

// loadStats is what one closed loop measured.
type loadStats struct {
	wall              time.Duration // measured time the rates divide by
	jobs              []jobSample
	trials            int
	attempted, failed int
	slices            []slice // filled by measure
}

// jobSample is one job's client-side timeline from submission.
type jobSample struct {
	first, last time.Duration // first and last result byte
}

// slice is one stretch of load under one host-speed figure.
type slice struct {
	wall  time.Duration
	speed float64 // the meter's speed over the slice
}

// refWall is the load's measured time on the reference host's clock. Rates
// divide the whole run's work by it, so an occasional stalled job costs
// the run its true share of time.
func (st *loadStats) refWall() time.Duration {
	var t time.Duration
	for _, sl := range st.slices {
		t += scaled(sl.wall, sl.speed)
	}
	return t
}

// workloads maps each workload name to its set-up.
var workloads = map[string]func(seed int64, dir string) (env, error){
	"sweep-cold":       newSweepCold,
	"sweep-verifiable": newSweepVerifiable,
	"service-churn":    newServiceChurn,
	"fleet":            newFleet,
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "workload seed; every input derives from it")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	meter := flag.Bool("meter", false, "run as the benchmark's host-speed meter (started by the benchmark itself)")
	flag.Parse()
	if *meter {
		runMeter()
		return
	}
	o.trace = trace == 1
	if _, ok := workloads[o.workload]; !ok || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload {%s} --seed N --seconds S --trace {0,1}\n",
			strings.Join(workloadNames(), ","))
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	raw, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run builds the set-up repeatedly (see minSetups), runs the load on the
// last one, checks every output, and assembles the result.
func run(o options) (result, error) {
	work, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("run-%s-%d", o.workload, os.Getpid())))
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(work)

	var setups []float64
	var e env
	var spent time.Duration
	meter, err := startMeter()
	if err != nil {
		return result{}, err
	}
	defer meter.close()
	setupStart := time.Now()
	for i := 0; ; i++ {
		dir := filepath.Join(work, fmt.Sprintf("setup%d", i))
		t0 := time.Now()
		cur, err := workloads[o.workload](o.seed, dir)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0)
		spent += took
		setups = append(setups, took.Seconds())
		if i+1 >= minSetups && spent >= setupBudget {
			e = cur
			break
		}
		cur.close()
		os.RemoveAll(dir)
	}
	defer e.close()
	setupSpeed, err := meter.speed(setupStart, time.Now())
	if err != nil {
		return result{}, err
	}

	res := result{Metrics: map[string]metricValue{}}
	if !o.trace {
		// Set-up garbage goes back to the OS first, so the memory figure
		// is the load's.
		runtime.GC()
		debug.FreeOSMemory()
		rss := startRSS()
		host0 := readHost()
		st, err := measure(e, meter, o.seconds, nil)
		host := readHost().since(host0)
		peakRSS := rss.finish()
		if err != nil {
			return result{}, err
		}
		attempted, failed := e.check(nil)
		res.Attempted, res.Failed = st.attempted+attempted, st.failed+failed
		var last, first []float64
		for _, j := range st.jobs {
			last = append(last, float64(j.last))
			first = append(first, float64(j.first))
		}
		vals := map[string]float64{
			"setup_s":      scaled(time.Duration(median(setups)*1e9), setupSpeed).Seconds(),
			"trials_per_s": float64(st.trials) / st.refWall().Seconds(),
			"jobs_per_s":   float64(len(st.jobs)) / st.refWall().Seconds(),
			"job_p50_ms":   median(last) / 1e6,
			"job_p90_ms":   tail(last) / 1e6,
			"first_row_s":  median(first) / 1e9,
			"peak_rss_mb":  peakRSS,
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
		}
		printHuman(o, res, len(st.jobs), tailPercentile(len(last)))
		var speeds []float64
		for _, sl := range st.slices {
			speeds = append(speeds, sl.speed)
		}
		fmt.Printf("  host: %.2f s process CPU and %.2f s stolen during the load; meter %.0f ops/CPU-s "+
			"(set-up %.0f, slices %.0f..%.0f) against the reference %d\n",
			host.cpu.Seconds(), host.steal.Seconds(), median(speeds), setupSpeed,
			quantile(speeds, 0), quantile(speeds, 1), refSpeed)
		fmt.Printf("  set-up: %d built, unscaled quartiles %.4g, %.4g, %.4g s\n", len(setups),
			quantile(setups, 0.25), quantile(setups, 0.5), quantile(setups, 0.75))
	} else {
		// Untraced and traced segments alternate U T T U, so drift over the
		// run (a growing store, a warming cache) cancels out of the
		// overhead figure instead of landing on the traced half.
		rec := newRecorder()
		var base, traced loadStats
		for _, on := range []bool{false, true, true, false} {
			r, sum := (*recorder)(nil), &base
			if on {
				r, sum = rec, &traced
			}
			st, err := measure(e, meter, o.seconds/4, r)
			if err != nil {
				return result{}, err
			}
			sum.slices = append(sum.slices, st.slices...)
			sum.jobs = append(sum.jobs, st.jobs...)
			sum.trials += st.trials
			sum.attempted += st.attempted
			sum.failed += st.failed
		}
		vals := map[string]float64{}
		probed, probeFailed, err := e.layers(rec, vals)
		if err != nil {
			return result{}, err
		}
		attempted, failed := e.check(rec)
		res.Attempted = base.attempted + traced.attempted + probed + attempted
		res.Failed = base.failed + traced.failed + probeFailed + failed
		rate := func(st loadStats) float64 { return float64(st.trials) / st.refWall().Seconds() }
		vals["bench.trace_overhead"] = rate(base)/rate(traced) - 1
		spanMetrics(rec, vals)
		for _, d := range perLayer {
			v, ok := vals[d.name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return result{}, fmt.Errorf("traced run produced no value for %s", d.name)
			}
			res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		}
		spansPath := filepath.Join(filepath.Dir(work), fmt.Sprintf("spans-%s-seed%d.jsonl", o.workload, o.seed))
		if err := rec.write(spansPath); err != nil {
			return result{}, err
		}
		printHuman(o, res, len(traced.jobs), 0)
		fmt.Printf("spans: %s\n", spansPath)
	}
	res.Correct = res.Failed == 0
	if res.Attempted < 1 {
		return result{}, errors.New("nothing attempted")
	}
	return res, nil
}

// spanMetrics derives the per-layer metrics every workload's spans share.
func spanMetrics(rec *recorder, m map[string]float64) {
	cells := rec.durations("experiment.cell")
	m["experiment.cell_ms.p50"] = median(cells) / 1e6
	m["experiment.cell_ms.max"] = quantile(cells, 1) / 1e6
	// A job's self time is when none of its calls into a layer was in
	// flight: Runner bookkeeping between cells, or client-side gaps
	// between HTTP calls.
	var self, total time.Duration
	for _, j := range rec.named("bench.job") {
		self += selfTime(j, rec.children(j.ID))
		total += j.dur()
	}
	m["bench.job_self_share"] = float64(self) / float64(total)
}

// printHuman prints the run's metrics one per line, ahead of the JSON line.
// job_p90_ms names the percentile it could honestly report; makespan_s and
// failed_ratio name figures the JSON line already carries (job latency in
// seconds, and failed over attempted).
func printHuman(o options, res result, jobs, tailP int) {
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "workload %s seed %d trace %v: %d jobs, attempted %d, failed %d\n",
		o.workload, o.seed, o.trace, jobs, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", n, v.Value, v.Unit)
	}
	if !o.trace {
		fmt.Fprintf(w, "  %-32s %14.6g s\n", "makespan_s", res.Metrics["job_p50_ms"].Value/1e3)
		fmt.Fprintf(w, "  %-32s %14.6g fraction\n", "failed_ratio", float64(res.Failed)/float64(max(res.Attempted, 1)))
		if jobs < 2*minBeyond {
			fmt.Fprintf(w, "  job_p90_ms reports the median: %d jobs leave no percentile above it with %d beyond\n", jobs, minBeyond)
		} else {
			fmt.Fprintf(w, "  job_p90_ms reports p%d of %d jobs (the highest up to p90 with %d beyond it)\n", tailP, jobs, minBeyond)
		}
	}
}

// sliceSeconds is how much load runs under one host-speed figure: every
// job of a slice is scaled by the meter's speed over that slice (see
// hostMeter). A sweep job runs whole, so its slice is at least one sweep.
const sliceSeconds = 1.0

// measure runs about seconds of load in slices and reports every job time
// on the reference host's clock (see scaled).
func measure(e env, meter *hostMeter, seconds float64, rec *recorder) (*loadStats, error) {
	out := &loadStats{}
	for out.wall.Seconds() < seconds {
		t0 := time.Now()
		st, err := e.load(min(sliceSeconds, seconds-out.wall.Seconds()), rec)
		if err != nil {
			return nil, err
		}
		speed, err := meter.speed(t0, time.Now())
		if err != nil {
			return nil, err
		}
		for _, j := range st.jobs {
			out.jobs = append(out.jobs, jobSample{first: scaled(j.first, speed), last: scaled(j.last, speed)})
		}
		out.slices = append(out.slices, slice{wall: st.wall, speed: speed})
		out.wall += st.wall
		out.trials += st.trials
		out.attempted += st.attempted
		out.failed += st.failed
	}
	return out, nil
}

// rssSampler reads the resident set every rssEvery while a load runs and
// keeps each second's maximum.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

const rssEvery = 20 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		peak, since := 0.0, time.Now()
		for {
			select {
			case <-s.stop:
				if peak > 0 {
					s.peaks = append(s.peaks, peak)
				}
				return
			case <-tick.C:
			}
			peak = max(peak, rssMB())
			if time.Since(since) >= time.Second {
				s.peaks = append(s.peaks, peak)
				peak, since = 0, time.Now()
			}
		}
	}()
	return s
}

// finish stops the sampler and reports the median of its per-second peaks.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return median(s.peaks)
}

// hostTimes is the process's CPU time and the host's steal time: a run
// whose wall-clock figures moved while its CPU time did not was slowed by
// the machine, not by the code.
type hostTimes struct{ cpu, steal time.Duration }

func readHost() hostTimes {
	h := hostTimes{cpu: processCPU()}
	if raw, err := os.ReadFile("/proc/stat"); err == nil {
		// cpu user nice system idle iowait irq softirq steal ...
		if f := strings.Fields(strings.SplitN(string(raw), "\n", 2)[0]); len(f) > 8 && f[0] == "cpu" {
			if ticks, err := strconv.ParseInt(f[8], 10, 64); err == nil {
				h.steal = time.Duration(ticks) * 10 * time.Millisecond // USER_HZ is 100 on Linux
			}
		}
	}
	return h
}

func (h hostTimes) since(start hostTimes) hostTimes {
	return hostTimes{cpu: h.cpu - start.cpu, steal: h.steal - start.steal}
}

// rssMB reads the process's resident set size.
func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmRSS:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// Without procfs, fall back to what the Go runtime obtained.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
