// Command experiments regenerates every figure panel of the paper's
// evaluation (Fig. 1 a–d), the in-text headline gain claims, the MiniCast
// coverage-vs-NTX characterization, and free-form scenario-matrix sweeps
// over backend × network size × threshold × loss rate × NTX × slack ×
// failure rate × verifiable mode × protocol.
//
// Matrix sweeps run on the streaming Runner: results appear (in index
// order) the moment each cell completes, `-cache` makes repeated or
// interrupted sweeps pay only for new cells, and `-out` selects the output
// stream format. The Fig. 1, baseline and scalability panels run on the
// Runner too, across all cores with 64-lane trial batches, every cell
// seeded with -seed itself; `-out csv|jsonl` streams a single Fig. 1
// panel's cells in the matrix formats instead of printing its table.
//
// Examples:
//
//	experiments -panel all -iters 100
//	experiments -panel fig1a -iters 2000        # paper-scale repetitions
//	experiments -panel coverage
//	experiments -panel fig1c -out csv > dcube.csv
//	experiments -panel matrix -nodes 15,25,40 -loss 0.0,0.2,0.4 -workers 8
//	experiments -panel matrix -nodes 20 -degrees 4,6,9 -out csv > matrix.csv
//	experiments -panel matrix -nodes 20 -phy logdist,unitdisk         # backend axis
//	experiments -panel matrix -nodes 10 -phy trace:testbed10 -loss 0.0
//	experiments -panel matrix -nodes 15,25 -fail 0.0,0.1,0.2          # crash injection axis
//	experiments -panel matrix -nodes 20 -verifiable false,true        # VSS overhead axis
//	experiments -panel matrix -nodes 20 -veclen 0,4,8 -out jsonl      # multi-sensor batched-sealing axis
//	experiments -panel matrix -nodes 15,25,40 -iters 2000 -cache ~/.iotmpc-cache -progress
//	experiments -panel matrix -nodes 20 -out jsonl | jq .successRate
//
// One matrix can be sharded across N processes or machines sharing a cache
// directory, then merged back into the byte-identical unsharded artifact:
//
//	experiments -panel matrix -nodes 15,25,40 -cache /nfs/sweep -shard 0/3 &
//	experiments -panel matrix -nodes 15,25,40 -cache /nfs/sweep -shard 1/3 &
//	experiments -panel matrix -nodes 15,25,40 -cache /nfs/sweep -shard 2/3 -steal
//	experiments merge -nodes 15,25,40 -cache /nfs/sweep -shards 3 -out jsonl
//
// Against a sweepd daemon, -server submits the sweep as a job, and the
// `jobs` and `cancel` subcommands manage the daemon's queue:
//
//	experiments -panel matrix -nodes 15,25 -server http://localhost:8080 -out jsonl
//	experiments jobs -server http://localhost:8080 -state running
//	experiments cancel -server http://localhost:8080 j000003
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"iotmpc/internal/cache"
	"iotmpc/internal/experiment"
	"iotmpc/internal/topology"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// matrixFlags bundles everything -panel matrix (and the merge subcommand)
// consumes.
type matrixFlags struct {
	nodes, degrees, loss, phys   string
	ntx, slack, fail, verifiable string
	veclen                       string
	iters                        int
	seed                         int64
	workers, lanes               int
	progress                     bool
	cacheDir, out                string
	shard                        string
	steal                        bool
	shards                       int
	server                       string
	stats                        bool
}

func run(args []string) error {
	// The sweepd-client subcommands have their own tiny flag sets: `jobs`
	// lists the daemon's jobs (filtered, paginated) and `cancel` kills one.
	if len(args) > 0 {
		switch args[0] {
		case "jobs":
			return runJobsCmd(args[1:])
		case "cancel":
			return runCancelCmd(args[1:])
		}
	}
	// `experiments merge ...` assembles a sharded sweep from its cache
	// directory instead of running anything; the matrix axis flags select
	// which sweep to assemble.
	mergeMode := len(args) > 0 && args[0] == "merge"
	if mergeMode {
		args = args[1:]
	}
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var mf matrixFlags
	var (
		panel = fs.String("panel", "all",
			"panel: fig1a, fig1b, fig1c, fig1d, gains, coverage, baseline, scalability, matrix, all")
		iters      = fs.Int("iters", 50, "Monte-Carlo iterations per point (paper: 2000)")
		seed       = fs.Int64("seed", 1, "randomness seed")
		cpuProfile = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to `file`")
		memProfile = fs.String("memprofile", "", "write a pprof heap profile to `file` at exit")
	)
	fs.IntVar(&mf.workers, "workers", 0, "matrix worker goroutines (0: GOMAXPROCS)")
	fs.IntVar(&mf.lanes, "lanes", 0,
		"matrix: bit-sliced trial batch width 1..64 (0: default 64; 1: scalar reference path; results are identical for any width)")
	fs.StringVar(&mf.nodes, "nodes", "15,25,40", "matrix axis: comma-separated network sizes")
	fs.StringVar(&mf.degrees, "degrees", "0", "matrix axis: polynomial degrees (0: n/3)")
	fs.StringVar(&mf.loss, "loss", "0.0,0.2,0.4", "matrix axis: interference burst probabilities")
	fs.StringVar(&mf.phys, "phy", "logdist",
		"matrix axis: radio backends (logdist, unitdisk[:R[:G]], trace:<name-or-file>)")
	fs.StringVar(&mf.ntx, "ntx", "0", "matrix axis: S4 sharing NTX values (0: protocol default 6)")
	fs.StringVar(&mf.slack, "slack", "0", "matrix axis: extra destinations beyond k+1")
	fs.StringVar(&mf.fail, "fail", "0", "matrix axis: node crash fractions in [0,1)")
	fs.StringVar(&mf.verifiable, "verifiable", "false",
		"matrix axis: Feldman-VSS share verification (comma-separated bools)")
	fs.StringVar(&mf.veclen, "veclen", "0",
		"matrix axis: per-source reading-vector lengths (0: scalar round; L seals one 8·L-byte vector + one MIC per destination)")
	fs.StringVar(&mf.cacheDir, "cache", "",
		"matrix: content-addressed result cache directory (repeated sweeps skip cached cells)")
	fs.BoolVar(&mf.progress, "progress", false, "matrix: narrate per-cell progress on stderr")
	fs.StringVar(&mf.out, "out", "table",
		"output stream: table, csv, jsonl (csv and jsonl: -panel matrix and fig1a-fig1d)")
	fs.StringVar(&mf.shard, "shard", "",
		"matrix: run only shard i of N (format i/N); shards share -cache and `experiments merge` reassembles the byte-identical sweep")
	fs.BoolVar(&mf.steal, "steal", false,
		"matrix: after finishing its own shard, compute other shards' missing cells in reverse index order (needs -shard and -cache)")
	fs.IntVar(&mf.shards, "shards", 0,
		"merge: shard count whose completion manifests to consult (0: assemble from per-cell entries only)")
	fs.StringVar(&mf.server, "server", "",
		"matrix: submit the sweep to a sweepd job API at this base URL instead of executing locally")
	fs.BoolVar(&mf.stats, "stats", false,
		"print the -cache directory's footprint (entries, bytes, orphaned temp files) and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	mf.iters, mf.seed = *iters, *seed

	if mf.stats {
		if mf.cacheDir == "" {
			return fmt.Errorf("-stats needs -cache (the directory to report on)")
		}
		return printCacheStats(mf.cacheDir)
	}

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	if mergeMode {
		// merge is cache assembly, not execution: execution-only flags are
		// meaningless here and -panel selects nothing.
		var misused []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "panel", "workers", "lanes", "shard", "steal", "server":
				misused = append(misused, "-"+f.Name)
			}
		})
		if len(misused) > 0 {
			return fmt.Errorf("%s do not apply to merge (use -shards N for the shard count)", strings.Join(misused, ", "))
		}
		return runMerge(mf)
	}

	if *panel == "matrix" {
		// A matrix sweep can run for hours; SIGINT/SIGTERM cancels the
		// Runner's context so in-flight cells finish, sinks flush every
		// already-emitted row, and the exit line reports how far it got.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return runMatrix(ctx, mf)
	}
	// The matrix-only flags do nothing for the fixed paper panels; reject
	// them rather than let a user believe they took effect.
	var misused []string
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "workers", "lanes", "nodes", "degrees", "loss", "phy",
			"ntx", "slack", "fail", "verifiable", "veclen", "cache", "progress",
			"shard", "steal", "shards", "server":
			misused = append(misused, "-"+f.Name)
		}
	})
	if len(misused) > 0 {
		return fmt.Errorf("%s only apply to -panel matrix", strings.Join(misused, ", "))
	}

	if mf.out != "table" {
		// A single Fig. 1 panel streams its sweep's cells through the
		// matrix sinks: both metrics of the panel's testbed, one line per
		// (sources, protocol) cell.
		sweep, ok := map[string]func(int, int64) experiment.SweepSpec{
			"fig1a": experiment.FlockLabSweep, "fig1b": experiment.FlockLabSweep,
			"fig1c": experiment.DCubeSweep, "fig1d": experiment.DCubeSweep,
		}[*panel]
		if !ok {
			return fmt.Errorf("-out %s only applies to -panel matrix and fig1a-fig1d", mf.out)
		}
		cells, err := sweep(*iters, *seed).Scenarios()
		if err != nil {
			return err
		}
		sink, err := outputSink(mf.out)
		if err != nil {
			return err
		}
		_, err = experiment.NewRunner(experiment.WithSinks(sink)).RunScenarios(cells)
		return err
	}

	needFlockLab := *panel == "fig1a" || *panel == "fig1b" || *panel == "gains" || *panel == "all"
	needDCube := *panel == "fig1c" || *panel == "fig1d" || *panel == "gains" || *panel == "all"
	needCoverage := *panel == "coverage" || *panel == "all"
	needBaseline := *panel == "baseline" || *panel == "all"
	needScalability := *panel == "scalability" || *panel == "all"
	if !needFlockLab && !needDCube && !needCoverage && !needBaseline && !needScalability {
		return fmt.Errorf("unknown panel %q", *panel)
	}

	var flockRes, dcubeRes *experiment.SweepResult
	if needFlockLab {
		flockRes, err = experiment.RunSweep(experiment.FlockLabSweep(*iters, *seed))
		if err != nil {
			return fmt.Errorf("flocklab sweep: %w", err)
		}
	}
	if needDCube {
		dcubeRes, err = experiment.RunSweep(experiment.DCubeSweep(*iters, *seed))
		if err != nil {
			return fmt.Errorf("dcube sweep: %w", err)
		}
	}

	printPanel := func(id string, res *experiment.SweepResult, m experiment.Metric) {
		if res == nil {
			return
		}
		if *panel == id || *panel == "all" {
			fmt.Printf("== Fig 1(%s) ==\n%s\n", id[len("fig1"):], res.Table(m))
		}
	}
	printPanel("fig1a", flockRes, experiment.Latency)
	printPanel("fig1b", flockRes, experiment.RadioOn)
	printPanel("fig1c", dcubeRes, experiment.Latency)
	printPanel("fig1d", dcubeRes, experiment.RadioOn)

	if *panel == "gains" || *panel == "all" {
		if err := printGains(flockRes, dcubeRes); err != nil {
			return err
		}
	}
	if needBaseline {
		rows, err := experiment.BaselineComparison(*iters, *seed)
		if err != nil {
			return fmt.Errorf("baseline comparison: %w", err)
		}
		fmt.Println(experiment.BaselineTable(rows))
	}
	if needScalability {
		rows, err := experiment.ScalabilitySweep([]int{15, 25, 40, 60}, *iters, *seed)
		if err != nil {
			return fmt.Errorf("scalability sweep: %w", err)
		}
		fmt.Println(experiment.ScalabilityTable(rows))
	}
	if needCoverage {
		for _, tb := range []topology.Topology{topology.FlockLab(), topology.DCube()} {
			pts, err := experiment.CoverageCurve(tb, []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 16}, *iters, *seed)
			if err != nil {
				return fmt.Errorf("coverage curve %s: %w", tb.Name, err)
			}
			fmt.Println(experiment.CoverageTable(tb.Name, pts))
		}
	}
	return nil
}

// outputSink maps an -out format name to its stdout sink.
func outputSink(format string) (experiment.Sink, error) {
	switch format {
	case "", "table":
		return &experiment.TableSink{W: os.Stdout}, nil
	case "csv":
		return &experiment.CSVSink{W: os.Stdout}, nil
	case "jsonl":
		return &experiment.JSONLSink{W: os.Stdout}, nil
	default:
		return nil, fmt.Errorf("unknown -out format %q (want table, csv, jsonl)", format)
	}
}

// buildMatrix parses the axis flags into the sweep spec runMatrix executes
// and runMerge assembles.
func buildMatrix(mf matrixFlags) (experiment.Matrix, error) {
	var zero experiment.Matrix
	nodeCounts, err := parseInts(mf.nodes)
	if err != nil {
		return zero, fmt.Errorf("-nodes: %w", err)
	}
	degreeList, err := parseInts(mf.degrees)
	if err != nil {
		return zero, fmt.Errorf("-degrees: %w", err)
	}
	lossRates, err := parseFloats(mf.loss)
	if err != nil {
		return zero, fmt.Errorf("-loss: %w", err)
	}
	ntxValues, err := parseInts(mf.ntx)
	if err != nil {
		return zero, fmt.Errorf("-ntx: %w", err)
	}
	slacks, err := parseInts(mf.slack)
	if err != nil {
		return zero, fmt.Errorf("-slack: %w", err)
	}
	failureRates, err := parseFloats(mf.fail)
	if err != nil {
		return zero, fmt.Errorf("-fail: %w", err)
	}
	verifiables, err := parseBools(mf.verifiable)
	if err != nil {
		return zero, fmt.Errorf("-verifiable: %w", err)
	}
	vectorLens, err := parseInts(mf.veclen)
	if err != nil {
		return zero, fmt.Errorf("-veclen: %w", err)
	}
	return experiment.Matrix{
		Backends:     parseList(mf.phys),
		NodeCounts:   nodeCounts,
		Degrees:      degreeList,
		LossRates:    lossRates,
		NTXSharings:  ntxValues,
		DestSlacks:   slacks,
		FailureRates: failureRates,
		Verifiable:   verifiables,
		VectorLens:   vectorLens,
		Iterations:   mf.iters,
		Seed:         mf.seed,
	}, nil
}

// parseShard parses the -shard flag's "i/N" form; "" is the unsharded spec.
func parseShard(s string, steal bool) (experiment.ShardSpec, error) {
	if s == "" {
		return experiment.ShardSpec{Steal: steal}, nil
	}
	left, right, ok := strings.Cut(s, "/")
	if !ok {
		return experiment.ShardSpec{}, fmt.Errorf("-shard %q: want i/N (e.g. 0/3)", s)
	}
	shard, err := strconv.Atoi(strings.TrimSpace(left))
	if err != nil {
		return experiment.ShardSpec{}, fmt.Errorf("-shard %q: %w", s, err)
	}
	total, err := strconv.Atoi(strings.TrimSpace(right))
	if err != nil {
		return experiment.ShardSpec{}, fmt.Errorf("-shard %q: %w", s, err)
	}
	spec := experiment.ShardSpec{Shard: shard, Total: total, Steal: steal}
	if err := spec.Validate(); err != nil {
		return experiment.ShardSpec{}, err
	}
	return spec, nil
}

// runMatrix parses the axis flags and streams the scenario matrix through
// the Runner: results hit the output sink in index order as cells complete.
// With -server the sweep is submitted to a sweepd job API instead, and the
// results stream back over HTTP — byte-identical (for -out jsonl) to a local
// run of the same matrix.
func runMatrix(ctx context.Context, mf matrixFlags) error {
	m, err := buildMatrix(mf)
	if err != nil {
		return err
	}
	if mf.server != "" {
		// Execution knobs belong to the server's configuration; silently
		// ignoring them would let the user believe they shaped the sweep.
		var misused []string
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-workers", mf.workers != 0},
			{"-lanes", mf.lanes != 0},
			{"-cache", mf.cacheDir != ""},
			{"-shard", mf.shard != ""},
			{"-steal", mf.steal},
		} {
			if f.set {
				misused = append(misused, f.name)
			}
		}
		if len(misused) > 0 {
			return fmt.Errorf("%s do not apply with -server (the service owns its cache and runner configuration)",
				strings.Join(misused, ", "))
		}
		return runServerMatrix(ctx, mf, m)
	}
	spec, err := parseShard(mf.shard, mf.steal)
	if err != nil {
		return err
	}
	if mf.steal {
		if mf.shard == "" {
			return fmt.Errorf("-steal needs -shard (there is nothing to steal from an unsharded sweep)")
		}
		if mf.cacheDir == "" {
			return fmt.Errorf("-steal needs -cache (stolen results land in the shared cache)")
		}
	}
	sink, err := outputSink(mf.out)
	if err != nil {
		return err
	}
	// The interrupt report needs this process's share of the matrix and how
	// far the sweep got; both are observable from the sink stream itself.
	var completed, cells int
	counter := &experiment.FuncSink{
		Start: func(p experiment.Plan) error {
			cells = len(p.Scenarios)
			if p.Shard.Total > 1 {
				lo, hi := experiment.Partition(cells, p.Shard.Shard, p.Shard.Total)
				cells = hi - lo
			}
			return nil
		},
		Result: func(experiment.ScenarioResult) error {
			completed++
			return nil
		},
	}
	opts := []experiment.Option{
		experiment.WithWorkers(mf.workers),
		experiment.WithLanes(mf.lanes),
		experiment.WithShard(spec),
		experiment.WithSinks(sink, counter),
		experiment.WithContext(ctx),
	}
	if mf.progress {
		opts = append(opts, experiment.WithSinks(&experiment.ProgressSink{W: os.Stderr}))
	}
	if mf.cacheDir != "" {
		opts = append(opts, experiment.WithCache(mf.cacheDir))
	}
	if _, err := experiment.NewRunner(opts...).Run(m); err != nil {
		if ctx.Err() != nil && errors.Is(err, context.Canceled) {
			// Every finished cell already reached the sinks (and the cache,
			// if one is configured): rerunning resumes from there.
			return fmt.Errorf("interrupted: %d/%d cells completed", completed, cells)
		}
		return fmt.Errorf("matrix sweep: %w", err)
	}
	return nil
}

// printCacheStats reports a result cache directory's footprint (-stats).
func printCacheStats(dir string) error {
	c, err := cache.Open(dir)
	if err != nil {
		return err
	}
	st, err := c.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("cache %s: %d entries, %d bytes, %d orphaned temp files\n",
		dir, st.Entries, st.TotalBytes, st.OrphanedTemps)
	return nil
}

// runMerge assembles a sharded sweep from the shards' shared cache
// directory and streams it through the output sink — the merged stream (and
// the matrix manifest the merge writes) is byte-identical to an unsharded
// run's.
func runMerge(mf matrixFlags) error {
	if mf.cacheDir == "" {
		return fmt.Errorf("merge needs -cache (the directory the shards shared)")
	}
	if mf.shards < 0 {
		return fmt.Errorf("-shards %d: want >= 0", mf.shards)
	}
	m, err := buildMatrix(mf)
	if err != nil {
		return err
	}
	scenarios, err := m.Scenarios()
	if err != nil {
		return err
	}
	results, err := experiment.MergeShards(mf.cacheDir, scenarios, mf.shards)
	if err != nil {
		return fmt.Errorf("merge: %w", err)
	}
	sink, err := outputSink(mf.out)
	if err != nil {
		return err
	}
	sinks := []experiment.Sink{sink}
	if mf.progress {
		sinks = append(sinks, &experiment.ProgressSink{W: os.Stderr})
	}
	plan := experiment.Plan{Scenarios: scenarios, CacheDir: mf.cacheDir,
		CacheHits: len(results), ManifestHit: true}
	sum := experiment.RunSummary{Cells: len(results), CacheHits: len(results)}
	for _, s := range sinks {
		if err := s.OnStart(plan); err != nil {
			return err
		}
	}
	for _, r := range results {
		for _, s := range sinks {
			if err := s.OnResult(r); err != nil {
				return err
			}
		}
	}
	for _, s := range sinks {
		if err := s.OnFinish(sum); err != nil {
			return err
		}
	}
	return nil
}

func parseList(s string) []string {
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFloats(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func parseBools(s string) ([]bool, error) {
	parts := strings.Split(s, ",")
	out := make([]bool, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseBool(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func printGains(flockRes, dcubeRes *experiment.SweepResult) error {
	fmt.Println("== Full-network gains (paper: FlockLab >=6x latency / 7x radio; DCube 9x / 10x) ==")
	for _, entry := range []struct {
		name string
		res  *experiment.SweepResult
	}{
		{"flocklab", flockRes},
		{"dcube", dcubeRes},
	} {
		if entry.res == nil {
			continue
		}
		lat, radio, err := entry.res.FullNetworkGains()
		if err != nil {
			return err
		}
		fmt.Printf("%-10s latency %.2fx   radio-on %.2fx\n", entry.name, lat, radio)
	}
	fmt.Println()
	return nil
}
