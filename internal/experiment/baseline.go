package experiment

import (
	"fmt"
	"strings"
	"time"

	"iotmpc/internal/core"
	"iotmpc/internal/hepda"
	"iotmpc/internal/metrics"
	"iotmpc/internal/phy"
	"iotmpc/internal/sim"
	"iotmpc/internal/topology"
)

// BaselineRow is one protocol's cost profile in the three-way comparison the
// paper's introduction frames: HE-based PPDA (computation-intensive) vs
// naive collaborative SSS (communication-intensive) vs the paper's S4.
type BaselineRow struct {
	Protocol string `json:"protocol"`
	// LatencyMS is mean end-to-end latency.
	LatencyMS metrics.Summary `json:"latencyMs"`
	// RadioOnMS is mean per-node radio-on time.
	RadioOnMS metrics.Summary `json:"radioOnMs"`
	// CPUBusyMS is mean per-node modeled crypto/compute time.
	CPUBusyMS float64 `json:"cpuBusyMs"`
	// ChargeMC estimates per-node charge in millicoulombs: radio at the rx
	// current plus CPU at the MCU run current — the battery-lifetime proxy.
	ChargeMC float64 `json:"chargeMc"`
}

// BaselineComparison runs S3, S4 and HE-PPDA on the full FlockLab network
// and returns one row per protocol. The S3 and S4 rows run on the Runner;
// SSS compute is microseconds, so their charge is radio-dominated. The HE
// row runs its trials in parallel over one prepared deployment.
func BaselineComparison(iterations int, seed int64) ([]BaselineRow, error) {
	if iterations <= 0 {
		return nil, fmt.Errorf("%w: iterations %d", ErrBadSpec, iterations)
	}
	testbed := topology.FlockLab()
	n := testbed.NumNodes()
	sources, err := SpreadSources(n, n)
	if err != nil {
		return nil, err
	}
	params := phy.DefaultParams()
	const mcuCurrentMA = 6.3 // nRF52840 CPU running from flash

	cfg, err := core.Config{Topology: testbed, Protocol: core.S4, Sources: sources}.Normalized()
	if err != nil {
		return nil, err
	}
	sssCPU := cfg.CPU.Interpolation(cfg.Degree + 1)
	results, err := NewRunner().RunScenarios(appendProtocolPair(nil, Scenario{
		Testbed:    testbed.Name,
		LossRate:   DefaultLossRate,
		NTXSharing: 6,
		DestSlack:  1,
		Iterations: iterations,
		Seed:       seed,
	}))
	if err != nil {
		return nil, err
	}
	rows := make([]BaselineRow, 0, 3)
	for _, r := range results {
		rows = append(rows, BaselineRow{
			Protocol:  r.Scenario.Protocol.String(),
			LatencyMS: r.LatencyMS,
			RadioOnMS: r.RadioOnMS,
			CPUBusyMS: sssCPU.Seconds() * 1e3,
			ChargeMC:  params.RxCurrentMA*r.RadioOnMS.Mean/1e3 + mcuCurrentMA*sssCPU.Seconds(),
		})
	}

	he, err := hepda.Prepare(hepda.Config{
		Topology:    testbed,
		Sources:     sources,
		ChannelSeed: seed,
	})
	if err != nil {
		return nil, err
	}
	// Trials are independent given the seed: run them on every core, then
	// fold them in trial order so the sums match a serial loop bit for bit.
	trials := make([]*hepda.RoundResult, iterations)
	if err := sim.ParallelFor(iterations, 0, func(i int) error {
		var err error
		trials[i], err = he.RunRound(uint64(i))
		return err
	}); err != nil {
		return nil, err
	}
	var lat, radio metrics.Stream
	var cpuSum, chargeSum float64
	for _, res := range trials {
		lat.AddDuration(res.MeanLatency)
		radio.AddDuration(res.MeanRadioOn)
		var cpuTotal time.Duration
		for _, c := range res.CPUBusy {
			cpuTotal += c
		}
		cpuMean := cpuTotal / time.Duration(n)
		cpuSum += cpuMean.Seconds() * 1e3
		chargeSum += params.ChargeMicroCoulombs(0, res.MeanRadioOn)/1e3 +
			mcuCurrentMA*cpuMean.Seconds()
	}
	latSum, err := lat.Summarize()
	if err != nil {
		return nil, err
	}
	radioSum, err := radio.Summarize()
	if err != nil {
		return nil, err
	}
	return append(rows, BaselineRow{
		Protocol:  "HE",
		LatencyMS: latSum,
		RadioOnMS: radioSum,
		CPUBusyMS: cpuSum / float64(iterations),
		ChargeMC:  chargeSum / float64(iterations),
	}), nil
}

// BaselineTable renders the comparison.
func BaselineTable(rows []BaselineRow) string {
	var b strings.Builder
	b.WriteString("FlockLab full network — S3 vs S4 vs HE-PPDA (per-node means)\n")
	fmt.Fprintf(&b, "%-6s %14s %14s %12s %12s\n",
		"proto", "latency (ms)", "radio-on (ms)", "CPU (ms)", "charge (mC)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %14.1f %14.1f %12.1f %12.2f\n",
			r.Protocol, r.LatencyMS.Mean, r.RadioOnMS.Mean, r.CPUBusyMS, r.ChargeMC)
	}
	return b.String()
}
