// Package phy models the physical layer of an nRF52840-class IoT radio
// running IEEE 802.15.4 at 250 kbit/s — the platform the paper evaluates on.
// It provides:
//
//   - frame airtime computation (the unit everything in a TDMA chain is
//     measured in),
//   - the Radio interface — the swappable radio backend every protocol
//     layer runs on — with two implementations here: LogDistance (the
//     log-distance path-loss link model with deterministic per-link
//     shadowing and per-packet fading the paper evaluates under) and
//     UnitDisk (idealized in-radius reception for exact property tests);
//     internal/trace adds a third that replays recorded PRR matrices,
//   - the LinkTable, every backend's link snapshot and reception model for
//     concurrent transmissions of the same packet (the constructive
//     interference that makes Glossy-style CT work),
//   - radio current figures for converting radio-on time into charge.
//
// The model intentionally computes latency and radio-on time from first
// principles (bytes × bitrate × slots × retransmissions), so the figures the
// benchmarks report emerge from the protocol structure rather than from
// constants copied out of the paper.
package phy

import (
	"errors"
	"fmt"
	"time"
)

// Errors returned by the package.
var (
	// ErrPayloadTooLarge is returned when a frame exceeds the 802.15.4 PSDU.
	ErrPayloadTooLarge = errors.New("phy: payload exceeds maximum PSDU")
	// ErrBadParams is returned for non-physical parameter values.
	ErrBadParams = errors.New("phy: invalid parameters")
)

// MaxPSDU is the maximum 802.15.4 PHY service data unit in bytes.
const MaxPSDU = 127

// Params collects every tunable of the PHY model. Zero value is not usable;
// start from DefaultParams.
type Params struct {
	// BitrateBps is the on-air bitrate (802.15.4 @ 2.4 GHz: 250 kbit/s).
	BitrateBps int
	// PHYOverheadBytes counts preamble (4) + SFD (1) + PHR (1).
	PHYOverheadBytes int
	// TxPowerDBm is the transmit power (nRF52840 default 0 dBm).
	TxPowerDBm float64
	// RefLossDB is the path loss at 1 m (2.4 GHz free space ≈ 40 dB).
	RefLossDB float64
	// PathLossExponent is the log-distance exponent (indoor ≈ 3.0).
	PathLossExponent float64
	// ShadowingSigmaDB is the per-link log-normal shadowing deviation,
	// sampled once per link (static environment).
	ShadowingSigmaDB float64
	// FadingSigmaDB is the per-packet fading deviation.
	FadingSigmaDB float64
	// SensitivityDBm is the receiver sensitivity floor.
	SensitivityDBm float64
	// PRRMidpointDBm is the RSSI at which packet reception is 50%.
	PRRMidpointDBm float64
	// PRRWidthDB controls the steepness of the RSSI→PRR sigmoid.
	PRRWidthDB float64
	// CTGainDB is the power gain credited per doubling of synchronized
	// transmitters of the same packet (constructive interference).
	CTGainDB float64
	// CTBeatingLoss is the probability that a slot with two or more
	// concurrent transmitters is corrupted by beating (carrier frequency
	// offsets periodically cancel the superimposed signals — the known
	// reliability ceiling of CT with IEEE 802.15.4 radios).
	CTBeatingLoss float64
	// InterferenceBurstProb is the probability that ambient 2.4 GHz
	// interference (WiFi/Bluetooth bursts, which both FlockLab and D-Cube
	// document) blocks a node's receiver for the duration of one TDMA phase.
	// Bursts last tens of milliseconds — chain-transmission scale — which is
	// why they are drawn per phase rather than per slot.
	InterferenceBurstProb float64
	// SlotGuard is the software/turnaround gap between consecutive
	// sub-slots in a TDMA chain.
	SlotGuard time.Duration
	// TxCurrentMA and RxCurrentMA convert radio-on time to charge
	// (nRF52840 at 0 dBm with DC/DC regulator).
	TxCurrentMA float64
	RxCurrentMA float64
}

// DefaultParams returns the nRF52840/802.15.4 parameterization used by all
// experiments unless overridden.
func DefaultParams() Params {
	return Params{
		BitrateBps:            250_000,
		PHYOverheadBytes:      6,
		TxPowerDBm:            0,
		RefLossDB:             40,
		PathLossExponent:      3.0,
		ShadowingSigmaDB:      2.5,
		FadingSigmaDB:         2.5,
		SensitivityDBm:        -100,
		PRRMidpointDBm:        -93,
		PRRWidthDB:            2.5,
		CTGainDB:              1.2,
		CTBeatingLoss:         0.15,
		InterferenceBurstProb: 0.2,
		SlotGuard:             100 * time.Microsecond,
		TxCurrentMA:           6.4,
		RxCurrentMA:           6.2,
	}
}

// Validate rejects non-physical parameter combinations early, so protocol
// code never has to second-guess the model.
func (p Params) Validate() error {
	switch {
	case p.BitrateBps <= 0:
		return fmt.Errorf("%w: bitrate %d", ErrBadParams, p.BitrateBps)
	case p.PHYOverheadBytes < 0:
		return fmt.Errorf("%w: negative PHY overhead", ErrBadParams)
	case p.PathLossExponent <= 0:
		return fmt.Errorf("%w: path-loss exponent %f", ErrBadParams, p.PathLossExponent)
	case p.PRRWidthDB <= 0:
		return fmt.Errorf("%w: PRR width %f", ErrBadParams, p.PRRWidthDB)
	case p.CTBeatingLoss < 0 || p.CTBeatingLoss >= 1:
		return fmt.Errorf("%w: CT beating loss %f", ErrBadParams, p.CTBeatingLoss)
	case p.InterferenceBurstProb < 0 || p.InterferenceBurstProb >= 1:
		return fmt.Errorf("%w: interference burst prob %f", ErrBadParams, p.InterferenceBurstProb)
	case p.SlotGuard < 0:
		return fmt.Errorf("%w: negative slot guard", ErrBadParams)
	}
	return nil
}

// Airtime returns the on-air duration of a frame with the given PSDU payload
// size in bytes.
func (p Params) Airtime(payloadBytes int) (time.Duration, error) {
	if payloadBytes < 0 || payloadBytes > MaxPSDU {
		return 0, fmt.Errorf("%w: %d bytes", ErrPayloadTooLarge, payloadBytes)
	}
	totalBits := (p.PHYOverheadBytes + payloadBytes) * 8
	ns := int64(totalBits) * int64(time.Second) / int64(p.BitrateBps)
	return time.Duration(ns), nil
}

// SlotDuration is the TDMA sub-slot length for a frame of the given payload:
// airtime plus the guard interval.
func (p Params) SlotDuration(payloadBytes int) (time.Duration, error) {
	air, err := p.Airtime(payloadBytes)
	if err != nil {
		return 0, err
	}
	return air + p.SlotGuard, nil
}

// ChargeMicroCoulombs converts radio-on time split into tx/rx portions into
// electric charge, the energy-proxy metric papers in this space report
// alongside radio-on time.
func (p Params) ChargeMicroCoulombs(tx, rx time.Duration) float64 {
	return p.TxCurrentMA*tx.Seconds()*1e3 + p.RxCurrentMA*rx.Seconds()*1e3
}
