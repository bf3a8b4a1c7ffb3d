// Package hmc models a Hybrid Memory Cube device after the HMC 2.1
// specification at the fidelity the paper's evaluation depends on:
//
//   - the packetized FLIT interface and its control-overhead economics
//     (16 B FLITs; every transaction pays one 16 B request control FLIT and
//     one 16 B response control FLIT — paper §2.2),
//   - vault/bank parallelism with a closed-page policy, so a single
//     coalesced 256 B read opens and closes its DRAM row once where sixteen
//     16 B reads would do it sixteen times (§2.2.1),
//   - full-duplex link serialization shared by control and data, which is
//     what makes bandwidth efficiency = requested/transferred meaningful
//     (Equation 1).
//
// Timing is cycle-approximate and expressed in core clock cycles so it
// composes directly with the rest of the simulator. The same Device also
// serves packets under two flat timing models (Kind): a DDR-like
// single-channel baseline and an ideal zero-contention memory, so the
// evaluation can swap the memory technology under the coalescer while
// every statistic keeps its shape.
package hmc

// FLIT and packet constants from the HMC 2.1 specification (§2.2).
const (
	// FlitBytes is the flow-control unit: the minimum granularity of data
	// movement on an HMC link.
	FlitBytes = 16

	// ControlBytes is the per-transaction control overhead: a 16 B request
	// control FLIT (header+tail) plus a 16 B response control FLIT.
	ControlBytes = 32

	// MinRequestBytes and MaxRequestBytes bound HMC 2.1 payload sizes.
	MinRequestBytes = 16
	MaxRequestBytes = 256
)

// DataFlits returns how many 16 B data FLITs carry a payload of the given
// size. Payloads are rounded up to FLIT granularity: a 4 B read still moves
// one 16 B FLIT.
func DataFlits(payloadBytes uint32) int {
	if payloadBytes == 0 {
		return 0
	}
	return int((payloadBytes + FlitBytes - 1) / FlitBytes)
}

// RequestFlits returns the size of the request packet in FLITs: one control
// FLIT, plus the data FLITs for writes (reads carry no data downstream).
func RequestFlits(write bool, payloadBytes uint32) int {
	if write {
		return 1 + DataFlits(payloadBytes)
	}
	return 1
}

// ResponseFlits returns the size of the response packet in FLITs: one
// control FLIT, plus the data FLITs for reads.
func ResponseFlits(write bool, payloadBytes uint32) int {
	if write {
		return 1
	}
	return 1 + DataFlits(payloadBytes)
}

// TransactionBytes returns the total bytes moved on the link for one
// transaction in both directions: request packet + response packet. For any
// FLIT-aligned payload this is payload + 32 regardless of direction.
func TransactionBytes(write bool, payloadBytes uint32) uint64 {
	return uint64(RequestFlits(write, payloadBytes)+ResponseFlits(write, payloadBytes)) * FlitBytes
}

// BandwidthEfficiency is Equation 1 of the paper for a single transaction
// that transfers a FLIT-rounded packet for `requested` useful bytes:
// requested data / transferred data. Figure 1 evaluates it at the packet
// sizes 16 B … 256 B where requested equals the packet payload.
func BandwidthEfficiency(requested uint32) float64 {
	if requested == 0 {
		return 0
	}
	return float64(requested) / float64(TransactionBytes(false, requested))
}

// ControlOverheadFraction is the complementary Figure 1 series: the share
// of the transferred bytes that is header/tail control data.
func ControlOverheadFraction(payloadBytes uint32) float64 {
	t := TransactionBytes(false, payloadBytes)
	if t == 0 {
		return 0
	}
	return float64(ControlBytes) / float64(t)
}

// ControlBytesForVolume supports Figure 2: total control bytes moved when
// `totalBytes` of data are fetched using fixed-size requests of
// `requestBytes` each. Smaller requests need more packets and therefore
// more control traffic.
func ControlBytesForVolume(totalBytes uint64, requestBytes uint32) uint64 {
	if requestBytes == 0 {
		return 0
	}
	packets := (totalBytes + uint64(requestBytes) - 1) / uint64(requestBytes)
	return packets * ControlBytes
}
