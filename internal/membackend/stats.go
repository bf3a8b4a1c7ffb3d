package membackend

import (
	"hmccoal/internal/hmc"
	"hmccoal/internal/invariant"
)

// statsCore is the statistics engine the non-HMC backends share. It keeps
// the same hmc.Stats shape and the same FLIT-based link accounting
// (request + response FLITs × FlitBytes) as the HMC device, so
// Equation-1 bandwidth efficiency compares apples to apples across
// backends. VaultRequests has a single bucket — one channel.
type statsCore struct {
	sizeHist []uint64 // indexed by PacketBytes/FlitBytes, like hmc.Device
	stats    hmc.Stats

	// Byte-conservation ledger, maintained only with a checker attached.
	// Without faults every issued byte must be delivered.
	check         *invariant.Checker
	chkIssuedB    uint64
	chkDeliveredB uint64
}

func (s *statsCore) init(cfg hmc.Config) {
	s.sizeHist = make([]uint64, cfg.BlockBytes/hmc.FlitBytes+1)
	s.stats = hmc.Stats{VaultRequests: make([]uint64, 1)}
}

// noteRequest records the accounting every submitted packet pays up front:
// the request counters and the request packet's serialization on the link.
func (s *statsCore) noteRequest(tick uint64, req hmc.Request) {
	s.stats.Requests++
	if req.Write {
		s.stats.Writes++
	} else {
		s.stats.Reads++
	}
	s.sizeHist[req.PacketBytes/hmc.FlitBytes]++
	reqFlits := uint64(hmc.RequestFlits(req.Write, req.PacketBytes))
	s.stats.TransferredBytes += reqFlits * hmc.FlitBytes
	if s.check != nil {
		s.chkIssuedB += uint64(req.PacketBytes)
	}
}

// noteDone records a delivered response: the response serialization and the
// payload/requested byte totals that feed the efficiency metrics.
func (s *statsCore) noteDone(done uint64, req hmc.Request, respFlits int) {
	s.stats.TransferredBytes += uint64(respFlits) * hmc.FlitBytes
	s.stats.PacketBytes += uint64(req.PacketBytes)
	s.stats.RequestedBytes += uint64(req.RequestedBytes)
	if s.check != nil {
		s.chkDeliveredB += uint64(req.PacketBytes)
	}
	if done > s.stats.LastDone {
		s.stats.LastDone = done
	}
}

// statsCopy materializes the exported Stats view, mirroring
// hmc.Device.Stats: the SizeHist map is built fresh and VaultRequests is
// deep-copied so callers can hold the result across further traffic.
func (s *statsCore) statsCopy() hmc.Stats {
	out := s.stats
	out.SizeHist = make(map[uint32]uint64)
	for i, n := range s.sizeHist {
		if n != 0 {
			out.SizeHist[uint32(i)*hmc.FlitBytes] = n
		}
	}
	out.VaultRequests = append([]uint64(nil), s.stats.VaultRequests...)
	return out
}

func (s *statsCore) reset() {
	for i := range s.sizeHist {
		s.sizeHist[i] = 0
	}
	s.stats = hmc.Stats{VaultRequests: make([]uint64, 1)}
	s.chkIssuedB, s.chkDeliveredB = 0, 0
}

// copyFrom copies src's counters into s's own arrays; the checker stays s's.
func (s *statsCore) copyFrom(src *statsCore) {
	copy(s.sizeHist, src.sizeHist)
	vaults := s.stats.VaultRequests
	s.stats = src.stats
	s.stats.VaultRequests = vaults
	copy(vaults, src.stats.VaultRequests)
	s.chkIssuedB = src.chkIssuedB
	s.chkDeliveredB = src.chkDeliveredB
}

// checkConservation audits that every issued byte was delivered — these
// backends have no fault paths, so the ledger must balance exactly.
func (s *statsCore) checkConservation(tick uint64) error {
	if s.check == nil {
		return nil
	}
	if s.chkIssuedB != s.chkDeliveredB {
		return s.check.Record(invariant.Violatef(invariant.RuleByteConservation, tick,
			"backend{issued=%dB delivered=%dB}",
			"issued %d B != delivered %d B",
			s.chkIssuedB, s.chkDeliveredB))
	}
	return nil
}
