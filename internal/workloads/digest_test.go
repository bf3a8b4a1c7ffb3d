package workloads

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// digestParams are the parameter sets TestTraceDigests hashes: one core,
// the service job shape, the paper's 12 cores under memory pressure and a
// 64-core compute-bound run.
var digestParams = []Params{
	{CPUs: 1, OpsPerCPU: 500, Seed: 1},
	{CPUs: 4, OpsPerCPU: 2000, Seed: 7},
	{CPUs: 12, OpsPerCPU: 600, Seed: 3, ThinkScale: 0.3},
	{CPUs: 64, OpsPerCPU: 150, Seed: 11, ThinkScale: 2},
}

// traceDigests pins the SHA-256 of every generator's output over all of
// digestParams, in order: the access count, then each access of the
// tick-ordered view (trace.Streams.Merged) encoded as its five fields in
// little-endian. A generator, merge or validation change that moves a
// single simulated byte fails here.
var traceDigests = map[string]string{
	"SG":       "5e1c6c51fc26efb413a9e0db4a26919d09465ff6d9ec41ea042f962eacc6aefc",
	"HPCG":     "d50503a857097b6f48d9576b6105e25a5c61c511ea0d4cd417fc27844dda69f6",
	"SSCA2":    "942246e8b59da4e06322f6b91148d4235da4741f07eacad00620cbf54c473ab8",
	"STREAM":   "ad97d1c9a0affa196d1772c489b72c12473c680fa713c0527a1a56014d19ea1d",
	"SparseLU": "cd04acda0286040717c1bd1f993edb7df98a4b844cd5107a1eeec5f71ddce3f6",
	"Sort":     "79f31a829011257fb54b15104e65e20ddb0cc61e4e28ea507d5b5af854c532a8",
	"Health":   "6dc5df865ba76c10ab75cafd967b40692853b1582eb5d3c93c3ef95eb52ddfba",
	"FT":       "cbc64141d81ec97113d3fcf6f0f8eeee2c09fc3c890fc22318e1886da0668b52",
	"EP":       "78eb5169fb3cb49a2adbab2e8e2a487eb77438950bd9d211b739c7822921be80",
	"SP":       "b85166f7d4e46622ba4de356699d13940d74639fdb556cc146404a163343b393",
	"LU":       "7f06b119ce7ed5deaa4eb4257b636e4aafcbe7817b13f0361a4c2ec660cb5d4f",
	"CG":       "85271747c6270d17570c88627f262e6a153185edb823d12fa380f3d7e38b595f",
	"stride1":  "e2e9b4331b6f330b303af796bb8893473e92efa18934b6aa6b4c6139c7469482",
	"stride2":  "9c335cef5081c617e0026836880b5b913782e786046e27b809bb8c786f50d530",
	"stride4":  "4f94b5c7e6a192d561a6d8460c49f94778fed591fa0625acd3e28ae994b86e05",
	"stride8":  "086e92b172d2171e0ec15cb30b84078e0f0571557ed5205497af1d19213c500c",
	"stride16": "ee1327feed34dadefe6cd0b06fa56c423c28146d2c2e0abf6b94e296ca16b969",
	"stride32": "74f48a8cdf897b4ff311bf80856941bc81be4a94d2f324a14575eef69ef2334a",
}

func TestTraceDigests(t *testing.T) {
	gens := append(All(), StrideLadder()...)
	var buf [22]byte
	for _, g := range gens {
		h := sha256.New()
		for _, p := range digestParams {
			st, err := g.Generate(p)
			if err != nil {
				t.Fatalf("%s %+v: %v", g.Name(), p, err)
			}
			binary.LittleEndian.PutUint64(buf[:], uint64(len(st.Accs)))
			h.Write(buf[:8])
			m := st.Merged()
			for run := m.Next(); run != nil; run = m.Next() {
				for _, a := range run {
					binary.LittleEndian.PutUint64(buf[0:], a.Addr)
					binary.LittleEndian.PutUint32(buf[8:], a.Size)
					buf[12] = byte(a.Kind)
					buf[13] = a.CPU
					binary.LittleEndian.PutUint64(buf[14:], a.Tick)
					h.Write(buf[:])
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != traceDigests[g.Name()] {
			t.Errorf("%s: trace digest %s, want %s", g.Name(), got, traceDigests[g.Name()])
		}
	}
}
