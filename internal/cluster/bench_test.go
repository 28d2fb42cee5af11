package cluster

import (
	"testing"

	"repro/internal/simnet"
)

// BenchmarkClusterVirtualSecond advances a bootstrapped, settled 5×5
// system — the failover workload's cluster — by one virtual second per
// iteration: 30 hosts ticking every virtual millisecond, heartbeats on
// six raft groups and a configuration commit every 50 ms. It is the
// handle for -cpuprofile/-memprofile on the bench ledger's
// cluster.runfor_ms row (DESIGN §4).
func BenchmarkClusterVirtualSecond(b *testing.B) {
	s, err := New(paperOpts(50, 1))
	if err != nil {
		b.Fatal(err)
	}
	if err := s.Bootstrap(30 * simnet.Second); err != nil {
		b.Fatal(err)
	}
	s.Sim.RunFor(500 * simnet.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Sim.RunFor(simnet.Second)
	}
}
