package cluster_test

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/simnet"
)

// The paper's Sec. V: in a two-layer Raft deployment of 25 peers in
// subgroups of 5, the FedAvg leader is killed. The FedAvg layer and the
// victim's subgroup both re-elect, and the new subgroup leader rejoins
// the FedAvg layer, all within a fraction of one federated round. The
// timeline is in virtual milliseconds, so it is the same on any host.
func ExampleSystem_CrashPeer() {
	sys, err := cluster.New(cluster.Options{
		NumSubgroups:    5,
		SubgroupSize:    5,
		ElectionTickMin: 100, // U(100, 200) ms, as in the paper
		ElectionTickMax: 200,
		Latency:         15 * simnet.Millisecond,
		Seed:            7,
	})
	if err != nil {
		panic(err)
	}
	if err := sys.Bootstrap(30 * simnet.Second); err != nil {
		panic(err)
	}
	sys.Sim.RunFor(500 * simnet.Millisecond)
	ms := func(t simnet.Time) float64 { return simnet.Duration(t).Ms() }

	victim := sys.FedAvgLeader()
	sub := sys.Peer(victim).Subgroup
	crashAt := sys.Sim.Now()
	fmt.Printf("t=%7.1f ms  FedAvg leader is peer %d (subgroup %d); killing it\n", ms(crashAt), victim, sub)
	if err := sys.CrashPeer(victim); err != nil {
		panic(err)
	}
	newFed, fedAt, err := sys.WaitFedAvgLeader(victim, 30*simnet.Second)
	if err != nil {
		panic(err)
	}
	fmt.Printf("t=%7.1f ms  new FedAvg leader: peer %d (+%.1f ms)\n", ms(fedAt), newFed, ms(fedAt-crashAt))
	newSub, electAt, err := sys.WaitSubgroupLeader(sub, victim, 30*simnet.Second)
	if err != nil {
		panic(err)
	}
	fmt.Printf("t=%7.1f ms  subgroup %d elected new leader: peer %d (+%.1f ms)\n",
		ms(electAt), sub, newSub, ms(electAt-crashAt))
	joinAt, err := sys.WaitJoined(newSub, 60*simnet.Second)
	if err != nil {
		panic(err)
	}
	fmt.Printf("t=%7.1f ms  peer %d joined the FedAvg layer (+%.1f ms total)\n", ms(joinAt), newSub, ms(joinAt-crashAt))
	fmt.Printf("FedAvg members now: %v\n", sys.FedAvgMembers())
	// Output:
	// t=  797.0 ms  FedAvg leader is peer 25 (subgroup 4); killing it
	// t=  973.0 ms  new FedAvg leader: peer 17 (+176.0 ms)
	// t=  973.0 ms  subgroup 4 elected new leader: peer 23 (+176.0 ms)
	// t= 1085.0 ms  peer 23 joined the FedAvg layer (+288.0 ms total)
	// FedAvg members now: [3 10 12 17 23 25]
}
