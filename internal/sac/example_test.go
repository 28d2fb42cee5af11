package sac_test

import (
	"fmt"
	"math/rand"

	"repro/internal/sac"
	"repro/internal/transport"
)

// The paper's Fig. 3: in a 2-out-of-3 SAC, Alice (peer 2) drops out
// after distributing her shares. Bob, the leader, fetches her
// subtotal from a replica holder, and the survivors still reconstruct
// the exact average, Alice's model included.
func ExampleRun_dropout() {
	models := [][]float64{
		{1, 10, 100}, // peer 0, Bob (the leader)
		{2, 20, 200}, // peer 1, Charlie
		{3, 30, 300}, // peer 2, Alice
	}
	traffic := transport.NewCounter()
	res, err := sac.Run(transport.NewMesh(3, traffic),
		sac.Config{N: 3, K: 2, Leader: 0, Mode: sac.ModeLeader, Rng: rand.New(rand.NewSource(42))},
		models, sac.CrashPlan{2: sac.AfterShares})
	if err != nil {
		panic(err)
	}
	msgs := int64(0)
	for _, kind := range traffic.Kinds() {
		msgs += traffic.Messages(kind)
	}
	fmt.Printf("contributors: %v\n", res.Contributors)
	fmt.Printf("recovered subtotals for share indices %v from replica holders\n", res.Recovered)
	fmt.Printf("secure average: %.1f\n", res.Avg)
	fmt.Printf("traffic: %d bytes over %d messages\n", traffic.TotalBytes(), msgs)
	// Output:
	// contributors: [0 1 2]
	// recovered subtotals for share indices [2] from replica holders
	// secure average: [2.0 20.0 200.0]
	// traffic: 320 bytes over 14 messages
}
