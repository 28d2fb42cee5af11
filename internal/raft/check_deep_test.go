//go:build raftdeep

package raft

import (
	"fmt"
	"testing"
)

// TestEveryDeeperScheduleIsSafe is what `make test-raft` runs (go test
// -tags raftdeep): shortBound with duplication and crashes, widened to a
// third term (14,637,808 states, about 3 minutes on a 2-vCPU host) and,
// apart from it, to a third log index (34,424,295 states, about 7
// minutes and 1.2 GB). Both together passed 5 million states with the
// frontier still growing.
func TestEveryDeeperScheduleIsSafe(t *testing.T) {
	for _, b := range []bound{
		{maxTerm: 3, maxIndex: 2, maxFlight: 2, dups: true, crashes: true},
		{maxTerm: 2, maxIndex: 3, maxFlight: 2, dups: true, crashes: true},
	} {
		t.Run(fmt.Sprintf("term%d-index%d", b.maxTerm, b.maxIndex), func(t *testing.T) { runExplore(t, b) })
	}
}
