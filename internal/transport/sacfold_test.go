package transport_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sac"
	"repro/internal/transport"
)

// TestTCPMeshFreeListCoversASACTurn runs the real consumer over the
// free list: a SAC that folds its shares a contributor at a time has
// (n−1)(n−k+1) receive vectors in flight — 4 at (3,2), 12 at (5,3), 3 at
// (4,4) — and recycles all of them before the next turn. The list is
// sized by that high-water mark, so after two warm rounds a third takes
// every receive vector off the list and allocates none.
func TestTCPMeshFreeListCoversASACTurn(t *testing.T) {
	const dim = 9001 // above the free list's 8192-float floor
	for _, shape := range []struct{ n, k int }{{3, 2}, {5, 3}, {4, 4}} {
		t.Run(fmt.Sprintf("n%d-k%d", shape.n, shape.k), func(t *testing.T) {
			mesh, err := transport.NewTCPMesh(shape.n, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer mesh.Close()
			rng := rand.New(rand.NewSource(7))
			models := make([][]float64, shape.n)
			for i := range models {
				models[i] = make([]float64, dim)
				for x := range models[i] {
					models[i][x] = rng.NormFloat64()
				}
			}
			cfg := sac.Config{N: shape.n, K: shape.k, Mode: sac.ModeLeader, Rng: rng}
			for round := 0; round < 3; round++ {
				before := mesh.FreshVectors()
				if _, err := sac.Run(mesh, cfg, models, nil); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if fresh := mesh.FreshVectors() - before; round == 2 && fresh != 0 {
					t.Fatalf("the third round allocated %d receive vectors; the free list should have held all %d a turn needs",
						fresh, (shape.n-1)*(shape.n-shape.k+1))
				}
			}
		})
	}
}
