package sac

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/transport"
)

// TestForgedSharesNeverReachASubtotal plants three well-formed share
// messages no honest run produces — one a peer addresses to itself, one
// for an index its receiver does not hold, one from a contributor whose
// turn it is not — and requires the round to be bit-identical to a clean
// one, with all three counted invalid: in turn i a receiver folds only
// shares from i, for indices it holds, and nothing in its own turn.
func TestForgedSharesNeverReachASubtotal(t *testing.T) {
	const n, k, dim = 4, 3, 6
	models := randModels(rand.New(rand.NewSource(61)), n, dim)
	run := func(forged []transport.Message) (*Result, int64) {
		mesh := transport.NewMesh(n, nil)
		for _, m := range forged {
			m.Kind, m.Payload = KindShare, []float64{9e9, 9e9, 9e9, 9e9, 9e9, 9e9}
			if err := mesh.Send(m); err != nil {
				t.Fatal(err)
			}
		}
		reg := telemetry.New()
		res, err := Run(mesh, Config{N: n, K: k, Leader: 0, Mode: ModeLeader,
			Rng: rand.New(rand.NewSource(62)), Telemetry: reg}, models, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res, reg.Counter("sac/msgs_invalid").Value()
	}
	clean, _ := run(nil)
	got, invalid := run([]transport.Message{
		{From: 0, To: 0, ShareIdx: 0}, // self-addressed: would displace peer 0's own share
		{From: 0, To: 1, ShareIdx: 3}, // peer 1 holds indices 1 and 2 only
		{From: 2, To: 1, ShareIdx: 1}, // drained in peer 0's turn, not peer 2's
	})
	if !bitsEqual(got.Avg, clean.Avg) {
		t.Fatalf("forged shares moved the average: %v, clean %v", got.Avg, clean.Avg)
	}
	if invalid != 3 {
		t.Fatalf("%d messages counted invalid, want 3", invalid)
	}
}

// adversarialKinds are the message kinds an attacker might forge —
// protocol kinds, a stale kind from "another subsystem", and garbage.
var adversarialKinds = []string{
	KindShare, KindSubtotal, KindRecoveryReq, KindRecovery, "sac/bogus", "",
}

// FuzzHandleMessage injects arbitrary adversarial messages into the mesh
// before an aggregation runs: forged kinds, out-of-range share indices,
// payloads of the wrong dimension, and replays of a whole earlier round.
// The engine must never panic, must never double-count a model, and —
// when none of the injections is well-formed enough to masquerade as a
// genuine share or subtotal — must still produce the exact plaintext
// average.
func FuzzHandleMessage(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), []byte{0, 1, 2, 9, 3})
	f.Add(int64(2), uint8(3), uint8(3), []byte{1, 0, 0, 0, 0, 2, 1, 1, 7, 8})
	f.Add(int64(3), uint8(6), uint8(1), []byte{255, 255, 255, 255, 255})
	f.Add(int64(4), uint8(1), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw uint8, raw []byte) {
		n := 1 + int(nRaw)%6 // 1..6 peers
		k := 1 + int(kRaw)%n // 1..n threshold
		const dim = 3
		rng := rand.New(rand.NewSource(seed))
		models := make([][]float64, n)
		for i := range models {
			models[i] = make([]float64, dim)
			for d := range models[i] {
				models[i][d] = math.Round(rng.Float64()*512) / 8
			}
		}
		mesh := transport.NewMesh(n, nil)
		cfg := Config{N: n, K: k, Leader: int(nRaw) % n, Mode: ModeLeader,
			Rng: rand.New(rand.NewSource(seed + 1))}

		// Decode the fuzz bytes into injected messages, five bytes each:
		// from, to, kind selector, share index (signed around zero so
		// negatives are covered), payload length.
		clean := true // no injection could pass the engine's validators
		for i := 0; i+5 <= len(raw); i += 5 {
			m := transport.Message{
				From:     int(raw[i]) % n,
				To:       int(raw[i+1]) % n,
				Kind:     adversarialKinds[int(raw[i+2])%len(adversarialKinds)],
				ShareIdx: int(raw[i+3]) - 128,
				Payload:  make([]float64, int(raw[i+4])%(2*dim+1)),
			}
			for d := range m.Payload {
				m.Payload[d] = rng.Float64() * 100
			}
			if err := mesh.Send(m); err != nil {
				t.Fatalf("inject: %v", err)
			}
			wellFormed := (m.Kind == KindShare || m.Kind == KindSubtotal) &&
				m.ShareIdx >= 0 && m.ShareIdx < n && len(m.Payload) == dim
			if wellFormed {
				clean = false
			}
		}

		res, err := Run(mesh, cfg, models, nil) // must not panic
		if err != nil {
			// With no crashes scheduled the only legitimate failure is an
			// injected message having displaced protocol state — which a
			// well-formed forgery may do; anything else is a bug.
			if clean {
				t.Fatalf("n=%d k=%d: clean run failed: %v", n, k, err)
			}
			return
		}
		if got := len(res.Avg); got != dim {
			t.Fatalf("avg dimension %d, want %d", got, dim)
		}
		if len(res.Contributors) != n {
			t.Fatalf("contributors %v, want all %d peers", res.Contributors, n)
		}
		if clean {
			// Exactness: injections were all discarded, so the average is
			// the plain mean — in particular no model was double-counted.
			for d := 0; d < dim; d++ {
				want := 0.0
				for i := range models {
					want += models[i][d]
				}
				want /= float64(n)
				if math.Abs(res.Avg[d]-want) > 1e-9 {
					t.Fatalf("n=%d k=%d: avg[%d] = %g, want %g", n, k, d, res.Avg[d], want)
				}
			}
		}

		// Replay the entire round: every message of the finished round is
		// still queued nowhere (the engine drains as it goes), but a second
		// run on the same mesh sees any residue plus fresh state. It must
		// not panic and must again count every peer exactly once.
		res2, err := Run(mesh, cfg, models, nil)
		if err == nil && len(res2.Contributors) != n {
			t.Fatalf("replayed round contributors %v, want %d peers", res2.Contributors, n)
		}
	})
}

// stepKinds are what FuzzPeerStep hands a Peer: every kind of the
// protocol, a kind of "another subsystem", and garbage.
var stepKinds = []string{
	KindShare, KindSubtotal, KindRecoveryReq, KindRecovery, KindAccuse,
	KindClaims, KindResult, KindAudit, "sac/bogus", "",
}

// FuzzPeerStep is FuzzHandleMessage one layer down. Messages injected
// into a mesh before Run are all read in the first turn; a Peer stepped by
// hand can be handed anything at any point of the round — inside every
// turn after the genuine shares (so a forgery gets the last word), once
// sealed, and after the genuine subtotals (so the first copy has won). No
// sequence may panic a Peer, make it allocate in proportion to what a
// message claims (a share index, a payload length), or count a
// contributor twice; and when every injection was discarded as invalid
// the round is bit-identical to an undisturbed one. The seeds are
// FuzzHandleMessage's, read the same way, plus later-phase ones.
func FuzzPeerStep(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(2), []byte{0, 1, 2, 9, 3})
	f.Add(int64(2), uint8(3), uint8(3), []byte{1, 0, 0, 0, 0, 2, 1, 1, 7, 8})
	f.Add(int64(3), uint8(6), uint8(1), []byte{255, 255, 255, 255, 255})
	f.Add(int64(4), uint8(1), uint8(1), []byte{})
	f.Add(int64(5), uint8(3), uint8(1), []byte{13, 0, 1, 130, 3, 17, 0, 3, 129, 3, 16, 0, 2, 129, 1})
	f.Add(int64(6), uint8(4), uint8(2), []byte{22, 0, 5, 127, 12, 21, 0, 6, 127, 3, 23, 1, 7, 127, 1, 2, 3, 0, 131, 3})
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw uint8, raw []byte) {
		n := 1 + int(nRaw)%6 // 1..6 peers
		k := 1 + int(kRaw)%n // 1..n threshold
		const dim = 3
		rng := rand.New(rand.NewSource(seed))
		models := make([][]float64, n)
		for i := range models {
			models[i] = make([]float64, dim)
			for d := range models[i] {
				models[i][d] = math.Round(rng.Float64()*512) / 8
			}
		}
		cfg := Config{N: n, K: k, Leader: int(nRaw) % n, Mode: ModeLeader}
		switch {
		case seed%3 == 1:
			cfg.Guard = &Guard{ShareBound: 64, CrossCheck: true}
		case seed%3 == 2 && k == n:
			cfg.Mode = ModeBroadcast
		}

		// Five bytes a message, as in FuzzHandleMessage — from, to, kind,
		// share index around zero, payload length — with what the first
		// byte has left over choosing when it arrives and stretching the
		// share index and the length far out of range.
		points := n + 2 // inside each turn, once sealed, after the subtotals
		inject := make([][]transport.Message, points)
		injected := 0
		for i := 0; i+5 <= len(raw) && injected < 32; i += 5 { // 32 stretched payloads are 4 MB
			m := transport.Message{
				From:     int(raw[i]) % n,
				To:       int(raw[i+1]) % n,
				Kind:     stepKinds[int(raw[i+2])%len(stepKinds)],
				ShareIdx: int(raw[i+3]) - 128,
				Payload:  make([]float64, int(raw[i+4])%(2*dim+1)),
			}
			if raw[i+1] >= 128 {
				m.ShareIdx <<= raw[i+1] % 48
				m.Payload = make([]float64, len(m.Payload)*n*dim+int(raw[i+4])*64)
			}
			for d := range m.Payload {
				m.Payload[d] = rng.Float64() * 100
			}
			when := int(raw[i]) / n % points
			inject[when] = append(inject[when], m)
			injected++
		}

		round := func(forged bool) (*Result, error, int) {
			h := newHandRound(t, cfg, dim, nil)
			rejected := 0
			h.at = func(point int) {
				if !forged {
					return
				}
				before := allocated()
				for _, m := range inject[point] {
					if h.step(m) { // must not panic
						rejected++
					}
				}
				// A Step may queue an answer to every peer and note a payload
				// as done; it never copies or sizes anything by the message
				// (a stretched payload is up to 130 KB; the slack is for
				// whatever else the process allocates meanwhile).
				if grew, budget := allocated()-before, uint64(len(inject[point])*(256+128*n)+32<<10); grew > budget {
					t.Fatalf("%d injected messages made their peers allocate %d bytes, budget %d", len(inject[point]), grew, budget)
				}
				for j := range h.peers {
					h.pump(j)
				}
			}
			h.shares(models, rand.New(rand.NewSource(seed+1)))
			h.report()
			h.at(n + 1)
			res, err := h.peers[h.collector()].Finish()
			for j := range h.peers {
				h.pump(j)
				// No double count: a running subtotal never holds more folds
				// than there were contributors, and every turn ended either
				// folded or dropped, once.
				p := &h.peers[j]
				for a, folds := range p.folds {
					if folds > len(p.contributors) {
						t.Fatalf("peer %d folded %d shares into subtotal %d with %d contributors", j, folds, a, len(p.contributors))
					}
				}
				if turns := append(slices.Clone(p.contributors), p.excluded...); !slices.Equal(sorted(turns), allPeers(n)) {
					t.Fatalf("peer %d ended the turns with contributors %v and excluded %v", j, p.contributors, p.excluded)
				}
			}
			return res, err, rejected
		}

		want, err, _ := round(false)
		if err != nil {
			t.Fatalf("n=%d k=%d: the undisturbed round failed: %v", n, k, err)
		}
		got, err, rejected := round(true)
		if rejected < injected {
			return // something was well-formed enough to be taken; it may do what such a message may
		}
		if err != nil || !bitsEqual(got.Avg, want.Avg) || !slices.Equal(got.Contributors, want.Contributors) {
			t.Fatalf("n=%d k=%d: every injection was invalid, yet the round gave %+v (err %v), undisturbed %+v", n, k, got, err, want)
		}
	})
}

func sorted(s []int) []int {
	slices.Sort(s)
	return s
}
