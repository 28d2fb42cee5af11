package health

import "testing"

// TestDetectorForgetThenReadopt pins the departed-peer lifecycle: Forget
// erases verdict state and watch membership without emitting a
// transition, and a later re-admission of the same id starts timing from
// scratch — no stale Down verdict, no inherited silence gap.
func TestDetectorForgetThenReadopt(t *testing.T) {
	clk := &fakeClock{}
	var trs []Transition
	d := newTestDetector(t, clk, []uint64{1, 2}, func(tr Transition) { trs = append(trs, tr) })

	// Drive peer 2 to Down through silence while peer 1 stays chatty.
	for i := 0; i < 4; i++ {
		clk.advance(1000)
		d.Observe(1)
		d.Tick()
	}
	if s, _ := d.State(2); s != Down {
		t.Fatalf("peer 2 state = %v, want Down before Forget", s)
	}
	pre := len(trs) // Up→Suspect, Suspect→Down

	d.Forget(2)

	if len(trs) != pre {
		t.Fatalf("Forget emitted %d transitions", len(trs)-pre)
	}
	if _, known := d.State(2); known {
		t.Fatal("forgotten peer still known")
	}
	if got := d.Watched(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("watch set after Forget = %v, want [1]", got)
	}
	if !d.AllUp() {
		t.Fatal("AllUp must hold once the Down peer is forgotten")
	}
	for _, st := range d.Snapshot() {
		if st.Peer == 2 {
			t.Fatal("forgotten peer still in Snapshot")
		}
	}

	// Readopt the same id, as the cluster does when a successor inherits
	// a departed peer's identity: the fresh row is Up with activity based
	// at re-admission, so the old silence cannot instantly re-condemn it.
	d.SetWatch([]uint64{1, 2})
	if s, known := d.State(2); !known || s != Up {
		t.Fatalf("readopted peer state = %v (known=%v), want fresh Up", s, known)
	}
	d.Tick()
	if len(trs) != pre {
		t.Fatalf("readopted peer drew an immediate verdict: %+v", trs[pre:])
	}

	// The fresh row escalates on its own schedule: silence counted from
	// re-admission, not from the forgotten row's last activity.
	clk.advance(2000)
	d.Observe(1)
	d.Tick()
	if len(trs) != pre+1 || trs[pre].Peer != 2 || trs[pre].To != Suspect {
		t.Fatalf("transitions after fresh silence = %+v, want one Up→Suspect for peer 2", trs[pre:])
	}
}
