package cluster

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/simnet"
)

// TestRaftConfigRecipe checks the one recipe every raft node in the
// package is built by: for each profile × each construction kind × log
// compaction on/off, the config carries the profile's protocol flags,
// the kind's RNG stream, and the snapshot hook exactly on subgroup nodes
// with compaction enabled.
func TestRaftConfigRecipe(t *testing.T) {
	flags := map[Profile][2]bool{ // PreVote, CheckQuorum
		Paper: {false, false},
		LAN:   {false, false},
		WAN:   {true, true},
	}
	kinds := []struct {
		name   string
		kind   nodeKind
		stream int64
		fed    bool
	}{
		{"initial/AddPeer", kindInitial, 1000, false},
		{"fed new", kindFedNew, 2000, true},
		{"fed restart/revive", kindFedRestart, 3000, true},
		{"sub restart", kindSubRestart, 4000, false},
		{"handoff sub", kindHandoffSub, 6000, false},
		{"handoff fed", kindHandoffFed, 6000, true},
		{"shard rehome", kindShard, 7000, false},
	}
	const seed, id = 17, 4
	peers := []uint64{3, 4, 5}
	for profile, want := range flags {
		for _, threshold := range []int{-1, 64} {
			s, err := New(Options{
				NumSubgroups: 2, SubgroupSize: 3, Latency: 5 * simnet.Millisecond,
				Profile: profile, SnapshotThreshold: threshold, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if (s.Peer(id).rtt != nil) != profile.AutoTune() || (s.Peer(id).det != nil) != profile.Detector() {
				t.Errorf("%v: peer has rtt=%v det=%v", profile, s.Peer(id).rtt != nil, s.Peer(id).det != nil)
			}
			for _, k := range kinds {
				cfg := s.raftConfig(s.Peer(id), k.kind, peers)
				if got := [2]bool{cfg.PreVote, cfg.CheckQuorum}; got != want {
					t.Errorf("%v %s: raft flags %v, want %v", profile, k.name, got, want)
				}
				if cfg.ID != id || !reflect.DeepEqual(cfg.Peers, peers) ||
					cfg.ElectionTickMin != 150 || cfg.ElectionTickMax != 300 || cfg.HeartbeatTick != 50 {
					t.Errorf("%v %s: identity/timers %+v", profile, k.name, cfg)
				}
				if got, want := cfg.Rng.Int63(), rand.New(rand.NewSource(seed*k.stream+id)).Int63(); got != want {
					t.Errorf("%v %s: first draw %d is not stream Seed*%d+id", profile, k.name, got, k.stream)
				}
				wantHook := !k.fed && threshold > 0
				if (cfg.SnapshotState != nil) != wantHook || (cfg.SnapshotThreshold > 0) != wantHook {
					t.Errorf("%v %s threshold %d: snapshot hook %v (threshold %d), want %v",
						profile, k.name, threshold, cfg.SnapshotState != nil, cfg.SnapshotThreshold, wantHook)
				}
			}
		}
	}
}

// TestProfileNames: the three names parse, print and survive JSON; the
// zero value is the paper profile and is omitted from serialized
// options; anything else is an error, never a silent default.
func TestProfileNames(t *testing.T) {
	var zero Profile
	if zero != Paper || zero.String() != "paper" {
		t.Fatalf("zero profile = %v", zero)
	}
	for _, p := range []Profile{Paper, LAN, WAN} {
		got, err := ParseProfile(p.String())
		if err != nil || got != p {
			t.Errorf("ParseProfile(%q) = %v, %v", p, got, err)
		}
		b, err := json.Marshal(struct {
			P Profile `json:"p,omitempty"`
		}{p})
		if err != nil {
			t.Fatal(err)
		}
		if want := `{"p":"` + p.String() + `"}`; p != Paper && string(b) != want {
			t.Errorf("marshal %v = %s, want %s", p, b, want)
		}
		if p == Paper && string(b) != `{}` {
			t.Errorf("paper profile not omitted: %s", b)
		}
	}
	if _, err := ParseProfile("production"); err == nil {
		t.Error("unknown profile name parsed")
	}
	var p Profile
	if err := json.Unmarshal([]byte(`"lna"`), &p); err == nil {
		t.Error("misspelled profile decoded")
	}
	if _, err := New(Options{NumSubgroups: 1, SubgroupSize: 3, Profile: Profile(9)}); err == nil {
		t.Error("out-of-range profile accepted by New")
	}
}

// TestOptionsHaveNoModeBooleans guards the design rule behind Profile:
// behaviour above raft is selected by one named value, so Options must
// never grow a free on/off switch again.
func TestOptionsHaveNoModeBooleans(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Type.Kind() == reflect.Bool {
			t.Errorf("cluster.Options.%s is a bool: add the behaviour to a Profile instead", f.Name)
		}
	}
}
