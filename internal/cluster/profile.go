package cluster

import (
	"fmt"

	"repro/internal/raft"
)

// Profile names one complete failure-handling policy. It is the only
// mode selector above raft: cluster.Options, chaos.Campaign,
// chaos.StabilityOptions and `p2pfl-chaos -profile` all carry a Profile
// and nothing else, so a restarted, revived or re-homed node can never
// run a different mix of mechanisms than its peers.
type Profile uint8

const (
	// Paper is the configuration the paper evaluates (Sec. VI-B): stock
	// U(T, 2T) raft, crash-stop peers, recovery by election timeout only.
	// It is the zero value; every figure in EXPERIMENTS.md runs it.
	Paper Profile = iota
	// LAN adds the self-healing layer (health.go): per-peer failure
	// detectors, proactive campaigns, automatic FedAvg-node revival.
	LAN
	// WAN arms the raft stability flags and the RTT-driven election
	// timeout tuner for multi-region links (DESIGN.md §13). The detector
	// stays off: proactive campaigns speed elections up, which is what a
	// WAN deployment must not do.
	WAN
)

// mechanisms is what a profile switches on. The profiles table below is
// the one place they are named together.
type mechanisms struct {
	preVote, checkQuorum bool // raft.Config flags
	autoTune             bool // health.Retune feedback loop
	detector             bool // health.Detector + proactive recovery
}

var profiles = [...]struct {
	name string
	mechanisms
}{
	Paper: {name: "paper"},
	LAN:   {name: "lan", mechanisms: mechanisms{detector: true}},
	WAN:   {name: "wan", mechanisms: mechanisms{preVote: true, checkQuorum: true, autoTune: true}},
}

// ParseProfile resolves a profile name (paper | lan | wan).
func ParseProfile(name string) (Profile, error) {
	for p, e := range profiles {
		if e.name == name {
			return Profile(p), nil
		}
	}
	return Paper, fmt.Errorf("cluster: unknown profile %q (want paper | lan | wan)", name)
}

func (p Profile) valid() bool { return int(p) < len(profiles) }

func (p Profile) String() string {
	if !p.valid() {
		return fmt.Sprintf("Profile(%d)", uint8(p))
	}
	return profiles[p].name
}

// MarshalText and UnmarshalText spell the profile by name in replay
// files and reports.
func (p Profile) MarshalText() ([]byte, error) {
	if !p.valid() {
		return nil, fmt.Errorf("cluster: unknown profile %d", uint8(p))
	}
	return []byte(profiles[p].name), nil
}

func (p *Profile) UnmarshalText(b []byte) (err error) {
	*p, err = ParseProfile(string(b))
	return err
}

// Raft stamps the profile's protocol flags onto one node's config.
func (p Profile) Raft(cfg raft.Config) raft.Config {
	m := profiles[p].mechanisms
	cfg.PreVote, cfg.CheckQuorum = m.preVote, m.checkQuorum
	return cfg
}

// AutoTune reports whether nodes retune their election bands from
// observed RTTs.
func (p Profile) AutoTune() bool { return profiles[p].autoTune }

// Detector reports whether peers run failure detectors.
func (p Profile) Detector() bool { return profiles[p].detector }
