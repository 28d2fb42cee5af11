package sac

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/secretshare"
	"repro/internal/transport"
)

// ---- the oracle table ----

// oracleCase is one row: a protocol configuration, a fault schedule and
// an adversary, run for two consecutive rounds on one fabric.
type oracleCase struct {
	n, k      int
	mode      Mode
	crashName string
	crash     CrashPlan
	behavior  Behavior
	pair      bool // peers 1 and 2 both misbehave (two accused: accusation order shows)
	guardName string
	guard     *Guard
	mask      bool // MaskDivider instead of the default Alg. 1
	tcp       bool
	scratch   bool // explicit Scratch instead of a borrowed one
}

func (c oracleCase) String() string {
	fabric, sc, div := "mem", "borrowed", "scalar"
	if c.tcp {
		fabric = "tcp"
	}
	if c.scratch {
		sc = "explicit"
	}
	if c.mask {
		div = "mask"
	}
	who := ""
	if c.pair {
		who = "×2"
	}
	return fmt.Sprintf("n%d-k%d-mode%d-crash:%s-byz:%q%s-guard:%s-%s-%s-%s",
		c.n, c.k, c.mode, c.crashName, c.behavior, who, c.guardName, div, fabric, sc)
}

const (
	oracleDim    = 5
	oracleLeader = 0
	oracleBound  = 4 // honest models stay inside it; a ×1000 forgery does not
)

// oracleCrashPlans lists the fault schedules for one (n, k): none, one
// of each phase, the leader, and the n−k the replication tolerates of
// each phase (taken from the high peer ids, so the leader survives).
func oracleCrashPlans(n, k int) []namedCrash {
	plans := []namedCrash{
		{"none", nil},
		{"before", CrashPlan{1: BeforeShares}},
		{"after", CrashPlan{2: AfterShares}},
		{"leader", CrashPlan{oracleLeader: AfterShares}},
		{"leader-before", CrashPlan{oracleLeader: BeforeShares}},
	}
	if n-k > 0 {
		before, after, mixed := CrashPlan{}, CrashPlan{}, CrashPlan{}
		for i := 0; i < n-k; i++ {
			before[n-1-i], after[n-1-i] = BeforeShares, AfterShares
			mixed[n-1-i] = Phase(i % 2)
		}
		plans = append(plans, namedCrash{"max-before", before}, namedCrash{"max-after", after}, namedCrash{"max-mixed", mixed})
	}
	return plans
}

type namedCrash struct {
	name string
	plan CrashPlan
}

type namedGuard struct {
	name  string
	guard *Guard
}

var oracleBehaviors = []Behavior{ByzNone, ByzCorruptShares, ByzInflateSubtotal, ByzZeroSubtotal,
	ByzEquivocate, ByzPoisonScale, ByzPoisonSignFlip}

// oracleCases enumerates n ∈ {3,4,5} × every valid k × mode × crash plan
// × behavior × guard × fabric × scratch ownership. tcpToo adds the
// socket fabric to every row.
func oracleCases(tcpToo bool) []oracleCase {
	var out []oracleCase
	// fabricsAndScratch appends c on every fabric, on a borrowed and on an
	// explicit working set.
	fabricsAndScratch := func(c oracleCase) {
		for _, tcp := range []bool{false, true} {
			for _, scratch := range []bool{false, true} {
				if c.tcp, c.scratch = tcp, scratch; !tcp || tcpToo {
					out = append(out, c)
				}
			}
		}
	}
	for n := 3; n <= 5; n++ {
		for k := 1; k <= n; k++ {
			modes := []Mode{ModeLeader}
			if k == n {
				modes = append(modes, ModeBroadcast)
			}
			for _, mode := range modes {
				guards := []namedGuard{{"off", nil}, {"range", &Guard{ShareBound: oracleBound}}}
				if mode == ModeLeader { // the cross-check needs a leader
					guards = append(guards, namedGuard{"full", &Guard{ShareBound: oracleBound, CrossCheck: true}})
				}
				for _, crash := range oracleCrashPlans(n, k) {
					for _, b := range oracleBehaviors {
						for _, g := range guards {
							c := oracleCase{n: n, k: k, mode: mode, crashName: crash.name, crash: crash.plan,
								behavior: b, guardName: g.name, guard: g.guard}
							fabricsAndScratch(c)
							if b == ByzPoisonScale {
								c.pair = true
								fabricsAndScratch(c)
							}
							if b == ByzNone && g.guard == nil { // one divider is enough off the honest path
								c.mask = true
								fabricsAndScratch(c)
							}
						}
					}
				}
			}
		}
	}
	return out
}

// oracleOutcome is everything Run lets a caller observe.
type oracleOutcome struct {
	avgBits []uint64
	rest    Result // Avg cleared
	err     string
	bytes   map[string]int64
	msgs    map[string]int64
	wire    uint64 // in memory: every message sent so far, in order, payload bits included
}

func observe(res *Result, err error, counter *transport.Counter, wire uint64) oracleOutcome {
	o := oracleOutcome{bytes: map[string]int64{}, msgs: map[string]int64{}, wire: wire}
	if err != nil {
		o.err = err.Error()
	}
	if res != nil {
		for _, v := range res.Avg {
			o.avgBits = append(o.avgBits, math.Float64bits(v))
		}
		o.rest = *res
		o.rest.Avg = nil
	}
	for _, kind := range counter.Kinds() {
		o.bytes[kind], o.msgs[kind] = counter.Bytes(kind), counter.Messages(kind)
	}
	return o
}

// oracleModels draws bounded models whose first coordinate is −0.0 at
// every peer, so every subtotal's first coordinate is a sum of negative
// zeros: +0 when it starts from zero, −0 had the sum started from a copy.
func oracleModels(r *rand.Rand, n int) [][]float64 {
	models := boundedModels(r, n, oracleDim, oracleBound)
	for _, m := range models {
		m[0] = math.Copysign(0, -1)
	}
	return models
}

// runOracleCase drives one implementation (run) through the case's two rounds on
// a fresh fabric and returns what it observed per round plus the rng's
// next draw. Before the second round two stale, well-formed shares —
// replays between the first two alive peers, one each way — sit in their
// inboxes.
func runOracleCase(t *testing.T, c oracleCase, run func(transport.Network, Config, [][]float64, CrashPlan) (*Result, error)) ([]oracleOutcome, int64) {
	t.Helper()
	var mesh transport.Network
	counter := transport.NewCounter()
	wire := fnv.New64a()
	if c.tcp {
		m, err := transport.NewTCPMesh(c.n, counter)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		mesh = m
	} else {
		m := transport.NewMesh(c.n, counter)
		m.Observe(func(msg transport.Message) {
			fmt.Fprintf(wire, "%d>%d %s %d:", msg.From, msg.To, msg.Kind, msg.ShareIdx)
			var word [8]byte
			for _, v := range msg.Payload {
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
				wire.Write(word[:])
			}
		})
		mesh = m
	}
	cfg := Config{N: c.n, K: c.k, Leader: oracleLeader, Mode: c.mode, Guard: c.guard,
		Rng: rand.New(rand.NewSource(41))}
	if c.mask {
		cfg.Divider = secretshare.MaskDivider{Scale: 2}
	}
	if c.scratch {
		cfg.Scratch = &Scratch{}
	}
	if c.behavior != ByzNone {
		who := 1
		if c.behavior == ByzEquivocate {
			who = oracleLeader // only a leader can equivocate
		}
		cfg.Adversary = AdversaryPlan{who: c.behavior}
		if c.pair {
			cfg.Adversary[2] = c.behavior
		}
	}
	src := rand.New(rand.NewSource(43))
	var out []oracleOutcome
	for round := 0; round < 2; round++ {
		models := oracleModels(src, c.n)
		if alive := alivePeers(mesh); round == 1 && len(alive) >= 2 {
			for _, to := range []int{1, 0} {
				stale := transport.Message{From: alive[1-to], To: alive[to], Kind: KindShare, ShareIdx: alive[to],
					Payload: boundedModels(src, 1, oracleDim, oracleBound)[0]}
				if err := mesh.Send(stale); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := run(mesh, cfg, models, c.crash)
		out = append(out, observe(res, err, counter, wire.Sum64()))
	}
	return out, cfg.Rng.Int63()
}

func runReference(mesh transport.Network, cfg Config, models [][]float64, crash CrashPlan) (*Result, error) {
	return refRun(mesh, cfg, models, crash, false)
}

func runReordered(mesh transport.Network, cfg Config, models [][]float64, crash CrashPlan) (*Result, error) {
	return refRun(mesh, cfg, models, crash, true)
}

// differences names what differs between two runs of one oracle case:
// the Avg bits or a Result field, the error, the traffic by kind (bytes,
// msgs), the wire hash in either round, or the rng's next draw — "other"
// for anything else, so no difference goes unnamed.
func differences(got, want []oracleOutcome, gotRng, wantRng int64) []string {
	var out []string
	note := func(name string, differs bool) {
		if differs && !slices.Contains(out, name) {
			out = append(out, name)
		}
	}
	for r := 0; r < len(got) && r < len(want); r++ {
		g, w := got[r], want[r]
		note("Avg", !reflect.DeepEqual(g.avgBits, w.avgBits))
		rg, rw := reflect.ValueOf(g.rest), reflect.ValueOf(w.rest)
		for f := 0; f < rg.NumField(); f++ {
			note(rg.Type().Field(f).Name, !reflect.DeepEqual(rg.Field(f).Interface(), rw.Field(f).Interface()))
		}
		note("err", g.err != w.err)
		note("bytes", !reflect.DeepEqual(g.bytes, w.bytes))
		note("msgs", !reflect.DeepEqual(g.msgs, w.msgs))
		note("wire", g.wire != w.wire)
	}
	note("rng", gotRng != wantRng)
	note("other", len(out) == 0 && !reflect.DeepEqual(got, want))
	return out
}

// TestStreamingFoldMatchesReference is the bit-identity proof of the
// driver and its Peers: over the whole table Run returns the reference
// engine's Result (Avg compared by bit pattern), error,
// traffic counter by kind (bytes and messages), puts the same messages
// with the same payload bits on an in-memory mesh in the same order, and
// leaves the caller's rng in the same state. Any row that differs fails
// the test, once every row has run: it logs one line per class of
// differing rows — mode, guard, crash plan and what differs — with how
// many rows it holds, and the first row in full. -short keeps the socket
// fabric to n = 3.
func TestStreamingFoldMatchesReference(t *testing.T) {
	cases := oracleCases(true)
	classes, differing, first := map[string]int{}, 0, ""
	for _, c := range cases {
		if c.tcp && testing.Short() && c.n > 3 {
			continue
		}
		got, gotRng := runOracleCase(t, c, Run)
		want, wantRng := runOracleCase(t, c, runReference)
		if diff := differences(got, want, gotRng, wantRng); len(diff) > 0 {
			classes[fmt.Sprintf("mode%d guard:%s crash:%s differ in %s", c.mode, c.guardName, c.crashName, strings.Join(diff, ","))]++
			if differing++; first == "" {
				first = fmt.Sprintf("%s:\nstreaming %+v (next draw %d)\nreference %+v (next draw %d)", c, got, gotRng, want, wantRng)
			}
		}
	}
	t.Logf("%d cases, two rounds each", len(cases))
	if differing == 0 {
		return
	}
	keys := make([]string, 0, len(classes))
	for k := range classes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Logf("%5d rows: %s", classes[k], k)
	}
	t.Fatalf("%d rows differ from the reference, in %d classes; the first is %s", differing, len(classes), first)
}

// TestOracleCatchesReorderedFold shows the table has teeth: a reference
// that sums its contributors in descending order — the same shares, the
// same traffic, a different floating-point association — is told apart
// from Run on the first three-contributor row.
func TestOracleCatchesReorderedFold(t *testing.T) {
	for _, c := range oracleCases(false) {
		got, _ := runOracleCase(t, c, Run)
		mutant, _ := runOracleCase(t, c, runReordered)
		if !reflect.DeepEqual(got, mutant) {
			return
		}
	}
	t.Fatal("a reordered fold passed every row of the oracle table")
}
