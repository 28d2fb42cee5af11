// Command p2pfl-node runs one real peer of a Raft group over TCP — the
// real-time counterpart of the discrete-event simulation used by the
// recovery experiments, around the same loop body (raft.Loop): the
// simulator feeds it from a virtual clock, this daemon from a ticker, a
// socket and stdin. Start one process per peer:
//
//	p2pfl-node -id 1 -peers "1=127.0.0.1:9101,2=127.0.0.1:9102,3=127.0.0.1:9103"
//	p2pfl-node -id 2 -peers "..." &
//	p2pfl-node -id 3 -peers "..." &
//
// The node logs state transitions and committed entries. Lines typed on
// stdin are proposed to the replicated log when this node is the leader
// (in the aggregation system these entries carry the FedAvg-layer
// configuration, Sec. V-A1). Kill the leader process and watch the
// remaining peers elect a replacement — the built-in failure detector
// (internal/health) declares the silent leader Down after a few missed
// heartbeats and campaigns immediately instead of waiting out the full
// U(T, 2T) timeout. With -debug-addr set, /debug/health serves the
// detector's verdicts and the transport's per-peer circuit states.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/health"
	"repro/internal/raft"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func main() {
	var (
		id        = flag.Uint64("id", 0, "this node's ID (required, non-zero)")
		peersFlag = flag.String("peers", "", "comma-separated id=host:port list for ALL peers (required)")
		tMs       = flag.Int("t", 150, "election timeout T in ms; timeouts sampled from U(T, 2T)")
		tickMs    = flag.Int("tick", 10, "raft tick interval in ms")
		statePath = flag.String("state", "", "path for durable raft state; enables crash-restart rejoin")
		snapEvery = flag.Int("snapshot", 256, "auto-compact the log after this many applied entries (0: never)")
		debugAddr = flag.String("debug-addr", "", "host:port for the debug HTTP server (/debug/telemetry); empty disables")
	)
	flag.Parse()
	if *id == 0 || *peersFlag == "" {
		flag.Usage()
		os.Exit(2)
	}
	ticksPerT, heartbeat, err := timing(*tMs, *tickMs)
	if err != nil {
		log.Fatal(err)
	}
	addrs, ids, err := parsePeers(*peersFlag)
	if err != nil {
		log.Fatalf("bad -peers: %v", err)
	}
	if _, ok := addrs[*id]; !ok {
		log.Fatalf("-id %d not present in -peers", *id)
	}

	var reg *telemetry.Registry // nil unless -debug-addr: every hook no-ops
	if *debugAddr != "" {
		reg = telemetry.New()
	}
	cfg := raft.Config{
		ID:                *id,
		Peers:             ids,
		ElectionTickMin:   ticksPerT,
		ElectionTickMax:   2 * ticksPerT,
		HeartbeatTick:     heartbeat,
		SnapshotThreshold: *snapEvery,
		Telemetry:         reg,
	}
	state := stateFile(*statePath)
	node, err := state.open(cfg)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := transport.NewRaftTCP(*id, addrs, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer tr.Close()
	tr.SetTelemetry(reg)
	log.Printf("node %d listening on %s (T=%dms, tick=%dms)", *id, tr.Addr(), *tMs, *tickMs)

	loop := &raft.Loop{
		Store: state,
		// Send errors are dropped — message loss is tolerated, raft
		// retries via timeouts.
		Send: func(m raft.Message) { _ = tr.Send(m) },
		OnCommit: func(e raft.Entry) {
			switch e.Type {
			case raft.EntryNormal:
				if len(e.Data) > 0 {
					log.Printf("committed [%d] %q", e.Index, e.Data)
				}
			case raft.EntryConfChange:
				if cc, err := raft.DecodeConfChange(e.Data); err == nil {
					log.Printf("conf change: add=%v node=%d; members now %v", cc.Add, cc.NodeID, node.Members())
				}
			}
		},
	}
	if err := loop.Start(node); err != nil {
		log.Fatal(err)
	}

	// Failure detector over the co-peers, driven by the same wall clock
	// as live telemetry and fed by transport activity. Its silence
	// thresholds derive from the heartbeat interval: Suspect after 2
	// missed heartbeats, Down after 3. Its peer table is every co-peer:
	// what a leader would watch.
	det, err := health.New(health.WatchSet(true, *id, *id, ids), health.Options{
		TickIntervalUs: int64(heartbeat) * int64(*tickMs) * 1000,
		Clock:          telemetry.WallClock,
		Telemetry:      reg,
		Owner:          *id,
		OnTransition: func(ht health.Transition) {
			log.Printf("health: peer %d %s -> %s (silent %dms)", ht.Peer, ht.From, ht.To, ht.SinceActivityUs/1000)
			// Down verdicts are only emitted from det.Tick, which run
			// calls on its own goroutine right before the loop's Tick:
			// touching the node here is safe, and that Tick's Pump
			// carries the vote requests out.
			if ht.To == health.Down && node.Leader() == ht.Peer && node.State() != raft.Leader {
				log.Printf("health: leader %d is down, campaigning now", ht.Peer)
				node.Campaign()
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// Before a first leader is known there is no one whose silence would
	// be meaningful; watch sets follow role changes.
	det.SetWatch(nil)
	tr.SetActivityFunc(det.Observe)
	loop.OnStateChange = func(st raft.State, term, leader uint64) {
		log.Printf("state=%s term=%d leader=%d", st, term, leader)
		// Watch sets follow Raft's traffic asymmetry: a leader hears
		// from everyone (AppendResponses), a follower only from its
		// leader, a candidate from no one in particular.
		det.SetWatch(health.WatchSet(st == raft.Leader, *id, leader, ids))
	}

	if *debugAddr != "" {
		serveDebug(*debugAddr, reg, *id, det, tr)
		log.Printf("telemetry at http://%s/debug/telemetry, health at http://%s/debug/health", *debugAddr, *debugAddr)
	}

	lines := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" {
				lines <- line
			}
		}
	}()

	ticker := time.NewTicker(time.Duration(*tickMs) * time.Millisecond)
	defer ticker.Stop()
	log.Fatal(run(loop, det, ticker.C, tr.Recv(), lines))
}

// run is the daemon's loop: it picks the next input — a tick of the
// wall clock, a message off the transport, a line off stdin — and hands
// it to the raft loop, which does the rest (internal/raft/loop.go). A
// message or a proposal the node refuses is logged. A Ready that cannot
// be made durable must not be acknowledged: that error ends run.
func run(loop *raft.Loop, det *health.Detector, ticks <-chan time.Time, recv <-chan raft.Message, lines <-chan string) error {
	for {
		var err error
		select {
		case <-ticks:
			det.Tick()
			err = loop.Tick()
		case m := <-recv:
			err = loop.Step(m)
		case line := <-lines:
			err = loop.Propose([]byte(line))
		}
		switch {
		case errors.Is(err, errPersist):
			return err
		case err != nil:
			log.Printf("refused: %v (leader is node %d)", err, loop.Node.Leader())
		}
	}
}

// timing turns the -t and -tick flags into raft's tick counts: the
// election timeout in ticks and the heartbeat interval, a fifth of it.
func timing(tMs, tickMs int) (ticksPerT, heartbeat int, err error) {
	if tMs <= 0 || tickMs <= 0 {
		return 0, 0, fmt.Errorf("-t %dms and -tick %dms must be positive", tMs, tickMs)
	}
	ticksPerT = tMs / tickMs
	if ticksPerT < 3 {
		return 0, 0, fmt.Errorf("-t %dms must be at least 3 ticks (%dms)", tMs, 3*tickMs)
	}
	return ticksPerT, max(1, ticksPerT/5), nil
}

func parsePeers(s string) (map[uint64]string, []uint64, error) {
	addrs := map[uint64]string{}
	var ids []uint64
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, nil, fmt.Errorf("entry %q is not id=host:port", part)
		}
		id, err := strconv.ParseUint(kv[0], 10, 64)
		if err != nil || id == 0 {
			return nil, nil, fmt.Errorf("bad id %q", kv[0])
		}
		if _, dup := addrs[id]; dup {
			return nil, nil, fmt.Errorf("duplicate id %d", id)
		}
		addrs[id] = kv[1]
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("no peers")
	}
	return addrs, ids, nil
}
