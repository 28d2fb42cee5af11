package main

import (
	"strings"
	"testing"
)

func TestParsePeers(t *testing.T) {
	addrs, ids, err := parsePeers("1=127.0.0.1:9101, 2=127.0.0.1:9102,3=host:9103")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[2] != 3 {
		t.Fatalf("ids = %v", ids)
	}
	if addrs[2] != "127.0.0.1:9102" || addrs[3] != "host:9103" {
		t.Fatalf("addrs = %v", addrs)
	}
}

func TestParsePeersErrors(t *testing.T) {
	cases := []string{
		"",
		"1",
		"x=host:1",
		"0=host:1",
		"1=a:1,1=b:2", // duplicate
	}
	for _, c := range cases {
		if _, _, err := parsePeers(c); err == nil {
			t.Fatalf("want error for %q", c)
		}
	}
}

// TestTimingFlags: -t and -tick are checked before they are divided.
// `-tick 0` used to die with an integer divide by zero, and a negative
// -tick was answered with a negative bound on -t.
func TestTimingFlags(t *testing.T) {
	for _, c := range []struct {
		tMs, tickMs          int
		ticksPerT, heartbeat int
		wantErr              string
	}{
		{tMs: 150, tickMs: 10, ticksPerT: 15, heartbeat: 3},
		{tMs: 30, tickMs: 10, ticksPerT: 3, heartbeat: 1},
		{tMs: 150, tickMs: 0, wantErr: "must be positive"},
		{tMs: 150, tickMs: -10, wantErr: "must be positive"},
		{tMs: 0, tickMs: 10, wantErr: "must be positive"},
		{tMs: -150, tickMs: 10, wantErr: "must be positive"},
		{tMs: 29, tickMs: 10, wantErr: "-t 29ms must be at least 3 ticks (30ms)"},
	} {
		ticksPerT, heartbeat, err := timing(c.tMs, c.tickMs)
		switch {
		case c.wantErr != "":
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("timing(%d, %d): err = %v, want %q", c.tMs, c.tickMs, err, c.wantErr)
			}
		case err != nil || ticksPerT != c.ticksPerT || heartbeat != c.heartbeat:
			t.Errorf("timing(%d, %d) = %d, %d, %v; want %d, %d", c.tMs, c.tickMs, ticksPerT, heartbeat, err, c.ticksPerT, c.heartbeat)
		}
	}
}
