package main

import "testing"

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
