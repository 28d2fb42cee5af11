package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// fleet is three daemons on loopback and everything they have logged.
type fleet struct {
	t     *testing.T
	bin   string
	peers string
	dir   string
	done  <-chan struct{} // closed when the test's time is up

	stdin [4]io.WriteCloser // by node id
	cmd   [4]*exec.Cmd
	read  [4]chan struct{} // closed when the node's stderr has been read to its end

	mu    sync.Mutex
	lines []logLine
	more  chan struct{} // poked after each line: "look again", not a count
}

type logLine struct {
	id   int
	text string
}

// start runs node id on its -state file and collects its stderr.
func (f *fleet) start(id int) {
	f.t.Helper()
	cmd := exec.Command(f.bin, "-id", strconv.Itoa(id), "-peers", f.peers,
		"-state", filepath.Join(f.dir, fmt.Sprintf("n%d.state", id)))
	stdin, err := cmd.StdinPipe()
	if err != nil {
		f.t.Fatal(err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		f.t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		f.t.Fatal(err)
	}
	read := make(chan struct{})
	f.stdin[id], f.cmd[id], f.read[id] = stdin, cmd, read
	go func() {
		defer close(read)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			f.mu.Lock()
			f.lines = append(f.lines, logLine{id, sc.Text()})
			f.mu.Unlock()
			select {
			case f.more <- struct{}{}:
			default:
			}
		}
	}()
}

// kill sends node id a SIGKILL and reaps it.
func (f *fleet) kill(id int) {
	if f.cmd[id] == nil {
		return
	}
	_ = f.cmd[id].Process.Kill() // already gone is fine
	<-f.read[id]                 // Wait closes the pipe under a reader still on it
	_ = f.cmd[id].Wait()         // "signal: killed" is what was asked for
	f.cmd[id] = nil
}

// await returns the first line logged at or after position from that re
// matches, by one of the nodes in ids, with its submatches and the
// position after it. It fails the test when the test's time is up first,
// and returns no match when giveUp (nil: never) fires first.
func (f *fleet) await(from int, re *regexp.Regexp, giveUp <-chan time.Time, ids ...int) (logLine, []string, int) {
	f.t.Helper()
	for {
		f.mu.Lock()
		for ; from < len(f.lines); from++ {
			l := f.lines[from]
			for _, id := range ids {
				if m := re.FindStringSubmatch(l.text); l.id == id && m != nil {
					f.mu.Unlock()
					return l, m, from + 1
				}
			}
		}
		f.mu.Unlock()
		select {
		case <-f.more:
		case <-giveUp:
			return logLine{}, nil, from
		case <-f.done:
			f.mu.Lock()
			for _, l := range f.lines {
				f.t.Logf("node %d: %s", l.id, l.text)
			}
			f.mu.Unlock()
			f.t.Fatalf("time is up waiting for nodes %v to log %q", ids, re)
		}
	}
}

func (f *fleet) pos() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.lines)
}

// TestKillNineAndRejoin starts three real p2pfl-node processes on
// loopback, each with a -state file, commits a line through the leader,
// kills the leader with SIGKILL, commits a second line through its
// successor, and restarts the killed node on the same file: it must
// restore its durable state with the first line's commit in it, follow
// the new leader and commit the second line. Nothing leaves the machine.
// The build has two minutes (a cold cache compiles net/http); the fleet,
// from first start to last assertion, has twenty seconds.
func TestKillNineAndRejoin(t *testing.T) {
	if testing.Short() {
		t.Skip("starts real processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "p2pfl-node")
	buildCtx, cancelBuild := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancelBuild()
	if out, err := exec.CommandContext(buildCtx, "go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	// Reserve three loopback ports: listen on :0, note the port, close.
	var peers []string
	for id := 1; id <= 3; id++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		peers = append(peers, fmt.Sprintf("%d=%s", id, l.Addr()))
		l.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	f := &fleet{t: t, bin: bin, peers: strings.Join(peers, ","), dir: dir, done: ctx.Done(), more: make(chan struct{}, 1)}
	t.Cleanup(func() {
		for id := 1; id <= 3; id++ {
			f.kill(id)
		}
	})
	all := []int{1, 2, 3}
	for _, id := range all {
		f.start(id)
	}

	// commit types line into the node of ids that next says it leads and
	// waits for every node of ids to commit it. A node deposed before it
	// took the line refuses it: whoever says it leads after that gets it.
	leads := regexp.MustCompile(`state=leader`)
	commit := func(from int, line string, ids ...int) (leader, index int) {
		t.Helper()
		committed := regexp.MustCompile(`committed \[(\d+)\] "` + line + `"`)
		for {
			l, _, next := f.await(from, leads, nil, ids...)
			from = next
			if _, err := fmt.Fprintln(f.stdin[l.id], line); err != nil {
				t.Fatal(err)
			}
			if _, m, _ := f.await(next, committed, time.After(2*time.Second), l.id); m == nil {
				continue
			}
			for _, id := range ids {
				_, m, _ := f.await(next, committed, nil, id)
				index, _ = strconv.Atoi(m[1])
			}
			return l.id, index
		}
	}

	first, firstIndex := commit(0, "first", all...)
	f.kill(first)
	var rest []int
	for _, id := range all {
		if id != first {
			rest = append(rest, id)
		}
	}
	second, _ := commit(f.pos(), "second", rest...)

	restarted := f.pos()
	f.start(first)
	_, m, _ := f.await(restarted, regexp.MustCompile(`restored durable state: term=\d+ commit=(\d+)`), nil, first)
	if got, _ := strconv.Atoi(m[1]); got < firstIndex {
		t.Fatalf("node %d restored commit index %d; it had logged the commit of index %d before it was killed", first, got, firstIndex)
	}
	f.await(restarted, regexp.MustCompile(fmt.Sprintf(`state=follower term=\d+ leader=%d`, second)), nil, first)
	f.await(restarted, regexp.MustCompile(`committed \[\d+\] "second"`), nil, first)
}
