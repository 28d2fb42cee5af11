package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteReport runs the given experiments and renders one self-contained
// markdown report (the machine-generated counterpart of EXPERIMENTS.md).
// Names are run in registry order; "all" expands to every experiment.
func WriteReport(w io.Writer, names []string, p Params) error {
	want := map[string]bool{}
	all := false
	for _, n := range names {
		if n == "all" {
			all = true
		}
		want[n] = true
	}
	p = p.Defaults()
	fmt.Fprintf(w, "# Experiment report\n\n")
	fmt.Fprintf(w, "Generated by p2pfl-experiments (rounds=%d, trials=%d, maxN=%d, seed=%d).\n\n",
		p.Rounds, p.Trials, p.MaxN, p.Seed)
	env := table1()
	fmt.Fprintf(w, "Environment: %s on %s/%s, %d CPUs.\n\n", env.GoVersion, env.OS, env.Arch, env.CPUs)

	ran := 0
	for _, name := range Names() {
		if !all && !want[name] {
			continue
		}
		start := time.Now()
		res, err := Run(name, p)
		if err != nil {
			return fmt.Errorf("report: %s: %w", name, err)
		}
		fmt.Fprintf(w, "## %s\n\n```\n", name)
		res.Print(&fenceWriter{w: w})
		fmt.Fprintf(w, "```\n\n_(%.1fs)_\n\n", time.Since(start).Seconds())
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("report: no experiments matched %v (have %s)", names, strings.Join(Names(), ","))
	}
	return nil
}

// fenceWriter passes output through unchanged but guards against a
// result accidentally closing the markdown code fence.
type fenceWriter struct {
	w io.Writer
}

func (f *fenceWriter) Write(p []byte) (int, error) {
	s := strings.ReplaceAll(string(p), "```", "`​``")
	if _, err := f.w.Write([]byte(s)); err != nil {
		return 0, err
	}
	return len(p), nil
}
