package experiments

import (
	"fmt"
	"sort"
)

// runners maps experiment names to their drivers. Extension experiments
// (ext*) explore the features this reproduction adds beyond the paper's
// evaluation; see EXPERIMENTS.md.
var runners = map[string]func(Params) (Result, error){
	"tab1":  func(Params) (Result, error) { return table1(), nil },
	"fig6":  func(p Params) (Result, error) { return fig6(p) },
	"fig7":  func(p Params) (Result, error) { return fig7(p) },
	"fig8":  func(p Params) (Result, error) { return fig8(p) },
	"fig9":  func(p Params) (Result, error) { return fig9(p) },
	"fig10": func(p Params) (Result, error) { return fig10(p) },
	"fig11": func(p Params) (Result, error) { return fig11(p) },
	"fig12": func(p Params) (Result, error) { return fig12(p) },
	"fig13": func(p Params) (Result, error) { return fig13(p) },
	"fig14": func(p Params) (Result, error) { return fig14(p) },
	"ext1":  func(p Params) (Result, error) { return ext1SecureUpperCost(p) },
	"ext2":  func(p Params) (Result, error) { return ext2DPUtility(p) },
	"ext3":  func(p Params) (Result, error) { return ext3RobustAggregation(p) },
	"ext4":  func(p Params) (Result, error) { return ext4RoundTime(p) },
	"ext5":  func(p Params) (Result, error) { return ext5LatencySweep(p) },
	"ext6":  func(p Params) (Result, error) { return ext6CompressionCurve(p) },
}

// Names lists all registered experiments in order.
func Names() []string {
	out := make([]string, 0, len(runners))
	for name := range runners {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by name.
func Run(name string, p Params) (Result, error) {
	r, ok := runners[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(p)
}
