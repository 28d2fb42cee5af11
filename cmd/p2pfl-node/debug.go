package main

import (
	"encoding/json"
	"log"
	"net/http"
	"net/http/pprof"

	"repro/internal/health"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// healthView is the JSON document served by /debug/health: this node's
// failure-detector verdicts about its peers plus the transport's
// per-peer circuit states.
type healthView struct {
	Node     uint64                  `json:"node"`
	Detector []health.PeerStatus     `json:"detector"`
	Circuits []transport.PeerCircuit `json:"circuits"`
}

// newDebugMux builds the node's debug HTTP surface. /debug/telemetry
// serves the registry's JSON snapshot — counters, gauges, histograms
// and the recent trace ring; /debug/metrics serves the same registry in
// the Prometheus text exposition format (0.0.4) so a fleet scrapes
// nodes with stock Prometheus; /debug/health serves the failure
// detector's current verdicts and the transport circuit breakers;
// /debug/pprof/ serves the runtime profiles of net/http/pprof, registered
// on this mux rather than http.DefaultServeMux — so an operator can watch
// a live node without attaching a debugger:
//
//	curl -s http://127.0.0.1:6060/debug/telemetry | jq .counters
//	curl -s http://127.0.0.1:6060/debug/metrics
//	curl -s http://127.0.0.1:6060/debug/health
//	go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=10
func newDebugMux(reg *telemetry.Registry, id uint64, det *health.Detector, tr *transport.RaftTCP) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/telemetry", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := reg.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", telemetry.PrometheusContentType)
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/health", func(w http.ResponseWriter, r *http.Request) {
		v := healthView{Node: id, Detector: []health.PeerStatus{}, Circuits: []transport.PeerCircuit{}}
		if det != nil {
			v.Detector = det.Snapshot()
		}
		if tr != nil {
			v.Circuits = tr.PeerStates()
		}
		w.Header().Set("Content-Type", "application/json")
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		data = append(data, '\n')
		_, _ = w.Write(data)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// serveDebug starts the debug listener in the background; failures are
// logged, not fatal — telemetry must never take the node down.
func serveDebug(addr string, reg *telemetry.Registry, id uint64, det *health.Detector, tr *transport.RaftTCP) {
	go func() {
		if err := http.ListenAndServe(addr, newDebugMux(reg, id, det, tr)); err != nil {
			log.Printf("debug server on %s: %v", addr, err)
		}
	}()
}
