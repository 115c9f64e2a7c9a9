package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is the opt-in diagnostics endpoint: net/http/pprof profiles plus a
// /debug/vars page serving the collector's live counter snapshot as JSON.
// It runs on its own mux so enabling diagnostics never exposes handlers an
// embedding program registered on http.DefaultServeMux.
type Server struct {
	Addr string // actual listen address (resolves ":0" requests)

	srv *http.Server
	ln  net.Listener
}

// Serve starts the diagnostics endpoint on addr (e.g. "localhost:6060";
// ":0" picks a free port) reading counters from c, which may be nil. It
// returns once the listener is bound; the accept loop runs in a background
// goroutine until Close.
func Serve(addr string, c *Collector) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		page := varsPage{Counters: c.Snapshot(), Spans: spanTotals(c)}
		if c != nil {
			page.UptimeMS = ms(time.Since(c.start))
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(page)
	})
	s := &Server{Addr: ln.Addr().String(), srv: &http.Server{Handler: mux}, ln: ln}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Close shuts the listener down and stops serving.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	return s.srv.Close()
}

// varsPage is the /debug/vars response document.
type varsPage struct {
	UptimeMS float64            `json:"uptime_ms"`
	Counters Snap               `json:"counters"`
	Spans    map[string]float64 `json:"span_totals_ms,omitempty"`
}

// spanTotals sums completed span durations by name, in milliseconds.
func spanTotals(c *Collector) map[string]float64 {
	spans := c.Spans()
	if len(spans) == 0 {
		return nil
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Name] += ms(s.Dur)
	}
	return out
}
