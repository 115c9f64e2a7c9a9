package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"
)

// httpLimits bound what the HTTP endpoint accepts from outside the program:
// a POST /ingest body over maxBody bytes is rejected with 413 (producers with
// bigger batches chunk or stream), a client that never finishes its headers
// is cut off at readHeader, and a kept-alive connection that goes quiet is
// reaped at idle.
type httpLimits struct {
	maxBody          int64
	readHeader, idle time.Duration
}

var defaultHTTPLimits = &httpLimits{maxBody: 64 << 20, readHeader: 10 * time.Second, idle: 2 * time.Minute}

// StartHTTP starts the service's ingest endpoint on addr (e.g. ":8080" or
// "127.0.0.1:0") and returns the bound address. The endpoint serves:
//
//	POST /ingest     — body is trace events, ingested in order: JSONL, or
//	                   length-prefixed binary batch frames, told apart by
//	                   their first bytes (IngestReader); the Content-Type is
//	                   not read
//	GET  /verdicts   — live per-partition status (JSON array)
//	GET  /stats      — live counters (JSON)
//	POST /checkpoint — write a durable snapshot now
//
// The listener is closed by Close. Ingest over HTTP shares the global
// stream tracker with every other transport, so thread discipline spans
// transports: a call may arrive on stdin and its return over HTTP. Each
// request ingests through its own connection, so concurrent POSTs proceed in
// parallel; per-partition order is deterministic as long as each partition's
// producers stay on one connection.
func (s *Server) StartHTTP(addr string) (string, error) {
	if s.httpCloser != nil {
		return "", errors.New("serve: HTTP endpoint already started")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listening on %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/verdicts", s.handleVerdicts)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/checkpoint", s.handleCheckpoint)
	// Stalled and idle connections are the cheap way to wedge a long-running
	// ingest endpoint, so both are bounded.
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: s.cfg.http.readHeader, IdleTimeout: s.cfg.http.idle}
	go func() { _ = srv.Serve(ln) }()
	s.httpCloser = srv // srv.Close stops the listener and active connections
	return ln.Addr().String(), nil
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a trace body: JSONL or batch frames", http.StatusMethodNotAllowed)
		return
	}
	limit := s.cfg.http.maxBody
	// The cap cuts the body mid-line, so the parse error the reader surfaces
	// is usually "bad JSON", not the MaxBytesError itself — capture the
	// transport-level error as it streams by so the producer gets a 413, not
	// a misleading 400.
	body := &errCapturingReader{r: http.MaxBytesReader(w, r.Body, limit)}
	n, err := s.IngestReader(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) || errors.As(body.err, &tooBig) {
			http.Error(w, fmt.Sprintf("ingested %d events, then: body over %d-byte cap", n, tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		// Events before the error are already ingested (at-least-once); the
		// producer learns how far the batch got.
		http.Error(w, fmt.Sprintf("ingested %d events, then: %v", n, err), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"ingested\":%d}\n", n)
}

// errCapturingReader remembers the first non-EOF error its inner reader
// returns, even when the consumer (a line scanner) reports a different,
// downstream error for the same bytes.
type errCapturingReader struct {
	r   io.Reader
	err error
}

func (c *errCapturingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	if err != nil && err != io.EOF && c.err == nil {
		c.err = err
	}
	return n, err
}

func (s *Server) handleVerdicts(w http.ResponseWriter, r *http.Request) {
	verds, err := s.Verdicts()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if verds == nil {
		verds = []PartitionVerdict{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(verds)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Stats())
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST to checkpoint", http.StatusMethodNotAllowed)
		return
	}
	if s.cfg.CheckpointPath == "" {
		http.Error(w, "no checkpoint path configured", http.StatusConflict)
		return
	}
	if err := s.Checkpoint(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	fmt.Fprintln(w, "ok")
}
