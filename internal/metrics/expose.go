package metrics

import (
	"encoding/json"
	"net"
	"net/http"
	"time"
)

// HubSnapshot is the JSON document /snapshot serves: every attached
// registry's published values plus the serving wall clock.
type HubSnapshot struct {
	WallUnixNs int64      `json:"wall_unix_ns"`
	Nets       []Snapshot `json:"nets"`
}

// Handler returns the scrape surface for a hub:
//
//	/metrics   Prometheus text exposition (version 0.0.4)
//	/snapshot  the same values as structured JSON (HubSnapshot)
//
// Both only load each registry's published document, so scraping never
// contends with a running simulation.
func Handler(h *Hub) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_, _ = w.Write([]byte(h.RenderText()))
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		snap := HubSnapshot{WallUnixNs: time.Now().UnixNano(), Nets: h.SnapshotAll()}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(snap)
	})
	return mux
}

// Server is a running metrics endpoint.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the endpoint.
func (s *Server) Close() error { return s.srv.Close() }

// Serve binds addr and serves the hub's scrape surface in the
// background until Close. The listener runs entirely on wall-clock
// goroutines; it reads no simulation state, only the documents the
// hub's registries published.
func Serve(addr string, h *Hub) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: Handler(h)}
	go func() { _ = srv.Serve(ln) }()
	return &Server{ln: ln, srv: srv}, nil
}
