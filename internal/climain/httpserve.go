package climain

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// Server is the HTTP scaffolding shared by the serving tools (`obsreport
// -serve`, `crawlerboxd -serve`): a bound listener plus an http.Server
// whose lifecycle is tied to a context, so both daemons shut down
// gracefully the same way. NewHTTPServer binds immediately — Addr is
// valid before Run — which is what makes the serve modes testable against
// a ":0" ephemeral port.
type Server struct {
	srv *http.Server
	ln  net.Listener
}

// Read deadlines of the serving tools: a client that trickles its headers
// or body cannot hold a connection (and its goroutine) open forever.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 2 * time.Minute
)

// NewHTTPServer binds addr and wraps handler in a managed server.
func NewHTTPServer(addr string, handler http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
	}
	return &Server{srv: srv, ln: ln}, nil
}

// Addr is the bound listen address (resolved, so ":0" shows the real port).
func (s *Server) Addr() string {
	return s.ln.Addr().String()
}

// Run serves until ctx is cancelled, then shuts down gracefully: the
// listener closes, in-flight requests finish, and Run returns nil. A
// serve failure (port stolen, listener error) returns the error directly.
func (s *Server) Run(ctx context.Context) error {
	errc := make(chan error, 1)
	go func() { errc <- s.srv.Serve(s.ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Detach from the cancelled ctx so shutdown can still wait for
		// in-flight requests to complete.
		if err := s.srv.Shutdown(context.WithoutCancel(ctx)); err != nil {
			return err
		}
		<-errc // Serve's http.ErrServerClosed
		return nil
	}
}

// WriteJSON writes v as an indented JSON response.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// HTTPError writes the shared JSON error envelope with the given status.
func HTTPError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// IDParam parses the mandatory positive-integer id query parameter,
// writing a 400 envelope on failure.
func IDParam(w http.ResponseWriter, r *http.Request) (int64, bool) {
	raw := r.URL.Query().Get("id")
	id, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || id <= 0 {
		HTTPError(w, http.StatusBadRequest, fmt.Sprintf("bad id %q: want a positive integer", raw))
		return 0, false
	}
	return id, true
}

// LookupError maps a store lookup failure to 404 (not found) or 500.
func LookupError(w http.ResponseWriter, err error) {
	if strings.Contains(err.Error(), "not found") {
		HTTPError(w, http.StatusNotFound, err.Error())
		return
	}
	HTTPError(w, http.StatusInternalServerError, err.Error())
}
