package climain

import (
	"net/http"
	"testing"
)

// TestNewHTTPServerSetsReadDeadlines guards the slow-client defence: a
// server without read deadlines lets a client that never finishes its
// headers or body hold a connection open indefinitely.
func TestNewHTTPServerSetsReadDeadlines(t *testing.T) {
	s, err := NewHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if err != nil {
		t.Fatal(err)
	}
	defer s.ln.Close()
	if s.srv.ReadHeaderTimeout <= 0 || s.srv.ReadTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, ReadTimeout = %v; both must be set",
			s.srv.ReadHeaderTimeout, s.srv.ReadTimeout)
	}
}
