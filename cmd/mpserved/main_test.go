package main

import (
	"net/http"
	"testing"
)

// The server must bound slow and idle connections: without a header
// timeout a client that never finishes its headers holds a connection
// forever.
func TestHTTPServerBoundsConnections(t *testing.T) {
	hs := newHTTPServer(":0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", hs.ReadHeaderTimeout)
	}
	if hs.ReadTimeout < hs.ReadHeaderTimeout {
		t.Errorf("ReadTimeout = %v, want a bound no shorter than ReadHeaderTimeout %v", hs.ReadTimeout, hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", hs.IdleTimeout)
	}
	if hs.Addr != ":0" || hs.Handler == nil {
		t.Errorf("server addr %q handler %v: want the given ones", hs.Addr, hs.Handler)
	}
}
