package server

import (
	"net"
	"testing"
)

// TestConnWriterDegradesUnencodable: an oversized response is answered with
// StatusInternal for its ID, and the response queued behind it still reaches
// the peer intact — one bad response must not silence the connection.
func TestConnWriterDegradesUnencodable(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	cw := NewConnWriter(a, nil)
	if _, err := cw.WriteResponse(Response{Status: StatusOK, ID: 1, Payload: make([]byte, MaxPayload+1)}); err != nil {
		t.Fatalf("oversized response: %v", err)
	}
	if _, err := cw.WriteResponse(Response{Status: StatusOK, ID: 2, Latency: 7.5, Payload: []byte("intact")}); err != nil {
		t.Fatalf("normal response: %v", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- cw.Close() }()

	r, _, err := ReadResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != 1 || r.Status != StatusInternal {
		t.Fatalf("first response %d/%v, want 1/%v", r.ID, r.Status, StatusInternal)
	}
	r, _, err = ReadResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != 2 || r.Status != StatusOK || r.Latency != 7.5 || string(r.Payload) != "intact" {
		t.Fatalf("second response %+v", r)
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := cw.WriteResponse(Response{ID: 3}); err == nil {
		t.Fatal("write after close should fail")
	}
}

// TestConnWriterErrorIsTerminal: a failed socket write reports once to the
// callback, and every later append fails at once instead of blocking.
func TestConnWriterErrorIsTerminal(t *testing.T) {
	a, b := net.Pipe()
	b.Close()
	reported := make(chan error, 2)
	cw := NewConnWriter(a, func(err error) { reported <- err })
	if err := cw.WriteFrame(Frame{Op: OpPing, ID: 1}); err != nil {
		t.Fatalf("first append: %v", err)
	}
	werr := <-reported
	if werr == nil {
		t.Fatal("write error reported as nil")
	}
	for i := 0; i < 3; i++ {
		if err := cw.WriteFrame(Frame{Op: OpPing, ID: uint64(i + 2)}); err != werr {
			t.Fatalf("append after failure = %v, want %v", err, werr)
		}
	}
	if err := cw.Close(); err != werr {
		t.Fatalf("close = %v, want %v", err, werr)
	}
	if len(reported) != 0 {
		t.Fatal("write error reported more than once")
	}
}
