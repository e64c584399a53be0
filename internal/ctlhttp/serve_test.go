package ctlhttp

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// serving starts s.Serve on its own goroutine; the channel yields what it
// returned.
func serving(ctx context.Context, s *Server, linger time.Duration) <-chan error {
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, linger) }()
	return done
}

// returned waits for Serve's result, failing the test after a bound that
// no stop path here should come near.
func returned(t *testing.T, done <-chan error) error {
	t.Helper()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Serve never returned")
		return nil
	}
}

// stopPlane is a server with a route that stops it from inside a handler.
func stopPlane(t *testing.T) *Server {
	t.Helper()
	mux := http.NewServeMux()
	var s *Server
	HandleBare(mux, "GET /word", "hello", func() (any, error) { return nil, nil })
	HandleBare(mux, "POST /stop", "stopping", func() (any, error) {
		s.Stop()
		return nil, nil
	})
	var err error
	if s, err = Listen("", mux); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(s.Addr(), "127.0.0.1:") || s.URL() != "http://"+s.Addr() {
		t.Fatalf("empty address bound %s (URL %s), want an ephemeral loopback port", s.Addr(), s.URL())
	}
	return s
}

// checkClosed fails unless nothing answers at addr and no Serve goroutine
// is left.
func checkClosed(t *testing.T, addr string) {
	t.Helper()
	if conn, err := net.Dial("tcp", addr); err == nil {
		_ = conn.Close()
		t.Errorf("%s still accepts connections after Serve returned", addr)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		buf := make([]byte, 1<<20)
		if !strings.Contains(string(buf[:runtime.Stack(buf, true)]), "ctlhttp.(*Server).Serve") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("a Serve goroutine outlived its return")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestServeStops: each way out of Serve returns, leaves nothing serving,
// and says nil for a stop and an error for a failure.
func TestServeStops(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		stop    func(t *testing.T, s *Server, cancel context.CancelFunc)
		wantErr bool
	}{
		{"ctx ends", func(_ *testing.T, _ *Server, cancel context.CancelFunc) { cancel() }, false},
		{"Stop twice", func(_ *testing.T, s *Server, _ context.CancelFunc) { s.Stop(); s.Stop() }, false},
		{"Stop from a handler", func(t *testing.T, s *Server, _ context.CancelFunc) {
			var word strings.Builder
			if err := (Client{Base: s.URL()}).Do(ctx, http.MethodPost, "/stop", nil, &word); err != nil || word.String() != "stopping\n" {
				t.Errorf("POST /stop answered %q, %v", word.String(), err)
			}
			s.Stop()
		}, false},
		{"serving fails", func(_ *testing.T, s *Server, _ context.CancelFunc) { _ = s.ln.Close() }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := stopPlane(t)
			runCtx, cancel := context.WithCancel(ctx)
			defer cancel()
			done := serving(runCtx, s, 0)
			if tc.name != "serving fails" {
				if err := (Client{Base: s.URL()}).Do(ctx, http.MethodGet, "/word", nil, nil); err != nil {
					t.Fatalf("GET /word before the stop: %v", err)
				}
			}
			tc.stop(t, s, cancel)
			if err := returned(t, done); (err != nil) != tc.wantErr {
				t.Errorf("Serve returned %v, want an error: %v", err, tc.wantErr)
			}
			checkClosed(t, s.Addr())
		})
	}
}

// TestServeLingers: after a Stop the plane answers for the linger, so a
// polling client hears the last word, and then closes; an ending ctx cuts
// the linger short.
func TestServeLingers(t *testing.T) {
	ctx := context.Background()
	const linger = 400 * time.Millisecond
	s := stopPlane(t)
	done := serving(ctx, s, linger)
	start := time.Now()
	s.Stop()
	time.Sleep(linger / 4)
	if err := (Client{Base: s.URL()}).Do(ctx, http.MethodGet, "/word", nil, nil); err != nil {
		t.Errorf("GET /word during the linger: %v", err)
	}
	if err := returned(t, done); err != nil {
		t.Errorf("Serve after a linger: %v", err)
	}
	if elapsed := time.Since(start); elapsed < linger {
		t.Errorf("Serve returned %v after Stop, inside the %v linger", elapsed, linger)
	}
	checkClosed(t, s.Addr())

	s = stopPlane(t)
	runCtx, cancel := context.WithCancel(ctx)
	done = serving(runCtx, s, time.Hour)
	s.Stop()
	cancel()
	if err := returned(t, done); err != nil {
		t.Errorf("Serve with its linger cut by ctx: %v", err)
	}
	checkClosed(t, s.Addr())
}

// TestServeGraceBoundsADrain: a connection that has sent part of a request
// is active to net/http, so a drain waits for it — for about the grace
// bound, neither cutting it at once nor waiting on it without end — and
// then cuts it.
func TestServeGraceBoundsADrain(t *testing.T) {
	for _, bound := range []time.Duration{300 * time.Millisecond, 1200 * time.Millisecond} {
		s := stopPlane(t)
		s.grace = bound
		done := serving(context.Background(), s, 0)

		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write([]byte("GET /word HTTP/1.1\r\nHost: x\r\n")); err != nil {
			t.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond) // let the server read the partial request

		start := time.Now()
		s.Stop()
		if err := returned(t, done); err != nil {
			t.Errorf("drain was not clean: %v", err)
		}
		elapsed := time.Since(start)
		if elapsed < bound-50*time.Millisecond {
			t.Errorf("drain with a stuck connection returned after %v, before the %v bound", elapsed, bound)
		}
		if elapsed > bound+2*time.Second {
			t.Errorf("drain took %v, far beyond the %v bound", elapsed, bound)
		}
		_ = conn.SetReadDeadline(time.Now().Add(time.Second))
		if n, err := io.Copy(io.Discard, conn); n != 0 || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Errorf("the stuck connection read %d bytes, %v after the drain; want it cut", n, err)
		}
		_ = conn.Close()
		checkClosed(t, s.Addr())
	}
}
