// Package ctlhttp is the HTTP convention the repo's control planes share
// — gossipd's (internal/daemon), the fabric coordinator's
// (internal/fabric) and their clients (internal/livectl, the fabric
// worker, the CLIs): a request body, when there is one, is JSON and
// bounded; the answer is 200 with JSON or a plain word; any other status
// carries the reason as text. Servers mount routes with Handle, HandleBare
// and HandleBody and live as a Server (Listen, Serve, Stop: one listen →
// serve → drain with one grace bound); clients call Client.Do and wait
// with Retry. Nobody else builds a request or a server, maps a status,
// caps a body or sleeps between tries.
package ctlhttp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"
)

// MaxBody bounds a request body: past it the read fails and the route
// answers 413.
const MaxBody = 1 << 24

// StatusError is a non-200 answer: what Client.Do returns for one, and
// what a route's function returns to answer with a status of its choice.
type StatusError struct {
	Code int
	Body string // the reason, as the server gave it
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%d %s: %s", e.Code, http.StatusText(e.Code), e.Body)
}

// IsStatus reports whether err is a server's answer (a *StatusError)
// rather than a failure to get one.
func IsStatus(err error) bool {
	var se *StatusError
	return errors.As(err, &se)
}

// HandleBody mounts pattern ("POST /results") on mux. apply gets the
// request body, bounded by MaxBody, and returns what to answer: an error
// answers its StatusError's code — 413 for a body over the bound, 400
// for any other error — with the error as text; a nil reply answers the
// plain word; anything else is written as JSON.
func HandleBody(mux *http.ServeMux, pattern, word string, apply func(body io.Reader) (reply any, err error)) {
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		reply, err := apply(http.MaxBytesReader(w, r.Body, MaxBody))
		var se *StatusError
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &se):
			http.Error(w, se.Body, se.Code)
		case errors.As(err, &tooBig):
			http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
		case reply == nil:
			fmt.Fprintln(w, word)
		default:
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(reply)
		}
	})
}

// Handle mounts a route whose body is one JSON value of type Req; a body
// that does not decode as one answers 400 before apply is called.
func Handle[Req any](mux *http.ServeMux, pattern, word string, apply func(Req) (reply any, err error)) {
	HandleBody(mux, pattern, word, func(body io.Reader) (any, error) {
		var req Req
		if err := json.NewDecoder(body).Decode(&req); err != nil {
			return nil, err
		}
		return apply(req)
	})
}

// HandleBare mounts a route that reads no body.
func HandleBare(mux *http.ServeMux, pattern, word string, apply func() (reply any, err error)) {
	HandleBody(mux, pattern, word, func(io.Reader) (any, error) { return apply() })
}

// grace bounds how long a stopping Server waits for requests in flight
// before it cuts their connections.
const grace = 5 * time.Second

// Server is one control plane's listener and HTTP server, with the stop
// latch its routes (POST /drain, the fabric's last accepted trial) close.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	stop  chan struct{}
	once  sync.Once
	grace time.Duration // grace, shortened by tests
}

// Listen binds addr ("" means 127.0.0.1:0) for handler. Clients may
// connect as soon as it returns; they are answered once Serve runs.
func Listen(addr string, handler http.Handler) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: 5 * time.Second}
	return &Server{ln: ln, srv: srv, stop: make(chan struct{}), grace: grace}, nil
}

// Addr is the bound address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL is the base URL clients call.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Stop releases Serve; it may be called any number of times, from
// anywhere, a handler included.
func (s *Server) Stop() { s.once.Do(func() { close(s.stop) }) }

// Serve answers requests until ctx ends, Stop is called or serving fails.
// After a Stop it answers for linger more (cut short by ctx). It then
// shuts down, giving requests in flight the grace bound before their
// connections are cut, and returns once serving has: nil after ctx or
// Stop, serving's error otherwise.
func (s *Server) Serve(ctx context.Context, linger time.Duration) error {
	served := make(chan error, 1)
	go func() { served <- s.srv.Serve(s.ln) }()
	var err error
	select {
	case <-ctx.Done():
	case <-s.stop:
		_ = Wait(ctx, linger)
	case err = <-served:
		served = nil
	}
	drain, cancel := context.WithTimeout(context.Background(), s.grace)
	defer cancel()
	if s.srv.Shutdown(drain) != nil {
		_ = s.srv.Close()
	}
	if served != nil {
		<-served // http.ErrServerClosed
	}
	return err
}

// Client calls one control plane.
type Client struct {
	// Base is the server's base URL, "http://host:port".
	Base string
	// HTTP is the client to send through (nil: http.DefaultClient).
	HTTP *http.Client
}

// Do sends one request and reads the answer. in is the body: nil for
// none, a []byte sent as it is (a pre-encoded JSONL stream), anything else
// marshalled as JSON. out receives a 200's body: nil discards it, an
// io.Writer takes it as it is, anything else decodes it as JSON. Any other
// status is returned as a *StatusError.
func (c Client) Do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	ctype := "application/json"
	switch in := in.(type) {
	case nil:
	case []byte:
		body, ctype = bytes.NewReader(in), "application/jsonl"
	default:
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", ctype)
	}
	client := c.HTTP
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return &StatusError{Code: resp.StatusCode, Body: string(bytes.TrimSpace(msg))}
	}
	switch out := out.(type) {
	case nil:
		_, err = io.Copy(io.Discard, resp.Body)
	case io.Writer:
		_, err = io.Copy(out, resp.Body)
	default:
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	return err
}

// Wait sleeps for d, or until ctx ends and then returns its error: the
// one place a control-plane client waits on the clock.
func Wait(ctx context.Context, d time.Duration) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(d):
		return nil
	}
}

// Retry is a wait-and-try-again policy.
type Retry struct {
	// First is the wait after the first failure; each later wait doubles
	// the one before for as long as that one was below Limit (so a Limit
	// at or under First holds the interval constant).
	First, Limit time.Duration
	// Tries bounds the calls (0: until ctx ends).
	Tries int
	// Fatal, when set, says which failures end the loop at once.
	Fatal func(error) bool
}

// Do calls op until it returns nil. It gives up with op's error when
// Fatal claims it or the tries are spent, and with ctx's error when ctx
// ends during a wait.
func (r Retry) Do(ctx context.Context, op func() error) error {
	wait := r.First
	for try := 1; ; try++ {
		err := op()
		if err == nil || try == r.Tries || (r.Fatal != nil && r.Fatal(err)) {
			return err
		}
		if err := Wait(ctx, wait); err != nil {
			return err
		}
		if wait < r.Limit {
			wait *= 2
		}
	}
}
