package ctlhttp

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

type echoRequest struct {
	Word string `json:"word"`
	N    int    `json:"n"`
}

// testPlane mounts one route of each kind.
func testPlane(t *testing.T) Client {
	mux := http.NewServeMux()
	Handle(mux, "POST /echo", "done", func(req echoRequest) (any, error) {
		switch req.Word {
		case "":
			return nil, nil
		case "gone":
			return nil, &StatusError{Code: http.StatusGone, Body: "no such thing"}
		case "bad":
			return nil, errors.New("refused: bad word")
		}
		return echoRequest{Word: req.Word, N: req.N + 1}, nil
	})
	HandleBare(mux, "GET /word", "hello", func() (any, error) { return nil, nil })
	HandleBody(mux, "POST /count", "", func(body io.Reader) (any, error) {
		n, err := io.Copy(io.Discard, body)
		return map[string]int64{"bytes": n}, err
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return Client{Base: srv.URL}
}

func TestRoutesAndClient(t *testing.T) {
	c := testPlane(t)
	ctx := context.Background()

	var got echoRequest
	if err := c.Do(ctx, http.MethodPost, "/echo", echoRequest{Word: "hi", N: 1}, &got); err != nil || got != (echoRequest{"hi", 2}) {
		t.Fatalf("JSON in, JSON out: %+v, %v", got, err)
	}
	var text strings.Builder
	if err := c.Do(ctx, http.MethodPost, "/echo", echoRequest{}, &text); err != nil || text.String() != "done\n" {
		t.Fatalf("nil reply answered %q, %v; want the route's word", text.String(), err)
	}
	text.Reset()
	if err := c.Do(ctx, http.MethodGet, "/word", nil, &text); err != nil || text.String() != "hello\n" {
		t.Fatalf("bare route answered %q, %v", text.String(), err)
	}
	if err := c.Do(ctx, http.MethodGet, "/word", nil, nil); err != nil {
		t.Fatalf("discarded reply: %v", err)
	}
	var count map[string]int64
	if err := c.Do(ctx, http.MethodPost, "/count", []byte("line one\nline two\n"), &count); err != nil || count["bytes"] != 18 {
		t.Fatalf("raw body: %v, %v", count, err)
	}

	for _, tc := range []struct {
		name   string
		path   string
		in     any
		code   int
		reason string
	}{
		{"route's own status", "/echo", echoRequest{Word: "gone"}, http.StatusGone, "no such thing"},
		{"plain error", "/echo", echoRequest{Word: "bad"}, http.StatusBadRequest, "refused: bad word"},
		{"body that is not the request", "/echo", []byte(`{"word":7}`), http.StatusBadRequest, "cannot unmarshal"},
		{"truncated body", "/echo", []byte(`{"word":"x",`), http.StatusBadRequest, "unexpected EOF"},
		{"empty body", "/echo", nil, http.StatusBadRequest, "EOF"},
		{"unknown route", "/nosuch", nil, http.StatusNotFound, ""},
		{"oversized JSON body", "/echo", append([]byte(`{"word":"`), bytes.Repeat([]byte("a"), MaxBody)...), http.StatusRequestEntityTooLarge, "too large"},
		{"oversized raw body", "/count", make([]byte, MaxBody+1), http.StatusRequestEntityTooLarge, "too large"},
	} {
		err := c.Do(ctx, http.MethodPost, tc.path, tc.in, nil)
		var se *StatusError
		if !errors.As(err, &se) || !IsStatus(err) {
			t.Errorf("%s: error %v is not a StatusError", tc.name, err)
			continue
		}
		if se.Code != tc.code || !strings.Contains(se.Body, tc.reason) {
			t.Errorf("%s: answered %d %q, want %d with %q", tc.name, se.Code, se.Body, tc.code, tc.reason)
		}
	}
	// Refusals leave the plane serving.
	if err := c.Do(ctx, http.MethodGet, "/word", nil, nil); err != nil {
		t.Fatalf("plane stopped serving: %v", err)
	}

	dead := Client{Base: "http://127.0.0.1:1"}
	if err := dead.Do(ctx, http.MethodGet, "/word", nil, nil); err == nil || IsStatus(err) {
		t.Errorf("transport failure reported as %v", err)
	}
}

func TestRetry(t *testing.T) {
	ctx := context.Background()
	errTransient, errFatal := errors.New("transient"), errors.New("fatal")
	fails := func(n int, err error) (func() error, *int) {
		calls := 0
		return func() error {
			if calls++; calls <= n {
				return err
			}
			return nil
		}, &calls
	}
	const ms = time.Millisecond

	op, calls := fails(3, errTransient)
	if err := (Retry{First: ms}).Do(ctx, op); err != nil || *calls != 4 {
		t.Errorf("unbounded retry: %v after %d calls, want success on the 4th", err, *calls)
	}
	op, calls = fails(9, errTransient)
	if err := (Retry{First: ms, Tries: 5}).Do(ctx, op); err != errTransient || *calls != 5 {
		t.Errorf("5 tries: %v after %d calls", err, *calls)
	}
	op, calls = fails(9, errFatal)
	isFatal := func(err error) bool { return err == errFatal }
	if err := (Retry{First: ms, Fatal: isFatal}).Do(ctx, op); err != errFatal || *calls != 1 {
		t.Errorf("fatal error: %v after %d calls", err, *calls)
	}

	// Waits double while below Limit: 2+4+8+8 ms before the fifth call.
	op, _ = fails(4, errTransient)
	start := time.Now()
	if err := (Retry{First: 2 * ms, Limit: 5 * ms}).Do(ctx, op); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 22*ms {
		t.Errorf("four waits took %v, want at least 22ms", got)
	}

	short, cancel := context.WithTimeout(ctx, 20*ms)
	defer cancel()
	op, calls = fails(1<<30, errTransient)
	if err := (Retry{First: 5 * ms}).Do(short, op); err != context.DeadlineExceeded || *calls < 2 {
		t.Errorf("ended context: %v after %d calls", err, *calls)
	}
	if err := Wait(short, time.Hour); err != context.DeadlineExceeded {
		t.Errorf("Wait on an ended context: %v", err)
	}
}
