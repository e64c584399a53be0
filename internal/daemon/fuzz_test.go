package daemon

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"algossip/internal/core"
)

// FuzzDaemonBodies throws arbitrary bodies at the five JSON routes of a
// daemon's control plane: each is answered 2xx or 4xx — never a
// panic, never a 5xx — and GET /status still answers afterwards.
func FuzzDaemonBodies(f *testing.F) {
	routes := []string{"/seed", "/topology", "/kill", "/chaos", "/peers"}
	for r, bodies := range [][]string{
		{`{"node":0,"index":0,"payload":"AQI="}`, `{"node":0,`, `{"node":"zero","index":0}`, `[1,2]`, ``,
			`{"node":9,"index":0,"payload":"AQI="}`, `{"node":0,"index":-1,"payload":"AQI="}`,
			`{"node":0,"index":0,"payload":"%%%"}`, `{"node":0,"index":0,"payload":"AQ=="}`, `{"node":0,"index":0}`},
		{`{"family":"ring","n":4,"seed":1}`, `{"family":`, `{"family":7}`, `{"family":"nosuch","n":4}`,
			`{"family":"ring","n":5}`, `{"family":"ring","n":-4}`, `{"family":"ring","n":4,"seed":-1}`,
			`{"family":"complete","n":1000000000}`},
		{`{"node":3}`, `{"node":`, `{"node":"0"}`, `{"node":9}`, `{"node":-1}`},
		{`{"latency_ms":0.5}`, `{"heal":true}`, `{"heal":`, `{"heal":"yes"}`, `{"partition":[9]}`, `{"partition":[-1]}`,
			`{"partition":"0"}`, `{"corrupt_rate":2}`, `{"latency_ms":-1}`, `{"jitter_ms":"1"}`},
		{`{"0":"127.0.0.1:9000","3":"[::1]:9003"}`, `{"4":"127.0.0.1:9004"}`, `{"-1":"127.0.0.1:9000"}`,
			`{"zero":"127.0.0.1:9000"}`, `{"1":""}`, `{"1":"127.0.0.1"}`, `["127.0.0.1:9000"]`},
	} {
		for _, body := range bodies {
			f.Add(uint8(r), []byte(body))
		}
	}
	d, err := New(Options{
		GraphName: "ring", GraphN: 4, Local: []core.NodeID{0, 1, 2, 3},
		K: 2, PayloadLen: 2, Interval: 5 * time.Millisecond,
	})
	if err != nil {
		f.Fatal(err)
	}
	// The routes are called on the mux itself and the nodes never run:
	// with no goroutine in the background the fuzzer's coverage is the
	// request's alone. Run on an ended context only closes the sockets.
	f.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := d.Run(ctx); err != nil {
			f.Errorf("drain was not clean: %v", err)
		}
	})
	plane := d.mux()
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := routes[int(route)%len(routes)]
		rec := httptest.NewRecorder()
		plane.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body))))
		if rec.Code >= 500 || rec.Code < 200 || (rec.Code >= 300 && rec.Code < 400) {
			t.Fatalf("POST %s %q answered %d: %s", path, body, rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		plane.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"nodes"`) {
			t.Fatalf("GET /status after POST %s %q answered %d: %s", path, body, rec.Code, rec.Body)
		}
	})
}
