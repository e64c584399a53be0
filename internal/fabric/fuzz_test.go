package fabric

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// FuzzFabricBodies throws arbitrary bodies at the coordinator's three
// POST routes: each is answered 2xx or 4xx — never a panic, and with no
// checkpoint to fail never a 5xx — and GET /status still answers
// afterwards.
func FuzzFabricBodies(f *testing.F) {
	spec, twin := testSpec(), testSpec()
	goodHdr, _ := json.Marshal(resultsHeader{Fingerprint: twin.Fingerprint()})
	routes := []string{"/lease", "/renew", "/results"}
	for r, bodies := range [][]string{
		{`{"worker":"w"}`, `{"worker":7}`, `{"worker":`, `[]`, ``},
		{`{"lease":1}`, `{"lease":"1"}`, `{"lease":-1}`, `{"lease":`, ``},
		{
			string(goodHdr) + "\n" + `{"i":0,"o":{"result":{"rounds":1}}}` + "\n",
			"complete garbage\nmore garbage\n", ``,
			`{"fingerprint":"sweep|other"}` + "\n" + `{"i":0,"o":{}}` + "\n",
			string(goodHdr) + "\n" + `{"i":0,"o":{` + "\n",
			string(goodHdr) + "\n" + `{"i":999,"o":{"result":{"rounds":1}}}` + "\n",
			string(goodHdr) + "\n" + strings.Repeat(`{"i":1,"o":{}}`+"\n", 9),
		},
	} {
		for _, body := range bodies {
			f.Add(uint8(r), []byte(body))
		}
	}
	c, err := NewCoordinator(CoordinatorOptions{Spec: &spec})
	if err != nil {
		f.Fatal(err)
	}
	// The routes are called on the mux itself; Run on an ended context
	// only releases the listener.
	f.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _ = c.Run(ctx)
	})
	plane := c.mux()
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		path := routes[int(route)%len(routes)]
		rec := httptest.NewRecorder()
		plane.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(string(body))))
		if rec.Code >= 500 || rec.Code < 200 || (rec.Code >= 300 && rec.Code < 400) {
			t.Fatalf("POST %s %q answered %d: %s", path, body, rec.Code, rec.Body)
		}
		rec = httptest.NewRecorder()
		plane.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/status", nil))
		var st statusResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); rec.Code != http.StatusOK || err != nil || st.Total != 8 {
			t.Fatalf("GET /status after POST %s %q answered %d: %s", path, body, rec.Code, rec.Body)
		}
	})
}
