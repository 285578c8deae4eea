package server

// FuzzServerDecodeRequest throws arbitrary bytes at the parse path of all
// three job routes: the POST bodies of /v1/run and /v1/sweep and the query
// string of /v1/figures/{id}. Whatever the input, the server must never
// panic and never blame itself (5xx), malformed JSON must be rejected with
// a 4xx, ParseJob must key the request exactly when the worker accepts
// it, and an accepted run's config must be one core.Config.Normalize
// leaves as it is. The backend is a fast fake, so any input that does
// validate exercises the full handler (cache, admission, encoding) too.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

func FuzzServerDecodeRequest(f *testing.F) {
	f.Add("/v1/run", `{"mix": ["hmmer"]}`)
	f.Add("/v1/run", `{"mix": [`)
	f.Add("/v1/run", `{"mix": ["hmmer"], "topology": "traditional", "num_ooo": 2, "seed": "s"}`)
	f.Add("/v1/run", `{"mix": ["hmmer"]} trailing`)
	f.Add("/v1/run", `null`)
	f.Add("/v1/run", `{"mix": ["hmmer"], "timeout_ms": -5}`)
	f.Add("/v1/sweep", `{"scale": "tiny"}`)
	f.Add("/v1/sweep", "{\"scale\": \"\u0000\"}")
	f.Add("/v1/sweep", `[1,2,3]`)
	f.Add("/v1/run", `{"mix": ["hmmer"], "bogus": 1}`)
	f.Add("/v1/run", `{"mix": ["hmmer"], "topology": "traditional", "policy": "SC-MPKI"}`)
	f.Add("/v1/run", `{"mix": ["mcf"], "topology": "homo-ooo", "num_ooo": 1}`)

	srv := newFuzzServer()
	f.Fuzz(func(t *testing.T, path, body string) {
		// A figure path is a GET with body as its query string; any other
		// path posts body to /v1/run or /v1/sweep.
		figure := strings.HasPrefix(path, "/v1/figures/")
		if !figure && path != "/v1/sweep" {
			path = "/v1/run"
		}
		newReq := func() *http.Request {
			if figure {
				req := httptest.NewRequest("GET", "/", nil)
				req.URL = &url.URL{Path: path, RawQuery: body}
				return req
			}
			return httptest.NewRequest("POST", path, strings.NewReader(body))
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, newReq()) // must not panic
		if rec.Code >= 500 {
			t.Fatalf("%s %q -> %d (server blamed itself):\n%s", path, body, rec.Code, rec.Body.Bytes())
		}
		// The fleet coordinator keys a request exactly when ParseJob does;
		// that must be exactly when the worker accepts it. A keyed request
		// may still run out its own timeout_ms (504).
		j, routed, err := parseRequest(newReq(), srv.cfg.Scales)
		keyed := routed && err == nil
		ok := rec.Code >= 200 && rec.Code <= 299
		if keyed != ok && !(keyed && rec.Code == http.StatusGatewayTimeout) {
			t.Fatalf("%s %q: worker answered %d but ParseJob keyed=%v (err %v)", path, body, rec.Code, keyed, err)
		}
		if keyed && ok && j.Route == "run" {
			quoted, _ := json.Marshal(j.Key)
			if !bytes.Contains(rec.Body.Bytes(), quoted) {
				t.Fatalf("%s %q: reply does not carry ParseJob's key %q", path, body, j.Key)
			}
		}
		// An accepted run is a normalized core.Config, which normalizes
		// again without error and unchanged.
		if keyed && j.Route == "run" {
			again, err := j.cfg.Normalize()
			if err != nil || !reflect.DeepEqual(again, j.cfg) {
				t.Fatalf("%s %q: accepted config %+v normalizes to %+v, %v", path, body, j.cfg, again, err)
			}
		}
		if !routed {
			return // the mux answered on its own (redirect, 404, 405)
		}
		if !figure && !json.Valid([]byte(body)) && (rec.Code < 400 || rec.Code > 499) {
			t.Fatalf("%s: malformed JSON %q -> %d, want 4xx", path, body, rec.Code)
		}
		if rec.Code >= 400 && !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s %q -> %d with non-JSON error body:\n%s", path, body, rec.Code, rec.Body.Bytes())
		}
		if ok {
			// Bound cache growth across the fuzz run.
			srv.ResetCache()
		}
	})
}

// newFuzzServer is a server whose backend answers instantly, so fuzz
// throughput measures the decode path rather than simulation time.
func newFuzzServer() *Server {
	return New(Config{
		Scales: map[string]experiments.Scale{
			"quick": experiments.QuickScale,
			"tiny":  tinyScale,
		},
		Backend: instantBackend,
	})
}

// instantBackend answers every run and report request at once.
var instantBackend = fakeBackend{
	run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
		return fakeMixResult(cfg), nil
	},
	reports: func(ctx context.Context, s experiments.Scale, ids []string) ([]*experiments.Report, error) {
		var out []*experiments.Report
		for _, id := range ids {
			rep := &experiments.Report{ID: id}
			rep.Table.AddRow("fuzz", "fixture")
			out = append(out, rep)
		}
		return out, nil
	},
}
