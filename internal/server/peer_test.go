// Tests for the fleet-facing surface of the server: the exported canonical
// key helpers (must match what the handlers actually cache under), the
// /internal/peer/cache endpoint, and the PeerFetch hook consulted when a
// request arrives with an X-Mirage-Owner routing hint.

package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// TestCanonicalRunKeyMatchesHandler pins the exported key derivation to the
// key the /v1/run handler embeds in its response: if they ever drift, the
// coordinator's shard routing and cache peering silently stop lining up with
// what workers cache.
func TestCanonicalRunKeyMatchesHandler(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			return fakeMixResult(cfg), nil
		}}
	})
	body := `{"mix": ["hmmer", "mcf"], "topology": "traditional", "num_ooo": 2, "seed": "fleet"}`
	rec := postJSON(t, srv, "/v1/run", body)
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	var resp struct {
		Key string `json:"key"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	var req RunRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	key, err := CanonicalRunKey(&req)
	if err != nil {
		t.Fatal(err)
	}
	if key != resp.Key {
		t.Fatalf("CanonicalRunKey = %q, handler cached under %q", key, resp.Key)
	}
	// Invalid requests surface the same client-shaped validation error the
	// handler would return.
	if _, err := CanonicalRunKey(&RunRequest{}); err == nil {
		t.Fatal("empty mix: want validation error")
	}
	if _, err := CanonicalRunKey(&RunRequest{Mix: []string{"no-such-bench"}}); err == nil {
		t.Fatal("unknown benchmark: want validation error")
	}
}

// TestCanonicalSweepAndFigureKeys pins ParseJob, and the exported key
// helpers over it, to the keys the handler caches under on all three job
// routes: every response must be readable from the peer-cache endpoint
// under the key ParseJob gives the same request.
func TestCanonicalSweepAndFigureKeys(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.Backend = instantBackend
	})
	scales := srv.cfg.Scales
	for _, tc := range []struct{ method, target, body string }{
		{"POST", "/v1/run", `{"mix": ["hmmer", "mcf"], "seed": "keys", "timeout_ms": 5000}`},
		{"POST", "/v1/sweep", `{"scale": "tiny"}`},
		{"GET", "/v1/figures/figure-7?scale=tiny&timeout_ms=5000", ""},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)))
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", tc.target, rec.Code, rec.Body.Bytes())
		}
		j, routed, err := parseRequest(httptest.NewRequest(tc.method, tc.target, strings.NewReader(tc.body)), scales)
		if !routed || err != nil {
			t.Fatalf("%s: ParseJob routed=%v err=%v", tc.target, routed, err)
		}
		peer := get(t, srv, "/internal/peer/cache?key="+url.QueryEscape(j.Key))
		if peer.Code != 200 || !bytes.Equal(peer.Body.Bytes(), rec.Body.Bytes()) {
			t.Fatalf("%s: handler did not cache its reply under ParseJob's key %q (peer status %d)", tc.target, j.Key, peer.Code)
		}
		var helper string
		switch j.Route {
		case "run":
			var req RunRequest
			_ = json.Unmarshal([]byte(tc.body), &req)
			helper, err = CanonicalRunKey(&req)
		case "sweep":
			var req SweepRequest
			_ = json.Unmarshal([]byte(tc.body), &req)
			helper, err = CanonicalSweepKey(&req, scales)
		default:
			continue
		}
		if err != nil || helper != j.Key {
			t.Fatalf("%s: exported key helper = %q, %v; ParseJob = %q", tc.target, helper, err, j.Key)
		}
	}

	if _, err := CanonicalSweepKey(&SweepRequest{Scale: "bogus"}, scales); err == nil {
		t.Fatal("unknown scale: want error")
	}
	if _, err := CanonicalSweepKey(&SweepRequest{TimeoutMS: -1}, scales); err == nil {
		t.Fatal("negative timeout: want error")
	}
	for _, target := range []string{"/v1/figures/no-such-figure?scale=tiny", "/v1/figures/figure-7?timeout_ms=-1"} {
		if _, routed, err := parseRequest(httptest.NewRequest("GET", target, nil), scales); !routed || err == nil {
			t.Fatalf("%s: routed=%v err=%v, want a client error", target, routed, err)
		}
	}

	// nil scales means the default registry New installs.
	defKey, err := CanonicalSweepKey(&SweepRequest{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(defKey, "scale=quick") {
		t.Fatalf("default scale key = %q, want quick", defKey)
	}
}

// parseRequest runs ParseJob on req the way the fleet coordinator reaches
// it: routed by a mux built from JobRoutes. routed is false when no job
// route matched and the mux answered on its own.
func parseRequest(req *http.Request, scales map[string]experiments.Scale) (j *Job, routed bool, err error) {
	mux := http.NewServeMux()
	for pattern, route := range JobRoutes {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			routed = true
			var body []byte
			if body, err = ReadBody(r); err == nil {
				j, err = ParseJob(route, r, body, scales)
			}
		})
	}
	mux.ServeHTTP(httptest.NewRecorder(), req)
	return j, routed, err
}

// TestPeerCacheEndpoint: the peering endpoint serves settled response bytes
// verbatim from memory, 404s keys it never computed, and never triggers a
// simulation of its own.
func TestPeerCacheEndpoint(t *testing.T) {
	var runs atomic.Int64
	srv := newTestServer(t, func(c *Config) {
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			runs.Add(1)
			return fakeMixResult(cfg), nil
		}}
	})
	rec := postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"], "seed": "peered"}`)
	if rec.Code != 200 {
		t.Fatalf("seed run: status %d", rec.Code)
	}
	want := rec.Body.Bytes()
	key, err := CanonicalRunKey(&RunRequest{Mix: []string{"hmmer"}, Seed: "peered"})
	if err != nil {
		t.Fatal(err)
	}

	peek := get(t, srv, "/internal/peer/cache?key="+url.QueryEscape(key))
	if peek.Code != 200 {
		t.Fatalf("peer cache hit: status %d: %s", peek.Code, peek.Body.Bytes())
	}
	if !strings.EqualFold(peek.Header().Get("X-Cache"), "memory") {
		t.Fatalf("X-Cache = %q, want memory", peek.Header().Get("X-Cache"))
	}
	if string(peek.Body.Bytes()) != string(want) {
		t.Fatalf("peer bytes differ from the original response:\n%s\nvs\n%s", peek.Body.Bytes(), want)
	}

	miss := get(t, srv, "/internal/peer/cache?key="+url.QueryEscape("run|no-such-key"))
	if miss.Code != http.StatusNotFound {
		t.Fatalf("peer cache miss: status %d, want 404", miss.Code)
	}
	if bad := get(t, srv, "/internal/peer/cache"); bad.Code != http.StatusBadRequest {
		t.Fatalf("missing key: status %d, want 400", bad.Code)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("peer endpoint triggered %d simulations, want the original 1", got)
	}
}

// TestPeerCacheAuth: with PeerAuth configured, the peering endpoint serves
// only requests carrying the shared secret — cached result bytes must not
// be readable (or key-probe-able) by arbitrary clients that reach the
// worker's listener.
func TestPeerCacheAuth(t *testing.T) {
	srv := newTestServer(t, func(c *Config) {
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			return fakeMixResult(cfg), nil
		}}
		c.PeerAuth = "fleet-secret"
	})
	rec := postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"], "seed": "authed"}`)
	if rec.Code != 200 {
		t.Fatalf("seed run: status %d", rec.Code)
	}
	key, err := CanonicalRunKey(&RunRequest{Mix: []string{"hmmer"}, Seed: "authed"})
	if err != nil {
		t.Fatal(err)
	}
	path := "/internal/peer/cache?key=" + url.QueryEscape(key)

	peek := func(secret string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("GET", path, nil)
		if secret != "" {
			req.Header.Set(PeerAuthHeader, secret)
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}
	if got := peek("").Code; got != http.StatusForbidden {
		t.Fatalf("no secret: status %d, want 403", got)
	}
	if got := peek("wrong").Code; got != http.StatusForbidden {
		t.Fatalf("wrong secret: status %d, want 403", got)
	}
	if got := srv.reg.Counter("server.peer.denied").Value(); got != 2 {
		t.Fatalf("server.peer.denied = %d, want 2", got)
	}
	if rec := peek("fleet-secret"); rec.Code != 200 || rec.Body.Len() == 0 {
		t.Fatalf("right secret: status %d body %q, want the cached bytes", rec.Code, rec.Body.Bytes())
	}
}

// TestPeerFetchConsulted: a request carrying an X-Mirage-Owner hint asks the
// configured PeerFetch before simulating; a peer hit serves (and caches) the
// peer's bytes with zero backend work, a peer miss falls through to a normal
// simulation, and requests without the hint never consult the peer.
func TestPeerFetchConsulted(t *testing.T) {
	peerBody := []byte(`{"peer": "bytes"}` + "\n")
	var runs, fetches atomic.Int64
	var hit atomic.Bool
	srv := newTestServer(t, func(c *Config) {
		c.Backend = fakeBackend{run: func(ctx context.Context, cfg core.Config) (*core.MixResult, error) {
			runs.Add(1)
			return fakeMixResult(cfg), nil
		}}
		c.PeerFetch = func(ctx context.Context, owner, key string) ([]byte, bool) {
			fetches.Add(1)
			if owner != "http://owner:8080" {
				t.Errorf("PeerFetch owner = %q", owner)
			}
			if !strings.HasPrefix(key, "run|") {
				t.Errorf("PeerFetch key = %q", key)
			}
			if hit.Load() {
				return append([]byte(nil), peerBody...), true
			}
			return nil, false
		}
	})
	withOwner := func(seed string) *httptest.ResponseRecorder {
		req := httptest.NewRequest("POST", "/v1/run",
			strings.NewReader(fmt.Sprintf(`{"mix": ["hmmer"], "seed": %q}`, seed)))
		req.Header.Set("X-Mirage-Owner", "http://owner:8080")
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		return rec
	}

	// Peer miss: falls through to the local simulation.
	if rec := withOwner("miss-path"); rec.Code != 200 {
		t.Fatalf("peer-miss run: status %d", rec.Code)
	}
	if runs.Load() != 1 || fetches.Load() != 1 {
		t.Fatalf("peer miss: runs=%d fetches=%d, want 1/1", runs.Load(), fetches.Load())
	}

	// Peer hit: the owner's bytes come back verbatim, no local simulation.
	hit.Store(true)
	rec := withOwner("hit-path")
	if rec.Code != 200 {
		t.Fatalf("peer-hit run: status %d", rec.Code)
	}
	if rec.Body.String() != string(peerBody) {
		t.Fatalf("peer-hit body = %s, want the peer's bytes", rec.Body.Bytes())
	}
	if runs.Load() != 1 {
		t.Fatalf("peer hit still simulated locally (runs=%d)", runs.Load())
	}
	if got := srv.reg.Counter("server.peer.hits").Value(); got != 1 {
		t.Fatalf("server.peer.hits = %d, want 1", got)
	}

	// The peer-fetched bytes were cached: a repeat without the hint is a
	// local cache hit and consults nobody.
	before := fetches.Load()
	rec = postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"], "seed": "hit-path"}`)
	if rec.Code != 200 || rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat: status %d X-Cache %q, want 200/hit", rec.Code, rec.Header().Get("X-Cache"))
	}
	if rec.Body.String() != string(peerBody) {
		t.Fatalf("repeat served %s, want cached peer bytes", rec.Body.Bytes())
	}
	if fetches.Load() != before {
		t.Fatal("cache hit consulted the peer again")
	}

	// No owner hint: the peer is never consulted even with PeerFetch set.
	before = fetches.Load()
	if rec := postJSON(t, srv, "/v1/run", `{"mix": ["hmmer"], "seed": "local-only"}`); rec.Code != 200 {
		t.Fatalf("local run: status %d", rec.Code)
	}
	if fetches.Load() != before {
		t.Fatal("request without X-Mirage-Owner consulted the peer")
	}
}
