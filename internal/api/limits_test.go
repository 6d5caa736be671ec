package api

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"protean"
	"protean/internal/controlplane"
)

// limitsServer returns a server whose plane is small and has one gold
// tenant "acme", driven in-process without a listener.
func limitsServer(t testing.TB) http.Handler {
	t.Helper()
	h := NewServer().Handler()
	for _, step := range []struct{ path, body string }{
		{"/v1/plane", `{"seed": 3, "nodes": 1}`},
		{"/v1/tenants", `{"id": "acme", "model": "ResNet 18", "class": "gold"}`},
	} {
		if rec := do(h, step.path, "application/json", step.body); rec.Code/100 != 2 {
			t.Fatalf("POST %s = %d: %s", step.path, rec.Code, rec.Body)
		}
	}
	return h
}

func do(h http.Handler, path, contentType, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// decisions reads the plane's decision count from GET /v1/plane.
func decisions(t *testing.T, h http.Handler) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/plane", nil))
	var info PlaneInfo
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
		t.Fatalf("plane info: %v: %s", err, rec.Body)
	}
	return info.Decisions
}

// TestBodyCapOnEveryDecodingHandler: a body past maxBodyBytes is a 413
// on every endpoint that decodes one.
func TestBodyCapOnEveryDecodingHandler(t *testing.T) {
	huge := strings.Repeat("a", maxBodyBytes+1)
	for _, tc := range []struct{ path, body string }{
		{"/simulate", `{"strictModel": "` + huge + `"}`},
		{"/v1/plane", `{"seed": 1, "nodes": ` + strings.Repeat(" ", maxBodyBytes+1) + `1}`},
		{"/v1/tenants", `{"id": "` + huge + `", "model": "ResNet 18"}`},
		{"/v1/tenants/acme/requests", `{"n": 1` + strings.Repeat(" ", maxBodyBytes+1) + `}`},
	} {
		h := limitsServer(t)
		if rec := do(h, tc.path, "application/json", tc.body); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body = %d, want 413: %.200s", tc.path, len(tc.body), rec.Code, rec.Body)
		}
	}
}

// TestNDJSONBodyCapEndsStreamCleanly: a stream that runs past the cap
// keeps the decisions it already streamed and ends in an error trailer.
func TestNDJSONBodyCapEndsStreamCleanly(t *testing.T) {
	h := limitsServer(t)
	body := `{"n": 1, "vt": 0.1}` + "\n" + strings.Repeat(" ", maxBodyBytes) + `{"n": 1, "vt": 0.2}` + "\n"
	rec := do(h, "/v1/tenants/acme/requests", "application/x-ndjson", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 (the first decision streamed): %s", rec.Code, rec.Body)
	}
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("stream has %d lines, want decision + trailer:\n%s", len(lines), rec.Body)
	}
	var trailer errorBody
	if err := json.Unmarshal([]byte(lines[1]), &trailer); err != nil || !strings.Contains(trailer.Error, "too large") {
		t.Fatalf("trailer = %q (%v), want a body-too-large error", lines[1], err)
	}
}

// TestIngestRejectsHostileLines: a huge n, a negative vt, or a vt far
// past the plane's clock is a 400 that leaves no decision behind, in
// both the single-JSON and the NDJSON form; the first NDJSON line's
// errors keep their 4xx status.
func TestIngestRejectsHostileLines(t *testing.T) {
	for _, tc := range []struct {
		name, contentType, body string
		status                  int
	}{
		{"huge n", "application/json", `{"n": 1000000000000}`, http.StatusBadRequest},
		{"negative vt", "application/json", `{"vt": -1}`, http.StatusBadRequest},
		{"far vt", "application/json", `{"vt": 1e12}`, http.StatusBadRequest},
		{"ndjson huge n", "application/x-ndjson", `{"n": 1000000000000}` + "\n", http.StatusBadRequest},
		{"ndjson negative vt", "application/x-ndjson", `{"vt": -0.5}` + "\n", http.StatusBadRequest},
		{"ndjson garbage", "application/x-ndjson", "not json\n", http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := limitsServer(t)
			if rec := do(h, "/v1/tenants/acme/requests", tc.contentType, tc.body); rec.Code != tc.status {
				t.Fatalf("status = %d, want %d: %s", rec.Code, tc.status, rec.Body)
			}
			if n := decisions(t, h); n != 0 {
				t.Fatalf("rejected line left %d decisions", n)
			}
		})
	}
	h := limitsServer(t)
	if rec := do(h, "/v1/tenants/ghost/requests", "application/x-ndjson", `{"n": 1}`+"\n"); rec.Code != http.StatusNotFound {
		t.Fatalf("ndjson ingest for an unknown tenant = %d, want 404", rec.Code)
	}
}

// simBody is a small valid /simulate body, without its braces.
const simBody = `"strictModel": "ResNet 50", "meanRPS": 100`

// hostileBodies are bodies past one of the size caps; FuzzSimulate
// seeds its corpus with them.
var hostileBodies = []struct{ name, path, body string }{
	{"simulate nodes", "/simulate", `{` + simBody + `, "nodes": 1000000000}`},
	{"simulate chaosScale", "/simulate", `{` + simBody + `, "chaosScale": 1e300}`},
	{"simulate duration", "/simulate", `{` + simBody + `, "durationSeconds": 1e300}`},
	{"simulate negative duration", "/simulate", `{` + simBody + `, "durationSeconds": -1e300}`},
	{"simulate arrivals", "/simulate", `{"strictModel": "ResNet 50", "meanRPS": 1e300, "durationSeconds": 10}`},
	{"simulate arrivals default duration", "/simulate", `{"strictModel": "ResNet 50", "meanRPS": 200000}`},
	{"simulate arrivals truncated duration", "/simulate", `{"strictModel": "ResNet 50", "meanRPS": 1e16, "durationSeconds": 1e-10}`},
	{"plane nodes", "/v1/plane", `{"nodes": 1000000000}`},
	{"plane shards", "/v1/plane", `{"shards": 65}`},
	{"plane chaosScale", "/v1/plane", `{"chaosScale": 1e300}`},
	{"plane huge quantum", "/v1/plane", `{"quantumMillis": 1e300}`},
	{"plane denormal quantum", "/v1/plane", `{"quantumMillis": 5e-324}`},
	{"plane negative quantum", "/v1/plane", `{"quantumMillis": -10}`},
	{"tenant prewarm", "/v1/tenants", `{"id": "big", "model": "ResNet 18", "prewarmCount": 1000000000}`},
}

// TestSizeCapsRejectHostileBodies: a /simulate, /v1/plane or
// /v1/tenants body that asks for more lanes, shards, faults, virtual
// time, arrivals or pre-warmed containers than the caps allow is a 400
// before anything is built, and a rejected body leaves the running plane
// in place. Without the caps chaosScale 1e300 re-arms the slice-fault
// timer at the same instant forever, and a huge prewarmCount allocates
// one idle-container record per count on every node.
func TestSizeCapsRejectHostileBodies(t *testing.T) {
	for _, tc := range hostileBodies {
		t.Run(tc.name, func(t *testing.T) {
			h := limitsServer(t)
			if rec := do(h, tc.path, "application/json", tc.body); rec.Code != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400: %s", rec.Code, rec.Body)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/plane", nil))
			var info PlaneInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || info.Seed != 3 || info.Tenants != 1 {
				t.Fatalf("plane after a rejected body = %s (%v), want the seed-3 plane with its tenant", rec.Body, err)
			}
		})
	}
	// The caps themselves are allowed.
	h := limitsServer(t)
	if rec := do(h, "/v1/plane", "application/json", `{"nodes": 1, "shards": 64, "chaosScale": 100, "quantumMillis": 0.1}`); rec.Code != http.StatusOK {
		t.Fatalf("plane at the caps = %d, want 200: %s", rec.Code, rec.Body)
	}
	if rec := do(h, "/v1/plane", "application/json", `{"nodes": 1, "quantumMillis": 1000}`); rec.Code != http.StatusOK {
		t.Fatalf("plane at the quantum cap = %d, want 200: %s", rec.Code, rec.Body)
	}
	if rec := do(h, "/v1/tenants", "application/json", `{"id": "warm", "model": "ResNet 18", "prewarmCount": 1024}`); rec.Code != http.StatusCreated {
		t.Fatalf("tenant at the prewarm cap = %d, want 201: %s", rec.Code, rec.Body)
	}
}

// TestIngestCapsRequestsPerBody: the n budget spans a whole NDJSON body,
// so many modest lines cannot add up past controlplane.MaxIngestN.
func TestIngestCapsRequestsPerBody(t *testing.T) {
	h := limitsServer(t)
	line, _ := json.Marshal(IngestLine{N: controlplane.MaxIngestN / 2})
	body := strings.Repeat(string(line)+"\n", 3)
	rec := do(h, "/v1/tenants/acme/requests", "application/x-ndjson", body)
	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if rec.Code != http.StatusOK || len(lines) != 3 || !strings.Contains(lines[2], `"error"`) {
		t.Fatalf("status %d, %d lines; want 200 with two decisions and an error trailer:\n%s", rec.Code, len(lines), rec.Body)
	}
	if n := decisions(t, h); n != 2 {
		t.Fatalf("%d decisions, want 2", n)
	}
}

// FuzzIngestNDJSON feeds arbitrary bytes to the NDJSON ingest endpoint.
// Whatever arrives, the handler must not panic, must answer 2xx or 4xx,
// and must keep its stream line-wise well formed; a body over the cap
// never reads as a clean success. The corpus holds no over-cap seed: the
// fuzzer would spend its run minimizing a 1 MiB input, and
// TestNDJSONBodyCapEndsStreamCleanly covers that case.
func FuzzIngestNDJSON(f *testing.F) {
	for _, seed := range []string{
		"{\"n\": 2, \"vt\": 0.5}\n{\"n\": 1, \"vt\": 1.0}\n",
		"{\"n\": 1000000000000}\n",
		"{\"n\": 60000}\n{\"n\": 60000}\n",
		"{\"vt\": -1}\n",
		"{\"vt\": 1e12}\n",
		"{\"n\": 1}\n{\"n\": 1}\nnot json\n",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		h := limitsServer(t)
		rec := do(h, "/v1/tenants/acme/requests", "application/x-ndjson", string(body))
		if rec.Code/100 != 2 && rec.Code/100 != 4 {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		failed := rec.Code/100 == 4
		sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
		for sc.Scan() {
			var v map[string]any
			if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
				t.Fatalf("malformed response line %q: %v", sc.Text(), err)
			}
			if _, ok := v["error"]; ok {
				failed = true
			}
		}
		if len(body) > maxBodyBytes && !failed {
			t.Fatalf("%d-byte body over the %d-byte cap succeeded", len(body), maxBodyBytes)
		}
	})
}

// FuzzSimulate posts arbitrary bytes to /simulate. Whatever arrives, the
// handler must not panic and must answer 200, 400 or 413, never a 5xx.
// A body that passes validate but asks for more work than one fuzz input
// should spend (overBudget) is only validated, so the run stays bounded;
// the corpus starts from the size-cap rows and the rejected bodies of
// TestSimulateRejectsBadRequests. testdata/fuzz/FuzzSimulate holds the
// regression seeds: runs with no strict sample past warmup, whose NaN
// compliance used to fail the response encoding with a 500.
func FuzzSimulate(f *testing.F) {
	for _, tc := range hostileBodies {
		f.Add([]byte(tc.body))
	}
	for _, body := range []string{
		`{` + simBody + `, "durationSeconds": 5, "nodes": 2}`,
		`{` + simBody + `, "durationSeconds": 5, "shape": "wiki", "procurement": "hybrid", "spotAvailability": "low"}`,
		`{` + simBody + `, "durationSeconds": 5, "shape": "twitter", "chaosScale": 2, "trace": true}`,
		`{`,
		`{"unknownField": 1}`,
		`{"strictModel": "ResNet 50"}`,
		`{"strictModel": "Nope", "meanRPS": 10}`,
		`{"strictModel": "ResNet 50", "meanRPS": 10, "scheme": "bogus"}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// The handler's own decoder settings; its body cap only adds
		// failures, so every body it would simulate decodes here too.
		var req SimulateRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		if dec.Decode(&req) == nil && req.validate() == nil && overBudget(req) {
			return
		}
		rec := do(NewServer().Handler(), "/simulate", "application/json", string(body))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
	})
}

// overBudget reports whether a valid /simulate body asks for more
// simulated work than one fuzz input should spend.
func overBudget(req SimulateRequest) bool {
	d := req.duration().Seconds()
	if d <= 0 {
		d = protean.DefaultDuration.Seconds()
	}
	return req.MeanRPS*d > 2000 || d > 60 || req.Nodes > 4 || req.ChaosScale > 2
}
