package api

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"protean/internal/obs"
)

func newServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewServer().Handler())
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
}

func TestHealthz(t *testing.T) {
	srv := newServer(t)
	var body map[string]string
	getJSON(t, srv.URL+"/healthz", &body)
	if body["status"] != "ok" {
		t.Errorf("status = %q", body["status"])
	}
}

func TestModelsEndpoint(t *testing.T) {
	srv := newServer(t)
	var models []map[string]any
	getJSON(t, srv.URL+"/models", &models)
	if len(models) != 22 {
		t.Errorf("models = %d, want 22", len(models))
	}
}

func TestSchemesEndpoint(t *testing.T) {
	srv := newServer(t)
	var schemes []string
	getJSON(t, srv.URL+"/schemes", &schemes)
	found := false
	for _, s := range schemes {
		if s == "protean" {
			found = true
		}
	}
	if !found {
		t.Errorf("schemes = %v, want protean included", schemes)
	}
}

func TestExperimentListEndpoint(t *testing.T) {
	srv := newServer(t)
	var entries []struct{ ID, Title string }
	getJSON(t, srv.URL+"/experiments", &entries)
	if len(entries) < 19 {
		t.Errorf("experiments = %d, want >= 19", len(entries))
	}
}

func TestExperimentRunEndpoint(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Post(srv.URL+"/experiments/table3?quick=1", "", nil)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "AWS") {
		t.Errorf("unexpected body: %q", string(buf[:n]))
	}
}

func TestExperimentRunUnknown(t *testing.T) {
	srv := newServer(t)
	resp, err := http.Post(srv.URL+"/experiments/fig999", "", nil)
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestSimulateEndpoint(t *testing.T) {
	srv := newServer(t)
	body := `{
		"nodes": 2,
		"scheme": "protean",
		"strictModel": "ResNet 50",
		"meanRPS": 800,
		"durationSeconds": 15,
		"warmupSeconds": 5
	}`
	resp, err := http.Post(srv.URL+"/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out SimulateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.Requests == 0 || out.SLOCompliance <= 0 {
		t.Errorf("response = %+v", out)
	}
}

func TestSimulateModelsSnapshot(t *testing.T) {
	srv := newServer(t)
	body := `{
		"nodes": 2,
		"strictModel": "ResNet 50",
		"beModels": ["VGG 19"],
		"meanRPS": 500,
		"durationSeconds": 10
	}`
	resp, err := http.Post(srv.URL+"/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var out SimulateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out.Models) == 0 {
		t.Fatal("response has no per-model snapshot")
	}
	total := 0
	seen := map[string]bool{}
	for _, m := range out.Models {
		total += m.Requests
		seen[m.Model] = true
	}
	if total != out.Requests {
		t.Errorf("snapshot requests = %d, response total = %d", total, out.Requests)
	}
	if !seen["ResNet 50"] || !seen["VGG 19"] {
		t.Errorf("snapshot models = %v, want both workloads", out.Models)
	}
	if out.TraceID != "" {
		t.Errorf("untraced run returned traceId %q", out.TraceID)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := newServer(t)
	// Drive some traffic so counters exist, then scrape.
	var health map[string]string
	getJSON(t, srv.URL+"/healthz", &health)
	body := `{"nodes": 2, "strictModel": "ResNet 50", "meanRPS": 400, "durationSeconds": 10}`
	resp, err := http.Post(srv.URL+"/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	text := string(raw)
	for _, want := range []string{
		`proteand_http_requests_total{handler="healthz",code="200"} 1`,
		`proteand_simulations_total 1`,
		`proteand_model_requests_total{model="ResNet 50"}`,
		"# TYPE proteand_sim_strict_p99_seconds histogram",
		`proteand_sim_strict_p99_seconds_bucket{le="+Inf"} 1`,
		"proteand_sim_slo_compliance",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
	// Every non-comment line must be "name{labels} value" with a
	// parseable float value — the exposition-format contract.
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			t.Errorf("line %q: bad value: %v", line, err)
		}
	}
}

func TestSimulateTraceRoundtrip(t *testing.T) {
	srv := newServer(t)
	body := `{"nodes": 2, "strictModel": "ResNet 50", "meanRPS": 400, "durationSeconds": 10, "seed": 7, "trace": true}`
	resp, err := http.Post(srv.URL+"/simulate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var out SimulateResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if out.TraceID == "" || out.TraceEvents == 0 {
		t.Fatalf("traced run returned traceId=%q events=%d", out.TraceID, out.TraceEvents)
	}
	// Events are per batch or decision, never per request.
	if out.TraceEvents >= out.Requests {
		t.Errorf("traced run emitted %d events for %d requests", out.TraceEvents, out.Requests)
	}

	chrome, err := http.Get(srv.URL + "/traces/" + out.TraceID)
	if err != nil {
		t.Fatalf("GET trace: %v", err)
	}
	defer chrome.Body.Close()
	if chrome.StatusCode != http.StatusOK {
		t.Fatalf("trace status = %d", chrome.StatusCode)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(chrome.Body).Decode(&doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("chrome trace has no events")
	}

	jl, err := http.Get(srv.URL + "/traces/" + out.TraceID + "?format=jsonl")
	if err != nil {
		t.Fatalf("GET jsonl: %v", err)
	}
	defer jl.Body.Close()
	raw, err := io.ReadAll(jl.Body)
	if err != nil {
		t.Fatalf("read jsonl: %v", err)
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) != out.TraceEvents+1 { // header line + one per event
		t.Errorf("jsonl lines = %d, want %d", len(lines), out.TraceEvents+1)
	}
	for _, line := range lines {
		var v map[string]any
		if err := json.Unmarshal([]byte(line), &v); err != nil {
			t.Fatalf("jsonl line %q: %v", line, err)
		}
	}

	if resp, err := http.Get(srv.URL + "/traces/nope"); err != nil {
		t.Fatalf("GET unknown: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown trace status = %d, want 404", resp.StatusCode)
		}
	}
	if resp, err := http.Get(srv.URL + "/traces/" + out.TraceID + "?format=xml"); err != nil {
		t.Fatalf("GET bad format: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad format status = %d, want 400", resp.StatusCode)
		}
	}
}

func TestTraceStoreEviction(t *testing.T) {
	s := NewServer()
	var first, last string
	for i := 0; i < DefaultTraceStore+3; i++ {
		id := s.storeTrace(obs.Trace{Label: "x"})
		if i == 0 {
			first = id
		}
		last = id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.traces[first]; ok {
		t.Errorf("oldest trace %q not evicted", first)
	}
	if _, ok := s.traces[last]; !ok {
		t.Errorf("newest trace %q missing", last)
	}
	if len(s.traces) != DefaultTraceStore {
		t.Errorf("stored traces = %d, want %d", len(s.traces), DefaultTraceStore)
	}
}

// TestTraceStoreLRUOrder pins the eviction policy: the store is LRU,
// not FIFO — touching an old trace (a download) protects it from the
// next eviction, and the untouched oldest entry goes instead.
func TestTraceStoreLRUOrder(t *testing.T) {
	s := NewServer(WithTraceStore(3))
	t1 := s.storeTrace(obs.Trace{Label: "a"})
	t2 := s.storeTrace(obs.Trace{Label: "b"})
	t3 := s.storeTrace(obs.Trace{Label: "c"})

	// Touch t1: the LRU order becomes t2, t3, t1.
	s.mu.Lock()
	s.touchTrace(t1)
	s.mu.Unlock()

	t4 := s.storeTrace(obs.Trace{Label: "d"}) // evicts t2, not t1
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.traces[t2]; ok {
		t.Errorf("least recently used trace %q survived eviction", t2)
	}
	for _, id := range []string{t1, t3, t4} {
		if _, ok := s.traces[id]; !ok {
			t.Errorf("trace %q missing after eviction", id)
		}
	}
	if want := []string{t3, t1, t4}; !slicesEqual(s.order, want) {
		t.Errorf("eviction order = %v, want %v", s.order, want)
	}
}

func slicesEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSimulateRejectsBadRequests(t *testing.T) {
	srv := newServer(t)
	for _, body := range []string{
		`{`,
		`{"unknownField": 1}`,
		`{"strictModel": "ResNet 50"}`,           // no rate
		`{"strictModel": "Nope", "meanRPS": 10}`, // unknown model
		`{"strictModel": "ResNet 50", "meanRPS": 10, "scheme": "bogus"}`,
	} {
		resp, err := http.Post(srv.URL+"/simulate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status = %d, want 400", body, resp.StatusCode)
		}
	}
}
