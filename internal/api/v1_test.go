package api

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"protean/internal/controlplane"
)

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteString("\n")
	}
	return resp, sb.String()
}

func TestV1TenantLifecycle(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()

	// Configure a small plane.
	resp, _ := postJSON(t, srv.URL+"/v1/plane", `{"seed": 3, "nodes": 2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plane config status = %d", resp.StatusCode)
	}

	resp, body := postJSON(t, srv.URL+"/v1/tenants",
		`{"id": "acme", "model": "ResNet 18", "class": "gold"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("tenant create status = %d: %s", resp.StatusCode, body)
	}
	// Duplicate registration conflicts.
	resp, _ = postJSON(t, srv.URL+"/v1/tenants",
		`{"id": "acme", "model": "ResNet 18"}`)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate tenant status = %d, want 409", resp.StatusCode)
	}
	// Unknown model is a 400.
	resp, _ = postJSON(t, srv.URL+"/v1/tenants", `{"id": "bad", "model": "Nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad model status = %d, want 400", resp.StatusCode)
	}

	// Single-shot ingest (manual mode: explicit virtual timestamps).
	resp, body = postJSON(t, srv.URL+"/v1/tenants/acme/requests", `{"n": 4, "vt": 0.1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d: %s", resp.StatusCode, body)
	}
	var dec controlplane.Decision
	if err := json.Unmarshal([]byte(body), &dec); err != nil {
		t.Fatalf("decode decision: %v", err)
	}
	if dec.Outcome != controlplane.OutcomeAdmit || dec.Requests != 4 {
		t.Fatalf("decision = %+v", dec)
	}
	// Ingest for a missing tenant is a 404.
	resp, _ = postJSON(t, srv.URL+"/v1/tenants/ghost/requests", `{"n": 1}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("ghost ingest status = %d, want 404", resp.StatusCode)
	}

	// NDJSON chunked ingest: one decision per line.
	stream := "{\"n\": 2, \"vt\": 0.5}\n{\"n\": 3, \"vt\": 1.0}\n{\"n\": 1, \"vt\": 6.0}\n"
	resp2, err := http.Post(srv.URL+"/v1/tenants/acme/requests",
		"application/x-ndjson", strings.NewReader(stream))
	if err != nil {
		t.Fatalf("NDJSON POST: %v", err)
	}
	defer resp2.Body.Close()
	if got := resp2.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", got)
	}
	var decisions []controlplane.Decision
	sc := bufio.NewScanner(resp2.Body)
	for sc.Scan() {
		var d controlplane.Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad decision line %q: %v", sc.Text(), err)
		}
		decisions = append(decisions, d)
	}
	if len(decisions) != 3 {
		t.Fatalf("got %d decisions, want 3", len(decisions))
	}

	// Usage reflects the admissions.
	resp3, err := http.Get(srv.URL + "/v1/tenants/acme/usage")
	if err != nil {
		t.Fatalf("GET usage: %v", err)
	}
	defer resp3.Body.Close()
	var usage controlplane.Usage
	if err := json.NewDecoder(resp3.Body).Decode(&usage); err != nil {
		t.Fatalf("decode usage: %v", err)
	}
	if usage.Admitted != 10 {
		t.Fatalf("usage admitted = %d, want 10", usage.Admitted)
	}
	if usage.Completed == 0 || usage.CostDollars <= 0 {
		t.Fatalf("usage not metered: %+v", usage)
	}

	// The ingest log streams as replayable NDJSON.
	resp4, err := http.Get(srv.URL + "/v1/plane/log")
	if err != nil {
		t.Fatalf("GET log: %v", err)
	}
	defer resp4.Body.Close()
	entries, err := controlplane.ReadLog(resp4.Body)
	if err != nil {
		t.Fatalf("parse log: %v", err)
	}
	// 1 tenant registration + 4 ingests.
	if len(entries) != 5 {
		t.Fatalf("log entries = %d, want 5", len(entries))
	}

	// Drain yields the final summary; further ingest conflicts.
	resp, body = postJSON(t, srv.URL+"/v1/plane/drain", ``)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"tenants"`) {
		t.Fatalf("drain status = %d: %s", resp.StatusCode, body)
	}
}

// TestNDJSONErrorTrailer pins the streaming writer's failure contract:
// a mid-stream encode error must leave a line-wise well-formed stream
// ending in a parseable {"error": ...} trailer, never a torn JSON line.
func TestNDJSONErrorTrailer(t *testing.T) {
	rec := httptest.NewRecorder()
	out := newNDJSONWriter(rec)
	if err := out.Encode(map[string]float64{"ok": 1}); err != nil {
		t.Fatalf("first encode: %v", err)
	}
	// NaN cannot be marshalled: this is the mid-stream failure.
	if err := out.Encode(map[string]float64{"bad": math.NaN()}); err == nil {
		t.Fatal("NaN encode should fail")
	}
	// The stream is closed: further writes are rejected.
	if err := out.Encode(map[string]float64{"more": 2}); err == nil {
		t.Fatal("write after failure should be rejected")
	}

	lines := strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("stream has %d lines, want 2 (payload + trailer):\n%s", len(lines), rec.Body.String())
	}
	var payload map[string]float64
	if err := json.Unmarshal([]byte(lines[0]), &payload); err != nil || payload["ok"] != 1 {
		t.Fatalf("payload line malformed: %q (%v)", lines[0], err)
	}
	var trailer errorBody
	if err := json.Unmarshal([]byte(lines[1]), &trailer); err != nil {
		t.Fatalf("trailer line malformed: %q (%v)", lines[1], err)
	}
	if trailer.Error == "" || !strings.Contains(trailer.Error, "encode") {
		t.Fatalf("trailer error = %q", trailer.Error)
	}
}

// TestNDJSONFirstItemFailure: when the very first value fails, no
// stream has started and a plain 500 JSON error is still possible.
func TestNDJSONFirstItemFailure(t *testing.T) {
	rec := httptest.NewRecorder()
	out := newNDJSONWriter(rec)
	if err := out.Encode(math.Inf(1)); err == nil {
		t.Fatal("Inf encode should fail")
	}
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var trailer errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &trailer); err != nil {
		t.Fatalf("error body malformed: %q", rec.Body.String())
	}
}

// TestConcurrentSimulateAndIngest drives the one-shot batch API and the
// live tenant ingest path at the same time — the -race guard for the
// server's two stateful subsystems (trace store + plane) coexisting.
func TestConcurrentSimulateAndIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("concurrent HTTP exercise")
	}
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()

	resp, _ := postJSON(t, srv.URL+"/v1/plane", `{"seed": 5, "nodes": 2}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plane config status = %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/tenants", `{"id": "racer", "model": "MobileNet"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("tenant create status = %d", resp.StatusCode)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < 2; i++ {
			resp, body := postJSON(t, srv.URL+"/simulate",
				`{"strictModel": "ResNet 18", "meanRPS": 40, "durationSeconds": 3, "trace": true}`)
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("simulate status %d: %s", resp.StatusCode, body)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			body := fmt.Sprintf(`{"n": 2, "vt": %g}`, 0.05*float64(i))
			resp, out := postJSON(t, srv.URL+"/v1/tenants/racer/requests", body)
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted &&
				resp.StatusCode != http.StatusTooManyRequests {
				errs <- fmt.Errorf("ingest status %d: %s", resp.StatusCode, out)
				return
			}
			if i%10 == 0 {
				if r, err := http.Get(srv.URL + "/v1/tenants/racer/usage"); err == nil {
					r.Body.Close()
				}
			}
		}
	}()
	go func() {
		// Scrapes read the plane's accounts while ingest updates them.
		defer wg.Done()
		for i := 0; i < 20; i++ {
			r, err := http.Get(srv.URL + "/metrics")
			if err != nil {
				errs <- fmt.Errorf("GET /metrics: %v", err)
				return
			}
			r.Body.Close()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Both subsystems still render a parseable metrics exposition.
	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	sc := bufio.NewScanner(mresp.Body)
	found := false
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "proteand_tenant_requests_total") {
			found = true
		}
	}
	if !found {
		t.Error("tenant series missing from /metrics")
	}
}

func TestV1MarketPrices(t *testing.T) {
	srv := httptest.NewServer(NewServer().Handler())
	defer srv.Close()

	// The default plane runs market-off: the endpoint 404s with a hint.
	resp, err := http.Get(srv.URL + "/v1/market/prices")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("market-off status = %d, want 404", resp.StatusCode)
	}

	// Reconfigure with the marketplace on.
	resp, body := postJSON(t, srv.URL+"/v1/plane", `{"seed": 3, "nodes": 2, "market": true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plane config status = %d: %s", resp.StatusCode, body)
	}
	resp, err = http.Get(srv.URL + "/v1/market/prices")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("market prices status = %d, want 200", resp.StatusCode)
	}
	var quotes []struct {
		Provider       string  `json:"provider"`
		OnDemandHourly float64 `json:"onDemandHourly"`
		SpotHourly     float64 `json:"spotHourly"`
		SpotFree       int     `json:"spotFree"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&quotes); err != nil {
		t.Fatalf("decode quotes: %v", err)
	}
	if len(quotes) != 3 {
		t.Fatalf("quotes = %d providers, want 3", len(quotes))
	}
	for _, q := range quotes {
		if q.Provider == "" || q.SpotHourly <= 0 || q.OnDemandHourly <= 0 {
			t.Errorf("malformed quote: %+v", q)
		}
	}
}
