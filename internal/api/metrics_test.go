package api

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the /metrics golden files")

// scrape renders GET /metrics.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d: %s", rec.Code, rec.Body)
	}
	return rec.Body.String()
}

// get serves one GET and fails the test on a non-2xx status.
func get(t *testing.T, h http.Handler, path string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code/100 != 2 {
		t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body)
	}
}

// post serves one POST; any status is accepted, since the script drives
// rejections and sheds on purpose.
func post(h http.Handler, path, body string) {
	ct := "application/json"
	if strings.Contains(body, "\n") {
		ct = "application/x-ndjson"
	}
	do(h, path, ct, body)
}

// ingestLines renders n NDJSON ingest lines of k requests each, spaced
// dt virtual seconds apart from vt0.
func ingestLines(n, k int, vt0, dt float64) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "{\"n\": %d, \"vt\": %g}\n", k, vt0+float64(i)*dt)
	}
	return b.String()
}

// scriptedPlane drives a market plane with three tenants through
// admissions, a rate-limit rejection, best-effort sheds, dropped work,
// SLO violations and a scale-to-zero, syncing the plane before each
// scrape. It returns the /metrics text at each scrape point.
func scriptedPlane(t *testing.T, h http.Handler) []string {
	t.Helper()
	var scrapes []string
	// GET /v1/tenants syncs the plane (advance and collect) first.
	checkpoint := func() {
		get(t, h, "/v1/tenants")
		scrapes = append(scrapes, scrape(t, h))
	}
	post(h, "/v1/plane", `{"seed": 11, "nodes": 2, "market": true, "chaosScale": 20, "keepWarmSeconds": 3}`)
	post(h, "/v1/tenants", `{"id": "gold", "model": "ResNet 18", "class": "gold", "targetSeconds": 0.03}`)
	post(h, "/v1/tenants", `{"id": "silver", "model": "VGG 19", "class": "silver", "ratePerSec": 20, "burst": 40}`)
	post(h, "/v1/tenants", `{"id": "bronze", "model": "DenseNet 121", "class": "bronze", "keepWarmSeconds": 1}`)
	checkpoint()
	// Gold completes over its tiny target; silver overruns its bucket;
	// bronze is admitted, then shed once the backlog builds. chaosScale
	// 20 fails every cold start, so bronze's admitted batches drop once
	// their retries run out.
	post(h, "/v1/tenants/gold/requests", ingestLines(40, 4, 0.1, 0.05))
	post(h, "/v1/tenants/silver/requests", ingestLines(20, 2, 0.1, 0.1))
	post(h, "/v1/tenants/silver/requests", `{"n": 100, "vt": 2.1}`)
	post(h, "/v1/tenants/bronze/requests", ingestLines(30, 16, 0.2, 0.05))
	checkpoint()
	// Every tenant idles into scale-to-zero by vt 40; gold wakes and
	// suspends again on the way.
	post(h, "/v1/tenants/bronze/requests", ingestLines(5, 4, 6, 0.5))
	post(h, "/v1/tenants/gold/requests", ingestLines(10, 2, 6, 0.5))
	post(h, "/v1/tenants/gold/requests", `{"n": 1, "vt": 40}`)
	checkpoint()
	return scrapes
}

// TestMetricsExpositionScripted pins /metrics for one plane at every
// scrape point of the script, byte for byte. The golden files were
// rendered by the push-side meter the collected families replaced.
func TestMetricsExpositionScripted(t *testing.T) {
	h := NewServer().Handler()
	for i, got := range scriptedPlane(t, h) {
		path := filepath.Join("testdata", fmt.Sprintf("metrics_scrape_%d.txt", i))
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("scrape %d differs from %s:\n%s", i, path, got)
		}
	}
}

// TestMetricsFollowPlaneReplacement: after POST /v1/plane replaces a
// market plane with a market-off one, /metrics shows only the new
// plane's tenants and no market series.
func TestMetricsFollowPlaneReplacement(t *testing.T) {
	h := NewServer().Handler()
	scriptedPlane(t, h)
	post(h, "/v1/plane", `{"seed": 3, "nodes": 1}`)
	post(h, "/v1/tenants", `{"id": "acme", "model": "ResNet 18", "class": "gold"}`)
	post(h, "/v1/tenants/acme/requests", `{"n": 2, "vt": 0.1}`)
	get(t, h, "/v1/tenants")
	text := scrape(t, h)
	for _, stale := range []string{`tenant="gold"`, `tenant="silver"`, `tenant="bronze"`, "market_"} {
		if strings.Contains(text, stale) {
			t.Errorf("/metrics still shows %s after the plane was replaced:\n%s", stale, text)
		}
	}
	for _, want := range []string{
		`proteand_tenant_requests_total{tenant="acme",decision="admit"} 2` + "\n",
		`proteand_tenant_suspended{tenant="acme"} 0` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics lacks %q:\n%s", want, text)
		}
	}
}

// TestMetricsCountConcurrentRequests: goroutines serve requests while
// others scrape, and the final scrape counts every request exactly, by
// handler. Run under -race it also checks the collector's locking.
func TestMetricsCountConcurrentRequests(t *testing.T) {
	h := NewServer().Handler()
	var wg sync.WaitGroup
	serve := func(path string, n int) {
		defer wg.Done()
		for i := 0; i < n; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Errorf("GET %s = %d", path, rec.Code)
			}
		}
	}
	for g := 0; g < 3; g++ {
		wg.Add(3)
		go serve("/healthz", 50)
		go serve("/schemes", 30)
		go serve("/metrics", 10)
	}
	wg.Wait()
	text := scrape(t, h)
	for _, want := range []string{
		`proteand_http_requests_total{handler="healthz",code="200"} 150`,
		`proteand_http_requests_total{handler="metrics",code="200"} 30`,
		`proteand_http_requests_total{handler="schemes",code="200"} 90`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("/metrics lacks %q:\n%s", want, text)
		}
	}
}
