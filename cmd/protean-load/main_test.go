package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"protean/internal/api"
)

func TestRunAgainstTestServer(t *testing.T) {
	srv := httptest.NewServer(api.NewServer().Handler())
	defer srv.Close()
	var out bytes.Buffer
	err := run([]string{
		"-server", srv.URL,
		"-model", "ResNet 50",
		"-rps", "600",
		"-duration", "10",
		"-warmup", "3",
		"-nodes", "2",
		"-shape", "constant",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"SLO compliance", "ResNet 50", "requests"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunWithCostLayer(t *testing.T) {
	srv := httptest.NewServer(api.NewServer().Handler())
	defer srv.Close()
	var out bytes.Buffer
	err := run([]string{
		"-server", srv.URL,
		"-model", "ShuffleNet V2",
		"-rps", "400",
		"-duration", "10",
		"-warmup", "3",
		"-nodes", "2",
		"-shape", "constant",
		"-procurement", "hybrid",
		"-spot", "high",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "normalized cost") {
		t.Errorf("cost layer summary missing:\n%s", out.String())
	}
}

func TestRunJSONOutput(t *testing.T) {
	srv := httptest.NewServer(api.NewServer().Handler())
	defer srv.Close()
	var out bytes.Buffer
	err := run([]string{
		"-server", srv.URL,
		"-model", "ResNet 50",
		"-rps", "400",
		"-duration", "10",
		"-warmup", "3",
		"-nodes", "2",
		"-shape", "constant",
		"-json",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	var resp map[string]any
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out.String())
	}
	if _, ok := resp["sloCompliance"]; !ok {
		t.Errorf("-json output missing sloCompliance: %v", resp)
	}
	if _, ok := resp["models"]; !ok {
		t.Errorf("-json output missing per-model snapshot: %v", resp)
	}
}

func TestRunServerError(t *testing.T) {
	srv := httptest.NewServer(api.NewServer().Handler())
	defer srv.Close()
	var out bytes.Buffer
	err := run([]string{"-server", srv.URL, "-model", "NoSuchNet", "-rps", "10", "-duration", "5"}, &out)
	if err == nil {
		t.Fatal("server error not propagated")
	}
	// The error must carry the server's decoded message, not raw JSON.
	if !strings.Contains(err.Error(), "NoSuchNet") {
		t.Errorf("error does not name the bad model: %v", err)
	}
	if strings.Contains(err.Error(), `{"error"`) {
		t.Errorf("error leaks raw JSON body: %v", err)
	}
}

func TestRunUnreachableServer(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-server", "http://127.0.0.1:1", "-duration", "1", "-timeout", "2s"}, &out); err == nil {
		t.Fatal("unreachable server accepted")
	}
}
