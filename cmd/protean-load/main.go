// Command protean-load drives a running proteand instance: it submits a
// serving scenario over HTTP and prints the resulting SLO and latency
// metrics.
//
//	protean-load -server http://localhost:8080 -model "ResNet 50" -rps 9000
//	protean-load -server http://localhost:8080 -model "ResNet 50" -rps 9000 -json
//	protean-load -server http://localhost:8080 -model "ResNet 50" -rps 9000 -chaos 1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"protean/internal/api"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "protean-load:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("protean-load", flag.ContinueOnError)
	var (
		server      = fs.String("server", "http://localhost:8080", "proteand base URL")
		modelName   = fs.String("model", "ResNet 50", "strict model name")
		scheme      = fs.String("scheme", "protean", "serving scheme")
		rps         = fs.Float64("rps", 9000, "mean request rate")
		duration    = fs.Float64("duration", 60, "trace duration in seconds")
		warmup      = fs.Float64("warmup", 15, "metrics warmup in seconds")
		nodes       = fs.Int("nodes", 8, "worker nodes")
		strictFrac  = fs.Float64("strict", 0.5, "strict request fraction")
		shape       = fs.String("shape", "wiki", "trace shape: constant, wiki, twitter")
		procurement = fs.String("procurement", "", "VM layer: '', on-demand, hybrid, spot-only")
		spot        = fs.String("spot", "high", "spot availability: high, moderate, low")
		chaosScale  = fs.Float64("chaos", 0, "fault-injection scale (0 = off, 1 = reference mix)")
		timeout     = fs.Duration("timeout", 5*time.Minute, "request timeout")
		asJSON      = fs.Bool("json", false, "print the server's JSON response instead of the text summary")

		soak     = fs.Duration("soak", 0, "run a live multi-tenant soak against /v1 for this wall-clock duration instead of one-shot /simulate")
		tenants  = fs.Int("tenants", 6, "soak: number of tenants to register")
		minSLO   = fs.Float64("min-slo", 0, "soak: exit non-zero when any SLO class's attainment falls below this floor (0 disables)")
		seed     = fs.Int64("seed", 1, "soak: plane seed")
		usageOut = fs.String("usage-out", "", "soak: write the final per-tenant usage rollup JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *soak > 0 {
		return runSoak(soakConfig{
			server:   strings.TrimRight(*server, "/"),
			duration: *soak,
			tenants:  *tenants,
			nodes:    *nodes,
			chaos:    *chaosScale,
			minSLO:   *minSLO,
			seed:     *seed,
			usageOut: *usageOut,
			timeout:  *timeout,
		}, stdout)
	}

	body := api.SimulateRequest{
		Nodes:           *nodes,
		Scheme:          *scheme,
		StrictModel:     *modelName,
		StrictFraction:  *strictFrac,
		Shape:           *shape,
		MeanRPS:         *rps,
		DurationSeconds: *duration,
		WarmupSeconds:   *warmup,
	}
	if *procurement != "" {
		body.Procurement = *procurement
		body.SpotAvailability = *spot
	}
	if *chaosScale > 0 {
		body.ChaosScale = *chaosScale
	}
	payload, err := json.Marshal(body)
	if err != nil {
		return err
	}

	client := &http.Client{Timeout: *timeout}
	resp, err := client.Post(strings.TrimRight(*server, "/")+"/simulate", "application/json", bytes.NewReader(payload))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("server returned %d: %s", resp.StatusCode, serverError(data))
	}

	if *asJSON {
		// Re-indent rather than echo raw bytes so piped output is stable
		// and readable regardless of the server's encoder settings.
		var buf bytes.Buffer
		if err := json.Indent(&buf, data, "", "  "); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		buf.WriteByte('\n')
		_, err := stdout.Write(buf.Bytes())
		return err
	}

	var out api.SimulateResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return fmt.Errorf("decode response: %w", err)
	}

	w := &printer{w: stdout}
	w.printf("scheme=%s model=%q rate=%.0f rps (%s trace, %d nodes)\n", *scheme, *modelName, *rps, *shape, *nodes)
	w.printf("  SLO compliance:   %.2f%%\n", out.SLOCompliance*100)
	w.printf("  strict P50 / P99: %.1f ms / %.1f ms\n", out.StrictP50Millis, out.StrictP99Millis)
	w.printf("  BE P99:           %.1f ms\n", out.BEP99Millis)
	w.printf("  requests:         %d\n", out.Requests)
	w.printf("  GPU utilization:  %.1f%%\n", out.GPUUtilization*100)
	w.printf("  cold starts:      %d, reconfigurations: %d\n", out.ColdStarts, out.Reconfigurations)
	if out.NormalizedCost > 0 {
		w.printf("  normalized cost:  %.3f of on-demand\n", out.NormalizedCost)
	}
	if *chaosScale > 0 {
		w.printf("  availability:     %.2f%% (requeued %d, retries %d)\n",
			out.Availability*100, out.Requeued, out.Retries)
	}
	for _, m := range out.Models {
		w.printf("  model %-16q %6d requests, P99 %.1f ms\n", m.Model, m.Requests, m.P99*1000)
	}
	return w.err
}

// serverError extracts the message from proteand's {"error": "..."} body,
// falling back to the raw (trimmed) body for non-JSON responses.
func serverError(data []byte) string {
	var body struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(data, &body); err == nil && body.Error != "" {
		return body.Error
	}
	return strings.TrimSpace(string(data))
}

// printer folds write errors so the summary lines stay uncluttered.
type printer struct {
	w   io.Writer
	err error
}

func (p *printer) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}
