package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// record is one run's full results: a line of the -out file.
type record struct {
	Header    *header                 `json:"header,omitempty"`
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Seconds   float64                 `json:"seconds"`
	Trace     int                     `json:"trace"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Failures  []string                `json:"failures,omitempty"`
	Metrics   map[string]recordMetric `json:"metrics"`
	Info      map[string]float64      `json:"info,omitempty"`
}

// recordMetric is one metric's reported value plus, for per-pass
// timings, the samples it is the median of.
type recordMetric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
	Q1      float64   `json:"q1,omitempty"`
	Q3      float64   `json:"q3,omitempty"`
	// TailPercentile is the highest percentile with at least ten
	// samples beyond it, and Tail the value there.
	TailPercentile float64 `json:"tailPercentile,omitempty"`
	Tail           float64 `json:"tail,omitempty"`
}

// summaryMetric and summaryLine are the shape of the final stdout line.
type summaryMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summaryLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]summaryMetric `json:"metrics"`
}

func (rec record) summaryLine() summaryLine {
	out := summaryLine{Correct: rec.Correct, Attempted: rec.Attempted, Failed: rec.Failed, Metrics: map[string]summaryMetric{}}
	for n, m := range rec.Metrics {
		out.Metrics[n] = summaryMetric{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// header identifies the host and build a results line was measured on.
type header struct {
	GitSHA     string `json:"gitSHA"`
	GoVersion  string `json:"goVersion"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numCPU"`
	CPUModel   string `json:"cpuModel"`
	Time       string `json:"time"`
}

// hostHeader is read only when a results file is written, so a plain
// run touches nothing outside its checkout.
func hostHeader() *header {
	h := &header{
		GitSHA:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_DIR=.git")
	if out, err := cmd.Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}

// appendRecord appends rec, with the host header, as one JSON line.
func appendRecord(path string, rec record) error {
	rec.Header = hostHeader()
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		_ = f.Close() // the write error is the one to report
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var recs []record
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: line %d: %w", path, len(recs)+1, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// metricValues gathers one workload's values of an end-to-end metric
// across the untraced runs of a results file: one value per run, or the
// per-pass samples when the file holds fewer than three runs.
func metricValues(recs []record, workload, name string) []float64 {
	var perRun, samples []float64
	for _, rec := range recs {
		m, ok := rec.Metrics[name]
		if rec.Workload != workload || rec.Trace != 0 || !ok {
			continue
		}
		perRun = append(perRun, m.Value)
		samples = append(samples, m.Samples...)
	}
	if len(perRun) >= 3 || len(samples) == 0 {
		return perRun
	}
	return samples
}

// compareFiles prints one row per workload and end-to-end metric:
// base and head medians with quartiles, and the verdict under the
// metric's bound.
func compareFiles(basePath, headPath string, w io.Writer) error {
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return err
	}
	seen := map[string]bool{}
	var names []string
	for _, rec := range append(append([]record{}, base...), head...) {
		if !seen[rec.Workload] {
			seen[rec.Workload] = true
			names = append(names, rec.Workload)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-16s %-14s %-10s %-34s %-34s %s\n", "workload", "metric", "verdict", "base median [q1, q3] (n)", "head median [q1, q3] (n)", "bound")
	for _, wl := range names {
		for _, d := range endToEnd {
			b := metricValues(base, wl, d.Name)
			h := metricValues(head, wl, d.Name)
			fmt.Fprintf(w, "%-16s %-14s %-10s %-34s %-34s %.0f%%\n", wl, d.Name, judge(d, b, h), describe(b), describe(h), d.Bound*100)
		}
	}
	return nil
}

func describe(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q2, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(xs))
}
