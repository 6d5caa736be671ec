package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"time"
)

// stackSample is one stack of `go tool pprof -traces` output with the
// CPU time charged to it. Frames run from the leaf to the root.
type stackSample struct {
	value  time.Duration
	frames []string
}

// parseTraces reads `go tool pprof -traces` output: a header, then
// blocks separated by "-----------+---..." lines, each starting with
// the block's value on the same line as its leaf frame.
func parseTraces(r io.Reader) ([]stackSample, error) {
	var out []stackSample
	var cur *stackSample
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			cur = nil
			continue
		}
		frame := strings.TrimSpace(line)
		if frame == "" {
			continue
		}
		if cur == nil {
			// The header ("File: ...", "Type: cpu", ...) precedes the first
			// separator; a block's first line is "<value> <frame>".
			if len(out) == 0 && !strings.HasPrefix(line, " ") {
				continue
			}
			value, rest, _ := strings.Cut(frame, " ")
			v, err := time.ParseDuration(value)
			frame = strings.TrimSpace(rest)
			if err != nil || frame == "" {
				return nil, fmt.Errorf("pprof traces: bad block start %q", line)
			}
			out = append(out, stackSample{value: v})
			cur = &out[len(out)-1]
		}
		cur.frames = append(cur.frames, strings.TrimSuffix(frame, " (inline)"))
	}
	return out, sc.Err()
}

// layerOf charges a stack to the layer owning its CPU time: walking from
// the leaf, the first frame in a cpuLayers package. Frames in other
// internal packages (model, pool, obs, ...) are library code and keep
// walking. A stack without a layer frame is the garbage collector's
// when any frame is GC work, net/http's (client and server plumbing)
// when any frame is in net/http or net, and "other" otherwise.
func layerOf(frames []string) string {
	for _, f := range frames {
		rest, ok := strings.CutPrefix(f, "protean/internal/")
		if !ok {
			continue
		}
		pkg, _, _ := strings.Cut(rest, ".")
		pkg, _, _ = strings.Cut(pkg, "/")
		for _, l := range cpuLayers {
			if pkg == l {
				return l
			}
		}
	}
	for _, f := range frames {
		if isGCFrame(f) {
			return "runtime_gc"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "net/http.") || strings.HasPrefix(f, "net.") {
			return "nethttp"
		}
	}
	return "other"
}

func isGCFrame(f string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
		if strings.HasPrefix(f, p) {
			return true
		}
	}
	return false
}

// cpuShares turns parsed stacks into cpu.<layer> percentages over every
// layer bucket, so the shares sum to 100.
func cpuShares(stacks []stackSample) map[string]float64 {
	var total time.Duration
	by := map[string]time.Duration{}
	for _, s := range stacks {
		by[layerOf(s.frames)] += s.value
		total += s.value
	}
	out := map[string]float64{}
	for _, d := range perLayer {
		if l, ok := strings.CutPrefix(d.Name, "cpu."); ok {
			out[d.Name] = 0
			if total > 0 {
				out[d.Name] = 100 * float64(by[l]) / float64(total)
			}
		}
	}
	return out
}

// profileShares runs `go tool pprof -traces` on a CPU profile and
// returns its per-layer shares.
func profileShares(path string) (map[string]float64, error) {
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	stacks, err := parseTraces(bytes.NewReader(out))
	if err != nil {
		return nil, err
	}
	if len(stacks) == 0 {
		return nil, fmt.Errorf("go tool pprof: no samples in %s", path)
	}
	return cpuShares(stacks), nil
}
