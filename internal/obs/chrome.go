package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WriteChrome renders traces in the Chrome trace-event JSON format
// (loadable in Perfetto via ui.perfetto.dev or chrome://tracing). Each
// trace becomes one process (pid = registration index, named by its
// label); within a process, tid 0 is the gateway and tid n+1 is worker
// node n. Batches render as async begin/end pairs on their executing
// node's track, MIG reconfigurations as complete ("X") slices spanning
// the drain+downtime window, slice slowdown recomputations as counter
// tracks, and VM lease churn / autoscale decisions / drops as instant
// events.
//
// The output is assembled with fixed field order and fixed-precision
// timestamps from virtual-time values only, so for a given seed the
// bytes written are identical run to run — the export inherits the
// simulator's determinism. Events stream to w through a buffer flushed
// at the end.
func WriteChrome(w io.Writer, traces []Trace) error {
	// bw keeps its first write error, and Flush returns it.
	bw := bufio.NewWriter(w)
	_, _ = bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	sep := "\n"
	emit := func(format string, args ...any) {
		_, _ = bw.WriteString(sep)
		sep = ",\n"
		fmt.Fprintf(bw, format, args...)
	}
	for pid, tr := range traces {
		writeChromeTrace(emit, pid, tr)
	}
	_, _ = bw.WriteString("\n]}\n")
	return bw.Flush()
}

// us renders a virtual-time value (seconds) as fixed-precision
// microseconds, the trace-event timestamp unit.
func us(t float64) string { return strconv.FormatFloat(t*1e6, 'f', 3, 64) }

// msArg renders a duration (seconds) as fixed-precision milliseconds.
func msArg(d float64) string { return strconv.FormatFloat(d*1e3, 'f', 3, 64) }

// jstr quotes a string for direct inclusion in JSON output.
func jstr(s string) string { return strconv.Quote(s) }

func writeChromeTrace(emit func(string, ...any), pid int, tr Trace) {
	emit(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%s}}`, pid, jstr(tr.Label))

	maxNode := -1
	for _, ev := range tr.Events {
		if ev.Node > maxNode {
			maxNode = ev.Node
		}
	}
	emit(`{"ph":"M","pid":%d,"tid":0,"name":"thread_name","args":{"name":"gateway"}}`, pid)
	for node := 0; node <= maxNode; node++ {
		emit(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":"node %d"}}`, pid, node+1, node)
	}

	for _, sp := range Assemble(tr.Events) {
		if !sp.Completed() || sp.Node < 0 {
			continue
		}
		cat := "be"
		if sp.Strict {
			cat = "strict"
		}
		tid := sp.Node + 1
		emit(`{"ph":"b","cat":%s,"id":%d,"pid":%d,"tid":%d,"ts":%s,"name":%s,"args":{"batch":%d,"requests":%d,"slice":%d,"cold_ms":%s,"gateway_queue_ms":%s,"slice_queue_ms":%s,"exec_ms":%s,"deficiency_ms":%s,"interference_ms":%s}}`,
			jstr(cat), sp.Batch, pid, tid, us(sp.Sealed), jstr(sp.Model),
			sp.Batch, sp.Requests, sp.Slice,
			msArg(sp.ColdStart), msArg(sp.GatewayQueue()), msArg(sp.Phases.Queue),
			msArg(sp.ExecTime()), msArg(sp.Phases.Deficiency), msArg(sp.Phases.Interference))
		emit(`{"ph":"e","cat":%s,"id":%d,"pid":%d,"tid":%d,"ts":%s,"name":%s}`,
			jstr(cat), sp.Batch, pid, tid, us(sp.Ended), jstr(sp.Model))
	}

	reconfigBegin := make(map[int]float64)
	for _, ev := range tr.Events {
		switch ev.Kind {
		case KindReconfigBegin:
			reconfigBegin[ev.Node] = ev.T
		case KindReconfigEnd:
			begin, ok := reconfigBegin[ev.Node]
			if !ok {
				begin = ev.T
			}
			delete(reconfigBegin, ev.Node)
			emit(`{"ph":"X","cat":"reconfig","pid":%d,"tid":%d,"ts":%s,"dur":%s,"name":%s}`,
				pid, ev.Node+1, us(begin), us(ev.T-begin), jstr("reconfig → "+ev.Detail))
		case KindSlowdown:
			emit(`{"ph":"C","pid":%d,"ts":%s,"name":%s,"args":{"x":%s}}`,
				pid, us(ev.T), jstr(fmt.Sprintf("slowdown node%d slice%d", ev.Node, ev.Slice)),
				strconv.FormatFloat(ev.Value, 'f', 4, 64))
		case KindVMLease:
			emit(`{"ph":"i","cat":"vm","pid":%d,"tid":%d,"ts":%s,"s":"t","name":%s}`,
				pid, ev.Node+1, us(ev.T), jstr("vm-lease "+ev.Detail))
		case KindVMNotice:
			emit(`{"ph":"i","cat":"vm","pid":%d,"tid":%d,"ts":%s,"s":"t","name":%s,"args":{"deadline_s":%s}}`,
				pid, ev.Node+1, us(ev.T), jstr("vm-notice"), strconv.FormatFloat(ev.Value, 'f', 3, 64))
		case KindVMDown:
			emit(`{"ph":"i","cat":"vm","pid":%d,"tid":%d,"ts":%s,"s":"t","name":%s}`,
				pid, ev.Node+1, us(ev.T), jstr("vm-down"))
		case KindAutoscale:
			emit(`{"ph":"i","cat":"autoscale","pid":%d,"tid":%d,"ts":%s,"s":"t","name":%s,"args":{"containers":%s}}`,
				pid, ev.Node+1, us(ev.T), jstr("autoscale "+ev.Detail), strconv.FormatFloat(ev.Value, 'f', 0, 64))
		case KindDrop:
			emit(`{"ph":"i","cat":"drop","pid":%d,"tid":%d,"ts":%s,"s":"t","name":"drop","args":{"requests":%d}}`,
				pid, ev.Node+1, us(ev.T), ev.Requests)
		}
	}
}
