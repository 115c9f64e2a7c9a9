package subjects

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"

	"lineup/internal/monitor"
)

// MapModel is the executable sequential specification of the ShardedMap
// vocabulary: Put(k,v) returns "ok", Get(k) the stored value or "Fail",
// Delete(k) whether the key was present, Len() the entry count. Single-key
// operations declare a per-key partition (P-compositionality); Len observes
// the whole map and disables splitting. The state is a List of entries, each
// the List [k, v], kept in byte order: entries of distinct keys differ within
// the key, so equal maps are equal states.
func MapModel() *monitor.Model {
	m := &monitor.Model{Name: "map", Init: func() string { return "" }}
	m.Partition = func(op string) (string, bool) {
		method, args := monitor.SplitOp(op)
		switch method {
		case "Put":
			if i := strings.IndexByte(args, ','); i >= 0 {
				return args[:i], true
			}
			return args, true
		case "Get", "Delete":
			return args, true
		}
		return "", false
	}
	m.Step = func(state, op string) (string, string, error) {
		entries := monitor.List(state)
		method, args := monitor.SplitOp(op)
		key, v, hasValue := args, "", false
		if method == "Put" {
			key, v, hasValue = strings.Cut(args, ",")
		}
		var entry string // the List [key, value]; never "", so Remove("") finds none
		for _, e := range entries.Items() {
			if k, _, _ := monitor.List(e).PopFront(); k == key {
				entry = e
			}
		}
		rest, found := entries.Remove(entry)
		switch method {
		case "Put":
			if !hasValue {
				return "", "", fmt.Errorf("monitor: map model needs Put(k,v), got %q", op)
			}
			return "ok", string(rest.Insert(string(monitor.List("").Append(key).Append(v)), cmp.Less[string])), nil
		case "Get":
			if found {
				return monitor.List(entry).Items()[1], state, nil
			}
			return "Fail", state, nil
		case "Delete":
			return strconv.FormatBool(found), string(rest), nil
		case "Len":
			return strconv.Itoa(entries.Len()), state, nil
		}
		return "", "", fmt.Errorf("%w: map model cannot apply %q", monitor.ErrUnknownOp, op)
	}
	return m
}

// pipeState writes the pipeline model's state: the List [in, out] of its
// input and output buffers, each a List of decimal values.
func pipeState(in, out monitor.List) string {
	return string(monitor.List("").Append(string(in)).Append(string(out)))
}

// PipelineModel is the executable sequential specification of the Pipeline
// vocabulary: Send(v) blocks while the single-slot input is full, TrySend(v)
// reports whether it enqueued, Process() blocks on an empty input and moves
// one transformed value to the output, TryRecv() takes a transformed value
// or fails. The model is monolithic (every operation touches the shared
// stage), so it declares no partition.
func PipelineModel() *monitor.Model {
	const inCap = 1
	m := &monitor.Model{Name: "pipeline", Init: func() string { return pipeState("", "") }}
	m.Step = func(state, op string) (string, string, error) {
		bufs := monitor.List(state).Items()
		in, out := monitor.List(bufs[0]), monitor.List(bufs[1])
		method, args := monitor.SplitOp(op)
		switch method {
		case "Send":
			if in.Len() >= inCap {
				return "", "", monitor.ErrBlock
			}
			v, err := strconv.Atoi(args)
			if err != nil {
				return "", "", fmt.Errorf("monitor: pipeline model needs Send(int), got %q", op)
			}
			return "ok", pipeState(in.Append(strconv.Itoa(v)), out), nil
		case "TrySend":
			if in.Len() >= inCap {
				return "false", state, nil
			}
			v, err := strconv.Atoi(args)
			if err != nil {
				return "", "", fmt.Errorf("monitor: pipeline model needs TrySend(int), got %q", op)
			}
			return "true", pipeState(in.Append(strconv.Itoa(v)), out), nil
		case "Process":
			v, in, ok := in.PopFront()
			if !ok {
				return "", "", monitor.ErrBlock
			}
			n, _ := strconv.Atoi(v) // Send and TrySend wrote it with Itoa
			w := strconv.Itoa(n + pipelineDelta)
			return w, pipeState(in, out.Append(w)), nil
		case "TryRecv":
			w, out, ok := out.PopFront()
			if !ok {
				return "Fail", state, nil
			}
			return w, pipeState(in, out), nil
		}
		return "", "", fmt.Errorf("%w: pipeline model cannot apply %q", monitor.ErrUnknownOp, op)
	}
	return m
}
