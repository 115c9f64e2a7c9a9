package fast

import (
	"errors"
	"fmt"
	"testing"

	"lineup/internal/history"
	"lineup/internal/monitor"
)

// FuzzFastMonitor drives every specialized monitor with byte-program-derived
// concurrent histories — well formed by construction but otherwise
// arbitrary: duplicate values, failed try-operations, wrong results, and
// pending calls all occur — and checks the package's one load-bearing
// contract on each: a definite verdict must agree bit-for-bit with the
// memoized Wing–Gong search, and a history with pending operations must be
// punted, never guessed.
//
// Wired into `make check` via the Makefile fuzz target (5s of mutation on
// every run); run longer with
// `go test -run='^$' -fuzz=FuzzFastMonitor ./internal/monitor/fast`.
func FuzzFastMonitor(f *testing.F) {
	f.Add(byte(0), []byte{})
	f.Add(byte(0), []byte{0x01, 0x42, 0x13, 0x37, 0x00, 0xff, 0x80, 0x21})
	f.Add(byte(1), []byte{0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c})
	f.Add(byte(2), []byte{0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80})
	f.Add(byte(3), []byte{0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55, 0xaa, 0x55})
	f.Add(byte(4), []byte{0x03, 0x14, 0x15, 0x92, 0x65, 0x35, 0x89, 0x79})
	f.Fuzz(func(t *testing.T, kindByte byte, program []byte) {
		kind := Kind(int(kindByte) % 5)
		model, ok := monitor.Builtin(kind.String())
		if !ok {
			t.Fatalf("no builtin model %q", kind)
		}
		h := fuzzHistory(kind, program)
		complete := len(h.Pending()) == 0

		lin, err := Check(kind, h)
		if err != nil && !errors.Is(err, ErrAmbiguous) {
			t.Fatalf("fast %s returned a non-sentinel error %v on:\n%s", kind, err, h)
		}
		if !complete && err == nil {
			t.Fatalf("fast %s decided a history with pending operations:\n%s", kind, h)
		}
		if complete && err == nil {
			out, merr := monitor.Check(model, h, monitor.Options{})
			if merr != nil {
				t.Fatalf("monitor %s: %v\nhistory:\n%s", kind, merr, h)
			}
			if lin != out.Linearizable {
				t.Fatalf("fast %s=%v but WGL=%v on:\n%s", kind, lin, out.Linearizable, h)
			}
		}
	})
}

// fuzzHistory decodes a byte program into a well-formed concurrent history
// for the kind's vocabulary: each byte picks a thread and either opens a
// call on it (method, argument, and eventual result drawn from the byte) or
// returns the thread's open call. The value domain is tiny (0..3) so
// duplicates — outside every fragment — are common, and a trailing byte
// decides whether open calls are closed (complete history) or left pending.
func fuzzHistory(kind Kind, program []byte) *history.History {
	const threads = 3
	type open struct {
		op  string
		res string
		idx int
	}
	var (
		evs     []history.Event
		pending [threads]*open
		idx     int
	)
	begin := func(th int, op, res string) {
		pending[th] = &open{op: op, res: res, idx: idx}
		evs = append(evs, history.Event{Thread: th, Kind: history.Call, Op: op, Index: idx})
		idx++
	}
	finish := func(th int) {
		o := pending[th]
		evs = append(evs, history.Event{Thread: th, Kind: history.Return, Op: o.op, Result: o.res, Index: o.idx})
		pending[th] = nil
	}
	// opFor picks an operation and its claimed result from one byte of
	// entropy. The result is sometimes deliberately wrong (a fixed value
	// regardless of state) so non-linearizable completions occur.
	opFor := func(b byte) (string, string) {
		v := fmt.Sprint(b >> 2 & 3)
		switch kind {
		case KindQueue:
			switch b & 3 {
			case 0:
				return "Enqueue(" + v + ")", "ok"
			case 1:
				return "TryDequeue()", v
			default:
				return "TryDequeue()", "Fail"
			}
		case KindStack:
			switch b & 3 {
			case 0:
				return "Push(" + v + ")", "ok"
			case 1:
				return "TryPop()", v
			default:
				return "TryPop()", "Fail"
			}
		case KindSet:
			r := "true"
			if b&4 != 0 {
				r = "false"
			}
			switch b & 3 {
			case 0:
				return "Add(" + v + ")", r
			case 1:
				return "Remove(" + v + ")", r
			default:
				return "Contains(" + v + ")", r
			}
		case KindRegister:
			if b&1 == 0 {
				return "Write(" + v + ")", "ok"
			}
			return "Read()", v
		default: // KindPQueue
			// "01" collides with "1" in numeric priority while staying a
			// distinct string, so equal-priority tiebreak paths get fuzzed.
			pv := [4]string{"0", "1", "2", "01"}[b>>2&3]
			switch b & 3 {
			case 0:
				return "Insert(" + pv + ")", "ok"
			case 1:
				return "TryDeleteMin()", pv
			default:
				return "TryDeleteMin()", "Fail"
			}
		}
	}
	if len(program) > 48 {
		program = program[:48]
	}
	var last byte
	for _, b := range program {
		last = b
		th := int(b>>5) % threads
		if pending[th] != nil {
			finish(th)
			continue
		}
		op, res := opFor(b)
		begin(th, op, res)
	}
	if last&1 == 0 { // half the corpus completes, half leaves calls pending
		for th := 0; th < threads; th++ {
			if pending[th] != nil {
				finish(th)
			}
		}
	}
	return &history.History{Events: evs}
}
