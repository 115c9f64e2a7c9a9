package obsfile_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"lineup/internal/history"
	"lineup/internal/obsfile"
)

func so(thread int, name, result string) history.SerialOp {
	return history.SerialOp{Thread: thread, Name: name, Result: result}
}

func sampleSpec() *history.Spec {
	sp := history.NewSpec()
	sp.Add(&history.SerialHistory{Ops: []history.SerialOp{
		so(0, "Add(200)", "ok"), so(0, "Add(400)", "ok"), so(1, "Take()", "200"), so(1, "TryTake()", "400"),
	}})
	sp.Add(&history.SerialHistory{Ops: []history.SerialOp{
		so(0, "Add(200)", "ok"), so(1, "Take()", "200"), so(0, "Add(400)", "ok"), so(1, "TryTake()", "400"),
	}})
	sp.Add(&history.SerialHistory{Ops: []history.SerialOp{
		so(0, "Add(200)", "ok"), so(1, "Take()", "200"), so(1, "TryTake()", "Fail"), so(0, "Add(400)", "ok"),
	}})
	sp.Add(&history.SerialHistory{
		Pending: &history.SerialPending{Thread: 1, Name: "Take()"},
	})
	return sp
}

func TestWriteMatchesFig7Shape(t *testing.T) {
	var buf bytes.Buffer
	if err := obsfile.Write(&buf, sampleSpec()); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"<observationset>",
		`<thread id="A">1 2</thread>`,
		`<thread id="B">3 4</thread>`,
		`<op id="1" name="Add">value="200" result="ok"</op>`,
		`<history>1[ ]1 2[ ]2 3[ ]3 4[ ]4</history>`,
		`<thread id="B">1B</thread>`,
		`<history>1[ #</history>`,
		"</observationset>",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRoundtrip(t *testing.T) {
	sp := sampleSpec()
	sp2 := roundtrip(t, sp)
	if sp2.NumFull() != sp.NumFull() || sp2.NumStuck() != sp.NumStuck() {
		t.Fatalf("roundtrip lost histories: full %d->%d stuck %d->%d",
			sp.NumFull(), sp2.NumFull(), sp.NumStuck(), sp2.NumStuck())
	}
	// The rebuilt spec holds the same groups, in the same order, with the same
	// candidates in the same order.
	if !reflect.DeepEqual(sp2.Groups(), sp.Groups()) {
		t.Fatalf("roundtrip changed the groups:\n%v\n%v", sp.Groups(), sp2.Groups())
	}
}

// roundtrip writes sp as an observation file and reads it back.
func roundtrip(t *testing.T, sp *history.Spec) *history.Spec {
	t.Helper()
	var buf bytes.Buffer
	if err := obsfile.Write(&buf, sp); err != nil {
		t.Fatalf("write: %v", err)
	}
	f, err := obsfile.Parse(&buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.ToSpec()
}

// TestRoundtripKeepsGroupsApart: a result may spell what looks like a further
// step of its thread. Two groups whose thread subhistories only a joined
// "name=result;" rendering confuses must both reach the file, or a verify
// against it misses a serial history and reports a false violation.
func TestRoundtripKeepsGroupsApart(t *testing.T) {
	sp := history.NewSpec()
	sp.Add(&history.SerialHistory{Ops: []history.SerialOp{so(0, "a()", "1;b()=2")}})
	sp.Add(&history.SerialHistory{Ops: []history.SerialOp{so(0, "a()", "1"), so(0, "b()", "2")}})
	if got := roundtrip(t, sp).Export(); !reflect.DeepEqual(got, sp.Export()) {
		t.Fatalf("roundtrip kept %v of %v", got, sp.Export())
	}
}

// TestRoundtripQuotesAndBackslashes: values and results are written quoted, so
// a '"' or a '\' in them must be read back as it was written.
func TestRoundtripQuotesAndBackslashes(t *testing.T) {
	sp := history.NewSpec()
	sp.Add(&history.SerialHistory{Ops: []history.SerialOp{
		so(0, `Put(a"b)`, `x"y`), so(1, `Put(\)`, `\"`),
	}})
	if got := roundtrip(t, sp).Export(); !reflect.DeepEqual(got, sp.Export()) {
		t.Fatalf("roundtrip read %v, wrote %v", got, sp.Export())
	}
}

// TestRoundtripRandom is a property test: write-then-parse preserves the
// history sets of random specs.
func TestRoundtripRandom(t *testing.T) {
	methods := []string{"Add(10)", "Add(20)", "TryTake()", "Count()"}
	results := []string{"ok", "10", "20", "Fail", "0", "1"}
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sp := history.NewSpec()
		nh := 1 + rng.Intn(5)
		for i := 0; i < nh; i++ {
			var h history.SerialHistory
			nop := rng.Intn(5)
			for j := 0; j < nop; j++ {
				h.Ops = append(h.Ops, so(rng.Intn(3), methods[rng.Intn(len(methods))], results[rng.Intn(len(results))]))
			}
			if rng.Intn(3) == 0 {
				h.Pending = &history.SerialPending{Thread: rng.Intn(3), Name: methods[rng.Intn(len(methods))]}
			}
			if nop == 0 && h.Pending == nil {
				continue
			}
			sp.Add(&h)
		}
		var buf bytes.Buffer
		if err := obsfile.Write(&buf, sp); err != nil {
			t.Fatalf("write: %v", err)
		}
		f, err := obsfile.Parse(&buf)
		if err != nil {
			t.Fatalf("parse: %v\n%s", err, buf.String())
		}
		sp2 := f.ToSpec()
		return sp2.NumFull() == sp.NumFull() && sp2.NumStuck() == sp.NumStuck()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestViolationRendering(t *testing.T) {
	h := &history.History{Stuck: true, Events: []history.Event{
		{Thread: 0, Kind: history.Call, Op: "Wait()", Index: 0},
		{Thread: 1, Kind: history.Call, Op: "Set()", Index: 1},
		{Thread: 1, Kind: history.Return, Op: "Set()", Result: "ok", Index: 1},
	}}
	var buf bytes.Buffer
	if err := obsfile.WriteViolation(&buf, h); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"non-linearizable history",
		`<thread id="A">1B</thread>`,
		`<thread id="B">2</thread>`,
		`<op id="2" name="Set">result="ok"</op>`,
		`<history>1[ 2[ ]2 #</history>`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
