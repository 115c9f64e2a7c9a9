package fast

import (
	"errors"
	"testing"

	"lineup/internal/history"
	"lineup/internal/monitor"
)

// TestPQueueEqualPriorityTie pins the equal-priority tiebreak: "01" and "1"
// are distinct strings with equal numeric priority, so the fast monitor must
// order them the way PQueueModel does — newest insert first — not by an
// arbitrary sort order. Every sequential tie history below is decidable
// (the inserts are disjoint in time), so the fast verdict must be definite
// and agree exactly with the witness search; "ambiguous" is a failure.
func TestPQueueEqualPriorityTie(t *testing.T) {
	cases := []struct {
		name string
		h    *history.History
	}{
		{"newest-first deletes", newHB().
			op(0, "Insert(01)", "ok").
			op(0, "Insert(1)", "ok").
			op(0, "DeleteMin()", "1").
			op(0, "DeleteMin()", "01").
			done()},
		{"oldest-first deletes", newHB().
			op(0, "Insert(01)", "ok").
			op(0, "Insert(1)", "ok").
			op(0, "DeleteMin()", "01").
			op(0, "DeleteMin()", "1").
			done()},
		{"three-way tie newest-first", newHB().
			op(0, "Insert(001)", "ok").
			op(0, "Insert(01)", "ok").
			op(0, "Insert(1)", "ok").
			op(0, "DeleteMin()", "1").
			op(0, "DeleteMin()", "01").
			op(0, "DeleteMin()", "001").
			done()},
		{"three-way tie middle-first", newHB().
			op(0, "Insert(001)", "ok").
			op(0, "Insert(01)", "ok").
			op(0, "Insert(1)", "ok").
			op(0, "DeleteMin()", "01").
			op(0, "DeleteMin()", "1").
			op(0, "DeleteMin()", "001").
			done()},
		{"tie below a larger priority", newHB().
			op(0, "Insert(2)", "ok").
			op(0, "Insert(01)", "ok").
			op(0, "Insert(1)", "ok").
			op(0, "DeleteMin()", "1").
			op(0, "DeleteMin()", "01").
			op(0, "DeleteMin()", "2").
			done()},
		{"tie left undeleted", newHB().
			op(0, "Insert(01)", "ok").
			op(0, "Insert(1)", "ok").
			op(0, "DeleteMin()", "1").
			done()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fastVerdict := verdict(t, KindPQueue, tc.h)
			slow := searchVerdict(t, tc.h)
			t.Logf("fast=%s search=%v", fastVerdict, slow)
			if fastVerdict == "ambiguous" {
				t.Fatalf("fast punted a sequential tie history (search=%v)", slow)
			}
			if (fastVerdict == "true") != slow {
				t.Fatalf("disagreement: fast=%s search=%v", fastVerdict, slow)
			}
		})
	}
}

// TestPQueueOverlappingTieIsAmbiguous pins the boundary of the tiebreak:
// when two equal-priority inserts overlap in time their queue order depends
// on the interleaving, so no static tie order is sound and the fast monitor
// must punt deterministically — before emitting any certificate — rather
// than guess.
func TestPQueueOverlappingTieIsAmbiguous(t *testing.T) {
	h := newHB().
		call(0, "Insert(01)").
		call(1, "Insert(1)").
		ret(0, "ok").
		ret(1, "ok").
		op(0, "DeleteMin()", "01").
		op(0, "DeleteMin()", "1").
		done()
	if _, err := Check(KindPQueue, h); !errors.Is(err, ErrAmbiguous) {
		t.Fatalf("overlapping equal-priority inserts: got err=%v, want ErrAmbiguous", err)
	}
	// The punt must still agree with the full search once the fallback runs:
	// the history IS linearizable (Insert(01) then Insert(1) leaves 01 at the
	// head of the tie block).
	if !searchVerdict(t, h) {
		t.Fatalf("fixture broken: overlapping-insert history should be linearizable")
	}
}

// searchVerdict is the witness search's verdict on a priority-queue history.
func searchVerdict(t *testing.T, h *history.History) bool {
	t.Helper()
	out, err := monitor.Check(monitor.PQueueModel(), h, monitor.Options{})
	if err != nil {
		t.Fatalf("monitor.Check: %v", err)
	}
	return out.Linearizable
}
