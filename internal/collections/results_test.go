package collections

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
)

// TestIntBoolRendering pins Int and Bool to what fmt's %d and %t print: result
// strings are part of every history key, so the cheaper rendering must not
// change a single byte.
func TestIntBoolRendering(t *testing.T) {
	for v := -3; v <= 130; v++ {
		if got, want := Int(v), fmt.Sprintf("%d", v); got != want {
			t.Errorf("Int(%d) = %q, want %q", v, got, want)
		}
	}
	for _, v := range []bool{false, true} {
		if got, want := Bool(v), fmt.Sprintf("%t", v); got != want {
			t.Errorf("Bool(%t) = %q, want %q", v, got, want)
		}
	}
	if got := TryInt(7, true) + " " + TryInt(7, false) + " " + Ints([]int{-1, 0, 12}); got != "7 Fail [-1 0 12]" {
		t.Errorf("composite renderings = %q", got)
	}
}

// TestIntsRendering pins Ints and IntsSorted to the join of Int's renderings
// they replaced, byte for byte: empty, single, negative, extreme and long
// snapshots, past the stack buffers, with IntsSorted leaving its argument
// unsorted.
func TestIntsRendering(t *testing.T) {
	joined := func(open string, vs []int, close string) string {
		parts := make([]string, len(vs))
		for i, v := range vs {
			parts[i] = fmt.Sprintf("%d", v)
		}
		return open + strings.Join(parts, " ") + close
	}
	long := make([]int, 40)
	for i := range long {
		long[i] = (i*7919)%1000 - 500
	}
	for _, vs := range [][]int{nil, {}, {0}, {-1, 0, 12}, {30, 10, 20, 10}, {math.MinInt, math.MaxInt, -7}, long} {
		if got, want := Ints(vs), joined("[", vs, "]"); got != want {
			t.Errorf("Ints(%v) = %q, want %q", vs, got, want)
		}
		arg := append([]int(nil), vs...)
		sorted := append([]int(nil), vs...)
		sort.Ints(sorted)
		if got, want := IntsSorted(arg), joined("{", sorted, "}"); got != want {
			t.Errorf("IntsSorted(%v) = %q, want %q", vs, got, want)
		}
		if fmt.Sprint(arg) != fmt.Sprint(vs) {
			t.Errorf("IntsSorted sorted its argument: %v, was %v", arg, vs)
		}
	}
}
