package collections

import (
	"fmt"
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
