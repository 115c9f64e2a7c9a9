package monitor

import (
	"fmt"
	"testing"
)

// TestSeenSetExactUnderCollisions gives every key one hash, so each lookup
// probes past all the others and only the stored masks and states tell them
// apart: masks one bit apart under one state, the List pair [a, a,a] /
// [a,a, a] (alike when items are joined by commas) under one mask, the empty
// state, and masks of one and of three words. Membership must be exact before
// and after the table grows.
func TestSeenSetExactUnderCollisions(t *testing.T) {
	const hash = 0x5eed
	pair := []string{string(List("").Append("a").Append("a,a")), string(List("").Append("a,a").Append("a"))}
	for _, words := range []int{1, 3} {
		t.Run(fmt.Sprintf("words=%d", words), func(t *testing.T) {
			type key struct {
				lin   mask
				state string
			}
			var keys []key
			for bit := -1; bit < 64*words; bit += 5 {
				for _, st := range append([]string{"", "x"}, pair...) {
					lin := make(mask, words) // bit -1: the empty mask, one bit from each of the others
					if bit >= 0 {
						lin.set(bit)
					}
					keys = append(keys, key{lin, st})
				}
			}
			var set seenSet
			set.reset(words)
			for i, k := range keys {
				for j, q := range keys {
					if _, got := set.find(hash, q.lin, q.state); got != (j < i) {
						t.Fatalf("after %d adds: find(%v, %q) = %v", i, q.lin, q.state, got)
					}
				}
				set.add(hash, k.lin, k.state)
			}
			if set.n != len(keys) || len(set.tags) < 2*len(keys) {
				t.Fatalf("%d keys in %d slots, want %d in at least %d", set.n, len(set.tags), len(keys), 2*len(keys))
			}
			set.reset(words)
			for _, k := range keys {
				if _, ok := set.find(hash, k.lin, k.state); ok {
					t.Fatalf("reset left %v %q in the set", k.lin, k.state)
				}
			}
		})
	}
}
