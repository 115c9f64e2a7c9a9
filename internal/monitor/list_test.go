package monitor_test

import (
	"cmp"
	"slices"
	"strings"
	"testing"

	"lineup/internal/monitor"
)

// TestListRoundTripsHostileItems: every operation of the list codec keeps
// items byte for byte — empty, separator-valued, multi-byte and longer than a
// one-byte length prefix — and lists of different items are different
// strings, which a separator-joined form is not.
func TestListRoundTripsHostileItems(t *testing.T) {
	items := []string{"", ",", "a", "a,a", "=", "k=v", "é", strings.Repeat("x", 200), strings.Repeat("y", 70000)}
	var l monitor.List
	for _, it := range items {
		l = l.Append(it)
	}
	if got := l.Items(); !slices.Equal(got, items) || l.Len() != len(items) {
		t.Fatalf("Append/Items: %q (len %d), want %q", got, l.Len(), items)
	}
	var p monitor.List
	for i := len(items) - 1; i >= 0; i-- {
		p = p.Prepend(items[i])
	}
	if p != l {
		t.Fatal("Prepend in reverse differs from Append")
	}
	for i, want := range items {
		front, rest, ok := l.PopFront()
		if !ok || front != want {
			t.Fatalf("PopFront %d = %q, %v, want %q", i, front, ok, want)
		}
		l = rest
	}
	if _, _, ok := l.PopFront(); ok || l != "" {
		t.Fatalf("list not empty after popping every item: %q", l)
	}
	a, b := monitor.List("").Append("a").Append("a,a"), monitor.List("").Append("a,a").Append("a")
	if a == b {
		t.Fatal(`[a, a,a] and [a,a, a] are one string`)
	}
}

func TestListInsertAndRemove(t *testing.T) {
	var s monitor.List
	for _, it := range []string{"b", "", "a,a", "a", "b"} {
		s = s.Insert(it, cmp.Less[string])
	}
	if got, want := s.Items(), []string{"", "a", "a,a", "b", "b"}; !slices.Equal(got, want) {
		t.Fatalf("Insert keeps %q, want %q", got, want)
	}
	s, ok := s.Remove("b")
	if got, want := s.Items(), []string{"", "a", "a,a", "b"}; !ok || !slices.Equal(got, want) {
		t.Fatalf("Remove(b) = %q, %v, want %q", got, ok, want)
	}
	if s2, ok := s.Remove("a,"); ok || s2 != s {
		t.Fatal(`Remove("a,") found an item that is not there`)
	}
}

// TestListMalformedPanics: a List not written by the codec panics when read
// (the search reports a model panic as an error) rather than reading garbage
// or looping.
func TestListMalformedPanics(t *testing.T) {
	for _, bad := range []monitor.List{"\x05ab", "\x80", "\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%q: Items did not panic", bad)
				}
			}()
			bad.Items()
		}()
	}
}
