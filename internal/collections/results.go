// Package collections implements the concurrent data types that the paper
// evaluates: Go ports of the 13 .NET Framework 4.0 classes of Table 1 (in
// their corrected, Beta-2-like form) plus the didactic counter objects of
// Section 2.2. Every class is written against the vsync primitives so that
// the Line-Up checker can enumerate its thread interleavings.
package collections

import (
	"sort"
	"strconv"
	"strings"
)

// OK is the canonical result of void operations.
const OK = "ok"

// FailResult is the canonical result of failed try-operations, matching the
// paper's result="Fail" notation.
const FailResult = "Fail"

// Int renders an integer result canonically.
func Int(v int) string { return strconv.Itoa(v) }

// Bool renders a boolean result canonically.
func Bool(v bool) string { return strconv.FormatBool(v) }

// TryInt renders the (value, ok) result of a try-operation.
func TryInt(v int, ok bool) string {
	if !ok {
		return FailResult
	}
	return Int(v)
}

// Ints renders a snapshot result (e.g. ToArray) canonically, preserving
// order: "[a b c]".
func Ints(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = Int(v)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// IntsSorted renders an order-insensitive snapshot (e.g. a bag's ToArray)
// canonically by sorting first: "{a b c}".
func IntsSorted(vs []int) string {
	s := append([]int(nil), vs...)
	sort.Ints(s)
	parts := make([]string, len(s))
	for i, v := range s {
		parts[i] = Int(v)
	}
	return "{" + strings.Join(parts, " ") + "}"
}
