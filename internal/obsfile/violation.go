package obsfile

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"lineup/internal/history"
)

// WriteViolation renders a violating concurrent history in the XML style of
// Fig. 7 (bottom): the per-thread operation listings, the <op> elements,
// and the precise interleaving of the history, with pending operations
// marked "B" and stuck histories ending in "#".
func WriteViolation(w io.Writer, h *history.History) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "Line-Up encountered a non-linearizable history:")

	ops := h.Ops()
	perThread := make(map[int][]history.Op)
	var threads []int
	for _, op := range ops {
		if _, seen := perThread[op.Thread]; !seen {
			threads = append(threads, op.Thread)
		}
		perThread[op.Thread] = append(perThread[op.Thread], op)
	}
	sort.Ints(threads)
	// Number ops by thread order, like the observation file.
	number := make(map[int]int) // op Index -> display number
	n := 0
	for _, t := range threads {
		var toks []string
		for _, op := range perThread[t] {
			n++
			number[op.Index] = n
			tok := fmt.Sprint(n)
			if !op.Complete {
				tok += "B"
			}
			toks = append(toks, tok)
		}
		fmt.Fprintf(bw, "  <thread id=%q>%s</thread>\n", history.ThreadName(t), strings.Join(toks, " "))
	}
	for _, t := range threads {
		for _, op := range perThread[t] {
			writeOp(bw, "  ", number[op.Index], op.Name, op.Result, op.Complete)
		}
	}
	fmt.Fprintf(bw, "  <history>%s</history>\n", h.Interleaving(number))
	return bw.Flush()
}
