// Package obsfile implements the XML observation-file format of the
// paper's Fig. 7. The file lists the serial histories synthesized in phase
// 1, grouped into <observation> sections whose histories agree on the
// per-thread operation sequences and differ only in their interleaving.
// Operations are numbered within each section; a history is rendered as a
// token string like "1[ ]1 3[ ]3 4[ ]4 2[ ]2", where "i[" and "]i" are the
// call and return of operation i, blocking operations carry a "B" marker in
// the thread listing, and stuck histories end with "#".
package obsfile

import (
	"bufio"
	"encoding/xml"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"lineup/internal/history"
)

// opDesc is one operation of an observation section.
type opDesc struct {
	Number int
	Thread int
	Name   string // method with args, e.g. "Add(200)"
	Result string // empty for blocking (pending) operations
	Blocks bool
}

// Observation is one section: the per-thread operation sequences and the
// serial interleavings observed for them.
type Observation struct {
	Ops       []opDesc
	Histories []*history.SerialHistory
}

// File is a parsed observation file.
type File struct {
	Observations []*Observation
}

// buildObservation converts one spec group (histories with identical
// per-thread sequences) into an Observation.
func buildObservation(hs []*history.SerialHistory) *Observation {
	// Recover per-thread sequences from the first history.
	sample := hs[0]
	perThread := make(map[int][]opDesc)
	for _, op := range sample.Ops {
		perThread[op.Thread] = append(perThread[op.Thread], opDesc{
			Thread: op.Thread, Name: op.Name, Result: op.Result,
		})
	}
	if sample.Pending != nil {
		perThread[sample.Pending.Thread] = append(perThread[sample.Pending.Thread], opDesc{
			Thread: sample.Pending.Thread, Name: sample.Pending.Name, Blocks: true,
		})
	}
	threads := make([]int, 0, len(perThread))
	for t := range perThread {
		threads = append(threads, t)
	}
	sort.Ints(threads)
	obs := &Observation{Histories: hs}
	num := 0
	for _, t := range threads {
		for i := range perThread[t] {
			num++
			d := perThread[t][i]
			d.Number = num
			obs.Ops = append(obs.Ops, d)
		}
	}
	return obs
}

// number maps (thread, per-thread position) to the section's op number.
func (o *Observation) number() map[[2]int]int {
	pos := make(map[int]int)
	out := make(map[[2]int]int)
	for _, d := range o.Ops {
		out[[2]int{d.Thread, pos[d.Thread]}] = d.Number
		pos[d.Thread]++
	}
	return out
}

// renderHistory renders a serial history in the token notation.
func (o *Observation) renderHistory(s *history.SerialHistory) string {
	num := o.number()
	perThread := make(map[int]int)
	var parts []string
	for _, op := range s.Ops {
		n := num[[2]int{op.Thread, perThread[op.Thread]}]
		perThread[op.Thread]++
		parts = append(parts, fmt.Sprintf("%d[", n), fmt.Sprintf("]%d", n))
	}
	if s.Pending != nil {
		n := num[[2]int{s.Pending.Thread, perThread[s.Pending.Thread]}]
		parts = append(parts, fmt.Sprintf("%d[", n), "#")
	}
	return strings.Join(parts, " ")
}

// Write renders the specification's groups in the Fig. 7 format.
func Write(w io.Writer, spec *history.Spec) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "<observationset>")
	for _, hs := range spec.Groups() {
		writeObservation(bw, buildObservation(hs))
	}
	fmt.Fprintln(bw, "</observationset>")
	return bw.Flush()
}

func writeObservation(bw *bufio.Writer, obs *Observation) {
	fmt.Fprintln(bw, "  <observation>")
	// <thread> elements list op numbers per thread; blocking ops carry "B".
	perThread := make(map[int][]string)
	var threads []int
	for _, d := range obs.Ops {
		if _, seen := perThread[d.Thread]; !seen {
			threads = append(threads, d.Thread)
		}
		tok := strconv.Itoa(d.Number)
		if d.Blocks {
			tok += "B"
		}
		perThread[d.Thread] = append(perThread[d.Thread], tok)
	}
	sort.Ints(threads)
	for _, t := range threads {
		fmt.Fprintf(bw, "    <thread id=%q>%s</thread>\n", history.ThreadName(t), strings.Join(perThread[t], " "))
	}
	for _, d := range obs.Ops {
		writeOp(bw, "    ", d.Number, d.Name, d.Result, !d.Blocks)
	}
	for _, h := range obs.Histories {
		fmt.Fprintf(bw, "    <history>%s</history>\n", obs.renderHistory(h))
	}
	fmt.Fprintln(bw, "  </observation>")
}

// writeOp renders one <op> element: the method as its name (an XML attribute)
// and in the body the argument list as value= and, for an operation that
// returned, the result as result=, each a Go quoted string (parseOpBody reads
// them back with strconv.Unquote).
func writeOp(bw *bufio.Writer, indent string, number int, name, result string, returned bool) {
	method, args := splitName(name)
	var body []string
	if args != "" {
		body = append(body, "value="+strconv.Quote(args))
	}
	if returned {
		body = append(body, "result="+strconv.Quote(result))
	}
	var attr strings.Builder
	_ = xml.EscapeText(&attr, []byte(method))
	if len(body) == 0 {
		fmt.Fprintf(bw, "%s<op id=\"%d\" name=\"%s\" />\n", indent, number, attr.String())
		return
	}
	fmt.Fprintf(bw, "%s<op id=\"%d\" name=\"%s\">%s</op>\n", indent, number, attr.String(), xmlEscape(strings.Join(body, " ")))
}

// splitName separates "Add(200)" into method "Add" and args "200".
func splitName(name string) (method, args string) {
	i := strings.IndexByte(name, '(')
	if i < 0 || !strings.HasSuffix(name, ")") {
		return name, ""
	}
	return name[:i], name[i+1 : len(name)-1]
}

func xmlEscape(s string) string {
	var b strings.Builder
	_ = xml.EscapeText(&b, []byte(s))
	// EscapeText escapes quotes too aggressively for our attribute-in-text
	// style; the format is line-oriented, so undo the quote escaping for
	// readability (parse reverses it).
	return strings.ReplaceAll(b.String(), "&#34;", "\"")
}

// --- parsing ---

type xmlOp struct {
	ID   int    `xml:"id,attr"`
	Name string `xml:"name,attr"`
	Body string `xml:",chardata"`
}

type xmlThread struct {
	ID   string `xml:"id,attr"`
	Body string `xml:",chardata"`
}

type xmlObservation struct {
	Threads   []xmlThread `xml:"thread"`
	Ops       []xmlOp     `xml:"op"`
	Histories []string    `xml:"history"`
}

type xmlFile struct {
	XMLName      xml.Name         `xml:"observationset"`
	Observations []xmlObservation `xml:"observation"`
}

// Parse reads an observation file back into its structured form.
func Parse(r io.Reader) (*File, error) {
	var xf xmlFile
	dec := xml.NewDecoder(r)
	if err := dec.Decode(&xf); err != nil {
		return nil, fmt.Errorf("obsfile: %w", err)
	}
	f := &File{}
	for _, xo := range xf.Observations {
		obs := &Observation{}
		blocks := make(map[int]bool)
		threadOf := make(map[int]int)
		order := make(map[int]int) // op number -> position within its thread listing
		seenThreads := make(map[int]bool)
		for _, xt := range xo.Threads {
			ti, ok := history.ThreadIndex(xt.ID)
			if !ok {
				return nil, fmt.Errorf("obsfile: bad thread id %q", xt.ID)
			}
			if seenThreads[ti] {
				return nil, fmt.Errorf("obsfile: duplicate thread id %q", xt.ID)
			}
			seenThreads[ti] = true
			for pos, tok := range strings.Fields(xt.Body) {
				b := strings.HasSuffix(tok, "B")
				tok = strings.TrimSuffix(tok, "B")
				n, err := strconv.Atoi(tok)
				if err != nil {
					return nil, fmt.Errorf("obsfile: bad op number %q", tok)
				}
				if _, dup := threadOf[n]; dup {
					return nil, fmt.Errorf("obsfile: op %d listed by more than one thread", n)
				}
				blocks[n] = b
				threadOf[n] = ti
				order[n] = pos
			}
		}
		for _, xop := range xo.Ops {
			if _, known := threadOf[xop.ID]; !known {
				return nil, fmt.Errorf("obsfile: op %d (%s) is not listed by any thread", xop.ID, xop.Name)
			}
			value, result, returned, err := parseOpBody(xop.Body)
			if err != nil {
				return nil, fmt.Errorf("obsfile: op %d (%s): %w", xop.ID, xop.Name, err)
			}
			name := xop.Name
			if value != "" {
				name = fmt.Sprintf("%s(%s)", xop.Name, value)
			} else {
				name = xop.Name + "()"
			}
			// A blocking op has no result string; a completing op must carry
			// one (void operations record "ok").
			if blocks[xop.ID] && returned {
				return nil, fmt.Errorf("obsfile: blocking op %d (%s) carries result %q", xop.ID, name, result)
			}
			if !blocks[xop.ID] && !returned {
				return nil, fmt.Errorf("obsfile: op %d (%s) has no result string", xop.ID, name)
			}
			obs.Ops = append(obs.Ops, opDesc{
				Number: xop.ID,
				Thread: threadOf[xop.ID],
				Name:   name,
				Result: result,
				Blocks: blocks[xop.ID],
			})
		}
		sort.Slice(obs.Ops, func(i, j int) bool { return obs.Ops[i].Number < obs.Ops[j].Number })
		byNumber := make(map[int]opDesc)
		for _, d := range obs.Ops {
			if _, dup := byNumber[d.Number]; dup {
				return nil, fmt.Errorf("obsfile: op %d defined twice", d.Number)
			}
			byNumber[d.Number] = d
		}
		for _, hs := range xo.Histories {
			sh, err := parseHistoryTokens(hs, byNumber, order)
			if err != nil {
				return nil, err
			}
			obs.Histories = append(obs.Histories, sh)
		}
		f.Observations = append(f.Observations, obs)
	}
	return f, nil
}

// parseOpBody reads the value= and result= of an op body, in either order,
// each a Go quoted string; returned reports whether a result is present.
func parseOpBody(body string) (value, result string, returned bool, err error) {
	for rest := strings.TrimSpace(body); rest != ""; {
		key, quoted, ok := strings.Cut(rest, "=")
		if ok {
			quoted, err = strconv.QuotedPrefix(quoted)
		}
		if !ok || err != nil {
			return "", "", false, fmt.Errorf("bad body %q", body)
		}
		rest = strings.TrimSpace(rest[len(key)+1+len(quoted):])
		s, _ := strconv.Unquote(quoted)
		switch key {
		case "value":
			value = s
		case "result":
			result, returned = s, true
		default:
			return "", "", false, fmt.Errorf("bad body %q", body)
		}
	}
	return value, result, returned, nil
}

// parseHistoryTokens rebuilds a serial history from its token string. The
// history must be serial: every call "n[" is followed by its return "]n", or,
// for a blocking op, by the stuck marker "#" as the last token. An op appears
// at most once, and a thread's ops appear in the order its listing gives
// (pos: op number -> position in the listing).
func parseHistoryTokens(s string, ops map[int]opDesc, pos map[int]int) (*history.SerialHistory, error) {
	sh := &history.SerialHistory{}
	toks := strings.Fields(s)
	used := make(map[int]bool)
	next := make(map[int]int) // thread -> listing position of its next op
	for i := 0; i < len(toks); i += 2 {
		tok := toks[i]
		if tok == "#" {
			return nil, fmt.Errorf("obsfile: stuck marker with no pending call in %q", s)
		}
		n, err := strconv.Atoi(strings.TrimSuffix(tok, "["))
		if err != nil || !strings.HasSuffix(tok, "[") {
			return nil, fmt.Errorf("obsfile: bad token %q in %q: want a call", tok, s)
		}
		d, known := ops[n]
		switch {
		case !known:
			return nil, fmt.Errorf("obsfile: history references undefined op %d in %q", n, s)
		case used[n]:
			return nil, fmt.Errorf("obsfile: op %d called twice in %q", n, s)
		case pos[n] != next[d.Thread]:
			return nil, fmt.Errorf("obsfile: op %d out of its thread's order in %q", n, s)
		}
		used[n] = true
		next[d.Thread]++
		ret := ""
		if i+1 < len(toks) {
			ret = toks[i+1]
		}
		switch {
		case d.Blocks && ret == "#" && i+2 == len(toks):
			sh.Pending = &history.SerialPending{Thread: d.Thread, Name: d.Name}
		case !d.Blocks && ret == "]"+strconv.Itoa(n):
			sh.Ops = append(sh.Ops, history.SerialOp{Thread: d.Thread, Name: d.Name, Result: d.Result})
		default:
			want := fmt.Sprintf(`"]%d"`, n)
			if d.Blocks {
				want = `"#" as the last token`
			}
			return nil, fmt.Errorf("obsfile: call %s in %q is not followed by %s", tok, s, want)
		}
	}
	return sh, nil
}

// ToSpec rebuilds a specification from a parsed file, suitable for witness
// checking (e.g. regression-checking a recorded violation against an
// archived observation file).
func (f *File) ToSpec() *history.Spec {
	spec := history.NewSpec()
	for _, obs := range f.Observations {
		for _, h := range obs.Histories {
			spec.Add(h)
		}
	}
	return spec
}
