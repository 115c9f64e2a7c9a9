package main

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

var (
	helpFlagLine    = regexp.MustCompile(`^  -(\S+)`)
	helpDefaultTail = regexp.MustCompile(`\(default (.+)\)$`)
)

// helpFlags runs "lineup <cmd> -h" through the real binary and returns one
// "<cmd> -<flag> <default>" line per flag, in the order -h prints them
// (sorted by name). Only the name and the default are recorded — not the
// usage text and not the type word — so the golden survives rewording and a
// change of how a flag is bound, and fails when a flag appears, disappears or
// changes what leaving it out means. A default equal to this machine's CPU
// count on a -workers flag is written "NumCPU".
func helpFlags(t *testing.T, bin, cmd string) []string {
	t.Helper()
	out, err := exec.Command(bin, cmd, "-h").CombinedOutput()
	if err != nil {
		t.Fatalf("lineup %s -h: %v\n%s", cmd, err, out)
	}
	var lines []string
	flush := func(name, usage string) {
		if name == "" {
			return
		}
		def := "-"
		if m := helpDefaultTail.FindStringSubmatch(strings.TrimSpace(usage)); m != nil {
			def = strings.Trim(m[1], `"`)
		}
		if name == "workers" && def == strconv.Itoa(runtime.NumCPU()) {
			def = "NumCPU"
		}
		lines = append(lines, fmt.Sprintf("%s -%s %s", cmd, name, def))
	}
	name, usage := "", ""
	for _, line := range strings.Split(string(out), "\n") {
		if m := helpFlagLine.FindStringSubmatch(line); m != nil {
			flush(name, usage)
			name, usage = m[1], ""
			continue
		}
		usage += " " + strings.TrimSpace(line)
	}
	flush(name, usage)
	if len(lines) == 0 {
		t.Fatalf("lineup %s -h printed no flags:\n%s", cmd, out)
	}
	return lines
}

// TestFlagGolden pins the flag surface of the subcommands that configure a
// check or the service: every flag name and the default it documents, read
// off "-h" of the real binary. A refactor of how flags are bound must leave
// the golden untouched; a PR that adds, drops or re-defaults a flag has to
// edit testdata/flags.golden and say so. LINEUP_UPDATE_GOLDEN=1 rewrites it.
func TestFlagGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real binary; skipped in -short mode")
	}
	bin := buildLineup(t)
	var got []string
	for _, cmd := range []string{"check", "table2", "generate", "verify", "compare", "serve", "monitor", "causes", "record", "memory"} {
		got = append(got, helpFlags(t, bin, cmd)...)
	}
	checkGolden(t, "testdata/flags.golden", got)
}

// checkGolden compares the lines got with the golden file at path, naming
// each line that is in one and not in the other; LINEUP_UPDATE_GOLDEN=1
// rewrites the file instead.
func checkGolden(t *testing.T, path string, got []string) {
	t.Helper()
	text := strings.Join(got, "\n") + "\n"
	if os.Getenv("LINEUP_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if text == string(golden) {
		return
	}
	want := make(map[string]bool)
	for _, l := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		want[l] = true
	}
	for _, l := range got {
		if !want[l] {
			t.Errorf("not in the golden: %s", l)
		}
		delete(want, l)
	}
	for l := range want {
		t.Errorf("missing from the run: %s", l)
	}
	if !t.Failed() {
		t.Errorf("line order differs from %s", path)
	}
}

var (
	readmeFlag    = regexp.MustCompile("`-([a-z-]+)")
	readmeCommand = regexp.MustCompile("`(?:lineup )?([a-z0-9]+)")
)

// TestReadmeFlagTablesMatchHelp: every flag a README table lists is one the
// golden above records for the subcommand the row documents — the one a
// "`lineup <cmd>`" first cell names, or else each one the heading above the
// table names — so a removed flag cannot survive in the documentation. The
// tables of `check` and `serve` also list every flag those two have.
func TestReadmeFlagTablesMatchHelp(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	has := make(map[string]map[string]bool)
	for _, l := range strings.Split(string(golden), "\n") {
		if f := strings.Fields(l); len(f) == 3 {
			if has[f[0]] == nil {
				has[f[0]] = make(map[string]bool)
			}
			has[f[0]][strings.TrimPrefix(f[1], "-")] = true
		}
	}
	commandsIn := func(s string) []string {
		var cmds []string
		for _, m := range readmeCommand.FindAllStringSubmatch(s, -1) {
			if has[m[1]] != nil {
				cmds = append(cmds, m[1])
			}
		}
		return cmds
	}
	listed := make(map[string]map[string]bool)
	heading := ""
	for _, line := range strings.Split(string(readme), "\n") {
		if strings.HasPrefix(line, "##") {
			heading = line
			continue
		}
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		first, rest, _ := strings.Cut(line[2:], " | ")
		cmds, cell := commandsIn(heading), first
		if !strings.HasPrefix(first, "`-") {
			cmds = commandsIn(first)
			cell, _, _ = strings.Cut(rest, " | ")
		}
		flags := readmeFlag.FindAllStringSubmatch(cell, -1)
		if len(flags) == 0 {
			continue
		}
		if len(cmds) == 0 {
			t.Errorf("README flag row names no subcommand, nor does its heading %q: %s", heading, line)
		}
		for _, cmd := range cmds {
			if listed[cmd] == nil {
				listed[cmd] = make(map[string]bool)
			}
			for _, m := range flags {
				if !has[cmd][m[1]] {
					t.Errorf("README lists %s -%s, which -h does not have", cmd, m[1])
				}
				listed[cmd][m[1]] = true
			}
		}
	}
	for _, cmd := range []string{"check", "serve"} {
		for name := range has[cmd] {
			if !listed[cmd][name] {
				t.Errorf("README's %s tables do not list -%s", cmd, name)
			}
		}
	}
}
