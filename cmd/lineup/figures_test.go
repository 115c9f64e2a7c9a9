package main

import (
	"fmt"
	"strings"
	"testing"
)

// TestFigureOutputGolden pins the stdout of the directed reproductions and
// the inventories — fig1, fig4, fig7, fig9, causes, table1 and list — byte for
// byte in testdata/figures.golden, one "== lineup NAME ==" section each. Every
// one is deterministic, so a refactor of how they are produced must leave the
// golden untouched. LINEUP_UPDATE_GOLDEN=1 rewrites it.
func TestFigureOutputGolden(t *testing.T) {
	var got []string
	for _, name := range []string{"fig1", "fig4", "fig7", "fig9", "causes", "table1", "list"} {
		out := captureStdout(t, func() error {
			if code := run([]string{name}); code != 0 {
				return fmt.Errorf("lineup %s: exit %d", name, code)
			}
			return nil
		})
		got = append(got, "== lineup "+name+" ==")
		got = append(got, strings.Split(strings.TrimSuffix(out, "\n"), "\n")...)
	}
	checkGolden(t, "testdata/figures.golden", got)
}
