package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// compare classifies the change of one end-to-end metric between two sets
// of repetitions. The new median may be worse than the old by at most the
// metric's bound. Where either set's own spread exceeds the bound the
// comparison cannot tell a change from noise, and the row is unresolved
// unless every new repetition beats every old one.
func compare(m metricSpec, old, cur summary) string {
	lower := m.Better == "lower"
	worseBy := (cur.Median - old.Median) / old.Median
	allBetter := cur.Max < old.Min
	if !lower {
		worseBy = -worseBy
		allBetter = cur.Min > old.Max
	}
	switch {
	case (old.Spread > m.Bound || cur.Spread > m.Bound) && !allBetter:
		return "unresolved"
	case worseBy > m.Bound:
		return "worse"
	case worseBy < -m.Bound:
		return "better"
	}
	return "within bound"
}

// diffResults prints one row per workload and end-to-end metric present in
// both files and fails if any row is worse.
func diffResults(spec *benchSpec, oldPath, newPath string) error {
	old, err := readResult(oldPath)
	if err != nil {
		return err
	}
	cur, err := readResult(newPath)
	if err != nil {
		return err
	}
	worse := 0
	fmt.Printf("%-14s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "old", "new", "change", "bound", "verdict")
	for _, w := range spec.Workloads {
		o, c := old.Workloads[w.Name], cur.Workloads[w.Name]
		if o == nil || c == nil {
			continue
		}
		if c.Failed > o.Failed {
			fmt.Printf("%-14s %-16s %14d %14d %8s %6s  worse\n", w.Name, "failed", o.Failed, c.Failed, "", "0")
			worse++
		}
		for _, m := range spec.EndToEnd {
			om, ok1 := o.Metrics[m.Name]
			cm, ok2 := c.Metrics[m.Name]
			if !ok1 || !ok2 || om.Median == 0 {
				continue
			}
			verdict := compare(m, om, cm)
			if verdict == "worse" {
				worse++
			}
			fmt.Printf("%-14s %-16s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n", w.Name, m.Name, om.Median, cm.Median,
				100*(cm.Median-om.Median)/om.Median, 100*m.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d rows are worse", worse)
	}
	return nil
}
