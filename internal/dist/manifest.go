package dist

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"lineup/internal/core"
	"lineup/internal/history"
	"lineup/internal/obsfile"
	"lineup/internal/telemetry"
)

// manifestVersion is the durable-state format version. Version 2 holds the
// check in its written form (checkForm) where version 1 held six hand-picked
// option values. In version 3 a unit report keys a history by its own bytes;
// merging version-2 reports with those would count one history twice.
const manifestVersion = 3

// checkForm is a check written down the one way dist does it, in the manifest
// and in every job file: the class by name, the test by display names
// (core.Test's written form) and core.Options through their json tags. Code
// never travels; the reader resolves the names.
type checkForm struct {
	Subject string       `json:"subject"`
	Test    *core.Test   `json:"test"`
	Options core.Options `json:"options"`
}

func formOf(cfg *Config) checkForm {
	return checkForm{Subject: cfg.Subject.Name, Test: cfg.Test, Options: cfg.Options}
}

// manifestUnit is one unit's journaled state. Leases are volatile by design:
// a coordinator killed while units were leased resumes them as pending —
// re-running a unit is free (idempotent replay), losing a completed one is
// not, so only done/poisoned transitions are worth the fsync.
type manifestUnit struct {
	Seq      int    `json:"seq"`
	State    string `json:"state"` // pending | done | poisoned
	Attempts int    `json:"attempts"`
	LastErr  string `json:"last_err,omitempty"`
}

// manifest is the coordinator's durable state: the check and its split as
// they were configured (a resume under a different configuration is rejected
// with every mismatched field named, core.ResumeMismatch) plus per-unit
// states. Reports of done units live in sibling unit-NNNNNN.json files.
type manifest struct {
	Version int `json:"version"`
	checkForm
	// SpecHistories is the specification the run was given (Config.Spec) in
	// Export order, as a job file ships one; a run that synthesizes its own
	// writes none.
	SpecHistories []*history.SerialHistory `json:"spec_histories,omitempty"`
	// Depth is the split depth as set: 0 (sched.DefaultShardDepth) outside
	// tests, as `check -test` has always written it, so its journals resume.
	Depth       int            `json:"depth"`
	Units       int            `json:"units"`
	SplitPruned int            `json:"split_pruned"`
	Entries     []manifestUnit `json:"entries"`
}

func manifestPath(dir string) string { return filepath.Join(dir, "manifest.json") }

// buildManifest writes the run down and snapshots unit states.
func buildManifest(cfg Config, plan *core.UnitPlan, recs []*unitRec) *manifest {
	man := &manifest{
		Version:     manifestVersion,
		checkForm:   formOf(&cfg),
		Depth:       cfg.depth,
		Units:       len(plan.Units),
		SplitPruned: plan.Split.Pruned,
	}
	if cfg.Spec != nil {
		man.SpecHistories = cfg.Spec.Export()
	}
	for seq, rec := range recs {
		state := rec.state
		if state == uLeased {
			state = uPending // volatile
		}
		man.Entries = append(man.Entries, manifestUnit{
			Seq: seq, State: state.String(), Attempts: rec.attempts, LastErr: rec.lastErr,
		})
	}
	return man
}

func saveManifest(cfg Config, plan *core.UnitPlan, recs []*unitRec) error {
	if cfg.Dir == "" {
		return nil
	}
	return obsfile.AtomicWriteJSON(manifestPath(cfg.Dir), buildManifest(cfg, plan, recs))
}

// loadManifest reads and decodes a manifest file; a missing file is (nil, nil).
func loadManifest(path string) (*manifest, error) {
	var man manifest
	if err := core.LoadVersioned(path, "manifest", manifestVersion, &man); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			err = nil
		}
		return nil, err
	}
	return &man, nil
}

// resumeManifest loads Dir's manifest, if any, and restores unit states:
// done units get their reports re-read from disk (an unreadable report
// demotes the unit to pending — it just re-runs), poisoned units stay
// poisoned (their budget is spent; a crash loop must not reset it), and
// everything else — including units leased at the instant of the crash — is
// pending. The net effect is exactly-once merging: a completed unit is never
// re-run, never re-counted.
func resumeManifest(cfg Config, plan *core.UnitPlan, recs []*unitRec, reports []*core.UnitReport, stats *Stats) error {
	man, err := loadManifest(manifestPath(cfg.Dir))
	if man == nil || err != nil {
		return err
	}
	if err := core.ResumeMismatch("manifest", man, buildManifest(cfg, plan, recs), "entries"); err != nil {
		return err
	}
	for _, e := range man.Entries {
		if e.Seq < 0 || e.Seq >= len(recs) {
			return fmt.Errorf("dist: manifest entry for unit %d out of range [0, %d)", e.Seq, len(recs))
		}
		rec := recs[e.Seq]
		rec.attempts = e.Attempts
		rec.lastErr = e.LastErr
		switch e.State {
		case "done":
			rep, err := loadReport(reportPath(cfg.Dir, e.Seq))
			if err != nil {
				// The report didn't survive (partial disk, manual cleanup):
				// demote and re-run rather than fail the resume.
				rec.state = uPending
				continue
			}
			rec.state = uDone
			reports[e.Seq] = rep
			stats.Resumed++
		case "poisoned":
			rec.state = uPoisoned
			cfg.count(&stats.Poisoned, telemetry.DistUnitsPoisoned)
		default:
			rec.state = uPending
		}
	}
	return nil
}
