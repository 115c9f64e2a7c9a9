package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"lineup/internal/monitor"
	"lineup/internal/serve"
)

// cmdServe runs the streaming monitoring service: events are ingested live
// from a stdin pipe (and, with -http, an HTTP endpoint), routed by partition
// key to a worker pool, and checked incrementally in bounded memory. The
// final verdict is printed when the stream ends; a violation exits 1.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	trace := fs.String("trace", "-", "history stream, JSONL or binary batch frames ('-' for a stdin pipe)")
	cfg := serve.Config{Model: modelFlag(fs, "sequential model: ")}
	fs.IntVar(&cfg.Workers, "workers", 0, "checker worker pool size (0 = one per CPU)")
	fs.IntVar(&cfg.WindowOps, "window", 128, "completed operations per retired window")
	fs.IntVar(&cfg.QueueDepth, "queue", 1024, "per-worker event queue depth")
	fs.TextVar(&cfg.Backpressure, "backpressure", serve.BlockOnFull, "full-queue policy: block (stall the producer) or shed (drop and poison the partition)")
	httpAddr := fs.String("http", "", "also accept events on this HTTP address (POST /ingest, GET /verdicts, GET /stats)")
	fs.StringVar(&cfg.CheckpointPath, "checkpoint", "", "checkpoint service state to FILE (atomically)")
	fs.Int64Var(&cfg.CheckpointEvery, "checkpoint-every", 0, "also checkpoint automatically every N ingested events (0 = only on shutdown)")
	resume := fs.Bool("resume", false, "resume from the -checkpoint file: replay the stream, skip what the checkpoint covers")
	tflags := addTelemetryFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	model := cfg.Model
	if model.Name == "" {
		return fmt.Errorf("serve: -model is required (one of %s)", strings.Join(monitor.BuiltinNames(), ", "))
	}
	if *resume {
		if cfg.CheckpointPath == "" {
			return fmt.Errorf("serve: -resume requires -checkpoint")
		}
		var err error
		if cfg, err = serve.Resume(cfg); err != nil {
			return err
		}
	}
	tr, err := tflags.start("serve " + model.Name)
	if err != nil {
		return err
	}
	cfg.Telemetry = tr.C
	cfg.OnVerdict = func(v serve.PartitionVerdict) {
		fmt.Fprintf(os.Stderr, "serve: partition %q NOT linearizable after %d ops\n", v.Key, v.Ops)
	}
	s, err := serve.New(cfg)
	if err != nil {
		return tr.finishAfter(err)
	}
	if *resume {
		fmt.Fprintf(os.Stderr, "serve: resuming from %s: skipping %d already-checked events\n",
			cfg.CheckpointPath, s.Stats().EventsIngested)
	}
	if *httpAddr != "" {
		addr, err := s.StartHTTP(*httpAddr)
		if err != nil {
			_, _ = s.Close()
			return tr.finishAfter(err)
		}
		fmt.Fprintf(os.Stderr, "serve: ingest endpoint on http://%s\n", addr)
	}

	var r io.Reader = os.Stdin
	if *trace != "-" {
		f, err := os.Open(*trace)
		if err != nil {
			_, _ = s.Close()
			return tr.finishAfter(err)
		}
		defer f.Close()
		r = f
	}
	start := time.Now()
	// JSONL or batch frames: IngestReader tells them apart, as for POST /ingest.
	_, ingestErr := s.IngestReader(r)
	sum, closeErr := s.Close()
	wall := time.Since(start)
	if err := tr.finishAfter(firstErr(ingestErr, closeErr)); err != nil {
		return err
	}
	printServeSummary(os.Stdout, sum, wall)
	if !sum.Linearizable {
		return errViolation
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// printServeSummary renders the final report. The stats lines carry
// wall-clock-dependent numbers; the verdict lines are deterministic and are
// what the kill/resume test compares.
func printServeSummary(w io.Writer, sum *serve.Summary, wall time.Duration) {
	st := sum.Stats
	opsPerSec := ""
	if secs := wall.Seconds(); secs > 0 {
		opsPerSec = fmt.Sprintf(" (%.0f ops/s)", float64(st.OpsChecked)/secs)
	}
	fmt.Fprintf(w, "served %d events: %d ops checked across %d partitions in %v%s\n",
		st.EventsIngested, st.OpsChecked, st.Partitions, wall.Round(time.Millisecond), opsPerSec)
	fmt.Fprintf(w, "windows: %d retired, %d overflows; cache: %d hits, %d entries, %d skipped; max window %d events, frontier %d\n",
		st.WindowFlushes, st.WindowOverflows, st.CacheHits, st.CacheEntries, st.CacheSkipped, st.MaxWindowEvents, st.MaxFrontier)
	fmt.Fprintf(w, "backpressure: %d routed, %d shed; checkpoints: %d\n",
		st.EventsRouted, st.EventsShed, st.Checkpoints)
	var failed, shed, errored []serve.PartitionVerdict
	for _, v := range sum.Verdicts {
		switch {
		case v.Err != "":
			errored = append(errored, v)
		case v.Shed:
			shed = append(shed, v)
		case !v.Linearizable:
			failed = append(failed, v)
		}
	}
	if sum.Linearizable {
		fmt.Fprintln(w, "verdict: linearizable")
	} else {
		fmt.Fprintf(w, "verdict: NOT linearizable (%d of %d partitions)\n", len(failed)+len(errored), len(sum.Verdicts))
	}
	for _, v := range failed {
		fmt.Fprintf(w, "  partition %q: NOT linearizable (%d ops, %d windows)\n", v.Key, v.Ops, v.Windows)
	}
	for _, v := range errored {
		fmt.Fprintf(w, "  partition %q: check error: %s\n", v.Key, v.Err)
	}
	for _, v := range shed {
		fmt.Fprintf(w, "  partition %q: shed (verdict withheld; %d ops seen)\n", v.Key, v.Ops)
	}
}
