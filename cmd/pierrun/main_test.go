package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"pier/internal/core"
	"pier/internal/dataset"
	"pier/internal/match"
	"pier/internal/obsv"
	"pier/internal/stream"
)

// scrapeProm fetches url and parses the Prometheus text exposition into
// name -> value (labels folded into the key), failing the test on any
// unparseable line — this is the format check the endpoint must satisfy.
func scrapeProm(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// Comment lines must be well-formed HELP/TYPE directives.
			fields := strings.Fields(line)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Fatalf("malformed exposition comment %q", line)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[fields[0]] = v
	}
	return out
}

// TestMetricsEndpointDuringLiveRun is the acceptance test for the
// observability layer: a live windowed run serves /metrics over HTTP, the
// exposition parses, shows the required series, and the counters move as the
// stream progresses.
func TestMetricsEndpointDuringLiveRun(t *testing.T) {
	d := dataset.DA(0.05, 11)
	reg := obsv.NewRegistry()
	cfg := core.DefaultConfig()
	cfg.Metrics = reg // strategy and pipeline share one endpoint, as in run()
	live := stream.LiveRun(core.NewIPES(cfg), stream.LiveConfig{
		CleanClean:   true,
		MaxBlockSize: stream.DefaultMaxBlockSize,
		Matcher:      match.NewMatcher(match.JS),
		TickEvery:    time.Millisecond,
		Window:       40,
		Metrics:      reg,
	})
	addr, shutdown, err := serveMetrics("127.0.0.1:0", live.Registry())
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown()
	base := fmt.Sprintf("http://%s", addr)

	incs := d.Increments(12)
	for _, inc := range incs[:4] {
		live.Push(inc)
	}
	// Wait until the pipeline has executed work, then take the first scrape.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if c, _ := live.Stats(); c > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no comparisons after 5s")
		}
		time.Sleep(time.Millisecond)
	}
	first := scrapeProm(t, base+"/metrics")
	for _, name := range []string{
		"pier_comparisons_total",
		"pier_matches_total",
		"pier_k",
		"pier_pending",
		"pier_profiles_ingested_total",
		"pier_window_evictions_total",
		"pier_dedup_entries",
		"pier_emit_seconds_count",
		"pier_ipes_active_entities",
	} {
		if _, ok := first[name]; !ok {
			t.Errorf("/metrics missing required series %s", name)
		}
	}
	if first["pier_profiles_ingested_total"] == 0 {
		t.Error("profiles counter did not move after ingestion")
	}
	if first["pier_k"] <= 0 {
		t.Errorf("pier_k = %g, want > 0", first["pier_k"])
	}

	for _, inc := range incs[4:] {
		live.Push(inc)
	}
	res := live.Stop()
	second := scrapeProm(t, base+"/metrics")
	if second["pier_comparisons_total"] <= first["pier_comparisons_total"] {
		t.Errorf("comparisons counter did not move: %g -> %g",
			first["pier_comparisons_total"], second["pier_comparisons_total"])
	}
	if second["pier_profiles_ingested_total"] != float64(d.NumProfiles()) {
		t.Errorf("profiles counter = %g, want %d", second["pier_profiles_ingested_total"], d.NumProfiles())
	}
	if second["pier_window_evictions_total"] == 0 {
		t.Error("windowed run recorded no evictions")
	}
	if second["pier_comparisons_total"] != float64(res.Comparisons) {
		t.Errorf("endpoint comparisons %g != summary %d", second["pier_comparisons_total"], res.Comparisons)
	}

	// The expvar dump must be valid JSON and carry the same counters.
	resp, err := http.Get(base + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var vars struct {
		Pier map[string]interface{} `json:"pier"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		t.Fatalf("/debug/vars is not valid JSON: %v", err)
	}
	if got := vars.Pier["pier_comparisons_total"]; got != float64(res.Comparisons) {
		t.Errorf("expvar comparisons = %v, want %d", got, res.Comparisons)
	}
}

// writeFixtureCSV materializes a small seeded dataset as the CSV pierrun
// reads, returning its path.
func writeFixtureCSV(t *testing.T) string {
	t.Helper()
	d := dataset.DA(0.05, 55)
	path := filepath.Join(t.TempDir(), "fixture.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.WriteCSV(f, d); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunExitCodes table-tests the CLI contract: usage errors exit 2 with a
// message on stderr, runtime failures exit 1, and a good run exits 0 —
// nothing panics.
func TestRunExitCodes(t *testing.T) {
	csv := writeFixtureCSV(t)
	cases := []struct {
		name   string
		args   []string
		code   int
		stderr string // required substring; empty = no requirement
	}{
		{"no input", []string{}, 2, "-in is required"},
		{"bad flag", []string{"-no-such-flag"}, 2, ""},
		{"unknown algorithm", []string{"-in", csv, "-algorithm", "I-BOGUS"}, 2, "unknown algorithm"},
		{"unknown matcher", []string{"-in", csv, "-matcher", "XX"}, 2, "unknown matcher"},
		{"checkpoint-every without checkpoint", []string{"-in", csv, "-checkpoint-every", "5"}, 2, "requires -checkpoint"},
		{"checkpoint with baseline", []string{"-in", csv, "-algorithm", "I-BASE", "-checkpoint", "x.snap"}, 2, "does not support"},
		{"missing input file", []string{"-in", "/no/such/file.csv"}, 1, "no such file"},
		{"missing restore file", []string{"-in", csv, "-restore", "/no/such.snap", "-rate", "0", "-increments", "4"}, 1, ""},
		{"good run", []string{"-in", csv, "-rate", "0", "-increments", "4"}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, &stdout, &stderr)
			if got != tc.code {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, got, tc.code, stderr.String())
			}
			if tc.stderr != "" && !strings.Contains(stderr.String(), tc.stderr) {
				t.Errorf("stderr %q missing %q", stderr.String(), tc.stderr)
			}
			if tc.code != 0 && stderr.Len() == 0 {
				t.Error("failing run wrote nothing to stderr")
			}
		})
	}
}

// TestRunCheckpointRestoreCycle drives the CLI recovery workflow end to end:
// a partial run with periodic checkpoints, then a resumed run over the same
// input from the final snapshot, must converge to the same totals as one
// uninterrupted run.
func TestRunCheckpointRestoreCycle(t *testing.T) {
	csv := writeFixtureCSV(t)
	snap := filepath.Join(t.TempDir(), "run.snap")

	var full bytes.Buffer
	if code := run([]string{"-in", csv, "-rate", "0", "-increments", "8"}, &full, io.Discard); code != 0 {
		t.Fatalf("uninterrupted run exited %d", code)
	}

	var first bytes.Buffer
	args := []string{"-in", csv, "-rate", "0", "-increments", "8", "-checkpoint", snap, "-checkpoint-every", "2"}
	if code := run(args, &first, io.Discard); code != 0 {
		t.Fatalf("checkpointing run exited %d", code)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("checkpoint file not written: %v", err)
	}
	if _, err := os.Stat(snap + ".tmp"); !os.IsNotExist(err) {
		t.Error("temporary checkpoint file left behind")
	}

	var resumed bytes.Buffer
	if code := run([]string{"-in", csv, "-rate", "0", "-increments", "8", "-restore", snap}, &resumed, io.Discard); code != 0 {
		t.Fatalf("resumed run exited %d", code)
	}
	if !strings.Contains(resumed.String(), "skipping 8 increments") {
		t.Errorf("resumed run did not skip the snapshotted increments:\n%s", resumed.String())
	}

	// The final totals line must be identical across all three runs: the
	// full snapshot already contains the whole drained stream, so the
	// resumed run reports the same profiles/comparisons/matches.
	if tf, tr := totalsLine(t, full.String()), totalsLine(t, resumed.String()); tf != tr {
		t.Errorf("resumed totals %q differ from uninterrupted run %q", tr, tf)
	}
}

// totalsLine extracts the "profiles N, comparisons N, matches N" prefix of
// the summary line (elapsed varies run to run).
func totalsLine(t *testing.T, out string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "profiles ") {
			if i := strings.LastIndex(line, ", elapsed"); i >= 0 {
				return line[:i]
			}
			return line
		}
	}
	t.Fatalf("no totals line in output:\n%s", out)
	return ""
}

// TestSyncDir: the directory fsync that makes a checkpoint rename durable
// succeeds on a real directory and reports an error instead of ignoring it.
func TestSyncDir(t *testing.T) {
	if err := syncDir(t.TempDir()); err != nil {
		t.Fatalf("syncDir of a directory: %v", err)
	}
	if err := syncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("syncDir of a missing directory returned nil")
	}
}
