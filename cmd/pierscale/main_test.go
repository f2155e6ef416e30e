package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunQuick exercises the whole harness end to end in -quick mode and
// validates the artifact's structure and internal consistency.
func TestRunQuick(t *testing.T) {
	out := filepath.Join(t.TempDir(), "scaling.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-quick", "-out", out}, &stdout, &stderr); code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	blob, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(rep.GenScaling) != 2 {
		t.Fatalf("quick mode swept %d gen cells, want 2 (workers 1,2)", len(rep.GenScaling))
	}
	base := rep.GenScaling[0]
	for _, c := range rep.GenScaling {
		if c.ModeledSec != base.ModeledSec || c.Comparisons != base.Comparisons {
			t.Errorf("gen cell w=%d: modeled cost %v / %d comparisons diverged from w=%d (%v / %d) — scheduler not deterministic",
				c.Workers, c.ModeledSec, c.Comparisons, base.Workers, base.ModeledSec, base.Comparisons)
		}
		if c.ElapsedSec <= 0 || c.GenSec <= 0 {
			t.Errorf("gen cell w=%d: empty measurement (%v elapsed, %v gen)", c.Workers, c.ElapsedSec, c.GenSec)
		}
	}
	if len(rep.QueryScaling) != 2 {
		t.Fatalf("quick mode produced %d query cells, want 2 (workers 1,2)", len(rep.QueryScaling))
	}
	for _, c := range rep.QueryScaling {
		if c.Queries == 0 || c.QPS <= 0 {
			t.Errorf("query cell w=%d answered no queries", c.Workers)
		}
		if c.IngestedProf == 0 {
			t.Errorf("query cell w=%d saw no concurrent ingest — the cell measured a quiescent index", c.Workers)
		}
	}
	if rep.Meta.NumCPU <= 0 {
		t.Error("meta.num_cpu missing")
	}
}

func TestRunUsageErrors(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dataset", "nope"}, &stdout, &stderr); code != exitUsage {
		t.Fatalf("unknown dataset: exit %d, want %d", code, exitUsage)
	}
	if code := run([]string{"-workers", "0"}, &stdout, &stderr); code != exitUsage {
		t.Fatalf("bad workers: exit %d, want %d", code, exitUsage)
	}
	if code := run([]string{"-shape", "wavy"}, &stdout, &stderr); code != exitUsage {
		t.Fatalf("bad shape: exit %d, want %d", code, exitUsage)
	}
}
