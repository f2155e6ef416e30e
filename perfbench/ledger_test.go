package perfbench

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"pier"
)

// contract is the part of BENCHMARK.json the ledger must honour.
type contract struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// lastLine parses the ledger's result line.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out)
	}
	return res
}

func TestContractListsTheLedgerWorkloads(t *testing.T) {
	c := readContract(t)
	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the ledger has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%s), the ledger %q (%s)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
	}
}

// TestTinyRunsEmitEveryMetric runs each workload at tiny scale, once measured
// and once traced, and checks that the result line carries exactly the
// metrics BENCHMARK.json names, with their units.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	c := readContract(t)
	for _, w := range workloads {
		w := tiny(w)
		t.Run(w.name, func(t *testing.T) {
			var out bytes.Buffer
			res, err := measuredLedger(&out, w, 3, 0)
			if err != nil {
				t.Fatalf("measured run: %v\n%s", err, out.String())
			}
			wantMetrics(t, "measured", res, c.EndToEnd)

			out.Reset()
			res, err = tracedLedger(&out, w, 3, t.TempDir())
			if err != nil {
				t.Fatalf("traced run: %v\n%s", err, out.String())
			}
			wantMetrics(t, "traced", res, c.PerLayer)
		})
	}
}

func wantMetrics(t *testing.T, run string, res *result, want []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("%s run: correct %v, attempted %d, failed %d", run, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%s run reports %d metrics, BENCHMARK.json names %d", run, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s run lacks %s", run, m.Name)
			continue
		}
		if got.Unit != m.Unit {
			t.Errorf("%s run: %s in %q, BENCHMARK.json says %q", run, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestLedgerMainPrintsResultLast(t *testing.T) {
	var out bytes.Buffer
	if code := ledgerMain(&out, tiny(workloads[0]), 1, 0, false, t.TempDir()); code != 0 {
		t.Fatalf("exit code %d\n%s", code, out.String())
	}
	if res := lastLine(t, out.String()); !res.Correct {
		t.Fatalf("result %+v", res)
	}
	if _, ok := findWorkload("no-such-workload"); ok {
		t.Fatal("an unknown workload was found")
	}
}

// tampered wraps a system and corrupts what it reports.
type tampered struct {
	system
	rec    *recorder
	stopFn func(s system, rec *recorder) (int, int)
	qFn    func(a answer) answer
}

func (t tampered) stop() (int, int) { return t.stopFn(t.system, t.rec) }

func (t tampered) query(p pier.Profile) (answer, error) {
	a, err := t.system.query(p)
	if err == nil && t.qFn != nil {
		a = t.qFn(a)
	}
	return a, err
}

// TestCheckRejectsWrongOutput feeds the correctness check outputs that are
// wrong in one way each, and expectations the program cannot meet.
func TestCheckRejectsWrongOutput(t *testing.T) {
	w := tiny(workloads[2])
	in := w.setup(5)
	passthrough := func(s system, _ *recorder) (int, int) { return s.stop() }
	cases := []struct {
		name   string
		w      workload
		stopFn func(s system, rec *recorder) (int, int)
		qFn    func(a answer) answer
	}{
		{"correct", w, passthrough, nil},
		{"match count differs from reports", w, func(s system, rec *recorder) (int, int) {
			c, m := s.stop()
			return c, m + 1
		}, nil},
		{"match below threshold", w, func(s system, rec *recorder) (int, int) {
			c, m := s.stop()
			rec.events[0].sim = 0.1
			return c, m
		}, nil},
		{"match reported twice", w, func(s system, rec *recorder) (int, int) {
			c, m := s.stop()
			rec.events = append(rec.events, rec.events[0])
			return c, m + 1
		}, nil},
		{"match within one source", w, func(s system, rec *recorder) (int, int) {
			c, m := s.stop()
			e := rec.events[0]
			for id := range in.profiles {
				if id != e.x && in.profiles[id].SourceB == in.profiles[e.x].SourceB {
					rec.events[0].y = id
					break
				}
			}
			return c, m
		}, nil},
		{"query verdict flipped", w, passthrough, func(a answer) answer {
			if len(a.cands) > 0 {
				a.cands[0].match = !a.cands[0].match
			}
			return a
		}},
		{"expected pc above what is found", func() workload { w := w; w.minPC = 1.01; return w }(), passthrough, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.w.options(in)
			rec := &recorder{}
			opts.OnMatch = func(m pier.Match) {
				rec.add(keyID(m.X), keyID(m.Y), m.Similarity)
			}
			p, err := pier.NewPipeline(opts)
			if err != nil {
				t.Fatal(err)
			}
			sys := tampered{system: publicSystem{p}, rec: rec, stopFn: tc.stopFn, qFn: tc.qFn}
			_, err = drive(tc.w, in, sys, rec, threshold(opts))
			if tc.name == "correct" {
				if err != nil {
					t.Fatalf("correct output rejected: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("wrong output passed the check")
			}
			t.Log(err)
		})
	}
}

func TestRestoredStateMustMatch(t *testing.T) {
	w := tiny(workloads[0])
	in := w.setup(2)
	p, err := pier.NewPipeline(w.options(in))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Push(in.profiles); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	snap := p.Snapshot()
	if err := sameState(in, publicSystem{p}, publicSystem{p}, snap, snap); err != nil {
		t.Fatalf("identical state rejected: %v", err)
	}
	wrong := snap
	wrong.Comparisons++
	if err := sameState(in, publicSystem{p}, publicSystem{p}, snap, wrong); err == nil {
		t.Fatal("differing counters accepted")
	}
}

func TestSetupIsSeeded(t *testing.T) {
	for _, w := range workloads {
		w := tiny(w)
		a, b, c := w.setup(7), w.setup(7), w.setup(8)
		if !reflect.DeepEqual(a.profiles, b.profiles) || !reflect.DeepEqual(a.probes, b.probes) || !reflect.DeepEqual(a.rest, b.rest) || !reflect.DeepEqual(a.ds.GroundTruth, b.ds.GroundTruth) {
			t.Errorf("%s: one seed gave two different inputs", w.name)
		}
		if reflect.DeepEqual(a.profiles, c.profiles) || reflect.DeepEqual(a.probes, c.probes) {
			t.Errorf("%s: two seeds gave the same inputs", w.name)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := quantile(xs, 0.5); got != 3 {
		t.Errorf("quantile 0.5 = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	for n, want := range map[int]float64{1000: 0.99, 999: 0.9, 100: 0.9, 99: 0.5} {
		if got := tailQ(n); got != want {
			t.Errorf("tailQ(%d) = %v, want %v", n, got, want)
		}
	}
}
