package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	swole "github.com/reprolab/swole"
)

// benchmarkSpec is the part of ../BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
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

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestTinyRunsPrintEveryMetric runs every workload at the tiny scale,
// untraced and traced, and requires the result line to hold exactly the
// metrics BENCHMARK.json names, each with its unit and also printed by
// name in the human-readable block.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("BENCHMARK.json workload %d is %q (%q), the benchmark's is %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	for _, w := range spec.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				var out, errb bytes.Buffer
				args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "0.3", "--trace", trace,
					"--tiny", "--spans", t.TempDir()}
				if code := run(args, &out, &errb); code != 0 {
					t.Fatalf("exit %d: %s", code, errb.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("result %+v", res)
				}
				want := spec.EndToEnd
				if trace == "1" {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
					}
					if !strings.Contains(out.String(), m.Name+" ") {
						t.Errorf("metric %s is not printed by name", m.Name)
					}
				}
				if trace == "0" && res.Metrics["setup_s"].Value <= 0 {
					t.Errorf("setup_s = %v", res.Metrics["setup_s"].Value)
				}
			})
		}
	}
}

// TestOracleRejectsPerturbedAnswer changes one value of a correct answer
// and requires every oracle check to refuse it.
func TestOracleRejectsPerturbedAnswer(t *testing.T) {
	want := [][]int64{{1, 10}, {2, 20}, {3, 30}}
	reordered := [][]int64{{3, 30}, {1, 10}, {2, 20}}
	perturbed := [][]int64{{3, 30}, {1, 10}, {2, 21}}
	if err := diffAnswers(reordered, want); err != nil {
		t.Fatalf("row order must not matter: %v", err)
	}
	if err := diffAnswers(perturbed, want); err == nil {
		t.Fatal("diffAnswers accepted a perturbed answer")
	}
	if fingerprint(reordered) != fingerprint(want) {
		t.Fatal("fingerprint depends on row order")
	}
	if fingerprint(perturbed) == fingerprint(want) {
		t.Fatal("fingerprint missed a perturbed answer")
	}

	// A perturbed timed answer fails the run: verifyLast flags it and the
	// result line reports it as incorrect.
	e := &env{}
	o := newOutcome()
	s := &stmt{name: "groupagg", want: fingerprint(want), wantRows: len(want), checked: true,
		lastRes: swole.NewResult([]string{"k", "v"}, perturbed)}
	e.verifyLast([]*stmt{s}, o)
	if len(o.wrong) != 1 || o.failed != 1 {
		t.Fatalf("verifyLast: wrong %v failed %d", o.wrong, o.failed)
	}
	if res := report(&bytes.Buffer{}, o, false); res.Correct {
		t.Fatal("a run with a wrong answer reported correct")
	}
}

// TestImplausibleServedAnswerFails requires a served read of the wrong
// shape to fail the run, while a refused request only counts as failed.
func TestImplausibleServedAnswerFails(t *testing.T) {
	scalar := &stmt{name: "scalar", sql: classicSQL[0]}
	grouped := &stmt{name: "groupagg", sql: classicSQL[1]}
	if !plausible(scalar, [][]int64{{7}}) || plausible(scalar, [][]int64{{7}, {8}}) || plausible(grouped, nil) {
		t.Fatal("plausible misjudges an answer's shape")
	}
	o := newOutcome()
	tally(o, []*connStats{{okReads: 5, failed: 1}})
	if res := report(&bytes.Buffer{}, o, false); !res.Correct || res.Failed != 1 || res.Attempted != 6 {
		t.Fatalf("a refused request: %+v", res)
	}
	tally(o, []*connStats{{okReads: 5, wrong: []string{"scalar: served answer of 2 rows"}}})
	if res := report(&bytes.Buffer{}, o, false); res.Correct || res.Failed != 2 || res.Attempted != 12 {
		t.Fatalf("an implausible answer: %+v", res)
	}
}

// TestSelfTime checks the span arithmetic the traced run's summary uses:
// overlapping children are counted once.
func TestSelfTime(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 40}, {Start: 30, End: 50}, {Start: 90, End: 120}}
	if got := selfTime(parent, kids); got != 100-40-10 {
		t.Fatalf("selfTime = %d, want 50", got)
	}
}
