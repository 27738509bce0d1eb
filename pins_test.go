package msgroofline

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// pinOwners are the tests that run results/pins.txt's lines, by the
// start of a line's name.
var pinOwners = map[string]string{
	"notified/":      "internal/comm TestNotifiedMatchesParent",
	"one-sided/":     "internal/comm TestOneSidedMatchesParent",
	"sweep/":         "internal/bench TestOneSidedSweepMatchesParent",
	"cas/":           "internal/bench TestOneSidedSweepMatchesParent",
	"phold-100k":     "internal/sim TestCoupledWindowsPhold100KPin",
	"stencil-df10k":  "TestBenchmarkPinsMatchLedger",
	"hashtable-df1k": "TestBenchmarkPinsMatchLedger",
}

// TestPinLedgerLines checks that every line of results/pins.txt is a
// 'name elapsed_ps events digest' line with a name of its own that a
// test runs: a line no test reads would pin nothing.
func TestPinLedgerLines(t *testing.T) {
	b, err := os.ReadFile("results/pins.txt")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, l := range strings.Split(string(b), "\n") {
		f := strings.Fields(l)
		if len(f) == 0 || f[0][0] == '#' {
			continue
		}
		owned := false
		for p := range pinOwners {
			owned = owned || strings.HasPrefix(f[0], p)
		}
		if len(f) != 4 || seen[f[0]] || !owned {
			t.Errorf("results/pins.txt: %q is not a 'name elapsed_ps events digest' line with a new name that a test runs", l)
		}
		seen[f[0]] = true
	}
}

// TestBenchmarkPinsMatchLedger checks that the simulated output
// benchmark/workloads.go pins for its kernel workloads equals their
// lines in results/pins.txt. benchmark/ is its own module and changes
// only with its baseline, so this reads its source as text: a
// workload's check is pinned(outcome{...}), or pholdCheck, whose body
// holds the seed-1 values.
func TestBenchmarkPinsMatchLedger(t *testing.T) {
	src, err := os.ReadFile("benchmark/workloads.go")
	if err != nil {
		t.Fatal(err)
	}
	ledger, err := os.ReadFile("results/pins.txt")
	if err != nil {
		t.Fatal(err)
	}
	field := func(text []byte, re string) string {
		if m := regexp.MustCompile(re).FindSubmatch(text); m != nil {
			return string(m[1])
		}
		return "-"
	}
	for _, name := range []string{"stencil-df10k", "phold-100k", "hashtable-df1k"} {
		m := regexp.MustCompile(`name:\s*"` + name + `",[^{}]*check:\s*(pinned\(outcome\{[^}]*\}\)|pholdCheck)`).FindSubmatch(src)
		if m == nil {
			t.Fatalf("benchmark/workloads.go pins no output for %s", name)
		}
		check := m[1]
		if string(check) == "pholdCheck" {
			check = regexp.MustCompile(`(?s)\nfunc pholdCheck\(.*?\n}`).Find(src)
		}
		want := []string{strings.Join([]string{name, field(check, `Elapsed:\s*(\d+)`),
			field(check, `Events:\s*(\d+)`), field(check, `Digest(?::|\s*=)\s*"(\w+)"`)}, " ")}
		if atomics := field(check, `Atomics:\s*(\d+)`); atomics != "-" {
			want = append(want, name+"/atomics - "+atomics+" -")
		}
		for _, w := range want {
			if !strings.Contains("\n"+string(ledger), "\n"+w+"\n") {
				t.Errorf("benchmark/workloads.go pins %q, results/pins.txt has no such line", w)
			}
		}
	}
}
