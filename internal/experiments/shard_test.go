package experiments

import (
	"strings"
	"testing"

	"msgroofline/internal/plot"
)

// TestSuiteByteIdenticalAcrossShards is the quick-suite half of the
// shard-determinism suite: the full registry rendered at Shards=1 and
// Shards=4 must be byte-equal (the cmd/experiments -shards guarantee
// the CI job pins against the committed golden), and so must each
// output's series as -csv writes them. Shards only sets
// the window worker parallelism of the coupled engine, so any
// divergence means the Shards plumbing changed simulated behavior.
func TestSuiteByteIdenticalAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick suite twice; skipped in -short")
	}
	render := func(shards int) string {
		outs, _, _, err := RunSuite(Registry(), SuiteOptions{Scale: Quick, Jobs: 4, Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		var b strings.Builder
		for _, o := range outs {
			b.WriteString(o.Render())
			if err := plot.WriteCSV(&b, o.Series); err != nil {
				t.Fatalf("shards=%d: %s: %v", shards, o.ID, err)
			}
		}
		return b.String()
	}
	one := render(1)
	four := render(4)
	if one != four {
		// Locate the first divergence for a useful failure message.
		n := len(one)
		if len(four) < n {
			n = len(four)
		}
		at := n
		for i := 0; i < n; i++ {
			if one[i] != four[i] {
				at = i
				break
			}
		}
		lo := at - 80
		if lo < 0 {
			lo = 0
		}
		hiA, hiB := at+80, at+80
		if hiA > len(one) {
			hiA = len(one)
		}
		if hiB > len(four) {
			hiB = len(four)
		}
		t.Fatalf("suite output diverged at byte %d:\nshards=1: ...%q...\nshards=4: ...%q...",
			at, one[lo:hiA], four[lo:hiB])
	}
}
