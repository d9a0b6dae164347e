package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRenderAllContainsEveryArtifact(t *testing.T) {
	r := testRun(t)
	out := RenderAll(r)
	for _, want := range []string{
		"Figure 1",
		"drop-reason table",
		"Figure 3",
		"Table 1",
		"Figure 4(a)",
		"Figure 4(b)",
		"Section 3 scalar ratios",
		"Figure 5",
		"Figure 6",
		"Figure 7",
		"Figure 8",
		"Figure 9",
		"Figure 10",
		"Figure 11",
		"Figure 12",
		"Section 6",
		"Ablation",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderAll missing %q", want)
		}
	}
	if len(out) < 4000 {
		t.Fatalf("RenderAll output suspiciously short: %d bytes", len(out))
	}
}

func TestRenderLifecycleMentionsPaperBaselines(t *testing.T) {
	r := testRun(t)
	out := RenderLifecycle(r)
	for _, want := range []string{"757", "62.36%", "unknown-recipient", "challenged (open relay)"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderLifecycle missing %q:\n%s", want, out)
		}
	}
}

func TestRenderBlacklistingHasAllCompanies(t *testing.T) {
	r := testRun(t)
	out := RenderBlacklisting(r)
	if !strings.Contains(out, "company-00") || !strings.Contains(out, "never listed:") {
		t.Fatalf("blacklisting render incomplete:\n%s", out)
	}
}

func TestSparkChar(t *testing.T) {
	if sparkChar(0, 10) != '_' || sparkChar(5, 0) != '_' {
		t.Fatal("zero handling wrong")
	}
	if sparkChar(10, 10) != '#' {
		t.Fatalf("max value = %c, want #", sparkChar(10, 10))
	}
	if sparkChar(1, 100) != '.' {
		t.Fatalf("small value = %c, want .", sparkChar(1, 100))
	}
}

// TestStandardRunMatchesArchive pins docs/standard-run.txt, the archived
// stdout of `go run ./cmd/reproduce` (RenderAll of the standard preset,
// seed 42, plus Println's newline): any change to the simulation or the
// renderers that moves a published figure fails here until the archive
// is regenerated.
func TestStandardRunMatchesArchive(t *testing.T) {
	if testing.Short() {
		t.Skip("full standard-preset run")
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "docs", "standard-run.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := RenderAll(NewRun(Standard(42))) + "\n"
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("standard run differs from docs/standard-run.txt at line %d:\n got: %q\nwant: %q\n(regenerate with: go run ./cmd/reproduce > docs/standard-run.txt)", i+1, g, w)
		}
	}
}
