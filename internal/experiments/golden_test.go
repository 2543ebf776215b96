package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenOptions is the reduced scale the extension-study goldens are
// recorded at: small enough for the tier-1 suite, large enough that every
// selector, pricer and fallback path is exercised.
var goldenOptions = Options{Jobs: 400, Seeds: 2}

// goldenLines renders every point of a figure as its exact float64 bits,
// one line per point: series name, then X, Y and Err in hex.
func goldenLines(fig *Figure) string {
	var b strings.Builder
	for _, s := range fig.Series {
		for _, p := range s.Points {
			fmt.Fprintf(&b, "%s\t%016x\t%016x\t%016x\n", s.Name,
				math.Float64bits(p.X), math.Float64bits(p.Y), math.Float64bits(p.Err))
		}
	}
	return b.String()
}

// checkGolden compares a figure bit for bit with testdata/<name>.golden.
func checkGolden(t *testing.T, name string, fig *Figure) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := goldenLines(fig)
	if got != string(want) {
		t.Errorf("%s differs from testdata/%s.golden\ngot:\n%s\nwant:\n%s", fig.ID, name, got, want)
	}
}

// TestMultiSiteGolden pins RunMultiSite's numbers: a change to the
// exchange's quote/select/award loop that moves any point fails here.
func TestMultiSiteGolden(t *testing.T) {
	cfg := DefaultMultiSite()
	cfg.Options = goldenOptions
	checkGolden(t, "multisite", RunMultiSite(cfg))
}

// TestEconomyGolden pins RunEconomy's numbers: placement, affordability and
// budget utilization of the budgeted client under full pricing.
func TestEconomyGolden(t *testing.T) {
	cfg := DefaultEconomy()
	cfg.Options = goldenOptions
	checkGolden(t, "economy", RunEconomy(cfg))
}

// TestFig3Golden pins RunFig3's numbers: PV's yield improvement over
// FirstPrice per discount rate and value skew, under preemptive restart.
func TestFig3Golden(t *testing.T) {
	cfg := DefaultFig3()
	cfg.Options = goldenOptions
	checkGolden(t, "fig3", RunFig3(cfg))
}

// TestFig4Golden pins Figure 4's α sweep under bounded penalties.
func TestFig4Golden(t *testing.T) {
	cfg := DefaultFig4()
	cfg.Options = goldenOptions
	checkGolden(t, "fig4", RunAlphaSweep(cfg))
}

// TestFig5Golden pins Figure 5's α sweep under unbounded penalties.
func TestFig5Golden(t *testing.T) {
	cfg := DefaultFig5()
	cfg.Options = goldenOptions
	checkGolden(t, "fig5", RunAlphaSweep(cfg))
}

// TestFig6Golden pins Figure 6's admission-controlled yield per load.
func TestFig6Golden(t *testing.T) {
	cfg := DefaultFig6()
	cfg.Options = goldenOptions
	checkGolden(t, "fig6", RunFig6(cfg))
}

// TestFig7Golden pins Figure 7's admission improvement per load.
func TestFig7Golden(t *testing.T) {
	cfg := DefaultFig7()
	cfg.Options = goldenOptions
	checkGolden(t, "fig7", RunFig7(cfg))
}
