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
