package experiments

import (
	"os"
	"strings"
	"testing"
)

func TestRenderAllContainsEverything(t *testing.T) {
	r := tinyRun(t)
	out := r.RenderAll()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4", "Table 5",
		"Figure 1", "Figure 2", "Figure 5",
		"Headline statistics",
		NameCacheProbe, NameDNSLogs, NameAPNIC, NameMSClients, NameMSResolvers,
		"www.google.com", "www.wikipedia.org",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderAll missing %q", want)
		}
	}
}

func TestRenderMatrixDiagonalIs100(t *testing.T) {
	r := tinyRun(t)
	tbl := RenderMatrix("x", r.Table3())
	found := false
	for _, row := range tbl.Rows {
		for _, cell := range row[1:] {
			if strings.Contains(cell, "(100.0%)") {
				found = true
			}
		}
	}
	if !found {
		t.Error("no diagonal 100% cell")
	}
}

func TestCompareHeadlineComplete(t *testing.T) {
	r := tinyRun(t)
	rows := CompareHeadline(r.ComputeHeadline())
	if len(rows) != 11 {
		t.Fatalf("%d headline rows, want 11", len(rows))
	}
	for _, row := range rows {
		if row.Name == "" || row.Paper == "" || row.Measured == "" {
			t.Errorf("incomplete row %+v", row)
		}
	}
}

func TestRenderFigure2HasAllCalibratedPoPs(t *testing.T) {
	r := tinyRun(t)
	tbl := r.RenderFigure2()
	if len(tbl.Rows) != len(r.Campaign.PoPs) {
		t.Errorf("figure 2 table has %d rows, campaign calibrated %d PoPs",
			len(tbl.Rows), len(r.Campaign.PoPs))
	}
}

// TestProseMatchesExperimentsMD: every static prose section Markdown
// writes appears verbatim in the committed EXPERIMENTS.md, so
// regenerating the file cannot silently drop text edited into it.
func TestProseMatchesExperimentsMD(t *testing.T) {
	md, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for name, prose := range map[string]string{
		"introProse":      introProse,
		"deviationsProse": deviationsProse,
		"corpusProse":     corpusProse,
		"streamingProse":  streamingProse,
	} {
		if !strings.Contains(string(md), prose) {
			t.Errorf("%s does not appear verbatim in EXPERIMENTS.md", name)
		}
	}
}
