package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"clientmap/internal/analysis"
	"clientmap/internal/report"
)

// WriteCSV exports every table and figure as CSV files for plotting —
// the regenerable data behind each artifact of the paper's evaluation.
func (r *Results) WriteCSV(dir string) error {
	// Tables 1-5 as rendered.
	t5 := r.Table5()
	files := map[string]*report.Table{
		"table1.csv":         RenderMatrix("", r.Table1()),
		"table2.csv":         RenderTable2(r.Table2()),
		"table3.csv":         RenderMatrix("", r.Table3()),
		"table4.csv":         RenderVolumeMatrix("", r.Table4()),
		"table5.csv":         RenderTable5(t5),
		"table5_overlap.csv": RenderTable5Overlap(t5),
	}

	// Figure 1: per-PoP density.
	pops, countryActive := r.Figure1()
	f1 := &report.Table{Header: []string{"pop", "active_prefixes", "radius_km"}}
	for _, e := range pops {
		f1.AddRow(e.PoP, fmt.Sprintf("%d", e.Hits), fmt.Sprintf("%.0f", e.RadiusKm))
	}
	files["figure1_pops.csv"] = f1
	f1c := &report.Table{Header: []string{"country", "active_24s"}}
	var countries []string
	for c := range countryActive {
		countries = append(countries, c)
	}
	sort.Strings(countries)
	for _, c := range countries {
		f1c.AddRow(c, fmt.Sprintf("%d", countryActive[c]))
	}
	files["figure1_countries.csv"] = f1c

	// Figure 2: hit-distance CDFs for the paper's three showcased PoPs.
	for pop, d := range r.Figure2() {
		files["figure2_"+pop+".csv"] = cdfTable(d.CDF, "distance_km")
	}

	// Figure 3: per-country coverage.
	f3 := &report.Table{Header: []string{"country", "apnic_users", "covered_frac"}}
	for _, c := range r.Figure3() {
		f3.AddRow(c.Country, fmt.Sprintf("%.0f", c.Users), fmt.Sprintf("%.4f", c.CoveredFrac))
	}
	files["figure3.csv"] = f3

	// Figure 4: both bound CDFs.
	_, lower, upper := r.Figure4()
	files["figure4_lower.csv"] = cdfTable(lower, "active_fraction")
	files["figure4_upper.csv"] = cdfTable(upper, "active_fraction")

	// Figure 5: classification.
	f5 := &report.Table{Header: []string{"pop", "class"}}
	classes := r.Figure5()
	var popNames []string
	for p := range classes {
		popNames = append(popNames, p)
	}
	sort.Strings(popNames)
	for _, p := range popNames {
		f5.AddRow(p, string(classes[p]))
	}
	files["figure5.csv"] = f5

	// Figures 6 and 7: relative-volume CDFs and pairwise differences.
	for name, cdf := range r.Figure6() {
		files["figure6_"+slug(name)+".csv"] = cdfTable(cdf, "relative_volume")
	}
	for name, cdf := range r.Figure7() {
		files["figure7_"+slug(name)+".csv"] = cdfTable(cdf, "volume_difference")
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, t := range files {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		err = t.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// cdfTable samples a CDF into (x, cumulative_fraction) rows.
func cdfTable(c *analysis.CDF, xName string) *report.Table {
	t := &report.Table{Header: []string{xName, "cumulative_fraction"}}
	for _, pt := range c.Points(200) {
		t.AddRow(fmt.Sprintf("%g", pt[0]), fmt.Sprintf("%.5f", pt[1]))
	}
	return t
}

// slug makes a dataset name filesystem-safe.
func slug(name string) string {
	out := make([]rune, 0, len(name))
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			out = append(out, r)
		case r >= 'A' && r <= 'Z':
			out = append(out, r+32)
		case r == ' ', r == '-', r == '∪':
			out = append(out, '_')
		}
	}
	return string(out)
}
