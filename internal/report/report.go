// Package report renders emulation studies — figure reproductions,
// policy comparisons, parameter sweeps — as a single self-contained
// HTML file with embedded SVG charts, the shareable artifact of a
// controller session (paper §4.3's "graphs summarizing the figures of
// merit").
package report

import (
	"fmt"
	"html/template"
	"io"
	"strings"

	"bce/internal/chart"
	"bce/internal/experiments"
	"bce/internal/harness"
	"bce/internal/metrics"
	"bce/internal/population"
)

// Report accumulates sections and renders them as one HTML document.
type Report struct {
	Title    string
	sections []section
}

type section struct {
	Heading string
	Prose   string
	SVG     template.HTML
	Table   template.HTML
}

// New starts an empty report.
func New(title string) *Report { return &Report{Title: title} }

// Len returns the number of sections added so far.
func (r *Report) Len() int { return len(r.sections) }

// AddFigure renders a reproduced paper figure: a line chart for sweeps
// (3+ x points), grouped bars otherwise, plus the data table.
func (r *Report) AddFigure(f *experiments.Figure) {
	c := chart.Chart{
		Title:  fmt.Sprintf("%s — %s", f.ID, f.Title),
		XLabel: f.XLabel,
		YLabel: f.YLabel,
	}
	var svg string
	if len(f.X) >= 3 && f.Labels != nil {
		for _, l := range f.Labels {
			c.Series = append(c.Series, chart.Series{Label: l, X: f.X, Y: f.Y[l]})
		}
		svg = c.LineSVG()
	} else {
		for _, l := range f.Labels {
			c.Series = append(c.Series, chart.Series{Label: l, Y: f.Y[l]})
		}
		for _, x := range f.X {
			c.Categories = append(c.Categories, fmt.Sprintf("%g", x))
		}
		svg = c.BarSVG()
	}

	var tb strings.Builder
	tb.WriteString("<table><tr><th>" + template.HTMLEscapeString(f.XLabel) + "</th>")
	for _, l := range f.Labels {
		tb.WriteString("<th>" + template.HTMLEscapeString(l) + "</th>")
	}
	tb.WriteString("</tr>\n")
	for i, x := range f.X {
		fmt.Fprintf(&tb, "<tr><td>%g</td>", x)
		for _, l := range f.Labels {
			fmt.Fprintf(&tb, "<td>%.4f</td>", f.Y[l][i])
		}
		tb.WriteString("</tr>\n")
	}
	tb.WriteString("</table>")

	r.sections = append(r.sections, section{
		Heading: f.ID + ": " + f.Title,
		Prose:   f.Notes,
		SVG:     template.HTML(svg), // chart output is generated, not user input
		Table:   template.HTML(tb.String()),
	})
}

// AddComparison renders a policy comparison as grouped bars over the
// five figures of merit plus the numeric table.
func (r *Report) AddComparison(heading string, cmp *harness.Comparison) {
	names := metrics.Names()
	c := chart.Chart{Title: heading, YLabel: "value (0 = good)", Categories: names[:]}
	for _, v := range cmp.Variants {
		agg := cmp.Aggs[v]
		c.Series = append(c.Series, chart.Series{Label: v, Y: agg.Mean[:]})
	}
	var tb strings.Builder
	tb.WriteString("<table><tr><th>policy</th>")
	for _, n := range names {
		tb.WriteString("<th>" + n + "</th>")
	}
	tb.WriteString("</tr>\n")
	for _, v := range cmp.Variants {
		agg := cmp.Aggs[v]
		fmt.Fprintf(&tb, "<tr><td>%s</td>", template.HTMLEscapeString(v))
		for i := range names {
			fmt.Fprintf(&tb, "<td>%.4f ± %.3f</td>", agg.Mean[i], agg.CI95[i])
		}
		tb.WriteString("</tr>\n")
	}
	tb.WriteString("</table>")
	r.sections = append(r.sections, section{
		Heading: heading,
		SVG:     template.HTML(c.BarSVG()),
		Table:   template.HTML(tb.String()),
	})
}

// AddPopulation renders a streaming population study: grouped bars of
// the population means over the five figures of merit, plus a table
// with confidence intervals and the paired-wins summary.
func (r *Report) AddPopulation(heading string, st *population.Study) {
	names := metrics.Names()
	c := chart.Chart{Title: heading, YLabel: "population mean (0 = good)", Categories: names[:]}
	for ci, combo := range st.Combos {
		ys := make([]float64, len(names))
		for m := range names {
			ys[m], _ = st.Mean(ci, m)
		}
		c.Series = append(c.Series, chart.Series{Label: combo.String(), Y: ys})
	}
	var tb strings.Builder
	tb.WriteString("<table><tr><th>policy</th>")
	for _, n := range names {
		tb.WriteString("<th>" + n + "</th>")
	}
	tb.WriteString("<th>failed</th></tr>\n")
	for ci, combo := range st.Combos {
		fmt.Fprintf(&tb, "<tr><td>%s</td>", template.HTMLEscapeString(combo.String()))
		for m := range names {
			mean, halfCI := st.Mean(ci, m)
			fmt.Fprintf(&tb, "<td>%.4f ± %.3f</td>", mean, halfCI)
		}
		fmt.Fprintf(&tb, "<td>%d</td></tr>\n", st.Aggs[ci].Failed)
	}
	tb.WriteString("</table>")
	tb.WriteString("<pre>" + template.HTMLEscapeString(st.WinsTable(2)+"\n"+st.WinsTable(4)) + "</pre>")
	r.sections = append(r.sections, section{
		Heading: heading,
		Prose:   fmt.Sprintf("%d scenarios sampled with seed %d.", st.Done, st.Seed),
		SVG:     template.HTML(c.BarSVG()),
		Table:   template.HTML(tb.String()),
	})
}

// AddSweep renders one metric of a parameter sweep as a line chart.
func (r *Report) AddSweep(heading string, sw *harness.SweepResult, metric string) {
	c := chart.Chart{Title: heading, XLabel: sw.Param, YLabel: metric}
	for _, v := range sw.Variants {
		xs, ys := sw.Series(v, metric)
		c.Series = append(c.Series, chart.Series{Label: v, X: xs, Y: ys})
	}
	var tb strings.Builder
	tb.WriteString("<pre>" + template.HTMLEscapeString(sw.Table(metric)) + "</pre>")
	r.sections = append(r.sections, section{
		Heading: heading,
		SVG:     template.HTML(c.LineSVG()),
		Table:   template.HTML(tb.String()),
	})
}

var page = template.Must(template.New("report").Parse(`<!doctype html>
<html><head><meta charset="utf-8"><title>{{.Title}}</title>
<style>
 body { font-family: sans-serif; max-width: 64em; margin: 2em auto; color: #222; }
 h1 { border-bottom: 2px solid #4e79a7; padding-bottom: 0.2em; }
 h2 { margin-top: 2em; }
 table { border-collapse: collapse; margin: 1em 0; }
 td, th { border: 1px solid #ccc; padding: 0.3em 0.7em; text-align: right; font-size: 0.9em; }
 th { background: #f0f4f8; }
 pre { background: #f7f7f7; padding: 1em; overflow-x: auto; }
 .prose { max-width: 48em; }
</style></head>
<body>
<h1>{{.Title}}</h1>
{{range .Sections}}
<h2>{{.Heading}}</h2>
{{if .Prose}}<p class="prose">{{.Prose}}</p>{{end}}
{{.SVG}}
{{.Table}}
{{end}}
</body></html>
`))

// Render writes the HTML document.
func (r *Report) Render(w io.Writer) error {
	return page.Execute(w, struct {
		Title    string
		Sections []section
	}{r.Title, r.sections})
}
