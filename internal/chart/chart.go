// Package chart renders line and bar charts as self-contained SVG,
// used by the HTML report generator and the web frontend. It is a
// deliberately small, dependency-free renderer: numeric axes with tick
// labels, multiple named series in a fixed palette, and a legend.
package chart

import (
	"fmt"
	"math"
	"strings"
)

// Series is one named line or bar group.
type Series struct {
	Label string
	X     []float64 // ignored for bar charts (categorical)
	Y     []float64
}

// Chart describes one plot.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Series []Series

	// Categories label the x positions of bar charts.
	Categories []string
}

var palette = []string{
	"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
	"#edc948", "#b07aa1", "#ff9da7",
}

// Every chart is width×height pixels, plotW×plotH of them inside the
// axes.
const (
	width        = 640
	height       = 360
	marginLeft   = 56
	marginRight  = 16
	marginTop    = 28
	marginBottom = 44

	plotW float64 = width - marginLeft - marginRight
	plotH float64 = height - marginTop - marginBottom
)

// yRange returns the y axis range: [0, max] padded (figures of merit
// live in [0,1]; other data gets 5% headroom).
func (c *Chart) yRange() (float64, float64) {
	maxY := 0.0
	for _, s := range c.Series {
		for _, y := range s.Y {
			if !math.IsNaN(y) && y > maxY {
				maxY = y
			}
		}
	}
	if maxY <= 0 {
		maxY = 1
	}
	if maxY > math.MaxFloat64/2 {
		maxY = math.MaxFloat64 / 2 // keep the 5% headroom finite
	}
	return 0, maxY * 1.05
}

func (c *Chart) xRange() (float64, float64) {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for _, x := range s.X {
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
	}
	if math.IsInf(lo, 1) {
		return 0, 1
	}
	if hi == lo {
		hi = lo + 1
	}
	return lo, hi
}

// frac maps v into [0,1] over [lo,hi], staying finite even when the
// span overflows float64 (halve both operands first).
func frac(v, lo, hi float64) float64 {
	span := hi - lo
	if math.IsInf(span, 0) {
		return (v/2 - lo/2) / (hi/2 - lo/2)
	}
	if span <= 0 {
		return 0
	}
	return (v - lo) / span
}

// ticks returns ~n round tick values covering [lo, hi].
func ticks(lo, hi float64, n int) []float64 {
	if hi <= lo || n < 2 || math.IsInf(hi-lo, 0) {
		return []float64{lo, hi}
	}
	raw := (hi - lo) / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	switch {
	case raw/mag < 1.5:
		step = mag
	case raw/mag < 3.5:
		step = 2 * mag
	case raw/mag < 7.5:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	var out []float64
	for v := math.Ceil(lo/step) * step; v <= hi+step/1e6; v += step {
		out = append(out, v)
	}
	return out
}

func fmtTick(v float64) string {
	av := math.Abs(v)
	switch {
	case v == 0:
		return "0"
	case av >= 1e6 || av < 1e-3:
		return fmt.Sprintf("%.1e", v)
	case av < 10:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.3f", v), "0"), ".")
	default:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.1f", v), "0"), ".")
	}
}

// LineSVG renders the chart as connected line series over numeric x.
func (c *Chart) LineSVG() string {
	var b strings.Builder
	c.header(&b)
	x0, x1 := c.xRange()
	y0, y1 := c.yRange()
	px := func(x float64) float64 { return marginLeft + frac(x, x0, x1)*plotW }
	py := func(y float64) float64 { return marginTop + plotH - frac(y, y0, y1)*plotH }

	c.axes(&b, x0, x1, y0, y1, true)

	for si, s := range c.Series {
		color := palette[si%len(palette)]
		var pts []string
		for i := range s.X {
			if i >= len(s.Y) || math.IsNaN(s.Y[i]) {
				continue
			}
			pts = append(pts, fmt.Sprintf("%.1f,%.1f", px(s.X[i]), py(s.Y[i])))
		}
		if len(pts) > 1 {
			fmt.Fprintf(&b, `<polyline fill="none" stroke="%s" stroke-width="2" points="%s"/>`,
				color, strings.Join(pts, " "))
			b.WriteByte('\n')
		}
		for _, p := range pts {
			xy := strings.Split(p, ",")
			fmt.Fprintf(&b, `<circle cx="%s" cy="%s" r="3" fill="%s"/>`, xy[0], xy[1], color)
			b.WriteByte('\n')
		}
	}
	c.legend(&b)
	b.WriteString("</svg>\n")
	return b.String()
}

// BarSVG renders the chart as grouped bars over categorical x
// (Categories); each series contributes one bar per category.
func (c *Chart) BarSVG() string {
	var b strings.Builder
	c.header(&b)
	y0, y1 := c.yRange()
	py := func(y float64) float64 { return marginTop + plotH - frac(y, y0, y1)*plotH }

	ncat := len(c.Categories)
	if ncat == 0 {
		for _, s := range c.Series {
			if len(s.Y) > ncat {
				ncat = len(s.Y)
			}
		}
	}
	if ncat == 0 {
		b.WriteString("</svg>\n")
		return b.String()
	}
	c.axes(&b, 0, 1, y0, y1, false)

	groupW := plotW / float64(ncat)
	barW := groupW * 0.8 / float64(len(c.Series))
	for si, s := range c.Series {
		color := palette[si%len(palette)]
		for i, y := range s.Y {
			if i >= ncat || math.IsNaN(y) {
				continue
			}
			x := marginLeft + float64(i)*groupW + groupW*0.1 + float64(si)*barW
			top := py(y)
			fmt.Fprintf(&b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"><title>%s: %.4g</title></rect>`,
				x, top, barW, marginTop+plotH-top, color, s.Label, y)
			b.WriteByte('\n')
		}
	}
	for i, cat := range c.Categories {
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" text-anchor="middle" font-size="11">%s</text>`,
			marginLeft+(float64(i)+0.5)*groupW, height-marginBottom+16, esc(cat))
		b.WriteByte('\n')
	}
	c.legend(&b)
	b.WriteString("</svg>\n")
	return b.String()
}

func (c *Chart) header(b *strings.Builder) {
	fmt.Fprintf(b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="sans-serif">`, width, height)
	b.WriteByte('\n')
	fmt.Fprintf(b, `<text x="%d" y="16" font-size="13" font-weight="bold">%s</text>`, marginLeft, esc(c.Title))
	b.WriteByte('\n')
}

func (c *Chart) axes(b *strings.Builder, x0, x1, y0, y1 float64, numericX bool) {
	// Frame.
	fmt.Fprintf(b, `<rect x="%d" y="%d" width="%.1f" height="%.1f" fill="none" stroke="#999"/>`,
		marginLeft, marginTop, plotW, plotH)
	b.WriteByte('\n')
	// Y ticks + gridlines.
	for _, v := range ticks(y0, y1, 5) {
		y := marginTop + plotH - frac(v, y0, y1)*plotH
		fmt.Fprintf(b, `<line x1="%d" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#eee"/>`,
			marginLeft, y, marginLeft+plotW, y)
		fmt.Fprintf(b, `<text x="%d" y="%.1f" text-anchor="end" font-size="11">%s</text>`,
			marginLeft-6, y+4, fmtTick(v))
		b.WriteByte('\n')
	}
	if numericX {
		for _, v := range ticks(x0, x1, 6) {
			x := marginLeft + frac(v, x0, x1)*plotW
			fmt.Fprintf(b, `<text x="%.1f" y="%d" text-anchor="middle" font-size="11">%s</text>`,
				x, height-marginBottom+16, fmtTick(v))
			b.WriteByte('\n')
		}
	}
	// Axis labels.
	fmt.Fprintf(b, `<text x="%.1f" y="%d" text-anchor="middle" font-size="12">%s</text>`,
		marginLeft+plotW/2, height-8, esc(c.XLabel))
	fmt.Fprintf(b, `<text x="14" y="%.1f" text-anchor="middle" font-size="12" transform="rotate(-90 14 %.1f)">%s</text>`,
		marginTop+plotH/2, marginTop+plotH/2, esc(c.YLabel))
	b.WriteByte('\n')
}

func (c *Chart) legend(b *strings.Builder) {
	x := marginLeft + 8
	for si, s := range c.Series {
		color := palette[si%len(palette)]
		fmt.Fprintf(b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`, x, marginTop+4, color)
		fmt.Fprintf(b, `<text x="%d" y="%d" font-size="11">%s</text>`, x+14, marginTop+13, esc(s.Label))
		b.WriteByte('\n')
		x += 14 + 8*len(s.Label) + 16
	}
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
