package main

import (
	"fmt"
	"math"
	"sort"

	"eplace/internal/eco"
	"eplace/internal/netlist"
)

// The checks below are written from the netlist's data alone. They call
// no placer, legalizer or HPWL routine of the program, so a fault in
// those cannot hide itself.

const eps = 1e-6

// hpwl recomputes the weighted half-perimeter wirelength from cell
// centres, pin offsets and net weights (weight 0 counts as 1, the
// Bookshelf convention for nets without a .wts entry).
func hpwl(d *netlist.Design) float64 {
	total := 0.0
	for _, n := range d.Nets {
		if len(n.Pins) < 2 {
			continue
		}
		lx, ly := math.Inf(1), math.Inf(1)
		hx, hy := math.Inf(-1), math.Inf(-1)
		for _, pi := range n.Pins {
			p := d.Pins[pi]
			x, y := p.Ox, p.Oy
			if p.Cell >= 0 {
				x += d.Cells[p.Cell].X
				y += d.Cells[p.Cell].Y
			}
			lx, hx = math.Min(lx, x), math.Max(hx, x)
			ly, hy = math.Min(ly, y), math.Max(hy, y)
		}
		w := n.Weight
		if w == 0 {
			w = 1
		}
		total += w * ((hx - lx) + (hy - ly))
	}
	return total
}

// sameHPWL compares a reported HPWL with the recomputed one, allowing
// only summation-order rounding.
func sameHPWL(reported, recomputed float64) bool {
	return math.Abs(reported-recomputed) <= 1e-9*math.Max(1, math.Abs(recomputed))
}

type box struct{ lx, ly, hx, hy float64 }

func cellBox(c *netlist.Cell) box {
	return box{c.X - c.W/2, c.Y - c.H/2, c.X + c.W/2, c.Y + c.H/2}
}

// overlap reports a positive-area intersection.
func (a box) overlap(b box) bool {
	return math.Min(a.hx, b.hx)-math.Max(a.lx, b.lx) > eps && math.Min(a.hy, b.hy)-math.Max(a.ly, b.ly) > eps
}

// legality is the outcome of checkLegal.
type legality struct {
	err     error
	offsite int // standard cells whose left edge is off the row's site grid
}

// checkLegal rebuilds legality from Design.Rows: every movable standard
// cell sits on a row's y, within the row's x-extent, with the row's
// height, inside the region, overlapping no other cell of its row and no
// fixed object; every movable macro lies inside the region clear of
// fixed objects and other macros. Cells off the site grid are counted,
// not failed.
func checkLegal(d *netlist.Design) legality {
	if len(d.Rows) == 0 {
		return legality{err: fmt.Errorf("design has no rows")}
	}
	rows := make([]int, len(d.Rows))
	for i := range rows {
		rows[i] = i
	}
	sort.Slice(rows, func(a, b int) bool { return d.Rows[rows[a]].Y < d.Rows[rows[b]].Y })
	rowOf := func(y float64) int {
		k := sort.Search(len(rows), func(k int) bool { return d.Rows[rows[k]].Y >= y-eps })
		if k < len(rows) && math.Abs(d.Rows[rows[k]].Y-y) <= eps {
			return rows[k]
		}
		return -1
	}
	reg := box{d.Region.Lx, d.Region.Ly, d.Region.Hx, d.Region.Hy}
	inside := func(b box) bool {
		return b.lx >= reg.lx-eps && b.ly >= reg.ly-eps && b.hx <= reg.hx+eps && b.hy <= reg.hy+eps
	}
	var fixed, macros []int
	perRow := make([][]int, len(d.Rows))
	var out legality
	for i := range d.Cells {
		c := &d.Cells[i]
		switch {
		case c.Kind == netlist.Filler:
			return legality{err: fmt.Errorf("filler cell %d left in the design", i)}
		case c.Fixed:
			if c.W > 0 && c.H > 0 {
				fixed = append(fixed, i)
			}
		case c.Kind == netlist.Macro:
			macros = append(macros, i)
		default:
			b := cellBox(c)
			if !inside(b) {
				return legality{err: fmt.Errorf("cell %d (%s) outside the region", i, c.Name)}
			}
			r := rowOf(b.ly)
			if r < 0 {
				return legality{err: fmt.Errorf("cell %d (%s) bottom y=%v is on no row", i, c.Name, b.ly)}
			}
			row := &d.Rows[r]
			if math.Abs(c.H-row.Height) > eps {
				return legality{err: fmt.Errorf("cell %d (%s) height %v differs from row height %v", i, c.Name, c.H, row.Height)}
			}
			if b.lx < row.Lx-eps || b.hx > row.Hx+eps {
				return legality{err: fmt.Errorf("cell %d (%s) [%v,%v] outside row extent [%v,%v]", i, c.Name, b.lx, b.hx, row.Lx, row.Hx)}
			}
			if row.SiteW > 0 {
				k := (b.lx - row.Lx) / row.SiteW
				if math.Abs(k-math.Round(k)) > 1e-6 {
					out.offsite++
				}
			}
			perRow[r] = append(perRow[r], i)
		}
	}
	for r, cells := range perRow {
		sort.Slice(cells, func(a, b int) bool { return d.Cells[cells[a]].X < d.Cells[cells[b]].X })
		for k := 1; k < len(cells); k++ {
			if cellBox(&d.Cells[cells[k-1]]).overlap(cellBox(&d.Cells[cells[k]])) {
				return legality{err: fmt.Errorf("cells %d and %d overlap in row %d", cells[k-1], cells[k], r)}
			}
		}
	}
	// Fixed objects against the rows they cross.
	for _, fi := range fixed {
		fb := cellBox(&d.Cells[fi])
		for r := range d.Rows {
			row := &d.Rows[r]
			if row.Y >= fb.hy-eps || row.Y+row.Height <= fb.ly+eps {
				continue
			}
			cells := perRow[r]
			k := sort.Search(len(cells), func(k int) bool { return cellBox(&d.Cells[cells[k]]).hx > fb.lx+eps })
			if k < len(cells) && cellBox(&d.Cells[cells[k]]).overlap(fb) {
				return legality{err: fmt.Errorf("cell %d overlaps fixed object %d (%s)", cells[k], fi, d.Cells[fi].Name)}
			}
		}
	}
	for k, mi := range macros {
		mb := cellBox(&d.Cells[mi])
		if !inside(mb) {
			return legality{err: fmt.Errorf("macro %d (%s) outside the region", mi, d.Cells[mi].Name)}
		}
		for _, o := range append(append([]int(nil), fixed...), macros[k+1:]...) {
			if mb.overlap(cellBox(&d.Cells[o])) {
				return legality{err: fmt.Errorf("macro %d overlaps object %d", mi, o)}
			}
		}
		for i := range d.Cells {
			if c := &d.Cells[i]; !c.Fixed && c.Kind == netlist.StdCell && mb.overlap(cellBox(c)) {
				return legality{err: fmt.Errorf("macro %d overlaps cell %d", mi, i)}
			}
		}
	}
	return out
}

// positions snapshots the given cells' centres.
func positions(d *netlist.Design, cells []int) [][2]float64 {
	out := make([][2]float64, len(cells))
	for k, ci := range cells {
		out[k] = [2]float64{d.Cells[ci].X, d.Cells[ci].Y}
	}
	return out
}

// fixedCells lists the fixed cells of d.
func fixedCells(d *netlist.Design) []int {
	var out []int
	for i := range d.Cells {
		if d.Cells[i].Fixed {
			out = append(out, i)
		}
	}
	return out
}

// unmoved reports the first cell whose centre differs, bit for bit, from
// its snapshot, or -1.
func unmoved(d *netlist.Design, cells []int, before [][2]float64) int {
	for k, ci := range cells {
		if d.Cells[ci].X != before[k][0] || d.Cells[ci].Y != before[k][1] {
			return ci
		}
	}
	return -1
}

// outcome is one placement's verdict.
type outcome struct {
	hpwl    float64 // recomputed
	offsite int
	err     error
}

// checkPlacement runs the shared checks on a finished placement: the
// reported HPWL against the recomputed one, legality, and fixed cells
// left where they were.
func checkPlacement(d *netlist.Design, reportedHPWL float64, legal bool, fixed []int, fixedAt [][2]float64) outcome {
	o := outcome{hpwl: hpwl(d)}
	lg := checkLegal(d)
	o.offsite = lg.offsite
	switch {
	case !legal:
		o.err = fmt.Errorf("placer reports Legal=false")
	case lg.err != nil:
		o.err = fmt.Errorf("independent legality check: %w", lg.err)
	case !sameHPWL(reportedHPWL, o.hpwl):
		o.err = fmt.Errorf("reported HPWL %.17g, recomputed %.17g", reportedHPWL, o.hpwl)
	}
	if o.err == nil {
		if ci := unmoved(d, fixed, fixedAt); ci >= 0 {
			o.err = fmt.Errorf("fixed cell %d (%s) moved", ci, d.Cells[ci].Name)
		}
	}
	return o
}

// checkBlocks reports a movable cell overlapping any blocked region.
func checkBlocks(d *netlist.Design, blocks []eco.Block) error {
	for _, bl := range blocks {
		bb := box{bl.Lx, bl.Ly, bl.Hx, bl.Hy}
		for i := range d.Cells {
			c := &d.Cells[i]
			if !c.Fixed && c.Kind != netlist.Filler && cellBox(c).overlap(bb) {
				return fmt.Errorf("movable cell %d (%s) inside blocked region %+v", i, c.Name, bl)
			}
		}
	}
	return nil
}
