// Package geo provides the planar geometry primitives used by the
// simulator: points, rectangles, and a uniform-grid spatial index for
// neighbor queries over node deployments.
//
// The paper deploys nodes in a square sensing field measured in feet; all
// coordinates here are float64 feet.
package geo

import (
	"fmt"
	"math"
	"slices"
)

// Point is a location in the sensing field, in feet.
type Point struct {
	X, Y float64
}

// String implements fmt.Stringer.
func (p Point) String() string {
	return fmt.Sprintf("(%.1f, %.1f)", p.X, p.Y)
}

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Dist2 returns the squared Euclidean distance between p and q. It avoids
// the square root for comparisons on hot paths.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point { return Point{p.X * k, p.Y * k} }

// Rect is an axis-aligned rectangle. Min is inclusive, Max exclusive for
// containment purposes, matching half-open interval convention.
type Rect struct {
	Min, Max Point
}

// Square returns a side × side field anchored at the origin.
func Square(side float64) Rect {
	return Rect{Min: Point{0, 0}, Max: Point{side, side}}
}

// Width returns the horizontal extent of r.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of r.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies inside r.
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X < r.Max.X && p.Y >= r.Min.Y && p.Y < r.Max.Y
}

// Clamp returns p moved to the nearest point inside r (on the boundary if
// p is outside).
func (r Rect) Clamp(p Point) Point {
	return Point{
		X: math.Min(math.Max(p.X, r.Min.X), math.Nextafter(r.Max.X, r.Min.X)),
		Y: math.Min(math.Max(p.Y, r.Min.Y), math.Nextafter(r.Max.Y, r.Min.Y)),
	}
}

// Index is a uniform-grid spatial index over a fixed set of points. It
// answers "which points are within radius r of p" in expected O(k) for k
// results, assuming roughly uniform deployments, which is what the paper's
// random deployments produce.
//
// Build one with NewIndex; the index does not support mutation because
// deployments in this system are static for the lifetime of a run.
type Index struct {
	bounds   Rect
	cellSize float64
	cols     int
	rows     int
	cells    [][]int32
	points   []Point
}

// NewIndex builds an index over points within bounds, with grid cells sized
// for queries of roughly queryRadius. A zero or negative queryRadius
// defaults the cell size to bounds-width/16.
func NewIndex(bounds Rect, points []Point, queryRadius float64) *Index {
	cell := queryRadius
	if cell <= 0 {
		cell = bounds.Width() / 16
	}
	if cell <= 0 {
		cell = 1
	}
	cols := int(math.Ceil(bounds.Width()/cell)) + 1
	rows := int(math.Ceil(bounds.Height()/cell)) + 1
	if cols < 1 {
		cols = 1
	}
	if rows < 1 {
		rows = 1
	}
	idx := &Index{
		bounds:   bounds,
		cellSize: cell,
		cols:     cols,
		rows:     rows,
		cells:    make([][]int32, cols*rows),
		points:   points,
	}
	for i, p := range points {
		c := idx.cellOf(p)
		idx.cells[c] = append(idx.cells[c], int32(i))
	}
	return idx
}

func (idx *Index) cellOf(p Point) int {
	cx := int((p.X - idx.bounds.Min.X) / idx.cellSize)
	cy := int((p.Y - idx.bounds.Min.Y) / idx.cellSize)
	if cx < 0 {
		cx = 0
	}
	if cx >= idx.cols {
		cx = idx.cols - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= idx.rows {
		cy = idx.rows - 1
	}
	return cy*idx.cols + cx
}

// Within appends to dst the indices (into the points slice given to
// NewIndex) of all points within radius r of p, excluding any index equal
// to exclude (pass a negative exclude to keep all). The returned order is
// deterministic: ascending point index.
func (idx *Index) Within(p Point, r float64, exclude int, dst []int) []int {
	if r < 0 {
		return dst
	}
	r2 := r * r
	minCX := int((p.X - r - idx.bounds.Min.X) / idx.cellSize)
	maxCX := int((p.X + r - idx.bounds.Min.X) / idx.cellSize)
	minCY := int((p.Y - r - idx.bounds.Min.Y) / idx.cellSize)
	maxCY := int((p.Y + r - idx.bounds.Min.Y) / idx.cellSize)
	if minCX < 0 {
		minCX = 0
	}
	if minCY < 0 {
		minCY = 0
	}
	if maxCX >= idx.cols {
		maxCX = idx.cols - 1
	}
	if maxCY >= idx.rows {
		maxCY = idx.rows - 1
	}
	start := len(dst)
	for cy := minCY; cy <= maxCY; cy++ {
		for cx := minCX; cx <= maxCX; cx++ {
			for _, pi := range idx.cells[cy*idx.cols+cx] {
				i := int(pi)
				if i == exclude {
					continue
				}
				if idx.points[i].Dist2(p) <= r2 {
					dst = append(dst, i)
				}
			}
		}
	}
	sortInts(dst[start:])
	return dst
}

// Len returns the number of indexed points.
func (idx *Index) Len() int { return len(idx.points) }

// Point returns the i-th indexed point.
func (idx *Index) Point(i int) Point { return idx.points[i] }

// sortInts is an insertion sort; Within result sets are small (node
// neighborhoods), where insertion sort beats sort.Ints and avoids the
// interface allocation.
func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

// Grid is an incremental uniform hash grid over points in unbounded
// space: unlike Index it needs no bounds up front, accepts points
// anywhere (including outside any nominal field, e.g. wormhole
// endpoints), and supports Add after construction. The radio medium
// uses it to build the link tables of radios and fixed injection points
// in O(neighbors) instead of O(N).
//
// Determinism contract: Candidates visits grid cells in a fixed order
// (row-major over the query box) and then sorts the gathered indices
// ascending, so for any query the result order equals the order a
// brute-force scan over all points in insertion order would produce
// (filtered to the candidate superset). Callers that must preserve a
// historical visit order — and therefore rng draw order — apply their
// own exact distance predicate to the candidates.
type Grid struct {
	cell  float64
	cells map[gridKey][]int32
	n     int
}

type gridKey struct{ cx, cy int32 }

// NewGrid builds an empty grid with the given cell size, which should
// be about the query radius passed to Candidates (one cell ring then
// covers the query box). It panics on a non-positive cell size.
func NewGrid(cell float64) *Grid {
	if cell <= 0 {
		panic(fmt.Sprintf("geo: non-positive grid cell size %v", cell))
	}
	return &Grid{cell: cell, cells: make(map[gridKey][]int32)}
}

func (g *Grid) keyOf(p Point) gridKey {
	return gridKey{cx: cellCoord(p.X, g.cell), cy: cellCoord(p.Y, g.cell)}
}

// cellCoord maps a coordinate to its cell index, clamped into int32
// range so far-out points (degenerate but legal) land in edge cells
// rather than overflowing.
func cellCoord(v, cell float64) int32 {
	c := math.Floor(v / cell)
	if c < math.MinInt32 {
		return math.MinInt32
	}
	if c > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(c)
}

// Add inserts a point and returns its index (insertion order).
func (g *Grid) Add(p Point) int {
	i := g.n
	g.n++
	k := g.keyOf(p)
	g.cells[k] = append(g.cells[k], int32(i))
	return i
}

// Len returns the number of points added.
func (g *Grid) Len() int { return g.n }

// Candidates appends to dst the indices of every point whose cell
// intersects the box p ± r — a superset of the points within distance
// r of p — in ascending index order. It does no exact distance
// filtering: the caller applies its own predicate, keeping whatever
// float semantics it had before the grid existed.
func (g *Grid) Candidates(p Point, r float64, dst []int32) []int32 {
	if r < 0 {
		return dst
	}
	minCX := cellCoord(p.X-r, g.cell)
	maxCX := cellCoord(p.X+r, g.cell)
	minCY := cellCoord(p.Y-r, g.cell)
	maxCY := cellCoord(p.Y+r, g.cell)
	start := len(dst)
	for cy := minCY; ; cy++ {
		for cx := minCX; ; cx++ {
			dst = append(dst, g.cells[gridKey{cx, cy}]...)
			if cx == maxCX {
				break
			}
		}
		if cy == maxCY {
			break
		}
	}
	// The gathered set is a concatenation of per-cell ascending runs;
	// pdqsort exploits those runs and allocates nothing.
	slices.Sort(dst[start:])
	return dst
}
