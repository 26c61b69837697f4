// Package conformance is the repository's correctness backstop: it pins
// the behaviour of the whole pipeline — simulator, admission designs,
// sweep engine, fluid model — so that refactors and optimisations cannot
// silently drift the results the paper reproduction rests on. It is all
// tests: no program imports it, so its helpers live in _test.go files.
//
// It has three layers:
//
//  1. Golden-figure regression (golden_test.go): every figure/table
//     experiment of internal/experiments is re-run at a reduced but fully
//     deterministic scale (experiments.Conformance()) and its CSV output
//     is diffed against a checked-in golden under testdata/. Run
//     `go test ./internal/conformance -update` to regenerate goldens
//     after an intentional behaviour change.
//
//  2. Paired comparisons (pair_test.go): one question answered twice — the
//     numerically solved Markov model and the packet simulator from one
//     shared M/M-style config, the packet and hybrid engines on the same,
//     the serial and a sharded plan of any scenario — whose seed-averaged
//     metrics must agree within one documented Envelope.
//
//  3. Invariant and fuzz checks (invariants subpackage, plus go test
//     -fuzz targets in internal/sim, internal/netsim, internal/admission
//     and internal/stats): structural properties that must hold for every
//     input, not just the golden scenarios.
//
// TESTING.md at the repository root documents the workflow and the
// tolerance policy.
package conformance

import (
	"fmt"
	"strconv"
	"strings"
)

// Tolerance bounds the acceptable drift of one numeric cell: a got value
// g matches a golden value w when |g-w| <= Abs + Rel*|w|. The zero value
// demands exact string equality (no numeric parsing at all), which is the
// right spec for outputs that are a pure function of the code, where any
// difference means behaviour changed.
type Tolerance struct {
	Rel, Abs float64
}

// Exact reports whether this tolerance demands byte-equal cells.
func (tol Tolerance) Exact() bool { return tol.Rel == 0 && tol.Abs == 0 }

// String renders the tolerance for reports.
func (tol Tolerance) String() string {
	if tol.Exact() {
		return "exact"
	}
	return fmt.Sprintf("rel=%g abs=%g", tol.Rel, tol.Abs)
}

// cellMatches applies the tolerance to one pair of cells. Non-numeric
// cells always require string equality.
func (tol Tolerance) cellMatches(want, got string) bool {
	if want == got {
		return true
	}
	if tol.Exact() {
		return false
	}
	w, errW := strconv.ParseFloat(want, 64)
	g, errG := strconv.ParseFloat(got, 64)
	if errW != nil || errG != nil {
		return false
	}
	d := g - w
	if d < 0 {
		d = -d
	}
	aw := w
	if aw < 0 {
		aw = -aw
	}
	return d <= tol.Abs+tol.Rel*aw
}

// CellDiff is one mismatched cell of a CSV comparison.
type CellDiff struct {
	Row, Col  int // 0-based; row 0 is the header
	ColName   string
	Want, Got string
}

// DiffCSV compares two CSV documents cell by cell under tol. It returns
// the mismatches (nil when the documents agree) plus a structural error
// when the documents cannot even be aligned (different row or column
// counts), which no tolerance can excuse.
func DiffCSV(want, got string, tol Tolerance) ([]CellDiff, error) {
	wl := splitLines(want)
	gl := splitLines(got)
	if len(wl) != len(gl) {
		return nil, fmt.Errorf("row count: golden has %d rows, got %d", len(wl), len(gl))
	}
	var header []string
	var diffs []CellDiff
	for r := range wl {
		wc := strings.Split(wl[r], ",")
		gc := strings.Split(gl[r], ",")
		if r == 0 {
			header = wc
		}
		if len(wc) != len(gc) {
			return nil, fmt.Errorf("row %d: golden has %d columns, got %d", r, len(wc), len(gc))
		}
		for c := range wc {
			if tol.cellMatches(wc[c], gc[c]) {
				continue
			}
			d := CellDiff{Row: r, Col: c, Want: wc[c], Got: gc[c]}
			if c < len(header) {
				d.ColName = header[c]
			}
			diffs = append(diffs, d)
		}
	}
	return diffs, nil
}

// splitLines splits on newlines, dropping a single trailing empty line so
// a missing final newline does not count as a structural difference.
func splitLines(s string) []string {
	lines := strings.Split(s, "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	return lines
}

// RenderDiff formats a cell-diff list as a readable side-by-side report:
// one line per mismatch with row, column name, golden and got values.
// Reports longer than maxLines are truncated with a count of the rest.
func RenderDiff(diffs []CellDiff, tol Tolerance, maxLines int) string {
	if len(diffs) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d cell(s) differ (tolerance %s):\n", len(diffs), tol)
	fmt.Fprintf(&b, "  %-5s %-16s %-14s %-14s\n", "row", "column", "golden", "got")
	for i, d := range diffs {
		if maxLines > 0 && i >= maxLines {
			fmt.Fprintf(&b, "  ... and %d more\n", len(diffs)-i)
			break
		}
		name := d.ColName
		if name == "" {
			name = fmt.Sprintf("col%d", d.Col)
		}
		fmt.Fprintf(&b, "  %-5d %-16s %-14s %-14s\n", d.Row, name, d.Want, d.Got)
	}
	return b.String()
}

// Compare diffs got against want under tol and returns a single error
// carrying the rendered report (nil on agreement).
func Compare(want, got string, tol Tolerance) error {
	diffs, err := DiffCSV(want, got, tol)
	if err != nil {
		return err
	}
	if len(diffs) == 0 {
		return nil
	}
	return fmt.Errorf("%s", RenderDiff(diffs, tol, 20))
}
