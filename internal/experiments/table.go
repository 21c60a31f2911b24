// Package experiments regenerates every figure- and theorem-level claim
// of the paper as a table (DESIGN.md §4, EXPERIMENTS.md). Each experiment
// E1–E10 is a pure generator: deterministic, seeded, and cheap enough to
// re-run on every invocation of cmd/experiments.
package experiments

import (
	"fmt"
	"strings"
)

// Table is one experiment's output.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row of stringified cells.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Render formats the table as aligned text with a markdown-style header.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len([]rune(c))
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if w := len([]rune(cell)); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Generator produces one experiment table.
type Generator func() (*Table, error)

// Entry is one experiment of the Registry: its id, the title of the
// table it generates, and its generator.
type Entry struct {
	ID    string
	Title string
	Gen   Generator
}

// Registry lists the experiments in presentation order. Each title is
// the one its table carries, so a listing needs no generator run.
func Registry() []Entry {
	return []Entry{
		{"E1", "Fig. 1 — hidden paths block decisions in Opt0 (n = depth+3)", E1HiddenPath},
		{"E2", "Fig. 2 / Lemma 2 — hidden capacity and the constructed run r′", E2HiddenCapacity},
		{"E3", "Fig. 3 / Lemmas 1+3 — forcing certificates at every Optmin-undecided node", E3ForcedDecisions},
		{"E4", "Fig. 4 — u-Pmin decides at 2; all known protocols need ⌊t/k⌋+1", E4Separation},
		{"E5", "Fig. 5 / Lemma 4 — Div σ and Sperner's lemma", E5Sperner},
		{"E6", "Prop. 1 / Thm. 3 — decision-time bounds (500 seeded random adversaries per row)", E6Bounds},
		{"E7", "Thm. 1 — Optmin dominates everything; no deviation beats it", E7Unbeatability},
		{"E8", "Prop. 2 — HC ≥ k ⟹ star complex (k−1)-connected (GF(2) homology)", E8StarConnectivity},
		{"E9", "Thm. 2 — last-decider domination of Optmin over the baselines", E9LastDecider},
		{"E10", "Lemma 6 — compact wire protocol: identical decisions, O(n log n) bits/pair", E10WireCost},
	}
}

// Run looks up and executes one experiment by id.
func Run(id string) (*Table, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e.Gen()
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}
