package experiments

import (
	"strings"
	"testing"
)

// Every experiment generator must run green and produce a non-trivial
// table; each generator internally asserts its paper-shape claims (who
// wins, bounds met, counts odd, certificates complete) and errors out on
// any deviation, so this test is the end-to-end reproduction gate.
func TestAllExperiments(t *testing.T) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Gen()
			if err != nil {
				t.Fatal(err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatal("empty table")
			}
			if tbl.ID != e.ID {
				t.Fatalf("table id %q under registry id %q", tbl.ID, e.ID)
			}
			if tbl.Title != e.Title {
				t.Fatalf("table title %q under registry title %q", tbl.Title, e.Title)
			}
			out := tbl.Render()
			if !strings.Contains(out, tbl.Title) {
				t.Error("render must include the title")
			}
			t.Logf("\n%s", out)
		})
	}
}

func TestRunByID(t *testing.T) {
	tbl, err := Run("E1")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.ID != "E1" {
		t.Fatalf("got %s", tbl.ID)
	}
	if _, err := Run("E99"); err == nil {
		t.Error("unknown id must error")
	}
}

func TestTableRenderAlignment(t *testing.T) {
	tbl := &Table{ID: "X", Title: "t", Columns: []string{"a", "long-column"}}
	tbl.AddRow("wide-cell", 1)
	out := tbl.Render()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4", len(lines))
	}
}

// TestDominationStrictWinCounts pins E7's and E9's "strict wins" column
// for the five baselines over the n=3, t=2 space: the number of points
// (E7) and runs (E9) Optmin[1] wins strictly, counted in full, not the
// length of the capped witness list.
func TestDominationStrictWinCounts(t *testing.T) {
	cases := []struct {
		gen  func() (*Table, error)
		want []string
	}{
		{E7Unbeatability, []string{"1944", "1344", "1944", "1344", "1944"}},
		{E9LastDecider, []string{"776", "481", "776", "481", "776"}},
	}
	for _, c := range cases {
		tbl, err := c.gen()
		if err != nil {
			t.Fatal(err)
		}
		col := len(tbl.Columns) - 1
		if tbl.Columns[col] != "strict wins" {
			t.Fatalf("%s: last column %q, want \"strict wins\"", tbl.ID, tbl.Columns[col])
		}
		for i, want := range c.want {
			if got := tbl.Rows[i][col]; got != want {
				t.Errorf("%s %s: %s strict wins, want %s", tbl.ID, tbl.Rows[i][0], got, want)
			}
		}
	}
}
