package experiments

import "testing"

func TestRegistryComplete(t *testing.T) {
	want := []string{"T1", "T2", "T3", "F1", "F2", "F3", "F4", "F5", "F6", "F7", "F8", "F9", "F10", "F11", "X1", "X2", "X3", "X4", "X5", "X6", "X7"}
	all := All()
	if len(all) != len(want) {
		ids := make([]string, len(all))
		for i, e := range all {
			ids[i] = e.ID
		}
		t.Fatalf("registry has %v, want %v", ids, want)
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing", id)
		}
	}
	// Ordering: tables first, figures numeric.
	if all[0].ID != "T1" || all[3].ID != "F1" || all[12].ID != "F10" {
		t.Errorf("ordering wrong: %v", idsOf(all))
	}
	for _, e := range all {
		if e.Title == "" || e.Reconstructs == "" || e.Run == nil {
			t.Errorf("experiment %s incompletely described", e.ID)
		}
	}
}

func idsOf(es []Experiment) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("F99"); ok {
		t.Fatal("unknown ID should not resolve")
	}
}

// The headline claim at a moderate scale: Hibernator saves energy and
// meets the goal where the baselines either save little or violate it.
func TestHeadlineShapeOLTP(t *testing.T) {
	if testing.Short() {
		t.Skip("bake-off takes tens of seconds")
	}
	b, err := memoBakeoff(Opts{Scale: 0.5, Seed: 3}, "oltp")
	if err != nil {
		t.Fatal(err)
	}
	base := b.base()
	hib := b.results["Hibernator"]
	if s := hib.SavingsVs(base); s < 0.05 {
		t.Errorf("Hibernator OLTP savings %.2f, want >= 0.05 at the tight 1.3x goal", s)
	}
	if hib.MeanResp > b.goal {
		t.Errorf("Hibernator mean %.4f exceeds goal %.4f", hib.MeanResp, b.goal)
	}
	tpm := b.results["TPM"]
	if s := tpm.SavingsVs(base); s > 0.15 {
		t.Errorf("TPM saves %.2f on OLTP; expected little saving (<0.15)", s)
	}
}

func TestSplitID(t *testing.T) {
	cases := []struct {
		id   string
		pfx  string
		n    int
		less string // an ID that must sort after
	}{
		{"T1", "T", 1, "T2"},
		{"F2", "F", 2, "F10"},
		{"T3", "T", 3, "F1"},
	}
	for _, c := range cases {
		p, n := splitID(c.id)
		if p != c.pfx || n != c.n {
			t.Errorf("splitID(%s) = %s,%d", c.id, p, n)
		}
		if !idLess(c.id, c.less) {
			t.Errorf("%s should sort before %s", c.id, c.less)
		}
	}
	if idLess("F1", "T1") {
		t.Error("tables must sort before figures")
	}
}
