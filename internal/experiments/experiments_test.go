package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses an integer table cell.
func cellInt(t *testing.T, row []string, col int) int64 {
	t.Helper()
	v, err := strconv.ParseInt(strings.TrimSuffix(row[col], "+"), 10, 64)
	if err != nil {
		t.Fatalf("cell %q not an int: %v", row[col], err)
	}
	return v
}

func cellFloat(t *testing.T, row []string, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("cell %q not a float: %v", row[col], err)
	}
	return v
}

func TestFiguresRender(t *testing.T) {
	f1 := Fig1()
	if len(f1.Rows) < 5 || !strings.Contains(f1.String(), "two-input node") {
		t.Fatalf("Fig1:\n%s", f1)
	}
	f2 := Fig2()
	if len(f2.Rows) != 4 {
		t.Fatalf("Fig2 rows = %d", len(f2.Rows))
	}
	// The goal deletion retracts both instantiations.
	last := f2.Rows[len(f2.Rows)-1]
	if !strings.Contains(last[2], "PlusOX") || !strings.Contains(last[2], "TimesOX") {
		t.Fatalf("Fig2 final row: %v", last)
	}
	f3 := Fig3()
	if !strings.Contains(f3.String(), "P[PlusOX]") || !strings.Contains(f3.String(), "P[TimesOX]") {
		t.Fatalf("Fig3:\n%s", f3)
	}
	// Shared Goal alpha chain: exactly 3 alpha memories for 4 CEs.
	chains := 0
	for _, row := range f3.Rows {
		if strings.Contains(row[0], "one-input chain") {
			chains++
		}
	}
	if chains != 3 {
		t.Fatalf("Fig3 alpha chains = %d, want 3 (Goal shared)", chains)
	}
}

func TestE1Shape(t *testing.T) {
	tab := E1PropagationDepth([]int{2, 8, 16}, 20)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// Rete activations per probe grow with chain length…
	a2 := cellInt(t, tab.Rows[0], 2)
	a16 := cellInt(t, tab.Rows[2], 2)
	if a16 <= a2 {
		t.Fatalf("rete activations should grow with n: n=2→%d, n=16→%d", a2, a16)
	}
	// Core's COND search grows only with the stored patterns (≈ one per
	// contributing class on this chain), staying within a linear bound.
	c16 := cellInt(t, tab.Rows[2], 4)
	if c16 > 2*16+4 {
		t.Fatalf("core COND checks exceed the linear pattern bound: n=16→%d", c16)
	}
	// Core maintenance per probe stays constant: matching patterns
	// propagate only to variable-sharing condition elements (the chain's
	// single neighbour), and maintenance follows the conflict-set update
	// rather than preceding it.
	m2 := cellInt(t, tab.Rows[0], 5)
	m16 := cellInt(t, tab.Rows[2], 5)
	if m16 != m2 {
		t.Fatalf("maintenance ops should stay flat: n=2→%d, n=16→%d", m2, m16)
	}
}

func TestE2AllMatchersProduceSameInstantiations(t *testing.T) {
	tab := E2MatchTime([]int{10}, 200)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	inst := cellInt(t, tab.Rows[0], 7)
	for _, row := range tab.Rows[1:] {
		if got := cellInt(t, row, 7); got != inst {
			t.Fatalf("instantiation counts disagree: %v", tab.Rows)
		}
	}
	// requery recomputes joins; core must compute strictly fewer.
	var joinsRequery, joinsCore int64
	for _, row := range tab.Rows {
		switch row[2] {
		case "requery":
			joinsRequery = cellInt(t, row, 4)
		case "core":
			joinsCore = cellInt(t, row, 4)
		}
	}
	if joinsCore >= joinsRequery {
		t.Fatalf("core joins (%d) should undercut requery joins (%d)", joinsCore, joinsRequery)
	}
}

func TestE3Shape(t *testing.T) {
	tab := E3Space([]int{10}, 400)
	var requeryStored, reteStored, coreStored int64 = -1, -1, -1
	for _, row := range tab.Rows {
		switch row[2] {
		case "requery":
			requeryStored = cellInt(t, row, 3)
		case "rete":
			reteStored = cellInt(t, row, 3)
		case "core":
			coreStored = cellInt(t, row, 3)
		}
	}
	if requeryStored != 0 {
		t.Fatalf("requery stores %d items, want 0", requeryStored)
	}
	if reteStored == 0 || coreStored == 0 {
		t.Fatalf("rete (%d) and core (%d) must store intermediate state", reteStored, coreStored)
	}
}

func TestE4FalseDropsGrowWithOverlap(t *testing.T) {
	tab := E4FalseDrops([]float64{0, 0.9}, 200)
	var markerLow, markerHigh, coreHigh int64 = -1, -1, -1
	for _, row := range tab.Rows {
		fd := cellInt(t, row, 3)
		switch {
		case row[1] == "marker" && row[0] == "0.00":
			markerLow = fd
		case row[1] == "marker" && row[0] == "0.90":
			markerHigh = fd
		case row[1] == "core" && row[0] == "0.90":
			coreHigh = fd
		}
	}
	if markerHigh <= markerLow {
		t.Fatalf("marker false drops should grow with overlap: %d → %d", markerLow, markerHigh)
	}
	if coreHigh >= markerHigh {
		t.Fatalf("core false drops (%d) should undercut marker (%d)", coreHigh, markerHigh)
	}
}

// TestE6AllWorkloadsSerializable is the §5.2 oracle: ten concurrent runs
// of every workload under every matcher and pool size must each end in
// one of the exhaustively enumerated serial outcomes.
func TestE6AllWorkloadsSerializable(t *testing.T) {
	const runs = 10
	tab := E6Serializability(runs)
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 workloads", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[4] != "yes" {
			t.Fatalf("serializability violated: %v", row)
		}
		if got, want := cellInt(t, row, 3), int64(runs*5*len(e6Workers)); got != want {
			t.Fatalf("%s: %d concurrent runs, want %d (5 matchers × %v workers × %d)", row[0], got, want, e6Workers, runs)
		}
	}
}

func TestE7Shape(t *testing.T) {
	tab := E7ConcurrentThroughput(4, 16, []int{1, 4})
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if got := cellInt(t, row, 4); got != 16 {
			t.Fatalf("all tasks must fire exactly once: %v", row)
		}
	}
}

func TestE8ScheduleCounts(t *testing.T) {
	tab := E8ScheduleCount()
	check := map[string][2]int64{
		"2 independent": {2, 1},  // 2! schedules, 1 state
		"3 independent": {6, 1},  // 3! schedules, 1 state
		"4 independent": {24, 1}, // 4! schedules, 1 state
		"2 conflicting": {2, 2},  // each schedule its own state
		"3 conflicting": {3, 3},
	}
	for _, row := range tab.Rows {
		want, ok := check[row[0]]
		if !ok {
			continue
		}
		if cellInt(t, row, 2) != want[0] || cellInt(t, row, 3) != want[1] {
			t.Fatalf("schedule counts for %q: %v, want %v", row[0], row, want)
		}
	}
}

func TestE9MatchersAgree(t *testing.T) {
	tab := E9Negation(150)
	if strings.Contains(tab.Note, "DISAGREE") {
		t.Fatalf("negation churn disagreement:\n%s", tab)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestE10IncrementalCheaper(t *testing.T) {
	tab := E10ViewMaintenance(150)
	inc := cellInt(t, tab.Rows[0], 2)
	re := cellInt(t, tab.Rows[1], 2)
	if inc >= re {
		t.Fatalf("incremental scans (%d) should undercut recomputation (%d)", inc, re)
	}
	// Both strategies agree on the final view size.
	if tab.Rows[0][3] != tab.Rows[1][3] {
		t.Fatalf("final view sizes differ: %v", tab.Rows)
	}
}

func TestE11TreeFindsSameCandidates(t *testing.T) {
	tab := E11RuleQuery(200, 100)
	if tab.Rows[0][2] != tab.Rows[1][2] {
		t.Fatalf("R-tree and scan disagree on candidates: %v", tab.Rows)
	}
}

func TestE12SharedNetworkWins(t *testing.T) {
	tab := E12SharedNetwork(4, 3, 300)
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if strings.Contains(tab.Note, "WARNING") {
		t.Fatalf("instantiation counts diverged:\n%s", tab)
	}
	plainAct := cellInt(t, tab.Rows[0], 2)
	sharedAct := cellInt(t, tab.Rows[1], 2)
	if sharedAct >= plainAct {
		t.Fatalf("sharing should cut activations: %d vs %d", plainAct, sharedAct)
	}
	plainTok := cellInt(t, tab.Rows[0], 3)
	sharedTok := cellInt(t, tab.Rows[1], 3)
	if sharedTok >= plainTok {
		t.Fatalf("sharing should cut tokens: %d vs %d", plainTok, sharedTok)
	}
}

func TestE13PotentialShape(t *testing.T) {
	tab := E13ConcurrencyPotential(32)
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	var indepPot, skewPot float64
	for _, row := range tab.Rows {
		switch row[0] {
		case "8 independent consumers":
			indepPot = cellFloat(t, row, 3)
		case "8 skewed consumers":
			skewPot = cellFloat(t, row, 3)
		}
	}
	if indepPot != 1.0 {
		t.Fatalf("independent potential = %v, want 1.0", indepPot)
	}
	if skewPot != 0.0 {
		t.Fatalf("skewed potential = %v, want 0.0", skewPot)
	}
}

func TestTableString(t *testing.T) {
	tab := Table{
		ID: "X", Title: "demo",
		Columns: []string{"a", "bb"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		Note:    "n",
	}
	out := tab.String()
	if !strings.Contains(out, "== X: demo ==") || !strings.Contains(out, "note: n") {
		t.Fatalf("table render:\n%s", out)
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full harness")
	}
	tables := All(0.1)
	if len(tables) != 15 { // the three figures and E1–E13 without the retired E5
		t.Fatalf("tables = %d", len(tables))
	}
	for _, tab := range tables {
		if len(tab.Rows) == 0 {
			t.Errorf("%s is empty", tab.ID)
		}
	}
}
