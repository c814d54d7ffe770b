package prodsys

import (
	"errors"
	"io"
	"strings"
	"testing"
)

const batchSrc = `
(literalize Emp name salary dno)
(literalize Dept dno dname)

(p staffed
    (Emp ^dno <d>)
    (Dept ^dno <d>)
  --> (halt))
`

func TestBatchCommit(t *testing.T) {
	for _, c := range MatcherCases() {
		t.Run(c.Name, func(t *testing.T) {
			sys, err := Load(batchSrc, Options{Matcher: c.Matcher, Out: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			ids, err := sys.Batch().
				Assert("Emp", "Ann", 100, 7).
				Assert("Emp", "Bob", 200, 7).
				Assert("Dept", 7, "Toy").
				Commit()
			if err != nil {
				t.Fatal(err)
			}
			if len(ids) != 3 {
				t.Fatalf("ids = %v", ids)
			}
			for i, id := range ids {
				if id == 0 {
					t.Fatalf("op %d: no tuple ID assigned", i)
				}
			}
			if keys := sys.ConflictKeys(); len(keys) != 2 {
				t.Fatalf("conflict keys = %v", keys)
			}
			// Retraction positions report zero; the join dissolves.
			ids2, err := sys.Batch().Retract("Dept", ids[2]).Commit()
			if err != nil {
				t.Fatal(err)
			}
			if len(ids2) != 1 || ids2[0] != 0 {
				t.Fatalf("retract ids = %v", ids2)
			}
			if keys := sys.ConflictKeys(); len(keys) != 0 {
				t.Fatalf("conflict keys after retract = %v", keys)
			}
		})
	}
}

func TestBatchNetZero(t *testing.T) {
	for _, c := range MatcherCases() {
		t.Run(c.Name, func(t *testing.T) {
			sys, err := Load(batchSrc, Options{Matcher: c.Matcher, Out: io.Discard})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Assert("Dept", 7, "Toy"); err != nil {
				t.Fatal(err)
			}
			// An Emp born and retracted within one batch must never
			// reach the matcher.
			b := sys.Batch().Assert("Emp", "Tmp", 1, 7)
			b.Retract("Emp", 1) // first Emp ID is 1
			if _, err := b.Commit(); err != nil {
				t.Fatal(err)
			}
			if keys := sys.ConflictKeys(); len(keys) != 0 {
				t.Fatalf("net-zero tuple matched: %v", keys)
			}
			if strings.Contains(sys.WM(), "Tmp") {
				t.Fatalf("net-zero tuple in WM:\n%s", sys.WM())
			}
		})
	}
}

func TestBatchBuildErrors(t *testing.T) {
	sys, err := Load(batchSrc, Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	// A build error poisons the batch; nothing applies at Commit.
	if _, err := sys.Batch().Assert("Ghost", 1).Assert("Dept", 7, "Toy").Commit(); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("want ErrUnknownClass, got %v", err)
	}
	if got := sys.WMClass("Dept"); got != nil {
		t.Fatalf("poisoned batch applied ops: %v", got)
	}
	if _, err := sys.Batch().Assert("Dept", 1, 2, 3).Commit(); !errors.Is(err, ErrArity) {
		t.Errorf("want ErrArity, got %v", err)
	}
	if _, err := sys.Assert("Ghost", 1); !errors.Is(err, ErrUnknownClass) {
		t.Errorf("single-op assert: want ErrUnknownClass, got %v", err)
	}
	if b := sys.Batch().Assert("Emp", "Ann", 1, 7); b.Len() != 1 {
		t.Fatalf("Len = %d", b.Len())
	}
	// An empty batch is a no-op.
	if ids, err := sys.Batch().Commit(); err != nil || len(ids) != 0 {
		t.Fatalf("empty batch: ids=%v err=%v", ids, err)
	}
	// A batch commits at most once.
	b2 := sys.Batch().Assert("Dept", 7, "Toy")
	if _, err := b2.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.Commit(); err == nil {
		t.Error("second Commit should fail")
	}
	if _, err := b2.Assert("Dept", 8, "Shoe").Commit(); err == nil {
		t.Error("Assert after Commit should fail")
	}
	if got := sys.WMClass("Dept"); len(got) != 1 {
		t.Fatalf("reused batch applied ops: %v", got)
	}
}

func TestBatchCounters(t *testing.T) {
	sys, err := Load(batchSrc, Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Batch().
		Assert("Emp", "Ann", 100, 7).
		Assert("Emp", "Bob", 200, 7).
		Assert("Dept", 7, "Toy").
		Commit(); err != nil {
		t.Fatal(err)
	}
	m := sys.Metrics()
	if m.Batch.Deltas != 1 {
		t.Errorf("Batch.Deltas = %d", m.Batch.Deltas)
	}
	if m.Batch.Tuples != 3 {
		t.Errorf("Batch.Tuples = %d", m.Batch.Tuples)
	}
	// Two classes, inserts only: one propagation group per class.
	if m.Batch.Propagations != 2 {
		t.Errorf("Batch.Propagations = %d", m.Batch.Propagations)
	}
	// The whole batch was one run of same-class assertions per class:
	// two bulk storage inserts, visible through the storage metrics.
	if m.Storage.BatchInserts != 2 {
		t.Errorf("Storage.BatchInserts = %d", m.Storage.BatchInserts)
	}
}

func TestBatchWithViews(t *testing.T) {
	sys, err := Load(batchSrc, Options{Out: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	views, err := sys.AttachViews(`
(literalize Emp name salary dno)
(literalize Dept dno dname)
(p staff (Emp ^name <n> ^dno <d>) (Dept ^dno <d> ^dname <m>) -->)`)
	if err != nil {
		t.Fatal(err)
	}
	// With an observer attached the batch degrades to per-op
	// application; the view must still track exactly.
	if _, err := sys.Batch().
		Assert("Emp", "Ann", 100, 7).
		Assert("Dept", 7, "Toy").
		Assert("Emp", "Bob", 200, 7).
		Commit(); err != nil {
		t.Fatal(err)
	}
	if n, _ := views.Len("staff"); n != 2 {
		rows, _ := views.Rows("staff")
		t.Fatalf("view size = %d: %v", n, rows)
	}
}

// TestBatchJoinKeysDoNotCollide: a batch groups tuples by the values
// they bind, so two tuples whose values differ must never share a group
// even when their spellings concatenate alike. Only A("a", "b\x004\x00c")
// joins the B tuple; A("a\x004\x00b", "c") must not inherit its match.
func TestBatchJoinKeysDoNotCollide(t *testing.T) {
	const src = `
(literalize A x y)
(literalize B x y)
(p r (A ^x <x> ^y <y>) (B ^x <x> ^y <y>) --> (halt))`
	for _, m := range Matchers() {
		sys, err := Load(src, Options{Matcher: m, Out: io.Discard})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Assert("B", "a", "b\x004\x00c"); err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Batch().Assert("A", "a", "b\x004\x00c").Assert("A", "a\x004\x00b", "c").Commit(); err != nil {
			t.Fatal(err)
		}
		if got := sys.ConflictKeys(); len(got) != 1 || got[0] != "r|1|1" {
			t.Errorf("%s: conflict set = %v, want [r|1|1]", m, got)
		}
	}
}
