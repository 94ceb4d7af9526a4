package qtext

import (
	"strings"
	"testing"

	"condsel/internal/engine"
)

func testCatalog() *engine.Catalog {
	c := engine.NewCatalog()
	c.MustAddTable(&engine.Table{Name: "r", Cols: []*engine.Column{
		{Name: "a", Vals: []int64{1, 2, 3}},
		{Name: "b", Vals: []int64{4, 5, 6}},
	}})
	c.MustAddTable(&engine.Table{Name: "s", Cols: []*engine.Column{
		{Name: "a", Vals: []int64{1, 2}},
	}})
	return c
}

func TestParseJoinAndFilters(t *testing.T) {
	t.Parallel()
	c := testCatalog()
	q, err := Parse(c, "r.a = s.a AND r.b >= 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 2 {
		t.Fatalf("preds = %d", len(q.Preds))
	}
	if !q.Preds[0].IsJoin() {
		t.Fatalf("first pred not a join")
	}
	f := q.Preds[1]
	if f.IsJoin() || f.Lo != 5 || f.Hi != engine.MaxValue {
		t.Fatalf("filter parsed wrong: %+v", f)
	}
	if q.Tables != engine.NewTableSet(0, 1) {
		t.Fatalf("tables = %v", q.Tables)
	}
}

func TestParseOperatorForms(t *testing.T) {
	t.Parallel()
	c := testCatalog()
	cases := []struct {
		text   string
		lo, hi int64
	}{
		{"r.a = 5", 5, 5},
		{"r.a < 5", engine.MinValue, 4},
		{"r.a <= 5", engine.MinValue, 5},
		{"r.a > 5", 6, engine.MaxValue},
		{"r.a >= 5", 5, engine.MaxValue},
		{"r.a BETWEEN 2 AND 8", 2, 8},
		{"2 <= r.a <= 8", 2, 8},
		{"2 < r.a < 8", 3, 7},
		{"r.a = -3", -3, -3},
	}
	for _, tc := range cases {
		q, err := Parse(c, tc.text)
		if err != nil {
			t.Fatalf("%q: %v", tc.text, err)
		}
		p := q.Preds[0]
		if p.Lo != tc.lo || p.Hi != tc.hi {
			t.Errorf("%q: got [%d,%d], want [%d,%d]", tc.text, p.Lo, p.Hi, tc.lo, tc.hi)
		}
	}
}

func TestParseSQLPrefix(t *testing.T) {
	t.Parallel()
	c := testCatalog()
	q, err := Parse(c, "SELECT * FROM r, s WHERE r.a = s.a AND r.b <= 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Preds) != 2 {
		t.Fatalf("preds = %d", len(q.Preds))
	}
	// Case-insensitive keywords and the "x" separator of Query.String.
	q2, err := Parse(c, "select * from r x s where r.a = s.a")
	if err != nil {
		t.Fatal(err)
	}
	if len(q2.Preds) != 1 {
		t.Fatalf("preds = %d", len(q2.Preds))
	}
}

// TestRoundTrip: parsing a query's own String rendering reproduces it.
func TestRoundTrip(t *testing.T) {
	t.Parallel()
	c := testCatalog()
	orig, err := Parse(c, "r.a = s.a AND 2 <= r.b <= 5")
	if err != nil {
		t.Fatal(err)
	}
	again, err := Parse(c, orig.String())
	if err != nil {
		t.Fatalf("round trip parse of %q: %v", orig.String(), err)
	}
	if engine.PredsKey(orig.Preds, orig.All()) != engine.PredsKey(again.Preds, again.All()) {
		t.Fatalf("round trip changed query:\n%s\n%s", orig, again)
	}
}

func TestParseFromClauseExtraTables(t *testing.T) {
	t.Parallel()
	c := testCatalog()
	// Declaring both tables but predicating only one keeps the declared set.
	q, err := Parse(c, "SELECT * FROM r, s WHERE r.a = 1")
	if err != nil {
		t.Fatal(err)
	}
	if q.Tables != engine.NewTableSet(0, 1) {
		t.Fatalf("declared tables lost: %v", q.Tables)
	}
}

func TestParseErrors(t *testing.T) {
	t.Parallel()
	c := testCatalog()
	cases := []struct {
		text, wantSub string
	}{
		{"", "expected predicate"},
		{"r.a", "expected operator"},
		{"r.zzz = 1", "unknown attribute"},
		{"a = 1", "must be qualified"},
		{"r.a < s.a", "joins support ="},
		{"r.a = ", "expected right-hand side"},
		{"SELECT * FROM zzz WHERE r.a = 1", "unknown table"},
		{"SELECT * FROM r WHERE s.a = 1", "missing from FROM"},
		{"SELECT r.a FROM r WHERE r.a = 1", "expected * after SELECT"},
		{"SELECT * r WHERE r.a = 1", "expected FROM"},
		{"SELECT * FROM r r.a = 1", "expected WHERE"},
		{"r.a = 1 r.b = 2", "unexpected"},
		{"r.a BETWEEN 1 2", "expected AND"},
		{"5 <= r.a", "expected <= closing"},
		{"5 = r.a", "expected <= after leading constant"},
		{"r.a = 1 AND @", "unexpected character"},
		{"r.a BETWEEN r.b AND 3", "expected constant after BETWEEN"},
		{"r.a > 9223372036854775807", `strict bound "> 9223372036854775807" leaves the int64 range`},
		{"r.a < -9223372036854775808", `strict bound "< -9223372036854775808" leaves the int64 range`},
		{"9223372036854775807 < r.a <= 5", `strict bound "9223372036854775807 <" leaves the int64 range`},
		{"1 <= r.a < -9223372036854775808", `strict bound "< -9223372036854775808" leaves the int64 range`},
		{"r.a BETWEEN - AND -", `bad number "-"`},
		{"r.a BETWEEN 99999999999999999999 AND 5", `bad number "99999999999999999999"`},
		{"r.a = 1 >= 2", `unexpected ">=" at position 8`},
	}
	for _, tc := range cases {
		_, err := Parse(c, tc.text)
		if err == nil {
			t.Errorf("%q: expected error", tc.text)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%q: error %q missing %q", tc.text, err, tc.wantSub)
		}
	}
}

func TestParseEvaluates(t *testing.T) {
	t.Parallel()
	c := testCatalog()
	q, err := Parse(c, "r.a = s.a AND r.b >= 5")
	if err != nil {
		t.Fatal(err)
	}
	ev := engine.NewEvaluator(c)
	// r rows (2,5),(3,6) pass the filter; s has a∈{1,2} → only r.a=2 joins.
	if got := ev.Count(q.Tables, q.Preds, q.All()); got != 1 {
		t.Fatalf("count = %v, want 1", got)
	}
}
