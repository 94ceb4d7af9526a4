// Package condsel implements cardinality estimation with statistics on
// query expressions (SITs) using the conditional selectivity framework of
// Bruno & Chaudhuri, "Conditional Selectivity for Statistics on Query
// Expressions" (SIGMOD 2004).
//
// The package estimates the result sizes of select-project-join queries
// over in-memory relations. Beyond ordinary per-column histograms it
// supports SITs — histograms built over the result of a join expression —
// and combines all available statistics through the paper's getSelectivity
// dynamic program, which searches the space of conditional-selectivity
// decompositions for the most accurate estimate under a pluggable error
// model (NInd, Diff, or the oracle Opt).
//
// # Quick start
//
//	db := condsel.GenerateSnowflake(condsel.SnowflakeConfig{Seed: 1, FactRows: 50000})
//	q, _ := db.Query().
//		Join("sales.customer_fk", "customer.id").
//		Filter("customer.hot", 9000, 10000).
//		Build()
//	pool := db.BuildStatistics([]*condsel.Query{q}, 2, nil) // SITs over ≤2-join expressions
//	est := db.NewEstimator(pool, condsel.Diff)
//	ans := est.Estimate(context.Background(), q) // cardinality, selectivity, provenance
//	fmt.Println(ans.Cardinality, ans.Provenance.Tier, db.ExactCardinality(q))
//
// The top-level types wrap the internal engine (columnar storage and exact
// evaluation), histogram, SIT, and search packages; see DESIGN.md for the
// full architecture.
package condsel

import (
	"fmt"

	"condsel/internal/datagen"
	"condsel/internal/engine"
)

// Column is one attribute's data for DB.AddTable. Nulls may be nil (no
// NULLs) or must match Values in length.
type Column struct {
	Name   string
	Values []int64
	Nulls  []bool
}

// DB is a database instance: a catalog of in-memory columnar tables plus an
// exact evaluator used for ground truth and for building SITs.
type DB struct {
	cat *engine.Catalog
	ev  *engine.Evaluator
	gen *datagen.DB // non-nil for generated snowflake databases
}

// NewDB returns an empty database; populate it with AddTable.
func NewDB() *DB {
	cat := engine.NewCatalog()
	return &DB{cat: cat, ev: engine.NewEvaluator(cat)}
}

// AddTable registers a table with the given columns. Column lengths must
// agree and names must be unique within the table.
func (db *DB) AddTable(name string, cols ...Column) error {
	t := &engine.Table{Name: name}
	for _, c := range cols {
		t.Cols = append(t.Cols, &engine.Column{Name: c.Name, Vals: c.Values, Null: c.Nulls})
	}
	_, err := db.cat.AddTable(t)
	return err
}

// SnowflakeConfig configures GenerateSnowflake; it mirrors the synthetic
// database of the paper's evaluation. The zero value selects reasonable
// defaults (50,000 fact rows, Zipf skew 1.2, 10% dangling keys).
type SnowflakeConfig struct {
	Seed               int64
	FactRows           int
	Skew               float64
	DanglingFrac       float64
	CorrelatedDangling bool
}

// GenerateSnowflake builds the paper's eight-table snowflake database:
// Zipf-skewed foreign keys, dimension attributes correlated with join
// fan-out, and dangling foreign keys. Workload generation (GenerateWorkload)
// is available on databases created this way.
func GenerateSnowflake(cfg SnowflakeConfig) *DB {
	gen := datagen.Generate(datagen.Config{
		Seed:               cfg.Seed,
		FactRows:           cfg.FactRows,
		Skew:               cfg.Skew,
		DanglingFrac:       cfg.DanglingFrac,
		CorrelatedDangling: cfg.CorrelatedDangling,
	})
	return &DB{cat: gen.Cat, ev: engine.NewEvaluator(gen.Cat), gen: gen}
}

// Tables returns the database's table names.
func (db *DB) Tables() []string { return db.cat.TableNames() }

// Attributes returns all qualified attribute names ("table.column").
func (db *DB) Attributes() []string { return db.cat.AttrNames() }

// NumRows returns the row count of the named table, or an error if the
// table does not exist.
func (db *DB) NumRows(table string) (int, error) {
	t := db.cat.TableByName(table)
	if t == nil {
		return 0, fmt.Errorf("condsel: unknown table %q", table)
	}
	return t.NumRows(), nil
}

// ExactCardinality evaluates the query exactly and returns its true result
// size. Evaluation is memoized per database across calls.
func (db *DB) ExactCardinality(q *Query) float64 {
	return db.ev.Count(q.q.Tables, q.q.Preds, q.q.All())
}

// ExactSelectivity returns the query's true selectivity relative to the
// cartesian product of its tables.
func (db *DB) ExactSelectivity(q *Query) float64 {
	return db.ev.Selectivity(q.q.Tables, q.q.Preds, q.q.All())
}

// ExactGroupCount evaluates the query and returns the true number of
// distinct values of attr ("table.column") over its result — the ground
// truth for Estimator.GroupCount. The attribute's table must be part of
// the query.
func (db *DB) ExactGroupCount(q *Query, attr string) (float64, error) {
	a, err := db.cat.Attr(attr)
	if err != nil {
		return 0, err
	}
	vals := db.ev.AttrValues(a, q.q.Preds, q.q.All())
	seen := make(map[int64]bool, len(vals))
	for _, v := range vals {
		seen[v] = true
	}
	return float64(len(seen)), nil
}

// Summary returns a human-readable description of the database.
func (db *DB) Summary() string {
	if db.gen != nil {
		return db.gen.Summary()
	}
	out := ""
	for _, name := range db.cat.TableNames() {
		t := db.cat.TableByName(name)
		out += fmt.Sprintf("%-10s %8d rows, %d attributes\n", name, t.NumRows(), len(t.Cols))
	}
	return out
}
