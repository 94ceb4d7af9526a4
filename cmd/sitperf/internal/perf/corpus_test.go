package perf

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"condsel/internal/engine"
	"condsel/internal/qtext"
)

func TestCorpusDependsOnSeedAlone(t *testing.T) {
	db := Database()
	const n = 60
	a, err := GenerateCorpus(db, 7, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCorpus(db, 7, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("same seed, different worker counts: corpora differ")
	}
	c, err := GenerateCorpus(db, 8, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Encode(), c.Encode()) {
		t.Fatal("seeds 7 and 8 gave the same corpus")
	}

	// J cycles through 3..7 and every truth is the engine's exact count.
	ev := engine.NewEvaluator(db.Cat)
	for i, e := range a {
		if want := minJoins + i%(maxJoins-minJoins+1); e.Joins != want {
			t.Errorf("query %d has J=%d, want %d", i, e.Joins, want)
		}
		q, err := qtext.Parse(db.Cat, e.Text)
		if err != nil {
			t.Fatalf("query %d does not parse: %v", i, err)
		}
		if got := ev.Count(q.Tables, q.Preds, q.All()); got != e.Truth {
			t.Errorf("query %d: truth %v, engine counts %v", i, e.Truth, got)
		}
	}
}

func TestCorpusCache(t *testing.T) {
	db := Database()
	dir := t.TempDir()
	first, err := LoadOrGenerateCorpus(dir, db, 3, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	path := corpusPath(dir, 3, 20)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("corpus not cached: %v", err)
	}
	if !bytes.Equal(data, first.Encode()) {
		t.Fatal("cached file differs from the generated corpus")
	}
	decoded, err := DecodeCorpus(data)
	if err != nil || !bytes.Equal(decoded.Encode(), data) {
		t.Fatalf("decode does not round-trip: %v", err)
	}

	// A cached corpus is read back, not regenerated.
	marked := append([]Entry(nil), first...)
	marked[0].Truth = 12345
	if err := os.WriteFile(path, Corpus(marked).Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	again, err := LoadOrGenerateCorpus(dir, db, 3, 20, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Truth != 12345 {
		t.Error("LoadOrGenerateCorpus regenerated a cached corpus")
	}

	// A cache file of the wrong size is refused.
	if err := os.WriteFile(path, Corpus(marked[:5]).Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOrGenerateCorpus(dir, db, 3, 20, 2); err == nil {
		t.Error("a truncated cache file was accepted")
	}
	if leftovers, _ := filepath.Glob(filepath.Join(dir, ".corpus-*")); len(leftovers) != 0 {
		t.Errorf("temporary files left behind: %v", leftovers)
	}
}
