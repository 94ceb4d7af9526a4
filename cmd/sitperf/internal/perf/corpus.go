package perf

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"condsel/internal/datagen"
	"condsel/internal/engine"
	"condsel/internal/workload"
)

// corpusVersion names the corpus format and generation scheme. Bump it
// whenever either changes, so cached corpora of the old scheme are not
// reused.
const corpusVersion = 1

// Query shape of the paper's §5 workload: J joins, 3 filters at about 0.05
// selectivity each. J cycles through 3..7, so every corpus prefix holds the
// same mix of sizes whatever the seed.
const (
	minJoins = 3
	maxJoins = 7
	filters  = 3
	// chunk is how many queries of one J one generator draws, so corpus
	// generation splits into independent tasks.
	chunk = 40
)

// Entry is one corpus query: its text, its join count and its exact
// cardinality from engine.Evaluator.
type Entry struct {
	Joins int
	Truth float64
	Text  string
}

// Corpus is an ordered list of generated queries.
type Corpus []Entry

// GenerateCorpus draws n queries for the seed over the database, with at
// most workers generators running at once. The output depends only on
// (db, seed, n), not on workers.
func GenerateCorpus(db *datagen.DB, seed int64, n, workers int) (Corpus, error) {
	const sizes = maxJoins - minJoins + 1
	type task struct{ j, c int }
	var tasks []task
	perJ := (n + sizes - 1) / sizes
	for c := 0; c*chunk < perJ; c++ {
		for j := minJoins; j <= maxJoins; j++ {
			tasks = append(tasks, task{j, c})
		}
	}
	results := make(map[task][]Entry, len(tasks))
	var mu sync.Mutex
	var firstErr error
	next := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < max(1, workers); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range next {
				es, err := generateChunk(db, seed, t.j, t.c)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				results[t] = es
				mu.Unlock()
			}
		}()
	}
	for _, t := range tasks {
		next <- t
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	out := make(Corpus, n)
	for k := range out {
		j, m := minJoins+k%sizes, k/sizes
		out[k] = results[task{j, m / chunk}][m%chunk]
	}
	return out, nil
}

// generateChunk draws one chunk of J-join queries from its own generator and
// counts each query's exact cardinality.
func generateChunk(db *datagen.DB, seed int64, j, c int) ([]Entry, error) {
	g := workload.NewGenerator(db, workload.Config{
		Seed:       chunkSeed(seed, j, c),
		NumQueries: chunk,
		Joins:      j,
		Filters:    filters,
	})
	qs, err := g.Generate()
	if err != nil {
		return nil, fmt.Errorf("corpus: J=%d chunk %d: %w", j, c, err)
	}
	ev := engine.NewEvaluator(db.Cat)
	out := make([]Entry, len(qs))
	for i, q := range qs {
		out[i] = Entry{Joins: j, Truth: ev.Count(q.Tables, q.Preds, q.All()), Text: q.String()}
	}
	return out, nil
}

// chunkSeed gives every (seed, J, chunk) its own generator seed.
func chunkSeed(seed int64, j, c int) int64 {
	return seed*1_000_003 + int64(c)*16 + int64(j)
}

// Encode writes the corpus as tab-separated lines: joins, truth, text.
func (c Corpus) Encode() []byte {
	var b bytes.Buffer
	for _, e := range c {
		b.WriteString(strconv.Itoa(e.Joins))
		b.WriteByte('\t')
		b.WriteString(strconv.FormatFloat(e.Truth, 'g', -1, 64))
		b.WriteByte('\t')
		b.WriteString(e.Text)
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// DecodeCorpus parses Encode's output.
func DecodeCorpus(data []byte) (Corpus, error) {
	var out Corpus
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	for line := 1; sc.Scan(); line++ {
		f := strings.SplitN(sc.Text(), "\t", 3)
		if len(f) != 3 {
			return nil, fmt.Errorf("corpus line %d: want 3 fields, got %d", line, len(f))
		}
		j, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("corpus line %d: joins: %w", line, err)
		}
		truth, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("corpus line %d: truth: %w", line, err)
		}
		out = append(out, Entry{Joins: j, Truth: truth, Text: f[2]})
	}
	return out, sc.Err()
}

// corpusPath names the cache file of one (version, seed, size).
func corpusPath(dir string, seed int64, n int) string {
	return filepath.Join(dir, fmt.Sprintf("corpus-v%d-seed%d-n%d.tsv", corpusVersion, seed, n))
}

// LoadOrGenerateCorpus returns the corpus of (seed, n): from its cache file
// under dir when one exists, else generated and, when dir is set, cached.
func LoadOrGenerateCorpus(dir string, db *datagen.DB, seed int64, n, workers int) (Corpus, error) {
	path := corpusPath(dir, seed, n)
	if dir != "" {
		data, err := os.ReadFile(path)
		if err == nil {
			c, err := DecodeCorpus(data)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if len(c) != n {
				return nil, fmt.Errorf("%s holds %d queries, want %d", path, len(c), n)
			}
			return c, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
	}
	c, err := GenerateCorpus(db, seed, n, workers)
	if err != nil || dir == "" {
		return c, err
	}
	return c, writeAtomic(dir, path, c.Encode())
}

// writeAtomic writes data to path through a temporary file in dir, so an
// interrupted run never leaves a torn file that a later run would trust.
func writeAtomic(dir, path string, data []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".corpus-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}
