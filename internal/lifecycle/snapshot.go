package lifecycle

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"condsel/internal/engine"
	"condsel/internal/faults"
	"condsel/internal/sit"
)

// Crash-safe pool snapshots. A checkpoint serializes the current epoch's
// pool plus the lifecycle state machine into one file per sequence number:
//
//	SITSNAP <version> <seq> <payload-len> <crc32-hex>\n
//	<payload bytes (JSON)>
//
// The writer goes temp file → write → fsync → atomic rename → directory
// fsync, so a crash at any instant leaves either the previous snapshot set
// intact (crash before rename) or the new file complete (crash after). The
// one failure rename cannot exclude — a crash after rename whose data pages
// never hit disk because fsync was skipped or lied — is exactly what the
// header guards: recovery verifies version, length and CRC before trusting a
// byte, treats any mismatch as a torn snapshot, and falls back to the
// previous sequence. A fixed number of old generations is retained for that
// fallback.
//
// The faults harness wires in here: SnapshotTornWrite truncates the payload
// mid-write (modeling the lost-tail crash), FsyncError fails the data fsync.

const (
	snapshotMagic   = "SITSNAP"
	snapshotVersion = 1
	snapshotExt     = ".sit"
	snapshotPrefix  = "snap-"
)

// snapshotPayload is the JSON carried under the checksummed header.
type snapshotPayload struct {
	// Pool is the sit-package pool snapshot (sit.Pool.Encode), embedded
	// verbatim: healthy statistics with their histograms.
	Pool json.RawMessage `json:"pool"`
	// States is the lifecycle state machine, sorted by ID: drift
	// accumulators, park reasons, attempt counts and — for statistics not
	// serializable through Pool (quarantined ones) — their rebuild specs.
	States []stateRecord `json:"states,omitempty"`
	// Quarantined carries the pool's quarantine ledger so a restart reports
	// the same health a never-crashed process would.
	Quarantined []quarRecord `json:"quarantined,omitempty"`
	// Seq is the snapshot's own sequence number, cross-checked against the
	// header and the filename.
	Seq uint64 `json:"seq"`
}

// stateRecord is the persisted form of one statistic's lifecycle state.
// Baseline is written only above 1; a record without it loads with 1.
type stateRecord struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Attempts int        `json:"attempts,omitempty"`
	Reason   string     `json:"reason,omitempty"`
	EWMA     float64    `json:"ewma,omitempty"`
	Obs      int        `json:"obs,omitempty"`
	Baseline float64    `json:"baseline,omitempty"`
	Healed   int        `json:"healed,omitempty"`
	Spec     *specShape `json:"spec,omitempty"`
}

// quarRecord mirrors sit.QuarantineRecord.
type quarRecord struct {
	ID     string `json:"id"`
	Reason string `json:"reason"`
}

// specShape is a rebuildable statistic spec by attribute name, so snapshots
// stay schema-portable like the sit package's own serialization.
type specShape struct {
	Attr string     `json:"attr"`
	Expr []predSpec `json:"expr,omitempty"`
}

type predSpec struct {
	Join  bool   `json:"join,omitempty"`
	Attr  string `json:"attr,omitempty"`
	Left  string `json:"left,omitempty"`
	Right string `json:"right,omitempty"`
	Lo    int64  `json:"lo,omitempty"`
	Hi    int64  `json:"hi,omitempty"`
}

// SnapshotIssue describes one snapshot file recovery could not trust.
type SnapshotIssue struct {
	Seq    uint64 // sequence parsed from the filename (0 if unparseable)
	File   string // base name
	Reason string // why it was rejected
}

// snapshotPath returns dir/snap-<seq>.sit with a fixed-width sequence so
// lexical and numeric order agree.
func snapshotPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016d%s", snapshotPrefix, seq, snapshotExt))
}

// parseSnapshotSeq extracts the sequence from a snapshot base name.
func parseSnapshotSeq(name string) (uint64, bool) {
	if !strings.HasPrefix(name, snapshotPrefix) || !strings.HasSuffix(name, snapshotExt) {
		return 0, false
	}
	mid := strings.TrimSuffix(strings.TrimPrefix(name, snapshotPrefix), snapshotExt)
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// writeSnapshot persists the payload under sequence seq into dir with the
// temp+fsync+rename discipline. It returns the written path. Injected
// faults: SnapshotTornWrite writes a truncated payload under a full-length
// header and still publishes the file (the recovery suite's torn snapshot);
// FsyncError aborts between write and rename, leaving only a temp file that
// recovery ignores.
func writeSnapshot(dir string, seq uint64, payload []byte) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("lifecycle: snapshot dir: %w", err)
	}
	final := snapshotPath(dir, seq)
	tmp := final + ".tmp"

	header := fmt.Sprintf("%s %d %d %d %08x\n",
		snapshotMagic, snapshotVersion, seq, len(payload), crc32.ChecksumIEEE(payload))

	fs := faults.Active()
	torn := fs.Fire(faults.SnapshotTornWrite)
	body := payload
	if torn {
		body = payload[:len(payload)/2]
	}

	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("lifecycle: snapshot temp: %w", err)
	}
	w := bufio.NewWriter(f)
	if _, err := w.WriteString(header); err == nil {
		_, err = w.Write(body)
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil && !torn {
		// The torn-write fault models a crash before the data pages reached
		// disk, so it deliberately skips the fsync it is pretending was
		// never effective.
		if fs.Fire(faults.FsyncError) {
			err = faults.Injected{Point: faults.FsyncError}
		} else {
			err = f.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil && !torn {
		os.Remove(tmp)
		return "", fmt.Errorf("lifecycle: snapshot write: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", fmt.Errorf("lifecycle: snapshot publish: %w", err)
	}
	syncDir(dir)
	if torn {
		// The file is published exactly as a lost-tail crash would leave it;
		// the caller learns the checkpoint did not durably complete.
		return final, faults.Injected{Point: faults.SnapshotTornWrite}
	}
	return final, nil
}

// syncDir fsyncs the directory so the rename itself is durable; errors are
// deliberately dropped (some filesystems refuse directory fsync, and the
// fallback is the previous snapshot generation recovery keeps anyway).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}

// pruneSnapshots removes snapshot files older than the keep newest ones.
// Temp leftovers from interrupted writes are removed unconditionally.
func pruneSnapshots(dir string, keep int) {
	if keep < 1 {
		keep = 1
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") && strings.HasPrefix(name, snapshotPrefix) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if seq, ok := parseSnapshotSeq(name); ok {
			seqs = append(seqs, seq)
		}
	}
	if len(seqs) <= keep {
		return
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	for _, seq := range seqs[keep:] {
		os.Remove(snapshotPath(dir, seq))
	}
}

// readSnapshot loads and verifies one snapshot file: header shape, version,
// payload length, CRC, JSON decode, and header/payload sequence agreement.
// Any mismatch returns an error naming what tore.
func readSnapshot(path string) (*snapshotPayload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, fmt.Errorf("no header line")
	}
	var (
		magic    string
		version  int
		seq      uint64
		plen     int
		crcField string
	)
	if _, err := fmt.Sscanf(string(data[:nl]), "%s %d %d %d %s",
		&magic, &version, &seq, &plen, &crcField); err != nil || magic != snapshotMagic {
		return nil, fmt.Errorf("malformed header %q", string(data[:nl]))
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("unsupported snapshot version %d", version)
	}
	payload := data[nl+1:]
	if len(payload) != plen {
		return nil, fmt.Errorf("torn payload: %d bytes, header says %d", len(payload), plen)
	}
	crc, err := strconv.ParseUint(crcField, 16, 32)
	if err != nil {
		return nil, fmt.Errorf("malformed checksum %q", crcField)
	}
	if got := crc32.ChecksumIEEE(payload); got != uint32(crc) {
		return nil, fmt.Errorf("checksum mismatch: payload %08x, header %08x", got, uint32(crc))
	}
	var snap snapshotPayload
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("payload decode: %v", err)
	}
	if snap.Seq != seq {
		return nil, fmt.Errorf("sequence mismatch: payload %d, header %d", snap.Seq, seq)
	}
	return &snap, nil
}

// recoverLatest scans dir for the newest loadable snapshot: files are tried
// newest-first, each rejected one is recorded as an issue, and the first
// that verifies end-to-end (including pool decode against the catalog) wins.
// A half-written pool can never load: verification precedes any use. With no
// usable snapshot it returns a nil payload and the issues found.
func recoverLatest(cat *engine.Catalog, dir string) (*snapshotPayload, *sit.Pool, []SnapshotIssue, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil, nil
		}
		return nil, nil, nil, fmt.Errorf("lifecycle: reading snapshot dir: %w", err)
	}
	var seqs []uint64
	for _, e := range entries {
		if seq, ok := parseSnapshotSeq(e.Name()); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })

	var issues []SnapshotIssue
	for _, seq := range seqs {
		path := snapshotPath(dir, seq)
		snap, err := readSnapshot(path)
		if err != nil {
			issues = append(issues, SnapshotIssue{Seq: seq, File: filepath.Base(path), Reason: err.Error()})
			continue
		}
		pool, err := sit.ReadPool(cat, bytes.NewReader(snap.Pool))
		if err != nil {
			issues = append(issues, SnapshotIssue{Seq: seq, File: filepath.Base(path), Reason: err.Error()})
			continue
		}
		return snap, pool, issues, nil
	}
	return nil, nil, issues, nil
}

// encodeSpec renders a rebuild spec by attribute names.
func encodeSpec(cat *engine.Catalog, attr engine.AttrID, expr []engine.Pred) *specShape {
	out := &specShape{Attr: cat.AttrName(attr)}
	for _, p := range expr {
		if p.IsJoin() {
			out.Expr = append(out.Expr, predSpec{Join: true, Left: cat.AttrName(p.Left), Right: cat.AttrName(p.Right)})
		} else {
			out.Expr = append(out.Expr, predSpec{Attr: cat.AttrName(p.Attr), Lo: p.Lo, Hi: p.Hi})
		}
	}
	return out
}

// decodeSpec resolves a persisted spec against the catalog.
func decodeSpec(cat *engine.Catalog, s *specShape) (engine.AttrID, []engine.Pred, error) {
	attr, err := cat.Attr(s.Attr)
	if err != nil {
		return 0, nil, err
	}
	var expr []engine.Pred
	for _, ps := range s.Expr {
		if ps.Join {
			l, err := cat.Attr(ps.Left)
			if err != nil {
				return 0, nil, err
			}
			r, err := cat.Attr(ps.Right)
			if err != nil {
				return 0, nil, err
			}
			expr = append(expr, engine.Join(l, r))
		} else {
			a, err := cat.Attr(ps.Attr)
			if err != nil {
				return 0, nil, err
			}
			expr = append(expr, engine.Filter(a, ps.Lo, ps.Hi))
		}
	}
	return attr, expr, nil
}
