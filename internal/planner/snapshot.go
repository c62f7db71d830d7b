package planner

// Warm restarts (DESIGN.md "Pressure & degradation"): a planner's hot state —
// the solved-result LRU and the cross-request class store — is rebuilt from
// scratch on every process start, so a crash or rolling restart turns a warm
// daemon into a cold one exactly when callers are retrying hardest. A
// snapshot captures both caches deterministically; restoring one on boot
// makes the first repeat request a cache hit again.
//
// The format is defensive in three layers. The outer envelope names the
// format version and carries a canon fingerprint of every fingerprint-scheme
// version label the cached keys depend on: a snapshot written by a build with
// different solve/class semantics is detected *before* any payload decoding
// and discarded as stale (restoring it would serve results under keys the
// new code would never compute). The payload bytes are SHA-256 checksummed,
// so a torn or bit-rotted file is rejected rather than half-restored. And
// writes are atomic (temp file + rename), so a crash mid-checkpoint leaves
// the previous snapshot intact.
//
// Cache recency survives the round trip: both caches serialize entries least
// recent first, and restore re-inserts in slice order, so the re-Put sequence
// reproduces the original eviction order.

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"pase/internal/canon"
	"pase/internal/cost"
)

// snapshotFormat is the snapshot envelope version. Bump it when the envelope
// or payload layout changes incompatibly.
const snapshotFormat = "pase.planner.snapshot/v1"

// ErrSnapshotStale is returned by ReadSnapshot/LoadSnapshot when the file is
// not a snapshot this build can use: wrong format version, fingerprint-scheme
// mismatch (the cached keys would be dead), or payload corruption. Callers
// should log it and start cold — it is a warning, not a fatal error.
var ErrSnapshotStale = errors.New("planner: snapshot stale or corrupt")

// snapshotFingerprint pins a snapshot to the fingerprint and table semantics
// its keys and values were computed under. Every version label that
// participates in cache-key or class-table identity is folded in; bumping any
// of them (or the list itself drifting) invalidates old snapshots instead of
// serving results under keys the new code would never compute.
func snapshotFingerprint() canon.Fingerprint {
	w := canon.NewWriter()
	w.Label(snapshotFormat)
	for _, label := range []string{
		"pase.request/v1",      // request/solve fingerprints (result-cache keys)
		"graph.Graph",          // graph content fingerprints
		"itspace.enumerate/v2", // configuration enumeration (degree divides p)
		"cost.vertex-class/v1", // class-store key schemes
		"cost.edge-class/v1",
		"cost.prune-class/v2",
		"cost.store.prune/v1",
		"cost.store.compact/v1",
	} {
		w.Str(label)
	}
	return w.Sum()
}

// snapshotResult is one result-cache entry in wire form, least recent first
// in the payload slice.
type snapshotResult struct {
	Key    canon.Fingerprint
	Result Result
}

// snapshotPayload is the checksummed inner body.
type snapshotPayload struct {
	Results []snapshotResult
	Classes []cost.StoreSnapshotEntry
}

// snapshotEnvelope is the outer wire form: version and fingerprint are
// validated before the payload is decoded, and Sum guards the payload bytes.
type snapshotEnvelope struct {
	Format      string
	Fingerprint canon.Fingerprint
	Sum         [sha256.Size]byte
	Payload     []byte
}

// WriteSnapshot serializes the planner's result cache and class store to w.
// In-flight solves and model builds are not captured — a snapshot taken under
// load holds whatever has been published so far.
func (p *Planner) WriteSnapshot(w io.Writer) error {
	var pay snapshotPayload
	p.mu.Lock()
	pay.Results = make([]snapshotResult, 0, p.results.Len())
	p.results.Each(func(k canon.Fingerprint, r *Result) {
		pay.Results = append(pay.Results, snapshotResult{Key: k, Result: *r})
	})
	p.mu.Unlock()
	pay.Classes = p.store.Snapshot()

	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&pay); err != nil {
		return fmt.Errorf("planner: encode snapshot payload: %w", err)
	}
	env := snapshotEnvelope{
		Format:      snapshotFormat,
		Fingerprint: snapshotFingerprint(),
		Sum:         sha256.Sum256(buf.Bytes()),
		Payload:     buf.Bytes(),
	}
	if err := gob.NewEncoder(w).Encode(&env); err != nil {
		return fmt.Errorf("planner: encode snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot restores a snapshot written by WriteSnapshot into the
// planner's caches, returning how many results and class entries were
// restored. A snapshot from an incompatible build or with a corrupt payload
// returns ErrSnapshotStale without touching any cache. Restored entries never
// displace ones already present (live state wins over the snapshot's).
func (p *Planner) ReadSnapshot(r io.Reader) (results, classes int, err error) {
	var env snapshotEnvelope
	if err := gob.NewDecoder(r).Decode(&env); err != nil {
		return 0, 0, fmt.Errorf("%w: envelope: %v", ErrSnapshotStale, err)
	}
	if env.Format != snapshotFormat {
		return 0, 0, fmt.Errorf("%w: format %q, want %q", ErrSnapshotStale, env.Format, snapshotFormat)
	}
	if fp := snapshotFingerprint(); env.Fingerprint != fp {
		return 0, 0, fmt.Errorf("%w: fingerprint scheme %s, want %s", ErrSnapshotStale, env.Fingerprint, fp)
	}
	if sum := sha256.Sum256(env.Payload); sum != env.Sum {
		return 0, 0, fmt.Errorf("%w: payload checksum mismatch", ErrSnapshotStale)
	}
	var pay snapshotPayload
	if err := gob.NewDecoder(bytes.NewReader(env.Payload)).Decode(&pay); err != nil {
		return 0, 0, fmt.Errorf("%w: payload: %v", ErrSnapshotStale, err)
	}

	p.mu.Lock()
	for i := range pay.Results {
		sr := &pay.Results[i]
		if _, ok := p.results.Get(sr.Key); ok {
			continue
		}
		res := sr.Result
		p.results.Put(sr.Key, &res)
		results++
	}
	p.stats.RestoredResults += int64(results)
	p.mu.Unlock()
	classes = p.store.Restore(pay.Classes)
	return results, classes, nil
}

// SaveSnapshot writes a snapshot to path atomically: the bytes land in a
// temp file in path's directory and replace path only on a complete, synced
// write, so a crash mid-checkpoint never clobbers the previous snapshot.
func (p *Planner) SaveSnapshot(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("planner: snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := p.WriteSnapshot(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("planner: sync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("planner: close snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("planner: publish snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot restores the snapshot at path. A missing file is not an
// error — it reports (0, 0, nil), the cold-start case. ErrSnapshotStale
// means the file exists but is unusable; callers should log and continue
// cold.
func (p *Planner) LoadSnapshot(path string) (results, classes int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("planner: open snapshot: %w", err)
	}
	defer f.Close()
	return p.ReadSnapshot(f)
}
