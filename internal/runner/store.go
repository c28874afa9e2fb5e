package runner

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Store persists one versioned JSON artifact per completed sweep cell in a
// flat directory, so an interrupted sweep resumes from its cached cells
// instead of recomputing them. Files are named by a stable hash of the
// cell key; the key itself is stored inside the envelope and verified on
// read, turning hash collisions and stale directories into errors rather
// than silent wrong results. Writes are atomic (temp file + rename), so a
// run killed mid-write never leaves a truncated artifact behind.
type Store struct {
	dir string
}

// OpenStore opens (creating if needed) an artifact store directory.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("runner: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: open store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// pathFor maps a cell key to its artifact file.
func (s *Store) pathFor(key string) string {
	return filepath.Join(s.dir, fmt.Sprintf("%016x.json", Hash64(key)))
}

// Get loads the artifact for key into out. It returns (false, nil) when no
// artifact exists, and an error when one exists but cannot be trusted
// (version or key mismatch, corrupt JSON).
func (s *Store) Get(key string, out any) (bool, error) {
	path := s.pathFor(key)
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("runner: store get %s: %w", path, err)
	}
	defer f.Close()
	if err := loadArtifact(f, key, out); err != nil {
		return false, fmt.Errorf("runner: store get %s: %w", path, err)
	}
	return true, nil
}

// Put atomically writes the artifact for key. Concurrent Puts of distinct
// keys are safe; a Put of an existing key replaces it.
func (s *Store) Put(key string, v any) error {
	tmp, err := os.CreateTemp(s.dir, ".artifact-*")
	if err != nil {
		return fmt.Errorf("runner: store put %q: %w", key, err)
	}
	defer os.Remove(tmp.Name())
	if err := saveArtifact(tmp, key, v); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("runner: store put %q: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), s.pathFor(key)); err != nil {
		return fmt.Errorf("runner: store put %q: %w", key, err)
	}
	return nil
}

// Len counts the artifacts currently in the store.
func (s *Store) Len() (int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, fmt.Errorf("runner: store len: %w", err)
	}
	n := 0
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".json" {
			n++
		}
	}
	return n, nil
}

// artifactVersion tags the artifact envelope; readers reject other
// versions.
const artifactVersion = 1

// artifactFile is the JSON envelope of one cached sweep cell, keyed by
// the canonical cell descriptor so a resumed sweep can detect stale or
// colliding entries.
type artifactFile struct {
	Version int             `json:"version"`
	Key     string          `json:"key"`
	Payload json.RawMessage `json:"payload"`
}

// saveArtifact writes v as a versioned JSON artifact tagged with key.
func saveArtifact(w io.Writer, key string, v any) error {
	if key == "" {
		return fmt.Errorf("runner: empty artifact key")
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runner: encode artifact %q: %w", key, err)
	}
	return json.NewEncoder(w).Encode(artifactFile{Version: artifactVersion, Key: key, Payload: payload})
}

// loadArtifact reads an artifact written by saveArtifact into out,
// rejecting version mismatches and entries written under a different key
// (a hash collision or a stale store directory).
func loadArtifact(r io.Reader, key string, out any) error {
	var f artifactFile
	if err := json.NewDecoder(r).Decode(&f); err != nil {
		return fmt.Errorf("runner: decode artifact %q: %w", key, err)
	}
	if f.Version != artifactVersion {
		return fmt.Errorf("runner: artifact %q version %d, want %d", key, f.Version, artifactVersion)
	}
	if f.Key != key {
		return fmt.Errorf("runner: artifact key mismatch: stored %q (hash collision or stale store)", f.Key)
	}
	if err := json.Unmarshal(f.Payload, out); err != nil {
		return fmt.Errorf("runner: decode artifact %q payload: %w", key, err)
	}
	return nil
}
