package runner

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

type payload struct {
	Name string    `json:"name"`
	Xs   []float64 `json:"xs"`
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	in := payload{Name: "cell", Xs: []float64{1.5, -2, 0}}
	if err := s.Put("sweep/v1|cell=0", in); err != nil {
		t.Fatal(err)
	}
	var out payload
	hit, err := s.Get("sweep/v1|cell=0", &out)
	if err != nil || !hit {
		t.Fatalf("Get = (%v, %v), want hit", hit, err)
	}
	if out.Name != in.Name || len(out.Xs) != 3 || out.Xs[1] != -2 {
		t.Fatalf("round trip mangled payload: %+v", out)
	}
}

func TestStoreMissingKey(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	hit, err := s.Get("never-written", &out)
	if hit || err != nil {
		t.Fatalf("Get of missing key = (%v, %v), want (false, nil)", hit, err)
	}
}

func TestStoreDetectsKeyCollision(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("key-a", payload{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	// Simulate a 64-bit filename collision: key-b's slot holds key-a's
	// artifact.
	data, err := os.ReadFile(s.pathFor("key-a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.pathFor("key-b"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if _, err := s.Get("key-b", &out); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("collision not detected: %v", err)
	}
}

func TestStoreRejectsCorruptArtifact(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.pathFor("bad"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if _, err := s.Get("bad", &out); err == nil {
		t.Fatal("corrupt artifact accepted")
	}
}

// TestStoreReadsVersion1Envelope: a cell written by an earlier build of
// the store, byte for byte, still loads, so an -out directory resumes
// across releases that keep artifact version 1.
func TestStoreReadsVersion1Envelope(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "sweep/v1|cell=0"
	v1 := `{"version":1,"key":"sweep/v1|cell=0","payload":{"name":"cell","xs":[1.5,-2,0]}}` + "\n"
	if err := os.WriteFile(s.pathFor(key), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	hit, err := s.Get(key, &out)
	if err != nil || !hit {
		t.Fatalf("Get = (%v, %v), want hit", hit, err)
	}
	if out.Name != "cell" || len(out.Xs) != 3 || out.Xs[0] != 1.5 || out.Xs[1] != -2 || out.Xs[2] != 0 {
		t.Fatalf("version-1 payload read as %+v", out)
	}
	// Put writes the same bytes, so a store written now reads back in
	// a build that still expects them.
	if err := s.Put(key, payload{Name: "cell", Xs: []float64{1.5, -2, 0}}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.pathFor(key))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != v1 {
		t.Fatalf("Put wrote %q, want %q", data, v1)
	}
}

func TestStoreRejectsOtherVersion(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const key = "sweep/v1|cell=0"
	v2 := `{"version":2,"key":"sweep/v1|cell=0","payload":{"name":"cell","xs":[1.5,-2,0]}}` + "\n"
	if err := os.WriteFile(s.pathFor(key), []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if hit, err := s.Get(key, &out); hit || err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Fatalf("Get of a version-2 artifact = (%v, %v), want a version error", hit, err)
	}
}

func TestStoreLenCountsArtifacts(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i, key := range []string{"a", "b", "c"} {
		if err := s.Put(key, payload{Name: key}); err != nil {
			t.Fatal(err)
		}
		n, err := s.Len()
		if err != nil {
			t.Fatal(err)
		}
		if n != i+1 {
			t.Fatalf("Len = %d after %d puts", n, i+1)
		}
	}
}

func TestHash64IsStableAndCollisionFree(t *testing.T) {
	// Golden value: Hash64 names artifact files on disk, so any change
	// to it orphans every existing store. This pin must never move.
	if got := Hash64("olive/sim-cell/v1"); got != 0x8ca7abbdfa80716e {
		t.Fatalf("Hash64(%q) = %#016x — changing the hash breaks existing artifact stores", "olive/sim-cell/v1", got)
	}
	// Distinct (including near-identical) keys get distinct hashes.
	seen := map[uint64]string{}
	for i := 0; i < 1000; i++ {
		key := strings.Repeat("k", 1+i%7) + string(rune('a'+i%26))
		k := fmt.Sprintf("%s-rep=%d", key, i)
		h := Hash64(k)
		if prev, dup := seen[h]; dup {
			t.Fatalf("hash collision between %q and %q", prev, k)
		}
		seen[h] = k
	}
}
