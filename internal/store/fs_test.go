package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"videocdn/internal/chunk"
)

func TestParseChunkName(t *testing.T) {
	cases := []struct {
		name string
		want chunk.ID
		ok   bool
	}{
		{"7-3", chunk.ID{Video: 7, Index: 3}, true},
		{"0-0", chunk.ID{}, true},
		{"4294967295-4294967295", chunk.ID{Video: 1<<32 - 1, Index: 1<<32 - 1}, true},
		{"", chunk.ID{}, false},
		{"7", chunk.ID{}, false},
		{"-3", chunk.ID{}, false},
		{"7-", chunk.ID{}, false},
		{"a-3", chunk.ID{}, false},
		{"7-b", chunk.ID{}, false},
		{"+7-3", chunk.ID{}, false},         // Sscanf used to accept this
		{" 7-3", chunk.ID{}, false},         // and this
		{"7-3x", chunk.ID{}, false},         // and trailing junk
		{"4294967296-0", chunk.ID{}, false}, // video overflows the key layout
		{"0-4294967296", chunk.ID{}, false},
		{"99999999999999999999-0", chunk.ID{}, false}, // uint64 overflow
		{"7-3.tmp", chunk.ID{}, false},
	}
	for _, c := range cases {
		got, ok := parseChunkName(c.name)
		if ok != c.ok || got != c.want {
			t.Errorf("parseChunkName(%q) = %v, %v; want %v, %v", c.name, got, ok, c.want, c.ok)
		}
	}
}

func TestFSShardDirsPrecreated(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewFS(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		p := filepath.Join(dir, fmt.Sprintf("%02x", i))
		fi, err := os.Stat(p)
		if err != nil || !fi.IsDir() {
			t.Fatalf("shard dir %s missing after NewFS: %v", p, err)
		}
	}
}

// TestFSRecoveryScanScrubsAndFilters: the recovery scan must index
// valid chunk files, skip malformed names and chunk files outside the
// directory fsShard names, and remove stray .tmp leftovers from a
// crashed Put.
func TestFSRecoveryScanScrubsAndFilters(t *testing.T) {
	dir := t.TempDir()
	s1, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	good := chunk.ID{Video: 12, Index: 7}
	if err := s1.Put(good, []byte("good")); err != nil {
		t.Fatal(err)
	}
	// Plant junk next to it: malformed names and a stray .tmp.
	shard := filepath.Dir(s1.path(good))
	for _, name := range []string{"garbage", "1-", "-2", "+3-4", "5-6-7"} {
		if err := os.WriteFile(filepath.Join(shard, name), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	tmp := s1.path(chunk.ID{Video: 12, Index: 8}) + ".tmp"
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A chunk file under the pre-scatter key>>3%256 directory is
	// unreachable by path(), so it must not be indexed.
	stray := chunk.ID{Video: 3, Index: 1}
	oldShard := uint8(stray.Key() >> 3 % 256)
	if oldShard == fsShard(stray.Key()) {
		t.Fatal("stray chunk's old and scatter shards coincide; pick another id")
	}
	if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%02x", oldShard), "3-1"), []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 1 || !s2.Has(good) || s2.Has(stray) {
		t.Errorf("recovered Len = %d, Has(good) = %v, Has(stray) = %v; want 1, true, false", s2.Len(), s2.Has(good), s2.Has(stray))
	}
	if got, err := s2.Get(good, nil); err != nil || string(got) != "good" {
		t.Errorf("recovered Get = %q, %v", got, err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Errorf("stray .tmp not cleaned by recovery scan: %v", err)
	}
}

// TestFSDurableWriteCrash: with the crash hook firing between the temp
// write and the rename, the chunk must not be visible after reopen and
// the leftover temp file must be scrubbed.
func TestFSDurableWriteCrash(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			dir := t.TempDir()
			s1, err := NewFSWithConfig(dir, FSConfig{Durable: durable})
			if err != nil {
				t.Fatal(err)
			}
			committed := chunk.ID{Video: 1, Index: 0}
			if err := s1.Put(committed, []byte("safe")); err != nil {
				t.Fatal(err)
			}
			crashErr := errors.New("simulated crash before rename")
			s1.crashAfterTemp = func() error { return crashErr }
			torn := chunk.ID{Video: 1, Index: 1}
			if err := s1.Put(torn, []byte("lost")); err != crashErr {
				t.Fatalf("Put with crash hook = %v, want the injected error", err)
			}
			if _, err := os.Stat(s1.path(torn) + ".tmp"); err != nil {
				t.Fatalf("crash simulation left no temp file: %v", err)
			}

			s2, err := NewFSWithConfig(dir, FSConfig{Durable: durable})
			if err != nil {
				t.Fatal(err)
			}
			if s2.Has(torn) {
				t.Error("torn write visible after reopen")
			}
			if _, err := s2.Get(torn, nil); !errors.Is(err, ErrNotFound) {
				t.Errorf("Get(torn) = %v, want ErrNotFound", err)
			}
			if _, err := os.Stat(s1.path(torn) + ".tmp"); !os.IsNotExist(err) {
				t.Errorf("temp leftover not scrubbed on reopen: %v", err)
			}
			if got, err := s2.Get(committed, nil); err != nil || string(got) != "safe" {
				t.Errorf("committed chunk lost: %q, %v", got, err)
			}
			if s2.Len() != 1 {
				t.Errorf("Len = %d, want 1", s2.Len())
			}
		})
	}
}

// TestFSDurablePutGet exercises the fsync path end to end.
func TestFSDurablePutGet(t *testing.T) {
	s, err := NewFSWithConfig(t.TempDir(), FSConfig{Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	id := chunk.ID{Video: 4, Index: 2}
	payload := bytes.Repeat([]byte("d"), 4096)
	if err := s.Put(id, payload); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(id, nil); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("durable Get mismatch: %d bytes, %v", len(got), err)
	}
}

// TestFSShardScatter: consecutive chunks of one video must spread
// across many shard directories (the old key>>3%256 piled 8
// consecutive chunks per directory).
func TestFSShardScatter(t *testing.T) {
	shards := make(map[uint8]struct{})
	for i := uint32(0); i < 64; i++ {
		shards[fsShard((chunk.ID{Video: 42, Index: i}).Key())] = struct{}{}
	}
	if len(shards) < 48 {
		t.Errorf("64 consecutive chunks landed in only %d shards", len(shards))
	}
}
