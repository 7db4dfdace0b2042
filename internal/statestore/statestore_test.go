package statestore

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
)

// TestBackendConformance drives every built-in backend through the Backend
// contract: read-your-writes, ErrNotFound on absent keys, idempotent
// deletes, prefix listing in sorted order, and overwrite semantics.
func TestBackendConformance(t *testing.T) {
	backends := map[string]func(t *testing.T) Backend{
		"mem": func(t *testing.T) Backend { return NewMem() },
		"dir": func(t *testing.T) Backend {
			d, err := NewDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
	}
	for name, mk := range backends {
		t.Run(name, func(t *testing.T) {
			b := mk(t)
			ctx := context.Background()

			if _, err := b.Read(ctx, "check/absent"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Read absent: err = %v, want ErrNotFound", err)
			}
			if err := b.Delete(ctx, "check/absent"); err != nil {
				t.Fatalf("Delete absent: %v", err)
			}

			if err := b.Write(ctx, "check/a-f1", []byte("v1")); err != nil {
				t.Fatal(err)
			}
			if err := b.Write(ctx, "check/a-f2", []byte("v2")); err != nil {
				t.Fatal(err)
			}
			if err := b.Write(ctx, "maxf/a", []byte("v3")); err != nil {
				t.Fatal(err)
			}
			got, err := b.Read(ctx, "check/a-f1")
			if err != nil || string(got) != "v1" {
				t.Fatalf("Read = %q, %v", got, err)
			}

			// Overwrite replaces.
			if err := b.Write(ctx, "check/a-f1", []byte("v1b")); err != nil {
				t.Fatal(err)
			}
			got, _ = b.Read(ctx, "check/a-f1")
			if string(got) != "v1b" {
				t.Fatalf("after overwrite: Read = %q", got)
			}

			keys, err := b.List(ctx, "check/")
			if err != nil {
				t.Fatal(err)
			}
			if want := []string{"check/a-f1", "check/a-f2"}; !reflect.DeepEqual(keys, want) {
				t.Fatalf("List(check/) = %v, want %v", keys, want)
			}
			all, err := b.List(ctx, "")
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != 3 {
				t.Fatalf("List(\"\") = %v, want 3 keys", all)
			}

			if err := b.Delete(ctx, "check/a-f1"); err != nil {
				t.Fatal(err)
			}
			if _, err := b.Read(ctx, "check/a-f1"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Read deleted: err = %v, want ErrNotFound", err)
			}

			// Bad keys are rejected uniformly.
			for _, bad := range []string{"", "a//b", "../escape", "a/../b", "sp ace", "semi;colon"} {
				if err := b.Write(ctx, bad, []byte("x")); err == nil {
					t.Fatalf("Write(%q) accepted", bad)
				}
				if _, err := b.Read(ctx, bad); err == nil {
					t.Fatalf("Read(%q) accepted", bad)
				}
			}
		})
	}
}

func TestValidKey(t *testing.T) {
	for key, want := range map[string]bool{
		"check/ab12-f2-t3": true,
		"a":                true,
		"a.b_c-d/e":        true,
		"":                 false,
		"/a":               false,
		"a/":               false,
		"..":               false,
		"a/..":             false,
		"a b":              false,
		"ü":                false,
	} {
		if got := ValidKey(key); got != want {
			t.Errorf("ValidKey(%q) = %v, want %v", key, got, want)
		}
	}
}

// TestDirAtomicWriteLeavesNoTemp checks that completed writes leave no temp
// droppings and that List never surfaces them.
func TestDirAtomicWriteLeavesNoTemp(t *testing.T) {
	root := t.TempDir()
	d, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := d.Write(ctx, "check/key", []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(filepath.Join(root, "check"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want 1 (temp files left behind?)", len(entries))
	}
}

// TestDirSurvivesReopen pins the durability property the resume path relies
// on: a fresh Dir over the same root sees earlier writes.
func TestDirSurvivesReopen(t *testing.T) {
	root := t.TempDir()
	ctx := context.Background()
	d1, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Write(ctx, "maxf/k", []byte("state")); err != nil {
		t.Fatal(err)
	}
	d2, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d2.Read(ctx, "maxf/k")
	if err != nil || string(got) != "state" {
		t.Fatalf("reopened Read = %q, %v", got, err)
	}
}

// TestConcurrentAccess hammers both backends from many goroutines; run
// under -race this pins the concurrency contract.
func TestConcurrentAccess(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]Backend{"mem": NewMem(), "dir": dir} {
		t.Run(name, func(t *testing.T) {
			ctx := context.Background()
			var wg sync.WaitGroup
			for w := 0; w < 8; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 50; i++ {
						_ = b.Write(ctx, "check/shared", []byte("payload"))
						if v, err := b.Read(ctx, "check/shared"); err == nil && string(v) != "payload" {
							t.Errorf("torn read: %q", v)
						}
						_, _ = b.List(ctx, "check/")
					}
				}()
			}
			wg.Wait()
		})
	}
}

// TestMemCanceledContext checks context errors surface instead of results.
func TestMemCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := NewMem()
	if err := m.Write(ctx, "k", []byte("v")); !errors.Is(err, context.Canceled) {
		t.Fatalf("Write on canceled ctx: %v", err)
	}
	if _, err := m.Read(ctx, "k"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Read on canceled ctx: %v", err)
	}
}
