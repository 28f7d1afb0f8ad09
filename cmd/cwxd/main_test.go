package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestSaveHistoryFailureKeepsPrevious: a save that fails part-way — a full
// disk, a store error — leaves the previous snapshot as it was and no temp
// file behind; a save that succeeds replaces it.
func TestSaveHistoryFailureKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.txt")
	write := func(body string, fail error) func(io.Writer) error {
		return func(w io.Writer) error {
			if _, err := io.WriteString(w, body); err != nil {
				return err
			}
			return fail
		}
	}
	read := func() string {
		t.Helper()
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if err := saveHistory(write("first\n", nil), path); err != nil {
		t.Fatal(err)
	}
	errFull := errors.New("disk full")
	if err := saveHistory(write("half of the sec", errFull), path); !errors.Is(err, errFull) {
		t.Fatalf("failed save returned %v", err)
	}
	if got := read(); got != "first\n" {
		t.Fatalf("after a failed save the snapshot reads %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed save left its temp file: %v", err)
	}
	if err := saveHistory(write("second\n", nil), path); err != nil {
		t.Fatal(err)
	}
	if got := read(); got != "second\n" {
		t.Fatalf("after a good save the snapshot reads %q", got)
	}
}
