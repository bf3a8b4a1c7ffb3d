package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type rec struct {
	K string `json:"k"`
}

func scanAll(t *testing.T, path string) []string {
	t.Helper()
	var got []string
	if err := Scan(path, func(r rec) { got = append(got, r.K) }); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestOpenAppendTerminatesTornTail proves a torn final line stays its own
// skipped line: the next append is not glued onto it.
func TestOpenAppendTerminatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte(`{"k":"a"}`+"\n"+`{"k":"to`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"b", "c"} {
		f, err := OpenAppend(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := Append(f, []byte(`{"k":"`+k+`"}`+"\n")); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if got := strings.Join(scanAll(t, path), ","); got != "a,b,c" {
		t.Fatalf("scan = %s, want a,b,c", got)
	}
	// A clean tail is left alone.
	before, _ := os.ReadFile(path)
	f, err := OpenAppend(path)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if after, _ := os.ReadFile(path); !bytes.Equal(before, after) {
		t.Error("OpenAppend modified a file with a clean tail")
	}
}

// FuzzScan feeds arbitrary bytes followed by one well-formed line: the
// scanner must never panic and must deliver that line last.
func FuzzScan(f *testing.F) {
	for _, seed := range []string{"", "{", `{"k":"x"}`, "\n\n", `{"k":"to`, "\x00\xff\n{]"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, junk []byte) {
		var input bytes.Buffer
		input.Write(junk)
		input.WriteString("\n" + `{"k":"sentinel"}` + "\n")
		var last string
		n := 0
		if err := scan(&input, func(r rec) { last, n = r.K, n+1 }); err != nil {
			t.Fatal(err)
		}
		if n == 0 || last != "sentinel" {
			t.Fatalf("well-formed line not delivered last (got %d records, last %q)", n, last)
		}
	})
}
