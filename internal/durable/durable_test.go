package durable

import (
	"bytes"
	"encoding/json"
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
	if err := Scan(path, func(r rec, _ int64, _ int) { got = append(got, r.K) }); err != nil {
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

// TestScanOffsets pins the spans Scan reports: each one reads back, with
// ReadAt, exactly its own line, also after skipped empty, undecodable and
// oversized lines and a final line with no newline.
func TestScanOffsets(t *testing.T) {
	lines := []string{
		`{"k":"a"}` + "\n",
		"\n",
		`{"k":` + "\n",
		`{"k":"` + strings.Repeat("x", MaxLine) + `"}` + "\n",
		`{"k":"b"}` + "\n",
		`{"k":"c"}`,
	}
	path := filepath.Join(t.TempDir(), "log.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{"a": lines[0], "b": lines[4], "c": lines[5]}
	var got []string
	err = Scan(path, func(r rec, off int64, n int) {
		got = append(got, r.K)
		line := make([]byte, n)
		if _, err := f.ReadAt(line, off); err != nil {
			t.Fatalf("%s: ReadAt(%d, %d): %v", r.K, n, off, err)
		}
		if string(line) != want[r.K] {
			t.Errorf("%s: span (%d, %d) reads %.40q, want %q", r.K, off, n, line, want[r.K])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, ",") != "a,b,c" {
		t.Fatalf("scan = %v, want a,b,c", got)
	}
}

// FuzzScan feeds arbitrary bytes followed by one well-formed line: the
// scanner must never panic, must deliver that line last, and every span
// it reports must hold exactly the line it decoded.
func FuzzScan(f *testing.F) {
	for _, seed := range []string{"", "{", `{"k":"x"}`, "\n\n", `{"k":"to`, "\x00\xff\n{]"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, junk []byte) {
		var input bytes.Buffer
		input.Write(junk)
		input.WriteString("\n" + `{"k":"sentinel"}` + "\n")
		all := bytes.Clone(input.Bytes())
		var last string
		n := 0
		err := scan(&input, func(r rec, off int64, size int) {
			last, n = r.K, n+1
			line := all[off : off+int64(size)]
			if i := bytes.IndexByte(line, '\n'); i >= 0 && i != len(line)-1 {
				t.Fatalf("span (%d, %d) holds more than one line: %q", off, size, line)
			}
			var back rec
			if err := json.Unmarshal(line, &back); err != nil || back != r {
				t.Fatalf("span (%d, %d) holds %q, not the line decoded as %+v", off, size, line, r)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 || last != "sentinel" {
			t.Fatalf("well-formed line not delivered last (got %d records, last %q)", n, last)
		}
	})
}
