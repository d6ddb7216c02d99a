package store

// Native fuzz target for the journal reader, the byte stream recovery
// trusts after a crash. Seeds live under testdata/fuzz/FuzzReadJournal/;
// `make fuzz` runs the target for a short -fuzztime, and plain `go test`
// replays the seeds.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// FuzzReadJournal: reading arbitrary journal bytes never panics; a
// journal that reads cleanly survives the recovery reopen (its records
// read back unchanged with one appended record after them); and n
// complete records followed by bytes with no newline read as exactly
// those n records.
func FuzzReadJournal(f *testing.F) {
	// An over-long line: one record far beyond a line scanner's default
	// buffer, followed by a torn copy of itself.
	long, err := json.Marshal(Record{Op: "advance", Stamp: scenario.Stamp{KernelDigest: strings.Repeat("d", 70_000)}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append(long, '\n'), long[:len(long)/2]...), uint8(1))

	st, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(st.Dir(), "journals", "fz.journal")
	write := func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		write(t, data)
		recs, err := st.ReadJournal("fz")
		if err == nil {
			jr, err := st.OpenJournal("fz")
			if err != nil {
				t.Fatalf("reopening a readable journal: %v", err)
			}
			probe := Record{Op: "close", Stamp: scenario.Stamp{At: 1}}
			if err := jr.Append(probe); err != nil {
				t.Fatal(err)
			}
			jr.Close()
			got, err := st.ReadJournal("fz")
			if err != nil {
				t.Fatalf("journal unreadable after the recovery append: %v", err)
			}
			if want := append(recs, probe); !reflect.DeepEqual(got, want) {
				t.Fatalf("recovery append:\n got %+v\nwant %+v", got, want)
			}
		}

		var body []byte
		var want []Record
		for i := 0; i < int(n%8); i++ {
			rec := Record{Op: "advance", Stamp: scenario.Stamp{At: time.Duration(i), TraceLen: len(data)}}
			line, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			body = append(append(body, line...), '\n')
			want = append(want, rec)
		}
		write(t, append(body, bytes.ReplaceAll(data, []byte("\n"), nil)...))
		got, err := st.ReadJournal("fz")
		if err != nil {
			t.Fatalf("%d complete records + newline-free tail: %v", len(want), err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d complete records + newline-free tail read as %d records:\n got %+v\nwant %+v",
				len(want), len(got), got, want)
		}
	})
}
